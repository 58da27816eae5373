import json

import pytest

from vsllt import cli
from vsllt.cli import main
from vsllt.paths import parse_word
from vsllt.qpoly import parse_qpoly
from vsllt.rewrite import expand_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_word(capsys):
    code, out, _ = run(capsys, "expand", "--word", "-0-0++")
    assert code == 0
    assert "e[3, 1]: q" in out
    assert "e[4]: q^2 - q" in out
    assert "e[3, 1]: q + 1" in out
    assert "e[4]: q^2 + q" in out
    assert "e-positive at q+1: yes" in out


def test_expand_strips(capsys):
    code, out, _ = run(capsys, "expand", "--strips", "0:2")
    assert code == 0
    assert "word: -0+" in out
    assert "e[2]: 1" in out


def test_expand_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 2
    code, _, err = run(capsys, "expand", "--word", "-+", "--strips", "0:1")
    assert code == 2


def test_expand_parse_error(capsys):
    code, _, err = run(capsys, "expand", "--word", "-0")
    assert code == 2
    assert "unbalanced" in err


def test_expand_json_round_trips(capsys):
    code, out, _ = run(capsys, "expand", "--word", "-0-0++", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "-0-0++"
    assert doc["n"] == 4
    assert doc["e_positive"] is True
    rebuilt = {
        tuple(json.loads(key)): parse_qpoly(value) for key, value in doc["e"].items()
    }
    assert rebuilt == expand_word(parse_word("-0-0++"))
    shifted = {
        tuple(json.loads(key)): parse_qpoly(value)
        for key, value in doc["e_at_q_plus_1"].items()
    }
    assert shifted == {mu: c.shift_plus_one() for mu, c in rebuilt.items()}
    assert doc["qminus1"]["[4]"] == [0, 1, 1]


def test_path_command(capsys):
    code, out, _ = run(capsys, "path", "--strips", "0:2;-2:2;-1:1;1:1;-3:2;-1:2")
    assert code == 0
    assert "word: -,-,0,0,-,+,-,-,+,+,0,0,-,+,+,+" in out
    assert "area: (0, 1, 1, 1, 2, 2, 3, 1, 1, 2)" in out
    assert "crosses: 4" in out


def test_path_json(capsys):
    code, out, _ = run(capsys, "path", "--strips", "0:2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "-,0,+"
    assert doc["compact"] == "-0+"
    assert doc["area"] == [0, 0]
    assert doc["crosses"] == [[1, 2]]


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--strips", "0:1;0:1")
    assert code == 0
    assert "match: yes" in out


def test_oracle_empty_tuple(capsys):
    code, out, _ = run(capsys, "oracle", "--strips", "")
    assert code == 0
    assert "match: yes" in out


def test_oracle_nvars_override(capsys):
    code, out, _ = run(capsys, "oracle", "--strips", "0:2", "--nvars", "3")
    assert code == 0
    assert "variables: 3" in out


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-semilength", "2")
    assert code == 0
    assert "semilength 1: 1 paths, 1/1 pass (ok)" in out
    assert "semilength 2: 3 paths, 3/3 pass (ok)" in out
    assert "all checks pass" in out


def test_verify_parallel_matches_serial(capsys):
    code, serial, _ = run(capsys, "verify", "--max-semilength", "3")
    assert code == 0
    code, parallel, _ = run(capsys, "verify", "--max-semilength", "3", "--jobs", "2")
    assert code == 0
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("checked")]
    assert strip(serial) == strip(parallel)


def test_verify_rejects_bad_bound(capsys):
    code, _, _ = run(capsys, "verify", "--max-semilength", "0")
    assert code == 2


def test_verify_rejects_bad_jobs(capsys, monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("no pool may start for a rejected --jobs")

    monkeypatch.setattr(cli, "Pool", no_pool)
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--max-semilength", "2", "--jobs", jobs)
        assert code == 2
        assert f"--jobs must be >= 1, got {jobs}" in err
        assert out == ""


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="--jobs must be >= 1"):
            cli._pool_size(jobs)
    assert cli._pool_size(1) == 1
    assert cli._pool_size(2) == 2
    assert cli._pool_size(10**9) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(10**9) == 1


def test_verify_starts_one_pool(capsys, monkeypatch):
    real_pool = cli.Pool
    made = []

    def counting_pool(*args, **kwargs):
        made.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(cli, "Pool", counting_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, "verify", "--max-semilength", "3", "--jobs", "2")
    assert code == 0
    assert "all checks pass" in out
    assert made == [(2,)]


def test_oracle_refuses_huge_enumerations(capsys, monkeypatch):
    def no_enumeration(*_args, **_kwargs):
        raise AssertionError("a refused oracle run may not enumerate fillings")

    monkeypatch.setattr(cli.llt, "ssyt_generating_function", no_enumeration)
    for argv, count in (
        (["--strips", ";".join(["0:1"] * 10)], 10**10),
        (["--strips", "0:5;0:5;0:5;0:5", "--nvars", "20"], 15504**4),
    ):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == 2
        assert out == ""
        assert f"{count} tableau fillings" in err
        assert str(cli.MAX_ORACLE_FILLINGS) in err


def test_oracle_under_the_limit_still_matches(capsys):
    code, out, _ = run(capsys, "oracle", "--strips", "0:2;0:2;0:1")
    assert code == 0
    assert "match: yes" in out
