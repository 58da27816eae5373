import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import all_strip_tuples
from reference_qpoly import parse_qpoly

from vsllt import cli, dyckalgebra, llt, rewrite
from vsllt.cli import main
from vsllt.paths import parse_word
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
    # keys follow the text output's partition order, not the rewrite order
    for field in ("e", "e_at_q_plus_1", "qminus1"):
        assert list(doc[field]) == ["[4]", "[3, 1]"]


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


def test_json_indent2_writes_what_json_dumps_indent_2_writes():
    doc = {
        "s": "a\u00e9\"\n",
        "n": -3,
        "flags": [True, False, None],
        "empty_list": [],
        "empty_dict": {},
        "nested": {"[3, 1]": [0, [1, [2]]], "k": {"x": 1}},
        "pairs": [[1, 2], [3, 4]],
    }
    assert cli._json_indent2(doc) == json.dumps(doc, indent=2)
    for value in ([], {}, 7, "x", [1], {"a": []}):
        assert cli._json_indent2(value) == json.dumps(value, indent=2)


def _assert_indent_2_json(out):
    # the printed text is exactly json.dumps(..., indent=2) of what it holds
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_path_json_is_indent_2_json_on_every_small_tuple(capsys):
    tuples = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))
    assert len(tuples) == 1526
    for t in tuples:
        code, out, _ = run(capsys, "path", "--strips", llt.render_strips(t), "--json")
        assert code == 0
        _assert_indent_2_json(out)


def test_path_json_is_indent_2_json_on_a_long_strip(capsys):
    code, out, _ = run(capsys, "path", "--strips", "0:20000", "--json")
    assert code == 0
    _assert_indent_2_json(out)
    doc = json.loads(out)
    assert len(doc["area"]) == 20000 and len(doc["crosses"]) == 19999


def test_expand_and_oracle_json_are_indent_2_json(capsys):
    for argv in (
        ["expand", "--word", "-0-0++", "--json"],
        ["expand", "--strips", "0:2;-2:2", "--json"],
        ["oracle", "--strips", "0:1;-1:2", "--json"],
        ["oracle", "--strips", "", "--json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        _assert_indent_2_json(out)


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--strips", "0:1;0:1")
    assert code == 0
    assert "match: yes" in out


def test_oracle_prints_m_coefficients(capsys):
    # both sides as m_lam coefficients, in expand's partition order
    code, out, _ = run(capsys, "oracle", "--strips", "0:1;0:1")
    assert code == 0
    side = "  m[2]: 1\n  m[1, 1]: q + 1\n"
    assert out == (
        f"strips: 0:1;0:1\nvariables: 2\ntableau sum:\n{side}"
        f"operator expansion:\n{side}match: yes\n"
    )
    code, out, _ = run(capsys, "oracle", "--strips", "0:1;-1:2", "--json")
    assert code == 0
    side = {"[2, 1]": "q", "[1, 1, 1]": "q^2 + 2q"}
    assert json.loads(out) == {
        "strips": "0:1;-1:2", "nvars": 3, "tableau_side": side, "operator_side": side,
        "match": True,
    }
    assert list(json.loads(out)["tableau_side"]) == ["[2, 1]", "[1, 1, 1]"]
    # no filling in one variable: both sides are 0
    code, out, _ = run(capsys, "oracle", "--strips", "0:2", "--nvars", "1")
    assert code == 0
    assert "tableau sum:\n  0\noperator expansion:\n  0\n" in out


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


def test_verify_summary_reports_words_per_second(capsys):
    code, out, _ = run(capsys, "verify", "--max-semilength", "3")
    assert code == 0
    summary = out.splitlines()[-1]
    m = re.fullmatch(
        r"checked 15 paths up to semilength 3 in (\d+\.\d)s \((\d+) words/s\): all checks pass",
        summary,
    )
    assert m, summary
    assert int(m.group(2)) > 0


def test_verify_parallel_matches_serial(capsys):
    code, serial, _ = run(capsys, "verify", "--max-semilength", "3")
    assert code == 0
    code, parallel, _ = run(capsys, "verify", "--max-semilength", "3", "--jobs", "2")
    assert code == 0
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("checked")]
    assert strip(serial) == strip(parallel)


def test_verify_fail_line_ends_with_its_reproducer(capsys, monkeypatch):
    real = cli._verify_one

    def one_fails(word):
        text, agrees, rebased_ok, positive = real(word)
        return text, agrees, rebased_ok, positive and text != "--++"

    monkeypatch.setattr(cli, "_verify_one", one_fails)
    code, out, _ = run(capsys, "verify", "--max-semilength", "2")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL --++: not e-positive at q+1; reproduce: vsllt expand --word --++"
    ]
    assert "semilength 2: 3 paths, 2/3 pass (1 FAILURES)" in out
    # the reproducer is a command line this CLI runs
    monkeypatch.undo()
    argv = fails[0].split("reproduce: vsllt ")[1].split()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "word: --++" in out


def test_verify_fail_line_names_the_failing_factor(capsys, monkeypatch):
    # an injected fault in the operator side's packed value of one primitive
    # word, "--0++", reaches every composite word with that factor through
    # the factor memo; each of their FAIL lines names it, the word's own
    # does not.  The fault adds 1 to e[3], at every width.
    target = parse_word("--0++")
    real = dyckalgebra._apply_packed

    def faulty(word, n, bits):
        terms = dict(real(word, n, bits))
        if word == target:
            terms[(3,)] = terms.get((3,), 0) + 1
        return terms

    monkeypatch.setattr(dyckalgebra, "_apply_packed", faulty)
    dyckalgebra._primitive_value.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "--max-semilength", "4")
    finally:
        dyckalgebra._primitive_value.cache_clear()
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL --0++: rewrite/evaluation mismatch, first difference at e[3]: "
        "rewrite q^2 - q, evaluation q^2 - q + 1; reproduce: vsllt expand --word --0++",
        "FAIL -+--0++: rewrite/evaluation mismatch, first difference at e[3, 1]: "
        "rewrite q^2 - q, evaluation q^2 - q + 1; failing primitive factor --0++; "
        "reproduce: vsllt expand --word -+--0++",
        "FAIL --0++-+: rewrite/evaluation mismatch, first difference at e[3, 1]: "
        "rewrite q^2 - q, evaluation q^2 - q + 1; failing primitive factor --0++; "
        "reproduce: vsllt expand --word --0++-+",
    ]


def test_verify_fail_line_names_the_first_differing_coefficient(capsys, monkeypatch, cold_oracle):
    # a fault on the rewrite side: one more q^2 in the e[2, 1] coefficient of
    # the composite words "-+--++" and "--++-+", whose factor "--++" passes
    # on its own.  The two sides are decoded only for the FAIL line, which
    # gives the first partition in expand's order where they differ.
    targets = {parse_word("-+--++"), parse_word("--++-+")}
    real = rewrite.normalize

    def faulty(word):
        packed = real(word)
        if word in targets:
            # q^2 = t^2 + 2t + 1 in the digits of t = q-1
            bits = rewrite.digit_bits(3)
            packed[(2, 1)] += (1 << 2 * bits) + (2 << bits) + 1
        return packed

    monkeypatch.setattr(rewrite, "normalize", faulty)
    monkeypatch.setattr(cli, "normalize", faulty)
    code, out, _ = run(capsys, "verify", "--max-semilength", "3")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        f"FAIL {text}: rewrite/evaluation mismatch, first difference at e[2, 1]: "
        f"rewrite q^2 + q - 1, evaluation q - 1; every primitive factor passes on its own; "
        f"reproduce: vsllt expand --word {text}"
        for text in ("-+--++", "--++-+")
    ]


def test_verify_fail_line_when_every_factor_passes(capsys, monkeypatch):
    # a fault in the product of factors, not in any factor: the FAIL line says so
    real = cli._verify_one

    def composite_fails(word):
        text, agrees, rebased_ok, positive = real(word)
        return text, agrees and text != "-+-+", rebased_ok, positive

    monkeypatch.setattr(cli, "_verify_one", composite_fails)
    code, out, _ = run(capsys, "verify", "--max-semilength", "2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL -+-+: rewrite/evaluation mismatch; every primitive factor passes on its own; "
        "reproduce: vsllt expand --word -+-+"
    ]


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


def test_path_refuses_tuples_above_the_cap(capsys, monkeypatch, cold_oracle):
    def no_work(*_args, **_kwargs):
        raise AssertionError("a refused path run may not build the path")

    monkeypatch.setattr(cli.llt, "area_and_crosses", no_work)
    assert cli.MAX_PATH_CELLS == 10**6
    for strips, cells in (("0:1000001", 10**6 + 1), ("0:100000000;-1:1", 10**8 + 1)):
        code, out, err = run(capsys, "path", "--strips", strips, "--json")
        assert code == 2
        assert out == ""
        assert f"{cells} cells exceed the limit of {10**6}" in err


def test_oracle_refuses_huge_enumerations(capsys, monkeypatch, cold_oracle):
    def no_enumeration(*_args, **_kwargs):
        raise AssertionError("a refused oracle run may not enumerate fillings")

    monkeypatch.setattr(cli.llt, "ssyt_generating_function", no_enumeration)
    for argv, count in (
        (["--strips", ";".join(["0:1"] * 10)], 10**10),
        (["--strips", "0:5;0:5;0:4", "--nvars", "20"], 15504**2 * 4845),
    ):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == 2
        assert out == ""
        assert f"{count} tableau fillings" in err
        assert str(cli.MAX_ORACLE_FILLINGS) in err


def test_oracle_checks_the_cell_cap_before_counting(capsys, monkeypatch):
    # C(nvars + cells - 1, cells) at 3000000 cells runs for over a minute, so
    # the cell cap refuses such a tuple before any binomial is taken
    def no_count(*_args):
        raise AssertionError("a tuple above the cell cap may not be counted")

    monkeypatch.setattr(cli, "comb", no_count)
    code, out, err = run(capsys, "oracle", "--strips", "0:3000000")
    assert code == 2
    assert out == ""
    assert f"3000000 cells exceed the limit of {cli.MAX_EXPAND_SEMILENGTH}" in err


def test_oracle_refuses_huge_outputs(capsys, monkeypatch, cold_oracle):
    # 792**2 fillings are under the limit, but either side's polynomial could
    # span that many monomials of 12 entries (fewer than the C(25, 14)
    # monomials of degree 14 in 12 values)
    def no_enumeration(*_args, **_kwargs):
        raise AssertionError("a refused oracle run may not enumerate")

    monkeypatch.setattr(cli.llt, "ssyt_generating_function", no_enumeration)
    monkeypatch.setattr(cli.llt, "llt_in_vars", no_enumeration)
    code, out, err = run(capsys, "oracle", "--strips", "0:7;0:7", "--nvars", "12", "--json")
    assert code == 2
    assert out == ""
    assert f"{792**2 * 12} exponent entries" in err
    assert str(cli.MAX_ORACLE_FILLINGS) in err
    monkeypatch.undo()
    # the entries are counted in the values a filling of partition content
    # can use, so two one-cell strips in 200 variables (2 values) run
    code, out, _ = run(capsys, "oracle", "--strips", "0:1;0:1", "--nvars", "200")
    assert code == 0
    assert "match: yes" in out
    assert out.count("m[1, 1]: q + 1") == 2


def test_oracle_takes_many_variables(capsys):
    # a thousand variables are admitted here; the tableau count places at
    # most as many values as cells
    for strips, side in (("0:1", "m[1]: 1"), ("", "m[]: 1")):
        code, out, _ = run(capsys, "oracle", "--strips", strips, "--nvars", "1000")
        assert code == 0
        assert "match: yes" in out
        assert out.count(side) == 2


def test_oracle_under_the_limit_still_matches(capsys):
    code, out, _ = run(capsys, "oracle", "--strips", "0:2;0:2;0:1")
    assert code == 0
    assert "match: yes" in out


def test_verify_refuses_semilengths_above_the_cap(capsys, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("a refused verify run may not enumerate or check words")

    monkeypatch.setattr(cli, "_verify_one", no_work)
    monkeypatch.setattr(cli, "iter_paths", no_work)
    monkeypatch.setattr(cli, "Pool", no_work)
    assert cli.MAX_VERIFY_SEMILENGTH == 9
    code, out, err = run(capsys, "verify", "--max-semilength", "10")
    assert code == 2
    assert out == ""
    assert "648140 words (518859 at semilength 10)" in err
    assert "limit of semilength 9" in err
    # far beyond the cap the count stops one level past it, so refusing is instant
    code, out, err = run(capsys, "verify", "--max-semilength", str(10**9), "--jobs", "2")
    assert code == 2
    assert out == ""
    assert "more than 648140 words" in err


def test_expand_refuses_semilengths_above_the_cap(capsys, monkeypatch, cold_oracle):
    def no_rewriting(*_args, **_kwargs):
        raise AssertionError("a refused expand run may not rewrite")

    monkeypatch.setattr(rewrite, "normalize", no_rewriting)
    assert cli.MAX_EXPAND_SEMILENGTH == 14
    for argv in (
        ["--word", "-" * 15 + "+" * 15],
        ["--strips", ";".join(["0:1"] * 15), "--json"],
        ["--word", "-0" * 10 + "+" * 10],
    ):
        code, out, err = run(capsys, "expand", *argv)
        assert code == 2
        assert out == ""
        assert "semilength " in err and "limit of 14" in err
    assert "semilength 20" in err
    monkeypatch.undo()
    # the cap bounds the semilength, not the cost: a terminal word at the cap still runs
    code, out, _ = run(capsys, "expand", "--word", "-+" * 14)
    assert code == 0
    assert "e[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]: 1" in out


def test_expand_strips_checks_the_cap_before_building_the_word(capsys, monkeypatch, cold_oracle):
    def no_work(*_args, **_kwargs):
        raise AssertionError("a refused expand run may not build or rewrite the word")

    monkeypatch.setattr(llt, "to_schroeder_word", no_work)
    monkeypatch.setattr(rewrite, "normalize", no_work)
    code, out, err = run(capsys, "expand", "--strips", ";".join(["0:1"] * 600))
    assert code == 2
    assert out == ""
    assert "semilength 600" in err and "limit of 14" in err
    monkeypatch.undo()
    # a tuple with as many cells as the cap still runs
    code, out, _ = run(capsys, "expand", "--strips", "0:14")
    assert code == 0
    assert "e-positive at q+1: yes" in out


def test_oracle_refuses_more_cells_than_the_expand_cap(capsys, monkeypatch, cold_oracle):
    def no_work(*_args, **_kwargs):
        raise AssertionError("a refused oracle run may not enumerate or rewrite")

    monkeypatch.setattr(llt, "to_schroeder_word", no_work)
    monkeypatch.setattr(rewrite, "normalize", no_work)
    monkeypatch.setattr(llt, "ssyt_generating_function", no_work)
    # one filling in one variable, so only the cell cap can refuse it
    code, out, err = run(capsys, "oracle", "--strips", ";".join(["0:1"] * 15), "--nvars", "1")
    assert code == 2
    assert out == ""
    assert "15 cells" in err and f"limit of {cli.MAX_EXPAND_SEMILENGTH}" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "oracle", "--strips", "0:14")
    assert code == 0
    assert "match: yes" in out


def test_python_dash_m_runs_the_cli_from_a_checkout():
    # PYTHONPATH=src python -m vsllt ... runs the same command without an install
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "vsllt", "verify", "--max-semilength", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "semilength 3: 11 paths, 11/11 pass (ok)" in proc.stdout
    assert proc.stdout.splitlines()[-1].endswith("all checks pass")
    proc = subprocess.run(
        [sys.executable, "-m", "vsllt", "verify", "--max-semilength", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "--max-semilength must be >= 1" in proc.stderr
