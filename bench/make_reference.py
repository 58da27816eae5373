"""Regenerate bench/data/expand_deep_ref.tsv.

The expand-deep workload checks the e-expansion that ``normalize`` produces
for each sampled word against an independent route: direct evaluation of the
word in the Dyck path algebra (``eval_word``).  That costs 0.1-1 s per word of
semilength 8, too much to repeat inside every run, so the digest of every
primitive word's ``eval_word`` value is computed once here and committed.
The file never depends on ``normalize``.

    python3 bench/make_reference.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os

import workloads


def _digest(word):
    return "".join(word), workloads.p_basis_digest(workloads.dyckalgebra.eval_word(word))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    jobs = max(1, min(args.jobs, os.cpu_count() or 1))
    words = workloads.primitive_words(workloads.EXPAND_SEMILENGTH)
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        rows = pool.map(_digest, words, chunksize=16)
    tmp = workloads.REFERENCE.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(f"{w}\t{d}\n" for w, d in rows)
    os.replace(tmp, workloads.REFERENCE)
    print(f"wrote {len(rows)} digests to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
