"""Check that the benchmark is steady: run two sets of runs of the same code
and compare them the way a gate on a later change would.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload rational-oracle

Run it from the root of the repository.  For each workload, set A uses seeds
1..N and then set B seeds N+1..2N; every run is a fresh interpreter started
with the command and run length from ``BENCHMARK.json`` and ``--trace 0``.
For each end-to-end metric it prints both medians and both spreads (the
distance between the first and third quartiles as a share of the median), and
it checks that

* every spread is within the metric's bound;
* set B's median differs from set A's by no more than the bound, in either
  direction, so that the check holds whichever set is taken as the baseline;
* every run is correct and has the same share of failed operations.

The exit status is 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def change(first: float, second: float) -> float:
    """How much ``second`` differs from ``first``, as a share of ``first``."""
    return (second - first) / first


def compare(spec: dict, set_a: list, set_b: list) -> tuple[list, bool]:
    """Compare two sets of run results of one workload.  Returns printable
    rows and whether every check holds."""
    rows, ok = [], True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in set_a]
        b = [r["metrics"][name]["value"] for r in set_b]
        spreads = (spread(a), spread(b))
        moved = change(statistics.median(a), statistics.median(b))
        steady = max(spreads) <= bound
        agree = abs(moved) <= bound
        ok = ok and steady and agree
        rows.append("%-14s %-6s A %-12.6g B %-12.6g spread %6.2f%% %6.2f%%  "
                    "B moved by %+7.2f%%  bound %4.0f%%  %s"
                    % (name, metric["unit"], statistics.median(a), statistics.median(b),
                       100 * spreads[0], 100 * spreads[1], 100 * moved, 100 * bound,
                       "ok" if steady and agree else "NOT STEADY"))
    shares = {Fraction(r["failed"], r["attempted"]) for r in set_a + set_b}
    correct = all(r["correct"] for r in set_a + set_b)
    ok = ok and correct and len(shares) == 1
    rows.append("failed share %s, all runs correct: %s"
                % (", ".join(str(s) for s in sorted(shares)), correct))
    return rows, ok


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    all_ok = True
    for workload in args.workload or names:
        sets = [[run_once(spec, workload, seed)
                 for seed in range(first, first + args.runs)]
                for first in (1, args.runs + 1)]
        rows, ok = compare(spec, *sets)
        all_ok = all_ok and ok
        print("== %s (%d + %d runs)" % (workload, args.runs, args.runs))
        for row in rows:
            print("  " + row)
        sys.stdout.flush()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
