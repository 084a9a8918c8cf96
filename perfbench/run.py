"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload rational-oracle --seed 1 --seconds 10 --trace 0

Run it from the root of the repository; ``ffrat`` is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``: set-up time (the median of several cold set-ups spread
between the rounds, each timed in a fresh interpreter by ``cold_setup.py``),
the time of one round of the workload's operations, and peak resident memory.
With ``--trace 1`` it runs untraced rounds for the same time, then one traced
round, and reports the per-layer metrics and the tracing overhead.  The seed
only permutes the order of the operations in a round.

Times are scaled to a reference core speed by a probe that runs alongside
each operation (``speed.py``), because the speed of a core of a shared host
moves by tens of percent within seconds.  The round time is each operation's
median scaled time over the run's rounds, summed.  The lines printed before
the JSON line give the same figure per part of the round, and the plain wall
times for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from spans import Tracer  # noqa: E402
from workloads import REPORT_NAME, WORKLOADS, build_fields, load_ffrat, run_round  # noqa: E402

SETUP_REPEATS = 45


def timed_rounds(ops: list, seconds: float, between=None) -> list:
    """Whole rounds, at least two, ending at the round boundary nearest to
    ``seconds`` of round time (judged by the length of the last round), so
    that a workload with long rounds does not overrun the run by most of a
    round.  Two rounds at least give every operation a second time to take
    the median with, and keep the number of rounds of the longest workload
    from flipping between one and two with the speed of the host.  ``between(share)``, if
    given, is called before each round and after the last, with the share of
    ``seconds`` the rounds have taken so far (1 after the last)."""
    rounds, spent = [], 0.0
    while True:
        if between:
            between(spent / seconds)
        start = time.perf_counter()
        rounds.append(run_round(ops))
        last = time.perf_counter() - start
        spent += last
        if len(rounds) >= 2 and spent + last / 2 >= seconds:
            if between:
                between(1.0)
            return rounds


def round_seconds(rounds: list, part: str | None = None, wall: bool = False) -> float:
    """Each operation's median time over the rounds, summed: scaled times,
    or with ``wall`` the plain wall times."""
    return sum(statistics.median(r.wall_seconds if wall else r.seconds for r in per_op)
               for per_op in zip(*rounds)
               if part is None or per_op[0].op.part == part)


def cold_setup_seconds(workload) -> tuple[float, float]:
    """One cold import of ``ffrat`` and field build, timed in a fresh
    interpreter: its wall time and its scaled time."""
    argv = [sys.executable, str(HERE / "cold_setup.py"), str(SRC),
            ",".join(map(str, workload.fields)), ",".join(map(str, workload.exts))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    wall, scaled = map(float, proc.stdout.split())
    return wall, scaled


def untraced_run(workload, seed: int, seconds: float, tmp: Path):
    setups = []

    def sample_setups(share: float) -> None:
        # Spread the cold set-ups over the run, so that a burst of load on
        # the host meets a few of them rather than all.
        while len(setups) < max(1, round(SETUP_REPEATS * share)):
            setups.append(cold_setup_seconds(workload))

    lib = load_ffrat()
    build_fields(lib, workload)
    ops = workload.ops(lib, tmp)
    random.Random(seed).shuffle(ops)
    rounds = timed_rounds(ops, seconds, sample_setups)
    print("setup wall time: %.4f s (median)" % statistics.median(w for w, _ in setups))
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": round_seconds(rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return rounds, metrics


def traced_run(workload, seed: int, seconds: float, tmp: Path):
    lib = load_ffrat()
    tracer = Tracer(lib)
    tracer.install()
    try:
        build_fields(lib, workload)
    finally:
        tracer.uninstall()
    ops = workload.ops(lib, tmp)
    random.Random(seed).shuffle(ops)
    rounds = timed_rounds(ops, seconds)
    untraced = round_seconds(rounds)
    rounds.append(run_round(ops, tracer))
    metrics = tracer.layer_metrics()
    report = tmp / REPORT_NAME
    metrics["cli.report_bytes"] = report.stat().st_size if report.exists() else 0
    metrics["trace.overhead_s"] = sum(r.seconds for r in rounds[-1]) - untraced
    for name in tracer.missing:
        print("boundary missing: %s" % name, file=sys.stderr)
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    if not (SRC / "ffrat" / "__init__.py").is_file():
        print("error: no ffrat sources under %s" % SRC, file=sys.stderr)
        return 2
    # The job count of `ffrat verify` must not come from the caller's shell.
    os.environ.pop("FFRAT_JOBS", None)

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = traced_run if args.trace else untraced_run
        rounds, metrics = run(workload, args.seed, args.seconds, Path(tmp))
    if set(metrics) != set(units):
        print("error: metrics %s do not match BENCHMARK.json %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 2

    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if r.failed]
    for part in sorted({r.op.part for r in results}):
        print("%s_s: %.4f s (wall time %.4f s)"
              % (part, round_seconds(rounds, part), round_seconds(rounds, part, wall=True)))
    print("rounds: %d, round wall time %.4f s" % (len(rounds), round_seconds(rounds, wall=True)))
    for r in {r.op.name: r for r in failed}.values():
        note = " (known fault: %s)" % r.op.known_fault if r.op.known_fault else ""
        print("FAILED %s: %s%s" % (r.op.name, "; ".join(r.problems), note), file=sys.stderr)
    print(json.dumps({
        "correct": all(r.op.known_fault for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
