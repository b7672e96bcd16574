"""Benchmark this checkout against another one, in alternating runs.

    python3 tools/bench_pair.py OTHER_ROOT --out BENCH.json \
        [--workloads box_pair light_cli exact_tower] [--seeds 1 1 2 2] [--trace 0]

For each workload and seed (a seed given twice is two pairs),
``benchmark/run.py`` runs once in each checkout, as a fresh process from
that checkout's root, for the run length the benchmark itself sets; the
pair's order alternates (other first, then this checkout first), so a
drift in the host's speed falls on both alike.  The last stdout line of
every run is its result.  The output file holds every run's result with
its length in seconds, read from the run's stderr header, and, per
workload and checkout, the median of each metric, with the ratio of the
medians (this checkout over the other) and, per metric, how many pairs
this checkout won.  Standard library only.

Noise floor: ``light_cli`` carries a bias of about 1 % between two
checkouts of the same code, whose cause was not found.  One commit run
from its own checkout against a fresh ``git clone`` of it in another
directory lost 4 of 4 ``light_cli`` pairs (``ops_per_s`` 3018-3087
against 3055-3100; 2 cores, OpenBLAS, one BLAS thread).  A ``light_cli``
difference of that size, or a lopsided win count with it, says nothing
about the code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(root: str, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(root, "benchmark", "run.py"), "--workload",
            workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seconds"] = float(re.search(r"([\d.e+-]+) s, BLAS", proc.stderr).group(1))
    return result


def commit(root: str):
    """HEAD of the checkout, "-dirty" if tracked files differ from it; None
    outside git."""
    def git(*argv):
        return subprocess.run(["git", "-C", root, *argv], capture_output=True,
                              text=True, check=False)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def summary(runs: list) -> dict:
    """Medians per checkout, their ratio and the pairs won, per metric (a
    rate, ``*per_s``, is better higher, every other metric lower), and the
    failed operations of each checkout."""
    out = {"failed": {side: sum(r[side]["failed"] for r in runs)
                      for side in ("here", "other")}}
    for name in sorted(runs[0]["here"]["metrics"]):
        here = [r["here"]["metrics"][name]["value"] for r in runs]
        other = [r["other"]["metrics"][name]["value"] for r in runs]
        lower = not name.endswith("per_s")
        med_here, med_other = statistics.median(here), statistics.median(other)
        out[name] = {
            "here": med_here, "other": med_other,
            "ratio": med_here / med_other if med_other else None,
            "pairs_won": sum((a < b) if lower else (a > b) for a, b in zip(here, other)),
            "pairs": len(runs)}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("other", help="root of the checkout to compare with")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workloads", nargs="+",
                   default=["box_pair", "light_cli", "exact_tower"])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    other = os.path.abspath(args.other)
    report = {"here": {"commit": commit(ROOT)}, "other": {"commit": commit(other)},
              "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "trace": args.trace, "workloads": {}}
    turn = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            order = ("other", "here") if turn % 2 == 0 else ("here", "other")
            turn += 1
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run(other if side == "other" else ROOT, workload,
                                 seed, args.trace)
            runs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics'].get('ops_per_s', {}).get('value')}"
                for side in order), file=sys.stderr)
        report["workloads"][workload] = {"runs": runs, "summary": summary(runs)}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
