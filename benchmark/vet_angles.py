"""Vet box-route angles for the box_pair workload.

The box route at N = 12 does not certify every angle: some raise
UnstableIndex (0.33, 0.40, 0.60, ...) and some certify a wrong integer
(0.1, 0.9).  The workload therefore draws its angles from a pool vetted by
this script.  An angle is kept when the pairing is -1 at both N = 12 and
N = 16 and each pass decides with room to spare:

    sigma_min <= 0.8 * rank_tol,  sigma_next >= 0.5,  gap_half >= 1e-3.

Usage, from the repository root (one BLAS thread, as in the benchmark):

    python3 benchmark/vet_angles.py --grid 0.3000 0.7000 0.0025 > pool.jsonl
    python3 benchmark/vet_angles.py golden 0.45      # named angles

Each output line is one JSON object per angle with both passes' margins
and the verdict; "golden" stands for the 60-digit golden mean.
"""

import json
import os
import sys
from fractions import Fraction

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import ncg_torus as nt  # noqa: E402

N_BOX = 12
N_RECHECK = 16


def margins(theta: str, N: int) -> dict:
    res = nt.dirac_even_pairing(nt.dirac_module(theta, N), "trace-theta",
                                stability_check=False)
    d = res.details
    return {"value": res.value, "rank_tol": res.rank_tol,
            "sigma_min": d["sigma_min"], "sigma_next": d["sigma_next"],
            "gap_half": d["gap_half"]}


def robust(m: dict) -> bool:
    return (m["value"] == -1 and m["sigma_min"] <= 0.8 * m["rank_tol"]
            and m["sigma_next"] >= 0.5 and m["gap_half"] >= 1e-3)


def grid(lo: str, hi: str, step: str) -> list[str]:
    digits = max(len(a.split(".")[1]) for a in (lo, hi, step) if "." in a)
    out, theta = [], Fraction(lo)
    while theta <= Fraction(hi):
        out.append(f"{float(theta):.{digits}f}")
        theta += Fraction(step)
    return out


def main(argv) -> int:
    angles = grid(*argv[2:5]) if argv[1:2] == ["--grid"] else argv[1:]
    for text in angles:
        theta = nt.golden_string(60) if text == "golden" else text
        try:
            passes = [margins(theta, N) for N in (N_BOX, N_RECHECK)]
            row = {"theta": text, "N12": passes[0], "N16": passes[1],
                   "keep": all(robust(m) for m in passes)}
        except nt.errors.NcgTorusError as exc:
            row = {"theta": text, "error": type(exc).__name__, "keep": False}
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
