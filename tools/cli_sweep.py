"""Compare the CLI of this checkout with another checkout, call by call.

    python3 tools/cli_sweep.py OTHER_ROOT

For each checkout one subprocess imports that checkout's ``src/`` and runs
every call in-process through ``ncg_torus.cli.main``, with one BLAS thread
and ``NCG_TORUS_PRECISION`` unset.  The exit code, stdout and stderr are
compared; stderr without its ``wall time:`` line.  Stdout is compared byte
for byte, except in the ``box`` set: its floats depend on the BLAS build
and may differ by 1e-12, while every other JSON value must be equal.
Every non-empty stdout of this checkout must also parse as strict JSON,
with no ``NaN`` or ``Infinity``; a call whose stdout does not counts as
differing.  Every call that differs is listed, and the script exits 1 if
any does.
Standard library only.

The call sets:

* ``pinned``: the argvs of ``PINNED_STDOUT`` in ``tests/test_cli.py``;
* ``clock``: ``pair --module z0prime`` for every coprime m/q with q <= 60
  and the golden convergents 55/89 ... 377/610, both classes, plus
  ``pair --module z0`` with both classes;
* ``light``: the ``light_cli`` tables of seeds 1-4 of
  ``benchmark/workloads.py``;
* ``tower``: golden and two decimals at depths 12-60, with the default
  horizon and explicit ones;
* ``box``: ``pair --module dirac --class p`` on the ``box_pair`` angle pool
  of ``benchmark/workloads.py`` at N = 12, on the small-N, default-N and
  refused calls listed in ROADMAP.md, among them 0.12, 0.19 and 0.9175 at
  the default N, which certify a wrong 0, at N = 12 and 20 on small and
  large angles, where the ramps are narrow: 0.005 to 0.0225, 0.975 to
  0.995 and the subnormal 1e-310, and at N = 16 on angles above 1/2 with a
  near-kernel mode (0.725, 0.69 and golden) and their partners 1 - theta:
  the pass at rank above dim/2 compresses to the complement of the
  projection's range, the one below to the range; and at N = 3 and 5 on
  golden, 0.69 and their partners, where row n = 0, the only row in which
  the two flip sectors differ, is a large share of each.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECIMALS = ("0.41421356237309504880168872420969807856967187537694807317667973799"
            "07324784621070388503875343276415727",
            "0.31830988618379067153776752674502872406891929148091289749533468811"
            "77935952684530701802276055325061719")


def pinned_calls() -> list:
    with open(os.path.join(ROOT, "tests", "test_cli.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "PINNED_STDOUT" for t in node.targets):
            return [list(argv) for argv, _, _ in ast.literal_eval(node.value)]
    raise SystemExit("tests/test_cli.py holds no PINNED_STDOUT")


def clock_calls() -> list:
    calls = [["pair", "--module", "z0", "--class", k] for k in ("1", "p")]
    golden = [(55, 89), (89, 144), (144, 233), (233, 377), (377, 610)]
    for m, q in [(m, q) for q in range(1, 61) for m in range(q)] + golden:
        if math.gcd(m, q) == 1:
            calls += [["pair", "--module", "z0prime", "--class", k,
                       "--theta", f"{m}/{q}"] for k in ("1", "p")]
    return calls


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "benchmark"))
    sys.dont_write_bytecode = True  # leave the benchmark directory as it is
    import workloads

    return workloads


def light_calls() -> list:
    return [list(op[1]) for seed in (1, 2, 3, 4)
            for op in _workloads().LightCli(None, seed).ops]


def tower_calls() -> list:
    calls = []
    for theta in ("golden",) + DECIMALS:
        for depth in range(12, 61, 6):
            base = ["tower", "--theta", theta, "--depth", str(depth)]
            for level in (1, 3):
                calls += [base + ["--level", str(level)],
                          base + ["--level", str(level), "--horizon", str(level + 2)],
                          base + ["--level", str(level), "--horizon", str(depth)]]
    return calls


def box_calls() -> list:
    base = ["pair", "--module", "dirac", "--class", "p"]
    calls = [base + ["--theta", a, "--N", "12"] for a in _workloads().BOX_ANGLES]
    calls += [base + ["--N", "2"], base + ["--N", "6"],
              base + ["--theta", "0.4", "--N", "8"], base + ["--theta", "0.2", "--N", "12"],
              base + ["--theta", "0.3", "--N", "16"], base + ["--theta", "1e-5", "--N", "4"]]
    calls += [base + ["--theta", a] for a in ("0.05", "0.1", "0.9", "0.01", "0.97", "0.99",
                                              "0.12", "0.19", "0.9175")]
    partners = ("0.69", "0.31", "golden",
                "0.381966011250105151795413165634361882279690820194237137865")
    calls += [base + ["--theta", a, "--N", "16"] for a in ("0.725", "0.275") + partners]
    calls += [base + ["--theta", a, "--N", n] for n in ("3", "5") for a in partners]
    return calls + [base + ["--theta", a, "--N", n] for n in ("12", "20")
                    for a in ("0.005", "0.0175", "0.02", "0.0225", "0.975", "0.98",
                              "0.9825", "0.995", "1e-310")]


SETS = {"pinned": pinned_calls, "clock": clock_calls, "light": light_calls,
        "tower": tower_calls, "box": box_calls}


def same_up_to_floats(a, b) -> bool:
    """Equal JSON values, floats within 1e-12 and keys in the same order."""
    if type(a) is float and type(b) is float:
        return abs(a - b) <= 1e-12
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_up_to_floats(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_up_to_floats, a, b))
    return a == b


def same_stdout(name: str, a: str, b: str) -> bool:
    if name != "box" or not (a and b):
        return a == b
    return same_up_to_floats(json.loads(a), json.loads(b))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str) -> bool:
    """Empty, or one JSON value with no NaN or Infinity."""
    if text:
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError:  # json.JSONDecodeError is a ValueError
            return False
    return True


def run_here(src: str, calls: list) -> list:
    """Each call's [exit code, stdout, stderr without the wall-time line]."""
    sys.path.insert(0, src)
    from ncg_torus.cli import main

    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        kept = [ln for ln in err.getvalue().splitlines(True)
                if not ln.startswith("wall time:")]
        results.append([code, out.getvalue(), "".join(kept)])
    return results


def run_checkout(root: str, calls: list) -> list:
    env = {k: v for k, v in os.environ.items() if k != "NCG_TORUS_PRECISION"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", os.path.join(root, "src")],
        input=json.dumps(calls), capture_output=True, text=True, env=env,
        cwd=root, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the sweep of {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("other", nargs="?", help="root of the checkout to compare with")
    p.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        json.dump(run_here(args.child, json.load(sys.stdin)), sys.stdout)
        return 0
    if args.other is None:
        p.error("OTHER_ROOT is required")
    calls = {name: make() for name, make in SETS.items()}
    flat = [argv for argvs in calls.values() for argv in argvs]
    here, there = run_checkout(ROOT, flat), run_checkout(args.other, flat)
    differ, start = 0, 0
    for name, argvs in calls.items():
        n = len(argvs)
        bad = []
        for argv, a, b in zip(argvs, here[start:start + n], there[start:start + n]):
            checks = (a[0] == b[0], same_stdout(name, a[1], b[1]), a[2] == b[2],
                      strict_json(a[1]))
            if not all(checks):
                bad.append((argv, a, b, checks))
        start += n
        differ += len(bad)
        print(f"{name}: {n} calls, {len(bad)} differ")
        for argv, a, b, checks in bad:
            fields = [f for f, ok in zip(("exit differs", "stdout differs", "stderr differs",
                                          "stdout here is not strict JSON"), checks) if not ok]
            print(f"  {' '.join(argv)}: {'; '.join(fields)}"
                  f" (here exit {a[0]}, there exit {b[0]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
