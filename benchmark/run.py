"""Benchmark of ncg-torus: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload box_pair --seed 1 --seconds 30 --trace 0

The package is imported from ./src of the checkout the script sits in.
BLAS runs on one thread (set below, before numpy is imported).  Timings
are rescaled to a reference host speed with a calibration kernel timed
between operations (calibrate.py).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a separate traced phase with --trace 1.  Run results and span traces
are also written to benchmark/out/.  See benchmark/README.md.
"""

import os

#: one BLAS thread, so the solver's speed does not depend on whether the
#: second of the reference machine's two cores is free
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
#: operation seconds between two calibration passes; the host's speed
#: holds for about a second at a time
CALIBRATE_EVERY_S = 0.02
PROBE_TIMEOUT_S = 60

# (metric, unit, kind, source): kind "incl" / "self" / "calls" are per
# operation over spans named source, "layer" is the self time of a whole
# layer per operation, "extra" a per-operation total from a hook, "max" a
# maximum over the run
PER_LAYER = (
    ("torus_rep.rieffel_projection_s", "s", "incl", "torus_rep.rieffel_projection"),
    ("torus_rep.realize_box_s", "s", "incl", "torus_rep.realize_box"),
    ("torus_rep.dirac_data_s", "s", "incl", "torus_rep.dirac_data"),
    ("torus_rep.dirac_data_calls", "count", "calls", "torus_rep.dirac_data"),
    ("fredholm.dirac_module_s", "s", "incl", "fredholm.dirac_module"),
    ("fredholm.module_dense_mb", "MB", "extra", "fredholm.dirac_module"),
    ("fredholm.dirac_even_pairing_self_s", "s", "self", "fredholm.dirac_even_pairing"),
    ("linalg.eigh_s", "s", "incl", "linalg.eigh"),
    ("linalg.eigh_calls", "count", "calls", "linalg.eigh"),
    ("linalg.eigh_max_dim", "count", "max", "linalg.eigh"),
    ("linalg.svd_s", "s", "incl", "linalg.svd"),
    ("linalg.svd_calls", "count", "calls", "linalg.svd"),
    ("fredholm.odd_pairing_s", "s", "incl", "fredholm.odd_pairing"),
    ("fredholm.even_pairing_s", "s", "incl", "fredholm.even_pairing"),
    ("torus_rep.clock_shift_s", "s", "incl", "torus_rep.clock_shift"),
    ("torus_rep.truncated_rep_s", "s", "incl", "torus_rep.truncated_rep"),
    ("cli.render_json_s", "s", "incl", "cli.render_json"),
    ("cli.main_self_s", "s", "self", "cli.main"),
    ("cli.stdout_bytes", "B", "extra", "cli.main"),
    ("exact_arith.cf_expand_s", "s", "incl", "exact_arith.cf_expand"),
    ("exact_arith.convergents_s", "s", "incl", "exact_arith.convergents"),
    ("af_tower.build_tower_s", "s", "incl", "af_tower.build_tower"),
    ("af_tower.inverse_limit_coefficients_s", "s", "incl",
     "af_tower.inverse_limit_coefficients"),
    ("af_tower.pairing_along_tower_s", "s", "incl", "af_tower.pairing_along_tower"),
    ("af_tower.push_k0_class_calls", "count", "calls", "af_tower.push_k0_class"),
    ("af_tower.trace_weights_s", "s", "incl", "af_tower.trace_weights"),
    ("zlattice.smith_normal_form_s", "s", "incl", "zlattice.smith_normal_form"),
    ("zlattice.hermite_normal_form_s", "s", "incl", "zlattice.hermite_normal_form"),
    ("zlattice.check_all_s", "s", "incl", "zlattice.check_all"),
) + tuple((f"{layer}.self_s", "s", "layer", layer) for layer in (
    "cli", "fredholm", "torus_rep", "exact_arith", "zlattice", "af_tower", "linalg"))


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "ncg_torus", "__init__.py")):
        fail(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    import ncg_torus
    import ncg_torus.cli  # noqa: F401

    if not os.path.abspath(ncg_torus.__file__).startswith(SRC + os.sep):
        fail(f"ncg_torus was imported from {ncg_torus.__file__}, not {SRC}")
    return ncg_torus


def build(workload: str, seed: int):
    return WORKLOADS[workload](import_package(), seed)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of: import ncg_torus, build the inputs,
    at reference speed (the calibration kernel, timed before and after)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up probe exited {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def timed_phase(wl, cal, seconds: float, first_op: int, tracer=None) -> dict:
    """Whole rounds of operations until their busy time reaches ``seconds``.

    Only the operations themselves are timed; the checks run between them
    on a stopped clock.  A calibration kernel pass is timed before the
    first operation and again once CALIBRATE_EVERY_S of operation time has
    passed since the last one; the operations in between are rescaled by
    the passes around them (see calibrate.py).
    """
    raw, scaled, sizes, failed, wrong = [], [], [], 0, 0
    busy = since = 0.0
    before = cal.measure()
    clock = time.perf_counter

    def rescale():
        nonlocal before, since
        after = cal.measure()
        factor = cal.scale(before, after)
        scaled.extend(dt * factor for dt in raw[len(scaled):])
        before, since = after, 0.0

    while busy < seconds:
        ops = wl.next_round()
        for op in ops:
            if tracer is not None:
                tracer.op = first_op + len(raw)
            error = None
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            dt = clock() - t0
            raw.append(dt)
            busy += dt
            since += dt
            if since >= CALIBRATE_EVERY_S:
                rescale()
            if error is not None:
                failed += 1
                if failed <= 5:
                    print(f"op failed: {type(error).__name__}: {error}", file=sys.stderr)
                continue
            try:
                problems = wl.check(op, out)
            except Exception as exc:  # output not in the expected shape
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                wrong += 1
                if wrong <= 5:
                    print("op wrong: " + "; ".join(problems), file=sys.stderr)
        sizes.append(len(ops))
    if since:
        rescale()
    rates, i = [], 0
    for n in sizes:
        rates.append(n / sum(scaled[i:i + n]))
        i += n
    return {"durations": scaled, "raw_durations": raw, "round_rates": rates,
            "failed": failed, "wrong": wrong}


def ops_per_s(phase: dict) -> float:
    """Median over rounds of operations per busy second at reference speed.

    Calibration takes out the host's fast swings; a median over rounds
    also ignores stretches the kernel tracks badly, as long as they cover
    less than half of the run.
    """
    return statistics.median(phase["round_rates"])


def trace_hooks(tracer) -> dict:
    import numpy as np

    def dense_mb(args, module):
        nbytes = sum(a.nbytes for a in (getattr(module, "F", None),
                                        getattr(module, "gamma", None))
                     if isinstance(a, np.ndarray))
        tracer.extra["fredholm.dirac_module"] += nbytes / 2**20

    def stdout_bytes(args, code):
        getvalue = getattr(sys.stdout, "getvalue", None)
        if getvalue is not None:
            tracer.extra["cli.main"] += len(getvalue().encode())

    def eigh_dim(args, out):
        dim = int(np.shape(args[0])[-1])
        tracer.maxima["linalg.eigh"] = max(tracer.maxima["linalg.eigh"], dim)

    return {"fredholm.dirac_module": dense_mb, "cli.main": stdout_bytes,
            "linalg.eigh": eigh_dim}


def per_layer_metrics(tracer, ops: int) -> tuple[dict, list]:
    s = tracer.summary()
    metrics, absent = {}, []
    for name, unit, kind, source in PER_LAYER:
        if kind == "layer":
            value = s["layer_self"].get(source, 0.0) / ops
        else:
            if source not in tracer.wrapped:
                absent.append(source)
            if kind == "incl":
                value = s["incl"].get(source, 0.0) / ops
            elif kind == "self":
                value = s["self"].get(source, 0.0) / ops
            elif kind == "calls":
                value = s["calls"].get(source, 0) / ops
            elif kind == "extra":
                value = tracer.extra.get(source, 0.0) / ops
            else:
                value = tracer.maxima.get(source, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, sorted(set(absent))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        cal = Calibrator("python")
        before = cal.measure()
        t0 = time.perf_counter()
        build(args.workload, args.seed)
        dt = time.perf_counter() - t0
        print(repr(dt * cal.scale(before, cal.measure())))
        return 0

    import_package()  # fails early, before any probe, without a package
    print(f"benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, BLAS threads {BLAS_THREADS}", file=sys.stderr)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    wl = build(args.workload, args.seed)
    cal = Calibrator(wl.calibration)
    plain = timed_phase(wl, cal, args.seconds, 0)
    phases = [plain]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer = Tracer()
        tracer.install(trace_hooks(tracer))
        traced = timed_phase(wl, cal, args.seconds, len(plain["durations"]), tracer)
        phases.append(traced)
        metrics, absent = per_layer_metrics(tracer, len(traced["durations"]))
        metrics["trace.overhead_ops_per_s"] = {
            "value": ops_per_s(traced) - ops_per_s(plain), "unit": "1/s"}
        metrics["trace.absent_spans"] = {"value": len(absent), "unit": "count"}
        if absent:
            print("absent spans: " + ", ".join(absent), file=sys.stderr)
        tracer.dump(stem + ".spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s(plain), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(plain["durations"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    result = {
        "correct": all(ph["wrong"] == 0 for ph in phases),
        "attempted": sum(len(ph["durations"]) for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "op_s": plain["durations"],
                   "op_s_raw": plain["raw_durations"],
                   "round_rates": plain["round_rates"]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
