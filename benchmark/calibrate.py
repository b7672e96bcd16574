"""Host-speed calibration: fixed kernels timed between operations.

The benchmark host is a share of a busy machine whose speed moves by up to
1.8x from one second to the next (a pure-Python loop runs at 0.62 ms, then
at 1.06 ms, with no steal time recorded), and whose fast or slow stretches
can last a whole run.  Wall time alone then measures the neighbours.  So
the timed loop runs a fixed kernel, which does not touch ncg_torus, before
and after every stretch of operations, and rescales each operation's
seconds by how fast the kernel ran around it:

    seconds at reference speed = seconds * REFERENCE_S[kind] / pass seconds

A pass that takes exactly REFERENCE_S leaves the figures as measured.  The
swings move interpreted Python and dense linear algebra by different
amounts (1.7x against 1.5x in the same seconds), so there are two kernels
and each workload names the one that is like its own work:

* ``python``: bigint continued fractions, Fraction arithmetic, tuple
  sorting, dict building and JSON, as in the CLI and the exact layers;
  one pass is two calls, about 1.3 ms;
* ``dense``: a 400 x 400 complex matrix product and a 256 x 256 complex
  Hermitian eigendecomposition, as in the box route; one pass is the
  median of three calls, about 30 ms.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

#: seconds of one pass that count as reference speed: the median pass on
#: the reference host over its slow and fast stretches
REFERENCE_S = {"python": 1.3e-3, "dense": 3.0e-2}

_A = int("7" * 40 + "3" * 40 + "1" * 40 + "9" * 40 + "5" * 40)
_B = int("3" * 41 + "8" * 40 + "2" * 40 + "6" * 39 + "4" * 39)


def _python_kernel() -> int:
    a, b = _A, _B
    digits = []
    while b:
        d, r = divmod(a, b)
        digits.append(d)
        a, b = b, r
    p0, p1, q0, q1 = 0, 1, 1, 0
    for d in digits:
        p0, p1 = p1, d * p1 + p0
        q0, q1 = q1, d * q1 + q0
    gap = Fraction(p1, q1) - Fraction(p0, q0)
    rows = sorted((i * 7919 % 1009, str(i), i / 3) for i in range(400))
    index = {r[1]: r for r in rows}
    text = json.dumps([list(r) for r in rows[:150]])
    return len(digits) + len(index) + len(text) + gap.denominator % 7


def _python_pass() -> float:
    t0 = time.perf_counter()
    _python_kernel()
    _python_kernel()
    return time.perf_counter() - t0


def _dense_pass_fn():
    import numpy as np

    # bound now, so the wrappers of a traced run never see the kernel
    eigh = np.linalg.eigh
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h = m + m.conj().T

    def call() -> float:
        t0 = time.perf_counter()
        a @ a
        eigh(h)
        return time.perf_counter() - t0

    return lambda: statistics.median(call() for _ in range(3))


class Calibrator:
    """``measure()`` times one pass of a workload's kernel;
    ``scale(before, after)`` turns the passes around a stretch of
    operations into the factor for their seconds."""

    def __init__(self, kind: str):
        self.reference = REFERENCE_S[kind]
        self.one_pass = _python_pass if kind == "python" else _dense_pass_fn()
        self.measure()  # warm-up, untimed

    def measure(self) -> float:
        """Seconds of one pass, with the garbage collector off so that the
        program's heap adds no collector passes to it."""
        was_on = gc.isenabled()
        gc.disable()
        try:
            return self.one_pass()
        finally:
            if was_on:
                gc.enable()

    def scale(self, before: float, after: float) -> float:
        return self.reference / ((before + after) / 2)
