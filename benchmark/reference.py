"""Exact reference computations the benchmark checks the program against.

Nothing here imports ncg_torus: every expected value is derived from
first principles (Euclid's algorithm, the convergent recursion, Gaussian
elimination over the rationals, elementary row operations).
"""

from __future__ import annotations

import decimal
import random
from fractions import Fraction


def euclid_digits(num: int, den: int) -> list[int]:
    """Canonical continued fraction [a0; a1, ...] of num/den (den > 0)."""
    out = []
    while den:
        a, r = divmod(num, den)
        out.append(a)
        num, den = den, r
    return out


def certified_prefix(text: str) -> list[int]:
    """Digits shared by every real within one last-place unit of a decimal.

    The set of reals with a given continued-fraction prefix is an
    interval, so the certified digits are the common prefix of the two
    endpoint expansions.
    """
    whole, _, frac = text.partition(".")
    scale = 10 ** len(frac)
    value = int(whole + frac)
    lo = euclid_digits(value - 1, scale)
    hi = euclid_digits(value + 1, scale)
    n = 0
    while n < min(len(lo), len(hi)) and lo[n] == hi[n]:
        n += 1
    return lo[:n]


def fold(a0: int, digits) -> Fraction:
    """Value of the finite continued fraction [a0; digits...]."""
    acc = None
    for a in reversed(list(digits)):
        acc = Fraction(a) if acc is None else a + 1 / acc
    return Fraction(a0) if acc is None else a0 + 1 / acc


def convergents(a0: int, digits) -> list[tuple[int, int]]:
    """(p_n, q_n) for n = 0 .. len(digits) from the two-term recursion."""
    p_prev, q_prev, p, q = 1, 0, a0, 1
    rows = [(p, q)]
    for a in digits:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        rows.append((p, q))
    return rows


def decimal_text(value: decimal.Decimal, ndigits: int) -> str:
    """The first ndigits fractional digits of 0 <= value < 1, truncated."""
    scaled = int(value.scaleb(ndigits).to_integral_value(decimal.ROUND_FLOOR))
    return "0." + str(scaled).rjust(ndigits, "0")


def golden_decimal(ndigits: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = ndigits + 20
        return decimal_text((decimal.Decimal(5).sqrt() - 1) / 2, ndigits)


def sqrt_frac_decimal(d: int, ndigits: int) -> str:
    """Fractional part of sqrt(d) to ndigits places."""
    with decimal.localcontext() as ctx:
        ctx.prec = ndigits + 20
        root = decimal.Decimal(d).sqrt()
        return decimal_text(root - int(root), ndigits)


# --- exact integer matrices ---------------------------------------------------

def matmul(a, b) -> tuple:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def det(m) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    sign = 1
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return sign * int(out)


def unimodular(n: int, rng: random.Random, steps: int = 10) -> tuple:
    """An n x n matrix of determinant +-1 from elementary row operations."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        if rng.random() < 0.3:
            a[i], a[j] = a[j], a[i]
        if rng.random() < 0.2:
            a[i] = [-x for x in a[i]]
    return tuple(tuple(row) for row in a)


def smith_problems(m, u, d, v) -> list[str]:
    """Reasons (U, D, V) is not a Smith normal form of the square m."""
    bad = []
    n = len(m)
    if matmul(matmul(u, m), v) != tuple(tuple(r) for r in d):
        bad.append("U*M*V != D")
    if any(d[i][j] for i in range(n) for j in range(n) if i != j):
        bad.append("D is not diagonal")
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag):
        bad.append("negative invariant factor")
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x and y % x):
            bad.append(f"divisibility chain broken at {x}, {y}")
    prod = 1
    for x in diag:
        prod *= x
    if abs(prod) != abs(det(m)):
        bad.append("product of invariant factors != |det M|")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        bad.append("U or V is not unimodular")
    return bad


def hermite_problems(h) -> list[str]:
    """Reasons h is not in canonical row Hermite normal form."""
    bad = []
    last = -1
    for r, row in enumerate(h):
        j = next((c for c, x in enumerate(row) if x), None)
        if j is None or j <= last:
            bad.append(f"row {r} breaks the pivot staircase")
            continue
        if row[j] <= 0:
            bad.append(f"row {r} has a non-positive pivot")
        for r2 in range(r):
            if not 0 <= h[r2][j] < row[j]:
                bad.append(f"entry ({r2}, {j}) is not reduced by its pivot")
        last = j
    return bad
