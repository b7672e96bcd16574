"""Exact rational arithmetic and certified continued-fraction expansion.

Rationals are stdlib ``fractions.Fraction`` at the interface, and the
expansion runs Euclid on integer (numerator, denominator) pairs; integers
are Python bigints, so every identity in this module is checked exactly,
never in floating point.

Input conventions for theta:

* ``"m/n"`` (or a ``Fraction``/``int``) is exact.
* A decimal string like ``"0.61803398874989484820"`` stands for an unknown
  real in the interval [v - u, v + u], u = one unit in the last written
  decimal place, exponent included ("1.5e2" has u = 10).  Digits of the
  expansion are emitted only while every real in that interval shares
  them; otherwise the expansion aborts with ``PrecisionExhausted``
  instead of guessing.  The one exception is a clean termination: if the
  written value itself is exactly rational and its own expansion ends at
  the ambiguous step (e.g. "0.5"), the terminating expansion is returned.
"""

from __future__ import annotations

import decimal
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidInput, PrecisionExhausted

ThetaLike = Union[str, int, Fraction]


def parse_theta(text: ThetaLike) -> tuple[Fraction, Fraction]:
    """Parse theta into (value, radius).

    radius = 0 means the value is exact; otherwise the input stands for any
    real within +-radius of value.
    """
    if isinstance(text, (int, Fraction)):
        return Fraction(text), Fraction(0)
    if not isinstance(text, str):
        raise InvalidInput(f"cannot parse theta from {type(text).__name__}")
    s = text.strip()
    if not s:
        raise InvalidInput("empty theta")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            value = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            _refuse_past_int_limit(s)
            raise InvalidInput(f"bad rational {text!r}") from exc
        return value, Fraction(0)
    radius = Fraction(0)  # bare integer literal is exact
    scientific = "e" in s.lower()
    if "." in s or scientific:
        try:
            point = decimal.Decimal(s)
        except decimal.InvalidOperation as exc:
            raise InvalidInput(f"bad decimal {text!r}") from exc
        # a leading digit `limit` places or more from the point makes the
        # integer part or the next partial quotient about as long as int()
        # and str() accept, and the power of ten slow to build
        limit = sys.get_int_max_str_digits()
        if scientific and limit and abs(point.adjusted()) >= limit:
            raise InvalidInput(
                f"exponent of {text!r} is past the {limit}-digit int limit")
        # one unit in the last written place, exponent included
        radius = Fraction(10) ** point.as_tuple().exponent
    try:
        value = Fraction(s)
    except ValueError as exc:
        _refuse_past_int_limit(s)
        raise InvalidInput(f"bad decimal {text!r}") from exc
    return value, radius


def _refuse_past_int_limit(s: str) -> None:
    limit = sys.get_int_max_str_digits()  # the longest digit run int() reads; 0: any
    run = max((len(r.replace("_", "")) for r in re.findall(r"[\d_]+", s)), default=0)
    if limit and run > limit:
        raise InvalidInput(f"{s[:24]!r}... has {run} digits in a row, past the "
                           f"{limit}-digit int limit") from None


def golden_string(ndigits: int = 60) -> str:
    """(sqrt(5) - 1)/2 as a decimal string with ndigits fractional digits."""
    if ndigits < 1:
        raise InvalidInput("ndigits must be >= 1")
    with decimal.localcontext() as ctx:
        ctx.prec = ndigits + 10
        v = (decimal.Decimal(5).sqrt() - 1) / 2
        quantum = decimal.Decimal(1).scaleb(-ndigits)
        v = v.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN)
    return format(v, "f")


@dataclass(frozen=True)
class CFExpansion:
    """A continued fraction [a0; a1, a2, ...].

    ``terminated`` is True when the expansion is the complete (canonical)
    expansion of a rational; then the final digit is >= 2 whenever there is
    one.
    """

    a0: int
    digits: tuple[int, ...]
    terminated: bool = False

    def __post_init__(self) -> None:
        for a in self.digits:
            if a < 1:
                raise InvalidInput(f"continued-fraction digit {a} < 1")
        if self.terminated and self.digits and self.digits[-1] < 2:
            raise InvalidInput("terminating expansion must end with a digit >= 2")

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.digits)
        return f"[{self.a0}; {inner}]" if inner else f"[{self.a0}]"


def cf_expand(theta: ThetaLike, depth: int) -> CFExpansion:
    """Expand theta to at most ``depth`` digits past a0.

    Rational inputs may terminate earlier; decimal inputs either certify all
    emitted digits or raise PrecisionExhausted.
    """
    if depth < 1:
        raise InvalidInput("depth must be >= 1")
    value, radius = parse_theta(theta)
    lo, hi = value - radius, value + radius
    # Euclid on reduced (numerator, denominator) pairs: subtracting an
    # integer and inverting a positive value keep a pair reduced.  A zero
    # denominator in hi means unbounded above.
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    xn, xd = value.numerator, value.denominator
    a0 = 0
    digits: list[int] = []
    for step in range(depth + 1):
        a = ln // ld
        if hd == 0 or hn // hd != a:
            # The interval straddles an integer boundary: only a clean
            # termination of the written value itself is still certifiable.
            if xd == 1:
                if step == 0:
                    return CFExpansion(xn, (), terminated=True)
                digits.append(xn)
                return CFExpansion(a0, tuple(digits), terminated=True)
            raise PrecisionExhausted(
                f"digit {step} of {theta!r} is not determined by the stated precision"
            )
        if step == 0:
            a0 = a
        else:
            digits.append(a)
        xn -= a * xd
        if xn == 0:
            return CFExpansion(a0, tuple(digits), terminated=True)
        if step == depth:
            return CFExpansion(a0, tuple(digits), terminated=False)
        # invert [lo - a, hi - a] -> [1/(hi - a), 1/(lo - a)]; 1/0+ = unbounded
        ln, ld, hn, hd = hd, hn - a * hd, ld, ln - a * ld
        xn, xd = xd, xn
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ConvergentTable:
    """Rows (n, p_n, q_n) of a continued fraction, exact integers.

    Internally keeps the seed row (p_-1, q_-1) = (1, 0) so the classical
    recursion and determinant identity can be checked for every row.
    """

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise InvalidInput("empty convergent table")
        qs = [q for (_, _, q) in self.rows]
        for i in range(2, len(qs)):
            if qs[i] <= qs[i - 1]:
                raise InvalidInput("q_n not strictly increasing for n >= 1")

    def __len__(self) -> int:
        return len(self.rows)

    def p(self, n: int) -> int:
        if n == -1:
            return 1
        return self.rows[n][1]

    def q(self, n: int) -> int:
        if n == -1:
            return 0
        return self.rows[n][2]

    def convergent(self, n: int) -> Fraction:
        return Fraction(self.p(n), self.q(n))

    def error_bound(self, n: int) -> Fraction:
        """1/(q_n q_{n+1}); row n+1 must exist."""
        return Fraction(1, self.q(n) * self.q(n + 1))

    def determinant_identity_holds(self) -> bool:
        """p_n q_{n-1} - p_{n-1} q_n = (-1)^{n-1}, exactly, for every row."""
        for n in range(len(self.rows)):
            lhs = self.p(n) * self.q(n - 1) - self.p(n - 1) * self.q(n)
            if lhs != (-1) ** (n - 1):
                return False
        return True

    def to_json_obj(self) -> list[dict]:
        return [
            {"n": n, "p": str(p), "q": str(q)} for (n, p, q) in self.rows
        ]


def convergents(cf: CFExpansion) -> ConvergentTable:
    """Convergent table p_n/q_n of the expansion.

    Seeds p_0 = a0, q_0 = 1 and p_1 = a0*a1 + 1, q_1 = a1 come out of the
    standard two-term recursion with the internal row (1, 0).
    """
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    rows = [(0, p, q)]
    for n, a in enumerate(cf.digits, start=1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        rows.append((n, p, q))
    return ConvergentTable(tuple(rows))
