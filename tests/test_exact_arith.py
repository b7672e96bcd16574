"""Continued-fraction expansion and convergent tables.

Oracles used here are deliberately independent of the implementation:
plain Euclidean division for rationals, decimal floor iteration for the
quadratic-irrational samples, and right-fold evaluation of finite
continued fractions.
"""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncg_torus.errors import InvalidInput, PrecisionExhausted
from ncg_torus.exact_arith import (
    CFExpansion,
    ConvergentTable,
    cf_expand,
    convergents,
    golden_string,
    parse_theta,
)


def _euclid_cf(num, den):
    """Oracle: continued fraction of num/den by repeated division."""
    out = []
    while den:
        out.append(num // den)
        num, den = den, num - (num // den) * den
    return out


def _fraction_cf_expand(theta, depth):
    """Oracle: the certified expansion run directly on Fraction intervals."""
    if depth < 1:
        raise InvalidInput("depth must be >= 1")
    value, radius = parse_theta(theta)
    lo, hi, x = value - radius, value + radius, value
    a0, digits = 0, []
    for step in range(depth + 1):
        if hi is None or math.floor(lo) != math.floor(hi):
            if x.denominator == 1:
                if step == 0:
                    return CFExpansion(int(x), (), terminated=True)
                return CFExpansion(a0, (*digits, int(x)), terminated=True)
            raise PrecisionExhausted(
                f"digit {step} of {theta!r} is not determined by the stated precision"
            )
        a = math.floor(lo)
        frac = x - a
        if step == 0:
            a0 = a
        else:
            digits.append(a)
        if frac == 0:
            return CFExpansion(a0, tuple(digits), terminated=True)
        if step == depth:
            return CFExpansion(a0, tuple(digits), terminated=False)
        lo, hi, x = 1 / (hi - a), (None if lo == a else 1 / (lo - a)), 1 / frac
    raise AssertionError("unreachable")


def _outcome(f, *args):
    try:
        cf = f(*args)
    except (InvalidInput, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    return cf.a0, cf.digits, cf.terminated


def _fold(digits):
    """Oracle: evaluate [a0; a1, ...] exactly from the right."""
    acc = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        acc = a + 1 / acc
    return acc


# --- cf_expand -------------------------------------------------------------

def test_cf_15_over_11_matches_euclid():
    cf = cf_expand("15/11", depth=8)
    assert _euclid_cf(15, 11) == [1, 2, 1, 3]
    assert (cf.a0, list(cf.digits)) == (1, [2, 1, 3])
    assert cf.terminated


def test_cf_one_half_single_division():
    cf = cf_expand("1/2", depth=8)
    assert (cf.a0, cf.digits, cf.terminated) == (0, (2,), True)


def test_cf_decimal_one_half_terminates():
    cf = cf_expand("0.5", depth=8)
    assert (cf.a0, cf.digits, cf.terminated) == (0, (2,), True)


def test_cf_golden_50_digits_depth_5():
    theta = golden_string(50)
    # oracle: floor iteration in 60-digit decimal arithmetic
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = (decimal.Decimal(5).sqrt() - 1) / 2
        expected = []
        for _ in range(6):
            a = int(x)
            expected.append(a)
            x = 1 / (x - a)
    assert expected == [0, 1, 1, 1, 1, 1]
    cf = cf_expand(theta, depth=5)
    assert cf.a0 == 0
    assert cf.digits == (1, 1, 1, 1, 1)
    assert not cf.terminated


def test_cf_depth_zero_rejected():
    with pytest.raises(InvalidInput):
        cf_expand("1/2", depth=0)


def test_cf_insufficient_precision_aborts():
    # 0.333 +- 0.001 contains reals with first digit 2 and with 3
    with pytest.raises(PrecisionExhausted):
        cf_expand("0.333", depth=2)


def test_cf_truncated_decimal_never_guesses():
    # 20 correct digits certify 12 golden digits but not 60 of them
    theta = golden_string(20)
    ok = cf_expand(theta, depth=12)
    assert ok.digits == (1,) * 12
    with pytest.raises(PrecisionExhausted):
        cf_expand(theta, depth=60)


def test_cf_random_rationals_roundtrip():
    rng = random.Random(20260815)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        m = rng.randrange(1, n)
        cf = cf_expand(f"{m}/{n}", depth=64)
        assert cf.terminated
        digits = [cf.a0, *cf.digits]
        assert digits == _euclid_cf(m, n)
        if cf.digits:
            assert cf.digits[-1] >= 2
        value = _fold(digits) if len(digits) > 1 else Fraction(digits[0])
        assert value == Fraction(m, n)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(whole=st.integers(-50, 50),
       places=st.text("0123456789", min_size=1, max_size=24),
       depth=st.integers(1, 20), t=st.fractions(0, 1, max_denominator=10**6))
def test_cf_decimal_digits_hold_on_the_whole_interval(whole, places, depth, t):
    # a decimal written with k places stands for [v - u, v + u], u = 10^-k;
    # every rational in it, endpoints included, must share the emitted digits
    text = f"{whole}.{places}"
    for d in range(depth, 0, -1):  # the deepest certified expansion <= depth
        try:
            cf = cf_expand(text, d)
            break
        except PrecisionExhausted:
            pass
    else:
        assume(False)
    assume(not cf.terminated)
    v, u = Fraction(text), Fraction(1, 10 ** len(places))
    emitted = [cf.a0, *cf.digits]
    for x in (v - u, v + u, v - u + 2 * u * t):
        assert _euclid_cf(x.numerator, x.denominator)[:len(emitted)] == emitted


_THETAS = st.one_of(
    st.builds(lambda sign, whole, places: f"{sign}{whole}.{places}",
              st.sampled_from(["", "-"]), st.integers(0, 50),
              st.text("0123456789", min_size=1, max_size=80)),
    st.builds(lambda m, n: f"{m}/{n}", st.integers(-10**9, 10**9),
              st.integers(1, 10**9)),
    st.integers(-10**6, 10**6).map(str),
)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(theta=_THETAS, depth=st.integers(1, 120))
def test_cf_matches_the_fraction_interval_oracle(theta, depth):
    assert _outcome(cf_expand, theta, depth) == \
        _outcome(_fraction_cf_expand, theta, depth)


def test_cf_negative_and_integer_inputs():
    assert cf_expand(Fraction(-7, 2), depth=4).a0 == -4
    cf = cf_expand("3", depth=4)
    assert (cf.a0, cf.digits, cf.terminated) == (3, (), True)


def test_parse_theta_radius():
    value, radius = parse_theta("0.61803398874989484820")
    assert radius == Fraction(1, 10**20)
    assert value == Fraction(61803398874989484820, 10**20)
    assert parse_theta("2/7") == (Fraction(2, 7), 0)


@pytest.mark.parametrize("text, radius", [
    ("0.6180339887e0", Fraction(1, 10**10)),
    ("0.123e-2", Fraction(1, 10**5)),
    ("1.5e2", Fraction(10)),
    ("1e-5", Fraction(1, 10**5)),
    ("0.1_2", Fraction(1, 100)),  # a digit separator is not a place
])
def test_parse_theta_radius_is_one_unit_in_the_last_place(text, radius):
    assert parse_theta(text) == (Fraction(text), radius)


def test_exponent_notation_certifies_what_the_plain_decimal_does():
    # the radius 1e-10 certifies 22 golden digits and no more
    for theta in ("0.6180339887", "0.6180339887e0"):
        assert cf_expand(theta, 22).digits == (1,) * 22
        with pytest.raises(PrecisionExhausted, match="digit 23 of"):
            cf_expand(theta, 23)


# --- convergents -----------------------------------------------------------

def test_fibonacci_q_column():
    cf = CFExpansion(0, (1, 1, 1, 1, 1))
    table = convergents(cf)
    assert [q for (_, _, q) in table.rows] == [1, 1, 2, 3, 5, 8]


def test_seed_rows_for_0_2():
    table = convergents(CFExpansion(0, (2,), terminated=True))
    assert table.rows == ((0, 0, 1), (1, 1, 2))


def test_final_convergent_is_the_rational():
    table = convergents(CFExpansion(1, (2, 1, 3), terminated=True))
    assert table.convergent(3) == Fraction(15, 11)
    assert _fold([1, 2, 1, 3]) == Fraction(15, 11)


def test_determinant_identity_random():
    rng = random.Random(7)
    for _ in range(50):
        digits = tuple(rng.randrange(1, 12) for _ in range(rng.randrange(1, 20)))
        a0 = rng.randrange(-3, 4)
        table = convergents(CFExpansion(a0, digits))
        assert table.determinant_identity_holds()
        # spot-check one row by hand
        n = rng.randrange(1, len(digits) + 1)
        lhs = table.p(n) * table.q(n - 1) - table.p(n - 1) * table.q(n)
        assert lhs == (-1) ** (n - 1)


def test_alternating_enclosure_and_error_bound():
    theta = Fraction(355, 113)  # [3; 7, 16]17... close to pi
    cf = cf_expand(theta, depth=10)
    table = convergents(cf)
    for n in range(len(table) - 1):
        c = table.convergent(n)
        if n % 2 == 0:
            assert c <= theta
        else:
            assert c >= theta
        # strict inequality until theta itself is the (n+1)-st convergent
        if n < len(table) - 2:
            assert abs(theta - c) < table.error_bound(n)
        else:
            assert abs(theta - c) == table.error_bound(n)


def test_json_serialization_uses_decimal_strings():
    table = convergents(cf_expand("15/11", depth=8))
    obj = table.to_json_obj()
    assert obj[-1] == {"n": 3, "p": "15", "q": "11"}
    assert all(isinstance(row["p"], str) for row in obj)


def test_quadratic_irrational_certified():
    # sqrt(2) - 1 = [0; 2, 2, 2, ...]
    with decimal.localcontext() as ctx:
        ctx.prec = 70
        s = format((decimal.Decimal(2).sqrt() - 1).quantize(
            decimal.Decimal(1).scaleb(-60)), "f")
    cf = cf_expand(s, depth=20)
    assert cf.digits == (2,) * 20
