from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from ncg_torus.af_tower import (
    BratteliTower,
    KHomCoefficients,
    build_tower,
    inverse_limit_coefficients,
    pairing_along_tower,
    push_k0_class,
    trace_weights,
)
from ncg_torus.errors import (
    HorizonTooSmall,
    InsufficientDigits,
    InvalidInput,
    LevelMismatch,
    MathCheckError,
)
from ncg_torus.exact_arith import (
    CFExpansion,
    cf_expand,
    convergents,
    golden_string,
)


def golden_tower(depth):
    return build_tower(cf_expand(golden_string(60), depth + 2), depth)


def random_prefix_expansion(rng, depth):
    digits = tuple(int(rng.integers(1, 10)) for _ in range(depth))
    return CFExpansion(0, digits, False)


class TestBuildTower:
    def test_golden_dimensions_are_consecutive_fibonacci(self):
        tower = golden_tower(8)
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
        for lv in tower.levels:
            assert (lv.dim_big, lv.dim_small) == (fib[lv.n], fib[lv.n - 1])
        assert all(st.multiplicity == 1 for st in tower.steps)

    def test_fifteen_elevenths(self):
        tower = build_tower(cf_expand(Fraction(15, 11), 10), 3)
        assert [(lv.dim_big, lv.dim_small) for lv in tower.levels] == \
            [(2, 1), (3, 2), (11, 3)]
        assert [st.multiplicity for st in tower.steps] == [1, 3]

    def test_dimension_recursion_for_random_expansions(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            depth = int(rng.integers(2, 13))
            tower = build_tower(random_prefix_expansion(rng, depth + 1), depth)
            for st in tower.steps:
                lo = tower.level(st.n_from)
                hi = tower.level(st.n_from + 1)
                assert hi.dim_big == st.multiplicity * lo.dim_big + lo.dim_small
                assert hi.dim_small == lo.dim_big
                m = st.matrix
                assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == -1

    def test_depth_validation(self):
        cf = cf_expand(Fraction(15, 11), 10)
        with pytest.raises(InsufficientDigits):
            build_tower(cf, 7)  # expansion [1; 2, 1, 3] has only 3 digits
        with pytest.raises(InvalidInput):
            build_tower(cf, 0)

    def test_level_and_step_accessors(self):
        tower = golden_tower(4)
        assert tower.level(1).dim_big == 1
        with pytest.raises(LevelMismatch):
            tower.level(5)
        with pytest.raises(LevelMismatch):
            tower.step(4)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(digits=strategies.lists(strategies.integers(1, 40), min_size=2,
                               max_size=40))
def test_random_digit_towers(digits):
    tower = build_tower(CFExpansion(0, tuple(digits)), len(digits))
    for step in tower.steps:
        lo, hi = tower.level(step.n_from), tower.level(step.n_from + 1)
        a = digits[step.n_from]  # a_{n+1}
        assert step.multiplicity == a
        assert hi.dim_big == a * lo.dim_big + lo.dim_small
        assert hi.dim_small == lo.dim_big
        (p, q), (r, s) = step.matrix
        assert p * s - q * r == -1
    assert pairing_along_tower(tower, tower.identity_class(1)) == 1
    assert pairing_along_tower(tower, (1, 0)) == 0
    table = convergents(CFExpansion(0, tuple(digits)))
    for horizon in range(3, len(digits) + 1):
        assert trace_weights(tower, 1, horizon).beta_big == \
            table.convergent(horizon)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(digits=strategies.lists(strategies.integers(1, 40), min_size=2,
                               max_size=60),
       vec=strategies.tuples(strategies.integers(-10**6, 10**6),
                             strategies.integers(-10**6, 10**6)))
def test_sweep_pairing_matches_an_independent_push_at_every_level(digits, vec):
    tower = build_tower(CFExpansion(0, tuple(digits)), len(digits))
    coeffs = inverse_limit_coefficients(tower)
    value = pairing_along_tower(tower, vec, coeffs)
    for n in range(1, tower.depth + 1):
        c, w = coeffs.vector(n), push_k0_class(tower, vec, 1, n)
        assert c[0] * w[0] + c[1] * w[1] == value


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_coefficient_bumped_at_one_level_is_raised_as_drift(where):
    tower = build_tower(CFExpansion(0, (3, 1, 4, 1, 5, 9, 2, 6)), 8)
    coeffs = inverse_limit_coefficients(tower)
    n = {"first": 1, "middle": 4, "last": tower.depth}[where]
    vecs = list(coeffs.vectors)
    vecs[n - 1] = (vecs[n - 1][0] + 1, vecs[n - 1][1])
    bumped = KHomCoefficients(tuple(vecs), coeffs.closed_form, False)
    # the identity class pushes to (q_n, q_{n-1}) with q_n > 0, so the
    # bumped level pairs it to 1 + q_n instead of 1
    with pytest.raises(MathCheckError, match="pairing drifted along the tower"):
        pairing_along_tower(tower, tower.identity_class(1), bumped)


class TestK0Transport:
    def test_push_matches_matrix_product(self):
        tower = golden_tower(6)
        assert push_k0_class(tower, (1, 0), 1, 2) == (1, 1)
        assert push_k0_class(tower, (1, 0), 1, 3) == (2, 1)
        # identity class lands on the identity class of every level
        for n in range(1, 7):
            assert push_k0_class(tower, tower.identity_class(1), 1, n) == \
                tower.identity_class(n)

    def test_push_direction_guard(self):
        tower = golden_tower(4)
        with pytest.raises(LevelMismatch):
            push_k0_class(tower, (1, 0), 3, 2)


class TestInverseLimit:
    def test_golden_vectors_are_signed_fibonacci(self):
        coeffs = inverse_limit_coefficients(golden_tower(6))
        assert coeffs.vectors[:5] == ((0, 1), (1, -1), (-1, 2), (2, -3), (-3, 5))

    def test_closed_form_disagrees_and_is_flagged(self):
        coeffs = inverse_limit_coefficients(golden_tower(6))
        assert not coeffs.matches_closed_form
        assert coeffs.closed_form[1] == (-1, 2)  # != recursion value (1, -1)
        # the closed form annihilates the identity image instead of fixing it
        tower = golden_tower(6)
        for n in range(1, 7):
            c = coeffs.closed_form[n - 1]
            ident = tower.identity_class(n)
            assert c[0] * ident[0] + c[1] * ident[1] == 0

    def test_pairing_is_level_independent(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            depth = int(rng.integers(3, 12))
            tower = build_tower(random_prefix_expansion(rng, depth + 1), depth)
            assert pairing_along_tower(tower, tower.identity_class(1)) == 1
            assert pairing_along_tower(tower, (1, 0)) == 0
            x, y = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
            # functional is linear: value = x * 0 + y * (pairing of (0,1))
            v01 = pairing_along_tower(tower, (0, 1))
            assert pairing_along_tower(tower, (x, y)) == x * 0 + y * v01


class TestTraceWeights:
    def test_explicit_horizon_hits_a_convergent(self):
        cf = cf_expand(golden_string(60), 45)
        tower = build_tower(cf, 42)
        table = convergents(cf)
        for horizon in (10, 25, 40):
            w = trace_weights(tower, 1, horizon)
            assert w.beta_big == table.convergent(horizon)
            lv = tower.level(1)
            assert w.beta_big * lv.dim_big + w.beta_small * lv.dim_small == 1

    def test_weights_are_positive_and_normalized_at_all_levels(self):
        cf = cf_expand(Fraction(15, 11), 10)
        tower = build_tower(cf, 3)
        w = trace_weights(tower, 1, 3)
        lv = tower.level(1)
        assert w.beta_big > 0 and w.beta_small > 0
        assert w.beta_big * lv.dim_big + w.beta_small * lv.dim_small == 1

    def test_auto_horizon_converges(self):
        tower = build_tower(cf_expand(golden_string(60), 45), 42)
        w = trace_weights(tower, 1)
        v = Fraction(golden_string(60))
        assert abs(w.beta_big - v) <= Fraction(1, 10**12)
        assert w.horizon <= 42

    def test_horizon_guards(self):
        tower = golden_tower(10)
        with pytest.raises(HorizonTooSmall):
            trace_weights(tower, 4, 5)
        with pytest.raises(InvalidInput):
            trace_weights(tower, 1, 11)
        with pytest.raises(HorizonTooSmall):
            trace_weights(golden_tower(2), 1)

    def test_certified_distance_to_theta(self):
        # |p_M/q_M - theta| < 1/(q_M q_{M+1}), checked in exact arithmetic
        cf = cf_expand(golden_string(60), 45)
        tower = build_tower(cf, 42)
        table = convergents(cf)
        w = trace_weights(tower, 1, 40)
        v = Fraction(golden_string(60))  # within 1e-60 of theta
        assert abs(w.beta_big - v) <= table.error_bound(40)


class TestExports:
    def test_json_shape(self):
        tower = build_tower(cf_expand(Fraction(15, 11), 10), 3)
        obj = tower.to_json_obj()
        assert obj["depth"] == 3
        assert obj["levels"][2] == {"level": 3, "dims": [11, 3]}
        assert obj["steps"][1]["matrix"] == [[3, 1], [1, 0]]

    def test_dot_is_deterministic_and_complete(self):
        tower = golden_tower(3)
        dot = tower.to_dot()
        assert dot == golden_tower(3).to_dot()
        assert dot.startswith("digraph tower {")
        assert 'b1 -> b2 [label="1"]' in dot
        assert dot.count("->") == 3 * (tower.depth - 1)
