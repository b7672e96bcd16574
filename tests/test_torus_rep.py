import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from ncg_torus.errors import (
    InvalidInput,
    NotCoprime,
    ThetaOutOfRange,
    UnsupportedForm,
)
from ncg_torus.fredholm import dirac_even_pairing, dirac_module
from ncg_torus.torus_rep import (
    TorusPolynomial,
    _bump_pair,
    canonical_trace,
    clock_shift,
    dirac_data,
    rieffel_polynomial,
    rieffel_projection,
    truncated_rep,
)

GOLDEN = "0.618033988749894848204586834365638117720309179805762862135"


def relation_defect(U, V, lam):
    return np.linalg.norm(V @ U - lam * U @ V, 2)


class TestClockShift:
    def test_two_dim_matrices(self):
        rep = clock_shift(1, 2)
        assert np.array_equal(rep.U, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(rep.V, np.diag([1, -1]), atol=1e-15)

    def test_relation_exact_for_random_pairs(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 25:
            q = int(rng.integers(2, 51))
            m = int(rng.integers(1, q))
            if math.gcd(m, q) != 1:
                continue
            rep = clock_shift(m, q)
            assert relation_defect(rep.U, rep.V, rep.lam) <= 1e-12
            assert np.linalg.norm(rep.U.conj().T @ rep.U - np.eye(q), 2) <= 1e-12
            assert np.linalg.norm(rep.V.conj().T @ rep.V - np.eye(q), 2) <= 1e-12
            done += 1

    def test_group_commutator_is_conjugate_phase(self):
        # U V U^-1 V^-1 = conj(lambda) * identity
        rep = clock_shift(1, 3)
        w = rep.U @ rep.V @ rep.U.conj().T @ rep.V.conj().T
        lam_bar = cmath.exp(-2j * math.pi / 3)
        assert np.linalg.norm(w - lam_bar * np.eye(3), 2) <= 1e-12

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprime):
            clock_shift(2, 4)

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidInput):
            clock_shift(1, 0)


class TestTruncatedRep:
    def test_third_roots_diagonal(self):
        rep = truncated_rep(Fraction(1, 3), 2)
        lam = cmath.exp(2j * math.pi / 3)
        want = [lam**k for k in range(-2, 3)]
        assert np.allclose(np.diag(rep.V), want, atol=1e-15)
        assert rep.defective_generator == "U"

    def test_shift_acts_and_truncates(self):
        rep = truncated_rep(GOLDEN, 3)
        for k in range(-3, 3):
            e = np.zeros(7)
            e[rep.basis_index(k)] = 1.0
            out = rep.U @ e
            assert out[rep.basis_index(k + 1)] == 1.0
        assert np.all(rep.U[:, rep.basis_index(3)] == 0)

    def test_variant_swaps_roles(self):
        rep = truncated_rep(GOLDEN, 3, "z1prime")
        assert rep.defective_generator == "V"
        lam = cmath.exp(2j * math.pi * rep.theta)
        assert np.allclose(np.diag(rep.U), [lam**(-k) for k in range(-3, 4)],
                           atol=1e-14)

    def test_commutation_defect_vanishes_everywhere(self):
        # both sides of VU - lambda UV kill the outgoing boundary vector,
        # so even the boundary column has zero defect
        for variant in ("z1", "z1prime"):
            rep = truncated_rep(GOLDEN, 5, variant)
            lam = cmath.exp(2j * math.pi * rep.theta)
            assert relation_defect(rep.U, rep.V, lam) <= 1e-14
            assert rep.interior_defect() <= 1e-14

    def test_theta_zero_gives_identity_diagonal(self):
        rep = truncated_rep(0, 4)
        assert np.allclose(rep.V, np.eye(9), atol=1e-15)

    def test_bad_variant_and_size(self):
        with pytest.raises(InvalidInput):
            truncated_rep(GOLDEN, 4, "z2")
        with pytest.raises(InvalidInput):
            truncated_rep(GOLDEN, 0)


class TestDiracData:
    def test_phase_values(self):
        rep = dirac_data(GOLDEN, 2)
        f0 = rep.F0_diag
        assert f0[rep.site_index(0, 0)] == 1.0
        assert f0[rep.site_index(1, 0)] == 1.0
        assert f0[rep.site_index(0, 1)] == 1j
        assert abs(f0[rep.site_index(1, 1)] - (1 + 1j) / math.sqrt(2)) <= 1e-15
        assert np.allclose(np.abs(f0), 1.0, atol=1e-15)

    def test_generator_action(self):
        # every entry: U e_{m,n} = e_{m+1,n}, V e_{m,n} = lambda^m e_{m,n+1},
        # and the outgoing edge columns are zero
        rep = dirac_data(Fraction(1, 3), 2)
        lam = cmath.exp(2j * math.pi / 3)
        for m, n in rep.sites():
            u_col = np.zeros(rep.dim, dtype=complex)
            v_col = np.zeros(rep.dim, dtype=complex)
            if m < 2:
                u_col[rep.site_index(m + 1, n)] = 1.0
            if n < 2:
                v_col[rep.site_index(m, n + 1)] = lam ** m
            col = rep.site_index(m, n)
            assert np.array_equal(rep.U[:, col], u_col)
            assert np.abs(rep.V[:, col] - v_col).max() <= 1e-15

    def test_site_index_bounds(self):
        rep = dirac_data(GOLDEN, 2)
        with pytest.raises(InvalidInput):
            rep.site_index(3, 0)


class TestTorusPolynomial:
    def test_product_picks_up_phase(self):
        # (U V)(U V) = lambda U^2 V^2
        th = 0.37
        uv = TorusPolynomial.from_dict(th, {(1, 1): 1.0})
        sq = uv * uv
        lam = cmath.exp(2j * math.pi * th)
        assert set(sq.as_dict()) == {(2, 2)}
        assert abs(sq.as_dict()[(2, 2)] - lam) <= 1e-15

    def test_adjoint_involution_and_phase(self):
        th = 0.29
        x = TorusPolynomial.from_dict(th, {(1, 1): 2j, (0, 2): 1.5, (-1, 0): 0.3})
        adj = x.adjoint().as_dict()
        lam = cmath.exp(2j * math.pi * th)
        assert abs(adj[(-1, -1)] - (-2j) * lam) <= 1e-15
        back = x.adjoint().adjoint()
        assert back == x

    def test_trace_property_on_random_polynomials(self):
        rng = np.random.default_rng(3)
        th = float(rng.random())
        for _ in range(20):
            def rand_poly():
                d = {}
                for _ in range(4):
                    k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                    d[k] = complex(rng.normal(), rng.normal())
                return TorusPolynomial.from_dict(th, d)
            x, y = rand_poly(), rand_poly()
            assert abs((x * y).a00() - (y * x).a00()) <= 1e-12

    def test_box_realization_matches_matrix_products_in_bulk(self):
        rng = np.random.default_rng(5)
        rep = dirac_data(GOLDEN, 5)
        d = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))):
             complex(rng.normal(), rng.normal()) for _ in range(5)}
        poly = TorusPolynomial.from_dict(rep.theta, d)
        via_formula = poly.realize_box(rep)
        via_products = poly.realize(rep.U, rep.V)
        bulk = [rep.site_index(m, n)
                for m in range(-1, 2) for n in range(-1, 2)]
        assert np.allclose(via_formula[:, bulk], via_products[:, bulk], atol=1e-12)


_box_polys = strategies.dictionaries(
    strategies.tuples(strategies.integers(-2, 2), strategies.integers(-2, 2)),
    strategies.complex_numbers(max_magnitude=2, allow_nan=False,
                               allow_infinity=False),
    max_size=5)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(theta=strategies.floats(0.01, 0.99), N=strategies.integers(3, 6),
       x=_box_polys, y=_box_polys)
def test_box_realization_is_a_star_homomorphism_in_bulk(theta, N, x, y):
    # the identity build_defect rests on: the realized p^2 - p is the
    # realized poly*poly - poly on columns whose image stays in the box
    rep = dirac_data(theta, N)
    x = TorusPolynomial.from_dict(theta, x)
    y = TorusPolynomial.from_dict(theta, y)
    rx = x.realize_box(rep)
    adj = x.adjoint().realize_box(rep)
    assert np.abs(adj - rx.conj().T).max() <= 1e-12
    bulk = [rep.site_index(m, n) for m in range(2 - N, N - 1)
            for n in range(2 - N, N - 1)]
    prod = rx @ y.realize_box(rep)[:, bulk]
    assert np.abs((x * y).realize_box(rep)[:, bulk] - prod).max() <= 1e-12


class TestCanonicalTrace:
    def test_polynomial_form_reads_constant_term(self):
        x = TorusPolynomial.from_dict(0.41, {(0, 0): 3.0, (2, 1): 5.0, (-1, 0): 2j})
        assert canonical_trace(x) == 3.0

    def test_matrix_form_normalizes(self):
        rep = clock_shift(1, 3)
        w = rep.U @ rep.V @ rep.U.conj().T @ rep.V.conj().T
        got = canonical_trace(w, rep)
        assert abs(got - cmath.exp(-2j * math.pi / 3)) <= 1e-12

    def test_rejects_junk(self):
        with pytest.raises(UnsupportedForm):
            canonical_trace("p")
        with pytest.raises(UnsupportedForm):
            canonical_trace(np.zeros((2, 3)))
        with pytest.raises(UnsupportedForm):
            canonical_trace(np.zeros((2, 2)), clock_shift(1, 3))


class TestBumpPair:
    @pytest.mark.parametrize("profile", ["piecewise-linear", "smooth"])
    @pytest.mark.parametrize("theta", [0.618033988749895, 0.25, 0.731])
    def test_projection_conditions_on_grid(self, profile, theta):
        f, g, delta = _bump_pair(theta, profile)
        assert delta == pytest.approx(min(theta, 1 - theta) / 4)
        xs = np.linspace(0, 1, 2001, endpoint=False)
        for x in xs:
            assert g(x) * g((x + theta) % 1.0) <= 1e-15
            if g(x) > 1e-15:
                assert abs(f(x) + f((x - theta) % 1.0) - 1.0) <= 1e-12
            lhs = f(x) - f(x) ** 2
            rhs = g(x) ** 2 + g((x + theta) % 1.0) ** 2
            assert abs(lhs - rhs) <= 1e-12

    def test_smooth_ramp_is_flat_at_ends(self):
        f, _, delta = _bump_pair(0.5, "smooth")
        # exp-type ramp has all derivatives zero at the corners
        eps = delta * 1e-3
        assert f(eps) <= 1e-100
        assert 1.0 - f(delta - eps) <= 1e-100


class TestRieffelProjection:
    @pytest.mark.parametrize("m,q", [(1, 2), (2, 5), (13, 64)])
    def test_clock_build_is_exact(self, m, q):
        rep = clock_shift(m, q)
        spec = rieffel_projection(Fraction(m, q), rep)
        assert spec.defect_idempotent <= 1e-12
        assert spec.defect_adjoint <= 1e-12
        assert abs(spec.trace - m / q) <= 1e-12
        # eigenvalues split exactly into 0 and 1
        w = np.linalg.eigvalsh(spec.matrix)
        assert np.all((np.abs(w) <= 1e-7) | (np.abs(w - 1) <= 1e-7))
        assert int(round(w.sum())) == m

    def test_box_build_trace_and_symmetry(self):
        th = float(Fraction(GOLDEN))
        for N, K in ((4, 2), (6, 3), (10, 5)):
            rep = dirac_data(GOLDEN, N)
            poly, _ = rieffel_polynomial(rep.theta, K)
            p = poly.realize_box(rep)
            assert abs(poly.a00().real - th) <= 1e-9
            assert abs(np.trace(p).real / rep.dim - th) <= 1e-9
            assert np.linalg.norm(p - p.conj().T, 2) <= 1e-12

    @pytest.mark.parametrize("N", [8, 12])
    def test_box_idempotency_defect_matches_the_matrix(self, N):
        K = min(max(6, N // 3), N // 2)  # the box pass's rule: 4 and 6
        res = dirac_even_pairing(dirac_module(GOLDEN, N), "trace-theta",
                                 stability_check=False)
        rep = dirac_data(GOLDEN, N)
        p = rieffel_polynomial(rep.theta, K)[0].realize_box(rep)
        cols = [rep.site_index(m, n) for m in range(-N + 2 * K, N - 2 * K + 1)
                for n in range(-N + 2, N - 1)]
        resid = p @ p[:, cols] - p[:, cols]
        worst = np.sqrt((np.abs(resid) ** 2).sum(axis=0)).max()
        assert abs(res.details["build_defect"] - worst) <= 1e-14
        assert worst <= 0.2  # Fourier tail, polished downstream

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("theta", [GOLDEN, "0.3", "0.45"])
    def test_box_build_is_mirror_symmetric(self, N, theta):
        # e_{m,n} -> e_{-m,n} composed with conjugation fixes p
        rep = dirac_data(theta, N)
        p = rieffel_polynomial(rep.theta, N // 2)[0].realize_box(rep)
        r = [rep.site_index(-m, n) for m, n in rep.sites()]
        assert np.abs(p[r][:, r] - p.conj()).max() <= 1e-15

    def test_input_validation(self):
        rep = clock_shift(1, 2)
        with pytest.raises(ThetaOutOfRange):
            rieffel_projection(0, truncated_rep(0, 3))
        with pytest.raises(InvalidInput):
            rieffel_projection(Fraction(1, 3), rep)  # rep is at 1/2
        with pytest.raises(UnsupportedForm):
            rieffel_projection(GOLDEN, truncated_rep(GOLDEN, 4))
        with pytest.raises(UnsupportedForm):
            rieffel_projection(GOLDEN, dirac_data(GOLDEN, 8))
        for theta in (0.0, 1.0):
            with pytest.raises(ThetaOutOfRange):
                rieffel_polynomial(theta, 2)
