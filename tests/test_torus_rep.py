import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from ncg_torus.errors import (
    InvalidInput,
    NotCoprime,
    RepresentationTooSmall,
    ThetaOutOfRange,
    UnsupportedForm,
)
from ncg_torus.torus_rep import (
    TorusPolynomial,
    _bump_pair,
    canonical_trace,
    clock_shift,
    dirac_data,
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
        rep = dirac_data(Fraction(1, 3), 2)
        lam = cmath.exp(2j * math.pi / 3)
        e10 = np.zeros(rep.dim)
        e10[rep.site_index(1, 0)] = 1.0
        out = rep.V @ e10
        assert abs(out[rep.site_index(1, 1)] - lam) <= 1e-15
        e00 = np.zeros(rep.dim)
        e00[rep.site_index(0, 0)] = 1.0
        assert (rep.U @ e00)[rep.site_index(1, 0)] == 1.0
        # outgoing edges are dropped
        eN = np.zeros(rep.dim)
        eN[rep.site_index(2, 0)] = 1.0
        assert np.all(rep.U @ eN == 0)

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

    def test_degree(self):
        x = TorusPolynomial.from_dict(0.2, {(3, -1): 1.0, (0, 2): 1.0})
        assert x.degree() == (3, 2)


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
        rep = dirac_data(GOLDEN, 10)
        spec = rieffel_projection(GOLDEN, rep)
        th = float(Fraction(GOLDEN))
        assert abs(spec.poly.a00().real - th) <= 1e-9
        assert abs(spec.trace - th) <= 1e-9
        assert spec.defect_adjoint <= 1e-12
        assert spec.defect_idempotent <= 0.2  # Fourier tail, polished downstream

    @pytest.mark.parametrize("N", [4, 6])
    def test_box_adjoint_defect_bounds_the_operator_norm(self, N):
        spec = rieffel_projection(GOLDEN, dirac_data(GOLDEN, N))
        p = spec.matrix
        assert np.linalg.norm(p - p.conj().T, 2) <= spec.defect_adjoint <= 1e-12

    def test_box_cutoff_too_large(self):
        rep = dirac_data(GOLDEN, 6)
        with pytest.raises(RepresentationTooSmall):
            rieffel_projection(GOLDEN, rep, cutoff=5)

    def test_input_validation(self):
        rep = clock_shift(1, 2)
        with pytest.raises(ThetaOutOfRange):
            rieffel_projection(0, truncated_rep(0, 3))
        with pytest.raises(InvalidInput):
            rieffel_projection(Fraction(1, 3), rep)  # rep is at 1/2
        with pytest.raises(UnsupportedForm):
            rieffel_projection(GOLDEN, truncated_rep(GOLDEN, 4))
        with pytest.raises(InvalidInput):
            rieffel_projection(Fraction(1, 2), rep, profile="step")
