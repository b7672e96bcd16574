import cmath
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from ncg_torus import torus_rep
from ncg_torus.errors import (
    ExceedsMemory,
    InvalidInput,
    NotCoprime,
    ThetaOutOfRange,
    UnsupportedForm,
)
from ncg_torus.fredholm import dirac_even_pairing, dirac_module
from ncg_torus.torus_rep import (
    TorusPolynomial,
    TruncatedZRep,
    _bump_pair,
    clock_shift,
    dirac_data,
    rieffel_polynomial,
    rieffel_projection,
    truncated_rep,
)

from line_oracle import (
    dict_adjoint,
    dict_product,
    poly_as_dict,
    poly_from_dict,
    realize_line,
    site_index,
)

GOLDEN = "0.618033988749894848204586834365638117720309179805762862135"


def relation_defect(U, V, lam):
    return np.linalg.norm(V @ U - lam * U @ V, 2)


def a00(poly):
    """The constant coefficient: the canonical trace of a polynomial."""
    return poly_as_dict(poly).get((0, 0), 0j)


def dense_products(poly, rep):
    """sum c U^a V^b from the rep's dense truncated generators, with the
    adjoint for negative powers."""
    def power(g, k):
        return np.linalg.matrix_power(g if k >= 0 else g.conj().T, abs(k))
    terms = poly_as_dict(poly).items()
    return sum((c * power(rep.U, a) @ power(rep.V, b) for (a, b), c in terms),
               np.zeros((rep.dim, rep.dim), dtype=complex))


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
            e[k + rep.N] = 1.0
            out = rep.U @ e
            assert out[k + 1 + rep.N] == 1.0
        assert np.all(rep.U[:, 3 + rep.N] == 0)

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
        # the rep is a value of (theta, N, variant), checked on every
        # construction, replace included; its generators are derived, so
        # no doctored U can be built into a rep
        rep = TruncatedZRep(0.3, 8, "z1")
        assert truncated_rep("0.3", 8) == rep
        for bad in (lambda: truncated_rep(GOLDEN, 4, "z2"),
                    lambda: truncated_rep(GOLDEN, 0),
                    lambda: TruncatedZRep(0.3, 8, "z2"),
                    lambda: dataclasses.replace(rep, N=0)):
            with pytest.raises(InvalidInput):
                bad()
        with pytest.raises(TypeError):
            dataclasses.replace(rep, U=0.5 * rep.U)


class TestDiracData:
    def test_phase_values(self):
        rep = dirac_data(GOLDEN, 2)
        f0 = rep.F0_diag
        assert f0[site_index(rep, 0, 0)] == 1.0
        assert f0[site_index(rep, 1, 0)] == 1.0
        assert f0[site_index(rep, 0, 1)] == 1j
        assert abs(f0[site_index(rep, 1, 1)] - (1 + 1j) / math.sqrt(2)) <= 1e-15
        assert np.allclose(np.abs(f0), 1.0, atol=1e-15)

    def test_generator_action(self):
        # every entry: U e_{m,n} = e_{m+1,n}, V e_{m,n} = lambda^m e_{m,n+1},
        # and the outgoing edge columns are zero
        rep = dirac_data(Fraction(1, 3), 2)
        lam = cmath.exp(2j * math.pi / 3)
        for m, n in itertools.product(range(-2, 3), repeat=2):
            u_col = np.zeros(rep.dim, dtype=complex)
            v_col = np.zeros(rep.dim, dtype=complex)
            if m < 2:
                u_col[site_index(rep, m + 1, n)] = 1.0
            if n < 2:
                v_col[site_index(rep, m, n + 1)] = lam ** m
            col = site_index(rep, m, n)
            assert np.array_equal(rep.U[:, col], u_col)
            assert np.abs(rep.V[:, col] - v_col).max() <= 1e-15

    def test_site_index_bounds(self):
        rep = dirac_data(GOLDEN, 2)
        with pytest.raises(InvalidInput):
            site_index(rep, 3, 0)


class TestTorusPolynomial:
    def test_product_picks_up_phase(self):
        # (U V)(U V) = lambda U^2 V^2
        th = 0.37
        uv = poly_from_dict(th, {(1, 1): 1.0})
        sq = uv * uv
        lam = cmath.exp(2j * math.pi * th)
        assert set(poly_as_dict(sq)) == {(2, 2)}
        assert abs(poly_as_dict(sq)[(2, 2)] - lam) <= 1e-15

    def test_adjoint_involution_and_phase(self):
        th = 0.29
        x = poly_from_dict(th, {(1, 1): 2j, (0, 2): 1.5, (-1, 0): 0.3})
        adj = poly_as_dict(x.adjoint())
        lam = cmath.exp(2j * math.pi * th)
        assert abs(adj[(-1, -1)] - (-2j) * lam) <= 1e-15
        back = x.adjoint().adjoint()
        assert back.theta == x.theta and back.c.shape == x.c.shape
        assert np.abs(back.c - x.c).max() <= 1e-15

    def test_angles_never_mix(self):
        # the product would keep its left factor's angle and the box would
        # twist with the rep's: both refuse a second angle instead
        u, v = poly_from_dict(0.4, {(1, 0): 1.0}), poly_from_dict(0.3, {(0, 1): 1.0})
        p = rieffel_polynomial(0.3, 4)[0]
        for mixed in (lambda: v * u, lambda: u * v, lambda: u + v,
                      lambda: p.realize_box(dirac_data(0.7, 4))):
            with pytest.raises(InvalidInput, match="does not match"):
                mixed()

    def test_trace_property_on_random_polynomials(self):
        rng = np.random.default_rng(3)
        th = float(rng.random())
        for _ in range(20):
            def rand_poly():
                d = {}
                for _ in range(4):
                    k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                    d[k] = complex(rng.normal(), rng.normal())
                return poly_from_dict(th, d)
            x, y = rand_poly(), rand_poly()
            assert abs(a00(x * y) - a00(y * x)) <= 1e-12

    def test_box_realization_matches_matrix_products_in_bulk(self):
        rng = np.random.default_rng(5)
        rep = dirac_data(GOLDEN, 5)
        d = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))):
             complex(rng.normal(), rng.normal()) for _ in range(5)}
        poly = poly_from_dict(rep.theta, d)
        via_formula = poly.realize_box(rep)
        via_products = dense_products(poly, rep)
        bulk = [site_index(rep, m, n)
                for m in range(-1, 2) for n in range(-1, 2)]
        assert np.allclose(via_formula[:, bulk], via_products[:, bulk], atol=1e-12)


@strategies.composite
def _coefficient_arrays(draw):
    """Centred arrays with independent U and V spans; zero entries are
    common, so the zero polynomial and zero edge columns are drawn too."""
    M, L = draw(strategies.integers(0, 3)), draw(strategies.integers(0, 2))
    entry = strategies.just(0j) | strategies.complex_numbers(
        max_magnitude=2, allow_nan=False, allow_infinity=False)
    size = (2 * M + 1) * (2 * L + 1)
    vals = draw(strategies.lists(entry, min_size=size, max_size=size))
    return np.array(vals, dtype=complex).reshape(2 * M + 1, 2 * L + 1)


def _agree(poly, reference: dict) -> bool:
    got = poly_as_dict(poly)
    return all(abs(got.get(k, 0) - reference.get(k, 0)) <= 1e-12
               for k in set(got) | set(reference))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(theta=strategies.floats(0, 1), a=_coefficient_arrays(),
       b=_coefficient_arrays(),
       s=strategies.complex_numbers(max_magnitude=2, allow_nan=False,
                                    allow_infinity=False))
@example(theta=0.37, a=np.zeros((1, 1)), b=np.arange(5.0).reshape(5, 1), s=1j)
@example(theta=0.37, a=np.arange(1.0, 4.0).reshape(1, 3), b=np.zeros((3, 5)),
         s=0j)
def test_array_algebra_matches_the_dict_algebra(theta, a, b, s):
    # the array +, *, adjoint and scale against the term-by-term oracle
    x, y = TorusPolynomial(theta, a), TorusPolynomial(theta, b)
    dx, dy = poly_as_dict(x), poly_as_dict(y)
    total = dict(dx)
    for k, v in dy.items():
        total[k] = total.get(k, 0) + v
    assert _agree(x + y, total)
    assert _agree(x * y, dict_product(theta, dx, dy))
    assert _agree(y * x, dict_product(theta, dy, dx))
    assert _agree(x.adjoint(), dict_adjoint(theta, dx))
    assert _agree(x.scale(s), {k: s * v for k, v in dx.items()})


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
    x = poly_from_dict(theta, x)
    y = poly_from_dict(theta, y)
    rx = x.realize_box(rep)
    adj = x.adjoint().realize_box(rep)
    assert np.abs(adj - rx.conj().T).max() <= 1e-12
    bulk = [site_index(rep, m, n) for m in range(2 - N, N - 1)
            for n in range(2 - N, N - 1)]
    prod = rx @ y.realize_box(rep)[:, bulk]
    assert np.abs((x * y).realize_box(rep)[:, bulk] - prod).max() <= 1e-12


_line_polys = strategies.dictionaries(
    strategies.tuples(strategies.integers(-2, 2), strategies.integers(-2, 2)),
    strategies.complex_numbers(max_magnitude=2, allow_nan=False,
                               allow_infinity=False),
    max_size=4)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(theta=strategies.floats(0.01, 0.99), N=strategies.integers(3, 6),
       variant=strategies.sampled_from(["z1", "z1prime"]),
       x=_line_polys, y=_line_polys)
def test_line_realization_is_a_star_homomorphism_in_bulk(theta, N, variant, x, y):
    # on columns |k| <= N - 2 the image of y stays in the window, so the
    # exact compression agrees with the dense truncated generators and
    # with products of realizations
    rep = TruncatedZRep(theta, N, variant)
    x = poly_from_dict(theta, x)
    y = poly_from_dict(theta, y)
    rx = realize_line(x, rep)
    bulk = slice(2, 2 * N - 1)
    assert np.abs(rx[:, bulk] - dense_products(x, rep)[:, bulk]).max() <= 1e-12
    adj = realize_line(x.adjoint(), rep)
    assert np.abs(adj[:, bulk] - rx.conj().T[:, bulk]).max() <= 1e-12
    prod = rx @ realize_line(y, rep)[:, bulk]
    assert np.abs(realize_line(x * y, rep)[:, bulk] - prod).max() <= 1e-12


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

    def test_smooth_root_holds_where_f_is_near_1(self):
        # near the top of the falling ramp f = a/(a + b) with b << a, and
        # g^2 = f(1 - f) = ab/(a + b)^2; f - f^2 loses the digits of 1 - f
        theta = 0.3
        f, g, delta = _bump_pair(theta, "smooth")
        old = []
        xs = theta + delta * np.array([0.3, 0.1, 0.05, 0.04, 0.03])  # 1 - t on the ramp
        for x, fx, gx in zip(xs, f(xs), g(xs)):
            t = (theta + delta - x) / delta  # as g computes it
            a, b = Fraction(math.exp(-1.0 / t)), Fraction(math.exp(-1.0 / (1.0 - t)))
            want = a * b / (a + b) ** 2
            assert abs(Fraction(gx) ** 2 / want - 1) <= 1e-14, x
            old.append(abs(Fraction(fx - fx ** 2) / want - 1))
        assert max(old) > 1e-10

    @pytest.mark.parametrize("theta", [0.005, 0.3, 0.618033988749895, 0.995, 1e-310])
    def test_array_samples_match_the_scalar_definition(self, theta):
        # the definition one point at a time: the piecewise-linear samples
        # (the clock route's) agree bit for bit, the smooth ones within the
        # rounding of exp
        delta = min(theta, 1 - theta) / 4

        def scalar(profile):
            def sigma(t):
                return math.exp(-1.0 / t) if t > 0 else 0.0

            def ramp(t):
                if profile == "piecewise-linear" or t <= 0 or t >= 1:
                    return min(max(t, 0.0), 1.0)
                return sigma(t) / (sigma(t) + sigma(1.0 - t))

            def root(t):
                if profile == "piecewise-linear":
                    return math.sqrt(max(t - t * t, 0.0))
                a, b = sigma(t), sigma(1.0 - t)
                return math.sqrt(a * b) / (a + b)

            def f(x):
                x %= 1.0
                if x < delta:
                    return ramp(x / delta)
                if x <= theta:
                    return 1.0
                return ramp((theta + delta - x) / delta) if x < theta + delta else 0.0

            def g(x):
                x %= 1.0
                return root((theta + delta - x) / delta) if theta < x < theta + delta else 0.0

            return f, g

        edges = [0.0, delta, theta, theta + delta, theta + delta / 2]
        xs = np.concatenate([np.linspace(-1.0, 2.0, 6001), edges,
                             np.nextafter(edges, 1.0), np.nextafter(edges, -1.0)])
        for profile, tol in (("piecewise-linear", 0.0), ("smooth", 1e-15)):
            got = _bump_pair(theta, profile)[:2]
            for fn, ref in zip(got, scalar(profile)):
                want = np.array([ref(float(x)) for x in xs])
                assert np.abs(fn(xs) - want).max() <= tol, profile

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

    def test_clock_build_holds_no_dense_array(self, monkeypatch):
        # an 8 MiB ceiling: the blocks of q = 10^5 fit (72 q = 7.2 MB), the
        # generators (32 q^2) and the matrix (128 q^2) would not
        monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 2**23)
        rep = clock_shift(38197, 100000)
        spec = rieffel_projection(Fraction(38197, 100000), rep)
        assert spec.defect_idempotent <= 1e-12 and spec.defect_adjoint == 0.0
        assert abs(spec.trace - 0.38197) <= 1e-12
        assert not {"U", "V"} & set(vars(rep))
        with pytest.raises(ExceedsMemory, match="clock projection matrix"):
            spec.matrix

    @pytest.mark.parametrize("m", [1, 38197, 49999, 99999])
    def test_clock_build_peaks_at_its_counted_arrays(self, m, monkeypatch):
        # at its peak the build holds six float arrays of q samples and a mask,
        # 49 bytes a sample, and estimates 56; tracemalloc counts numpy's live
        # arrays whatever the allocator keeps of the freed ones
        q = 100000
        rep = clock_shift(m, q)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            rieffel_projection(Fraction(m, q), rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 49 * q <= peak <= 50 * q
        monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 56 * q)
        rieffel_projection(Fraction(m, q), rep)
        monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 56 * q - 1)
        with pytest.raises(ExceedsMemory, match="clock projection at q"):
            rieffel_projection(Fraction(m, q), rep)

    def test_box_build_trace_and_symmetry(self):
        th = float(Fraction(GOLDEN))
        for N, K in ((4, 2), (6, 3), (10, 5)):
            rep = dirac_data(GOLDEN, N)
            poly, _ = rieffel_polynomial(rep.theta, K)
            p = poly.realize_box(rep)
            assert abs(a00(poly).real - th) <= 1e-9
            assert abs(np.trace(p).real / rep.dim - th) <= 1e-9
            assert np.linalg.norm(p - p.conj().T, 2) <= 1e-12

    @pytest.mark.parametrize("N", [8, 12])
    def test_box_idempotency_defect_matches_the_matrix(self, N):
        K = min(max(6, N // 3), N // 2)  # the box pass's rule: 4 and 6
        res = dirac_even_pairing(dirac_module(GOLDEN, N), "trace-theta",
                                 stability_check=False)
        rep = dirac_data(GOLDEN, N)
        p = rieffel_polynomial(rep.theta, K)[0].realize_box(rep)
        cols = [site_index(rep, m, n) for m in range(-N + 2 * K, N - 2 * K + 1)
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
        r = [site_index(rep, -m, n)
             for m, n in itertools.product(range(-N, N + 1), repeat=2)]
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


class TestMemoryGuard:
    def test_refuses_only_beyond_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 1000)
        torus_rep._refuse_beyond_memory(1000, "a build")
        with pytest.raises(ExceedsMemory, match="a build needs about"):
            torus_rep._refuse_beyond_memory(1001, "a build")

    @pytest.mark.parametrize("build", [
        lambda: clock_shift(1, 300).U,  # 32 q^2 = 2.9 MB
        lambda: truncated_rep("0.3", 200).U,  # 16 dim^2 = 2.6 MB
        lambda: dirac_data("0.3", 8).V,  # 1.3 MB
        # 128 q^2 = 1.3 MB; the blocks alone take 72 q = 7.2 kB
        lambda: rieffel_projection(Fraction(1, 100), clock_shift(1, 100)).matrix,
    ], ids=["clock", "line", "box generator", "clock projection"])
    def test_dense_builds_are_estimated_before_they_allocate(self, monkeypatch,
                                                            build):
        # a 1 MiB ceiling; every build here would also fit in a few MB
        monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 2**20)
        with pytest.raises(ExceedsMemory, match="physical memory"):
            build()
