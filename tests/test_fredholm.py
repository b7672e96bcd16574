import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from ncg_torus import fredholm
from ncg_torus.errors import (
    InvalidInput,
    NotAProjection,
    NotUnitary,
    RepresentationTooSmall,
    UnstableIndex,
    UnsupportedForm,
)
from ncg_torus.fredholm import (
    BlockDiagonal,
    GeneratorWord,
    OddFredholmModule,
    canonical_even,
    canonical_odd,
    compactness_report,
    conjugate_module,
    dirac_even_pairing,
    dirac_module,
    even_pairing,
    odd_pairing,
)
from ncg_torus.torus_rep import (
    TorusPolynomial,
    clock_shift,
    dirac_data,
    rieffel_polynomial,
    rieffel_projection,
    truncated_rep,
)

GOLDEN = "0.618033988749894848204586834365638117720309179805762862135"


def trivial_even():
    return canonical_even({"U": np.eye(1), "V": np.eye(1)})


class TestCanonicalEven:
    def test_rejects_non_unitary_fiber(self):
        with pytest.raises(NotUnitary):
            canonical_even({"U": 0.5 * np.eye(2), "V": np.eye(2)})
        with pytest.raises(InvalidInput):
            canonical_even({"U": np.eye(2)})

    def test_unit_class_counts_fiber_copies(self):
        assert even_pairing(trivial_even(), np.eye(1)).value == 1
        rep = clock_shift(3, 7)
        mod = canonical_even({"U": rep.U, "V": rep.V})
        assert even_pairing(mod, np.eye(7)).value == 7
        # rank-k subprojections over two fiber copies
        e = np.zeros((14, 14), dtype=complex)
        e[0, 0] = e[8, 8] = 1.0
        assert even_pairing(mod, e).value == 2

    @pytest.mark.parametrize("m,q", [(2, 5), (3, 7), (5, 12)])
    def test_bump_class_counts_numerator(self, m, q):
        rep = clock_shift(m, q)
        mod = canonical_even({"U": rep.U, "V": rep.V})
        spec = rieffel_projection(Fraction(m, q), rep)
        assert even_pairing(mod, spec.matrix).value == m

    def test_trivial_rep_kills_bump_class(self):
        # evaluating the bump at the fixed point of the circle gives zero
        assert even_pairing(trivial_even(), np.zeros((1, 1))).value == 0

    def test_projection_guards(self):
        mod = trivial_even()
        with pytest.raises(NotAProjection):
            even_pairing(mod, 0.5 * np.eye(1))
        with pytest.raises(NotAProjection):
            even_pairing(mod, np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            even_pairing(canonical_even({"U": np.eye(2), "V": np.eye(2)}),
                         np.eye(3))
        with pytest.raises(UnsupportedForm):
            even_pairing(dirac_module(GOLDEN, 2), np.eye(25))

    def test_rounding_guard_is_live(self):
        # an honest projection carries float noise in its trace; an absurdly
        # tight rounding tolerance must trip the integrality check
        rng = np.random.default_rng(41)
        rep = clock_shift(2, 5)
        mod = canonical_even({"U": rep.U, "V": rep.V})
        spec = rieffel_projection(Fraction(2, 5), rep)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        noisy = q @ spec.matrix @ q.conj().T
        assert abs(np.trace(noisy).real - 2.0) > 1e-18  # but far below 0.1
        from ncg_torus.errors import NonIntegerPairing
        with pytest.raises(NonIntegerPairing):
            even_pairing(mod, noisy, round_tol=1e-18)


class TestOddPairing:
    def test_shift_generator_table(self):
        z1 = canonical_odd(truncated_rep(GOLDEN, 8))
        z1p = canonical_odd(truncated_rep(GOLDEN, 8, "z1prime"))
        table = {
            ("z1", "U"): odd_pairing(z1, "U").value,
            ("z1", "V"): odd_pairing(z1, "V").value,
            ("z1prime", "U"): odd_pairing(z1p, "U").value,
            ("z1prime", "V"): odd_pairing(z1p, "V").value,
        }
        assert table == {("z1", "U"): -1, ("z1", "V"): 0,
                         ("z1prime", "U"): 0, ("z1prime", "V"): -1}

    @pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
    def test_winding_is_linear_in_the_power(self, k):
        mod = canonical_odd(truncated_rep(GOLDEN, 10))
        assert odd_pairing(mod, f"U^{k}").value == -k

    def test_theta_independence(self):
        for theta in (0, Fraction(1, 2), "0.25", GOLDEN):
            mod = canonical_odd(truncated_rep(theta, 8))
            assert odd_pairing(mod, "U").value == -1
            assert odd_pairing(mod, "V").value == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_fiber_multiplies_the_value(self, d):
        mod = canonical_odd(truncated_rep(GOLDEN, 8), fiber_dim=d)
        assert odd_pairing(mod, "U").value == -d

    def test_block_diagonal_windings_add(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 10), fiber_dim=2)
        u = BlockDiagonal((GeneratorWord.parse("U"), GeneratorWord.parse("U^-1")))
        assert odd_pairing(mod, u).value == 0
        u2 = BlockDiagonal((GeneratorWord.parse("U^2"), GeneratorWord.parse("U")))
        assert odd_pairing(mod, u2).value == -3
        with pytest.raises(InvalidInput):
            odd_pairing(mod, BlockDiagonal((GeneratorWord.parse("U"),)))

    def test_mixed_word_winds_once(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 10))
        assert odd_pairing(mod, "U V").value == -1
        assert odd_pairing(mod, "V^-1 U V").value == -1

    def test_stability_metadata(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 8))
        res = odd_pairing(mod, "U")
        assert res.stable
        assert res.details["N_recheck"] == 12
        assert res.method == "kernel-index"
        res2 = odd_pairing(mod, "U", stability_check=False)
        assert res2.value == res.value and not res2.stable

    def test_unstable_rebuild_is_caught(self):
        # a rebuild rule that lands in the other variant flips the answer
        base = truncated_rep(GOLDEN, 8)
        bad = OddFredholmModule(
            base, 1,
            rebuild=lambda n: canonical_odd(truncated_rep(GOLDEN, n, "z1prime")))
        with pytest.raises(UnstableIndex):
            odd_pairing(bad, "U")

    def test_word_validation(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 8))
        with pytest.raises(InvalidInput):
            odd_pairing(mod, "W")
        with pytest.raises(InvalidInput):
            odd_pairing(mod, "U^x")
        with pytest.raises(InvalidInput):
            odd_pairing(mod, "")

    def test_too_small_truncation(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 3))
        with pytest.raises(RepresentationTooSmall):
            odd_pairing(mod, "U^2")

    def test_non_unitary_word_is_rejected(self):
        base = truncated_rep(GOLDEN, 8)
        doctored = dataclasses.replace(base, U=0.5 * base.U)
        mod = OddFredholmModule(doctored, 1, None)
        with pytest.raises(NotUnitary):
            odd_pairing(mod, "U", stability_check=False)


class TestConjugationInvariance:
    def test_odd_values_survive_diagonal_conjugation(self):
        rng = np.random.default_rng(23)
        mod = canonical_odd(truncated_rep(GOLDEN, 9))
        phases = np.exp(2j * np.pi * rng.random(19))
        conj = conjugate_module(mod, phases)
        for word in ("U", "U^2", "V", "U V"):
            a = odd_pairing(mod, word, stability_check=False).value
            b = odd_pairing(conj, word, stability_check=False).value
            assert a == b
        with pytest.raises(InvalidInput):
            odd_pairing(conj, "U")  # no rebuild rule survives conjugation

    def test_even_values_survive_diagonal_conjugation(self):
        rng = np.random.default_rng(29)
        rep = clock_shift(2, 5)
        mod = canonical_even({"U": rep.U, "V": rep.V})
        spec = rieffel_projection(Fraction(2, 5), rep)
        phases = np.exp(2j * np.pi * rng.random(5))
        conj = conjugate_module(mod, phases)
        e = (phases[:, None] * spec.matrix) * phases.conj()[None, :]
        assert even_pairing(conj, e).value == even_pairing(mod, spec.matrix).value

    def test_phase_vector_validation(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 5))
        with pytest.raises(NotUnitary):
            conjugate_module(mod, 2.0 * np.ones(11))
        with pytest.raises(InvalidInput):
            conjugate_module(mod, np.ones(7))
        for module in (mod, trivial_even(), dirac_module(GOLDEN, 2)):
            with pytest.raises(InvalidInput):
                conjugate_module(module, [])


class TestDiracPairing:
    def test_unit_and_zero_classes_pair_to_zero(self):
        mod = dirac_module(GOLDEN, 6)
        assert dirac_even_pairing(mod, "one").value == 0
        with pytest.raises(UnsupportedForm):
            dirac_even_pairing(mod, "zero")

    def test_bump_class_pairs_to_minus_one(self):
        mod = dirac_module(GOLDEN, 12)
        res = dirac_even_pairing(mod, "trace-theta")
        assert res.value == -1
        assert res.stable
        assert res.details["value_recheck"] == -1
        # the kernel mode is clearly separated from the boundary artifacts
        assert res.details["sigma_min"] <= 0.05
        assert res.details["sigma_next"] >= 0.3
        assert res.details["cokernel"] == 1 and res.details["kernel"] == 0

    def test_eigenvalue_at_one_half_is_unstable(self):
        # at theta = 1/2 the polished projection has an eigenvalue on the
        # 1/2 cut (gap_half ~ 3e-16 at N = 12): rounding would pick the rank
        with pytest.raises(UnstableIndex, match="1/2"):
            dirac_even_pairing(dirac_module("1/2", 12), "trace-theta",
                               stability_check=False)

    def test_box_cutoff_too_large(self):
        # the K rule gives K = 0 at N = 1: no room for the build
        with pytest.raises(RepresentationTooSmall):
            dirac_even_pairing(dirac_module(GOLDEN, 1), "trace-theta",
                               stability_check=False)

    def test_spec_object_is_rejected(self):
        # the route rebuilds its projection from a token at every N, so a
        # spec's matrix (all zeros here) would go unread: refuse it
        mod = dirac_module(GOLDEN, 8)
        spec = rieffel_projection(Fraction(2, 5), clock_shift(2, 5))
        zero = dataclasses.replace(spec, matrix=np.zeros_like(spec.matrix))
        for p in (spec, zero):
            with pytest.raises(UnsupportedForm):
                dirac_even_pairing(mod, p, stability_check=False)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(31)
        mod = dirac_module(GOLDEN, 12)
        plain = dirac_even_pairing(mod, "trace-theta", stability_check=False)
        assert plain.value == -1  # the interesting case, not a trivial zero
        phases = np.exp(2j * np.pi * rng.random(25 * 25))
        conj = conjugate_module(mod, phases)
        got = dirac_even_pairing(conj, "trace-theta", stability_check=False)
        assert got.value == plain.value
        with pytest.raises(InvalidInput):
            dirac_even_pairing(conj, "trace-theta")

    def test_conjugation_keeps_the_evidence(self):
        rng = np.random.default_rng(8)
        mod = dirac_module(GOLDEN, 8)
        plain = dirac_even_pairing(mod, "trace-theta", stability_check=False)
        conj = conjugate_module(mod, np.exp(2j * np.pi * rng.random(17 * 17)))
        got = dirac_even_pairing(conj, "trace-theta", stability_check=False)
        for key in ("sigma_min", "sigma_next", "gap_half"):
            assert abs(got.details[key] - plain.details[key]) <= 1e-12

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("theta", [GOLDEN, "0.45"])
    def test_real_polish_reproduces_the_complex_route(self, N, theta):
        rep = dirac_data(theta, N)
        p = rieffel_polynomial(rep.theta, N // 2)[0].realize_box(rep)
        w, vec = fredholm._mirror_polish(p, N)
        ref_w, ref_q = np.linalg.eigh((p + p.conj().T) / 2)
        assert np.abs(w - ref_w).max() <= 1e-12
        kept = ref_q[:, ref_w >= 0.5]
        assert vec.shape == kept.shape
        assert np.abs(vec.conj().T @ vec - np.eye(vec.shape[1])).max() <= 1e-12
        proj = vec @ vec.conj().T
        assert np.abs(proj - kept @ kept.conj().T).max() <= 1e-10

    def test_mirror_asymmetric_projection_is_rejected(self, monkeypatch):
        def broken(theta, K):
            poly, delta = rieffel_polynomial(theta, K)
            d = poly.as_dict()
            d[(1, 0)] += 1e-6  # (-1, 0) keeps its value
            return TorusPolynomial.from_dict(theta, d), delta

        monkeypatch.setattr(fredholm, "rieffel_polynomial", broken)
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        with pytest.raises(NotAProjection):
            dirac_even_pairing(dirac_module(GOLDEN, 6), "trace-theta",
                               stability_check=False)

    def test_input_validation(self):
        mod = dirac_module(GOLDEN, 4)
        with pytest.raises(UnsupportedForm):
            dirac_even_pairing(mod, "two")
        with pytest.raises(UnsupportedForm):
            dirac_even_pairing(trivial_even(), "one")
        rep5 = clock_shift(1, 2)
        spec = rieffel_projection(Fraction(1, 2), rep5)
        with pytest.raises(InvalidInput):
            dirac_even_pairing(mod, spec, stability_check=False)


class TestCompactnessReport:
    def test_half_line_commutators_are_edge_localized(self):
        mod = canonical_odd(truncated_rep(GOLDEN, 12))
        rep = compactness_report(mod)
        # the symmetry jumps once, at the origin: full norm 2, no far field
        assert rep.norms["U"] == pytest.approx(2.0, abs=1e-12)
        assert rep.norms["V"] <= 1e-14
        assert rep.tail_norms["U"] <= 1e-14

    def test_box_commutators_decay(self):
        small = compactness_report(dirac_module(GOLDEN, 6))
        large = compactness_report(dirac_module(GOLDEN, 12))
        for g in ("U", "V"):
            assert large.tail_norms[g] < small.tail_norms[g]
            assert large.tail_norms[g] <= 4.0 / 12

    def test_box_norms_come_from_the_phase_alone(self, monkeypatch):
        for N in (3, 6):
            mod = dirac_module(GOLDEN, N)
            report = compactness_report(mod)
            rep = mod.base
            f0 = rep.F0_diag
            far = [rep.site_index(m, n) for m, n in rep.sites()
                   if max(abs(m), abs(n)) > N // 2]
            for g in ("U", "V"):
                gen = getattr(rep, g)
                c = f0[:, None] * gen - gen * f0[None, :]
                assert abs(report.norms[g] - np.linalg.norm(c, 2)) <= 1e-12
                assert abs(report.tail_norms[g]
                           - np.linalg.norm(c[:, far], 2)) <= 1e-12
        # a certified pairing (both passes really run) and the report build
        # no dense generator, neither on the module nor inside the passes
        built = []

        def recording(theta, N):
            built.append(dirac_data(theta, N))
            return built[-1]

        monkeypatch.setattr(fredholm, "dirac_data", recording)
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        module = dirac_module(GOLDEN, 12)
        assert dirac_even_pairing(module, "trace-theta").value == -1
        compactness_report(module)
        assert [rep.N for rep in built] == [12, 12, 16]
        for rep in built:
            assert "U" not in vars(rep) and "V" not in vars(rep)

    def test_canonical_report_and_json(self):
        rep = compactness_report(trivial_even())
        obj = rep.to_json_obj()
        assert set(obj) == {"dim", "norms", "tail_norms", "tail_radius"}
        res = odd_pairing(canonical_odd(truncated_rep(GOLDEN, 8)), "U")
        robj = res.to_json_obj()
        assert robj["value"] == -1 and robj["stable"] is True
        assert robj["method"] == "kernel-index"
