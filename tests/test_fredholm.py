import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from ncg_torus import fredholm, torus_rep
from ncg_torus.errors import (
    ExceedsMemory,
    InvalidInput,
    NotAProjection,
    NotUnitary,
    RepresentationTooSmall,
    UnstableIndex,
    UnsupportedForm,
)
from ncg_torus.fredholm import (
    BoxFredholmModule,
    OddFredholmModule,
    canonical_even,
    canonical_odd,
    conjugate_module,
    dirac_even_pairing,
    dirac_module,
    even_pairing,
    odd_pairing,
)
from ncg_torus.torus_rep import (
    TorusPolynomial,
    TruncatedZRep,
    clock_shift,
    dirac_data,
    rieffel_polynomial,
    rieffel_projection,
    truncated_rep,
)

from box_oracle import dense_box_pass, flip_sectors, sector_sum
from line_oracle import dense_odd_counts, poly_as_dict, poly_from_dict

GOLDEN = "0.618033988749894848204586834365638117720309179805762862135"
#: twelve angles of the benchmark's vetted box pool, every eighth one
VETTED = (GOLDEN, "0.3525", "0.3800", "0.4150", "0.4400", "0.4700", "0.4950",
          "0.5200", "0.5500", "0.5775", "0.6050", "0.6375")
#: the vetted angles, the small-N and default-N calls that certify a wrong
#: 0, and one call per refusal of the pass (both sides, the 1/2 cut, rank 0
#: and full rank)
BOX_ORACLE_CASES = (
    [(theta, N) for N in (12, 16) for theta in VETTED]
    + [(GOLDEN, 2), (GOLDEN, 6), ("0.4", 8), ("0.455", 8),
       ("0.05", 16), ("0.3", 16), ("0.2", 12), ("0.1", 16), ("1/2", 12),
       ("0.01", 16), ("0.97", 8), ("1e-5", 4)])


def trivial_even():
    return canonical_even({"U": np.eye(1), "V": np.eye(1)})


class TestCanonicalEven:
    def test_rejects_non_unitary_fiber(self):
        with pytest.raises(NotUnitary):
            canonical_even({"U": 0.5 * np.eye(2), "V": np.eye(2)})
        with pytest.raises(InvalidInput):
            canonical_even({"U": np.eye(2)})
        with pytest.raises(InvalidInput, match="square of equal size"):
            canonical_even({"U": 1.0, "V": 1.0})

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

    def test_spec_pairs_from_its_own_trace_and_defects(self):
        rep = clock_shift(2, 5)
        mod = canonical_even({"U": rep.U, "V": rep.V})
        spec = rieffel_projection(Fraction(2, 5), rep)
        got, want = even_pairing(mod, spec), even_pairing(mod, spec.matrix)
        assert (got.value, got.truncation) == (want.value, want.truncation) == (2, 5)
        for key, value in got.details.items():
            assert abs(value - want.details[key]) <= 1e-12
        # the pairing's tolerances apply to the spec's own numbers
        from ncg_torus.errors import NonIntegerPairing
        for change, error in ((dict(defect_adjoint=1e-9), NotAProjection),
                              (dict(defect_idempotent=1e-7), NotAProjection),
                              (dict(trace=0.5), NonIntegerPairing)):
            with pytest.raises(error):
                even_pairing(mod, dataclasses.replace(spec, **change))
        with pytest.raises(InvalidInput, match="multiple of the fiber dim 3"):
            even_pairing(fredholm.EvenFredholmModule(3), spec)

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

    def test_rounding_guard_is_live(self, monkeypatch):
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
        monkeypatch.setattr(fredholm, "ROUND_TOL", 1e-18)
        with pytest.raises(NonIntegerPairing):
            even_pairing(mod, noisy)


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

    def test_fiber_counts_are_multiplied_not_recomputed(self):
        # fiber 1 counts (0, 2) for U^2; three copies count three times that
        res = odd_pairing(canonical_odd(truncated_rep(GOLDEN, 8), fiber_dim=3),
                          "U^2", stability_check=False)
        assert (res.value, res.details["kernel"], res.details["cokernel"]) == \
            (-6, 0, 6)

    def test_bulk_clamps_the_count_and_the_recheck_catches_it(self):
        # at N = 7 a fifth power leaves a bulk of 3 columns, so the count
        # reads -3; at N = 11 it reads -5
        mod = canonical_odd(truncated_rep(GOLDEN, 7))
        res = odd_pairing(mod, "U^5", stability_check=False)
        assert (res.value, res.details["cokernel"]) == (-3, 3)
        with pytest.raises(UnstableIndex, match="-3 at N = 7 became -5 at N = 11"):
            odd_pairing(mod, "U^5")

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
        obj = res.to_json_obj()
        assert (obj["value"], obj["stable"], obj["method"]) == \
            (-1, True, "kernel-index")
        res2 = odd_pairing(mod, "U", stability_check=False)
        assert res2.value == res.value and not res2.stable

    def test_unstable_rebuild_is_caught(self, monkeypatch):
        # a recheck that lands in the other variant flips the answer
        mod = canonical_odd(truncated_rep(GOLDEN, 8))
        monkeypatch.setattr(fredholm, "truncated_rep",
                            lambda theta, n, variant: truncated_rep(theta, n, "z1prime"))
        with pytest.raises(UnstableIndex, match="-1 at N = 8 became 0 at N = 12"):
            odd_pairing(mod, "U")

    def test_hand_built_module_is_rechecked(self):
        # the recheck rebuilds the module from its rep's angle and variant
        res = odd_pairing(OddFredholmModule(truncated_rep(GOLDEN, 8, "z1prime")), "V")
        assert res.stable and res.value == -1
        assert (res.details["N_recheck"], res.details["value_recheck"]) == (12, -1)

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

    @pytest.mark.parametrize("variant,word,N,value", [
        ("z1", "U^3 U^-1", 8, -2),
        ("z1prime", "V U^2 V^-1", 8, 0),
        ("z1", "U^5 U^-5", 6, 0),
    ])
    def test_mixed_words_are_realized_exactly(self, variant, word, N, value):
        # a product of truncated factors loses columns out to its largest
        # partial power, which the net bandwidth of the word does not cover
        mod = canonical_odd(truncated_rep("0.3", N, variant))
        res = odd_pairing(mod, word)
        assert res.stable and res.value == value

    def test_module_needs_a_fiber(self):
        # a hand-built module with no fiber would pair to a stable 0
        for build in (OddFredholmModule, canonical_odd):
            with pytest.raises(InvalidInput):
                build(truncated_rep("0.45", 8), 0)

    def test_certified_pairing_builds_no_dense_generator(self, monkeypatch):
        # the recheck really runs at N + 4, and neither the module's rep
        # nor the rebuilt one builds dense U or V
        built = []

        def recording(theta, n, variant):
            built.append(truncated_rep(theta, n, variant))
            return built[-1]

        monkeypatch.setattr(fredholm, "truncated_rep", recording)
        base = truncated_rep(GOLDEN, 8, "z1prime")
        res = odd_pairing(canonical_odd(base), "V^2")
        assert res.stable and res.value == -2
        assert [rep.N for rep in built] == [12]
        for rep in (base, *built):
            assert "U" not in vars(rep) and "V" not in vars(rep)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(a=strategies.integers(-6, 6), b=strategies.integers(-6, 6),
       N=strategies.integers(1, 12),
       variant=strategies.sampled_from(["z1", "z1prime"]),
       fiber_dim=strategies.integers(1, 3), theta=strategies.floats(0, 1),
       coeff_turn=strategies.floats(0, 1),
       phase_seed=strategies.none() | strategies.integers(0, 2**32 - 1))
def test_odd_count_matches_a_dense_svd(a, b, N, variant, fiber_dim, theta,
                                       coeff_turn, phase_seed):
    # the oracle realizes c U^a V^b with a random unit c, conjugates it by
    # random unit phases and counts singular values below ODD_RANK_TOL;
    # the unconjugated pairing is rechecked at N + 4 against the oracle
    rep = TruncatedZRep(theta, N, variant)
    word = poly_from_dict(theta, {(a, b): np.exp(2j * np.pi * coeff_turn)})
    module = canonical_odd(rep, fiber_dim)
    phases = None
    if phase_seed is not None:
        rng = np.random.default_rng(phase_seed)
        phases = np.exp(2j * np.pi * rng.random(rep.dim))
        module = conjugate_module(module, phases)

    def oracle():
        ker, coker = dense_odd_counts(word, rep, fiber_dim, phases)
        if phases is None:
            again = dense_odd_counts(word, TruncatedZRep(theta, N + 4, variant),
                                     fiber_dim)
            if again[0] - again[1] != ker - coker:
                raise UnstableIndex
        return ker - coker, ker, coker

    def count():
        res = odd_pairing(module, f"U^{a} V^{b}", stability_check=phases is None)
        return res.value, res.details["kernel"], res.details["cokernel"]

    outcomes = []
    for run in (oracle, count):
        try:
            outcomes.append(run())
        except (RepresentationTooSmall, UnstableIndex) as exc:
            outcomes.append(type(exc))
    assert outcomes[1] == outcomes[0]


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
        # the conjugated module is the module, so its recheck at N + 4 runs
        res = odd_pairing(conj, "U")
        assert res.stable and res.value == odd_pairing(mod, "U").value == -1
        assert res.details["N_recheck"] == 13

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

    def test_bulk_modes_on_both_sides_are_unstable(self):
        # at theta = 0.1, N = 16 one near-kernel pair has at least half its
        # mass in the bulk on both sides: the kernel and cokernel counts
        # cancel to a 0 where the class pairs to -1
        with pytest.raises(UnstableIndex, match="both sides"):
            dirac_even_pairing(dirac_module("0.1", 16), "trace-theta",
                               stability_check=False)

    def test_box_cutoff_too_large(self):
        # the K rule gives K = 0 at N = 1: no room for the build
        with pytest.raises(RepresentationTooSmall):
            dirac_even_pairing(dirac_module(GOLDEN, 1), "trace-theta",
                               stability_check=False)

    def test_spec_object_is_rejected(self):
        # the route rebuilds its projection from a token at every N, so a
        # spec's trace (zero here) would go unread: refuse it
        mod = dirac_module(GOLDEN, 8)
        spec = rieffel_projection(Fraction(2, 5), clock_shift(2, 5))
        zero = dataclasses.replace(spec, trace=0.0)
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
        # the conjugated module is the module, so its recheck at N + 4 runs
        res = dirac_even_pairing(conj, "trace-theta")
        assert res.stable and res.value == -1
        assert res.details["N_recheck"] == 16

    def test_conjugation_keeps_the_evidence(self):
        # a dense oracle: conjugate the realized projection by a random
        # diagonal unitary D, take the complex eigh of its Hermitian part
        # and the singular values of F0 compressed to its range; they must
        # give the evidence the route reports for the conjugated module
        rng = np.random.default_rng(8)
        for theta in (GOLDEN, "0.45"):
            rep = dirac_data(theta, 12)
            phases = np.exp(2j * np.pi * rng.random(rep.dim))
            got = dirac_even_pairing(conjugate_module(BoxFredholmModule(rep), phases),
                                     "trace-theta", stability_check=False)
            assert got.value == -1
            K = min(max(6, rep.N // 3), rep.N // 2)  # the box pass's cutoff
            p = rieffel_polynomial(rep.theta, K)[0].realize_box(rep)
            p = (phases[:, None] * p) * phases.conj()[None, :]
            w, q = np.linalg.eigh((p + p.conj().T) / 2)
            q = q[:, w >= 0.5]
            s = np.linalg.svd(q.conj().T @ (rep.F0_diag[:, None] * q),
                              compute_uv=False)
            oracle = {"rank": q.shape[1], "sigma_min": s[-1], "sigma_next": s[-2],
                      "gap_half": np.abs(w - 0.5).min()}
            for key, want in oracle.items():
                assert abs(got.details[key] - want) <= 1e-12, key

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("theta", [GOLDEN, "0.45"])
    def test_real_polish_reproduces_the_complex_route(self, N, theta):
        rep = dirac_data(theta, N)
        K = N // 2
        poly = rieffel_polynomial(rep.theta, K)[0]
        p = poly.realize_box(rep)
        sectors = fredholm._mirror_polish(poly, rep)
        assert [w.size for w, _, _ in sectors] == [(rep.dim + 1) // 2, (rep.dim - 1) // 2]
        # unfold the kept real columns, the eigenvectors at or above 1/2, from
        # the flip's sector coordinates to the box: site x holds the sum over
        # its two slots s of weights[x, s] times coordinate at[x, s]
        vec = []
        for (w, q, reps), (r, at, weight) in zip(sectors, flip_sectors(N)):
            assert np.array_equal(reps, r) and np.all(np.diff(w) >= 0)
            vec.append((weight[:, :, None] * q[:, w >= 0.5][at]).sum(axis=1))
        vec = np.hstack(vec)
        ref_w, ref_q = np.linalg.eigh((p + p.conj().T) / 2)
        w = np.sort(np.concatenate([w for w, _, _ in sectors]))
        assert np.abs(w - ref_w).max() <= 1e-12
        kept = ref_q[:, ref_w >= 0.5]
        assert vec.shape == kept.shape
        assert np.abs(vec.conj().T @ vec - np.eye(vec.shape[1])).max() <= 1e-12
        proj = vec @ vec.conj().T
        assert np.abs(proj - kept @ kept.conj().T).max() <= 1e-10

    @pytest.mark.parametrize("theta,N", BOX_ORACLE_CASES)
    def test_pass_matches_the_dense_oracle(self, theta, N, monkeypatch):
        # the pass's real compression, values-only SVD, shifted solves and
        # mirror-basis masses against complex eigh, full SVD and box masses
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        try:
            want = dense_box_pass(theta, N)
        except UnstableIndex:
            with pytest.raises(UnstableIndex):
                fredholm._dirac_single(dirac_data(theta, N))
            return
        got = fredholm._dirac_single(dirac_data(theta, N))
        for key in ("value", "kernel", "cokernel", "rank"):
            assert got[key] == want[key], key
        for key in ("sigma_min", "sigma_next", "gap_half"):
            assert abs(got[key] - want[key]) <= 1e-12, key

    @pytest.mark.parametrize("planted", [(0.0, 0.01, 0.0101), (0.001, 0.02)])
    def test_small_singular_vectors_match_a_full_svd(self, planted):
        rng = np.random.default_rng(5)
        n = 40

        def unitary():
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return np.linalg.qr(z)[0]

        values = np.concatenate([rng.uniform(0.5, 1.0, n - len(planted)), planted])
        t = (unitary() * values) @ unitary().conj().T
        s = np.linalg.svd(t, compute_uv=False)
        small = s[s < fredholm.DIRAC_RANK_TOL]
        assert small.size == len(planted)
        v, u = fredholm._small_singular_vectors(t, t.conj().T @ t, small)
        ref_u, _, ref_vh = np.linalg.svd(t)
        # both come in descending order of the singular value
        for got, ref in ((v, ref_vh.conj().T), (u, ref_u)):
            assert np.abs(got.conj().T @ got - np.eye(small.size)).max() <= 1e-10
            for i, j in enumerate(range(n - small.size, n)):
                proj = np.outer(got[:, i], got[:, i].conj())
                assert np.abs(proj - np.outer(ref[:, j], ref[:, j].conj())).max() <= 1e-10

    @pytest.mark.parametrize("values", [[0.9, 0.7, 0.01], [0.9, 0.7, 0.0]])
    def test_small_singular_vectors_of_a_diagonal(self, values):
        # the gram of a diagonal t less the exact sigma^2 has an exactly zero
        # pivot, which the solve refuses; the shift just below it has none
        t = np.diag(values)
        small = np.linalg.svd(t, compute_uv=False)[-1:]
        for got in fredholm._small_singular_vectors(t, t.T @ t, small):
            assert np.abs(np.abs(got[:, 0]) - [0, 0, 1]).max() <= 1e-12

    def test_spectrum_reads_the_small_values_back_from_their_vectors(self):
        # a square root of eigvalsh(t^T t) is off by up to eps ||t||^2 / sigma,
        # 1e-8 at sigma = 0; the Ritz value ||t v|| of a small one by eps ||t||
        rng = np.random.default_rng(11)
        n, planted = 40, [1e-9, 0.0, 0.0101, 0.01]
        values = np.concatenate([rng.uniform(0.5, 1.0, n - len(planted)), planted])
        left, right = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        t = (left * values) @ right.T
        ref = np.linalg.svd(t, compute_uv=False)
        small = ref < fredholm.DIRAC_RANK_TOL
        assert small.sum() == len(planted)
        got = fredholm._spectrum(t)[0]
        assert np.abs(got - ref)[small].max() <= 1e-15
        assert np.abs(got - ref)[~small].max() <= 1e-13
        # the square roots alone miss a small value by far more
        bare = np.sqrt(np.maximum(np.linalg.eigvalsh(t.T @ t)[::-1], 0.0))
        assert np.abs(bare - ref)[small].max() > 1e-15

    @pytest.mark.parametrize("N", [8, 12])
    def test_complement_side_matches_the_range_side(self, N, monkeypatch):
        # the projections at theta and 1 - theta have complementary ranks, so
        # the pass at theta < 1/2 works on the range of p and the one at
        # 1 - theta on its complement: the integers and the evidence agree
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        dim = (2 * N + 1) ** 2
        for theta in (0.2, 0.31, 0.3375, 0.42, 0.455, 0.4975):
            low, high = (fredholm._dirac_single(dirac_data(x, N)) for x in (theta, 1 - theta))
            assert 2 * low["rank"] < dim and low["rank"] + high["rank"] == dim
            for key in ("value", "kernel", "cokernel"):
                assert low[key] == high[key], (theta, key)
            for key in ("sigma_min", "sigma_next", "gap_half"):
                assert abs(low[key] - high[key]) <= 1e-12, (theta, key)

    def test_pass_runs_under_its_memory_estimate(self, monkeypatch):
        # a ceiling of 60 bytes per box entry, above the pass's estimate of
        # 20: the pass runs and pairs -1
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        module = dirac_module("0.455", 8)
        monkeypatch.setattr(torus_rep, "_physical_memory",
                            lambda: 60 * module.base.dim**2)
        res = dirac_even_pairing(module, "trace-theta", stability_check=False)
        assert res.value == -1

    def test_split_pass_runs_under_36_bytes_an_entry(self, monkeypatch):
        # a ceiling of 36 bytes per box entry holds the split pass, where the
        # unsplit pass's estimate of 48 was refused
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        module = dirac_module("0.455", 8)
        monkeypatch.setattr(torus_rep, "_physical_memory",
                            lambda: 36 * module.base.dim**2)
        res = dirac_even_pairing(module, "trace-theta", stability_check=False)
        assert res.value == -1

    def test_pass_runs_under_24_bytes_an_entry(self, monkeypatch):
        # sectors summed from the coefficients, with no complex box matrix and
        # no mirror matrix, bring the estimate to 20 bytes per box entry: a
        # ceiling of 24 holds the pass, where the estimate of 32 was refused,
        # and one of 19 refuses it
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        module = dirac_module("0.455", 8)
        monkeypatch.setattr(torus_rep, "_physical_memory",
                            lambda: 24 * module.base.dim**2)
        res = dirac_even_pairing(module, "trace-theta", stability_check=False)
        assert res.value == -1
        fredholm._dirac_cache.clear()
        monkeypatch.setattr(torus_rep, "_physical_memory",
                            lambda: 19 * module.base.dim**2)
        with pytest.raises(ExceedsMemory, match="a box pass at N = 8"):
            dirac_even_pairing(module, "trace-theta", stability_check=False)

    def test_pass_cache_keeps_only_the_last_passes(self, monkeypatch):
        # a recheck chain reads back its own last passes; a process that
        # pairs a pool of angles computes an angle again when the pool wraps
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        for theta in [0.35 + 0.01 * k for k in range(12)]:
            fredholm._dirac_single(dirac_data(theta, 4))
        assert 0 < len(fredholm._dirac_cache) <= 8
        assert (0.35, 4) not in fredholm._dirac_cache

    def test_mirror_asymmetric_projection_is_rejected(self, monkeypatch):
        def broken(theta, K):
            poly, delta = rieffel_polynomial(theta, K)
            d = poly_as_dict(poly)
            d[(1, 0)] += 1e-6  # (-1, 0) keeps its value
            return poly_from_dict(theta, d), delta

        monkeypatch.setattr(fredholm, "rieffel_polynomial", broken)
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        with pytest.raises(NotAProjection):
            dirac_even_pairing(dirac_module(GOLDEN, 6), "trace-theta",
                               stability_check=False)

    @pytest.mark.parametrize("K", [6, 10, 16])
    def test_centred_coefficients_are_flip_symmetric(self, K):
        # f and g are sampled about the centres of their supports, and the
        # flip U -> U^-1, V -> V^-1 then fixes p: c[-m, -n] = c[m, n]
        for theta in np.arange(1, 20) / 20:
            c = rieffel_polynomial(theta, K)[0].c
            assert np.abs(c - c[::-1, ::-1]).sum() <= 1e-13, theta

    @pytest.mark.parametrize("K", [16, 32])
    def test_coefficients_are_flip_symmetric_at_narrow_ramps(self, K):
        # at theta <= 0.02 and >= 0.98 a ramp of width delta spans at most 41
        # grid points; samples placed symmetrically about its centre keep the
        # flip exact there too, where the uncentred grid left up to 1.4e-6
        for theta in (0.005, 0.01, 0.0175, 0.02, 0.0225, 0.975, 0.98, 0.9825, 0.995):
            c = rieffel_polynomial(theta, K)[0].c
            assert np.abs(c - c[::-1, ::-1]).sum() <= 1e-13, theta

    def test_flip_asymmetric_projection_is_rejected(self, monkeypatch):
        def broken(theta, K):
            poly, delta = rieffel_polynomial(theta, K)
            c = poly.c.copy()
            # f-hat at m = 1 and -1 moved by +-i 1e-6: c[-m] = conj(c[m]) still
            # holds, so J fixes p, but c[-m] != c[m], so the flip does not
            c[K + 1, 1] += 1e-6j
            c[K - 1, 1] -= 1e-6j
            return TorusPolynomial(theta, c), delta

        def polished(*args):
            raise AssertionError("the flip gate comes before the polish")

        monkeypatch.setattr(fredholm, "rieffel_polynomial", broken)
        monkeypatch.setattr(fredholm, "_mirror_polish", polished)
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        with pytest.raises(NotAProjection, match="flip defect"):
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

    def test_certified_pairing_builds_no_dense_generator(self, monkeypatch):
        # both passes really run: one box rep at N and one at N + 4, and
        # neither builds dense U or V, on the module or inside the passes
        built = []

        def recording(theta, N):
            built.append(dirac_data(theta, N))
            return built[-1]

        monkeypatch.setattr(fredholm, "dirac_data", recording)
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        module = dirac_module(GOLDEN, 12)
        assert dirac_even_pairing(module, "trace-theta").value == -1
        assert [rep.N for rep in built] == [12, 16]
        for rep in built:
            assert "U" not in vars(rep) and "V" not in vars(rep)

    def test_cache_answers_only_for_the_angle_it_was_built_at(self, monkeypatch):
        # a rep hand-built at theta = 0.1 is paired first; the box at
        # theta = 0.45 and the same N must still get a pass of its own
        monkeypatch.setattr(fredholm, "_dirac_cache", {})
        other = dataclasses.replace(dirac_data("0.45", 12), theta=0.1)
        first = dirac_even_pairing(BoxFredholmModule(other), "trace-theta",
                                   stability_check=False)
        second = dirac_even_pairing(dirac_module("0.45", 12), "trace-theta",
                                    stability_check=False)
        assert second.value == -1
        assert second.details["rank"] != first.details["rank"]


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(theta=strategies.floats(0.05, 0.95), N=strategies.integers(2, 8))
def test_block_sectors_match_the_entry_sum(theta, N):
    # the pass assembles each flip sector from two row blocks, the oracle sums
    # it entry by entry through the sector's isometry into the box; at small N
    # row 0, the only row where the two sectors differ, is a large share of each;
    # at theta = 1/2 an eigenvalue sits at 1/2 and rounding decides the kept side
    rep = dirac_data(theta, N)
    poly = rieffel_polynomial(theta, min(max(6, N // 3), N // 2))[0]  # the pass's K
    for (w, q, reps), (ref_w, ref_q, ref_reps) in zip(
            fredholm._mirror_polish(poly, rep), sector_sum(poly, rep)):
        assert np.array_equal(reps, ref_reps)
        assert np.abs(w - ref_w).max() <= 1e-13
        if np.abs(w - 0.5).min() > fredholm.PROJECTION_TOL:  # else the pass refuses
            kept, ref_kept = q[:, w >= 0.5], ref_q[:, ref_w >= 0.5]
            assert np.abs(kept @ kept.T - ref_kept @ ref_kept.T).max() <= 1e-12
