"""Acceptance suite: eleven end-to-end checks, one test per criterion.

Every test states its tolerances inline and computes through public API
only; the conftest hook prints one PASS/FAIL line per criterion after the
run.  Expected integers were fixed before the implementations existed,
from hand-computable cases and the closed-form index/trace identities the
code is supposed to reproduce.
"""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from ncg_torus.af_tower import (
    build_tower,
    inverse_limit_coefficients,
    pairing_along_tower,
    trace_weights,
)
from ncg_torus.errors import UnstableIndex
from ncg_torus.exact_arith import cf_expand, convergents, golden_string
from ncg_torus.fredholm import (
    canonical_even,
    canonical_odd,
    conjugate_module,
    dirac_even_pairing,
    dirac_module,
    even_pairing,
    odd_pairing,
)
from ncg_torus.torus_rep import (
    clock_shift,
    dirac_data,
    rieffel_polynomial,
    rieffel_projection,
    truncated_rep,
)
from ncg_torus.zlattice import builtin_khomology_sequence, builtin_ktheory_sequence

GOLDEN = golden_string(60)


def coprime_pair(rng, q_lo, q_hi):
    while True:
        q = int(rng.integers(q_lo, q_hi + 1))
        m = int(rng.integers(1, q))
        if math.gcd(m, q) == 1:
            return m, q


def test_criterion_01_certified_expansions(criterion):
    """1000 random rationals and 20 quadratic irrationals: determinant
    identity exact, final convergent exact, enclosure alternates, and
    |theta - p_n/q_n| < 1/(q_n q_{n+1}) (equality allowed at the last
    interior row of terminating expansions; 1e-60 slack for certified
    decimal inputs)."""
    rng = np.random.default_rng(101)
    for _ in range(1000):
        den = int(rng.integers(2, 10**6))
        num = int(rng.integers(0, 3 * den))
        theta = Fraction(num, den)
        cf = cf_expand(theta, 64)
        assert cf.terminated
        table = convergents(cf)
        assert table.determinant_identity_holds()
        last = len(table.rows) - 1
        assert table.convergent(last) == theta
        for n in range(last):
            err = abs(theta - table.convergent(n))
            bound = table.error_bound(n)
            if n == last - 1:
                assert err <= bound
            else:
                assert err < bound
            if n + 1 <= last:
                lo, hi = sorted((table.convergent(n), table.convergent(n + 1)))
                assert lo <= theta <= hi
    getcontext().prec = 75
    slack = Fraction(1, 10**60)
    nonsquares = [d for d in range(2, 40) if int(math.isqrt(d))**2 != d][:20]
    for d in nonsquares:
        root = Decimal(d).sqrt()
        frac_part = root - int(root)
        text = format(frac_part.quantize(Decimal(1).scaleb(-60)), "f")
        theta = Fraction(text)
        cf = cf_expand(text, 20)
        assert not cf.terminated
        table = convergents(cf)
        assert table.determinant_identity_holds()
        for n in range(len(table.rows) - 1):
            assert abs(theta - table.convergent(n)) < table.error_bound(n) + slack
    criterion("1000 rationals + 20 quadratic irrationals, exact identities")


def test_criterion_02_representation_relations(criterion):
    """Clock pairs for every coprime m/q with q <= 50 satisfy the defining
    relation to 1e-12; truncated shift reps up to N = 64 have zero
    commutation defect on all columns (tolerance 1e-12)."""
    checked = 0
    for q in range(2, 51):
        for m in range(1, q):
            if math.gcd(m, q) != 1:
                continue
            rep = clock_shift(m, q)
            lam = rep.lam
            defect = np.linalg.norm(rep.V @ rep.U - lam * rep.U @ rep.V, 2)
            assert defect <= 1e-12, f"clock({m},{q}) defect {defect:.2e}"
            checked += 1
    rng = np.random.default_rng(102)
    for variant in ("z1", "z1prime"):
        for N in (1, 2, 3, 5, 8, 16, 32, 64):
            theta = float(rng.random())
            rep = truncated_rep(theta, N, variant)
            lam = np.exp(2j * np.pi * theta)
            defect = np.linalg.norm(rep.V @ rep.U - lam * rep.U @ rep.V, 2)
            assert defect <= 1e-12
            assert rep.interior_defect() <= 1e-12
    criterion(f"{checked} clock pairs and 16 truncations within 1e-12")


def test_criterion_03_even_pairings_count_dimensions(criterion):
    """Evaluation modules: the trivial one pairs [1] to 1; the clock module
    at m/q pairs [1] to q and the trace-theta class to m, for 30 random
    coprime pairs (exact integers)."""
    trivial = canonical_even({"U": np.eye(1), "V": np.eye(1)})
    assert even_pairing(trivial, np.eye(1)).value == 1
    rng = np.random.default_rng(103)
    for _ in range(30):
        m, q = coprime_pair(rng, 2, 60)
        rep = clock_shift(m, q)
        mod = canonical_even({"U": rep.U, "V": rep.V})
        assert even_pairing(mod, np.eye(q)).value == q
        spec = rieffel_projection(Fraction(m, q), rep)
        assert even_pairing(mod, spec.matrix).value == m
    criterion("30 random clock modules: [1] -> q and bump -> m exactly")


def test_criterion_04_odd_table_with_global_sign(criterion):
    """Ten angles including 0: |<z1,[U]>| = |<z1',[V]>| = 1 with one global
    sign, <z1,[V]> = <z1',[U]> = 0, values identical at N = 8, 16, 32;
    fiber multiplicity d in {1,2,3} scales the magnitude to d
    (rank tolerance 1e-8)."""
    thetas = [0, "0.5", "1/3", "2/5", "0.25", GOLDEN,
              "0.1379", "0.7234", "0.9871", "1/7"]
    signs = set()
    for theta in thetas:
        z1 = canonical_odd(truncated_rep(theta, 8))
        z1p = canonical_odd(truncated_rep(theta, 8, "z1prime"))
        a = odd_pairing(z1, "U").value
        assert abs(a) == 1
        assert odd_pairing(z1, "V").value == 0
        b = odd_pairing(z1p, "V").value
        assert abs(b) == 1
        assert odd_pairing(z1p, "U").value == 0
        signs.update((a, b))
    assert len(signs) == 1, f"sign convention drifted: {signs}"
    sign = signs.pop()
    for N in (8, 16, 32):
        mod = canonical_odd(truncated_rep(GOLDEN, N))
        assert odd_pairing(mod, "U").value == sign
    for d in (1, 2, 3):
        mod = canonical_odd(truncated_rep(GOLDEN, 10), fiber_dim=d)
        assert odd_pairing(mod, "U").value == sign * d
    criterion(f"10 angles, global sign {sign:+d}, stable N=8..32, fibers scale")


def test_criterion_05_winding_linearity(criterion):
    """<z1, [U^k]> = k <z1, [U]> for 1 <= |k| <= 3, each power computed
    independently at N = 12 (rank tolerance 1e-8)."""
    mod = canonical_odd(truncated_rep(GOLDEN, 12))
    unit = odd_pairing(mod, "U").value
    for k in (-3, -2, -1, 1, 2, 3):
        got = odd_pairing(mod, f"U^{k}").value
        assert got == k * unit, f"power {k}: {got} != {k}*{unit}"
    criterion("powers -3..3 scale the unit winding exactly")


def test_criterion_06_sequences_exact_and_fragile(criterion):
    """Both builtin six-term sequences are exact at all six nodes, and
    bumping any single matrix entry of any of the twelve maps breaks
    exactness somewhere (exact integer lattice computations)."""
    broken_total = 0
    for seq in (builtin_khomology_sequence(), builtin_ktheory_sequence()):
        assert seq.is_exact()
        for mp in seq.maps:
            rows = len(mp.matrix)
            cols = len(mp.matrix[0]) if rows else 0
            for r in range(rows):
                for c in range(cols):
                    perturbed = [list(row) for row in mp.matrix]
                    perturbed[r][c] += 1
                    cand = seq.with_matrix(mp.name, tuple(map(tuple, perturbed)))
                    assert not cand.is_exact(), \
                        f"{mp.name}[{r}][{c}]+1 left the sequence exact"
                    broken_total += 1
    assert broken_total >= 12
    criterion(f"both sequences exact; {broken_total} single-entry perturbations all break")


def test_criterion_07_random_towers(criterion):
    """200 random digit sequences of depth 30: dimensions match convergent
    denominators, every step matrix has determinant -1, the inverse-limit
    functional pairs (identity, minimal projection) to (1, 0) at every
    level, and the sign-twisted closed form is flagged as disagreeing
    (exact integers)."""
    from ncg_torus.exact_arith import CFExpansion
    rng = np.random.default_rng(107)
    for _ in range(200):
        digits = tuple(int(rng.integers(1, 10)) for _ in range(30))
        cf = CFExpansion(0, digits, False)
        tower = build_tower(cf, 30)
        table = convergents(cf)
        for lv in tower.levels:
            assert lv.dim_big == table.q(lv.n)
            assert lv.dim_small == table.q(lv.n - 1)
        for st in tower.steps:
            m = st.matrix
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == -1
        coeffs = inverse_limit_coefficients(tower)
        assert pairing_along_tower(tower, tower.identity_class(1), coeffs) == 1
        assert pairing_along_tower(tower, (1, 0), coeffs) == 0
        assert not coeffs.matches_closed_form
    criterion("200 towers depth 30: dims, dets, pairings, mismatch flag")


def test_criterion_08_exact_trace_at_the_horizon(criterion):
    """Golden tower, horizon 40: the transported weight of the level-1
    minimal projection satisfies |tau(p1) - theta| <= 1/(q_40 q_41) in
    exact rational arithmetic, and agrees with the trace of the built
    projection to 1e-6."""
    cf = cf_expand(GOLDEN, 45)
    tower = build_tower(cf, 42)
    table = convergents(cf)
    w = trace_weights(tower, 1, 40)
    tau = w.beta_big
    theta = Fraction(GOLDEN)  # certified within 1e-60 of the true angle
    bound = table.error_bound(40)
    assert abs(tau - theta) <= bound, f"|tau - theta| > {bound}"
    rep = dirac_data(GOLDEN, 16)
    p = rieffel_polynomial(rep.theta, 6)[0].realize_box(rep)  # the box pass's K
    assert abs(np.trace(p).real / rep.dim - float(tau)) <= 1e-6
    criterion(f"|tau(p1) - theta| <= 1/(q40*q41) = {float(bound):.3e}, trace cross-check 1e-6")


def test_criterion_09_projection_quality_across_angles(criterion):
    """20 random m/q with q >= 64, built in the clock representation:
    ||p^2 - p|| <= 1e-8, ||p - p*|| <= 1e-10, |trace - theta| <= 1e-8."""
    rng = np.random.default_rng(109)
    for _ in range(20):
        m, q = coprime_pair(rng, 64, 257)
        spec = rieffel_projection(Fraction(m, q), clock_shift(m, q))
        assert spec.defect_idempotent <= 1e-8
        assert spec.defect_adjoint <= 1e-10
        assert abs(spec.trace - m / q) <= 1e-8
    criterion("20 clock projections within (1e-8, 1e-10, 1e-8)")


def test_criterion_10_box_index_is_stable_or_flagged(criterion):
    """The box module pairs [1] to 0 for every angle tested; at the golden
    angle the trace-theta class gives magnitude 1 consistently across
    N in {24, 28, 32} (singular value tolerance 5e-2), or the computation
    raises the instability flag rather than returning a silent integer."""
    for theta in (GOLDEN, "1/3", "0.25", "0.7"):
        assert dirac_even_pairing(dirac_module(theta, 16), "one").value == 0
    try:
        r24 = dirac_even_pairing(dirac_module(GOLDEN, 24), "trace-theta")
        r28 = dirac_even_pairing(dirac_module(GOLDEN, 28), "trace-theta")
        values = {r24.value, r28.value, r28.details["value_recheck"]}
        assert len(values) == 1, f"index drifted across N=24,28,32: {values}"
        assert abs(r24.value) == 1
        assert r24.stable and r28.stable
        criterion(f"[1] -> 0 at 4 angles; bump index {r24.value} stable over N=24,28,32")
    except UnstableIndex as exc:
        criterion(f"[1] -> 0 at 4 angles; instability honestly flagged: {exc}")


def test_criterion_11_conjugation_invariance(criterion):
    """Conjugating any module by a random diagonal unitary changes no
    pairing: odd (both variants), even clock, and box routes compared
    value-for-value (exact integer equality)."""
    rng = np.random.default_rng(111)
    z1 = canonical_odd(truncated_rep(GOLDEN, 9))
    z1p = canonical_odd(truncated_rep(GOLDEN, 9, "z1prime"))
    for mod, word in ((z1, "U"), (z1, "U^2"), (z1p, "V")):
        phases = np.exp(2j * np.pi * rng.random(19))
        conj = conjugate_module(mod, phases)
        assert odd_pairing(conj, word, stability_check=False).value == \
            odd_pairing(mod, word, stability_check=False).value
    rep = clock_shift(3, 8)
    mod = canonical_even({"U": rep.U, "V": rep.V})
    spec = rieffel_projection(Fraction(3, 8), rep)
    phases = np.exp(2j * np.pi * rng.random(8))
    e_conj = (phases[:, None] * spec.matrix) * phases.conj()[None, :]
    assert even_pairing(conjugate_module(mod, phases), e_conj).value == \
        even_pairing(mod, spec.matrix).value == 3
    box = dirac_module(GOLDEN, 12)
    plain = dirac_even_pairing(box, "trace-theta", stability_check=False)
    phases = np.exp(2j * np.pi * rng.random(25 * 25))
    conj = dirac_even_pairing(conjugate_module(box, phases), "trace-theta",
                              stability_check=False)
    assert conj.value == plain.value
    criterion("odd, even and box pairings invariant under diagonal conjugation")
