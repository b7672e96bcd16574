"""Integer lattice machinery and the two builtin six-term sequences."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncg_torus.errors import InvalidInput, ShapeMismatch
from ncg_torus.zlattice import (
    CyclicSequence,
    FreeAbelianGroup,
    IntegerMatrixMap,
    builtin_khomology_sequence,
    builtin_ktheory_sequence,
    check_exact_at,
    det_int,
    hermite_normal_form,
    identity_matrix,
    lattice_member,
    smith_normal_form,
)


def mat_mul(a: tuple, b: tuple) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0] if b else ())}")
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols))
        for row in a
    )


def apply(m, vec: tuple) -> tuple:
    """The integer map m applied to the vector vec."""
    assert len(vec) == m.domain.rank
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in m.matrix)


def unimodular_inverse(m: tuple) -> tuple:
    """Exact inverse of an integer matrix with det = +-1."""
    n = len(m)
    d = det_int(m)
    if d not in (1, -1):
        raise InvalidInput(f"matrix is not unimodular (det = {d})")
    # adjugate via cofactors; fine at the ranks that occur here
    if n == 0:
        return ()
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != j)
                for r in range(n) if r != i
            )
            cof[i][j] = (-1) ** (i + j) * det_int(minor)
    return tuple(tuple(cof[j][i] * d for j in range(n)) for i in range(n))


def random_unimodular(n: int, rng, steps: int = 12) -> tuple:
    """Random det +-1 matrix from elementary row operations."""
    a = [list(row) for row in identity_matrix(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randrange(-3, 4)
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        if rng.random() < 0.3:
            a[i], a[j] = a[j], a[i]
    return tuple(tuple(row) for row in a)


def _rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randrange(lo, hi + 1) for _ in range(cols)) for _ in range(rows))


# --- Smith normal form -------------------------------------------------------

def test_snf_diag_2_3():
    # gcd mixing: diag(2,3) ~ diag(1,6)
    u, d, v = smith_normal_form(((2, 0), (0, 3)))
    assert (d[0][0], d[1][1]) == (1, 6)


def test_snf_identity_and_unimodular_input():
    _, d, _ = smith_normal_form(identity_matrix(2))
    assert d == ((1, 0), (0, 1))
    _, d, _ = smith_normal_form(((0, 1), (1, 0)))
    assert d == ((1, 0), (0, 1))


def test_snf_random_reconstruction():
    rng = random.Random(42)
    for _ in range(120):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = _rand_matrix(rng, rows, cols)
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        # nonnegative, zeros trailing, divisibility chain
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert diag[: len(nz)] == nz
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


@st.composite
def int_matrices(draw, lo=-9, hi=9):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return tuple(tuple(draw(st.integers(lo, hi)) for _ in range(cols))
                 for _ in range(rows))


def _diagonal(d: tuple) -> list:
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(m=int_matrices(), rng=st.randoms(use_true_random=False))
def test_snf_invariant_under_unimodular_equivalence(m, rng):
    a = random_unimodular(len(m), rng)
    b = random_unimodular(len(m[0]), rng)
    amb = mat_mul(mat_mul(a, m), b)
    u, d, v = smith_normal_form(amb)
    assert mat_mul(mat_mul(u, amb), v) == d
    diag = _diagonal(d)
    assert diag == _diagonal(smith_normal_form(m)[1])
    for x, y in zip(diag, diag[1:]):
        assert (y % x == 0) if x else y == 0


# --- Hermite form and lattice comparison --------------------------------------

@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(gens=int_matrices(-6, 6), rng=st.randoms(use_true_random=False))
def test_hnf_invariant_under_generator_mixing(gens, rng):
    k, dim = len(gens), len(gens[0])
    s = random_unimodular(k, rng)
    mixed = mat_mul(s, gens)
    assert hermite_normal_form(mixed, dim) == hermite_normal_form(gens, dim)


def test_hnf_canonical_under_unimodular_change():
    rng = random.Random(3)
    for _ in range(60):
        dim = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        gens = [tuple(rng.randrange(-6, 7) for _ in range(dim)) for _ in range(k)]
        h1 = hermite_normal_form(gens, dim)
        # mix generators by an unimodular transformation: same lattice
        s = random_unimodular(k, rng)
        mixed = [
            tuple(sum(s[i][j] * gens[j][c] for j in range(k)) for c in range(dim))
            for i in range(k)
        ]
        assert hermite_normal_form(mixed, dim) == h1


def test_lattice_member():
    h = hermite_normal_form([(2, 0), (0, 3)], 2)
    assert lattice_member((4, 3), h)
    assert not lattice_member((1, 0), h)
    assert lattice_member((0, 0), h)


def test_index_two_sublattice_detected():
    assert hermite_normal_form([(2,)], 1) != hermite_normal_form([(1,)], 1)


# --- exactness checking --------------------------------------------------------

def _chain(*ms):
    """Build maps Z^a -> Z^b -> Z^c from raw matrices m1, m2."""
    m1, m2 = ms
    a = len(m1[0]) if m1 else 0
    b = len(m1)
    c = len(m2)
    ga = FreeAbelianGroup(a, tuple(f"a{i}" for i in range(a)), "A")
    gb = FreeAbelianGroup(b, tuple(f"b{i}" for i in range(b)), "B")
    gc = FreeAbelianGroup(c, tuple(f"c{i}" for i in range(c)), "C")
    return (IntegerMatrixMap("f", ga, gb, m1), IntegerMatrixMap("g", gb, gc, m2))


def test_exactness_times_two_fails():
    f, g = _chain(((2,),), ((0,),))
    rep = check_exact_at(f, g)
    assert not rep.exact
    assert rep.witness is not None and "b0" in rep.witness


def test_exactness_identity_then_zero():
    ga = FreeAbelianGroup(1, ("x",), "A")
    gb = FreeAbelianGroup(1, ("y",), "B")
    gz = FreeAbelianGroup(0, (), "0")
    f = IntegerMatrixMap("f", ga, gb, ((1,),))
    g = IntegerMatrixMap("g", gb, gz, ())
    assert check_exact_at(f, g).exact


def test_exactness_boundary_then_restriction():
    # column (0,1) into Z^2, then row (1,0): image = span(z1prime) = kernel
    g1 = FreeAbelianGroup(1, ("w0",), "KK0(A)")
    g2 = FreeAbelianGroup(2, ("z1", "z1prime"), "KK1(Atheta)")
    g3 = FreeAbelianGroup(1, ("w1",), "KK1(A)")
    d0 = IntegerMatrixMap("d0", g1, g2, ((0,), (1,)))
    i1 = IntegerMatrixMap("i1", g2, g3, ((1, 0),))
    assert check_exact_at(d0, i1).exact
    # perturbing the column breaks it
    d0bad = IntegerMatrixMap("d0", g1, g2, ((1,), (1,)))
    rep = check_exact_at(d0bad, i1)
    assert not rep.exact


def test_kernel_of_a_zero_map_is_the_unit_basis():
    # the zero matrix goes through smith_normal_form, whose V stays the identity
    zero = IntegerMatrixMap("z", FreeAbelianGroup(3, ("u", "v", "w"), "X"),
                            FreeAbelianGroup(2, ("s", "t"), "Y"), ((0, 0, 0), (0, 0, 0)))
    assert zero.kernel_generators() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_shape_mismatch_raises():
    f, _ = _chain(((2,),), ((0,),))
    other = IntegerMatrixMap(
        "h", FreeAbelianGroup(2, ("u", "v"), "X"), FreeAbelianGroup(1, ("w",), "Y"),
        ((1, 1),))
    with pytest.raises(ShapeMismatch):
        check_exact_at(f, other)


# --- builtin sequences ----------------------------------------------------------

def test_khomology_sequence_exact_everywhere():
    seq = builtin_khomology_sequence()
    reports = seq.check_all()
    assert len(reports) == 6
    assert all(r.exact for r in reports)


def test_ktheory_sequence_exact_everywhere():
    assert builtin_ktheory_sequence().is_exact()


def test_khomology_perturbed_boundary_fails_at_kk1():
    seq = builtin_khomology_sequence().with_matrix("d0", ((1,), (1,)))
    failing = [r.node for r in seq.check_all() if not r.exact]
    assert "KK1(Atheta)" in failing


def test_zeroed_sequence_fails_at_positive_rank_nodes():
    seq = builtin_khomology_sequence()
    zeroed = seq
    for m in seq.maps:
        zeroed = zeroed.with_matrix(
            m.name, tuple(tuple(0 for _ in row) for row in m.matrix))
    reports = zeroed.check_all()
    assert all(not r.exact for r in reports)


def test_every_single_entry_perturbation_breaks_something():
    for builder in (builtin_khomology_sequence, builtin_ktheory_sequence):
        seq = builder()
        for m in seq.maps:
            bumped = [list(row) for row in m.matrix]
            bumped[0][0] += 1
            perturbed = seq.with_matrix(m.name, tuple(tuple(r) for r in bumped))
            assert not perturbed.is_exact(), f"{builder.__name__}:{m.name}"


def test_delta1_pairing_crosscheck():
    # the w0-functional applied to delta1 of [V] and [U]
    seq = builtin_ktheory_sequence()
    delta1 = seq.map_by_name("delta1")
    assert apply(delta1, (0, 1)) == (1,)  # [V] -> [1]
    assert apply(delta1, (1, 0)) == (0,)  # [U] -> 0
    delta0 = seq.map_by_name("delta0")
    assert apply(delta0, (0, 1)) == (1,)  # [p] -> [U]
    assert apply(delta0, (1, 0)) == (0,)  # [1] -> 0


def test_verdicts_invariant_under_unimodular_base_change():
    rng = random.Random(99)
    for builder in (builtin_khomology_sequence, builtin_ktheory_sequence):
        seq = builder()
        n = len(seq.maps)
        for trial in range(10):
            # one unimodular change of basis per node
            s = [random_unimodular(m.domain.rank, rng) for m in seq.maps]
            new_maps = []
            for k, m in enumerate(seq.maps):
                s_dom_inv = unimodular_inverse(s[k])
                s_cod = s[(k + 1) % n]
                new_matrix = mat_mul(mat_mul(s_cod, m.matrix), s_dom_inv)
                new_maps.append(IntegerMatrixMap(m.name, m.domain, m.codomain, new_matrix))
            changed = CyclicSequence(tuple(new_maps))
            assert [r.exact for r in changed.check_all()] == \
                   [r.exact for r in seq.check_all()]


def test_sequence_json_shape():
    obj = builtin_khomology_sequence().to_json_obj()
    assert obj[0]["name"] == "i0"
    assert obj[0]["from_basis"] == ["z0", "Dirac"]
    assert obj[2]["matrix"] == [[0], [1]]
