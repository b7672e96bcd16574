"""Free abelian groups, integer matrix maps, and exactness checking.

Everything here is exact: matrices are tuples of tuples of Python ints,
kernels and images are sublattices of Z^r represented by generating sets,
and sublattice equality is decided through canonical Hermite normal forms
(rank comparison alone would miss index defects such as 2Z inside Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidInput, ShapeMismatch

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


# --- elementary exact matrix helpers ----------------------------------------

def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def det_int(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ShapeMismatch("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# --- Smith and Hermite normal forms -----------------------------------------

def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, D, V) with U*m*V = D, D diagonal, d_i | d_{i+1}, U, V unimodular."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nr == 0 or nc == 0:
        raise InvalidInput("smith_normal_form needs a nonempty matrix")
    a = [list(row) for row in m]
    u = [list(row) for row in identity_matrix(nr)]
    v = [list(row) for row in identity_matrix(nc)]

    def add_row(i, j, k):  # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, k):  # col_i += k * col_j
        for row in a:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            a[t], a[piv[0]] = a[piv[0]], a[t]
            u[t], u[piv[0]] = u[piv[0]], u[t]
        if piv[1] != t:
            for row in a:
                row[t], row[piv[1]] = row[piv[1]], row[t]
            for row in v:
                row[t], row[piv[1]] = row[piv[1]], row[t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // a[t][t]))
                dirty = dirty or bool(a[i][t])
        for j in range(t + 1, nc):
            if a[t][j]:
                add_col(j, t, -(a[t][j] // a[t][t]))
                dirty = dirty or bool(a[t][j])
        if dirty:
            continue  # a remainder became the new smallest entry
        bad_row = None
        for i in range(t + 1, nr):
            if any(a[i][j] % a[t][t] for j in range(t + 1, nc)):
                bad_row = i
                break
        if bad_row is not None:
            add_row(t, bad_row, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return freeze(u), freeze(a), freeze(v)


def hermite_normal_form(gens: Iterable[Vector], dim: int) -> Matrix:
    """Canonical row HNF of the lattice spanned by ``gens`` inside Z^dim.

    Rows have strictly increasing pivot columns, positive pivots, and
    entries above each pivot reduced into [0, pivot).  Two generating sets
    span the same lattice iff their forms are identical.
    """
    rows = [list(v) for v in gens if any(v)]
    for v in rows:
        if len(v) != dim:
            raise ShapeMismatch(f"generator of length {len(v)} in Z^{dim}")
    npiv = 0
    for j in range(dim):
        while True:
            k = None
            for i in range(npiv, len(rows)):
                if rows[i][j] and (k is None or abs(rows[i][j]) < abs(rows[k][j])):
                    k = i
            if k is None:
                break
            rows[npiv], rows[k] = rows[k], rows[npiv]
            clean = True
            for i in range(npiv + 1, len(rows)):
                if rows[i][j]:
                    q = rows[i][j] // rows[npiv][j]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[npiv])]
                    clean = clean and not rows[i][j]
            if clean:
                if rows[npiv][j] < 0:
                    rows[npiv] = [-x for x in rows[npiv]]
                npiv += 1
                break
        rows = rows[:npiv] + [r for r in rows[npiv:] if any(r)]
    rows = rows[:npiv]
    # reduce above the pivots
    for r in range(npiv):
        j = next(c for c, x in enumerate(rows[r]) if x)
        for r2 in range(r):
            q = rows[r2][j] // rows[r][j]
            if q:
                rows[r2] = [x - q * y for x, y in zip(rows[r2], rows[r])]
    return tuple(tuple(r) for r in rows)


def lattice_member(v: Vector, hnf: Matrix) -> bool:
    """Is v in the lattice given by canonical HNF rows?"""
    w = list(v)
    for row in hnf:
        j = next(c for c, x in enumerate(row) if x)
        q, rem = divmod(w[j], row[j])
        if rem:
            return False
        w = [x - q * y for x, y in zip(w, row)]
    return not any(w)


# --- groups, maps, sequences -------------------------------------------------

@dataclass(frozen=True)
class FreeAbelianGroup:
    rank: int
    generator_names: tuple[str, ...]
    label: str = ""

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidInput("negative rank")
        if len(self.generator_names) != self.rank:
            raise InvalidInput("generator_names length must equal rank")
        if len(set(self.generator_names)) != self.rank:
            raise InvalidInput("generator names must be distinct")


@dataclass(frozen=True)
class IntegerMatrixMap:
    """Homomorphism Z^dom -> Z^cod as an integer matrix over named bases."""

    name: str
    domain: FreeAbelianGroup
    codomain: FreeAbelianGroup
    matrix: Matrix

    def __post_init__(self):
        if len(self.matrix) != self.codomain.rank:
            raise ShapeMismatch(
                f"map {self.name}: {len(self.matrix)} rows for codomain rank {self.codomain.rank}")
        for row in self.matrix:
            if len(row) != self.domain.rank:
                raise ShapeMismatch(
                    f"map {self.name}: row length {len(row)} for domain rank {self.domain.rank}")

    def image_generators(self) -> tuple[Vector, ...]:
        return tuple(
            tuple(self.matrix[i][j] for i in range(self.codomain.rank))
            for j in range(self.domain.rank)
        )

    def kernel_generators(self) -> tuple[Vector, ...]:
        if self.domain.rank == 0:
            return ()
        if self.codomain.rank == 0 or not any(any(r) for r in self.matrix):
            return tuple(
                tuple(int(i == j) for i in range(self.domain.rank))
                for j in range(self.domain.rank)
            )
        _, d, v = smith_normal_form(self.matrix)
        rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
        return tuple(
            tuple(v[i][j] for i in range(self.domain.rank))
            for j in range(rank, self.domain.rank)
        )

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "from": self.domain.label,
            "from_basis": list(self.domain.generator_names),
            "to": self.codomain.label,
            "to_basis": list(self.codomain.generator_names),
            "matrix": [list(r) for r in self.matrix],
        }


@dataclass(frozen=True)
class ExactnessReport:
    node: str
    incoming: str
    outgoing: str
    exact: bool
    witness: Optional[str] = None

    def to_json_obj(self) -> dict:
        return dict(vars(self))  # all fields are scalars


def _name_combo(vec: Vector, names: tuple[str, ...]) -> str:
    terms = []
    for c, name in zip(vec, names):
        if c == 0:
            continue
        if c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{c}*{name}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def check_exact_at(incoming: IntegerMatrixMap, outgoing: IntegerMatrixMap) -> ExactnessReport:
    """Exactness at the node incoming.codomain = outgoing.domain.

    True iff the image lattice of ``incoming`` equals the kernel lattice of
    ``outgoing`` inside Z^rank; the witness names a generator of the larger
    lattice missing from the smaller one.
    """
    if incoming.codomain != outgoing.domain:
        raise ShapeMismatch(
            f"node mismatch: {incoming.name} lands in {incoming.codomain.label or incoming.codomain}, "
            f"{outgoing.name} starts at {outgoing.domain.label or outgoing.domain}")
    node = outgoing.domain
    image = incoming.image_generators()
    kernel = outgoing.kernel_generators()
    h_img = hermite_normal_form(image, node.rank)
    h_ker = hermite_normal_form(kernel, node.rank)
    if h_img == h_ker:
        return ExactnessReport(node.label, incoming.name, outgoing.name, True)
    witness = None
    for v in kernel:
        if any(v) and not lattice_member(v, h_img):
            witness = (f"{_name_combo(v, node.generator_names)} lies in ker({outgoing.name}) "
                       f"but not in im({incoming.name})")
            break
    if witness is None:
        for v in image:
            if any(v) and not lattice_member(v, h_ker):
                witness = (f"{_name_combo(v, node.generator_names)} lies in im({incoming.name}) "
                           f"but not in ker({outgoing.name})")
                break
    return ExactnessReport(node.label, incoming.name, outgoing.name, False, witness)


@dataclass(frozen=True)
class CyclicSequence:
    """A cyclically composable chain of integer matrix maps."""

    maps: tuple[IntegerMatrixMap, ...]

    def __post_init__(self):
        if not self.maps:
            raise InvalidInput("empty sequence")
        n = len(self.maps)
        for k, m in enumerate(self.maps):
            nxt = self.maps[(k + 1) % n]
            if m.codomain != nxt.domain:
                raise ShapeMismatch(f"maps {m.name} and {nxt.name} do not compose")

    def map_by_name(self, name: str) -> IntegerMatrixMap:
        for m in self.maps:
            if m.name == name:
                return m
        raise InvalidInput(f"no map named {name!r}; have {[m.name for m in self.maps]}")

    def with_matrix(self, name: str, matrix: Matrix) -> "CyclicSequence":
        target = self.map_by_name(name)
        replaced = IntegerMatrixMap(target.name, target.domain, target.codomain,
                                    tuple(tuple(int(x) for x in row) for row in matrix))
        return CyclicSequence(tuple(replaced if m.name == name else m for m in self.maps))

    def check_all(self) -> tuple[ExactnessReport, ...]:
        n = len(self.maps)
        return tuple(
            check_exact_at(self.maps[k - 1], self.maps[k]) for k in range(n)
        )

    def is_exact(self) -> bool:
        return all(r.exact for r in self.check_all())

    def to_json_obj(self) -> list[dict]:
        return [m.to_json_obj() for m in self.maps]


# --- the two builtin six-term sequences ---------------------------------------

def builtin_khomology_sequence() -> CyclicSequence:
    """Six-term K-homology sequence of the crossed product A x Z = A_theta.

    Bases: KK^0(A_theta) = {z0, Dirac}; both KK^i(A) copies are rank one
    ({w0} resp. {w1}); KK^1(A_theta) = {z1, z1prime}.  Entries: z0 restricts
    to w0 and the Dirac class restricts to 0; id - alpha* vanishes on both
    KK^i(A); the boundary maps send w0 to z1prime and w1 to the Dirac class;
    z1 restricts to w1 while z1prime restricts to 0.
    """
    kk0_at = FreeAbelianGroup(2, ("z0", "Dirac"), "KK0(Atheta)")
    kk0_a1 = FreeAbelianGroup(1, ("w0",), "KK0(A)#1")
    kk0_a2 = FreeAbelianGroup(1, ("w0",), "KK0(A)#2")
    kk1_at = FreeAbelianGroup(2, ("z1", "z1prime"), "KK1(Atheta)")
    kk1_a1 = FreeAbelianGroup(1, ("w1",), "KK1(A)#1")
    kk1_a2 = FreeAbelianGroup(1, ("w1",), "KK1(A)#2")
    return CyclicSequence((
        IntegerMatrixMap("i0", kk0_at, kk0_a1, ((1, 0),)),
        IntegerMatrixMap("alpha0", kk0_a1, kk0_a2, ((0,),)),
        IntegerMatrixMap("d0", kk0_a2, kk1_at, ((0,), (1,))),
        IntegerMatrixMap("i1", kk1_at, kk1_a1, ((1, 0),)),
        IntegerMatrixMap("alpha1", kk1_a1, kk1_a2, ((0,),)),
        IntegerMatrixMap("d1", kk1_a2, kk0_at, ((0,), (1,))),
    ))


def builtin_ktheory_sequence() -> CyclicSequence:
    """Six-term K-theory sequence of A_theta as a crossed product.

    Bases: K0(A_theta) = {[1], [p]}, K1(A_theta) = {[U], [V]}, and the K(A)
    copies are generated by [1] resp. [U].  The boundary maps realize
    delta0[p] = [U], delta0[1] = 0 and delta1[V] = [1], delta1[U] = 0; the
    id - alpha* maps vanish because the rotation is homotopic to the identity.
    """
    k0_a1 = FreeAbelianGroup(1, ("[1]",), "K0(A)#1")
    k0_a2 = FreeAbelianGroup(1, ("[1]",), "K0(A)#2")
    k0_at = FreeAbelianGroup(2, ("[1]", "[p]"), "K0(Atheta)")
    k1_a1 = FreeAbelianGroup(1, ("[U]",), "K1(A)#1")
    k1_a2 = FreeAbelianGroup(1, ("[U]",), "K1(A)#2")
    k1_at = FreeAbelianGroup(2, ("[U]", "[V]"), "K1(Atheta)")
    return CyclicSequence((
        IntegerMatrixMap("alpha0", k0_a1, k0_a2, ((0,),)),
        IntegerMatrixMap("i0", k0_a2, k0_at, ((1,), (0,))),
        IntegerMatrixMap("delta0", k0_at, k1_a1, ((0, 1),)),
        IntegerMatrixMap("alpha1", k1_a1, k1_a2, ((0,),)),
        IntegerMatrixMap("i1", k1_a2, k1_at, ((1,), (0,))),
        IntegerMatrixMap("delta1", k1_at, k0_a1, ((0, 1),)),
    ))
