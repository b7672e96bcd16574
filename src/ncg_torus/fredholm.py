"""Finite-dimensional Fredholm modules and integer pairings.

Three computation routes, all returning integers:

* ``even_pairing``: canonical even modules pair a projection with the
  trace of its realization ("trace-formula" method);
* ``odd_pairing``: hard-cutoff compression E u E of a unitary word against
  the half-line projection E = [k >= 0], kernel dimensions counted on
  columns that stay away from the truncation edge ("kernel-index");
* ``dirac_even_pairing``: the two-index box module; the projection is
  polished spectrally, the phase operator is compressed to its range and
  near-kernel vectors are classified by interior mass ("compressed-index").

Sign convention: the compression of a winding-one unitary has index -1
(kernel on the adjoint side), and the box route matches it, so realized
values are minus the winding.  All results carry their sign explicitly.

Finite compressions of square matrices have equal kernel and cokernel
dimensions, which would force every naive index to zero.  The two index
routes break the tie honestly: the odd route restricts the domain to
interior columns, the box route keeps only near-kernel vectors whose mass
sits in the bulk.  Truncation artifacts live at the edge in both cases.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    InvalidInput,
    NonIntegerPairing,
    NotAProjection,
    NotUnitary,
    RepresentationTooSmall,
    UnstableIndex,
    UnsupportedForm,
)
from .torus_rep import (
    ThetaLike,
    TruncatedZ2Rep,
    TruncatedZRep,
    dirac_data,
    rieffel_polynomial,
    truncated_rep,
)

#: singular values below this count as kernel modes in the odd route
ODD_RANK_TOL = 1e-8
#: singular values below this count as kernel modes in the box route
#: (the observed vortex mode sits at <= 2e-2 for N >= 12 while the next
#: singular value stays above 0.6)
DIRAC_RANK_TOL = 5e-2
#: a candidate kernel vector is bulk if this much of its mass is interior
INTERIOR_MASS_THRESHOLD = 0.5

PROJECTION_TOL = 1e-8
ADJOINT_TOL = 1e-10
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class PairingResult:
    """An integer pairing plus the evidence used to trust it.

    ``stable`` is True only when an independent recomputation at a larger
    truncation reproduced the value; exact routes set it unconditionally.
    """

    value: int
    method: str  # "trace-formula" | "kernel-index" | "compressed-index"
    truncation: int
    rank_tol: Optional[float]
    stable: bool
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CommutatorReport:
    """Norms of [F, pi(g)] per generator, with their far-field tails."""

    dim: int
    norms: dict
    tail_norms: dict
    tail_radius: Optional[int]

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


# --- unitary words -------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorWord:
    """A product of generator powers, e.g. (("U", 2), ("V", -1))."""

    factors: tuple[tuple[str, int], ...]

    @classmethod
    def parse(cls, text: str) -> "GeneratorWord":
        """Parse compact syntax like "U", "U^-2", "U V^-1"."""
        factors = []
        for tok in text.split():
            if "^" in tok:
                name, _, p = tok.partition("^")
                try:
                    power = int(p)
                except ValueError:
                    raise InvalidInput(f"bad power in {tok!r}") from None
            else:
                name, power = tok, 1
            if name not in ("U", "V"):
                raise InvalidInput(f"unknown generator {name!r}")
            factors.append((name, power))
        if not factors:
            raise InvalidInput("empty generator word")
        return cls(tuple(factors))

    def realize(self, gens: dict) -> np.ndarray:
        mats = []
        for name, power in self.factors:
            if name not in gens:
                raise InvalidInput(f"unknown generator {name!r}")
            g = gens[name]
            if power >= 0:
                mats.append(np.linalg.matrix_power(g, power))
            else:
                mats.append(np.linalg.matrix_power(g.conj().T, -power))
        out = mats[0]
        for m in mats[1:]:
            out = out @ m
        return out


@dataclass(frozen=True)
class BlockDiagonal:
    """One word per fiber component; realizes as sum_b word_b x E_bb."""

    words: tuple[GeneratorWord, ...]


def _bandwidth(mat: np.ndarray, tol: float = 1e-12) -> int:
    rows, cols = np.nonzero(np.abs(mat) > tol)
    if rows.size == 0:
        return 0
    return int(np.abs(rows - cols).max())


# --- modules --------------------------------------------------------------------

@dataclass(frozen=True)
class EvenFredholmModule:
    """Canonical graded module with pi = phi (+) 0 over a unitary fiber pair.

    H = C^fiber_dim (+) C^fiber_dim, gamma = 1 (+) -1 and F swaps the two
    summands, so F^2 = 1 and gamma F = -F gamma hold exactly.
    """

    fiber: dict  # generator name -> matrix on the fiber space
    fiber_dim: int

    @property
    def dim(self) -> int:
        return 2 * self.fiber_dim


@dataclass(frozen=True)
class BoxFredholmModule:
    """Box module: H = C^dim (+) C^dim over the box rep, gamma = 1 (+) -1,
    F = [[0, diag(conj(F0))], [diag(F0), 0]] with F0 = ``base.F0_diag``.

    ``phases`` is the diagonal conjugation set by ``conjugate_module``.
    """

    base: TruncatedZ2Rep
    phases: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return 2 * self.base.dim


@dataclass(frozen=True)
class OddFredholmModule:
    """Half-line symmetry F = diag(sign k) over a truncated shift rep."""

    base: TruncatedZRep
    fiber_dim: int
    rebuild: Optional[Callable[[int], "OddFredholmModule"]] = None

    @property
    def N(self) -> int:
        return self.base.N

    @property
    def dim(self) -> int:
        return self.base.dim * self.fiber_dim

    def symmetry_signs(self) -> np.ndarray:
        # sign(0) = +1 by convention
        return np.array([1.0 if k >= 0 else -1.0
                         for k in range(-self.N, self.N + 1)])


def canonical_even(phi: dict) -> EvenFredholmModule:
    """Degenerate even module pi = phi (+) 0; its pairing is the trace."""
    if set(phi) != {"U", "V"}:
        raise InvalidInput("phi must provide exactly the generators U and V")
    mats = {k: np.asarray(v, dtype=complex) for k, v in phi.items()}
    d = mats["U"].shape[0]
    for name, g in mats.items():
        if g.shape != (d, d):
            raise InvalidInput("generator matrices must be square of equal size")
        if np.linalg.norm(g.conj().T @ g - np.eye(d), 2) > UNITARY_TOL:
            raise NotUnitary(f"phi({name}) is not unitary")
    return EvenFredholmModule(mats, d)


def even_pairing(module: EvenFredholmModule, e: np.ndarray,
                 round_tol: float = 0.1) -> PairingResult:
    """Pair a realized projection with a canonical even module: Tr(e).

    e must be a matrix over the fiber (size a multiple of the fiber
    dimension) that is a projection up to fixed tolerances.
    """
    if not isinstance(module, EvenFredholmModule):
        raise UnsupportedForm("trace formula applies to canonical modules only")
    e = np.asarray(e, dtype=complex)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise InvalidInput("e must be a square matrix")
    if e.shape[0] % module.fiber_dim != 0:
        raise InvalidInput(
            f"size {e.shape[0]} is not a multiple of the fiber dim {module.fiber_dim}")
    adj = float(np.linalg.norm(e - e.conj().T, 2))
    if adj > ADJOINT_TOL:
        raise NotAProjection(f"adjoint defect {adj:.2e} above {ADJOINT_TOL}")
    idem = float(np.linalg.norm(e @ e - e, 2))
    if idem > PROJECTION_TOL:
        raise NotAProjection(f"idempotency defect {idem:.2e} above {PROJECTION_TOL}")
    raw = float(np.trace(e).real)
    nearest = round(raw)
    if abs(raw - nearest) > round_tol:
        raise NonIntegerPairing(f"trace {raw} is not within {round_tol} of an integer")
    return PairingResult(
        int(nearest), "trace-formula", module.fiber_dim, None, True,
        {"raw_trace": raw, "idempotency_defect": idem, "adjoint_defect": adj})


def canonical_odd(rep: TruncatedZRep, fiber_dim: int = 1) -> OddFredholmModule:
    if fiber_dim < 1:
        raise InvalidInput("fiber_dim must be >= 1")

    def rebuild(n2: int) -> OddFredholmModule:
        return canonical_odd(truncated_rep(rep.theta_input, n2, rep.variant),
                             fiber_dim)

    return OddFredholmModule(rep, fiber_dim, rebuild)


def _word_blocks(module: OddFredholmModule,
                 u: Union[GeneratorWord, BlockDiagonal, str]) -> list:
    """Realize u over the base rep, one matrix per fiber component."""
    if isinstance(u, str):
        u = GeneratorWord.parse(u)
    gens = {"U": module.base.U, "V": module.base.V}
    if isinstance(u, GeneratorWord):
        m = u.realize(gens)
        return [m] * module.fiber_dim
    if isinstance(u, BlockDiagonal):
        if len(u.words) != module.fiber_dim:
            raise InvalidInput(
                f"{len(u.words)} blocks for fiber dimension {module.fiber_dim}")
        return [w.realize(gens) for w in u.words]
    raise UnsupportedForm(f"cannot realize {type(u).__name__} as a unitary")


def _recheck(value: int, N: int, details: dict,
             value_at: Callable[[int], int]) -> None:
    """Stability rule of both index routes: value_at(N + 4) must agree."""
    again = value_at(N + 4)
    if again != value:
        raise UnstableIndex(f"index {value} at N = {N} became {again} at N = {N + 4}")
    details["value_recheck"] = again
    details["N_recheck"] = N + 4


def _kernel_count(a: np.ndarray, tol: float) -> int:
    if a.shape[1] == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    # columns <= rows here, so every kernel vector shows up as a small sigma
    return int(np.count_nonzero(s < tol))


def odd_pairing(module: OddFredholmModule,
                u: Union[GeneratorWord, BlockDiagonal, str],
                stability_check: bool = True) -> PairingResult:
    """Index of E u E with E = [k >= 0], domain restricted to the bulk.

    Kernel dimensions of the compression and its adjoint are counted on
    columns at least max(bandwidth, 1) sites from the cutoff, where the
    realized word acts exactly like its infinite counterpart.
    """
    blocks = _word_blocks(module, u)
    N = module.N
    bw = max(_bandwidth(b) for b in blocks)
    margin = max(bw, 1)
    if N < margin + 2:
        raise RepresentationTooSmall(
            f"N = {N} leaves no bulk for a word of bandwidth {bw}")
    # unitarity away from the edge (shift truncation kills one column per power)
    safe = [k + N for k in range(-N + bw, N - bw + 1)]
    for b in blocks:
        for d in (b.conj().T @ b - np.eye(2 * N + 1),
                  b @ b.conj().T - np.eye(2 * N + 1)):
            worst = float(np.sqrt((np.abs(d[:, safe]) ** 2).sum(axis=0)).max())
            if worst > UNITARY_TOL:
                raise NotUnitary(f"interior unitarity defect {worst:.2e}")
    half = slice(N, 2 * N + 1)  # rows and columns with k >= 0
    bulk = N - margin + 1       # columns 0 <= k <= N - margin
    ker = coker = 0
    for b in blocks:
        comp = b[half, half]
        ker += _kernel_count(comp[:, :bulk], ODD_RANK_TOL)
        coker += _kernel_count(comp.conj().T[:, :bulk], ODD_RANK_TOL)
    value = ker - coker
    details = {"kernel": ker, "cokernel": coker, "bandwidth": bw}
    if stability_check:
        if module.rebuild is None:
            raise InvalidInput("module has no rebuild rule; pass stability_check=False")
        _recheck(value, N, details, lambda n: odd_pairing(
            module.rebuild(n), u, stability_check=False).value)
    return PairingResult(value, "kernel-index", N, ODD_RANK_TOL,
                         stability_check, details)


# --- the two-index box module ----------------------------------------------------

def dirac_module(theta: ThetaLike, N: int) -> BoxFredholmModule:
    """Even module whose symmetry is the winding-one phase over the box."""
    return BoxFredholmModule(dirac_data(theta, N))


_dirac_cache: dict = {}


def _mirror_polish(p: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of the box projection p, and its eigenvectors at or
    above 1/2 in the box basis.

    The mirror e_{m,n} -> e_{-m,n} composed with complex conjugation maps
    U -> U*, V -> V and fixes p (the caller checks this on p's coefficients),
    so in the basis (e_a + e_a')/sqrt2, i(e_a - e_a')/sqrt2 (m_a > 0, a' the
    mirror of a) and e_z (m_z = 0) p is real symmetric: one real eigh.
    """
    side = 2 * N + 1
    h, hi = N * side, (N + 1) * side  # m < 0 is [0, h), m = 0 is [h, hi)
    x = p[hi:, hi:]
    y = p[hi:, :h].reshape(h, N, side)[:, ::-1].reshape(h, h)  # p[a, b']
    s = np.zeros(p.shape)  # only the upper triangle is read
    np.add(x.real, y.real, out=s[:h, :h])
    np.subtract(y.imag, x.imag, out=s[:h, h:2 * h])
    np.subtract(x.real, y.real, out=s[h:2 * h, h:2 * h])
    s[:h, 2 * h:] = np.sqrt(2) * p[hi:, h:hi].real
    s[h:2 * h, 2 * h:] = np.sqrt(2) * p[hi:, h:hi].imag
    s[2 * h:, 2 * h:] = p[h:hi, h:hi].real
    w, q = np.linalg.eigh(s, UPLO="U")
    q = q[:, w >= 0.5]
    upper = (q[:h] + 1j * q[h:2 * h]) / np.sqrt(2)
    vec = np.empty((p.shape[0], q.shape[1]), dtype=complex)
    vec[hi:] = upper
    vec[:h] = upper.conj().reshape(N, side, -1)[::-1].reshape(h, -1)
    vec[h:hi] = q[2 * h:]
    return w, vec


def _dirac_single(theta_input: ThetaLike, N: int,
                  phases: Optional[np.ndarray]) -> dict:
    """One trace-theta box pass at truncation N."""
    key = (repr(theta_input), N)
    if phases is None and key in _dirac_cache:
        return _dirac_cache[key]
    rep = dirac_data(theta_input, N)
    # tail quality wants K large, the exactness margin wants 2K <= N,
    # which this rule keeps at every N
    K = min(max(6, N // 3), N // 2)
    poly, _ = rieffel_polynomial(rep.theta, K)
    if N < 2:
        raise RepresentationTooSmall(
            f"box N = {N} too small for Fourier cutoff K = {K}")
    # idempotency is measured away from the boundary, on the columns
    # |m| <= N - 2K, |n| <= N - 2 whose image under p^2 cannot touch the
    # truncation edge; each such column of p^2 - p holds exactly the
    # coefficients of poly*poly - poly times unit phases
    resid = poly * poly + poly.scale(-1)
    build_defect = math.sqrt(sum(abs(v) ** 2 for _, v in resid.coeffs))
    # the real polish is exact only for a mirror-symmetric polynomial
    c = poly.as_dict()
    mirror = max(abs(c.get((-a, b), 0) - v.conjugate()) for (a, b), v in c.items())
    if mirror > ADJOINT_TOL:
        raise NotAProjection(f"mirror defect {mirror:.2e} above {ADJOINT_TOL}")
    w, wmat = _mirror_polish(poly.realize_box(rep), N)
    if phases is not None:
        # the eigenbasis of the conjugated p; f0 and the interior mass are
        # diagonal, so t and the masses below do not change
        wmat = phases[:, None] * wmat
    gap = float(np.abs(w - 0.5).min())
    if gap <= PROJECTION_TOL:
        # rounding alone decides which side of the cut that eigenvector
        # falls on, and with it the rank of the compression
        raise UnstableIndex(
            f"an eigenvalue of the box projection lies {gap:.1e} from 1/2")
    t = wmat.conj().T @ (rep.F0_diag[:, None] * wmat)
    us, s, vh = np.linalg.svd(t)
    small = np.nonzero(s < DIRAC_RANK_TOL)[0]
    margin = max(2, N // 4)
    side = 2 * N + 1

    def interior_mass(vec_box: np.ndarray) -> float:
        prob = (np.abs(vec_box) ** 2).reshape(side, side)
        r = N - margin
        return float(prob[N - r:N + r + 1, N - r:N + r + 1].sum())

    ker = coker = 0
    for i in small:
        if interior_mass(wmat @ vh[i].conj()) >= INTERIOR_MASS_THRESHOLD:
            ker += 1
        if interior_mass(wmat @ us[:, i]) >= INTERIOR_MASS_THRESHOLD:
            coker += 1
    out = {
        "value": ker - coker, "kernel": ker, "cokernel": coker,
        "rank": wmat.shape[1],
        "sigma_min": float(s[-1]) if s.size else None,
        "sigma_next": float(s[-2]) if s.size > 1 else None,
        "gap_half": gap,
        "build_defect": build_defect,
    }
    if phases is None:
        _dirac_cache[key] = out
    return out


def dirac_even_pairing(module: BoxFredholmModule, p: str,
                       stability_check: bool = True) -> PairingResult:
    """Pair the box module with a projection class named by a token.

    "trace-theta" is the Rieffel class, rebuilt at every truncation size;
    "one" is the unit class.
    Near-kernel singular vectors of the compressed phase are kept only when
    at least half their mass sits margin sites away from the box edge; the
    edge modes they discard are truncation artifacts with no
    infinite-volume counterpart.
    """
    if not isinstance(module, BoxFredholmModule):
        raise UnsupportedForm("this pairing needs the box module")
    rep = module.base
    N = rep.N
    if p == "trace-theta":
        first = _dirac_single(rep.theta_input, N, module.phases)
        value = first["value"]
        details = {k: v for k, v in first.items() if k != "value"}
    elif p == "one":
        # full range; the compression is the unitary phase itself
        value, details = 0, {"kernel": 0, "cokernel": 0, "rank": rep.dim,
                             "sigma_min": 1.0, "sigma_next": 1.0, "gap_half": 0.5}
    else:
        raise UnsupportedForm("pass the class token 'trace-theta' or 'one'")
    # "one" compresses to an exact unitary: no recheck
    if stability_check and p == "trace-theta":
        if module.phases is not None:
            raise InvalidInput(
                "no rebuild rule for a conjugated module; pass stability_check=False")
        _recheck(value, N, details, lambda n: _dirac_single(
            rep.theta_input, n, None)["value"])
    return PairingResult(value, "compressed-index", N, DIRAC_RANK_TOL,
                         stability_check, details)


# --- conjugation and diagnostics ---------------------------------------------------

def _conjugated(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """diag(d) m diag(d)^*."""
    return (d[:, None] * m) * d.conj()[None, :]


def conjugate_module(module, phases: Sequence[complex]):
    """Conjugate every generator by a diagonal unitary diag(phases).

    The half-line projection and the phase symmetry are diagonal, so they
    commute with the conjugation; every pairing is left exactly invariant.
    Rebuild rules do not survive (sizes change), so pair the result with
    stability_check=False.
    """
    if isinstance(module, OddFredholmModule):
        size, space = module.base.dim, "base"
    elif isinstance(module, BoxFredholmModule):
        size, space = module.base.dim, "box"
    elif isinstance(module, EvenFredholmModule):
        size, space = module.fiber_dim, "fiber"
    else:
        raise UnsupportedForm(f"cannot conjugate {type(module).__name__}")
    ph = np.asarray(phases, dtype=complex)
    if ph.shape != (size,):
        raise InvalidInput(f"phase vector does not match the {space} dimension")
    if np.abs(np.abs(ph) - 1.0).max() > 1e-12:
        raise NotUnitary("conjugating phases must have unit modulus")
    if isinstance(module, OddFredholmModule):
        base = module.base
        new_base = dataclasses.replace(base, U=_conjugated(ph, base.U),
                                       V=_conjugated(ph, base.V))
        return OddFredholmModule(new_base, module.fiber_dim, None)
    if isinstance(module, BoxFredholmModule):
        return BoxFredholmModule(module.base, ph)
    return EvenFredholmModule(
        {k: _conjugated(ph, v) for k, v in module.fiber.items()}, size)


def compactness_report(module) -> CommutatorReport:
    """Norms of [F, pi(g)]: full, and restricted to far-field columns.

    For half-line modules the commutator is concentrated at the sign jump,
    for the box module it decays like 1/r; in both cases the tail norm
    shrinking with distance is the finite-volume trace of compactness.
    """
    if isinstance(module, OddFredholmModule):
        signs = module.symmetry_signs()
        N = module.N
        tail = [k + N for k in range(-N, N + 1) if abs(k) > N // 2]
        norms, tails = {}, {}
        for name, g in (("U", module.base.U), ("V", module.base.V)):
            c = signs[:, None] * g - g * signs[None, :]
            norms[name] = float(np.linalg.norm(c, 2))
            tails[name] = float(np.linalg.norm(c[:, tail], 2)) if tail else 0.0
        return CommutatorReport(module.dim, norms, tails, N // 2)
    if isinstance(module, BoxFredholmModule):
        # [F0, U] e_{m,n} = (F0[m+1,n] - F0[m,n]) e_{m+1,n} and [F0, V] e_{m,n}
        # = lambda^m (F0[m,n+1] - F0[m,n]) e_{m,n+1} are weighted partial
        # permutations, so their 2-norm on any set of columns is the largest
        # |weight| there; the diagonal conjugation ``phases`` changes no norm
        rep = module.base
        N = rep.N
        f = rep.F0_diag.reshape(2 * N + 1, 2 * N + 1)  # f[m + N, n + N]
        r = np.abs(np.arange(-N, N + 1))
        far = np.maximum.outer(r, r) > N // 2  # the tail columns
        norms, tails = {}, {}
        for name, jump, tail in (("U", f[1:] - f[:-1], far[:-1]),
                                 ("V", f[:, 1:] - f[:, :-1], far[:, :-1])):
            norms[name] = float(np.abs(jump).max())
            tails[name] = float(np.abs(jump[tail]).max())
        return CommutatorReport(rep.dim, norms, tails, N // 2)
    if isinstance(module, EvenFredholmModule):
        norms = {}
        for name, g in module.fiber.items():
            # F swaps the summands of pi = phi (+) 0: the commutator norm
            # is just the generator norm, there is no far field to decay in
            norms[name] = float(np.linalg.norm(g, 2))
        return CommutatorReport(module.dim, norms,
                                {k: 0.0 for k in norms}, None)
    raise UnsupportedForm(f"no report for {type(module).__name__}")
