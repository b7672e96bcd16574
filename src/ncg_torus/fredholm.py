"""Finite-dimensional Fredholm modules and integer pairings.

Three computation routes, all returning integers:

* ``even_pairing``: canonical even modules pair a projection with the
  trace of its realization ("trace-formula" method);
* ``odd_pairing``: hard-cutoff compression E u E of a unitary monomial
  against the half-line projection E = [k >= 0], kernel dimensions counted
  on columns that stay away from the truncation edge ("kernel-index");
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
from typing import Callable, Optional, Sequence

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
    TorusPolynomial,
    TruncatedZ2Rep,
    TruncatedZRep,
    _op_norm,
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
#: a trace farther than this from every integer is not a pairing
ROUND_TOL = 0.1
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
        # every field and every value in details is a scalar, so shallow
        # copies make the deep copy dataclasses.asdict would
        return dict(vars(self), details=dict(self.details))


# --- modules --------------------------------------------------------------------

@dataclass(frozen=True)
class EvenFredholmModule:
    """Canonical graded module with pi = phi (+) 0 over a unitary fiber pair.

    H = C^fiber_dim (+) C^fiber_dim, gamma = 1 (+) -1 and F swaps the two
    summands, so F^2 = 1 and gamma F = -F gamma hold exactly.  Its
    pairing is a trace, which reads only the fiber dimension.
    """

    fiber_dim: int


@dataclass(frozen=True)
class BoxFredholmModule:
    """Box module: H = C^dim (+) C^dim over the box rep, gamma = 1 (+) -1,
    F = [[0, diag(conj(F0))], [diag(F0), 0]] with F0 = ``base.F0_diag``.

    ``phases`` is the diagonal conjugation set by ``conjugate_module``;
    construction checks it as ``conjugate_module`` does.
    """

    base: TruncatedZ2Rep
    phases: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.phases is not None:
            object.__setattr__(self, "phases",
                               _unit_phases(self.phases, self.base.dim))


@dataclass(frozen=True)
class OddFredholmModule:
    """Half-line symmetry F = diag(sign k) over fiber_dim copies of a
    truncated shift rep.

    ``phases`` is the diagonal conjugation set by ``conjugate_module``;
    construction checks it as ``conjugate_module`` does.
    """

    base: TruncatedZRep
    fiber_dim: int = 1
    phases: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise InvalidInput("fiber_dim must be >= 1")
        if self.phases is not None:
            object.__setattr__(self, "phases",
                               _unit_phases(self.phases, self.base.dim))


def canonical_even(phi: dict) -> EvenFredholmModule:
    """Degenerate even module pi = phi (+) 0; its pairing is the trace."""
    if set(phi) != {"U", "V"}:
        raise InvalidInput("phi must provide exactly the generators U and V")
    mats = {k: np.asarray(v, dtype=complex) for k, v in phi.items()}
    d = mats["U"].shape[0]
    for name, g in mats.items():
        if g.shape != (d, d):
            raise InvalidInput("generator matrices must be square of equal size")
        if _op_norm(g.conj().T @ g - np.eye(d)) > UNITARY_TOL:
            raise NotUnitary(f"phi({name}) is not unitary")
    return EvenFredholmModule(d)


def even_pairing(module: EvenFredholmModule, e: np.ndarray) -> PairingResult:
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
    adj = _op_norm(e - e.conj().T)
    if adj > ADJOINT_TOL:
        raise NotAProjection(f"adjoint defect {adj:.2e} above {ADJOINT_TOL}")
    idem = _op_norm(e @ e - e)
    if idem > PROJECTION_TOL:
        raise NotAProjection(f"idempotency defect {idem:.2e} above {PROJECTION_TOL}")
    raw = float(np.trace(e).real)
    nearest = round(raw)
    if abs(raw - nearest) > ROUND_TOL:
        raise NonIntegerPairing(f"trace {raw} is not within {ROUND_TOL} of an integer")
    return PairingResult(
        int(nearest), "trace-formula", module.fiber_dim, None, True,
        {"raw_trace": raw, "idempotency_defect": idem, "adjoint_defect": adj})


def canonical_odd(rep: TruncatedZRep, fiber_dim: int = 1) -> OddFredholmModule:
    return OddFredholmModule(rep, fiber_dim)


def _recheck(module, value: int, details: dict,
             value_at: Callable[[int], int]) -> None:
    """Stability rule of both index routes: value_at(N + 4), the value of
    the module rebuilt at the larger truncation, must agree."""
    if module.phases is not None:
        raise InvalidInput("a conjugated module is not recomputed at a larger "
                           "truncation; pass stability_check=False")
    N = module.base.N
    again = value_at(N + 4)
    if again != value:
        raise UnstableIndex(f"index {value} at N = {N} became {again} at N = {N + 4}")
    details["value_recheck"] = again
    details["N_recheck"] = N + 4


def _kernel_count(a: np.ndarray, tol: float) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    # columns <= rows here, so every kernel vector shows up as a small sigma
    return int(np.count_nonzero(s < tol))


def _parse_word(text: str, theta: float) -> TorusPolynomial:
    """The monomial of compact syntax like "U", "U^-2", "U V^-1"."""
    word = TorusPolynomial.from_dict(theta, {(0, 0): 1})
    for tok in text.split():
        name, hat, p = tok.partition("^")
        try:
            power = int(p) if hat else 1
        except ValueError:
            raise InvalidInput(f"bad power in {tok!r}") from None
        if name not in ("U", "V"):
            raise InvalidInput(f"unknown generator {name!r}")
        key = (power, 0) if name == "U" else (0, power)
        word = word * TorusPolynomial.from_dict(theta, {key: 1})
    if not text.split():
        raise InvalidInput("empty generator word")
    return word


def odd_pairing(module: OddFredholmModule, u: str,
                stability_check: bool = True) -> PairingResult:
    """Index of E u E with E = [k >= 0], domain restricted to the bulk.

    The word is a monomial c U^a V^b, compressed exactly to the window;
    its bandwidth is the shift generator's exponent.  Kernel dimensions of
    the compression and its adjoint are counted on columns at least
    max(bandwidth, 1) sites from the cutoff.  The word acts alike on every
    fiber copy, so its counts are multiplied by the fiber dimension.
    """
    base = module.base
    word = _parse_word(u, base.theta)
    [(a, b)] = word.as_dict()
    shift, diag = (a, b) if base.variant == "z1" else (b, a)
    bw = abs(shift)
    margin = max(bw, 1)
    N = base.N
    if N < margin + 2:
        raise RepresentationTooSmall(
            f"N = {N} leaves no bulk for a word of bandwidth {bw}")
    # realize_line takes the diagonal phase exponents, at most
    # |diag| (N + bw), in int64
    if abs(diag) * (N + bw) >= 2**63:
        raise InvalidInput(
            f"power {diag} at N = {N} overflows a 64-bit phase exponent")
    w = word.realize_line(base)
    if module.phases is not None:
        w = _conjugated(module.phases, w)
    half = slice(N, 2 * N + 1)  # rows and columns with k >= 0
    bulk = N - margin + 1       # columns 0 <= k <= N - margin
    comp = w[half, half]
    ker = module.fiber_dim * _kernel_count(comp[:, :bulk], ODD_RANK_TOL)
    coker = module.fiber_dim * _kernel_count(comp.conj().T[:, :bulk], ODD_RANK_TOL)
    value = ker - coker
    details = {"kernel": ker, "cokernel": coker, "bandwidth": bw}
    if stability_check:
        _recheck(module, value, details, lambda n: odd_pairing(
            dataclasses.replace(module, base=truncated_rep(
                base.theta, n, base.variant)),
            u, stability_check=False).value)
    return PairingResult(value, "kernel-index", N, ODD_RANK_TOL,
                         stability_check, details)


# --- the two-index box module ----------------------------------------------------

def dirac_module(theta: ThetaLike, N: int) -> BoxFredholmModule:
    """Even module whose symmetry is the winding-one phase over the box."""
    return BoxFredholmModule(dirac_data(theta, N))


#: (theta, N) -> the unconjugated trace-theta pass; the key is all it reads
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


def _dirac_single(rep: TruncatedZ2Rep, phases: Optional[np.ndarray]) -> dict:
    """One trace-theta box pass over the box rep."""
    N = rep.N
    key = (rep.theta, N)
    if phases is None and key in _dirac_cache:
        return _dirac_cache[key]
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
        first = _dirac_single(rep, module.phases)
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
        _recheck(module, value, details, lambda n: _dirac_single(
            dirac_data(rep.theta, n), None)["value"])
    return PairingResult(value, "compressed-index", N, DIRAC_RANK_TOL,
                         stability_check, details)


# --- conjugation ---------------------------------------------------------------

def _conjugated(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """diag(d) m diag(d)^*."""
    return (d[:, None] * m) * d.conj()[None, :]


def _unit_phases(phases: Sequence[complex], size: int) -> np.ndarray:
    """A checked conjugation: one unit-modulus phase per basis vector."""
    ph = np.asarray(phases, dtype=complex)
    if ph.shape != (size,):
        raise InvalidInput(f"{ph.size} phases for a space of dimension {size}")
    if np.abs(np.abs(ph) - 1.0).max() > 1e-12:
        raise NotUnitary("conjugating phases must have unit modulus")
    return ph


def conjugate_module(module, phases: Sequence[complex]):
    """Conjugate every generator by a diagonal unitary diag(phases).

    The half-line projection and the phase symmetry are diagonal, so they
    commute with the conjugation; every pairing is left exactly invariant.
    Odd and box modules record the phases, which the pairing applies.  The
    canonical even module is returned unchanged once the phases pass their
    checks: its pairing is the trace, which conjugation leaves exactly
    invariant.  The phases have no counterpart at a larger truncation, so
    pair a conjugated odd or box module with stability_check=False.
    """
    recorded = isinstance(module, (OddFredholmModule, BoxFredholmModule))
    if recorded:
        size = module.base.dim
    elif isinstance(module, EvenFredholmModule):
        size = module.fiber_dim
    else:
        raise UnsupportedForm(f"cannot conjugate {type(module).__name__}")
    ph = _unit_phases(phases, size)
    if not recorded:
        return module
    if module.phases is not None:
        ph = ph * module.phases  # conjugations compose
    return dataclasses.replace(module, phases=ph)
