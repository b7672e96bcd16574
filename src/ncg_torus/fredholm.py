"""Finite-dimensional Fredholm modules and integer pairings.

Three computation routes, all returning integers:

* ``even_pairing``: canonical even modules pair a projection with its
  trace, measured on a realization or read off the clock projection's
  blocks ("trace-formula" method);
* ``odd_pairing``: hard-cutoff compression E u E of a unitary monomial
  against the half-line projection E = [k >= 0], kernel dimensions counted
  exactly from the exponents on columns away from the edge ("kernel-index");
* ``dirac_even_pairing``: the two-index box module; the projection is
  polished spectrally, the phase operator F0 is compressed to its range and
  near-kernel vectors are classified by interior mass ("compressed-index").
  The pass stays real and splits: the antiunitary mirror J (e_{m,n} ->
  e_{-m,n}, then complex conjugation) and the flip P (e_{m,n} -> e_{-m,-n})
  fix p, which ``rieffel_polynomial`` builds centred, and F0 is 1 at the
  origin and J- and P-odd elsewhere.  So in J's real basis p is real
  symmetric and block tridiagonal on each sector of P, from two row blocks,
  F0 = i B + e_0 e_0^T with B real, and R = diag(1, -i) F0 diag(1, -i) is
  real orthogonal: its compressions to the range of p and to the complement
  share every singular value below 1 (the CS decomposition), so the pass
  takes the smaller, t, and reads its values off t^T t, the small ones again
  as the Ritz values of their vectors.

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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (InvalidInput, NonIntegerPairing, NotAProjection, NotUnitary,
                     RepresentationTooSmall, UnstableIndex, UnsupportedForm)
from .torus_rep import (RieffelProjectionSpec, ThetaLike, TruncatedZ2Rep, TruncatedZRep,
                        _op_norm, _refuse_beyond_memory, dirac_data, rieffel_polynomial,
                        truncated_rep)

#: the odd route's reported rank tolerance; its compressions have singular
#: values exactly 0 or 1, so its exact counts are the numbers below this
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
    """

    base: TruncatedZ2Rep


@dataclass(frozen=True)
class OddFredholmModule:
    """Half-line symmetry F = diag(sign k) over fiber_dim copies of a
    truncated shift rep."""

    base: TruncatedZRep
    fiber_dim: int = 1

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise InvalidInput("fiber_dim must be >= 1")


def canonical_even(phi: dict) -> EvenFredholmModule:
    """Degenerate even module pi = phi (+) 0; its pairing is the trace."""
    if set(phi) != {"U", "V"}:
        raise InvalidInput("phi must provide exactly the generators U and V")
    mats = {k: np.asarray(v, dtype=complex) for k, v in phi.items()}
    d = mats["U"].shape[0] if mats["U"].ndim == 2 else -1  # -1 fits no shape
    for name, g in mats.items():
        if g.shape != (d, d):
            raise InvalidInput("generator matrices must be square of equal size")
        if _op_norm(g.conj().T @ g - np.eye(d)) > UNITARY_TOL:
            raise NotUnitary(f"phi({name}) is not unitary")
    return EvenFredholmModule(d)


def even_pairing(module: EvenFredholmModule, e) -> PairingResult:
    """Pair a projection with a canonical even module: Tr(e).

    e is a matrix over the fiber, or a clock ``RieffelProjectionSpec``
    whose own trace and defects are read; its size must be a multiple of
    the fiber dimension and it must be a projection up to fixed tolerances.
    """
    if not isinstance(module, EvenFredholmModule):
        raise UnsupportedForm("trace formula applies to canonical modules only")
    if isinstance(e, RieffelProjectionSpec):
        size, raw = e.rep.q, e.trace * e.rep.q
        adj, idem = e.defect_adjoint, e.defect_idempotent
    else:
        e = np.asarray(e, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise InvalidInput("e must be a square matrix")
        size, raw = e.shape[0], float(np.trace(e).real)
        adj, idem = _op_norm(e - e.conj().T), _op_norm(e @ e - e)
    if size % module.fiber_dim != 0:
        raise InvalidInput(
            f"size {size} is not a multiple of the fiber dim {module.fiber_dim}")
    if adj > ADJOINT_TOL:
        raise NotAProjection(f"adjoint defect {adj:.2e} above {ADJOINT_TOL}")
    if idem > PROJECTION_TOL:
        raise NotAProjection(f"idempotency defect {idem:.2e} above {PROJECTION_TOL}")
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
    N = module.base.N
    again = value_at(N + 4)
    if again != value:
        raise UnstableIndex(f"index {value} at N = {N} became {again} at N = {N + 4}")
    details["value_recheck"] = again
    details["N_recheck"] = N + 4


def _parse_word(text: str) -> tuple[int, int]:
    """The exponents (a, b) of the monomial of compact syntax like "U",
    "U^-2", "U V^-1"; the order of the letters only changes a unit phase."""
    a = b = 0
    for tok in text.split():
        name, hat, p = tok.partition("^")
        try:
            power = int(p) if hat else 1
        except ValueError:
            raise InvalidInput(f"bad power in {tok!r}") from None
        if name == "U":
            a += power
        elif name == "V":
            b += power
        else:
            raise InvalidInput(f"unknown generator {name!r}")
    if not text.split():
        raise InvalidInput("empty generator word")
    return a, b


def odd_pairing(module: OddFredholmModule, u: str,
                stability_check: bool = True) -> PairingResult:
    """Index of E u E with E = [k >= 0], domain restricted to the bulk.

    The word c U^a V^b (|c| = 1) sends e_k to a unit multiple of e_{k+s},
    s = a on z1 and b on z1prime, or to 0 past the window.  On the bulk,
    columns 0 <= k <= N - max(|s|, 1), k + s never passes N, so singular
    values are exactly 0 or 1: the kernel counts bulk columns with
    k + s < 0, the cokernel bulk rows with j - s < 0.  Each fiber copy
    counts alike.
    """
    base = module.base
    a, b = _parse_word(u)
    shift = a if base.variant == "z1" else b
    bw = abs(shift)
    margin = max(bw, 1)
    N = base.N
    if N < margin + 2:
        raise RepresentationTooSmall(
            f"N = {N} leaves no bulk for a word of bandwidth {bw}")
    bulk = N - margin + 1  # columns 0 <= k <= N - margin
    ker = module.fiber_dim * min(max(-shift, 0), bulk)
    coker = module.fiber_dim * min(max(shift, 0), bulk)
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


#: (theta, N) -> the trace-theta pass; the key is all it reads
_dirac_cache: dict = {}


def _mirror_polish(poly, rep: TruncatedZ2Rep) -> list:
    """For each sector of the flip P: e_{m,n} -> e_{-m,-n}, even then odd: the eigenvalues,
    ascending, and eigenvectors of the box projection p (the polynomial, of V-degree 1, on
    the box) as real sector coordinates, and the sector's reps, their mirror indices,
    ascending.  J and P fix p (the caller checks both), so its block R_b from row n to
    n + b is real in a row's mirror basis, R_-1 = R_1^T, and a sector is block tridiagonal
    in n >= 0, R_0 on the diagonal, R_1 below and sqrt2 R_1 from row 0, which keeps only
    the c_m and e_0 (even) or the s_m (odd): two half-size real eighs."""
    N, side, j = rep.N, 2 * rep.N + 1, np.arange(rep.N + 1)
    e = np.eye(side)  # the mirror basis c_m = (e_m + e_-m)/sqrt2, s_m = i(e_m - e_-m)/sqrt2
    mb = np.vstack([e[N + 1:] + e[N - 1::-1], 1j * (e[N + 1:] - e[N - 1::-1]),
                    np.sqrt(2) * e[N]]) / np.sqrt(2)
    r0, r1 = ((mb.conj() @ blk @ mb.T).real for blk in poly.box_blocks(rep)[1:])
    a = np.zeros(((N + 1) * side,) * 2)  # rows n = 0..N of both sectors, n-major
    rows = a.reshape(N + 1, side, N + 1, side)  # a view: writes fill a
    rows[j, :, j], rows[j[1:], :, j[:-1]], rows[j[:-1], :, j[1:]] = r0, r1, r1.T
    rows[1, :, 0], rows[0, :, 1] = np.sqrt(2) * r1, np.sqrt(2) * r1.T
    # row n's x-th coordinate has the mirror index x side + n + N: the c_m, s_m, then e_0
    index = (np.arange(side) * side + N + j[:, None]).ravel()
    out = []
    for zero in (np.append(j[:-1], 2 * N), N + j[:-1]):
        keep = np.append(zero, np.arange(side, a.shape[0]))
        keep = keep[np.argsort(index[keep])]
        out.append((*np.linalg.eigh(a[keep][:, keep]), index[keep]))
    return out


def _small_singular_vectors(t: np.ndarray, gram: np.ndarray, small: np.ndarray,
                            left: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Right and left singular vectors of t for its singular values
    ``small`` (all below DIRAC_RANK_TOL), gram = t^H t.  One solve at each
    shift sigma^2 is inverse iteration that converges in one step, as the
    next value squared lies far above; the Ritz vectors of t on their span
    separate a cluster.  The shift sits just below sigma^2, where a diagonal
    t meets no exactly zero pivot.  Left vectors are t v / sigma, or the right
    ones of t^H when a sigma is too small for that quotient.
    """
    start = np.random.default_rng(0).standard_normal((t.shape[0], small.size))
    shifted = [np.linalg.solve(gram - (sig**2 * (1 - 2**-40) - 2**-100) * np.eye(t.shape[0]),
                               start[:, i]) for i, sig in enumerate(small)]
    basis = np.linalg.qr(np.column_stack(shifted))[0]
    u, sig, wh = np.linalg.svd(t @ basis, full_matrices=False)
    if left and sig.min() <= 1e-8:
        u = _small_singular_vectors(t.conj().T, t @ t.conj().T, small, False)[0]
    return basis @ wh.conj().T, u


def _spectrum(t: np.ndarray) -> tuple:
    """A real square t's singular values, descending, and its right and left
    singular vectors at those below DIRAC_RANK_TOL, or None: square roots of
    gram = t^T t's eigenvalues, off by up to eps ||t||^2 / sigma, with each small
    one read again as the Ritz value ||t v|| of its vector, off by eps ||t||."""
    gram = t.T @ t
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))
    small = s < DIRAC_RANK_TOL
    if not small.any():
        return s, None
    vecs = _small_singular_vectors(t, gram, s[small])
    s[small] = np.linalg.norm(t @ vecs[0], axis=0)
    return s, vecs


def _dirac_single(rep: TruncatedZ2Rep) -> dict:
    """One trace-theta box pass over the box rep."""
    N = rep.N
    key = (rep.theta, N)
    if key in _dirac_cache:
        return _dirac_cache[key]
    # a pass peaks at 15.6-17.7, 14.6 and 14.3 bytes per box entry above the interpreter's
    # base at N = 16, 24 and 32 (ru_maxrss), in the second eigh; 20 leaves 13-40 % margin
    _refuse_beyond_memory(20 * rep.dim**2, f"a box pass at N = {N}")
    # tail quality wants K large, the exactness margin wants 2K <= N,
    # which this rule keeps at every N
    K = min(max(6, N // 3), N // 2)
    poly = rieffel_polynomial(rep.theta, K)[0]
    if N < 2:
        raise RepresentationTooSmall(
            f"box N = {N} too small for Fourier cutoff K = {K}")
    # each column |m| <= N - 2K, |n| <= N - 2 of p^2 - p, clear of the edge,
    # holds exactly the coefficients of poly*poly - poly times unit phases
    build_defect = float(np.linalg.norm((poly * poly + poly.scale(-1)).c))
    # the real polish is exact only for a mirror-symmetric polynomial, and
    # its split only for a flip-symmetric one: the l1 flip defect bounds ||p - PpP||
    c = poly.c
    if (mirror := float(np.abs(c[::-1, :] - c.conj()).max())) > ADJOINT_TOL:
        raise NotAProjection(f"mirror defect {mirror:.2e} above {ADJOINT_TOL}")
    if (flip := float(np.abs(c - c[::-1, ::-1]).sum())) > ADJOINT_TOL:
        raise NotAProjection(f"flip defect {flip:.2e} above {ADJOINT_TOL}")
    (w_e, q_e, even), (w_o, q_o, odd) = _mirror_polish(poly, rep)
    gap = float(min(np.abs(w - 0.5).min() for w in (w_e, w_o)))
    if gap <= PROJECTION_TOL:
        # rounding alone decides which side of the cut that eigenvector
        # falls on, and with it the rank of the compression
        raise UnstableIndex(
            f"an eigenvalue of the box projection lies {gap:.1e} from 1/2")
    rank = rep.dim - sum(cut := [np.searchsorted(w, 0.5) for w in (w_e, w_o)])  # w ascends
    if rank in (0, rep.dim):  # the compression is then 0 or the phase itself
        raise UnstableIndex(f"the box projection at N = {N} has rank {rank} "
                            f"of {rep.dim}, so its compression decides nothing")
    # B is site-local, (B a)_i = d_i a_i + k_i a_mate(i): B c_a = y c_a - x s_a and
    # B s_a = x c_a + y s_a where F0(a) = x + iy, sign n on e_{0,n}.  A row of `to` that
    # `of` lacks (n = 0) has d = 0, and k = 0 or its mate in `of`, so gathering is exact
    h, ns = N * (2 * N + 1), np.arange(-N, N + 1)
    f = rep.F0_diag[-h:]  # F0 at the sites with m > 0
    d = np.concatenate([f.imag, f.imag, np.sign(ns)])[:, None]
    k = np.concatenate([f.real, -f.real, 0 * ns])[:, None]
    mate = np.concatenate([np.arange(h, 2 * h), np.arange(h), np.arange(2 * h, rep.dim)])
    to_e, to_o = ((d[to], k[to], np.searchsorted(of, to), np.searchsorted(of, mate[to]))
                  for of, to in ((odd, even), (even, odd)))
    def b(z, g, tr=1):  # B (tr = -1: B^T) to to_e's or to_o's sector from the other
        return g[0] * z[g[2]] + tr * g[1] * z[g[3]]
    # R = [[e_0 e_0^T, B], [B, 0]] compressed to the range of p or, if it has
    # fewer columns, to the complement, whose values add to t's only 1s
    flip = 2 * rank > rep.dim
    q_e, q_o = (q[:, :j] if flip else q[:, j:] for q, j in zip((q_e, q_o), cut))
    o, k_e = q_e[-N - 1], q_e.shape[1]  # the origin, first of the N + 1 even e_{0,n}
    t = np.block([[np.outer(o, o), q_e.T @ b(q_o, to_e)],
                  [q_o.T @ b(q_e, to_o), np.zeros((q_o.shape[1],) * 2)]])
    s, vecs = _spectrum(t)
    ker = coker = 0
    if vecs:
        vecs = [(q_e @ z[:k_e], q_o @ z[k_e:]) for z in vecs]
        if flip:
            # t's right and left vectors v, u at sigma give the range's left and right
            # ones P R v, P R^T u, over sqrt(1 - sigma^2); P = 1 - q q^T projects on it
            def across(z, tr):  # P R z (tr = -1: P R^T z)
                y = [b(z[1], to_e, tr), b(z[0], to_o, tr)]
                y[0][-N - 1] += z[0][-N - 1]
                return [yi - q @ (q.T @ yi) for yi, q in zip(y, (q_e, q_o))]
            vecs = [across(vecs[1], -1), across(vecs[0], 1)]
        # the window |m|, |n| <= N - margin is mirror and flip symmetric, so
        # a box vector's interior mass is that of its sector coordinates there
        r = N - max(2, N // 4)
        half = (np.arange(1, N + 1)[:, None] <= r) & (np.abs(ns) <= r)
        inside = np.concatenate([half.ravel(), half.ravel(), np.abs(ns) <= r])
        mass = [sum((z[inside[sec]] ** 2).sum(axis=0) for z, sec in zip(v, (even, odd)))
                / sum((z ** 2).sum(axis=0) for z in v) for v in vecs]
        ker, coker = (int((m >= INTERIOR_MASS_THRESHOLD).sum()) for m in mass)
    if ker and coker:
        # the classification takes one side of each near-kernel pair for
        # bulk and the other for edge; bulk on both sides breaks that
        raise UnstableIndex(f"the box pass at N = {N} counts bulk modes on both "
                            f"sides (kernel {ker}, cokernel {coker})")
    out = {"value": ker - coker, "kernel": ker, "cokernel": coker, "rank": rank,
           "sigma_min": float(s[-1]),  # a side of one value lacks sigma_next, a 1
           "sigma_next": float(np.append(1.0, s)[-2]) if rank > 1 else None,
           "gap_half": gap, "build_defect": build_defect}
    if len(_dirac_cache) >= 8:  # a recheck chain reads back only its last passes
        _dirac_cache.clear()
    _dirac_cache[key] = out
    return out


def dirac_even_pairing(module: BoxFredholmModule, p: str,
                       stability_check: bool = True) -> PairingResult:
    """Pair the box module with a projection class named by a token.

    "trace-theta" is the Rieffel class, rebuilt at every truncation size;
    "one" is the unit class.
    """
    if not isinstance(module, BoxFredholmModule):
        raise UnsupportedForm("this pairing needs the box module")
    rep = module.base
    N = rep.N
    if p == "trace-theta":
        first = _dirac_single(rep)
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
            dirac_data(rep.theta, n))["value"])
    return PairingResult(value, "compressed-index", N, DIRAC_RANK_TOL,
                         stability_check, details)


# --- conjugation ---------------------------------------------------------------

def conjugate_module(module, phases: Sequence[complex]):
    """Conjugate every generator by a diagonal unitary diag(phases).

    A K-homology class is a Fredholm module up to unitary equivalence, and
    diag(phases) commutes with the grading, with the half-line projection
    and with the phase symmetry, which are all diagonal.  The conjugated
    module is therefore unitarily equivalent to the one given, with the
    same F and grading, and every pairing is exactly invariant: the module
    is returned unchanged once the phases pass their checks.
    """
    if isinstance(module, (OddFredholmModule, BoxFredholmModule)):
        size = module.base.dim
    elif isinstance(module, EvenFredholmModule):
        size = module.fiber_dim
    else:
        raise UnsupportedForm(f"cannot conjugate {type(module).__name__}")
    ph = np.asarray(phases, dtype=complex)
    if ph.shape != (size,):
        raise InvalidInput(f"{ph.size} phases for a space of dimension {size}")
    if np.abs(np.abs(ph) - 1.0).max() > 1e-12:
        raise NotUnitary("conjugating phases must have unit modulus")
    return module
