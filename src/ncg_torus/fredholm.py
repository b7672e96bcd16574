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
    ClockShiftRep,
    RieffelProjectionSpec,
    ThetaLike,
    TruncatedZ2Rep,
    TruncatedZRep,
    dirac_data,
    rieffel_projection,
    truncated_rep,
)

DEFAULT_RANK_TOL = 1e-8
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
        return {
            "value": self.value,
            "method": self.method,
            "truncation": self.truncation,
            "rank_tol": self.rank_tol,
            "stable": self.stable,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class CommutatorReport:
    """Norms of [F, pi(g)] per generator, with their far-field tails."""

    dim: int
    norms: dict
    tail_norms: dict
    tail_radius: Optional[int]

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "norms": dict(self.norms),
            "tail_norms": dict(self.tail_norms),
            "tail_radius": self.tail_radius,
        }


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
    """Graded module (H, F, gamma) with pi block-diagonal in the grading.

    H = C^fiber_dim (+) C^fiber_dim, gamma = 1 (+) -1 and F is off-diagonal,
    F = [[0, diag(conj(f_phase))], [diag(f_phase), 0]]; only the phase
    vector is stored.
    """

    kind: str  # "canonical" | "dirac"
    fiber: dict  # generator name -> matrix on the fiber space
    fiber_dim: int
    f_phase: np.ndarray
    theta_input: Optional[ThetaLike] = None
    base: Optional[TruncatedZ2Rep] = None
    phases: Optional[np.ndarray] = None  # diagonal conjugation, box route

    @property
    def dim(self) -> int:
        return 2 * self.fiber_dim

    def validate(self) -> dict:
        # F^2 - 1 = diag(|f_phase|^2 - 1) on each summand; gamma F + F gamma
        # vanishes because F is off-diagonal in the grading
        f2 = float(np.abs(np.abs(self.f_phase) ** 2 - 1.0).max())
        return {"F_squared_defect": f2, "grading_anticommutator": 0.0}


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


def canonical_even(phi: dict, kind_label: str = "canonical") -> EvenFredholmModule:
    """Degenerate even module over a unitary fiber pair: pi = phi (+) 0.

    F swaps the two summands and gamma grades them, so F^2 = 1 and
    gamma F = -F gamma hold exactly; the pairing against a projection
    realized over phi reduces to its trace.
    """
    if set(phi) != {"U", "V"}:
        raise InvalidInput("phi must provide exactly the generators U and V")
    mats = {k: np.asarray(v, dtype=complex) for k, v in phi.items()}
    d = mats["U"].shape[0]
    for name, g in mats.items():
        if g.shape != (d, d):
            raise InvalidInput("generator matrices must be square of equal size")
        if np.linalg.norm(g.conj().T @ g - np.eye(d), 2) > UNITARY_TOL:
            raise NotUnitary(f"phi({name}) is not unitary")
    return EvenFredholmModule(kind_label, mats, d, np.ones(d, dtype=complex))


def even_pairing(module: EvenFredholmModule, e: np.ndarray,
                 round_tol: float = 0.1) -> PairingResult:
    """Pair a realized projection with a canonical even module: Tr(e).

    e must be a matrix over the fiber (size a multiple of the fiber
    dimension) that is a projection up to fixed tolerances.
    """
    if module.kind != "canonical":
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


def _kernel_count(a: np.ndarray, tol: float) -> int:
    if a.shape[1] == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    # columns <= rows here, so every kernel vector shows up as a small sigma
    return int(np.count_nonzero(s < tol))


def odd_pairing(module: OddFredholmModule,
                u: Union[GeneratorWord, BlockDiagonal, str],
                rank_tol: float = DEFAULT_RANK_TOL,
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
        ker += _kernel_count(comp[:, :bulk], rank_tol)
        coker += _kernel_count(comp.conj().T[:, :bulk], rank_tol)
    value = ker - coker
    details = {"kernel": ker, "cokernel": coker, "bandwidth": bw}
    stable = False
    if stability_check:
        if module.rebuild is None:
            raise InvalidInput("module has no rebuild rule; pass stability_check=False")
        again = odd_pairing(module.rebuild(N + 4), u, rank_tol,
                            stability_check=False)
        if again.value != value:
            raise UnstableIndex(
                f"index {value} at N = {N} became {again.value} at N = {N + 4}")
        details["value_recheck"] = again.value
        details["N_recheck"] = N + 4
        stable = True
    return PairingResult(value, "kernel-index", N, rank_tol, stable, details)


# --- the two-index box module ----------------------------------------------------

def dirac_module(theta: ThetaLike, N: int) -> EvenFredholmModule:
    """Even module whose symmetry is the winding-one phase over the box."""
    rep = dirac_data(theta, N)
    return EvenFredholmModule("dirac", {"U": rep.U, "V": rep.V}, rep.dim,
                              rep.F0_diag, theta_input=rep.theta_input,
                              base=rep)


_dirac_cache: dict = {}


def _dirac_single(theta_input: ThetaLike, N: int, p_kind: str, rank_tol: float,
                  cutoff: Optional[int], phases: Optional[np.ndarray],
                  rep: Optional[TruncatedZ2Rep] = None) -> dict:
    """One box pass; ``rep`` is the box rep at (theta_input, N) if built."""
    key = (repr(theta_input), N, p_kind, rank_tol, cutoff)
    if phases is None and key in _dirac_cache:
        return _dirac_cache[key]
    if rep is None:
        rep = dirac_data(theta_input, N)
    f0 = rep.F0_diag
    if p_kind == "zero":
        out = {"value": 0, "kernel": 0, "cokernel": 0, "rank": 0,
               "sigma_min": None, "sigma_next": None, "gap_half": None}
    elif p_kind == "one":
        # full range; the compression is the unitary phase itself
        out = {"value": 0, "kernel": 0, "cokernel": 0, "rank": rep.dim,
               "sigma_min": 1.0, "sigma_next": 1.0, "gap_half": 0.5}
    elif p_kind == "rieffel":
        spec = rieffel_projection(rep.theta_input, rep, cutoff=cutoff)
        p = spec.matrix
        if phases is not None:
            # f0 is diagonal, so it commutes with the conjugation and stays put
            if phases.shape != (rep.dim,):
                raise InvalidInput("phase vector does not match the box dimension")
            p = (phases[:, None] * p) * phases.conj()[None, :]
        # MRRR (LAPACK ?heevr) is about twice as fast as numpy's
        # divide-and-conquer here; scipy is imported only on this path
        # because its import alone costs about 0.35 s
        from scipy.linalg import eigh
        w, q = eigh((p + p.conj().T) / 2, driver="evr", overwrite_a=True)
        keep = w >= 0.5
        gap = float(np.abs(w - 0.5).min())
        wmat = q[:, keep]
        t = wmat.conj().T @ (f0[:, None] * wmat)
        us, s, vh = np.linalg.svd(t)
        small = np.nonzero(s < rank_tol)[0]
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
            "rank": int(keep.sum()),
            "sigma_min": float(s[-1]) if s.size else None,
            "sigma_next": float(s[-2]) if s.size > 1 else None,
            "gap_half": gap,
            "build_defect": spec.defect_idempotent,
        }
    else:
        raise UnsupportedForm(f"unknown projection kind {p_kind!r}")
    if phases is None:
        _dirac_cache[key] = out
    return out


def dirac_even_pairing(module: EvenFredholmModule,
                       p: Union[RieffelProjectionSpec, str],
                       rank_tol: float = DIRAC_RANK_TOL,
                       cutoff: Optional[int] = None,
                       stability_check: bool = True) -> PairingResult:
    """Pair the box module with a projection class.

    Accepts the assembled trace-theta projection spec, the literal
    "trace-theta" (same class, built internally at every truncation size),
    or the literals "one" / "zero".  Near-kernel singular vectors of the
    compressed phase are kept only when at least half their mass sits
    margin sites away from the box edge; the edge modes they discard are
    truncation artifacts with no infinite-volume counterpart.
    """
    if module.kind != "dirac":
        raise UnsupportedForm("this pairing needs the box module")
    if isinstance(p, RieffelProjectionSpec):
        if abs(p.theta - module.base.theta) > 1e-12:
            raise InvalidInput("projection and module disagree on theta")
        p_kind = "rieffel"
    elif p == "trace-theta":
        p_kind = "rieffel"
    elif p in ("one", "zero"):
        p_kind = p
    else:
        raise UnsupportedForm(
            "pass a built projection spec, 'trace-theta', 'one' or 'zero'")
    N = module.base.N
    first = _dirac_single(module.theta_input, N, p_kind, rank_tol, cutoff,
                          module.phases, module.base)
    value = first["value"]
    details = {k: v for k, v in first.items() if k != "value"}
    stable = False
    if stability_check and p_kind == "rieffel":
        if module.phases is not None:
            raise InvalidInput(
                "no rebuild rule for a conjugated module; pass stability_check=False")
        again = _dirac_single(module.theta_input, N + 4, p_kind, rank_tol,
                              cutoff, None)
        if again["value"] != value:
            raise UnstableIndex(
                f"index {value} at N = {N} became {again['value']} at N = {N + 4}")
        details["value_recheck"] = again["value"]
        details["N_recheck"] = N + 4
        stable = True
    elif stability_check:
        stable = True  # "one" / "zero" compress to exact unitaries / nothing
    return PairingResult(value, "compressed-index", N, rank_tol, stable, details)


# --- conjugation and diagnostics ---------------------------------------------------

def conjugate_module(module, phases: Sequence[complex]):
    """Conjugate every generator by a diagonal unitary diag(phases).

    The half-line projection and the phase symmetry are diagonal, so they
    commute with the conjugation; every pairing is left exactly invariant.
    Rebuild rules do not survive (sizes change), so pair the result with
    stability_check=False.
    """
    ph = np.asarray(phases, dtype=complex)
    if np.abs(np.abs(ph) - 1.0).max() > 1e-12:
        raise NotUnitary("conjugating phases must have unit modulus")
    if isinstance(module, OddFredholmModule):
        if ph.shape != (module.base.dim,):
            raise InvalidInput("phase vector does not match the base dimension")
        d = ph
        base = module.base
        new_base = dataclasses.replace(
            base,
            U=(d[:, None] * base.U) * d.conj()[None, :],
            V=(d[:, None] * base.V) * d.conj()[None, :],
        )
        return OddFredholmModule(new_base, module.fiber_dim, None)
    if isinstance(module, EvenFredholmModule):
        if module.kind == "dirac":
            if ph.shape != (module.base.dim,):
                raise InvalidInput("phase vector does not match the box dimension")
            return dataclasses.replace(module, phases=ph)
        if ph.shape != (module.fiber_dim,):
            raise InvalidInput("phase vector does not match the fiber dimension")
        fiber = {k: (ph[:, None] * v) * ph.conj()[None, :]
                 for k, v in module.fiber.items()}
        return dataclasses.replace(module, fiber=fiber)
    raise UnsupportedForm(f"cannot conjugate {type(module).__name__}")


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
    if isinstance(module, EvenFredholmModule) and module.kind == "dirac":
        rep = module.base
        f0 = rep.F0_diag
        N = rep.N
        tail = [rep.site_index(m, n) for m, n in rep.sites()
                if max(abs(m), abs(n)) > N // 2]
        norms, tails = {}, {}
        for name, g in (("U", rep.U), ("V", rep.V)):
            c = f0[:, None] * g - g * f0[None, :]
            norms[name] = float(np.linalg.norm(c, 2))
            tails[name] = float(np.linalg.norm(c[:, tail], 2)) if tail else 0.0
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
