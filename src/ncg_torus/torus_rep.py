"""Matrix realizations of the rotation algebra and the Rieffel projection.

Conventions, used consistently across the package:

* the defining relation is V U = lambda U V with lambda = exp(2 pi i theta);
* clock-shift representation on C^q (theta = m/q): U is the cyclic shift
  e_j -> e_{j+1 mod q}, V = diag(1, lambda, ..., lambda^{q-1});
* single-index truncations live on basis e_k, |k| <= N; the "z1" variant
  shifts with U (U e_k = e_{k+1}, V e_k = lambda^k e_k), the "z1prime"
  variant shifts with V (U e_k = lambda^{-k} e_k, V e_k = e_{k+1});
* the two-index box rep lives on e_{m,n}, |m|,|n| <= N, with
  U e_{m,n} = e_{m+1,n}, V e_{m,n} = lambda^m e_{m,n+1} and the diagonal
  phase F0 e_{m,n} = (m+in)/sqrt(m^2+n^2) e_{m,n}, F0 e_{0,0} = e_{0,0};
  its U and V are the monomials U and V realized by ``realize_box``.

Shift generators are truncated (the outgoing boundary column is zero).  The
index routes never multiply truncated generators: ``realize_box`` compresses
a polynomial exactly to the box, and the odd route counts the exact
compression of its monomial from the exponents, so no truncation error enters.
Every power of lambda is Python's scalar ``lam ** k`` (``_lam_powers``).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    ExceedsMemory,
    InvalidInput,
    NotCoprime,
    RepresentationTooSmall,
    ThetaOutOfRange,
    UnsupportedForm,
)
from .exact_arith import parse_theta

ThetaLike = Union[str, int, float, Fraction]


def theta_to_float(theta: ThetaLike) -> float:
    if isinstance(theta, float):
        return theta
    value, _ = parse_theta(theta)
    try:
        return float(value)
    except OverflowError:
        raise InvalidInput(f"theta {theta!r} does not fit in a float") from None


def _op_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-D array: the LAPACK call and value of
    ``np.linalg.norm(a, 2)`` without its axis handling."""
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def _lam_powers(lam: complex, ks: np.ndarray) -> np.ndarray:
    """lam ** k for each integer k of the array ``ks``, shaped like it."""
    return np.array([lam ** k for k in ks.ravel().tolist()],
                    dtype=complex).reshape(ks.shape)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_beyond_memory(nbytes: int, what: str) -> None:
    """Raise ExceedsMemory before a dense build estimated past physical memory."""
    ceiling = _physical_memory()
    if nbytes > ceiling:
        try:
            need = nbytes / 2**30
        except OverflowError:  # past about 1e308 GiB, beyond a float
            need = Decimal(nbytes) / 2**30
        raise ExceedsMemory(f"{what} needs about {need:.3g} GiB, more "
                            f"than the {ceiling / 2**30:.3g} GiB of physical memory")


# --- representations ---------------------------------------------------------

@dataclass(frozen=True)
class ClockShiftRep:
    """Exact finite-dimensional representation at rational theta = m/q; the
    dense ``U`` and ``V`` are built on first read."""

    m: int
    q: int

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * self.m / self.q)

    # each first read estimates the pair, which a dump reads; `pair` reads neither
    @cached_property
    def U(self) -> np.ndarray:
        _refuse_beyond_memory(32 * self.q**2, f"the clock rep at q = {self.q}")
        u = np.eye(self.q, k=-1, dtype=complex)  # e_j -> e_{j+1 mod q}
        u[0, -1] = 1.0
        return u

    @cached_property
    def V(self) -> np.ndarray:
        _refuse_beyond_memory(32 * self.q**2, f"the clock rep at q = {self.q}")
        return np.diag(_lam_powers(self.lam, np.arange(self.q)))

    @property
    def theta(self) -> float:
        return (self.m % self.q) / self.q

    @property
    def dim(self) -> int:
        return self.q


def clock_shift(m: int, q: int) -> ClockShiftRep:
    """Clock-and-shift pair on C^q for theta = m/q, gcd(m, q) = 1."""
    if q < 1:
        raise InvalidInput("q must be positive")
    if math.gcd(m, q) != 1:
        raise NotCoprime(f"gcd({m}, {q}) != 1")
    return ClockShiftRep(m, q)


@dataclass(frozen=True)
class TruncatedZRep:
    """Truncation to span(e_{-N..N}) of a singly generated shift rep; the
    dense ``U`` and ``V`` are built on first read."""

    theta: float
    N: int
    variant: str  # "z1" | "z1prime"

    def __post_init__(self):
        if self.N < 1:
            raise InvalidInput("N must be >= 1")
        if self.variant not in ("z1", "z1prime"):
            raise InvalidInput(f"unknown variant {self.variant!r}")

    @property
    def dim(self) -> int:
        return 2 * self.N + 1

    @property
    def defective_generator(self) -> str:
        """The shift generator, which loses its outgoing boundary column."""
        return "U" if self.variant == "z1" else "V"

    @cached_property
    def U(self) -> np.ndarray:
        return self._dense("z1", -1)

    @cached_property
    def V(self) -> np.ndarray:
        return self._dense("z1prime", 1)

    def _dense(self, shifts_on: str, sign: int) -> np.ndarray:
        """The shift e_k -> e_{k+1}, e_N -> 0 on the variant that shifts
        with this generator, else the clock e_k -> lambda^(sign k) e_k."""
        _refuse_beyond_memory(16 * self.dim**2, f"a line generator at N = {self.N}")
        if self.variant == shifts_on:
            return np.eye(self.dim, k=-1, dtype=complex)
        lam = cmath.exp(2j * math.pi * self.theta)
        return np.diag(_lam_powers(lam, sign * np.arange(-self.N, self.N + 1)))

    def interior_defect(self) -> float:
        """Commutation defect of VU - lambda UV on columns |k| <= N-1."""
        lam = cmath.exp(2j * math.pi * self.theta)
        d = self.V @ self.U - lam * self.U @ self.V
        return _op_norm(d[:, 1:-1])


def truncated_rep(theta: ThetaLike, N: int, variant: str = "z1") -> TruncatedZRep:
    """Line rep at theta; U and V come lazily."""
    return TruncatedZRep(theta_to_float(theta), N, variant)


@dataclass(frozen=True)
class TruncatedZ2Rep:
    """Box truncation |m|,|n| <= N of the two-index rep; the phase
    ``F0_diag`` and the dense ``U`` and ``V`` are built on first read."""

    theta: float
    N: int

    @property
    def dim(self) -> int:
        return (2 * self.N + 1) ** 2

    @cached_property
    def F0_diag(self) -> np.ndarray:
        """Unit-modulus entries of F0, ordered like the basis."""
        rng = range(-self.N, self.N + 1)
        return np.array([complex(m, n) / math.hypot(m, n) if m or n else 1.0
                         for m in rng for n in rng], dtype=complex)

    @cached_property
    def U(self) -> np.ndarray:
        return TorusPolynomial(self.theta, np.array([[0], [0], [1]])).realize_box(self)

    @cached_property
    def V(self) -> np.ndarray:
        return TorusPolynomial(self.theta, np.array([[0, 0, 1]])).realize_box(self)


def dirac_data(theta: ThetaLike, N: int) -> TruncatedZ2Rep:
    """Box rep at theta; the phase operator F0, U and V come lazily."""
    if N < 1:
        raise InvalidInput("N must be >= 1")
    return TruncatedZ2Rep(theta_to_float(theta), N)


# --- polynomial elements of the algebra ---------------------------------------

@dataclass(frozen=True, eq=False)
class TorusPolynomial:
    """Finite sum  sum a_{m,n} U^m V^n  at a fixed theta, held as one dense
    array of odd shape (2M+1, 2L+1): ``c[m + M, n + L]`` is a_{m,n}.

    Multiplication uses V^n U^m = lambda^{nm} U^m V^n; the adjoint of
    c U^m V^n is conj(c) lambda^{mn} U^{-m} V^{-n}.
    """

    theta: float
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 2 or not (c.shape[0] % 2 and c.shape[1] % 2):
            raise InvalidInput(f"coefficient array of shape {c.shape} has no centre")
        object.__setattr__(self, "c", c)

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * self.theta)

    def _same_angle(self, theta: float) -> None:
        if theta != self.theta:
            raise InvalidInput(f"theta = {theta} does not match the polynomial's "
                               f"{self.theta}")

    def _degrees(self, axis: int) -> np.ndarray:
        """The exponents -M..M of U (axis 0) or -L..L of V (axis 1)."""
        return np.arange(self.c.shape[axis]) - self.c.shape[axis] // 2

    def __add__(self, other: "TorusPolynomial") -> "TorusPolynomial":
        self._same_angle(other.theta)
        shape = np.maximum(self.c.shape, other.c.shape)
        out = np.zeros(shape, dtype=complex)
        for c in (self.c, other.c):
            dm, dn = (shape - c.shape) // 2
            out[dm:shape[0] - dm, dn:shape[1] - dn] += c
        return TorusPolynomial(self.theta, out)

    def __mul__(self, other: "TorusPolynomial") -> "TorusPolynomial":
        self._same_angle(other.theta)
        a, b = self.c, other.c
        out = np.zeros(np.add(a.shape, b.shape) - 1, dtype=complex)
        for j1, n1 in enumerate(self._degrees(1)):
            twisted = b * _lam_powers(self.lam, n1 * other._degrees(0))[:, None]
            for j2 in range(b.shape[1]):
                out[:, j1 + j2] += np.convolve(a[:, j1], twisted[:, j2])
        return TorusPolynomial(self.theta, out)

    def scale(self, c: complex) -> "TorusPolynomial":
        return TorusPolynomial(self.theta, c * self.c)

    def adjoint(self) -> "TorusPolynomial":
        twist = _lam_powers(self.lam, np.outer(self._degrees(0), self._degrees(1)))
        return TorusPolynomial(self.theta, self.c[::-1, ::-1].conj() * twist)

    def box_blocks(self, rep: TruncatedZ2Rep) -> np.ndarray:
        """The exact compression to the box, row to row: a U^a V^b sends e_{m,n}
        to a lambda^(mb) e_{m+a,n+b}, so the block from row n to row n + b is
        P_b[m' + N, m + N] = c_{m'-m,b} lambda^(mb), one for each b of -L..L."""
        self._same_angle(rep.theta)
        M, m = self.c.shape[0] // 2, np.arange(-rep.N, rep.N + 1)
        a = m[:, None] - m  # m' - m
        c = np.where((np.abs(a) <= M)[..., None], self.c[np.clip(a + M, 0, 2 * M)], 0)
        phases = _lam_powers(self.lam, np.outer(m, self._degrees(1)))
        return np.moveaxis(np.where(c != 0, c * phases, 0), -1, 0)  # 0, never -0

    def realize_box(self, rep: TruncatedZ2Rep) -> np.ndarray:
        """Exact compression of the polynomial to the box basis.

        Matrix elements are those of the untruncated operator between box
        sites, so interior columns carry no truncation error at all.
        """
        blocks, w = self.box_blocks(rep), 2 * rep.N + 1
        _refuse_beyond_memory(16 * rep.dim**2, f"a box matrix at N = {rep.N}")
        out = np.zeros((w, w, w, w), dtype=complex)  # [m', n', m, n]
        for b, block in zip(self._degrees(1), blocks):
            n = np.arange(max(0, -b), min(w, w - b))
            out[:, n + b, :, n] = block
        return out.reshape(rep.dim, rep.dim)


# --- Rieffel projection ---------------------------------------------------------

def _bump_pair(theta: float, profile: str):
    """The classical (f, g) pair on the circle for a trace-theta projection,
    each evaluated on an array of points.

    f rises 0 -> 1 on [0, delta], is 1 on [delta, theta], falls back to 0 on
    [theta, theta + delta] and vanishes after; g = sqrt(f - f^2) on the
    falling ramp only.  These supports make  f(x) + f(x + theta) = 1  where
    g(x + theta) != 0  and keep g(x) g(x + theta) = 0, which together force
    p^2 = p for p = f(U) + V g(U) + g(U)* V*.
    """
    if not 0.0 < theta < 1.0:
        raise ThetaOutOfRange(f"theta = {theta} outside (0, 1)")
    delta = min(theta, 1.0 - theta) / 4.0
    if profile == "piecewise-linear":
        ramp = lambda t: t
        root = lambda t: np.sqrt(np.maximum(t - t * t, 0.0))
    elif profile == "smooth":
        def sigma(t):
            return np.where(t > 0, np.exp(-1.0 / t), 0.0)

        def ramp(t):  # 0 at t <= 0 and 1 at t >= 1, where sigma is 0 at t or 1 - t
            a, b = sigma(t), sigma(1.0 - t)
            return a / (a + b)
        def root(t):  # sqrt(f - f^2) as sqrt(ab)/(a + b), exact at f ~ 1 too
            a, b = sigma(t), sigma(1.0 - t)
            return np.sqrt(a * b) / (a + b)
    else:
        raise InvalidInput(f"unknown profile {profile!r}")

    # np.where evaluates each branch at every point, and a branch may overflow
    # outside its mask (x / delta at subnormal theta), which drops those values
    def f(x):
        x = x % 1.0
        with np.errstate(all="ignore"):
            out = np.where(x < theta + delta, ramp((theta + delta - x) / delta), 0.0)
            out = np.where(x <= theta, 1.0, out)
            return np.where(x < delta, ramp(x / delta), out)

    def g(x):
        x = x % 1.0
        with np.errstate(all="ignore"):
            return np.where((theta < x) & (x < theta + delta),
                            root((theta + delta - x) / delta), 0.0)

    return f, g, delta


@dataclass(frozen=True)
class RieffelProjectionSpec:
    """The clock projection p = f(U) + V g(U) + g(U)* V*: f and g at U's
    eigenvalues, tau(p), the norms of p^2 - p and p - p*; ``matrix`` on first read."""

    rep: ClockShiftRep
    f: np.ndarray
    g: np.ndarray
    trace: float
    defect_idempotent: float
    defect_adjoint: float

    @cached_property
    def matrix(self) -> np.ndarray:
        q = self.rep.q  # 113-116 bytes an entry at q = 1000 and 2000 (ru_maxrss)
        _refuse_beyond_memory(128 * q * q, f"the clock projection matrix at q = {q}")
        j = np.arange(q)  # column k of w is U's eigenvector w_k
        w = np.exp(2j * math.pi * np.outer(j, j) / q) / math.sqrt(q)
        # (w * samples) scales column j by samples[j]: w @ diag(samples) to the bit
        fu = (w * self.f) @ w.conj().T
        vg = self.rep.V @ ((w * self.g) @ w.conj().T)
        return fu + vg + vg.conj().T


def rieffel_polynomial(theta: float, K: int) -> tuple[TorusPolynomial, float]:
    """The trace-theta element f(U) + V g(U) + g(U)* V*, f and g smooth
    bumps cut off at Fourier degree K, and the ramp width delta;
    0 < theta < 1.  No rep.

    f and g are sampled on a grid symmetric about the centres of their
    supports, (theta + delta)/2 and theta + delta/2, so their coefficients are
    real and even: this is Rieffel's element under the gauge automorphism
    U -> exp(i pi (theta + delta)) U, which keeps its class, and the flip
    U -> U^-1, V -> V^-1 fixes it (S. Walters, J. London Math. Soc. 51, 1995)."""
    f, g, delta = _bump_pair(theta, "smooth")
    y = np.fft.fftfreq(1 << 13)  # k/2^13 for -2^12 <= k < 2^12
    ks = np.arange(-K, K + 1)
    fhat, ghat = (np.fft.fft(fn(centre + y))[ks] / y.size
                  for fn, centre in ((f, (theta + delta) / 2), (g, theta + delta / 2)))
    c = np.empty((2 * K + 1, 3), dtype=complex)
    c[:, 1] = fhat
    # V g(U) = sum_k ghat_k lambda^k U^k V at n = 1, its adjoint at n = -1; g's
    # samples about its centre carry all of lambda^k but exp(i pi k theta)
    c[:, 2] = ghat * _lam_powers(cmath.exp(1j * math.pi * theta), ks)
    c[:, 0] = c[::-1, 2].conj() * _lam_powers(cmath.exp(2j * math.pi * theta), -ks)
    return TorusPolynomial(theta, c), delta


def rieffel_projection(theta: ThetaLike, rep) -> RieffelProjectionSpec:
    """The trace-theta projection on a clock rep, with the piecewise-linear
    profile (the box route realizes ``rieffel_polynomial``).  U has the
    eigenvectors w_k, of eigenvalue exp(2 pi i x_k) with x_k = -k/q mod 1, and
    V sends w_k to w_{k+m}: there p is real symmetric, with 1x1 blocks f(x_k)
    and, where g(x_k) != 0, 2x2 blocks [[f(x_k), g(x_k)], [g(x_k), f(x_{k+m})]],
    which g(x) g(x + theta) = 0 keeps from chaining."""
    th = theta_to_float(theta)
    f, g, _ = _bump_pair(th, "piecewise-linear")
    if not isinstance(rep, ClockShiftRep):
        raise UnsupportedForm(f"no Rieffel construction for {type(rep).__name__}")
    if abs(rep.theta - th) > 1e-12:
        raise InvalidInput(
            f"theta = {th} does not match the representation's {rep.theta}")
    # the peak is in g: xs, fs, and g's x, ramp argument, root and result, six
    # float arrays of q samples, and a mask, 49 bytes a sample; 56 leaves 15 %
    q, m = rep.q, rep.m % rep.q
    _refuse_beyond_memory(56 * q, f"the clock projection at q = {q}")
    xs = (-np.arange(q) / q) % 1.0
    fs, gs = f(xs), g(xs)
    del xs  # before the blocks' temporaries
    top = np.flatnonzero(gs)  # the 2x2 blocks {k, k + m}
    a, b, c = fs[top], gs[top], fs[(top + m) % q]
    # p^2 - p on a block is [[x, z], [z, y]], of norm |x + y|/2 + hypot((x - y)/2, z)
    x, y, z = a * a + b * b - a, c * c + b * b - c, b * (a + c - 1.0)
    lone = fs[(gs == 0) & (np.roll(gs, m) == 0)]  # the 1x1 blocks
    idem = float(np.concatenate([np.abs(lone * lone - lone),
                                 np.abs(x + y) / 2 + np.hypot((x - y) / 2, z)]).max())
    if idem > 1e-8:
        raise RepresentationTooSmall(
            f"projection defect {idem:.2e} above 1e-8 at q = {q}")
    # p is real symmetric in the basis w_k, so p - p* is exactly 0
    return RieffelProjectionSpec(rep, fs, gs, float(fs.sum()) / q, idem, 0.0)
