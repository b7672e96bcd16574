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
  phase F0 e_{m,n} = (m+in)/sqrt(m^2+n^2) e_{m,n}, F0 e_{0,0} = e_{0,0}.

Shift generators are truncated (the outgoing boundary column is zero).  The
index routes never multiply truncated generators: ``realize_box`` and
``realize_line`` compress a polynomial exactly to the window, so interior
columns carry no truncation error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
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


# --- representations ---------------------------------------------------------

@dataclass(frozen=True)
class ClockShiftRep:
    """Exact finite-dimensional representation at rational theta = m/q."""

    m: int
    q: int
    U: np.ndarray
    V: np.ndarray

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * self.m / self.q)

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
    u = np.zeros((q, q), dtype=complex)
    for j in range(q):
        u[(j + 1) % q, j] = 1.0
    lam = cmath.exp(2j * math.pi * m / q)
    v = np.diag([lam**j for j in range(q)]).astype(complex)
    return ClockShiftRep(m, q, u, v)


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
        if self.variant == shifts_on:
            return np.eye(self.dim, k=-1, dtype=complex)
        lam = cmath.exp(2j * math.pi * self.theta)
        return np.diag([lam**(sign * k) for k in range(-self.N, self.N + 1)]
                       ).astype(complex)

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

    def site_index(self, m: int, n: int) -> int:
        if abs(m) > self.N or abs(n) > self.N:
            raise InvalidInput(f"site ({m},{n}) outside the box N = {self.N}")
        w = 2 * self.N + 1
        return (m + self.N) * w + (n + self.N)

    @cached_property
    def U(self) -> np.ndarray:
        return self._shift(1, 0)

    @cached_property
    def V(self) -> np.ndarray:
        return self._shift(0, 1)

    def _shift(self, dm: int, dn: int) -> np.ndarray:
        """e_{m,n} -> lambda^(m dn) e_{m+dm,n+dn}, outgoing columns zero."""
        N = self.N
        lam = cmath.exp(2j * math.pi * self.theta)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for m in range(-N, N + 1 - dm):
            for n in range(-N, N + 1 - dn):
                out[self.site_index(m + dm, n + dn), self.site_index(m, n)] = \
                    lam ** (m * dn)
        return out


def dirac_data(theta: ThetaLike, N: int) -> TruncatedZ2Rep:
    """Box rep at theta; the phase operator F0, U and V come lazily."""
    if N < 1:
        raise InvalidInput("N must be >= 1")
    return TruncatedZ2Rep(theta_to_float(theta), N)


# --- polynomial elements of the algebra ---------------------------------------

@dataclass(frozen=True)
class TorusPolynomial:
    """Finite sum  sum a_{m,n} U^m V^n  at a fixed theta.

    Multiplication uses V^n U^m = lambda^{nm} U^m V^n; the adjoint of
    c U^m V^n is conj(c) lambda^{mn} U^{-m} V^{-n}.
    """

    theta: float
    coeffs: tuple[tuple[tuple[int, int], complex], ...]

    @classmethod
    def from_dict(cls, theta: float, d: dict) -> "TorusPolynomial":
        items = tuple(sorted((k, complex(v)) for k, v in d.items() if v != 0))
        return cls(float(theta), items)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * self.theta)

    def __add__(self, other: "TorusPolynomial") -> "TorusPolynomial":
        d = dict(self.coeffs)
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) + v
        return TorusPolynomial.from_dict(self.theta, d)

    def __mul__(self, other: "TorusPolynomial") -> "TorusPolynomial":
        lam = self.lam
        d: dict = {}
        for (m1, n1), c1 in self.coeffs:
            for (m2, n2), c2 in other.coeffs:
                key = (m1 + m2, n1 + n2)
                d[key] = d.get(key, 0) + c1 * c2 * lam ** (n1 * m2)
        return TorusPolynomial.from_dict(self.theta, d)

    def scale(self, c: complex) -> "TorusPolynomial":
        return TorusPolynomial.from_dict(
            self.theta, {k: c * v for k, v in self.coeffs})

    def adjoint(self) -> "TorusPolynomial":
        d = {}
        for (m, n), c in self.coeffs:
            d[(-m, -n)] = d.get((-m, -n), 0) + c.conjugate() * self.lam ** (m * n)
        return TorusPolynomial.from_dict(self.theta, d)

    def realize_box(self, rep: TruncatedZ2Rep) -> np.ndarray:
        """Exact compression of the polynomial to the box basis.

        Matrix elements are those of the untruncated operator between box
        sites, so interior columns carry no truncation error at all.
        """
        lam = cmath.exp(2j * math.pi * rep.theta)
        out = np.zeros((rep.dim, rep.dim), dtype=complex)
        w = 2 * rep.N + 1
        base = np.arange(-rep.N, rep.N + 1)
        for (a, b), c in self.coeffs:
            ms = base[(base + a >= -rep.N) & (base + a <= rep.N)]
            ns = base[(base + b >= -rep.N) & (base + b <= rep.N)]
            if ms.size == 0 or ns.size == 0:
                continue
            rows = ((ms + a + rep.N) * w)[:, None] + (ns + b + rep.N)[None, :]
            cols = ((ms + rep.N) * w)[:, None] + (ns + rep.N)[None, :]
            vals = c * lam ** (ms * b)
            out[rows, cols] += np.broadcast_to(vals[:, None], rows.shape)
        return out

    def realize_line(self, rep: TruncatedZRep) -> np.ndarray:
        """Exact compression of the polynomial to the line basis e_k,
        |k| <= N: on z1 U^a V^b e_k = lambda^(bk) e_{k+a}, on z1prime
        U^a V^b e_k = lambda^(-a(k+b)) e_{k+b}; only images outside the
        window are dropped."""
        lam = cmath.exp(2j * math.pi * rep.theta)
        out = np.zeros((rep.dim, rep.dim), dtype=complex)
        ks = np.arange(-rep.N, rep.N + 1)
        for (a, b), c in self.coeffs:
            if rep.variant == "z1":
                step, vals = a, c * lam ** (b * ks)
            else:
                step, vals = b, c * lam ** (-a * (ks + b))
            kept = np.abs(ks + step) <= rep.N
            out[ks[kept] + step + rep.N, ks[kept] + rep.N] += vals[kept]
        return out


# --- Rieffel projection ---------------------------------------------------------

def _bump_pair(theta: float, profile: str):
    """The classical (f, g) pair on the circle for a trace-theta projection.

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
    elif profile == "smooth":
        def sigma(t):
            return math.exp(-1.0 / t) if t > 0 else 0.0

        def ramp(t):
            if t <= 0:
                return 0.0
            if t >= 1:
                return 1.0
            a, b = sigma(t), sigma(1.0 - t)
            return a / (a + b)
    else:
        raise InvalidInput(f"unknown profile {profile!r}")

    def f(x):
        x = x % 1.0
        if x < delta:
            return ramp(x / delta)
        if x <= theta:
            return 1.0
        if x < theta + delta:
            return ramp((theta + delta - x) / delta)
        return 0.0

    def g(x):
        x = x % 1.0
        if theta < x < theta + delta:
            fx = f(x)
            return math.sqrt(max(fx - fx * fx, 0.0))
        return 0.0

    return f, g, delta


@dataclass(frozen=True)
class RieffelProjectionSpec:
    """An assembled trace-theta projection p = f(U) + V g(U) + g(U)* V*
    with the operator norms of p^2 - p and p - p*."""

    matrix: np.ndarray
    trace: float
    defect_idempotent: float
    defect_adjoint: float


def _fourier_coeffs(fn, K: int) -> np.ndarray:
    samples = 1 << 13
    xs = np.arange(samples) / samples
    vals = np.array([fn(x) for x in xs])
    spec = np.fft.fft(vals) / samples
    out = np.empty(2 * K + 1, dtype=complex)
    for k in range(-K, K + 1):
        out[k + K] = spec[k % samples]
    return out


def rieffel_polynomial(theta: float, K: int) -> tuple[TorusPolynomial, float]:
    """The trace-theta element f(U) + V g(U) + g(U)* V*, f and g smooth
    bumps cut off at Fourier degree K, and the ramp width delta;
    0 < theta < 1.  No rep."""
    f, g, delta = _bump_pair(theta, "smooth")
    fhat = _fourier_coeffs(f, K)
    ghat = _fourier_coeffs(g, K)
    lam = cmath.exp(2j * math.pi * theta)
    f_poly = TorusPolynomial.from_dict(
        theta, {(k, 0): fhat[k + K] for k in range(-K, K + 1)})
    # V g(U) = sum_k ghat_k lambda^k U^k V, then add its adjoint
    vg_poly = TorusPolynomial.from_dict(
        theta, {(k, 1): ghat[k + K] * lam**k for k in range(-K, K + 1)})
    return f_poly + vg_poly + vg_poly.adjoint(), delta


def rieffel_projection(theta: ThetaLike, rep) -> RieffelProjectionSpec:
    """Build the trace-theta projection in a clock-shift representation by
    exact functional calculus of the shift generator, with the
    piecewise-linear profile.  The box route realizes
    ``rieffel_polynomial`` instead."""
    th = theta_to_float(theta)
    f, g, _ = _bump_pair(th, "piecewise-linear")
    if not isinstance(rep, ClockShiftRep):
        raise UnsupportedForm(f"no Rieffel construction for {type(rep).__name__}")
    if abs(rep.theta - th) > 1e-12:
        raise InvalidInput(
            f"theta = {th} does not match the representation's {rep.theta}")
    q = rep.q
    # eigenbasis of the cyclic shift: column j has eigenvalue
    # exp(-2 pi i j / q), i.e. circle coordinate x_j = -j/q mod 1
    j = np.arange(q)
    w = np.exp(2j * math.pi * np.outer(j, j) / q) / math.sqrt(q)
    xs = (-j / q) % 1.0
    fu = w @ np.diag([f(x) for x in xs]) @ w.conj().T
    gu = w @ np.diag([g(x) for x in xs]) @ w.conj().T
    vg = rep.V @ gu
    p = fu + vg + vg.conj().T
    idem = _op_norm(p @ p - p)
    adj = _op_norm(p - p.conj().T)
    tr = float(np.trace(p).real) / q
    if idem > 1e-8:
        raise RepresentationTooSmall(
            f"projection defect {idem:.2e} above 1e-8 at q = {q}")
    return RieffelProjectionSpec(p, tr, idem, adj)
