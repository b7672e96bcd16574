"""Test oracles: dense line realizations and the dict algebra of polynomials.

The package's odd pairing counts kernel and cokernel from the exponents of
its monomial.  ``realize_line`` and ``dense_odd_counts`` rebuild the same
numbers the slow way: realize the monomial on the window, conjugate,
compress to k >= 0 and count singular values below the route's rank
tolerance.

``TorusPolynomial`` holds its coefficients in one dense array.  The dict
product and adjoint below are its former term-by-term algebra, kept as the
reference for the array algebra; ``poly_from_dict`` and ``poly_as_dict``
convert between the two forms, and ``site_index`` numbers the box basis.
"""

import cmath
import math

import numpy as np

from ncg_torus.errors import InvalidInput, RepresentationTooSmall
from ncg_torus.fredholm import ODD_RANK_TOL
from ncg_torus.torus_rep import TorusPolynomial


def poly_from_dict(theta, d) -> TorusPolynomial:
    """sum d[(m, n)] U^m V^n on the smallest centred coefficient array."""
    M = max((abs(m) for m, _ in d), default=0)
    L = max((abs(n) for _, n in d), default=0)
    c = np.zeros((2 * M + 1, 2 * L + 1), dtype=complex)
    for (m, n), v in d.items():
        c[m + M, n + L] = v
    return TorusPolynomial(theta, c)


def poly_as_dict(poly) -> dict:
    """The nonzero coefficients {(m, n): a_{m,n}}."""
    M, L = (s // 2 for s in poly.c.shape)
    return {(int(i) - M, int(j) - L): complex(poly.c[i, j])
            for i, j in zip(*np.nonzero(poly.c))}


def dict_product(theta, x: dict, y: dict) -> dict:
    """Term-by-term product, with V^n U^m = lambda^{nm} U^m V^n."""
    lam = cmath.exp(2j * math.pi * theta)
    d: dict = {}
    for (m1, n1), c1 in x.items():
        for (m2, n2), c2 in y.items():
            key = (m1 + m2, n1 + n2)
            d[key] = d.get(key, 0) + c1 * c2 * lam ** (n1 * m2)
    return d


def dict_adjoint(theta, x: dict) -> dict:
    """(c U^m V^n)* = conj(c) lambda^{mn} U^{-m} V^{-n}, term by term."""
    lam = cmath.exp(2j * math.pi * theta)
    d: dict = {}
    for (m, n), c in x.items():
        d[(-m, -n)] = d.get((-m, -n), 0) + c.conjugate() * lam ** (m * n)
    return d


def site_index(rep, m: int, n: int) -> int:
    """Position of e_{m,n} in the box basis, row-major in (m, n)."""
    if abs(m) > rep.N or abs(n) > rep.N:
        raise InvalidInput(f"site ({m},{n}) outside the box N = {rep.N}")
    w = 2 * rep.N + 1
    return (m + rep.N) * w + (n + rep.N)


def realize_line(poly, rep) -> np.ndarray:
    """Exact compression of a TorusPolynomial to the line basis e_k,
    |k| <= N: on z1 U^a V^b e_k = lambda^(bk) e_{k+a}, on z1prime
    U^a V^b e_k = lambda^(-a(k+b)) e_{k+b}; only images outside the window
    are dropped.  Each term's lambda^b (z1) or lambda^(-a) (z1prime) is
    taken once, with theta times that power reduced mod 1 exactly, so the
    phases keep unit modulus at any power."""
    num, den = rep.theta.as_integer_ratio()
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    ks = np.arange(-rep.N, rep.N + 1)
    for (a, b), c in poly_as_dict(poly).items():
        step, power, offset = (a, b, 0) if rep.variant == "z1" else (b, -a, b)
        kept = ks[np.abs(ks + step) <= rep.N]
        mu = cmath.exp(2j * math.pi * (num * power % den / den))
        out[kept + step + rep.N, kept + rep.N] += c * mu ** (kept + offset)
    return out


def dense_odd_counts(word, rep, fiber_dim=1, phases=None) -> tuple[int, int]:
    """(kernel, cokernel) of the bulk compression of a one-term polynomial,
    counted by dense SVD as the odd route did before it counted exactly."""
    [(a, b)] = poly_as_dict(word)
    shift = a if rep.variant == "z1" else b
    margin = max(abs(shift), 1)
    N = rep.N
    if N < margin + 2:
        raise RepresentationTooSmall(f"N = {N}, bandwidth {abs(shift)}")
    w = realize_line(word, rep)
    if phases is not None:
        w = (phases[:, None] * w) * phases.conj()[None, :]
    comp = w[N:, N:]
    bulk = N - margin + 1

    def small(m):
        s = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(s < ODD_RANK_TOL))

    return (fiber_dim * small(comp[:, :bulk]),
            fiber_dim * small(comp.conj().T[:, :bulk]))
