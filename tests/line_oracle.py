"""Dense line realizations, kept as a test oracle for the odd route's count.

The package's odd pairing counts kernel and cokernel from the exponents of
its monomial.  These helpers rebuild the same numbers the slow way: realize
the monomial on the window, conjugate, compress to k >= 0 and count
singular values below the route's rank tolerance.
"""

import cmath
import math

import numpy as np

from ncg_torus.errors import RepresentationTooSmall
from ncg_torus.fredholm import ODD_RANK_TOL


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
    for (a, b), c in poly.coeffs:
        step, power, offset = (a, b, 0) if rep.variant == "z1" else (b, -a, b)
        kept = ks[np.abs(ks + step) <= rep.N]
        mu = cmath.exp(2j * math.pi * (num * power % den / den))
        out[kept + step + rep.N, kept + rep.N] += c * mu ** (kept + offset)
    return out


def dense_odd_counts(word, rep, fiber_dim=1, phases=None) -> tuple[int, int]:
    """(kernel, cokernel) of the bulk compression of a one-term polynomial,
    counted by dense SVD as the odd route did before it counted exactly."""
    [((a, b), _)] = word.coeffs
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
