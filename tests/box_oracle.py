"""Test oracle: the box pass the slow way, in box coordinates.

``dense_box_pass(theta, N)`` realizes the Rieffel polynomial on the box,
takes the complex ``eigh`` of its Hermitian part, compresses the phase F0
to the eigenvectors at or above 1/2, takes the full SVD of that
compression and classifies each singular vector below the rank tolerance
by the interior mass of its box vector.  It refuses where the package's
pass refuses, with the same exception types, and returns the same keys
apart from ``build_defect``.

``sector_sum(poly, rep)`` is the flip sectors the slow way: each sector's
real symmetric block Re(G^H p G) summed entry by entry from p's nonzero box
entries (``box_entries``) through the sector's isometry G into the box
(``flip_sectors``), and its ``eigh``.
"""

import numpy as np

from ncg_torus.errors import RepresentationTooSmall, UnstableIndex
from ncg_torus.fredholm import DIRAC_RANK_TOL, INTERIOR_MASS_THRESHOLD, PROJECTION_TOL
from ncg_torus.torus_rep import _lam_powers, dirac_data, rieffel_polynomial


def dense_box_pass(theta, N: int) -> dict:
    rep = dirac_data(theta, N)
    K = min(max(6, N // 3), N // 2)  # the package's cutoff rule
    poly = rieffel_polynomial(rep.theta, K)[0]
    if N < 2:
        raise RepresentationTooSmall(f"box N = {N}")
    p = poly.realize_box(rep)
    w, vec = np.linalg.eigh((p + p.conj().T) / 2)
    gap = float(np.abs(w - 0.5).min())
    if gap <= PROJECTION_TOL:
        raise UnstableIndex(f"an eigenvalue lies {gap:.1e} from 1/2")
    vec = vec[:, w >= 0.5]
    rank = vec.shape[1]
    if rank in (0, rep.dim):
        raise UnstableIndex(f"rank {rank} of {rep.dim}")
    t = vec.conj().T @ (rep.F0_diag[:, None] * vec)
    us, s, vh = np.linalg.svd(t)
    side, r = 2 * N + 1, N - max(2, N // 4)

    def interior_mass(box_vec):
        prob = (np.abs(box_vec) ** 2).reshape(side, side)
        return prob[N - r:N + r + 1, N - r:N + r + 1].sum()

    ker = coker = 0
    for i in np.nonzero(s < DIRAC_RANK_TOL)[0]:
        ker += interior_mass(vec @ vh[i].conj()) >= INTERIOR_MASS_THRESHOLD
        coker += interior_mass(vec @ us[:, i]) >= INTERIOR_MASS_THRESHOLD
    if ker and coker:
        raise UnstableIndex(f"bulk modes on both sides ({ker}, {coker})")
    return {"value": int(ker - coker), "kernel": int(ker), "cokernel": int(coker),
            "rank": rank, "sigma_min": float(s[-1]),
            "sigma_next": float(s[-2]) if s.size > 1 else None, "gap_half": gap}


def box_entries(poly, rep) -> tuple:
    """The entries (rows, cols, values), each position once, of the exact
    compression to the box: a U^a V^b sends e_{m,n} to a lambda^(mb) e_{m+a,n+b}."""
    N, w = rep.N, 2 * rep.N + 1
    m, n = np.indices((w, w)).reshape(2, -1) - N  # the column's site
    i, j = np.nonzero(poly.c)
    a, b = i[:, None] - poly.c.shape[0] // 2, j[:, None] - poly.c.shape[1] // 2
    top = N * (poly.c.shape[1] // 2)  # |mb| <= top
    phases = _lam_powers(poly.lam, np.arange(-top, top + 1))[m * b + top]
    kept = (np.abs(m + a) <= N) & (np.abs(n + b) <= N)
    rows = ((m + a + N) * w + n + b + N)[kept]
    cols = np.broadcast_to(np.arange(rep.dim), kept.shape)[kept]
    return rows, cols, (poly.c[i, j][:, None] * phases)[kept]


def flip_sectors(N: int) -> list:
    """The even and the odd sector of the flip P: e_{m,n} -> e_{-m,-n}, that is
    c_(m,n) -> c_(m,-n), s_(m,n) -> -s_(m,-n), e_(0,n) -> e_(0,-n) on the mirror
    basis c_a = (e_a + e_a')/sqrt2, s_a = i(e_a - e_a')/sqrt2 (m_a > 0), e_{0,n}.
    Each is (reps, at, weights): reps, mirror indices with n >= 0, name its
    coordinates, and row x of its isometry G into the box is weights[x] at at[x]."""
    side, h = 2 * N + 1, N * (2 * N + 1)
    ns = np.tile(np.arange(-N, N + 1), 2 * N + 1)  # c and s rows, then e_{0,n}
    sign = np.repeat([1, -1, 1], [h, h, side])
    m, n = np.indices((side, side)).reshape(2, -1) - N
    c = np.where(m, (np.abs(m) - 1) * side, 2 * h) + n + N  # x's c_a, or its e_{0,n}
    mirror = np.stack([c, np.where(m, c + h, c)], axis=1)
    coeff = np.stack([np.where(m, np.sqrt(0.5), 1), 1j * np.sign(m) * np.sqrt(0.5)], axis=1)
    out = []
    for e in (1, -1):
        r = np.flatnonzero((ns > 0) | ((ns == 0) & (sign == e)))
        pos, weight = np.zeros(ns.size, dtype=int), np.zeros(ns.size)
        pos[r] = pos[r - 2 * ns[r]] = np.arange(r.size)
        weight[r] = np.where(ns[r] > 0, np.sqrt(0.5), 0.5)
        weight[r - 2 * ns[r]] += e * sign[r] * weight[r]  # n = 0, its own partner: 1
        out.append((r, pos[mirror], coeff * weight[mirror]))
    return out


def sector_sum(poly, rep) -> list:
    """For each sector of ``flip_sectors``: the eigenvalues, ascending, and the
    eigenvectors of Re(G^H p G), summed from p's nonzero entries, each entering
    at most 2 x 2 sector entries, and the sector's reps."""
    rows, cols, values = box_entries(poly, rep)
    out = []
    for reps, at, weight in flip_sectors(rep.N):
        k = reps.size
        entry = (at[rows][:, :, None] * k + at[cols][:, None, :]).ravel()
        term = weight[rows].conj()[:, :, None] * values[:, None, None] * weight[cols][:, None, :]
        a = np.bincount(entry, term.real.ravel(), k * k).reshape(k, k)
        out.append((*np.linalg.eigh(a), reps))
    return out
