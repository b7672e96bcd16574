"""Test oracle: the box pass the slow way, in box coordinates.

``dense_box_pass(theta, N)`` realizes the Rieffel polynomial on the box,
takes the complex ``eigh`` of its Hermitian part, compresses the phase F0
to the eigenvectors at or above 1/2, takes the full SVD of that
compression and classifies each singular vector below the rank tolerance
by the interior mass of its box vector.  It refuses where the package's
pass refuses, with the same exception types, and returns the same keys
apart from ``build_defect``.
"""

import numpy as np

from ncg_torus.errors import RepresentationTooSmall, UnstableIndex
from ncg_torus.fredholm import DIRAC_RANK_TOL, INTERIOR_MASS_THRESHOLD, PROJECTION_TOL
from ncg_torus.torus_rep import dirac_data, rieffel_polynomial


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
