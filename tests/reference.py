"""Dense reference versions of two kernels, kept to check the thin ones.

``stacked_intersect`` is the intersection as the kernel of the stacked
projector complements [I - P_A; I - P_B] (a 2d x d SVD), and
``defect_kernel_unitary_part`` the unitary part of a matrix contraction as
the stabilized intersection of the kernels of D V^m and D* (V^H)^m.  Both
cut at ``rank_tol`` on an absolute scale.
"""

import numpy as np

from relcalc import DEFAULT_TOL, Subspace
from relcalc.subspace import _kernel


def stacked_intersect(a, b, cfg=DEFAULT_TOL):
    d = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(d)
    eye = np.eye(d, dtype=complex)
    stacked = np.vstack([eye - a.projector(), eye - b.projector()])
    return Subspace(_kernel(stacked, cfg.rank_tol, scale=1.0))


def defect_kernel_unitary_part(matrix, cfg=DEFAULT_TOL):
    n = matrix.shape[0]
    defect = np.eye(n) - matrix.conj().T @ matrix
    defect_star = np.eye(n) - matrix @ matrix.conj().T
    k = Subspace.full(n)
    power = np.eye(n, dtype=complex)
    power_h = np.eye(n, dtype=complex)
    for _ in range(2 * n + 1):
        constraint = np.vstack([defect @ power, defect_star @ power_h])
        level = Subspace(_kernel(constraint, cfg.rank_tol, scale=1.0))
        new = stacked_intersect(k, level, cfg)
        if new.dim == k.dim or new.dim == 0:
            return new
        k = new
        power = matrix @ power
        power_h = matrix.conj().T @ power_h
    raise AssertionError("reference defect-kernel iteration did not stabilize")
