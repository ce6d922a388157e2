"""Dense reference versions of relcalc kernels, kept to check the thin ones.

``stacked_intersect`` is the intersection as the kernel of the stacked
projector complements [I - P_A; I - P_B] (a 2d x d SVD), and
``defect_kernel_unitary_part`` the unitary part of a matrix contraction as
the stabilized intersection of the kernels of D V^m and D* (V^H)^m.
``one_step_unitary_hull`` grows K-perp as K-perp + V K-perp + V* K-perp
with ``Subspace.sum``, mapping the whole subspace every step.
``projector_gap`` is the spectral radius of the d x d projector difference,
``stacked_sum`` the leading left singular vectors of [A B],
``svd_complement`` the kernel of A^H from a wide SVD, and
``line_deficiency`` the intersection of the graph with the 2n x n line
frame {(f, zeta f)}.  All cut at ``rank_tol`` on an absolute scale.
"""

import numpy as np

from relcalc import DEFAULT_TOL, Relation, Subspace
from relcalc.subspace import _kernel, _orthonormal_columns


def projector_gap(a, b):
    if a.ambient_dim == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a.projector() - b.projector()))))


def stacked_sum(a, b, cfg=DEFAULT_TOL):
    joint = np.hstack([a.frame, b.frame])
    return Subspace(_orthonormal_columns(joint, cfg.rank_tol, scale=1.0))


def svd_complement(a, cfg=DEFAULT_TOL):
    return Subspace(_kernel(a.frame.conj().T, cfg.rank_tol, scale=1.0))


def line_deficiency(relation, zeta, cfg=DEFAULT_TOL):
    n = relation.n
    line = np.vstack([np.eye(n, dtype=complex), zeta * np.eye(n, dtype=complex)])
    line /= np.sqrt(1.0 + abs(zeta) ** 2)
    return Relation(relation.graph.intersect(Subspace(line), cfg))


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


def one_step_unitary_hull(matrix, cfg=DEFAULT_TOL):
    """K-perp of a matrix contraction grown from span[D, D*] one full step at
    a time, and the number of steps, the step that adds nothing included."""
    n = matrix.shape[0]
    eye = np.eye(n)
    matrix_h = matrix.conj().T
    seed = np.hstack([eye - matrix_h @ matrix, eye - matrix @ matrix_h])
    k_perp = Subspace.span(seed, cfg, ambient_dim=n, scale=1.0)
    for steps in range(1, n + 2):
        images = np.hstack([matrix @ k_perp.frame, matrix_h @ k_perp.frame])
        grown = k_perp.sum(Subspace.span(images, cfg, ambient_dim=n, scale=1.0), cfg)
        if grown.dim == k_perp.dim:
            return k_perp, steps
        k_perp = grown
    raise AssertionError("reference hull did not stabilize")
