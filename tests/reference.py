"""Dense reference versions of relcalc kernels, kept to check the thin ones.

``stacked_intersect`` is the intersection as the kernel of the stacked
projector complements [I - P_A; I - P_B] (a 2d x d SVD), and
``defect_kernel_unitary_part`` the unitary part of a matrix contraction as
the stabilized intersection of the kernels of D V^m and D* (V^H)^m.
``one_step_unitary_hull`` grows K-perp as K-perp + V K-perp + V* K-perp
with ``Subspace.sum``, mapping the whole subspace every step, and
``nonunitary_hull`` grows it as the library did before it read the
unitary part from the eigenvalues: mapping only each round's new columns.
``projector_gap`` is the spectral radius of the d x d projector difference,
``stacked_sum`` the leading left singular vectors of [A B],
``svd_complement`` the kernel of A^H from a wide SVD, and
``line_deficiency`` the intersection of the graph with the 2n x n line
frame {(f, zeta f)}.  All cut at ``rank_tol`` on an absolute scale.
``lifted_restrict_domain`` is the domain restriction as the intersection
of the graph with the 2n x (dim M + n) frame of M (+) H.  ``lifted_add``
and ``lifted_compose`` are the sum and the composition as the library
built them before it read their pairs in the doubled space: two graphs
lifted to the tripled space C^n (+) C^n (+) C^n, each spanned with the
identity on its free block, intersected there (a 3n-row residual) and
mapped back.  ``kernel_image`` is the image of M as the G side of the kernel of
(I - P_M) F at ``rank_tol``.  ``loop_shift`` and
``loop_elementary_symmetric`` build the shift model's generators one
pair at a time.  ``row_space_image_chain`` grows the symmetric-Wold image
chain by one row-space SVD of (I - P_K) F C per round over the basis C of
the coefficients not yet found, cut at ``rank_tol``, and
``svd_window_compress`` spans the window rows of a frame with one SVD.
``span_z_transform`` spans the image generators at every zeta, ±i
included, and ``span_compress`` spans the coordinates of a graph in K,
both cut at ``rank_tol`` as the library did before it mapped frames
without a factorization.  ``span_dims`` reads the dimensions of the four
graph parts and of ran(T + iI) from the frames that ``dom``, ``ran``,
``ker``, ``mul`` and a span build, and ``span_rank`` the rank of a matrix
from its spanned frame.  ``loop_encode_matrix`` writes a matrix as rows of
``[re, im]`` pairs one entry at a time, as the documents were written
before one numpy call built them.  ``graph_sum_padding`` pads a
contraction by zero outside its domain as the library did before it read
the padding from the contraction form: it spans dom V, sums the graph with
(dom V)-perp (+) {0} and solves the n-dimensional sum for its matrix.
"""

import numpy as np

from relcalc import DEFAULT_TOL, Relation, Subspace, ToleranceConfig, z_transform
from relcalc.relation import _finite_zeta
from relcalc.decompose import _invariant_hull
from relcalc.subspace import _kernel, _orthonormal_columns, _right_singular_split


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


def lifted_restrict_domain(relation, space, cfg=DEFAULT_TOL):
    n = relation.n
    frame = np.zeros((2 * n, space.dim + n), dtype=complex)
    frame[:n, : space.dim] = space.frame
    frame[n:, space.dim :] = np.eye(n)
    return Relation(relation.graph.intersect(Subspace(frame), cfg))


def _lift(relation, first, second):
    n, r = relation.n, relation.graph.dim
    frame = np.zeros((3 * n, r + n), dtype=complex)
    frame[first * n : (first + 1) * n, :r] = relation.F
    frame[second * n : (second + 1) * n, :r] = relation.G
    third = 3 - first - second
    frame[third * n : (third + 1) * n, r:] = np.eye(n)
    return Subspace(frame)


def lifted_add(s, t, cfg=DEFAULT_TOL):
    n = s.n
    w = _lift(s, 0, 1).intersect(_lift(t, 0, 2), cfg).frame
    mapped = np.vstack([w[:n], w[n : 2 * n] + w[2 * n :]])
    return Relation(Subspace.span(mapped, cfg, ambient_dim=2 * n, scale=1.0))


def lifted_compose(s, t, cfg=DEFAULT_TOL):
    n = s.n
    w = _lift(t, 0, 1).intersect(_lift(s, 1, 2), cfg).frame
    mapped = np.vstack([w[:n], w[2 * n :]])
    return Relation(Subspace.span(mapped, cfg, ambient_dim=2 * n, scale=1.0))


def kernel_image(relation, space, cfg=DEFAULT_TOL):
    off = relation.F - space.frame @ (space.frame.conj().T @ relation.F)
    coeffs = _kernel(off, cfg.rank_tol, scale=1.0)
    return Subspace.span(relation.G @ coeffs, cfg, ambient_dim=relation.n, scale=1.0)


def _loop_pairs(w, f_entries, g_entries):
    pairs = []
    for k in range(w.n - 1):
        f = np.zeros(w.n, dtype=complex)
        g = np.zeros(w.n, dtype=complex)
        f[k], f[k + 1] = f_entries
        g[k], g[k + 1] = g_entries
        pairs.append((f, g))
    return Relation.from_pairs(pairs, n=w.n)


def loop_shift(w):
    return _loop_pairs(w, (1.0, 0.0), (0.0, 1.0))


def loop_elementary_symmetric(w):
    return _loop_pairs(w, (1.0, -1j), (1j, -1.0))


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


def graph_sum_padding(relation, cfg=DEFAULT_TOL):
    n = relation.n
    pad = Subspace(_kernel(relation.dom(cfg).frame.conj().T, cfg.rank_tol, scale=1.0))
    zeros = Subspace(np.vstack([pad.frame, np.zeros_like(pad.frame)]))
    frame = relation.graph.sum(zeros, cfg).frame
    assert frame.shape == (2 * n, n), "the padded graph is not n-dimensional"
    return np.linalg.solve(frame[:n].T, frame[n:].T).T


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


def nonunitary_hull(matrix, cfg=DEFAULT_TOL):
    """Frame of K-perp of a matrix contraction V and the hull rounds: the
    smallest subspace invariant under V and V* that contains
    ran D + ran D*, with D = I - V*V and D* = I - VV* (Van Dooren 1981,
    Paige 1981).  A small Krylov residual does not mean a direction is
    unreachable, so on some inputs it fills the space too early."""
    matrix_h = matrix.conj().T
    eye = np.eye(matrix.shape[0])
    defects = np.hstack([eye - matrix_h @ matrix, eye - matrix @ matrix_h])
    return _invariant_hull(
        _orthonormal_columns(defects, cfg.rank_tol, scale=1.0),
        lambda frame, added: np.hstack([matrix @ added, matrix_h @ added]),
        cfg,
    )


def row_space_image_chain(relation, cfg=DEFAULT_TOL):
    """K of ``symmetric_wold_decompose`` and its hull rounds, each round
    re-factoring the residual of every coefficient not yet found."""
    transform = z_transform(relation, 1j, cfg)
    wandering = relation.adjoint().deficiency(-1j, cfg).dom(cfg)
    f, g = transform.F, transform.G
    unfound = np.eye(g.shape[1], dtype=complex)

    def images_of(frame, added):
        nonlocal unfound
        off = f @ unfound
        off = off - frame @ (frame.conj().T @ off)
        _, v, r = _right_singular_split(off, cfg.rank_tol, scale=1.0)
        images = g @ (unfound @ v[:, r:])
        unfound = unfound @ v[:, :r]
        return images

    frame, rounds = _invariant_hull(wandering.frame, images_of, cfg)
    return Subspace(frame), rounds


def svd_window_compress(obj, w, cfg=DEFAULT_TOL):
    """Window compression of a subspace or relation of the shift model from
    one SVD of the kept rows, cut at ``rank_tol`` on an absolute scale."""
    wd = w.window_dim
    if isinstance(obj, Relation):
        stack = np.vstack([obj.F[:wd], obj.G[:wd]])
        return Relation(Subspace(_orthonormal_columns(stack, cfg.rank_tol, scale=1.0)))
    return Subspace(_orthonormal_columns(obj.frame[:wd], cfg.rank_tol, scale=1.0))


def span_z_transform(relation, zeta, cfg=DEFAULT_TOL):
    zc = _finite_zeta(zeta)
    f, g = relation.F, relation.G
    top = g - np.conj(zc) * f
    bot = np.conj(zc) * g - (abs(zc) ** 2) * f
    return Relation(Subspace.span(np.vstack([top, bot]), cfg, ambient_dim=2 * relation.n,
                                  scale=max(1.0, abs(zc) ** 2)))


def span_compress(relation, k, cfg=DEFAULT_TOL):
    q = k.frame
    coords = np.vstack([q.conj().T @ relation.F, q.conj().T @ relation.G])
    return Relation(Subspace.span(coords, cfg, ambient_dim=2 * k.dim, scale=1.0))


def span_rank(mat, rank_tol, scale=None):
    cfg = ToleranceConfig(rank_tol=rank_tol)
    return Subspace.span(mat, cfg, ambient_dim=mat.shape[0], scale=scale).dim


def span_dims(relation, cfg=DEFAULT_TOL):
    shifted = relation.G + 1j * relation.F
    return {
        "dom": relation.dom(cfg).dim,
        "ran": relation.ran(cfg).dim,
        "ker": relation.ker(cfg).dim,
        "mul": relation.mul(cfg).dim,
        "shifted_range": Subspace.span(shifted, cfg, ambient_dim=relation.n, scale=1.0).dim,
    }


def loop_encode_matrix(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]
