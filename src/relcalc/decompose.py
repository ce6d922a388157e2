"""Canonical decompositions of contractions, isometries and dissipative relations.

Four engines, each producing a distinguished reducing subspace K together
with machine-checkable certificates:

- ``nfl_decompose``: closed contraction = unitary part on K (+) completely
  nonunitary part on the complement (Nagy-Foias-Langer splitting, extended
  to partial-domain contractions by zero-padding).
- ``wold_decompose``: everywhere-defined isometry = unitary part on K (+)
  unilateral-shift part on the complement.  In finite dimension every such
  isometry is unitary, so K is the whole space; the assertion is kept
  because it documents why the sequence-space model exists.
- ``dissipative_decompose``: closed dissipative relation = selfadjoint part
  on K (+) completely nonselfadjoint part, obtained by transporting the
  contraction splitting through the Z transform at i.
- ``symmetric_wold_decompose``: maximal symmetric relation = elementary
  maximal part on K (+) selfadjoint part on the complement.  Note the
  orientation: here K carries the shift-like part, whereas the first two
  engines put the unitary part on K.

The first and third engines read K from the eigenvectors of the padded
contraction whose eigenvalues lie on the unit circle.  The part on K-perp
is certified on its own padded matrix, which must have no such eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariance import _split, adjoint_within, compress
from .relation import (
    Relation,
    _contraction_form,
    _dissipation_form,
    _dom_dim,
    _is_symmetric,
    _max_abs_eig,
    _min_eig,
    _mul_dim,
    _ran_dim,
    _shifted_range_dim,
)
from .subspace import (
    DEFAULT_TOL,
    Certificate,
    Certified,
    Subspace,
    ToleranceConfig,
    _move_to_front,
    _norm2,
    _orthonormal_columns,
    _residual,
    _right_singular_split,
)
from .ztransform import z_transform

__all__ = [
    "DecompositionResult",
    "maximalize_contraction",
    "unitary_part_subspace",
    "nfl_decompose",
    "wold_decompose",
    "dissipative_decompose",
    "symmetric_wold_decompose",
    "von_neumann_check",
]


@dataclass(frozen=True)
class DecompositionResult(Certified):
    """A reducing subspace, both restricted parts and their certificates.

    ``wandering`` carries the wandering space for the isometry/symmetric
    engines.  ``iterations`` is 1 for the contraction and dissipative
    engines, which read K from one eigendecomposition; it counts the rounds
    of the image chain that defines K (see ``_invariant_hull``) for the
    symmetric engine, and the range-chain steps, stalled step included,
    for the isometry.
    """

    k: Subspace
    part_k: Relation
    part_k_perp: Relation
    certificates: tuple
    iterations: int
    wandering: Subspace | None = None


def _padded_matrix(relation: Relation, w: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """G F^+, the relation on dom T = ran F padded by 0.  The frame is
    orthonormal, so F*F = (I + C)/2 for the contraction form C with
    eigenvalues ``w``.  F has a kernel (mul T) when (1 + min w)/2 is at most
    rank_tol^2 or sqrt(eps), which w does not resolve; else F^+ = (F*F)^-1 F*."""
    if (1 + _min_eig(w)) / 2 <= max(cfg.rank_tol ** 2, np.sqrt(np.finfo(float).eps)):
        raise ValueError("relation is not an everywhere-defined operator")
    f_h = relation.F.conj().T
    return relation.G @ np.linalg.solve(f_h @ relation.F, f_h)


def _contraction_matrix(relation: Relation, cfg: ToleranceConfig) -> np.ndarray:
    """``_padded_matrix`` of a contraction; raises for any other relation."""
    w = _contraction_form(relation)
    if _min_eig(w) < -cfg.psd_tol:
        raise ValueError("relation is not a contraction")
    return _padded_matrix(relation, w, cfg)


def maximalize_contraction(relation: Relation,
                           cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Extend a contraction to a maximal one by sending (dom V)-perp to 0.

    The padded relation is an everywhere-defined contraction operator
    containing the input, or the input itself when its domain is full.
    """
    matrix = _contraction_matrix(relation, cfg)
    return relation if relation.graph.dim == relation.n else Relation.from_operator(matrix, cfg)


def _invariant_hull(frame: np.ndarray, images_of, cfg: ToleranceConfig):
    """Frame of the smallest subspace that contains ``frame`` and the images
    ``images_of(frame, added)`` of each round's new columns, and the rounds
    (the wandering sum and the image chain of the two Wold engines).

    Images are orthogonalized twice against the frame and cut at ``rank_tol``
    on an absolute scale (frames and their images are O(1)).  The seed is
    not counted; every mapping round is, and so is the round that ends the
    growth, because it adds nothing or because the frame fills the space
    (closed under every map, so that round is counted without being computed).
    """
    n, dim = frame.shape
    # The hull never exceeds the space: one column-major buffer holds it,
    # and each round's frame is a view of its leading columns.
    hull = np.empty((n, n), dtype=complex, order="F")
    hull[:, :dim] = frame
    added = frame
    rounds = 0
    while True:
        rounds += 1
        frame = hull[:, :dim]
        if dim >= n:
            return frame, rounds
        images = images_of(frame, added)
        for _pass in range(2):  # Gram-Schmidt twice is enough against the frame
            images = _residual(frame, images)
        added = _orthonormal_columns(images, cfg.rank_tol, scale=1.0)
        if added.shape[1] == 0:
            return frame, rounds
        hull[:, dim:dim + added.shape[1]] = added
        dim += added.shape[1]


def _on_circle(values: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Eigenvalues on the unit circle: 1 - |lambda|^2 at most psd_tol."""
    return 1 - np.abs(values) ** 2 <= cfg.psd_tol


def _unitary_part(matrix: np.ndarray, cfg: ToleranceConfig) -> Subspace:
    """Unitary part of a matrix contraction V: the span of its eigenvectors
    with eigenvalues on the circle.  Vx = lambda x with |lambda| = 1 forces
    V*x = conj(lambda) x, so each reduces V, and in finite dimension they
    span the unitary part (Sz.-Nagy & Foias)."""
    values, vectors = np.linalg.eig(matrix)
    return Subspace.span(vectors[:, _on_circle(values, cfg)], cfg,
                         ambient_dim=matrix.shape[0], scale=1.0)


def _unimodular_count(relation: Relation, w: np.ndarray, cfg: ToleranceConfig) -> int:
    """Eigenvalues on the circle of a part's padded matrix, from its form
    eigenvalues ``w``: 0 exactly when the part is completely nonunitary."""
    values = np.linalg.eigvals(_padded_matrix(relation, w, cfg))
    return int(np.count_nonzero(_on_circle(values, cfg)))


def unitary_part_subspace(relation: Relation,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Unitary-part subspace of a closed contraction (padded by zero
    outside its domain, as in ``nfl_decompose``): the span of the
    eigenvectors of its eigenvalues on the circle."""
    return _unitary_part(_contraction_matrix(relation, cfg), cfg)


def _unitary_within(relation: Relation, space: Subspace, cfg: ToleranceConfig):
    """The two residuals of a restricted part being unitary in the
    coordinates of its own subspace: its isometry deviation, and the
    codimensions of its domain and range summed (0 when both are full)."""
    part = compress(relation, space, cfg)
    iso_dev = _max_abs_eig(_contraction_form(part))
    return iso_dev, 2 * part.n - _dom_dim(part, cfg) - _ran_dim(part, cfg)


def _selfadjoint_within_gap(relation: Relation, space: Subspace,
                            cfg: ToleranceConfig) -> float:
    if space.dim == 0:
        return 0.0
    return relation.gap(adjoint_within(relation, space, cfg))


def nfl_decompose(relation: Relation,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> DecompositionResult:
    """Split a closed contraction into unitary and completely nonunitary
    parts.  K is ``unitary_part_subspace`` and K-perp its complement."""
    k = unitary_part_subspace(relation, cfg)
    k_perp = k.complement()
    part_k, part_p, r_red = _split(relation, k, k_perp, cfg)
    iso_dev, codim = _unitary_within(part_k, k, cfg)
    within = compress(part_p, k_perp, cfg)
    cnu_dim = _unimodular_count(within, _contraction_form(within), cfg)
    # The padding never meets K, so K sits inside dom V, the span of the
    # thin QR of F: the guard gave F full column rank.
    r_dom = _norm2(_residual(np.linalg.qr(relation.F)[0], k.frame))

    certificates = (
        Certificate("reducing", r_red, cfg.gap_tol),
        Certificate("part_k_unitary", iso_dev, cfg.psd_tol),
        Certificate("part_k_full_domain_range", codim, 0),
        Certificate("part_k_perp_completely_nonunitary", cnu_dim, 0),
        Certificate("k_inside_domain", r_dom, cfg.gap_tol),
    )
    return DecompositionResult(k, part_k, part_p, certificates, 1)


def wold_decompose(relation: Relation,
                   cfg: ToleranceConfig = DEFAULT_TOL) -> DecompositionResult:
    """Split an everywhere-defined isometry into unitary and shift parts.

    K is the stabilized intersection of the ranges of V^m and the wandering
    space L is the orthogonal complement of ran V; the complement of K must
    equal the orthogonal sum of the spaces V^m L.  In finite dimension the
    result is always K = C^n and L = {0}.  The sum is the invariant hull of
    L under V; ``wandering_images_orthogonal`` is the largest
    ``||frame^H V added||_2`` over its rounds, so an image inside a sum that
    already fills the space is not measured.
    """
    w = _contraction_form(relation)
    # With no multivalued part, dom T is n-dimensional when the graph is.
    if _max_abs_eig(w) > cfg.psd_tol or relation.graph.dim < relation.n:
        raise ValueError("relation is not an everywhere-defined isometry")
    matrix = _padded_matrix(relation, w, cfg)
    n = relation.n

    # ran V^{m+1} is contained in ran V^m, so the chain needs no
    # intersections, and its dimension falls until the step that stalls.
    # Its first step, ran V, also gives the wandering space.
    ran = Subspace.span(matrix, cfg, ambient_dim=n, scale=1.0)
    wandering = ran.complement()
    k, new, iterations = Subspace.full(n), ran, 1
    while new.dim < k.dim:
        k, new = new, Subspace.span(matrix @ new.frame, cfg, ambient_dim=n, scale=1.0)
        iterations += 1

    # Orthogonal sum of the iterated images of the wandering space; each
    # round's images are measured against the sum before they join it.
    ortho_residual = 0.0

    def images_of(frame, added):
        nonlocal ortho_residual
        images = matrix @ added
        ortho_residual = max(ortho_residual, _norm2(frame.conj().T @ images))
        return images

    acc = Subspace(_invariant_hull(wandering.frame, images_of, cfg)[0])

    k_perp = k.complement()
    part_k, part_p, r_red = _split(relation, k, k_perp, cfg)
    iso_dev, codim = _unitary_within(part_k, k, cfg)

    certificates = (
        Certificate("reducing", r_red, cfg.gap_tol),
        Certificate("part_k_unitary", iso_dev, cfg.psd_tol),
        Certificate("part_k_full_domain_range", codim, 0),
        Certificate("complement_is_wandering_sum", k_perp.gap(acc), cfg.gap_tol),
        Certificate("wandering_images_orthogonal", ortho_residual, cfg.gap_tol),
        Certificate("finite_dimensional_unitarity", n - k.dim + wandering.dim, 0),
    )
    return DecompositionResult(k, part_k, part_p, certificates, iterations, wandering=wandering)


def dissipative_decompose(relation: Relation,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> DecompositionResult:
    """Split a closed dissipative relation into selfadjoint and completely
    nonselfadjoint parts.

    The reducing subspace is the unitary-part subspace of the Z transform
    at i, which reduces the original relation as well.  The complement part
    is an operator: a multivalued part of a closed dissipative relation can
    only live inside the selfadjoint part.
    """
    w = _dissipation_form(relation)
    if _min_eig(w) < -cfg.psd_tol:
        raise ValueError("relation is not dissipative")
    # T's dissipation form is the contraction form of Z_i(T).
    k = _unitary_part(_padded_matrix(z_transform(relation, 1j, cfg), w, cfg), cfg)
    k_perp = k.complement()
    part_k, part_p, r_red = _split(relation, k, k_perp, cfg)
    within = z_transform(compress(part_p, k_perp, cfg), 1j, cfg)
    cns_dim = _unimodular_count(within, _contraction_form(within), cfg)

    certificates = (
        Certificate("reducing", r_red, cfg.gap_tol),
        Certificate("part_k_selfadjoint", _selfadjoint_within_gap(part_k, k, cfg), cfg.gap_tol),
        Certificate("part_k_perp_operator", _mul_dim(part_p, cfg), 0),
        Certificate("part_k_perp_completely_nonselfadjoint", cns_dim, 0),
    )
    return DecompositionResult(k, part_k, part_p, certificates, 1)


def _chain_split(f: np.ndarray, frame: np.ndarray, coeffs: np.ndarray,
                 cfg: ToleranceConfig):
    """Split the coefficients spanned by the orthonormal ``coeffs`` by the
    residual (I - P_frame) F c of each unit coefficient c.

    One SVD of (I - P_frame) F coeffs, cut at ``rank_tol`` on an absolute
    scale, gives the found coefficients (orthonormal; F maps them into span
    ``frame``) and the rest.  Those whose residual is at least 1/2 are
    returned as coefficients P with orthonormal residuals (the transform of
    a symmetric relation is isometric, so a unit coefficient orthogonal to
    the frame has residual 1/sqrt(2)); the others, whose residual direction
    rounding would blur by eps / residual, as orthonormal coefficients D.
    """
    s, v, r = _right_singular_split(_residual(frame, f @ coeffs), cfg.rank_tol, scale=1.0)
    full = np.count_nonzero(s[:r] >= 0.5)
    v = coeffs @ v
    return v[:, :full] / s[:full], v[:, full:r], v[:, r:]


def _chain_step(f: np.ndarray, frame: np.ndarray, added: np.ndarray,
                p: np.ndarray, d: np.ndarray, cfg: ToleranceConfig):
    """Update the split of ``_chain_split`` after ``added`` joined the frame.

    With Q = (I - P_frame) F P orthonormal, only the directions of span Q
    that the new columns A touch change: the row space of the k x r matrix
    A^H Q = A^H F P, brought to the front of P by the Householder QR of its
    conjugate transpose (``_move_to_front``).  Those leading coefficients
    and D are split again by ``_chain_split``; A^H F maps the other columns
    of P to 0, so their residuals are unchanged.  The first round, with P
    empty and D the identity, is one SVD of the whole residual.  P is owned
    by the chain and is rotated in place.
    """
    t, coeffs = 0, d
    if p.shape[1]:
        t = _move_to_front((added.conj().T @ f) @ p, p)
        coeffs = np.linalg.qr(np.hstack([p[:, :t], d]))[0]
    p_new, d, found = _chain_split(f, frame, coeffs, cfg)
    return np.hstack([p_new, p[:, t:]]), d, found


def symmetric_wold_decompose(relation: Relation,
                             cfg: ToleranceConfig = DEFAULT_TOL,
                             *, require_maximal: bool = True) -> DecompositionResult:
    """Split a maximal symmetric relation into elementary maximal and
    selfadjoint parts.

    K accumulates the iterated images of the wandering space
    L = ker(T* + i) = ran(T - i)-perp = (ran V)-perp under the Z transform
    V at i (so here K carries the shift-like part); L is read from V, as
    ``wold_decompose`` reads it.  In finite dimension a maximal symmetric
    relation is selfadjoint and K is {0}; truncated sequence-space models
    are not maximal at the edge, and pass ``require_maximal=False``.

    The image chain K_0 = L, K_{j+1} = K_j + V K_j is the invariant hull
    of L.  With the transform's graph frame [F; G], the coefficients mapped
    into K_j form C_j = {c : Fc in K_j}; then C_j grows with j and G C_j
    lies in K_{j+1}.  So each round maps only the newly found coefficients:
    the unit coefficients c, among those not found before, whose residual
    ||(I - P_K) F c|| is at most ``rank_tol`` (absolute scale).
    The first round reads them from one SVD of (I - P_L) F.  Later rounds
    re-read only the coefficients whose residual the new columns A of K
    touch, found from the k x r matrix A^H (I - P_K) F P for the unfound
    coefficients P, so a round costs O(N r k) and not an SVD of the whole
    N x r residual (see ``_chain_step``).
    ``iterations`` counts the steps of the one-step chain K_j + image(K_j).
    """
    if not _is_symmetric(relation, cfg):
        raise ValueError("relation is not symmetric")
    if require_maximal and _shifted_range_dim(relation, cfg) != relation.n:
        raise ValueError("relation is not maximal (the range of T + iI is a proper subspace)")
    transform = z_transform(relation, 1j, cfg)
    wandering = transform.ran(cfg).complement()

    f, g = transform.F, transform.G
    # Unfound coefficients: carried ones (P) and ones read again (D).
    p, d = np.zeros((f.shape[1], 0), dtype=complex), np.eye(f.shape[1], dtype=complex)

    def images_of(frame, added):
        nonlocal p, d
        p, d, found = _chain_step(f, frame, added, p, d, cfg)
        return g @ found

    frame, iterations = _invariant_hull(wandering.frame, images_of, cfg)
    k = Subspace(frame)

    k_perp = k.complement()
    part_k, part_p, r_red = _split(relation, k, k_perp, cfg)
    r_sa = _selfadjoint_within_gap(part_p, k_perp, cfg)
    if k.dim > 0:
        # The shift's contraction form is the part's dissipation form.
        shift = z_transform(compress(part_k, k, cfg), 1j, cfg)
        w = _contraction_form(shift)
        iso_dev = _max_abs_eig(w)
        dom_codim = k.dim - _dom_dim(shift, cfg)
        unit_dim = _unimodular_count(shift, w, cfg)
    else:
        iso_dev = dom_codim = unit_dim = 0.0

    certificates = (
        Certificate("reducing", r_red, cfg.gap_tol),
        Certificate("part_k_perp_selfadjoint", r_sa, cfg.gap_tol),
        Certificate("transform_isometry_on_k", iso_dev, cfg.psd_tol),
        Certificate("transform_domain_full", dom_codim, 0),
        Certificate("transform_no_unitary_part", unit_dim, 0),
    )
    return DecompositionResult(k, part_k, part_p, certificates, iterations, wandering=wandering)


def von_neumann_check(relation: Relation,
                      cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """First von Neumann formula for a symmetric relation.

    The adjoint must be the direct sum of the relation and the two
    deficiency spaces of the adjoint at +-i, with matching dimension count;
    when the relation is maximal the summand at -i is orthogonal to it.
    """
    if not _is_symmetric(relation, cfg):
        raise ValueError("relation is not symmetric")
    adj = relation.adjoint()
    def_plus = adj.deficiency(1j, cfg)
    def_minus = adj.deficiency(-1j, cfg)
    total = relation.graph.sum(def_plus.graph, cfg).sum(def_minus.graph, cfg)
    dims_ok = total.dim == relation.graph.dim + def_plus.graph.dim + def_minus.graph.dim
    sum_ok = total.gap(adj.graph) <= cfg.gap_tol
    ortho_ok = True
    if _shifted_range_dim(relation, cfg) == relation.n:
        ortho_ok = relation.graph.is_orthogonal_to(def_minus.graph, cfg)
    return dims_ok and sum_ok and ortho_ok
