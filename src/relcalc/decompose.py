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

Complete nonunitarity / nonselfadjointness is certified operationally:
re-decomposing the complement part must yield the zero subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariance import adjoint_within, compress, reduction_gap
from .relation import Relation, classify, operator_matrix
from .subspace import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    _orthonormal_columns,
    _row_space_and_kernel,
)
from .ztransform import z_transform

__all__ = [
    "Certificate",
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
class Certificate:
    """One verified claim: the residual that was compared to a tolerance."""

    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class DecompositionResult:
    """A reducing subspace, both restricted parts and their certificates.

    ``wandering`` carries the wandering space for the isometry/symmetric
    engines.  ``iterations`` counts the steps of the defining subspace
    growth, the step that adds nothing included: hull steps of the
    unitary part for the contraction and dissipative engines, image-chain
    steps for the symmetric one and range-chain steps for the isometry.
    """

    k: Subspace
    part_k: Relation
    part_k_perp: Relation
    certificates: tuple
    iterations: int
    wandering: Subspace | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def certificate(self, name: str) -> Certificate:
        for cert in self.certificates:
            if cert.name == name:
                return cert
        raise KeyError(name)


def maximalize_contraction(relation: Relation,
                           cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Extend a contraction to a maximal one by sending (dom V)-perp to 0.

    The padded relation is an everywhere-defined contraction operator
    containing the input; it equals the input when the domain is already
    the whole space.
    """
    if not classify(relation, cfg).is_contraction:
        raise ValueError("relation is not a contraction")
    pad = relation.dom(cfg).complement(cfg)
    if pad.dim == 0:
        return relation
    w_frame = np.vstack([pad.frame, np.zeros_like(pad.frame)])
    return Relation(relation.graph.sum(Subspace(w_frame), cfg))


def _unitary_part(relation: Relation, cfg: ToleranceConfig):
    """Largest reducing subspace on which a closed contraction is unitary,
    and the number of hull steps that found it.

    The contraction is padded to an everywhere-defined matrix V first.
    K-perp is the smallest subspace invariant under V and V^H that contains
    ran D + ran D*, with D = I - V^H V and D* = I - V V^H (Van Dooren 1981,
    Paige 1981).  The hull's frame starts from one SVD of [D, D*]; each
    step maps only the columns added by the previous one, orthogonalizes
    them twice against the frame and keeps what survives the cut.  The
    seed is step 1, and a step that adds nothing is counted and ends the
    growth, as does a frame that fills the space.  Frames and defects are
    O(1) by construction, hence the absolute cut.
    """
    matrix = operator_matrix(maximalize_contraction(relation, cfg), cfg)
    n = matrix.shape[0]
    matrix_h = matrix.conj().T
    eye = np.eye(n)
    defects = np.hstack([eye - matrix_h @ matrix, eye - matrix @ matrix_h])
    frame = added = _orthonormal_columns(defects, cfg.rank_tol, scale=1.0)
    steps = 1
    while added.shape[1] and frame.shape[1] < n:
        images = np.hstack([matrix @ added, matrix_h @ added])
        for _pass in range(2):  # Gram-Schmidt twice is enough against the frame
            images = images - frame @ (frame.conj().T @ images)
        added = _orthonormal_columns(images, cfg.rank_tol, scale=1.0)
        frame = np.hstack([frame, added])
        steps += 1
    return Subspace(frame).complement(cfg), steps


def unitary_part_subspace(relation: Relation,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Unitary-part subspace of a closed contraction (padded by zero
    outside its domain, as in ``nfl_decompose``)."""
    return _unitary_part(relation, cfg)[0]


def _unitary_part_is_trivial(relation: Relation, cfg: ToleranceConfig) -> float:
    """Dimension of the unitary part of a contraction after padding;
    zero certifies complete nonunitarity."""
    return float(_unitary_part(relation, cfg)[0].dim)


def _classify_within(relation: Relation, space: Subspace, cfg: ToleranceConfig):
    """Classify a restricted part in the coordinates of its own subspace."""
    return classify(compress(relation, space, cfg), cfg)


def _selfadjoint_within_gap(relation: Relation, space: Subspace,
                            cfg: ToleranceConfig) -> float:
    if space.dim == 0:
        return 0.0
    return relation.gap(adjoint_within(relation, space, cfg))


def nfl_decompose(relation: Relation,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> DecompositionResult:
    """Split a closed contraction into unitary and completely nonunitary parts."""
    k, iterations = _unitary_part(relation, cfg)
    k_perp = k.complement(cfg)
    part_k = relation.restrict(k, cfg)
    part_p = relation.restrict(k_perp, cfg)

    r_red = reduction_gap(relation, k, cfg)
    within = _classify_within(part_k, k, cfg)
    cnu_dim = _unitary_part_is_trivial(compress(part_p, k_perp, cfg), cfg)
    # The padding never meets K, so the unitary part sits inside dom V.
    r_dom = 0.0 if relation.dom(cfg).contains(k, cfg) else 1.0

    certificates = (
        Certificate("reducing", r_red < cfg.gap_tol, r_red, cfg.gap_tol),
        Certificate("part_k_unitary", within.is_unitary,
                    within.residuals["isometry_deviation"], cfg.psd_tol),
        Certificate("part_k_perp_completely_nonunitary", cnu_dim == 0.0, cnu_dim, 0.0),
        Certificate("k_inside_domain", r_dom == 0.0, r_dom, cfg.gap_tol),
    )
    return DecompositionResult(k, part_k, part_p, certificates, iterations)


def wold_decompose(relation: Relation,
                   cfg: ToleranceConfig = DEFAULT_TOL) -> DecompositionResult:
    """Split an everywhere-defined isometry into unitary and shift parts.

    K is the stabilized intersection of the ranges of V^m and the wandering
    space L is the orthogonal complement of ran V; the complement of K must
    equal the orthogonal sum of the spaces V^m L.  In finite dimension the
    result is always K = C^n and L = {0}.
    """
    rep = classify(relation, cfg)
    if not rep.is_isometry or relation.dom(cfg).dim != relation.n:
        raise ValueError("relation is not an everywhere-defined isometry")
    matrix = operator_matrix(relation, cfg)
    n = relation.n

    # ran V^{m+1} is contained in ran V^m, so the chain needs no intersections.
    k = Subspace.full(n)
    iterations = 0
    for _ in range(2 * n + 1):
        new = Subspace.span(matrix @ k.frame, cfg, ambient_dim=n, scale=1.0)
        iterations += 1
        if new.dim == k.dim:
            break
        k = new
    else:
        raise ArithmeticError("range-chain iteration failed to stabilize")

    wandering = Subspace.span(matrix, cfg, ambient_dim=n, scale=1.0).complement(cfg)

    # Orthogonal sum of the iterated images of the wandering space.
    acc = wandering
    img = wandering
    ortho_residual = 0.0
    for _ in range(n + 1):
        nxt = Subspace.span(matrix @ img.frame, cfg, ambient_dim=n, scale=1.0)
        if nxt.dim == 0:
            break
        if acc.dim > 0 and nxt.dim > 0:
            ortho_residual = max(
                ortho_residual,
                float(np.linalg.norm(acc.frame.conj().T @ nxt.frame, 2)),
            )
        grown = acc.sum(nxt, cfg)
        if grown.dim == acc.dim:
            break
        acc = grown
        img = nxt

    k_perp = k.complement(cfg)
    part_k = relation.restrict(k, cfg)
    part_p = relation.restrict(k_perp, cfg)

    r_red = reduction_gap(relation, k, cfg)
    within = _classify_within(part_k, k, cfg)
    r_wand = k_perp.gap(acc)
    deg = float(n - k.dim) + float(wandering.dim)

    certificates = (
        Certificate("reducing", r_red < cfg.gap_tol, r_red, cfg.gap_tol),
        Certificate("part_k_unitary", within.is_unitary,
                    within.residuals["isometry_deviation"], cfg.psd_tol),
        Certificate("complement_is_wandering_sum", r_wand < cfg.gap_tol, r_wand, cfg.gap_tol),
        Certificate("wandering_images_orthogonal", ortho_residual < cfg.gap_tol,
                    ortho_residual, cfg.gap_tol),
        Certificate("finite_dimensional_unitarity", deg == 0.0, deg, 0.0),
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
    if not classify(relation, cfg).is_dissipative:
        raise ValueError("relation is not dissipative")
    k, iterations = _unitary_part(z_transform(relation, 1j, cfg), cfg)
    k_perp = k.complement(cfg)
    part_k = relation.restrict(k, cfg)
    part_p = relation.restrict(k_perp, cfg)

    r_red = reduction_gap(relation, k, cfg)
    r_sa = _selfadjoint_within_gap(part_k, k, cfg)
    mul_dim = float(part_p.mul(cfg).dim)
    cns_dim = _unitary_part_is_trivial(
        z_transform(compress(part_p, k_perp, cfg), 1j, cfg), cfg
    )

    certificates = (
        Certificate("reducing", r_red < cfg.gap_tol, r_red, cfg.gap_tol),
        Certificate("part_k_selfadjoint", r_sa < cfg.gap_tol, r_sa, cfg.gap_tol),
        Certificate("part_k_perp_operator", mul_dim == 0.0, mul_dim, 0.0),
        Certificate("part_k_perp_completely_nonselfadjoint", cns_dim == 0.0, cns_dim, 0.0),
    )
    return DecompositionResult(k, part_k, part_p, certificates, iterations)


def symmetric_wold_decompose(relation: Relation,
                             cfg: ToleranceConfig = DEFAULT_TOL,
                             *, require_maximal: bool = True) -> DecompositionResult:
    """Split a maximal symmetric relation into elementary maximal and
    selfadjoint parts.

    The wandering space is L = dom of the deficiency space of the adjoint
    at -i, and K accumulates the iterated images of L under the Z transform
    at i (so here K carries the shift-like part).  In finite dimension a
    maximal symmetric relation is selfadjoint and K is {0}; truncated
    sequence-space models are not maximal at the truncation edge, and pass
    ``require_maximal=False`` to run the same iteration anyway.

    The image chain K_0 = L, K_{j+1} = K_j + V K_j runs incrementally.
    With the transform's graph frame [F; G], the coefficients mapped into
    K_j form C_j = {c : Fc in K_j}; then C_j grows with j and G C_j lies in
    K_{j+1}.  So each step looks for new coefficients only in the
    complement of those already found, and appends to K only the
    orthogonalized images of the new ones.  ``iterations`` counts the same
    steps as the one-step chain K_j + image(K_j), stalled step included.
    """
    rep = classify(relation, cfg)
    if not rep.is_symmetric:
        raise ValueError("relation is not symmetric")
    if require_maximal and not rep.is_maximal_dissipative:
        raise ValueError("relation is not maximal (the range of T + iI is a proper subspace)")

    transform = z_transform(relation, 1j, cfg)
    wandering = relation.adjoint(cfg).deficiency(-1j, cfg).dom(cfg)

    f, g = transform.F, transform.G
    frame = wandering.frame
    # Orthonormal basis of the complement of the coefficients found so far.
    unfound = np.eye(g.shape[1], dtype=complex)
    iterations = 0
    for _ in range(2 * relation.n + 2):
        off = f @ unfound
        off = off - frame @ (frame.conj().T @ off)
        rest, found = _row_space_and_kernel(off, cfg.rank_tol, scale=1.0)
        images = g @ (unfound @ found)
        unfound = unfound @ rest
        for _pass in range(2):  # Gram-Schmidt twice is enough against K
            images = images - frame @ (frame.conj().T @ images)
        grown = _orthonormal_columns(images, cfg.rank_tol, scale=1.0)
        iterations += 1
        if grown.shape[1] == 0:
            break
        frame = np.hstack([frame, grown])
    else:
        raise ArithmeticError("image-chain iteration failed to stabilize")
    k = Subspace(frame)

    k_perp = k.complement(cfg)
    part_k = relation.restrict(k, cfg)
    part_p = relation.restrict(k_perp, cfg)

    r_red = reduction_gap(relation, k, cfg)
    r_sa = _selfadjoint_within_gap(part_p, k_perp, cfg)
    within = _classify_within(part_k, k, cfg) if k.dim > 0 else None
    shift = z_transform(compress(part_k, k, cfg), 1j, cfg) if k.dim > 0 else None

    if shift is not None:
        iso_dev = classify(shift, cfg).residuals["isometry_deviation"]
        dom_codim = float(k.dim - shift.dom(cfg).dim)
        unit_dim = _unitary_part_is_trivial(shift, cfg)
        symmetric_ok = within.is_symmetric
        sym_dev = within.residuals["symmetry_deviation"]
    else:
        iso_dev = dom_codim = unit_dim = sym_dev = 0.0
        symmetric_ok = True

    certificates = (
        Certificate("reducing", r_red < cfg.gap_tol, r_red, cfg.gap_tol),
        Certificate("part_k_perp_selfadjoint", r_sa < cfg.gap_tol, r_sa, cfg.gap_tol),
        Certificate("part_k_symmetric", symmetric_ok, sym_dev, cfg.psd_tol),
        Certificate("transform_isometry_on_k", iso_dev <= cfg.psd_tol, iso_dev, cfg.psd_tol),
        Certificate("transform_domain_full", dom_codim == 0.0, dom_codim, 0.0),
        Certificate("transform_no_unitary_part", unit_dim == 0.0, unit_dim, 0.0),
    )
    return DecompositionResult(k, part_k, part_p, certificates, iterations, wandering=wandering)


def von_neumann_check(relation: Relation,
                      cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """First von Neumann formula for a symmetric relation.

    The adjoint must be the direct sum of the relation and the two
    deficiency spaces of the adjoint at +-i, with matching dimension count;
    when the relation is maximal the summand at -i is orthogonal to it.
    """
    rep = classify(relation, cfg)
    if not rep.is_symmetric:
        raise ValueError("relation is not symmetric")
    adj = relation.adjoint(cfg)
    def_plus = adj.deficiency(1j, cfg)
    def_minus = adj.deficiency(-1j, cfg)
    total = relation.graph.sum(def_plus.graph, cfg).sum(def_minus.graph, cfg)
    dims_ok = total.dim == relation.graph.dim + def_plus.graph.dim + def_minus.graph.dim
    sum_ok = total.gap(adj.graph) < cfg.gap_tol
    ortho_ok = True
    if rep.is_maximal_dissipative:
        ortho_ok = relation.graph.is_orthogonal_to(def_minus.graph, cfg)
    return dims_ok and sum_ok and ortho_ok
