"""Invariant and reducing subspaces for linear relations.

A subspace K is invariant when the domain and multivalued part split
orthogonally across K and its complement and the restricted part has the
expected domain; K reduces T when T is the orthogonal sum of its
restrictions to K and to the complement.  Reduction is preserved by the
adjoint and by the Z transform at +-i, and ``reduction_certificates``
verifies all of that for a given pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relation import Relation
from .subspace import (
    DEFAULT_TOL,
    Certificate,
    Certified,
    Subspace,
    ToleranceConfig,
    _norm2,
    _shared_coefficients,
)
from .ztransform import z_transform

__all__ = [
    "Certificate",
    "ReductionReport",
    "is_invariant",
    "is_reducing",
    "orthogonal_relation_sum",
    "compress",
    "embed",
    "adjoint_within",
    "reduction_certificates",
]


def _sum_gap(whole: Subspace, first: Subspace, second: Subspace,
             cfg: ToleranceConfig) -> float:
    """Gap between a subspace and the sum of two of its pieces."""
    return whole.gap(first.sum(second, cfg))


def _restrict(relation: Relation, space: Subspace, thin: Subspace,
              cfg: ToleranceConfig) -> Relation:
    """Restriction of T to ``space``, whose orthogonal complement is ``thin``.

    The residual of the graph frame X = [F; G] against space (+) space is
    R = C M for C = thin (+) thin and M = [C_t^H F; C_t^H G] with C_t the
    frame of ``thin``.  C is orthonormal, so R and the 2 dim(thin) x r
    matrix M share their singular values and right singular vectors, and
    ``_shared_coefficients`` reads the coefficients c from M at the cut of
    ``intersect``.  The halfway points X c - C (M c) / 2 are built block by
    block.  This is ``Relation.restrict`` when ``thin`` is smaller than
    ``space`` and the graph frame is the side ``intersect`` would take as
    A (r <= 2 dim space); every other shape goes through ``restrict``.

    So does a cut at or below 2n eps, the rounding floor of R's 2n-row SVD.
    There R's r - rank(M) structural zeros read as nonzero sines, which the
    thin factor reads as exact zeros, and the refinement would divide by
    sines that rounding made.
    """
    cut = np.sqrt(2) * cfg.rank_tol
    if (not 0 < thin.dim < space.dim or relation.graph.dim > 2 * space.dim
            or cut <= 2 * relation.n * np.finfo(float).eps):
        return relation.restrict(space, cfg)
    q = thin.frame
    qh = q.conj().T
    f, g = relation.F, relation.G
    off = np.vstack([qh @ f, qh @ g])
    coeffs = _shared_coefficients(off, cut)
    half = (off @ coeffs) / 2
    top = f @ coeffs - q @ half[: thin.dim]
    bottom = g @ coeffs - q @ half[thin.dim :]
    return Relation(Subspace(np.vstack([top, bottom])))


def _split(relation: Relation, k: Subspace, k_perp: Subspace, cfg: ToleranceConfig):
    """Restrictions of T to K and K-perp, and the gap between T and their sum.

    Each restriction reads its shared directions from the thinner of K and
    K-perp (``_restrict``): on a K of codimension p the restriction to K
    factors a 2p x r matrix, not the 2n x r residual against K (+) K.
    """
    part_k = _restrict(relation, k, k_perp, cfg)
    part_p = _restrict(relation, k_perp, k, cfg)
    return part_k, part_p, _sum_gap(relation.graph, part_k.graph, part_p.graph, cfg)


def is_invariant(relation: Relation, k: Subspace,
                 cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether K is invariant: all three invariance conditions hold.

    (1) dom T = (dom T ^ K) (+) (dom T ^ K-perp), (2) the same splitting
    for mul T, (3) dom of the restricted part equals dom T ^ K.
    ``reduction_certificates`` reports each condition's residual.
    """
    if k.ambient_dim != relation.n:
        raise ValueError("subspace ambient dimension must equal the space dimension")
    k_perp = k.complement()
    dom, mul = relation.dom(cfg), relation.mul(cfg)
    dom_k = dom.intersect(k, cfg)
    residuals = (
        _sum_gap(dom, dom_k, dom.intersect(k_perp, cfg), cfg),
        _sum_gap(mul, mul.intersect(k, cfg), mul.intersect(k_perp, cfg), cfg),
        relation.restrict(k, cfg).dom(cfg).gap(dom_k),
    )
    return all(r <= cfg.gap_tol for r in residuals)


def reduction_gap(relation: Relation, k: Subspace,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Gap between T and the orthogonal sum of its restrictions to K, K-perp."""
    return _split(relation, k, k.complement(), cfg)[2]


def is_reducing(relation: Relation, k: Subspace,
                cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    if k.ambient_dim != relation.n:
        raise ValueError("subspace ambient dimension must equal the space dimension")
    return reduction_gap(relation, k, cfg) <= cfg.gap_tol


def orthogonal_relation_sum(first: Relation, second: Relation,
                            cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Orthogonal sum of two relations with orthogonal graphs."""
    if first.n != second.n:
        raise ValueError("space dimensions differ")
    if not first.graph.is_orthogonal_to(second.graph, cfg):
        raise ValueError("graphs are not orthogonal")
    return Relation(first.graph.sum(second.graph, cfg))


def compress(relation: Relation, k: Subspace,
             cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Rewrite a relation with graph inside K (+) K in coordinates of K.

    K^H F and K^H G are formed once.  They give the coordinates
    [K^H F; K^H G] of the graph frame, and the containment residual
    delta = ||[F - K K^H F; G - K K^H G]||_2 of the frame against K (+) K,
    block by block, without the doubled frame.  The check passes when
    delta is at most gap_tol < 1 (an empty graph passes; a NaN fails).  So
    the coordinates have Gram error delta^2 (plus the input frame's own)
    and singular values of at least sqrt(1 - delta^2): they have full
    column rank, and one Householder QR orthonormalizes them with no rank
    read.
    """
    if k.ambient_dim != relation.n:
        raise ValueError("subspace ambient dimension must equal the space dimension")
    q = k.frame
    qh = q.conj().T
    f, g = relation.F, relation.G
    top, bottom = qh @ f, qh @ g
    if not _norm2(np.vstack([f - q @ top, g - q @ bottom])) <= cfg.gap_tol:
        raise ValueError("graph is not contained in the doubled subspace")
    return Relation(Subspace(np.linalg.qr(np.vstack([top, bottom]))[0]))


def embed(relation: Relation, k: Subspace) -> Relation:
    """Inverse of :func:`compress`: re-embed a relation on K into the ambient space."""
    if relation.n != k.dim:
        raise ValueError("relation space dimension must equal dim K")
    q = k.frame
    frame = np.vstack([q @ relation.F, q @ relation.G])
    return Relation(Subspace(frame))


def adjoint_within(relation: Relation, k: Subspace,
                   cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Adjoint of a relation with graph inside K (+) K, taken in K.

    The graph is compressed to coordinates of K, the adjoint is computed
    there, and the result is re-embedded; its graph again lies in K (+) K.
    """
    return embed(compress(relation, k, cfg).adjoint(), k)


@dataclass(frozen=True)
class ReductionReport(Certified):
    """Certificates attached to a candidate reducing subspace, in report
    order; the first one is the ``reducing`` verdict.  ``ok`` is
    ``passed``."""

    certificates: tuple

    @property
    def ok(self) -> bool:
        return self.passed

    @property
    def reducing(self) -> bool:
        return self.certificates[0].passed

    @property
    def residuals(self) -> dict:
        return {c.name: c.residual for c in self.certificates}


def reduction_certificates(relation: Relation, k: Subspace,
                           cfg: ToleranceConfig = DEFAULT_TOL) -> ReductionReport:
    """Verify the full consequences of K reducing the relation.

    For a reducing K this checks that K and its complement are invariant,
    that K reduces the adjoint and the Z transforms at +-i, that all four
    graph parts split orthogonally across K and its complement, that the
    adjoint distributes onto the restricted parts, and that the adjoint of
    the orthogonal part sum equals the orthogonal sum of the within-K
    adjoints.  Every check is evaluated whether or not K reduces; failures
    are reported, never raised.  The restrictions of T and of its adjoint
    are taken once and shared by all checks.
    """
    if k.ambient_dim != relation.n:
        raise ValueError("subspace ambient dimension must equal the space dimension")
    certificates = []

    def cert(name, residual):
        certificates.append(Certificate(name, residual, cfg.gap_tol))

    k_perp = k.complement()
    part_k, part_p, r_red = _split(relation, k, k_perp, cfg)
    cert("reducing", r_red)

    # The domain and multivalued splittings are symmetric in K and K-perp.
    dom, mul = relation.dom(cfg), relation.mul(cfg)
    dom_k, dom_p = dom.intersect(k, cfg), dom.intersect(k_perp, cfg)
    r_dom = _sum_gap(dom, dom_k, dom_p, cfg)
    r_mul = _sum_gap(mul, mul.intersect(k, cfg), mul.intersect(k_perp, cfg), cfg)
    part_dom_k, part_dom_p = part_k.dom(cfg), part_p.dom(cfg)
    for label, part_dom, dom_in in (("k", part_dom_k, dom_k), ("k_perp", part_dom_p, dom_p)):
        cert(f"invariant_{label}_domain", r_dom)
        cert(f"invariant_{label}_multivalued", r_mul)
        cert(f"invariant_{label}_restriction_domain", part_dom.gap(dom_in))

    adj = relation.adjoint()
    adj_k, adj_p, r_adj = _split(adj, k, k_perp, cfg)
    cert("adjoint_reduced", r_adj)
    for label, zeta in (("+i", 1j), ("-i", -1j)):
        transform = z_transform(relation, zeta, cfg)
        cert(f"transform_reduced{label}", _split(transform, k, k_perp, cfg)[2])

    for name, whole, a, b in (
        ("dom", dom, part_dom_k, part_dom_p),
        ("ran", relation.ran(cfg), part_k.ran(cfg), part_p.ran(cfg)),
        ("ker", relation.ker(cfg), part_k.ker(cfg), part_p.ker(cfg)),
        ("mul", mul, part_k.mul(cfg), part_p.mul(cfg)),
    ):
        cert(f"split_{name}", _sum_gap(whole, a, b, cfg))

    within_k = adjoint_within(part_k, k, cfg)
    within_p = adjoint_within(part_p, k_perp, cfg)
    cert("adjoint_distribution_k", within_k.gap(adj_k))
    cert("adjoint_distribution_k_perp", within_p.gap(adj_p))
    cert("adjoint_sum_identity", _sum_gap(adj.graph, within_k.graph, within_p.graph, cfg))
    return ReductionReport(tuple(certificates))
