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

from .relation import Relation, doubled
from .subspace import DEFAULT_TOL, Certificate, Certified, Subspace, ToleranceConfig
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


def _split(relation: Relation, k: Subspace, k_perp: Subspace, cfg: ToleranceConfig):
    """Restrictions of T to K and K-perp, and the gap between T and their sum."""
    part_k = relation.restrict(k, cfg)
    part_p = relation.restrict(k_perp, cfg)
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

    The containment check passes when the residual delta of the graph
    frame against K (+) K is at most gap_tol < 1.  So the coordinates of
    the frame in K have Gram error delta^2 (plus the input frame's own) and
    singular values of at least sqrt(1 - delta^2): they have full column
    rank, and one Householder QR orthonormalizes them with no rank read.
    """
    if not doubled(k).contains(relation.graph, cfg):
        raise ValueError("graph is not contained in the doubled subspace")
    qh = k.frame.conj().T
    coords = np.vstack([qh @ relation.F, qh @ relation.G])
    return Relation(Subspace(np.linalg.qr(coords)[0]))


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
