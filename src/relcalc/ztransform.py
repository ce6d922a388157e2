"""The Z transform of linear relations and its identity suite.

``z_transform(T, zeta)`` maps graph pairs (f, g) to
(g - conj(zeta) f, conj(zeta) g - |zeta|^2 f).  At zeta = i this is the
bijection between dissipative relations and contractions; it is involutive
for non-real zeta.  The substitution matrix has determinant
conj(zeta) * (zeta - conj(zeta)), so for real or zero zeta the graph
dimension may drop and nothing here assumes it is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relation import Relation, _finite_zeta, doubled
from .subspace import DEFAULT_TOL, Subspace, ToleranceConfig

__all__ = ["z_transform", "z_properties_check", "subspace_fixed_point_check", "ZPropertyReport"]


def z_transform(relation: Relation, zeta: complex,
                cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Z transform of a relation at the point zeta.

    The result satisfies dom = ran(T - conj(zeta) I), ran = ran(T - zeta I),
    mul = ker(T - conj(zeta) I) and ker = ker(T - zeta I).
    """
    zc = _finite_zeta(zeta)
    f, g = relation.F, relation.G
    top = g - np.conj(zc) * f
    bot = np.conj(zc) * g - (abs(zc) ** 2) * f
    graph = Subspace.span(
        np.vstack([top, bot]), cfg, ambient_dim=2 * relation.n, scale=max(1.0, abs(zc) ** 2)
    )
    return Relation(graph)


def subspace_fixed_point_check(space: Subspace, zeta: complex,
                               cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether K (+) K is a fixed point of the Z transform at zeta.

    Holds for every subspace when zeta is non-real (and trivially for the
    zero subspace); for real zeta the transform collapses the graph.
    """
    square = Relation(doubled(space))
    return z_transform(square, zeta, cfg).equals(square, cfg)


@dataclass(frozen=True)
class ZPropertyReport:
    """Per-identity verdicts of the Z-transform identity suite.

    Entries are True/False when the identity was evaluated and None when
    its hypothesis is not met by the supplied zeta or operands (recorded
    in ``notes``).  ``residuals`` holds the gap each verdict compared
    against gap_tol.
    """

    zeta: complex
    results: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v for v in self.results.values() if v is not None)


def z_properties_check(t: Relation, s: Relation, zeta: complex,
                       cfg: ToleranceConfig = DEFAULT_TOL) -> ZPropertyReport:
    """Evaluate the Z-transform identity suite on a pair of relations.

    Identities checked (gap-metric equalities unless noted):

    - involution:             Z(Z(T)) = T
    - containment:            T in S  <=>  Z(T) in Z(S)
    - negation:               Z_{-zeta}(T) = -Z_zeta(-T)
    - inverse (|zeta| = 1):   Z_zeta(T^{-1}) = Z_{conj zeta}(T) = Z_zeta(T)^{-1}
    - direct_sum (non-real):  Z(T + S) = Z(T) + Z(S) for independent graphs
    - orthogonal_sum (+-i):   Z(T (+) S) = Z(T) (+) Z(S) for orthogonal graphs
    - adjoint (non-real):     Z_zeta(T*) = (Z_{conj zeta}(T))*
    - closure (non-real):     the image graph is already closed

    Hypothesis violations mark the entry None rather than raising.
    """
    zc = complex(zeta)
    results: dict = {}
    residuals: dict = {}
    notes: dict = {}
    nonreal = abs(zc.imag) > 0

    zt = z_transform(t, zc, cfg)
    zs = z_transform(s, zc, cfg)

    r = z_transform(zt, zc, cfg).gap(t)
    results["involution"] = r < cfg.gap_tol
    residuals["involution"] = r

    lhs = s.graph.contains(t.graph, cfg)
    rhs = zs.graph.contains(zt.graph, cfg)
    results["containment"] = lhs == rhs
    residuals["containment"] = float(lhs != rhs)

    r = z_transform(t, -zc, cfg).gap(z_transform(t.scale(-1.0, cfg), zc, cfg).scale(-1.0, cfg))
    results["negation"] = r < cfg.gap_tol
    residuals["negation"] = r

    if abs(abs(zc) - 1.0) < 1e-12:
        z_inv = z_transform(t.inverse(), zc, cfg)
        r1 = z_inv.gap(z_transform(t, np.conj(zc), cfg))
        r2 = z_inv.gap(zt.inverse())
        r = max(r1, r2)
        results["inverse"] = r < cfg.gap_tol
        residuals["inverse"] = r
    else:
        results["inverse"] = None
        notes["inverse"] = "requires |zeta| = 1"

    if not nonreal:
        for key in ("direct_sum", "orthogonal_sum", "adjoint", "closure"):
            results[key] = None
            notes[key] = "requires non-real zeta"
        return ZPropertyReport(zeta=zc, results=results, residuals=residuals, notes=notes)

    graph_sum = t.graph.sum(s.graph, cfg)
    if graph_sum.dim == t.graph.dim + s.graph.dim:
        lhs_rel = z_transform(Relation(graph_sum), zc, cfg)
        r = lhs_rel.graph.gap(zt.graph.sum(zs.graph, cfg))
        results["direct_sum"] = r < cfg.gap_tol
        residuals["direct_sum"] = r
    else:
        results["direct_sum"] = None
        notes["direct_sum"] = "graphs are not independent"

    if abs(zc - 1j) < 1e-12 or abs(zc + 1j) < 1e-12:
        if t.graph.is_orthogonal_to(s.graph, cfg):
            lhs_rel = z_transform(Relation(t.graph.sum(s.graph, cfg)), zc, cfg)
            r = lhs_rel.graph.gap(zt.graph.sum(zs.graph, cfg))
            results["orthogonal_sum"] = r < cfg.gap_tol
            residuals["orthogonal_sum"] = r
        else:
            results["orthogonal_sum"] = None
            notes["orthogonal_sum"] = "graphs are not orthogonal"
    else:
        results["orthogonal_sum"] = None
        notes["orthogonal_sum"] = "requires zeta = +-i"

    r = z_transform(t.adjoint(cfg), zc, cfg).gap(z_transform(t, np.conj(zc), cfg).adjoint(cfg))
    results["adjoint"] = r < cfg.gap_tol
    residuals["adjoint"] = r

    # Closure is the identity map in this representation; re-orthonormalizing
    # the image frame must reproduce the same graph.
    reclosed = Relation(Subspace.span(zt.graph.frame, cfg, ambient_dim=2 * t.n))
    r = zt.gap(reclosed)
    results["closure"] = r < cfg.gap_tol
    residuals["closure"] = r

    return ZPropertyReport(zeta=zc, results=results, residuals=residuals, notes=notes)
