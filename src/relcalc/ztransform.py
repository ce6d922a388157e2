"""The Z transform of linear relations and its identity suite.

``z_transform(T, zeta)`` maps graph pairs (f, g) to
(g - conj(zeta) f, conj(zeta) g - |zeta|^2 f).  At zeta = i this is the
bijection between dissipative relations and contractions; it is involutive
for non-real zeta.  The substitution matrix has determinant
conj(zeta) * (zeta - conj(zeta)), so for real or zero zeta the graph
dimension may drop and nothing here assumes it is preserved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .relation import Relation, _finite_zeta, doubled
from .subspace import DEFAULT_TOL, Certificate, Certified, Subspace, ToleranceConfig

__all__ = ["z_transform", "z_properties_check", "subspace_fixed_point_check", "ZPropertyReport"]


def z_transform(relation: Relation, zeta: complex,
                cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Z transform of a relation at the point zeta.

    The result satisfies dom = ran(T - conj(zeta) I), ran = ran(T - zeta I),
    mul = ker(T - conj(zeta) I) and ker = ker(T - zeta I).

    At zeta = +-i the substitution is sqrt(2) times a unitary map of the
    doubled space, so it takes the orthonormal graph frame to an
    orthonormal frame of the image: that frame, divided by sqrt(2), is
    returned with no factorization and no tolerance read.  At every other
    zeta the image generators are spanned, with a rank cut at
    ``rank_tol * max(1, |zeta|^2)``.
    """
    zc = _finite_zeta(zeta)
    f, g = relation.F, relation.G
    top = g - np.conj(zc) * f
    bot = np.conj(zc) * g - (abs(zc) ** 2) * f
    image = np.vstack([top, bot])
    if zc == 1j or zc == -1j:
        return Relation(Subspace(image / np.sqrt(2)))
    return Relation(Subspace.span(image, cfg, ambient_dim=2 * relation.n,
                                  scale=max(1.0, abs(zc) ** 2)))


def subspace_fixed_point_check(space: Subspace, zeta: complex,
                               cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether K (+) K is a fixed point of the Z transform at zeta.

    Holds for every subspace when zeta is non-real (and trivially for the
    zero subspace); for real zeta the transform collapses the graph.
    """
    square = Relation(doubled(space))
    return z_transform(square, zeta, cfg).equals(square, cfg)


# The identity suite of ``z_properties_check``, in report order.
_IDENTITIES = ("involution", "containment", "negation", "inverse",
               "direct_sum", "orthogonal_sum", "adjoint", "closure")


@dataclass(frozen=True)
class ZPropertyReport(Certified):
    """Per-identity verdicts of the Z-transform identity suite.

    Each evaluated identity is a certificate of its residual against
    gap_tol; an identity whose hypothesis the supplied zeta or
    operands do not meet is not evaluated, and ``notes`` says why.
    ``results`` maps every identity, in suite order, to its verdict, or
    to None when it was not evaluated.
    """

    zeta: complex
    certificates: tuple
    notes: dict

    @property
    def results(self) -> dict:
        passed = {c.name: c.passed for c in self.certificates}
        return {name: passed.get(name) for name in _IDENTITIES}


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

    Hypothesis violations are recorded in ``notes`` rather than raised.
    """
    zc = complex(zeta)
    certificates = []
    notes = {}

    def check(name, unmet, residual):
        """Certify ``residual()`` against gap_tol, or note the unmet hypothesis."""
        if unmet:
            notes[name] = unmet
            return
        certificates.append(Certificate(name, residual(), cfg.gap_tol))

    # Z_point(T) once per point: negation, inverse and adjoint share
    # Z_{conj zeta}(T), which is Z_{-zeta}(T) at imaginary zeta.
    z_of_t = functools.cache(lambda point: z_transform(t, point, cfg))
    zt = z_of_t(zc)
    zs = z_transform(s, zc, cfg)

    check("involution", None, lambda: z_transform(zt, zc, cfg).gap(t))
    check("containment", None,
          lambda: s.graph.contains(t.graph, cfg) != zs.graph.contains(zt.graph, cfg))
    check("negation", None, lambda: z_of_t(-zc).gap(
        z_transform(t.scale(-1.0, cfg), zc, cfg).scale(-1.0, cfg)))

    def inverse_residual():
        z_inv = z_transform(t.inverse(), zc, cfg)
        return max(z_inv.gap(z_of_t(np.conj(zc))), z_inv.gap(zt.inverse()))

    check("inverse", None if abs(abs(zc) - 1.0) < 1e-12 else "requires |zeta| = 1",
          inverse_residual)

    real = None if zc.imag else "requires non-real zeta"
    graph_sum = None if real else t.graph.sum(s.graph, cfg)

    @functools.cache  # shared by direct_sum and orthogonal_sum
    def sum_residual():
        return z_transform(Relation(graph_sum), zc, cfg).graph.gap(zt.graph.sum(zs.graph, cfg))

    check("direct_sum",
          real or (None if graph_sum.dim == t.graph.dim + s.graph.dim
                   else "graphs are not independent"),
          sum_residual)
    near_i = min(abs(zc - 1j), abs(zc + 1j)) < 1e-12
    check("orthogonal_sum",
          real or (None if near_i else "requires zeta = +-i")
          or (None if t.graph.is_orthogonal_to(s.graph, cfg) else "graphs are not orthogonal"),
          sum_residual)
    check("adjoint", real, lambda: z_transform(t.adjoint(), zc, cfg).gap(
        z_of_t(np.conj(zc)).adjoint()))
    # Closure is the identity map in this representation; re-orthonormalizing
    # the image frame must reproduce the same graph.
    check("closure", real,
          lambda: zt.gap(Relation(Subspace.span(zt.graph.frame, cfg, ambient_dim=2 * t.n))))
    return ZPropertyReport(zc, tuple(certificates), notes)
