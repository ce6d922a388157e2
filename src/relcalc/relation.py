"""Closed linear relations in C^n (+) C^n and their algebra.

A relation is a subspace of the doubled space, stored as its graph frame.
Splitting the frame into its top block F and bottom block G describes the
relation as ``{(Fx, Gx)}``; every relation is closed by representation.
The module provides construction, the four graph parts dom/ran/ker/mul,
sum / scalar multiple / composition / inverse, the adjoint, restrictions,
deficiency spaces, classification predicates and pointwise spectral
classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .subspace import DEFAULT_TOL, Subspace, ToleranceConfig, _complement_frame, _kernel, _rank

__all__ = [
    "Relation",
    "GraphParts",
    "ClassificationReport",
    "SpectralPointClass",
    "doubled",
    "classify",
    "classify_point",
    "operator_matrix",
]


class GraphParts(NamedTuple):
    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace


class SpectralPointClass(enum.Enum):
    """Pointwise spectral verdict for a pair (relation, complex number).

    REGULAR means the shifted relation has a bounded everywhere-defined
    inverse; POINT means a nontrivial eigenspace; RESIDUAL means the
    inverse is a bounded operator defined on a proper subspace.
    """

    REGULAR = "regular"
    POINT = "point"
    RESIDUAL = "residual"


@dataclass(frozen=True)
class ClassificationReport:
    """Boolean predicates of a relation plus witnessing data.

    Implications baked into the definitions: unitary => isometry =>
    contraction, selfadjoint => symmetric => dissipative; in finite
    dimension every operator is bounded.  ``witness`` is a graph vector
    (in the doubled space) violating dissipativity or the contraction
    inequality when the corresponding flag is false.  ``residuals``
    records the numbers each verdict compared against its tolerance.
    """

    is_operator: bool
    is_contraction: bool
    is_isometry: bool
    is_unitary: bool
    is_dissipative: bool
    is_symmetric: bool
    is_selfadjoint: bool
    is_maximal_dissipative: bool
    witness: np.ndarray | None
    residuals: dict


@dataclass(frozen=True)
class Relation:
    """A closed linear relation, i.e. a subspace of C^n (+) C^n."""

    graph: Subspace

    def __post_init__(self) -> None:
        if self.graph.ambient_dim % 2 != 0:
            raise ValueError("graph must live in a doubled (even-dimensional) space")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_operator(cls, matrix, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Graph of an everywhere-defined operator given by a square matrix."""
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        n = m.shape[0]
        stacked = np.vstack([np.eye(n, dtype=complex), m])
        return cls(Subspace.span(stacked, cfg, ambient_dim=2 * n))

    @classmethod
    def from_pairs(cls, pairs: Iterable, n=None, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Span of a family of (f, g) pairs; ``n`` is required when empty."""
        cols = []
        for f, g in pairs:
            fv = np.asarray(f, dtype=complex).reshape(-1)
            gv = np.asarray(g, dtype=complex).reshape(-1)
            if n is None:
                n = fv.shape[0]
            if fv.shape[0] != n or gv.shape[0] != n:
                raise ValueError("pair components must all have length n")
            cols.append(np.concatenate([fv, gv]))
        if n is None:
            raise ValueError("empty family needs an explicit space dimension")
        return cls(Subspace.span(cols, cfg, ambient_dim=2 * n))

    @classmethod
    def from_graph_matrix(cls, f_block, g_block, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Relation spanned by the columns of the stacked blocks [F; G]."""
        f = np.asarray(f_block, dtype=complex)
        g = np.asarray(g_block, dtype=complex)
        if f.shape != g.shape:
            raise ValueError("F and G must have the same shape")
        return cls(Subspace.span(np.vstack([f, g]), cfg, ambient_dim=2 * f.shape[0]))

    @classmethod
    def zero(cls, n: int) -> "Relation":
        return cls(Subspace.zero(2 * n))

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls.from_operator(np.eye(n))

    # -- accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        """Dimension of the underlying space H."""
        return self.graph.ambient_dim // 2

    @property
    def F(self) -> np.ndarray:
        return self.graph.frame[: self.n]

    @property
    def G(self) -> np.ndarray:
        return self.graph.frame[self.n :]

    def _check_space(self, other: "Relation") -> None:
        if self.n != other.n:
            raise ValueError(f"space dimensions differ: {self.n} vs {other.n}")

    def gap(self, other: "Relation") -> float:
        self._check_space(other)
        return self.graph.gap(other.graph)

    def equals(self, other: "Relation", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        return self.gap(other) < cfg.gap_tol

    # -- graph parts ----------------------------------------------------

    def dom(self, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
        return Subspace.span(self.F, cfg, ambient_dim=self.n, scale=1.0)

    def ran(self, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
        return Subspace.span(self.G, cfg, ambient_dim=self.n, scale=1.0)

    def ker(self, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
        null_g = _kernel(self.G, cfg.rank_tol, scale=1.0)
        return Subspace.span(self.F @ null_g, cfg, ambient_dim=self.n, scale=1.0)

    def mul(self, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
        null_f = _kernel(self.F, cfg.rank_tol, scale=1.0)
        return Subspace.span(self.G @ null_f, cfg, ambient_dim=self.n, scale=1.0)

    def graph_parts(self, cfg: ToleranceConfig = DEFAULT_TOL) -> GraphParts:
        return GraphParts(self.dom(cfg), self.ran(cfg), self.ker(cfg), self.mul(cfg))

    # -- algebra --------------------------------------------------------

    def add(self, other: "Relation", cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Relation sum ``{(f, g + h) : (f, g) in self, (f, h) in other}``.

        Built in a tripled ambient space by intersecting the two lifted
        constraint subspaces and mapping each triple (f, g, h) to
        (f, g + h), which avoids pseudo-inverse noise on multivalued parts.
        """
        self._check_space(other)
        n = self.n
        triples = _lift(self, 0, 1).intersect(_lift(other, 0, 2), cfg)
        w = triples.frame
        mapped = np.vstack([w[:n], w[n : 2 * n] + w[2 * n :]])
        return Relation(Subspace.span(mapped, cfg, ambient_dim=2 * n, scale=1.0))

    def scale(self, zeta: complex, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Relation ``{(f, zeta * g)}``.  For zeta = 0 the graph collapses
        to ``dom x {0}``, not to the zero relation."""
        zc = _finite_zeta(zeta)
        mapped = np.vstack([self.F, zc * self.G])
        return Relation(Subspace.span(mapped, cfg, ambient_dim=2 * self.n, scale=1.0))

    def compose(self, other: "Relation", cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Composition self o other: ``{(f, k) : (f, g) in other, (g, k) in self}``."""
        self._check_space(other)
        n = self.n
        triples = _lift(other, 0, 1).intersect(_lift(self, 1, 2), cfg)
        w = triples.frame
        mapped = np.vstack([w[:n], w[2 * n :]])
        return Relation(Subspace.span(mapped, cfg, ambient_dim=2 * n, scale=1.0))

    def inverse(self) -> "Relation":
        """Relation ``{(g, f)}``; swapping the blocks keeps the frame
        orthonormal, so no refactorization is needed."""
        return Relation(Subspace(np.vstack([self.G, self.F])))

    def adjoint(self, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Adjoint relation: the orthogonal complement of -(inverse graph).

        Equivalently the pairs (h, k) with <k, f> = <h, g> for every graph
        pair (f, g).  The flipped frame is orthonormal, so no tolerance is
        read; ``cfg`` is accepted for a uniform signature.
        """
        flipped = np.vstack([self.G, -self.F])  # stays orthonormal
        return Relation(Subspace(_complement_frame(flipped)))

    def restrict(self, space: Subspace, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Intersection with ``space (+) space`` (the restricted part)."""
        if space.ambient_dim != self.n:
            raise ValueError("subspace ambient dimension must equal the space dimension")
        return Relation(self.graph.intersect(doubled(space), cfg))

    def restrict_domain(self, space: Subspace, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Intersection with ``space (+) H`` (domain restriction)."""
        if space.ambient_dim != self.n:
            raise ValueError("subspace ambient dimension must equal the space dimension")
        n = self.n
        frame = np.zeros((2 * n, space.dim + n), dtype=complex)
        frame[:n, : space.dim] = space.frame
        frame[n:, space.dim :] = np.eye(n)
        return Relation(self.graph.intersect(Subspace(frame), cfg))

    def deficiency(self, zeta: complex, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """The pairs (f, zeta*f) inside the relation; its domain is
        ker(T - zeta*I).

        For graph coefficients c the sine of the angle between (Fc, Gc) and
        the line {(f, zeta*f)} is |(G - zeta*F) c| / sqrt(1 + |zeta|^2), so
        the kernel of that matrix at the cut sqrt(2) * rank_tol gives the
        same directions as ``graph.intersect(line)``.  One refinement step
        removes what rounding left of the kept singular directions from the
        kernel, and each direction is returned halfway between the graph
        and the line, as ``intersect`` does.
        """
        zc = _finite_zeta(zeta)
        if self.graph.dim == 0:
            return Relation.zero(self.n)
        norm2 = 1.0 + abs(zc) ** 2
        f, g = self.F, self.G
        shifted = (g - zc * f) / np.sqrt(norm2)
        u, s, vh = np.linalg.svd(shifted, full_matrices=self.n < self.graph.dim)
        r = _rank(s, np.sqrt(2) * cfg.rank_tol, scale=1.0)
        v = vh.conj().T
        kept, coeffs = v[:, :r], v[:, r:]
        # Subtract the pseudo-inverse image of the kernel's rounding residual.
        coeffs = coeffs - kept @ ((u[:, :r].conj().T @ (shifted @ coeffs)) / s[:r, None])
        top, bot = f @ coeffs, g @ coeffs
        foot = (top + np.conj(zc) * bot) / norm2  # the line's point nearest (top, bot)
        return Relation(Subspace(np.vstack([top + foot, bot + zc * foot]) / 2))

    def image(self, space: Subspace, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
        """Image ``{g : (f, g) in T, f in space}`` of a subspace.

        Computed directly from the graph parameterization: the admissible
        coefficients are the kernel of the F block projected off the
        subspace, and their G side spans the image.
        """
        if space.ambient_dim != self.n:
            raise ValueError("subspace ambient dimension must equal the space dimension")
        off = self.F - space.frame @ (space.frame.conj().T @ self.F)
        coeffs = _kernel(off, cfg.rank_tol, scale=1.0)
        return Subspace.span(self.G @ coeffs, cfg, ambient_dim=self.n, scale=1.0)

    def conjugate_by(self, unitary, cfg: ToleranceConfig = DEFAULT_TOL) -> "Relation":
        """Relation ``{(Qf, Qg)}`` for a unitary matrix Q."""
        q = np.asarray(unitary, dtype=complex)
        mapped = np.vstack([q @ self.F, q @ self.G])
        return Relation(Subspace.span(mapped, cfg, ambient_dim=2 * self.n, scale=1.0))

    # -- operator sugar -------------------------------------------------

    def __add__(self, other: "Relation") -> "Relation":
        return self.add(other)

    def __rmul__(self, zeta: complex) -> "Relation":
        return self.scale(zeta)

    def __neg__(self) -> "Relation":
        return self.scale(-1.0)

    def __matmul__(self, other: "Relation") -> "Relation":
        return self.compose(other)

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, graph_dim={self.graph.dim})"


def _lift(relation: Relation, first: int, second: int) -> Subspace:
    """The graph placed in blocks ``first`` and ``second`` of the triple
    space C^n (+) C^n (+) C^n, spanned with the identity on the third block."""
    n, r = relation.n, relation.graph.dim
    frame = np.zeros((3 * n, r + n), dtype=complex)
    frame[first * n : (first + 1) * n, :r] = relation.F
    frame[second * n : (second + 1) * n, :r] = relation.G
    third = 3 - first - second
    frame[third * n : (third + 1) * n, r:] = np.eye(n)
    return Subspace(frame)


def _finite_zeta(zeta) -> complex:
    """``zeta`` as a complex number, rejected unless finite."""
    zc = complex(zeta)
    if not np.isfinite(zc):
        raise ValueError("zeta must be finite")
    return zc


def doubled(space: Subspace) -> Subspace:
    """The subspace ``K (+) K`` of the doubled ambient space."""
    d, r = space.frame.shape
    frame = np.zeros((2 * d, 2 * r), dtype=complex)
    frame[:d, :r] = space.frame
    frame[d:, r:] = space.frame
    return Subspace(frame)


def operator_matrix(relation: Relation, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Matrix of an everywhere-defined operator relation.

    Requires mul T = {0} and dom T = C^n; then the graph frame's top block
    is square and invertible and the matrix is G F^{-1}.
    """
    n = relation.n
    if relation.graph.dim != n or relation.mul(cfg).dim != 0 or relation.dom(cfg).dim != n:
        raise ValueError("relation is not an everywhere-defined operator")
    return np.linalg.solve(relation.F.T, relation.G.T).T


def _form_eigh(form: np.ndarray):
    if form.shape[0] > 0:
        return np.linalg.eigh(form)
    return np.zeros(0), np.zeros((0, 0))


def _dissipation_form(relation: Relation):
    """Eigenvalues and eigenvectors of the dissipation form (F*G - G*F)/2i."""
    f, g = relation.F, relation.G
    return _form_eigh((f.conj().T @ g - g.conj().T @ f) / 2j)


def _contraction_form(relation: Relation):
    """Eigenvalues and eigenvectors of the contraction form F*F - G*G."""
    f, g = relation.F, relation.G
    return _form_eigh(f.conj().T @ f - g.conj().T @ g)


def _min_eig(w: np.ndarray) -> float:
    """Smallest form eigenvalue; 0 for the empty form."""
    return float(w.min()) if w.size else 0.0


def _max_abs_eig(w: np.ndarray) -> float:
    """Largest form eigenvalue in modulus; 0 for the empty form."""
    return float(np.abs(w).max()) if w.size else 0.0


def _is_symmetric(relation: Relation, cfg: ToleranceConfig) -> bool:
    """Whether the dissipation form vanishes to within ``psd_tol``."""
    return _max_abs_eig(_dissipation_form(relation)[0]) <= cfg.psd_tol


def _shifted_range(relation: Relation, cfg: ToleranceConfig) -> Subspace:
    """ran(T + iI); for dissipative T it is C^n exactly when T is maximal."""
    return Subspace.span(relation.G + 1j * relation.F, cfg, ambient_dim=relation.n, scale=1.0)


def classify(relation: Relation, cfg: ToleranceConfig = DEFAULT_TOL) -> ClassificationReport:
    """Classification predicates evaluated on the graph frame.

    With generators (F, G) the quantified definitions reduce to eigenvalue
    tests of small Hermitian matrices: the dissipation form
    (F*G - G*F)/2i is PSD iff the relation is dissipative and vanishes iff
    it is symmetric, while F*F - G*G being PSD (resp. zero) captures the
    contraction (resp. isometry) inequality.  Maximality of a dissipative
    relation is the range criterion ran(T + iI) = C^n.
    """
    n = relation.n
    w, vecs = _dissipation_form(relation)
    diss_min, sym_dev = _min_eig(w), _max_abs_eig(w)
    w2, vecs2 = _contraction_form(relation)
    contr_min, iso_dev = _min_eig(w2), _max_abs_eig(w2)

    is_dissipative = diss_min >= -cfg.psd_tol
    is_symmetric = sym_dev <= cfg.psd_tol
    is_contraction = contr_min >= -cfg.psd_tol
    is_isometry = iso_dev <= cfg.psd_tol

    parts = relation.graph_parts(cfg)
    is_operator = parts.mul.dim == 0

    adj = relation.adjoint(cfg)
    sa_gap = relation.graph.gap(adj.graph)
    is_selfadjoint = sa_gap < cfg.gap_tol

    is_unitary = is_isometry and parts.dom.dim == n and parts.ran.dim == n

    # For dissipative T the map (f, g) -> g + i f is isometric-or-expanding
    # on the graph, so the range dimension equals the graph dimension.
    ran_shift = _shifted_range(relation, cfg)
    is_maximal_dissipative = is_dissipative and ran_shift.dim == n

    witness = None
    if not is_dissipative:
        witness = relation.graph.frame @ vecs[:, 0]
    elif not is_contraction:
        witness = relation.graph.frame @ vecs2[:, 0]

    return ClassificationReport(
        is_operator=is_operator,
        is_contraction=is_contraction,
        is_isometry=is_isometry,
        is_unitary=is_unitary,
        is_dissipative=is_dissipative,
        is_symmetric=is_symmetric,
        is_selfadjoint=is_selfadjoint,
        is_maximal_dissipative=is_maximal_dissipative,
        witness=witness,
        residuals={
            "dissipation_min_eig": diss_min,
            "symmetry_deviation": sym_dev,
            "contraction_min_eig": contr_min,
            "isometry_deviation": iso_dev,
            "selfadjoint_gap": sa_gap,
            "shifted_range_codim": float(n - ran_shift.dim),
        },
    )


def classify_point(relation: Relation, zeta: complex,
                   cfg: ToleranceConfig = DEFAULT_TOL) -> SpectralPointClass:
    """Pointwise spectral classification of zeta for the relation.

    POINT when ker(T - zeta*I) is nontrivial; otherwise REGULAR when
    ran(T - zeta*I) is the whole space, else RESIDUAL.  Ranges are closed
    in finite dimension, so no continuous spectrum can occur.
    """
    if relation.deficiency(zeta, cfg).dom(cfg).dim > 0:  # rejects a non-finite zeta
        return SpectralPointClass.POINT
    zc = complex(zeta)
    shifted = relation.G - zc * relation.F
    scale = max(1.0, abs(zc))
    ran_dim = Subspace.span(shifted, cfg, ambient_dim=relation.n, scale=scale).dim
    if ran_dim == relation.n:
        return SpectralPointClass.REGULAR
    return SpectralPointClass.RESIDUAL
