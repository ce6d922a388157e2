"""Truncated sequence-space model of the shift and its symmetric preimage.

Everything here lives in C^N with canonical basis delta_1..delta_N
(1-based, matching the sequence-space convention).  The builders produce:

- the truncated unilateral shift S with generators (delta_k, delta_{k+1});
- the symmetric operator A with generators
  (delta_k - i delta_{k+1}, i delta_k - delta_{k+1}), whose Z transform at
  i is exactly S;
- the domain restriction B of A to the complement of span{delta_1};
- the purely multivalued line Y = span{(0, delta_1)};
- the extension B (+) Y, a closed symmetric relation with multivalued
  part span{delta_1}.

Finite truncation cannot preserve maximality, so identities are asserted
*window-exactly*: both sides are orthogonally compressed onto the first
N - margin coordinates, where the finite and infinite models agree.  Each
graph operation reaches at most one neighboring index; the default margin
of 4 covers the stencil, the adjoint and one decomposition step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import symmetric_wold_decompose
from .invariance import adjoint_within, orthogonal_relation_sum
from .relation import Relation, _deficiency_dim, _dom_dim, _is_symmetric, _mul_dim
from .subspace import (
    DEFAULT_TOL,
    Certificate,
    Certified,
    Subspace,
    ToleranceConfig,
    _move_to_front,
    _norm2,
    _orthonormal_columns,
    _rank_of,
    _residual,
)
from .ztransform import z_transform

__all__ = [
    "WindowConfig",
    "build_shift",
    "build_elementary_symmetric",
    "build_restricted_symmetric",
    "build_multivalued_line",
    "build_multivalued_extension",
    "delta_span",
    "window_span",
    "window_compress",
    "window_gap",
    "window_assert",
    "spectral_window_probe",
    "SpectralProbe",
    "run_shift_example",
    "ShiftExampleReport",
]


@dataclass(frozen=True)
class WindowConfig:
    """Truncation size N and the margin of edge indices excluded from
    exact assertions (window = indices 1..N-margin)."""

    n: int
    margin: int = 4

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError("truncation dimension must be at least 8")
        if self.margin < 2:
            raise ValueError("margin must be at least 2")
        if self.window_dim < 1:
            raise ValueError("window is empty")

    @property
    def window_dim(self) -> int:
        return self.n - self.margin


def _stencil(w: WindowConfig, on: complex, below: complex) -> np.ndarray:
    """N x (N-1) block whose k-th column is on * delta_k + below * delta_{k+1}."""
    k = np.arange(w.n - 1)
    block = np.zeros((w.n, w.n - 1), dtype=complex)
    block[k, k] = on
    block[k + 1, k] = below
    return block


def build_shift(w: WindowConfig) -> Relation:
    """Truncated unilateral shift: delta_k -> delta_{k+1}, k = 1..N-1."""
    return Relation.from_graph_matrix(_stencil(w, 1.0, 0.0), _stencil(w, 0.0, 1.0))


def build_elementary_symmetric(w: WindowConfig) -> Relation:
    """Truncation of the symmetric operator whose Z transform at i is the
    shift, using the generator family obtained by feeding each basis
    vector through the defining sum."""
    return Relation.from_graph_matrix(_stencil(w, 1.0, -1j), _stencil(w, 1j, -1.0))


def build_restricted_symmetric(w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Domain restriction of the symmetric operator to span{delta_2..delta_N}."""
    sub = delta_span(w, range(2, w.n + 1))
    return build_elementary_symmetric(w).restrict_domain(sub, cfg)


def build_multivalued_line(w: WindowConfig) -> Relation:
    """The purely multivalued relation span{(0, delta_1)}."""
    g = np.zeros(w.n, dtype=complex)
    g[0] = 1.0
    return Relation.from_pairs([(np.zeros(w.n), g)], n=w.n)


def build_multivalued_extension(w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Orthogonal graph sum of the restricted operator and the multivalued
    line: a closed symmetric relation with multivalued part span{delta_1}."""
    return orthogonal_relation_sum(
        build_restricted_symmetric(w, cfg), build_multivalued_line(w), cfg
    )


def delta_span(w: WindowConfig, indices) -> Subspace:
    """Span of canonical basis vectors delta_k (1-based), k = 1..N."""
    ks = [int(k) for k in indices]
    if any(k < 1 or k > w.n for k in ks):
        raise ValueError("basis index out of range 1..N")
    return Subspace.from_basis_indices(w.n, [k - 1 for k in ks])


def window_span(w: WindowConfig, indices) -> Subspace:
    """Like :func:`delta_span` but restricted to window indices; an index
    beyond N - margin means the claim touches the excluded edge zone.
    The result lives in the model space and survives compression intact."""
    ks = [int(k) for k in indices]
    if any(k > w.window_dim for k in ks):
        raise ValueError(f"claim touches excluded indices (> {w.window_dim})")
    return delta_span(w, ks)


def _kept_rows_frame(kept: np.ndarray, dropped: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal frame of the column span of ``kept``, where the rows
    ``kept`` and ``dropped`` together form an orthonormal frame.  ``kept``
    is a complex array owned by the caller and is rotated in place.

    The Gram of ``kept`` is I - D^H D for the few dropped rows D, so
    ``kept`` stays orthonormal on the kernel of D.  The Householder QR of
    D^H brings the row space of D to the front (``_move_to_front``); only
    those leading rows(D) columns move.  They are orthogonalized twice
    against the rest and spanned by one thin SVD cut at ``rank_tol``
    (absolute), whose singular values are those of ``kept`` that D moved.
    """
    if kept.shape[1] == 0:
        return kept
    t = _move_to_front(dropped, kept)
    moved, still = kept[:, :t], kept[:, t:]
    for _pass in range(2):  # Gram-Schmidt twice is enough against the rest
        moved = _residual(still, moved)
    return np.hstack([_orthonormal_columns(moved, rank_tol, scale=1.0), still])


def window_compress(obj, w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL):
    """Orthogonal compression onto the window coordinates.

    Subspaces map to subspaces of C^(N-margin); relations are compressed
    blockwise in the doubled space.  The rank is read from the dropped
    rows, margin of them for a subspace and 2 * margin for a relation
    (see ``_kept_rows_frame``), at ``rank_tol`` on an absolute scale.
    """
    wd = w.window_dim
    if isinstance(obj, Relation):
        if obj.n != w.n:
            raise ValueError("relation does not live in the model space")
        kept = np.vstack([obj.F[:wd], obj.G[:wd]])
        dropped = np.vstack([obj.F[wd:], obj.G[wd:]])
        return Relation(Subspace(_kept_rows_frame(kept, dropped, cfg.rank_tol)))
    if isinstance(obj, Subspace):
        if obj.ambient_dim != w.n:
            raise ValueError("subspace does not live in the model space")
        return Subspace(_kept_rows_frame(obj.frame[:wd].copy(), obj.frame[wd:], cfg.rank_tol))
    raise TypeError("expected a Subspace or a Relation")


def window_gap(lhs, rhs, w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Gap between the window compressions of two subspaces or relations."""
    a = window_compress(lhs, w, cfg)
    b = window_compress(rhs, w, cfg)
    if isinstance(a, Relation) != isinstance(b, Relation):
        raise TypeError("cannot compare a subspace with a relation")
    return a.gap(b)


def window_assert(lhs, rhs, w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Window-exact equality of two subspaces or relations."""
    return window_gap(lhs, rhs, w, cfg) <= cfg.gap_tol


@dataclass(frozen=True)
class SpectralProbe(Certified):
    """Finite-truncation spectral probes of the symmetric operator.

    ``probe_no_eigenvalues`` certifies trivial kernels of A - zeta at the
    sampled points, whose dimensions ``eigenvalue_free`` keeps, and
    ``probe_deficiency_direction`` delta_1 inside ker(A* + i) = ran(A - i)-perp.
    ``adjoint_kernel_dims`` is reported only: the truncation distorts the
    adjoint's eigenspaces away from the probe direction.
    """

    certificates: tuple
    eigenvalue_free: dict
    adjoint_kernel_dims: dict


def spectral_window_probe(w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL) -> SpectralProbe:
    op = build_elementary_symmetric(w)
    return _window_probe(w, op, z_transform(op, 1j, cfg).ran(cfg).complement(), cfg)


def _window_probe(w: WindowConfig, op: Relation, minus_i_kernel: Subspace,
                  cfg: ToleranceConfig) -> SpectralProbe:
    """The probe of the symmetric operator ``op``, given ker(A* + i).
    Dimensions come from singular values alone: dim ker(A - zeta) as
    ``deficiency`` cuts it (``_deficiency_dim``), dim ker(A* - conj zeta)
    as N - rank(G - zeta F), the range rank that ``classify_point`` reads."""
    kernel_dims = {str(complex(zeta)): _deficiency_dim(op, zeta, cfg)
                   for zeta in (1j, -1j, 0.0, 1.0, 1.0 + 1j)}

    probe = delta_span(w, [1])
    residual = _norm2(_residual(minus_i_kernel.frame, probe.frame))

    adjoint_dims = {}
    for zeta in (-1j, -2j, 1.0 - 1j, -0.5 - 0.5j):
        rank = _rank_of(op.G - zeta * op.F, cfg.rank_tol, scale=max(1.0, abs(zeta)))
        adjoint_dims[str(complex(zeta))] = w.n - rank

    certificates = (
        Certificate("probe_no_eigenvalues", sum(kernel_dims.values()), 0),
        Certificate("probe_deficiency_direction", residual, 1e-12),
    )
    return SpectralProbe(certificates, kernel_dims, adjoint_dims)


@dataclass(frozen=True)
class ShiftExampleReport(Certified):
    """Window-exact verification of the whole sequence-space example."""

    window: WindowConfig
    certificates: tuple
    info: dict


def run_shift_example(w: WindowConfig, cfg: ToleranceConfig = DEFAULT_TOL) -> ShiftExampleReport:
    """Run the full sequence-space pipeline and certify it window-exactly.

    Steps: the Z transform of the symmetric operator reproduces the shift;
    ker(A* + i) = ran(A - i)-perp is delta_1; the three adjoint
    identities for the operator, its restriction and the multivalued
    extension hold on the window; and the symmetric splitting of the
    extension recovers the shift part on span{delta_2..} with the
    multivalued line as the selfadjoint complement part.
    """
    if w.window_dim < 2:
        raise ValueError("the splitting's claims are on delta_2: window_dim must be at least 2")
    shift = build_shift(w)
    op = build_elementary_symmetric(w)
    tail = delta_span(w, range(2, w.n + 1))
    # The same relations as build_restricted_symmetric and
    # build_multivalued_extension, built once from op.
    restricted = op.restrict_domain(tail, cfg)
    line = build_multivalued_line(w)
    extension = orthogonal_relation_sum(restricted, line, cfg)
    certificates = []

    def cert(name, residual, tolerance):
        certificates.append(Certificate(name, residual, tolerance))

    # Transform identity; exact in the full space, asserted on the window.
    transform = z_transform(op, 1j, cfg)
    cert("transform_matches_shift", window_gap(transform, shift, w, cfg), 1e-12)

    # ker(A* + i) = ran(A - i)-perp, read as spectral_window_probe reads it.
    deficiency_dir = transform.ran(cfg).complement()
    cert(
        "deficiency_line_is_delta1",
        window_gap(deficiency_dir, window_span(w, [1]), w, cfg),
        cfg.gap_tol,
    )

    def pair_line(k: int) -> Relation:
        f = np.zeros(w.n, dtype=complex)
        f[k - 1] = 1.0
        return Relation.from_pairs([(f, -1j * f)], n=w.n)

    adj_op = op.adjoint()
    cert(
        "adjoint_identity_operator",
        window_gap(adj_op, orthogonal_relation_sum(op, pair_line(1), cfg), w, cfg),
        1e-10,
    )

    restricted_plus = orthogonal_relation_sum(restricted, pair_line(2), cfg)
    cert(
        "adjoint_identity_restricted",
        window_gap(adjoint_within(restricted, tail, cfg), restricted_plus, w, cfg),
        1e-10,
    )

    cert(
        "adjoint_identity_extension",
        window_gap(
            extension.adjoint(),
            orthogonal_relation_sum(restricted_plus, line, cfg),
            w,
            cfg,
        ),
        1e-10,
    )

    # Full-ambient adjoint of the restriction is the adjoint of the operator
    # plus the multivalued line (a direct, non-orthogonal graph sum).
    cert(
        "adjoint_of_restriction_adds_line",
        window_gap(
            restricted.adjoint(),
            Relation(adj_op.graph.sum(line.graph, cfg)),
            w,
            cfg,
        ),
        1e-10,
    )

    # Wandering structure of the bare shift.
    cert(
        "shift_wandering_window",
        window_gap(shift.ran(cfg).complement(), window_span(w, [1]), w, cfg),
        cfg.gap_tol,
    )

    # The symmetric splitting of the extension.  The truncated extension is
    # not maximal at the edge, which is exactly what the window excludes.
    result = symmetric_wold_decompose(extension, cfg, require_maximal=False)
    cert(
        "splitting_wandering_is_delta2",
        window_gap(result.wandering, window_span(w, [2]), w, cfg),
        cfg.gap_tol,
    )
    cert(
        "splitting_k_window",
        window_gap(result.k, window_span(w, range(2, w.window_dim + 1)), w, cfg),
        cfg.gap_tol,
    )
    cert(
        "splitting_complement_is_delta1",
        result.k.complement().gap(delta_span(w, [1])),
        cfg.gap_tol,
    )
    cert("splitting_complement_part_is_line", result.part_k_perp.gap(line), cfg.gap_tol)
    cert(
        "splitting_complement_part_selfadjoint",
        result.certificate("part_k_perp_selfadjoint").residual,
        cfg.gap_tol,
    )

    probe = _window_probe(w, op, deficiency_dir, cfg)
    certificates += probe.certificates

    # The residual counts the model's predicates that fail.
    ext_mul = extension.mul(cfg)
    model = (
        _is_symmetric(op, cfg),
        _mul_dim(op, cfg) == 0,
        _dom_dim(op, cfg) < w.n,
        _is_symmetric(extension, cfg),
        ext_mul.dim > 0,
        ext_mul.gap(delta_span(w, [1])) <= cfg.gap_tol,
        tail.contains(restricted.ran(cfg), cfg),
    )
    cert("model_classification", model.count(False), 0)

    info = {
        "n": w.n,
        "margin": w.margin,
        "window_dim": w.window_dim,
        "splitting_iterations": result.iterations,
        "k_dim": result.k.dim,
        "wandering_dim": result.wandering.dim,
        "adjoint_kernel_dims": probe.adjoint_kernel_dims,
    }
    return ShiftExampleReport(window=w, certificates=tuple(certificates), info=info)
