"""Orthonormal-frame arithmetic for linear subspaces of C^d.

A subspace is stored as a matrix with orthonormal columns (a frame).
Frames are not canonical: two frames describe the same subspace exactly
when their orthogonal projectors coincide, so equality is always judged
in the gap metric ``||P_A - P_B||`` (operator norm), never on frames.

Rank policy.  Rank decisions compare singular values against
``rank_tol * reference``.  For user-supplied generator families the
reference is the largest singular value (or 1 if all vanish), which makes
rank detection scale invariant.  Matrices built internally from frames and
projectors are O(1) by construction, and for those a numerically-zero
matrix must read as rank zero; such call sites pin ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["ToleranceConfig", "DEFAULT_TOL", "Subspace", "orthonormalize"]

# Constructor sanity bound for frame orthonormality; independent of the
# per-operation tolerances because it guards representation validity only.
_FRAME_ATOL = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds governing every predicate in the package.

    rank_tol
        Relative singular-value cutoff for rank decisions.
    psd_tol
        Eigenvalue floor for positive-semidefiniteness tests.
    gap_tol
        Projector-distance threshold below which subspaces are equal.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-10
    gap_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_tol", "psd_tol", "gap_tol"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


DEFAULT_TOL = ToleranceConfig()


def _as_matrix(vectors, ambient_dim=None) -> np.ndarray:
    """Stack a family of vectors as columns of a complex matrix."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        mat = np.asarray(vectors, dtype=complex)
    else:
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not cols:
            if ambient_dim is None:
                raise ValueError("empty family needs an explicit ambient_dim")
            return np.zeros((ambient_dim, 0), dtype=complex)
        d = cols[0].shape[0]
        for v in cols:
            if v.shape[0] != d:
                raise ValueError("vectors have mismatched lengths")
        mat = np.column_stack(cols)
    if ambient_dim is not None and mat.shape[0] != ambient_dim:
        raise ValueError(
            f"expected ambient dimension {ambient_dim}, got {mat.shape[0]}"
        )
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite entries in generator family")
    return mat


def _rank(singular_values: np.ndarray, rank_tol: float, scale=None) -> int:
    if singular_values.size == 0:
        return 0
    if scale is None:
        scale = singular_values[0] if singular_values[0] > 0 else 1.0
    return int(np.count_nonzero(singular_values > rank_tol * scale))


def _orthonormal_columns(mat: np.ndarray, rank_tol: float, scale=None) -> np.ndarray:
    """Orthonormal basis of the column span of ``mat``: its leading left
    singular vectors, as many as the rank read from the same singular
    values.  One thin SVD gives both, in numpy's single BLAS pool."""
    d, m = mat.shape
    if d == 0 or m == 0:
        return np.zeros((d, 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return np.ascontiguousarray(u[:, :_rank(s, rank_tol, scale)])


def _row_space_and_kernel(mat: np.ndarray, rank_tol: float, scale=None):
    """Orthonormal bases of the row space (the orthogonal complement of the
    null space) and of the (right) null space of ``mat``."""
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex)
    if rows == 0:
        return np.zeros((cols, 0), dtype=complex), np.eye(cols, dtype=complex)
    # A tall matrix has all its right singular vectors in the thin SVD.
    _, s, vh = np.linalg.svd(mat, full_matrices=rows < cols)
    r = _rank(s, rank_tol, scale)
    v = vh.conj().T
    return np.ascontiguousarray(v[:, :r]), np.ascontiguousarray(v[:, r:])


def _kernel(mat: np.ndarray, rank_tol: float, scale=None) -> np.ndarray:
    """Orthonormal basis of the (right) null space of ``mat``."""
    return _row_space_and_kernel(mat, rank_tol, scale)[1]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^d, held as an orthonormal frame of shape (d, r).

    Instances are immutable and all operations are pure, so values can be
    shared freely across threads.
    """

    frame: np.ndarray

    def __post_init__(self) -> None:
        frame = np.array(self.frame, dtype=complex, copy=True)
        if frame.ndim != 2:
            raise ValueError("frame must be a 2-d array")
        d, r = frame.shape
        if r > d:
            raise ValueError(f"frame has {r} columns in ambient dimension {d}")
        if not np.isfinite(frame).all():
            raise ValueError("frame has non-finite entries")
        if r > 0:
            gram = frame.conj().T @ frame
            # Written so that a NaN norm, from an overflowing product, also fails.
            if not np.linalg.norm(gram - np.eye(r)) <= _FRAME_ATOL * max(1, r):
                raise ValueError("frame columns are not orthonormal")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    # -- constructors -------------------------------------------------

    @classmethod
    def span(cls, vectors, cfg: ToleranceConfig = DEFAULT_TOL, *,
             ambient_dim=None, scale=None) -> "Subspace":
        """Span of a family of vectors (columns of a matrix also accepted)."""
        mat = _as_matrix(vectors, ambient_dim)
        return cls(_orthonormal_columns(mat, cfg.rank_tol, scale))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=complex))

    @classmethod
    def from_basis_indices(cls, ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of canonical basis vectors (0-based indices)."""
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= ambient_dim):
            raise ValueError("basis index out of range")
        frame = np.zeros((ambient_dim, len(idx)), dtype=complex)
        for col, i in enumerate(idx):
            frame[i, col] = 1.0
        return cls(frame)

    # -- basic queries ------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    # -- lattice operations -------------------------------------------

    def intersect(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Largest subspace contained in both, from principal angles.

        With A the smaller frame and B the other, the singular values of
        (I - P_B) A are the sines of the principal angles (Bjorck & Golub
        1973), and its kernel at the cut sqrt(2) * rank_tol gives the
        coefficients of the shared directions.  The stacked projector
        complements [I - P_A; I - P_B] have sqrt(2) sin(theta / 2) there,
        so the cut keeps their rank_tol boundary to O(theta^2).  Each
        shared direction u is returned as (u + P_B u) / 2, which is unit
        to O(theta^2) and halfway between both spaces, as the stacked
        kernel's vector was.
        """
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        a, b = small.frame, large.frame
        cosines = b.conj().T @ a
        coeffs = _kernel(a - b @ cosines, np.sqrt(2) * cfg.rank_tol, scale=1.0)
        return Subspace((a @ coeffs + b @ (cosines @ coeffs)) / 2)

    def sum(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Smallest subspace containing both."""
        self._check_ambient(other)
        joint = np.hstack([self.frame, other.frame])
        return Subspace(_orthonormal_columns(joint, cfg.rank_tol, scale=1.0))

    def complement(self, cfg: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        return Subspace(_kernel(self.frame.conj().T, cfg.rank_tol, scale=1.0))

    def project(self, vector) -> np.ndarray:
        """Orthogonal projection of a vector onto this subspace."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return self.frame @ (self.frame.conj().T @ v)

    def gap(self, other: "Subspace") -> float:
        """Operator-norm distance of the orthogonal projectors."""
        self._check_ambient(other)
        if self.ambient_dim == 0:
            return 0.0
        # The difference is Hermitian, so its 2-norm is its spectral radius.
        diff = self.projector() - other.projector()
        return float(np.max(np.abs(np.linalg.eigvalsh(diff))))

    def contains(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Whether ``other`` is contained in this subspace (up to gap_tol)."""
        self._check_ambient(other)
        if other.dim == 0:
            return True
        residual = other.frame - self.frame @ (self.frame.conj().T @ other.frame)
        return float(np.linalg.norm(residual, 2)) < cfg.gap_tol

    def is_orthogonal_to(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return True
        return float(np.linalg.norm(self.frame.conj().T @ other.frame, 2)) < cfg.gap_tol

    def direct_sum_check(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Orthogonality plus trivial intersection."""
        return (
            self.is_orthogonal_to(other, cfg)
            and self.intersect(other, cfg).dim == 0
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"


def orthonormalize(vectors, cfg: ToleranceConfig = DEFAULT_TOL, *, ambient_dim=None) -> Subspace:
    """Span of a finite family of vectors in C^d as a Subspace."""
    return Subspace.span(vectors, cfg, ambient_dim=ambient_dim)
