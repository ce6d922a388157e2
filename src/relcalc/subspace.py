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

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

__all__ = ["ToleranceConfig", "DEFAULT_TOL", "Subspace"]

# Constructor sanity bound for frame orthonormality; independent of the
# per-operation tolerances because it guards representation validity only.
_FRAME_ATOL = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds governing every predicate in the package.

    One rule reads them all: a residual passes when it is at or below its
    tolerance.  A singular value at or below the rank cut is zero, a form
    eigenvalue within psd_tol of zero is zero, and a gap at or below
    gap_tol is equality.

    rank_tol
        Relative singular-value cutoff for rank decisions.  It must be
        below 1/sqrt(2): the lattice operations cut sines at
        sqrt(2) * rank_tol, and a sine never exceeds 1.
    psd_tol
        Eigenvalue floor for positive-semidefiniteness tests.
    gap_tol
        Projector-distance threshold at or below which subspaces are equal.  It
        must be below 1: a gap never exceeds 1, so a larger threshold
        would pass every containment and equality check.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-10
    gap_tol: float = 1e-8

    def __post_init__(self) -> None:
        for field in fields(self):
            if not 0 <= getattr(self, field.name) < np.inf:
                raise ValueError(f"{field.name} must be finite and nonnegative")
        if not self.gap_tol < 1:
            raise ValueError("gap_tol must be below 1, the largest possible gap")
        if not self.rank_tol < 1 / np.sqrt(2):
            raise ValueError("rank_tol must be below 1/sqrt(2), where the sine cut reaches 1")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class Certificate:
    """One verified claim: a residual and its tolerance, held as floats.
    The claim passes when the residual is at most the tolerance; a NaN
    residual fails."""

    name: str
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class Certified:
    """Verdict of a report that holds a tuple ``certificates``: it passes
    when each of its certificates does."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def certificate(self, name: str) -> Certificate:
        for cert in self.certificates:
            if cert.name == name:
                return cert
        raise KeyError(name)


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


def _rank_of(mat: np.ndarray, rank_tol: float, scale=None) -> int:
    """Rank of ``mat`` as ``_orthonormal_columns`` reads it, from its
    singular values alone: for call sites that need a dimension and not
    a frame."""
    if mat.size == 0:
        return 0
    return _rank(np.linalg.svd(mat, compute_uv=False), rank_tol, scale)


def _orthonormal_columns(mat: np.ndarray, rank_tol: float, scale=None) -> np.ndarray:
    """Orthonormal basis of the column span of ``mat``: its leading left
    singular vectors, as many as the rank read from the same singular
    values.  One thin SVD gives both, in numpy's single BLAS pool."""
    d, m = mat.shape
    if d == 0 or m == 0:
        return np.zeros((d, 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return np.ascontiguousarray(u[:, :_rank(s, rank_tol, scale)])


def _right_singular_split(mat: np.ndarray, rank_tol: float, scale=None):
    """Singular values s, all right singular vectors v (as columns) and
    rank r of ``mat``: v[:, :r] spans its row space (the orthogonal
    complement of the null space) and v[:, r:] its (right) null space."""
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return np.zeros(0), np.eye(cols, dtype=complex), 0
    # A tall matrix has all its right singular vectors in the thin SVD.
    _, s, vh = np.linalg.svd(mat, full_matrices=rows < cols)
    return s, vh.conj().T, _rank(s, rank_tol, scale)


def _kernel(mat: np.ndarray, rank_tol: float, scale=None) -> np.ndarray:
    """Orthonormal basis of the (right) null space of ``mat``."""
    _, v, r = _right_singular_split(mat, rank_tol, scale)
    return np.ascontiguousarray(v[:, r:])


def _shared_coefficients(residual: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal coefficients c of the directions shared by two spaces.

    ``residual`` is R = (I - P_B) A for a frame A, so its singular values
    are the sines of the principal angles between span A and span B
    (Bjorck & Golub 1973).  The right singular vectors whose singular
    value is at most ``cut`` (absolute) are kept, and one refinement step
    removes what rounding left in them of the other right singular
    vectors.  The shared direction A c - R c / 2 lies halfway between both
    spaces.
    """
    rows, cols = residual.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=complex)
    # A tall matrix has all its right singular vectors in the thin SVD.
    u, s, vh = np.linalg.svd(residual, full_matrices=rows < cols)
    r = _rank(s, cut, scale=1.0)
    v = vh.conj().T
    row, coeffs = v[:, :r], v[:, r:]
    # Subtract the pseudo-inverse image of the kernel's rounding residual.
    return coeffs - row @ ((u[:, :r].conj().T @ (residual @ coeffs)) / s[:r, None])


def _norm2(mat: np.ndarray) -> float:
    """Spectral norm: the largest singular value, 0 for an empty matrix."""
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def _residual(frame: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``(I - P) vectors`` for the projector P onto an orthonormal frame.
    Only ``vectors`` and the coefficients are conjugated, so the frame is
    never copied."""
    return vectors - frame @ (vectors.conj().T @ frame).conj().T


def _move_to_front(rows: np.ndarray, mat: np.ndarray) -> int:
    """Multiply ``mat`` in place from the right by the unitary Q of the
    Householder QR of ``rows^H``, and return t = min(rows.shape): Q's
    leading t columns span the row space of ``rows``, and ``rows`` maps the
    rest to 0.  LAPACK's reflectors I - tau v v^H are applied at once in the
    compact WY form I - V T V^H (Schreiber & Van Loan 1989), in O(t) flops
    per entry of ``mat``, with T = diag(tau) (I + striu(V^H V) diag(tau))^-1
    (Joffrain et al. 2006), which never divides by a tau that is 0."""
    t = min(rows.shape)
    h, tau = np.linalg.qr(rows.conj().T, mode="raw")
    v = np.tril(h.T[:, :t], -1)
    np.fill_diagonal(v, 1)
    v_h = v.conj().T
    tri = np.triu(v_h @ v, 1) * tau
    np.fill_diagonal(tri, 1)
    mat -= (mat @ v) @ (tau[:, None] * np.linalg.solve(tri, v_h))
    return t


def _complement_frame(frame: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the span of an
    orthonormal frame: the trailing columns of its complete Householder QR.
    An orthonormal frame has full column rank, so no tolerance is read."""
    q, _ = np.linalg.qr(frame, mode="complete")
    return np.ascontiguousarray(q[:, frame.shape[1]:])


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

        With A the smaller frame and B the other, the shared directions
        are those of ``_shared_coefficients`` on (I - P_B) A at the cut
        sqrt(2) * rank_tol.  The stacked projector complements
        [I - P_A; I - P_B] have sqrt(2) sin(theta / 2) there, so the cut
        keeps their rank_tol boundary to O(theta^2).  Each direction is
        unit to O(theta^2) and halfway between both spaces, as the stacked
        kernel's vector was.
        """
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        a = small.frame
        residual = _residual(large.frame, a)
        coeffs = _shared_coefficients(residual, np.sqrt(2) * cfg.rank_tol)
        return Subspace(a @ coeffs - (residual @ coeffs) / 2)

    def sum(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Smallest subspace containing both.

        With A the larger frame and B the other, the left singular vectors
        of (I - P_A) B whose sines exceed sqrt(2) * rank_tol are added to A,
        orthogonalized against A once more.  The stacked frame [A B] has
        sqrt(2) sin(theta / 2) there, so the cut keeps its rank_tol boundary
        to O(theta^2), as in ``intersect``.
        """
        self._check_ambient(other)
        large, small = (self, other) if self.dim >= other.dim else (other, self)
        a, b = large.frame, small.frame
        added = _orthonormal_columns(_residual(a, b), np.sqrt(2) * cfg.rank_tol, scale=1.0)
        return Subspace(np.hstack([a, _residual(a, added)]))

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space.  The frame is
        already orthonormal, so no tolerance is read."""
        return Subspace(_complement_frame(self.frame))

    def project(self, vector) -> np.ndarray:
        """Orthogonal projection of a vector onto this subspace."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return self.frame @ (self.frame.conj().T @ v)

    def gap(self, other: "Subspace") -> float:
        """Operator-norm distance of the orthogonal projectors.

        It is max(||(I - P_B) A||, ||(I - P_A) B||) for frames A and B
        (Kato), and the side with A the larger frame attains it: for equal
        dimensions both sides are the sine of the largest principal angle,
        and otherwise that side is 1.  Identical frames give exactly 0.
        """
        self._check_ambient(other)
        if np.array_equal(self.frame, other.frame):
            return 0.0
        large, small = (self, other) if self.dim >= other.dim else (other, self)
        return _norm2(_residual(small.frame, large.frame))

    def contains(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Whether ``other`` is contained in this subspace (up to gap_tol)."""
        self._check_ambient(other)
        if other.dim == 0:
            return True
        return _norm2(_residual(self.frame, other.frame)) <= cfg.gap_tol

    def is_orthogonal_to(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return True
        return _norm2(self.frame.conj().T @ other.frame) <= cfg.gap_tol

    def direct_sum_check(self, other: "Subspace", cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Orthogonality plus trivial intersection."""
        return (
            self.is_orthogonal_to(other, cfg)
            and self.intersect(other, cfg).dim == 0
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"
