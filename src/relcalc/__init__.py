"""Calculus of linear relations on finite-dimensional complex Hilbert spaces.

Subspaces of C^d carried as orthonormal frames, closed linear relations as
graph subspaces of the doubled space, the Z transform linking dissipative
relations with contractions, invariant/reducing subspace machinery, and
the canonical decompositions (unitary/completely-nonunitary, Wold,
selfadjoint/completely-nonselfadjoint, elementary-maximal/selfadjoint)
together with a truncated sequence-space shift model.
"""

from .subspace import DEFAULT_TOL, Certificate, Subspace, ToleranceConfig
from .relation import (
    ClassificationReport,
    GraphParts,
    Relation,
    SpectralPointClass,
    classify,
    classify_point,
    doubled,
    operator_matrix,
)
from .ztransform import ZPropertyReport, subspace_fixed_point_check, z_properties_check, z_transform
from .invariance import (
    ReductionReport,
    adjoint_within,
    compress,
    embed,
    is_invariant,
    is_reducing,
    orthogonal_relation_sum,
    reduction_certificates,
)
from .decompose import (
    DecompositionResult,
    dissipative_decompose,
    maximalize_contraction,
    nfl_decompose,
    symmetric_wold_decompose,
    unitary_part_subspace,
    von_neumann_check,
    wold_decompose,
)
from .shiftmodel import (
    ShiftExampleReport,
    SpectralProbe,
    WindowConfig,
    build_elementary_symmetric,
    build_multivalued_extension,
    build_multivalued_line,
    build_restricted_symmetric,
    build_shift,
    delta_span,
    run_shift_example,
    spectral_window_probe,
    window_assert,
    window_compress,
    window_gap,
    window_span,
)
from .io import DocumentError, emit_relation, emit_subspace, parse_relation, parse_subspace

__all__ = [
    "DEFAULT_TOL",
    "Subspace",
    "ToleranceConfig",
    "ClassificationReport",
    "GraphParts",
    "Relation",
    "SpectralPointClass",
    "classify",
    "classify_point",
    "doubled",
    "operator_matrix",
    "ZPropertyReport",
    "subspace_fixed_point_check",
    "z_properties_check",
    "z_transform",
    "Certificate",
    "ReductionReport",
    "adjoint_within",
    "compress",
    "embed",
    "is_invariant",
    "is_reducing",
    "orthogonal_relation_sum",
    "reduction_certificates",
    "DecompositionResult",
    "dissipative_decompose",
    "maximalize_contraction",
    "nfl_decompose",
    "symmetric_wold_decompose",
    "unitary_part_subspace",
    "von_neumann_check",
    "wold_decompose",
    "ShiftExampleReport",
    "SpectralProbe",
    "WindowConfig",
    "build_elementary_symmetric",
    "build_multivalued_extension",
    "build_multivalued_line",
    "build_restricted_symmetric",
    "build_shift",
    "delta_span",
    "run_shift_example",
    "spectral_window_probe",
    "window_assert",
    "window_compress",
    "window_gap",
    "window_span",
    "DocumentError",
    "emit_relation",
    "emit_subspace",
    "parse_relation",
    "parse_subspace",
]

__version__ = "0.1.0"
