"""JSON documents for relations, subspaces and reports.

Complex entries are encoded as two-element ``[re, im]`` arrays, which keeps
the format unambiguous and language neutral.  A relation document carries
the space dimension and the two generator blocks F, G (row-major, shape
n x r); parsing spans the stacked generators, so round-tripping reproduces
the graph up to frame equivalence.  Malformed documents raise
:class:`DocumentError` with the offending key path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .decompose import DecompositionResult
from .invariance import ReductionReport
from .relation import ClassificationReport, Relation, classify
from .subspace import DEFAULT_TOL, Subspace, ToleranceConfig

__all__ = [
    "DocumentError",
    "RelationDocument",
    "parse_relation",
    "emit_relation",
    "parse_subspace",
    "emit_subspace",
    "classification_document",
    "decomposition_document",
    "reduction_document",
    "example_document",
]


class DocumentError(ValueError):
    """Malformed document; the message carries the key path or text position."""


def _encode_matrix(matrix: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def _decode_entry(obj, path: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise DocumentError(f"{path}: expected a [re, im] pair")
    try:
        value = complex(obj[0], obj[1])
    except OverflowError:
        raise DocumentError(f"{path}: entry beyond float range") from None
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        raise DocumentError(f"{path}: non-finite entry")
    return value


def _decode_matrix(obj, rows: int, path: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise DocumentError(f"{path}: expected a list of rows")
    if len(obj) != rows:
        raise DocumentError(f"{path}: expected {rows} rows, got {len(obj)}")
    if rows == 0:
        return np.zeros((0, 0), dtype=complex)
    # One numpy call converts a well-formed block.  numpy also accepts bools
    # and numeric strings, so the entry types are checked on the flattened
    # list as well; anything else is walked entry by entry for its message.
    try:
        pairs = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return _decode_entries(obj, path)
    if (
        pairs.ndim == 3
        and pairs.shape[2] == 2
        and set(map(type, chain.from_iterable(chain.from_iterable(obj)))) <= {int, float}
        and np.all(np.isfinite(pairs))
    ):
        return pairs.view(complex)[..., 0]
    return _decode_entries(obj, path)


def _decode_entries(obj: list, path: str) -> np.ndarray:
    width = None
    data = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise DocumentError(f"{path}[{i}]: expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DocumentError(f"{path}[{i}]: ragged row (expected {width} entries)")
        data.append([_decode_entry(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    return np.array(data, dtype=complex).reshape(len(obj), width or 0)


def _decode_dim(doc: dict, key: str = "dim") -> int:
    dim = doc.get(key)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError(f"{key}: expected a positive integer")
    return dim


def _decode_tolerances(doc: dict) -> ToleranceConfig | None:
    raw = doc.get("tolerances")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise DocumentError("tolerances: expected an object")
    kwargs = {}
    for key in ("rank_tol", "psd_tol", "gap_tol"):
        if key in raw:
            value = raw[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise DocumentError(f"tolerances.{key}: expected a nonnegative number")
            kwargs[key] = float(value)
    unknown = set(raw) - {"rank_tol", "psd_tol", "gap_tol"}
    if unknown:
        raise DocumentError(f"tolerances: unknown keys {sorted(unknown)}")
    return ToleranceConfig(**kwargs)


@dataclass(frozen=True)
class RelationDocument:
    """Parsed relation plus the optional metadata of its document."""

    relation: Relation
    name: str | None
    tolerances: ToleranceConfig | None


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top level: expected an object")
    return doc


def load_relation_document(text: str, cfg: ToleranceConfig = DEFAULT_TOL) -> RelationDocument:
    doc = _loads(text)
    n = _decode_dim(doc)
    f = _decode_matrix(doc.get("F"), n, "F")
    g = _decode_matrix(doc.get("G"), n, "G")
    if f.shape != g.shape:
        raise DocumentError(f"F and G have different shapes: {f.shape} vs {g.shape}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: expected a string")
    tolerances = _decode_tolerances(doc)
    relation = Relation.from_graph_matrix(f, g, tolerances or cfg)
    return RelationDocument(relation=relation, name=name, tolerances=tolerances)


def parse_relation(text: str, cfg: ToleranceConfig = DEFAULT_TOL) -> Relation:
    """Relation described by a JSON document."""
    return load_relation_document(text, cfg).relation


def emit_relation(relation: Relation, name: str | None = None,
                  tolerances: ToleranceConfig | None = None) -> str:
    """JSON document for a relation (the orthonormal graph generators)."""
    doc = {
        "dim": relation.n,
        "F": _encode_matrix(relation.F),
        "G": _encode_matrix(relation.G),
    }
    if name is not None:
        doc["name"] = name
    if tolerances is not None:
        doc["tolerances"] = {
            "rank_tol": tolerances.rank_tol,
            "psd_tol": tolerances.psd_tol,
            "gap_tol": tolerances.gap_tol,
        }
    return json.dumps(doc, indent=2)


def parse_subspace(text: str, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Subspace spanned by the row vectors of a JSON document."""
    doc = _loads(text)
    d = _decode_dim(doc)
    raw = doc.get("vectors")
    if not isinstance(raw, list):
        raise DocumentError("vectors: expected a list of vectors")
    vectors = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != d:
            raise DocumentError(f"vectors[{i}]: expected a vector of length {d}")
        vectors.append(
            np.array([_decode_entry(e, f"vectors[{i}][{j}]") for j, e in enumerate(row)])
        )
    return Subspace.span(vectors, cfg, ambient_dim=d)


def emit_subspace(space: Subspace) -> str:
    return json.dumps(
        {"dim": space.ambient_dim, "vectors": _encode_matrix(space.frame.T)}, indent=2
    )


# -- report documents --------------------------------------------------


def _tolerances_dict(cfg: ToleranceConfig) -> dict:
    return {"rank_tol": cfg.rank_tol, "psd_tol": cfg.psd_tol, "gap_tol": cfg.gap_tol}


def _certificate_dicts(certificates) -> list:
    return [
        {
            "name": c.name,
            "passed": bool(c.passed),
            "residual": float(c.residual),
            "tolerance": float(c.tolerance),
        }
        for c in certificates
    ]


def _flags_dict(report: ClassificationReport) -> dict:
    return {
        "operator": report.is_operator,
        "bounded": report.is_bounded,
        "contraction": report.is_contraction,
        "isometry": report.is_isometry,
        "unitary": report.is_unitary,
        "dissipative": report.is_dissipative,
        "symmetric": report.is_symmetric,
        "selfadjoint": report.is_selfadjoint,
        "maximal_dissipative": report.is_maximal_dissipative,
    }


def _part_summary(relation: Relation, cfg: ToleranceConfig) -> dict:
    parts = relation.graph_parts(cfg)
    return {
        "graph_dim": relation.graph.dim,
        "dom_dim": parts.dom.dim,
        "ran_dim": parts.ran.dim,
        "ker_dim": parts.ker.dim,
        "mul_dim": parts.mul.dim,
    }


def classification_document(relation: Relation, cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    report = classify(relation, cfg)
    return {
        "kind": "classification",
        "space_dim": relation.n,
        "flags": _flags_dict(report),
        "residuals": {k: float(v) for k, v in report.residuals.items()},
        "parts": _part_summary(relation, cfg),
        "tolerances": _tolerances_dict(cfg),
        "seed": None,
    }


def decomposition_document(mode: str, relation: Relation, result: DecompositionResult,
                           cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    doc = {
        "kind": "decomposition-report",
        "mode": mode,
        "space_dim": relation.n,
        "classification": _flags_dict(classify(relation, cfg)),
        "k_dim": result.k.dim,
        "k_frame": _encode_matrix(result.k.frame),
        "parts": {
            "k": _part_summary(result.part_k, cfg),
            "k_perp": _part_summary(result.part_k_perp, cfg),
        },
        "certificates": _certificate_dicts(result.certificates),
        "iterations": result.iterations,
        "tolerances": _tolerances_dict(cfg),
        "seed": None,
    }
    if result.wandering is not None:
        doc["wandering_dim"] = result.wandering.dim
        doc["wandering_frame"] = _encode_matrix(result.wandering.frame)
    return doc


def reduction_document(relation: Relation, space: Subspace, report: ReductionReport,
                       cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    def entry(name, passed):
        return {
            "name": name,
            "passed": bool(passed),
            "residual": float(report.residuals.get(name, 0.0)),
            "tolerance": cfg.gap_tol,
        }

    certificates = [entry("reducing", report.reducing)]
    for label, check in (("k", report.invariant_k), ("k_perp", report.invariant_k_perp)):
        for cond, value in (
            ("domain", check.domain_splits),
            ("multivalued", check.multivalued_splits),
            ("restriction_domain", check.restriction_domain_matches),
        ):
            certificates.append(
                {
                    "name": f"invariant_{label}_{cond}",
                    "passed": bool(value),
                    "residual": float(check.residuals[cond]),
                    "tolerance": cfg.gap_tol,
                }
            )
    certificates.append(entry("adjoint_reduced", report.adjoint_reduced))
    for label, value in report.transform_reduced.items():
        certificates.append(entry(f"transform_reduced{label}", value))
    for name, value in report.parts_split.items():
        certificates.append(entry(f"split_{name}", value))
    for label, value in report.adjoint_distribution.items():
        certificates.append(entry(f"adjoint_distribution_{label}", value))
    certificates.append(entry("adjoint_sum_identity", report.adjoint_sum_identity))

    return {
        "kind": "reduction-report",
        "space_dim": relation.n,
        "subspace_dim": space.dim,
        "reducing": report.reducing,
        "certificates": certificates,
        "tolerances": _tolerances_dict(cfg),
        "seed": None,
    }


def example_document(report, cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    return {
        "kind": "shift-example-report",
        "n": report.window.n,
        "margin": report.window.margin,
        "passed": report.passed,
        "certificates": _certificate_dicts(report.certificates),
        "info": report.info,
        "tolerances": _tolerances_dict(cfg),
        "seed": None,
    }
