"""JSON documents for relations, subspaces and reports.

Complex entries are encoded as two-element ``[re, im]`` arrays, which keeps
the format unambiguous and language neutral.  A relation document carries
the space dimension and the two generator blocks F, G (row-major, shape
n x r); parsing spans the stacked generators, so round-tripping reproduces
the graph up to frame equivalence.  Malformed documents raise
:class:`DocumentError` with the offending key path.

Every document relcalc writes goes through :func:`dumps`: one top-level key
per line, each value compact on its line.  The reader accepts any layout.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .decompose import DecompositionResult
from .invariance import ReductionReport
from .relation import ClassificationReport, Relation, _dom_dim, _ran_dim, classify
from .subspace import DEFAULT_TOL, Subspace, ToleranceConfig

__all__ = [
    "DocumentError",
    "RelationDocument",
    "dumps",
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


def dumps(document: dict) -> str:
    """Text of a document: one top-level key per line, each value written
    by the C encoder (``json.dumps`` without ``indent``, which would select
    the pure-Python one).  Floats print as ``float.__repr__`` either way."""
    lines = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in document.items())
    return "{\n" + ",\n".join(lines) + "\n}"


def _encode_matrix(matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


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
    names = [field.name for field in fields(ToleranceConfig)]
    kwargs = {}
    for key in names:
        if key in raw:
            value = raw[key]
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not 0 <= value <= sys.float_info.max):
                raise DocumentError(f"tolerances.{key}: expected a finite nonnegative number")
            kwargs[key] = float(value)
    unknown = set(raw) - set(names)
    if unknown:
        raise DocumentError(f"tolerances: unknown keys {sorted(unknown)}")
    try:
        return ToleranceConfig(**kwargs)
    except ValueError as exc:  # its messages start with the field name
        raise DocumentError(f"tolerances.{exc}") from None


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
        doc["tolerances"] = _tolerances_dict(tolerances)
    return dumps(doc)


def parse_subspace(text: str, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Subspace spanned by the row vectors of a JSON document."""
    doc = _loads(text)
    d = _decode_dim(doc)
    raw = doc.get("vectors")
    if not isinstance(raw, list):
        raise DocumentError("vectors: expected a list of vectors")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != d:
            raise DocumentError(f"vectors[{i}]: expected a vector of length {d}")
    rows = _decode_matrix(raw, len(raw), "vectors").reshape(len(raw), d)
    return Subspace.span(rows.T, cfg, ambient_dim=d)


def emit_subspace(space: Subspace) -> str:
    return dumps({"dim": space.ambient_dim, "vectors": _encode_matrix(space.frame.T)})


# -- report documents --------------------------------------------------


def _tolerances_dict(cfg: ToleranceConfig) -> dict:
    return {field.name: getattr(cfg, field.name) for field in fields(cfg)}


def _certificate_dicts(certificates) -> list:
    return [
        {
            "name": c.name,
            "passed": c.passed,
            "residual": c.residual,
            "tolerance": c.tolerance,
        }
        for c in certificates
    ]


def _flags_dict(report: ClassificationReport) -> dict:
    return {
        "operator": report.is_operator,
        "contraction": report.is_contraction,
        "isometry": report.is_isometry,
        "unitary": report.is_unitary,
        "dissipative": report.is_dissipative,
        "symmetric": report.is_symmetric,
        "selfadjoint": report.is_selfadjoint,
        "maximal_dissipative": report.is_maximal_dissipative,
    }


def _part_summary(relation: Relation, cfg: ToleranceConfig) -> dict:
    """The dimensions of the four graph parts, as ranks of the blocks of the
    orthonormal graph frame (see ``relation._mul_dim``)."""
    graph_dim = relation.graph.dim
    dom_dim, ran_dim = _dom_dim(relation, cfg), _ran_dim(relation, cfg)
    return {
        "graph_dim": graph_dim,
        "dom_dim": dom_dim,
        "ran_dim": ran_dim,
        "ker_dim": graph_dim - ran_dim,
        "mul_dim": graph_dim - dom_dim,
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
    }
    if result.wandering is not None:
        doc["wandering_dim"] = result.wandering.dim
        doc["wandering_frame"] = _encode_matrix(result.wandering.frame)
    return doc


def reduction_document(relation: Relation, space: Subspace, report: ReductionReport,
                       cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    return {
        "kind": "reduction-report",
        "space_dim": relation.n,
        "subspace_dim": space.dim,
        "reducing": report.reducing,
        "certificates": _certificate_dicts(report.certificates),
        "tolerances": _tolerances_dict(cfg),
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
    }
