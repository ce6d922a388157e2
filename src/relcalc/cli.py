"""Command-line front end.

Subcommands: ``classify``, ``ztransform``, ``decompose``, ``certify`` and
``example``.  Exit codes: 0 on success, 1 when a certificate failed,
2 on input errors, which are every ``ValueError`` (``DocumentError``
included, and with it a file that cannot be read or written; argparse
uses 2 for bad flags as well).
"""

from __future__ import annotations

import argparse
import cmath
import sys
from pathlib import Path

from . import io as relio
from .decompose import (
    dissipative_decompose,
    nfl_decompose,
    symmetric_wold_decompose,
    wold_decompose,
)
from .invariance import reduction_certificates
from .relation import classify
from .shiftmodel import WindowConfig, run_shift_example
from .subspace import DEFAULT_TOL
from .ztransform import z_transform

_MODES = {
    "nfl": nfl_decompose,
    "wold": wold_decompose,
    "dissipative": dissipative_decompose,
    "symmetric": symmetric_wold_decompose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcalc",
        description="Calculus of linear relations on finite-dimensional complex Hilbert spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a relation document")
    p.add_argument("file", help="relation document (JSON)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("ztransform", help="apply the Z transform to a relation")
    p.add_argument("file", help="relation document (JSON)")
    p.add_argument("--zeta", default="0,1", metavar="RE,IM",
                   help="transform point (default: 0,1 i.e. zeta = i)")
    p.add_argument("-o", "--output", help="write the transformed relation here")
    p.set_defaults(run=_cmd_ztransform)

    p = sub.add_parser("decompose", help="run a canonical decomposition")
    p.add_argument("file", help="relation document (JSON)")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--report", help="write the report document here")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("certify", help="check invariance/reduction certificates")
    p.add_argument("file", help="relation document (JSON)")
    p.add_argument("--subspace", required=True, help="subspace document (JSON)")
    p.add_argument("--report", help="write the report document here")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("example", help="built-in models")
    example_sub = p.add_subparsers(dest="model", required=True)
    q = example_sub.add_parser("shift", help="truncated sequence-space shift model")
    q.add_argument("--n", type=int, default=64, help="truncation dimension (default 64)")
    q.add_argument("--margin", type=int, default=4, help="excluded edge indices (default 4)")
    q.add_argument("--report", help="write the report document here")
    q.set_defaults(run=_cmd_example)

    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise relio.DocumentError(f"{path}: {exc.strerror or exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise relio.DocumentError(f"{path}: {exc.strerror or exc}") from exc


def _load_relation(path: str):
    doc = relio.load_relation_document(_read_text(path))
    return doc.relation, (doc.tolerances or DEFAULT_TOL)


def _parse_zeta(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        zeta = complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise relio.DocumentError(f"--zeta: expected RE,IM, got {text!r}") from exc
    if not cmath.isfinite(zeta):
        raise relio.DocumentError(f"--zeta: must be finite, got {text!r}")
    return zeta


def _emit(text: str, path: str | None) -> None:
    if path:
        _write_text(path, text)
    else:
        print(text)


def _print_certificates(certificates) -> None:
    for cert in certificates:
        status = "pass" if cert["passed"] else "FAIL"
        print(f"  [{status}] {cert['name']}: residual {cert['residual']:.3e} "
              f"(tolerance {cert['tolerance']:.3e})")


def _cmd_classify(args) -> int:
    relation, cfg = _load_relation(args.file)
    document = relio.classification_document(relation, cfg)
    if args.json:
        print(relio.dumps(document))
        return 0
    print(f"space dimension: {document['space_dim']}")
    parts = document["parts"]
    print(f"graph dimension: {parts['graph_dim']} "
          f"(dom {parts['dom_dim']}, ran {parts['ran_dim']}, "
          f"ker {parts['ker_dim']}, mul {parts['mul_dim']})")
    for name, value in document["flags"].items():
        print(f"{name}: {'yes' if value else 'no'}")
    return 0


def _cmd_ztransform(args) -> int:
    relation, cfg = _load_relation(args.file)
    zeta = _parse_zeta(args.zeta)
    image = z_transform(relation, zeta, cfg)
    _emit(relio.emit_relation(image, name=f"ztransform({zeta})"), args.output)
    return 0


def _cmd_decompose(args) -> int:
    relation, cfg = _load_relation(args.file)
    result = _MODES[args.mode](relation, cfg)
    document = relio.decomposition_document(args.mode, relation, result, cfg)
    _emit(relio.dumps(document), args.report)
    if args.report:
        print(f"mode {args.mode}: K has dimension {result.k.dim} of {relation.n}")
        _print_certificates(document["certificates"])
    return 0 if result.passed else 1


def _cmd_certify(args) -> int:
    relation, cfg = _load_relation(args.file)
    space = relio.parse_subspace(_read_text(args.subspace), cfg)
    report = reduction_certificates(relation, space, cfg)
    document = relio.reduction_document(relation, space, report, cfg)
    _emit(relio.dumps(document), args.report)
    if args.report:
        _print_certificates(document["certificates"])
    return 0 if report.passed else 1


def _cmd_example(args) -> int:
    window = WindowConfig(n=args.n, margin=args.margin)
    report = run_shift_example(window)
    document = relio.example_document(report)
    if args.report:
        _write_text(args.report, relio.dumps(document))
    print(f"shift model at n={window.n}, margin={window.margin}:")
    _print_certificates(document["certificates"])
    print("all window assertions passed" if report.passed else "window assertions FAILED")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # DocumentError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
