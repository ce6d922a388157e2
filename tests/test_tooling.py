"""The benchmark's span tracer names relcalc functions, and its checks read
relcalc report attributes; they must exist.  Every document relcalc writes
goes through ``io.dumps``.  Eigenvectors, parser trees and SVDs are taken
only where they are read."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import relcalc as rc

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = ROOT / "src" / "relcalc"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_in_relcalc():
    spans = _load_spans()
    missing = []
    for layer in spans.LAYERS.keys() | spans.CLASS_METHODS.keys():
        module = importlib.import_module(f"relcalc.{layer}")
        cls_name, methods = spans.CLASS_METHODS.get(layer, (None, set()))
        for name in set(spans.LAYERS.get(layer, ())) | methods:
            # install() takes methods from the class __dict__, functions from the module
            owner = vars(getattr(module, cls_name)) if name in methods else vars(module)
            if name not in owner:
                missing.append(f"{layer}.{name}")
    assert not missing, sorted(missing)


# The report attributes perfbench/workloads.py reads: z_properties_check's
# ``results`` (line 152), reduction_certificates' ``ok``, ``residuals`` and
# ``reducing`` (lines 174 and 178), run_shift_example's ``passed``,
# ``certificates`` and ``info`` (lines 288-290) and a decomposition's ``k``
# (line 297).
BENCHMARK_READS = {
    "z_properties_check": ("results",),
    "reduction_certificates": ("ok", "residuals", "reducing"),
    "run_shift_example": ("passed", "certificates", "info"),
    "symmetric_wold_decompose": ("k",),
}


def test_report_views_read_by_the_benchmark_exist():
    t = rc.Relation.from_operator(np.diag([1.0, 2.0]))
    k = rc.Subspace.from_basis_indices(2, [0])
    w = rc.WindowConfig(n=16)
    reports = {
        "z_properties_check": rc.z_properties_check(t, t, 1j),
        "reduction_certificates": rc.reduction_certificates(t, k),
        "run_shift_example": rc.run_shift_example(w),
        "symmetric_wold_decompose": rc.symmetric_wold_decompose(
            rc.build_multivalued_extension(w), require_maximal=False),
    }
    missing = [f"{call}.{name}" for call, names in BENCHMARK_READS.items()
               for name in names if not hasattr(reports[call], name)]
    assert not missing, missing


def _json_dumps_calls(tree):
    """(enclosing function, call) for each ``json.dumps(...)`` in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_documents_are_written_by_io_dumps_alone():
    # json.dumps with an indent runs the pure-Python encoder; io.dumps lays
    # out the top level itself and writes each value with the C one.
    callers, indented, imported = set(), [], []
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported += [path.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "json"]
        for function, call in _json_dumps_calls(tree):
            callers.add(f"{path.stem}.{function}")
            if any(keyword.arg == "indent" for keyword in call.keywords):
                indented.append(f"{path.name}:{call.lineno}")
    assert callers == {"io.dumps"}
    assert indented == [] and imported == []


def _calls_by_function(tree):
    """(enclosing top-level function, dotted callee) for each call whose
    callee is a name or an attribute chain."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                parts, func = [], node.func
                while isinstance(func, ast.Attribute):
                    parts.append(func.attr)
                    func = func.value
                if isinstance(func, ast.Name):
                    name = getattr(top, "name", None)
                    found.append((name, ".".join([func.id, *reversed(parts)])))
    return found


def _is_eigh_call(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.eigh"


def test_vector_routines_and_parser_trees_are_taken_where_read():
    # eigh only for classify's witness, the parser tree only through the
    # cached accessor, and the 2-norm from a Gram matrix, with no SVD.
    calls = {}
    for path in sorted(SOURCES.glob("*.py")):
        for function, callee in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(callee, set()).add(f"{path.stem}.{function}")
    assert calls.get("np.linalg.eigh") == {"relation.classify"}
    classify = next(node for node in ast.parse((SOURCES / "relation.py").read_text(encoding="utf-8")).body
                    if getattr(node, "name", None) == "classify")
    eighs = [node for node in ast.walk(classify) if _is_eigh_call(node)]
    in_witness = [node for assign in ast.walk(classify) if isinstance(assign, ast.Assign)
                  and [ast.unparse(t) for t in assign.targets] == ["witness"]
                  for node in ast.walk(assign.value) if _is_eigh_call(node)]
    assert eighs and eighs == in_witness
    assert not {callee for callee in calls if callee.endswith("eigh") and callee != "np.linalg.eigh"}
    assert calls.get("build_parser") == {"cli._parser"}
    norm2 = {callee for callee, callers in calls.items() if "subspace._norm2" in callers}
    assert "np.linalg.eigvalsh" in norm2
    assert not {callee for callee in norm2 if "svd" in callee}
