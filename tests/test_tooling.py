"""The benchmark's span tracer names relcalc functions; they must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
