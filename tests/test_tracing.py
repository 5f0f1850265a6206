"""perfbench/tracing.py wraps commbound functions by name; each must exist."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, fn) for mod, fns in tracing.LAYERS.values()
               for fn in fns]
    targets += [(mod, fn) for fn, mod in tracing.COUNT_ONLY.items()]
    assert targets
    for mod, fn in targets:
        module = importlib.import_module(f"commbound.{mod}")
        assert callable(getattr(module, fn, None)), f"commbound.{mod}.{fn}"
