"""perfbench/tracing.py wraps commbound functions by name; each must exist,
and its counters must read what those functions return."""

import importlib
import importlib.util
import pathlib

from commbound import XOR_2, cli
from commbound.groupcomp import GroupMapMatrix

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = load_tracing()
    targets = [(mod, fn) for mod, fns in tracing.LAYERS.values()
               for fn in fns]
    targets += [(mod, fn) for fn, mod in tracing.COUNT_ONLY.items()]
    assert targets
    for mod, fn in targets:
        module = importlib.import_module(f"commbound.{mod}")
        assert callable(getattr(module, fn, None)), f"commbound.{mod}.{fn}"


def test_counters_read_the_traced_results(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["group-check", "--gmap", str(gmap)]) == 0
        assert cli.main(["compose", "--function", "AND:2", "--inner",
                         "core4", "--verify-rank", "--witness"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # a 2 x 2 map has four row pairs and four column pairs
    assert tracer.counts["groupcomp.multisets"] == 8
    assert tracer.counts["groupcomp.g_invariant.calls"] > 0
    assert tracer.counts["composer.cells"] > 0
