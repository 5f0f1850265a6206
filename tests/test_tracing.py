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


def traced_counts(*argvs):
    """The tracer's counters after running each argv through cli.main."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    return tracer.counts


def test_counters_read_the_traced_results(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    counts = traced_counts(["group-check", "--gmap", str(gmap)],
                           ["compose", "--function", "AND:2", "--inner",
                            "core4", "--verify-rank", "--witness"])
    # a 2 x 2 map has four row pairs and four column pairs, checked as
    # two families
    assert counts["groupcomp.multisets"] == 8
    assert counts["groupcomp.g_invariant.calls"] == 2
    assert counts["composer.cells"] > 0
    # the counters that bind arguments by name: M, A, and c, A_ub, A_eq
    counts = traced_counts(["analyze-matrix", "--input", "core4"],
                           ["approx-degree", "--function", "AND:3",
                            "--epsilon", "0.3"])
    capsys.readouterr()
    # core4 is 4 x 4, and its discrepancy sums 2^4 - 1 row subsets
    assert counts["matrices.spectrum.cells"] == 16
    assert counts["matrices.exact_rank.cells"] == 16
    assert counts["bounds.discrepancy.subsets"] == 15
    assert counts["simplex.tableau_cells"] > 0
