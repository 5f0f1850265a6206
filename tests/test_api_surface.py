"""Every name commbound exports has a caller: the package itself, a
benchmark task, the benchmark's tracer, or a test that needs it by name."""

import ast
import functools
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "commbound"
PERFBENCH = ROOT / "perfbench"

# exported for the tests alone, each with its one-word reason
TEST_FACING = {
    "all_ones": "fixture",
    "tensor": "fixture",
    "canonical_form": "reference",
    "pair_counts": "format",
}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _references(node) -> set:
    """Names a syntax tree reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _package_references(name: str) -> bool:
    """Whether a module of the package, other than __init__, reads name
    outside its own top-level definition."""
    return any(name in refs and defined != name
               for defined, refs in _top_level_references())


@functools.cache
def _top_level_references() -> list:
    """(name it defines or None, names it reads) per top-level statement of
    each package module but __init__."""
    return [(getattr(node, "name", None), _references(node))
            for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
            for node in ast.parse(path.read_text(encoding="utf-8")).body]


def _benchmark_calls() -> set:
    """Names perfbench/gen.py reaches: attributes it reads and the
    "module.function" of each library-call task."""
    tree = ast.parse((PERFBENCH / "gen.py").read_text(encoding="utf-8"))
    names = _references(tree)
    names |= {node.value.rsplit(".", 1)[1] for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.count(".") == 1
              and (PACKAGE / f"{node.value.split('.')[0]}.py").is_file()}
    return names


def _traced() -> set:
    """Every function perfbench/tracing.py wraps or counts, loaded the way
    test_tracing.py loads it."""
    spec = importlib.util.spec_from_file_location(
        "tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {fn for _, fns in tracing.LAYERS.values() for fn in fns} | \
        set(tracing.COUNT_ONLY)


def _uncalled() -> set:
    """Exports with no caller in the package or the benchmark."""
    bench, traced = _benchmark_calls(), _traced()
    return {name for name in _exports()
            if name not in bench and name not in traced
            and not _package_references(name)}


def test_every_export_has_a_caller():
    assert _exports()
    assert sorted(_uncalled() - set(TEST_FACING)) == []


def test_test_facing_names_are_uncalled_and_explained():
    # a name that gains a caller leaves the set
    assert _uncalled() == set(TEST_FACING)
    assert set(TEST_FACING.values()) <= {"fixture", "reference", "format"}
