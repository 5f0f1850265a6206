"""Every name commbound exports has a caller: the package itself, a
benchmark task, the benchmark's tracer, or a test that needs it by name.
Every member of its classes has a reader in the package or the benchmark,
or a listed reason to have none."""

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
    "is_canonical": "reference",
    "pair_counts": "format",
}

# class members that no code in src/ or perfbench/ reads, by reason and
# class: "report", printed whole by the CLI; "traced", the result of an
# entry point that perfbench/tracing.py wraps; "certificate", kept for the
# caller to check; "format", a file-format writer
UNREAD_MEMBERS = {
    "report": {
        "BoundReport": "theorem",
        "BalanceReport": "row_sums col_sums balanced",
        "RankTheoremReport": "formula_rank composed_rank equal inner_rank",
        "RegularityReport": "counts diagonal_invariant",
        "SpectrumReport": "singular_values trace_norm frobenius_norm "
                          "numeric_rank tolerance",
    },
    "traced": {
        "TPrimeReport": "direct_max conjugated_max threshold direct_ok "
                        "conjugated_ok agree",
        "DualClassFunction": "delta easy_coeff_max",
        "SpectralDiscReport": "balance_residual balanced cond2_value cond2_ok "
                              "cond3_value cond3_ok minimal_r",
        "ShaltielReport": "lhs disc",
        "ApproxNormBound": "trace_lb gamma2_lb qcc_main_term",
    },
    "certificate": {"ApproxDegreeResult": "approximant"},
    "format": {"CharacterTable": "to_json", "GroupMapMatrix": "to_text",
               "SignMatrix": "to_text"},
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _members() -> set:
    """"Class.member" for every dataclass field, public method or property,
    and __call__ of each class the package defines."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [item.name for item in cls.body
                     if isinstance(item, ast.FunctionDef)
                     and (item.name == "__call__"
                          or not item.name.startswith("_"))]
            if _is_dataclass(cls):
                names += [item.target.id for item in cls.body
                          if isinstance(item, ast.AnnAssign)]
            out |= {f"{cls.name}.{name}" for name in names}
    return out


def _unread() -> set:
    """Members whose name no attribute read in src/ or perfbench/ takes,
    the class's own methods included.  Reads are matched by name alone, so
    a member named like another type's attribute counts as read by it: an
    AbelianGroupSpec.index would pass on list.index in matrices.  A
    perfbench/ class reading its own state (self.counts) reads no package
    member, so those reads are skipped."""
    reads = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load)
                  and not (path.parent == PERFBENCH
                           and isinstance(n.value, ast.Name)
                           and n.value.id == "self")}
    return {m for m in _members() if m.split(".")[1] not in reads}


def _listed() -> set:
    return {f"{cls}.{name}" for classes in UNREAD_MEMBERS.values()
            for cls, names in classes.items() for name in names.split()}


def test_every_member_has_a_reader():
    assert _members()
    assert sorted(_unread() - _listed()) == []


def test_unread_members_are_unread_and_explained():
    # a member that gains a reader leaves the listing
    assert _unread() == _listed()
    assert set(UNREAD_MEMBERS) == {"report", "traced", "certificate", "format"}
    assert set(UNREAD_MEMBERS["format"].values()) <= {"to_text", "to_json"}
