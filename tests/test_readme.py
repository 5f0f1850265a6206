"""README: the library example runs and prints what its comments say, and
every CLI example runs and prints one report."""

import ast
import json
import math
import pathlib
import re
import shlex

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    scope, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, scope)
        else:
            exec(source, scope)

    def value(predicate):
        (found,) = [v for s, v in values.items() if predicate(s)]
        return found

    assert value(lambda s: s.startswith("cb.exact_rank(")) == 5
    assert value(lambda s: s.endswith(".equal")) is True
    assert math.isclose(value(lambda s: s.endswith(".main_term")),
                        math.log2(3), rel_tol=0, abs_tol=1e-12)


def test_cli_examples_run(capsys, monkeypatch, tmp_path):
    from commbound import cli

    text = README.read_text()
    cli_section = text[text.index("## CLI"):text.index("## File formats")]
    block = re.search(r"```sh\n(.*?)```", cli_section, re.S)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("commbound ")]
    assert len(lines) >= 8
    # the files the examples name: File formats' group map, a value per
    # element of its Z2 x Z2, and the uniform distribution on xor2
    group_map = re.search(r"```\n(group .*?)```", text, re.S)[1]
    (tmp_path / "gmap.txt").write_text(group_map)
    (tmp_path / "f.txt").write_text("1 -1 -1 1\n")
    (tmp_path / "mu.txt").write_text("2 2\n0.25 0.25\n0.25 0.25\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_INAPPLICABLE), (line, err)
        report = json.loads(out)   # exactly one JSON document
        assert report["schema"] == 1, line


def test_cli_flag_list_matches_the_parser():
    import argparse

    from commbound import cli

    text = README.read_text()
    cli_section = text[text.index("## CLI"):text.index("## Limits")]
    documented = {m[1]: set(re.findall(r"`(--[a-z0-9-]+)`", m[2]))
                  for m in re.finditer(r"^- `([a-z-]+)`: (.*?)(?=^- |\Z)",
                                       cli_section, re.S | re.M)}
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {flag for action in p._actions
                     for flag in action.option_strings
                     if flag.startswith("--") and flag != "--help"}
              for name, p in sub.choices.items()}
    assert documented == parsed
