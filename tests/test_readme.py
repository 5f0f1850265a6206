"""README: the library example runs and prints what its comments say."""

import ast
import math
import pathlib
import re

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
