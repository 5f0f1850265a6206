"""Fuzzing the five text readers and the CLI flags that read their files.

Each input is arbitrary text or a valid file with one token replaced.  A
reader either parses it or raises one ValueError whose message names the
format (a truth table above MAX_ARITY raises ResourceLimitError instead).
Through ``cli.main`` a file, given as text or as raw bytes that need not be
UTF-8, never gives a traceback: a refused file exits 2 with one line on
stderr that names the flag, ``error: --<flag>``, and nothing on stdout.
"""

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commbound import boolfn as bf
from commbound import cli
from commbound import groupcomp as gc
from commbound import matrices as mx
from commbound.errors import ResourceLimitError

GMAP = gc.GroupMapMatrix.from_sign_blocks([mx.XOR_2, mx.XOR_2])

# name: (reader, a valid file, a pattern its error messages match)
READERS = {
    "sign matrix": (mx.parse_sign_matrix, mx.PATTERN_CORE_4.to_text(),
                    "sign.matrix"),
    "distribution": (mx.DistributionMatrix.from_text,
                     "2 2\n0.25 0.25\n0.25 0.25\n", "distribution"),
    "truth table": (bf.parse_truth_table,
                    bf.format_truth_table(bf.builtin_function("AND", 2)),
                    "truth table"),
    "group map": (gc.GroupMapMatrix.from_text, GMAP.to_text(), "group.map"),
    "character table": (gc.CharacterTable.from_json,
                        gc.characters_abelian(gc.AbelianGroupSpec([2])
                                              ).to_json(),
                        "character table JSON"),
}

# name: (the format in READERS, the argv that reads it from a file named
# last); None is the valid group map that --table and --values need
FLAGS = {
    "sign matrix": ("sign matrix", ["analyze-matrix", "--input"]),
    "inner matrix": ("sign matrix", ["compose", "--function", "PARITY:1",
                                     "--inner"]),
    "forbidden pattern": ("sign matrix", ["search-balanced", "--rows", "2",
                                          "--cols", "2", "--forbidden"]),
    "distribution": ("distribution", [
        "lower-bound", "--theorem", "shizhu", "--function", "PARITY:1",
        "--inner", "xor2", "--mu"]),
    "truth table": ("truth table",
                    ["approx-degree", "--epsilon", "0.3", "--function"]),
    "group map": ("group map", ["group-check", "--gmap"]),
    "character table": ("character table",
                        ["group-check", "--gmap", None, "--table"]),
    "values": ("values", ["group-check", "--gmap", None, "--values"]),
}

SEPARATORS = r"(\s+|[,:\[\]{}])"
# printable ASCII with the control, line-breaking, space and digit
# characters that str.split, str.splitlines and int() treat specially
CHARACTERS = string.printable + "\x00\x1c\x85\xa0\u2028\u0663\u00e9"
TOKENS = st.sampled_from(
    ["", "x", "0", "1", "2", "-1", "+", "-", "+1", "2.0", "2.5", "nan", "inf",
     "1e999", "9" * 25, ":", ",", "\n", " ", "group", "n=", "true", "null",
     '"2"', "[", "]", "{", "}"]) | st.text(CHARACTERS, max_size=3)
TEXT = st.text(CHARACTERS, max_size=60)
ALPHABET_TEXT = st.text("0123456789+-.:, \n=groupnabe[]{}\"", max_size=60)


def mutations(valid: str):
    """valid with one token (or separator) replaced."""
    parts = re.split(SEPARATORS, valid)
    return st.tuples(st.integers(0, len(parts) - 1), TOKENS).map(
        lambda it: "".join(parts[:it[0]] + [it[1]] + parts[it[0] + 1:]))


def inputs(name: str):
    return st.one_of(TEXT, ALPHABET_TEXT, mutations(READERS[name][1]))


def fuzz(max_examples):
    return settings(max_examples=max_examples, derandomize=True,
                    deadline=None, database=None)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_parses_or_names_its_format(name):
    reader, _, pattern = READERS[name]

    @fuzz(150)
    @given(inputs(name))
    def check(text):
        try:
            reader(text)
        except ResourceLimitError:
            assert name == "truth table", text
        except ValueError as exc:
            assert re.search(pattern, str(exc)), (text, str(exc))
            assert "\n" not in str(exc), (text, str(exc))

    check()


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_cli_input_files_exit_cleanly(name, tmp_path, capsys):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GMAP.to_text())
    path = tmp_path / "input.txt"
    fmt, flag_argv = FLAGS[name]
    argv = [str(gmap) if a is None else a for a in flag_argv] + [str(path)]
    values = st.lists(st.sampled_from(["1", "-1", "0.5"]), min_size=4,
                      max_size=4).map(" ".join)
    texts = inputs(fmt) if fmt in READERS else \
        st.one_of(TEXT, ALPHABET_TEXT, values.flatmap(mutations))

    @fuzz(40)
    @given(st.one_of(texts.map(str.encode), st.binary(max_size=60)))
    def check(data):
        path.write_bytes(data)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_INAPPLICABLE, cli.EXIT_USAGE,
                        cli.EXIT_RESOURCE), (data, code)
        if code in (cli.EXIT_USAGE, cli.EXIT_RESOURCE):
            assert out == "" and err.count("\n") == 1, (data, out, err)
        if code == cli.EXIT_USAGE:
            assert err.startswith(f"error: {flag_argv[-1]}"), (data, err)

    check()
