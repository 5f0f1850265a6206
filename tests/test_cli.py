"""CLI: dispatch, exit codes, report schema, determinism."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from commbound import (CORE_FREE_6, HADAMARD_2, PATTERN_CORE_4, XOR_2,
                       SignMatrix, tensor)
from commbound import bounds as bd
from commbound import cli
from commbound.bounds import BoundReport
from commbound.cli import (EXIT_INAPPLICABLE, EXIT_OK, EXIT_RESOURCE,
                           EXIT_USAGE, main)
from commbound.errors import ResourceLimitError
from commbound.groupcomp import (AbelianGroupSpec, GroupMapMatrix,
                                 characters_abelian)


@pytest.fixture()
def core4_file(tmp_path):
    p = tmp_path / "core4.txt"
    p.write_text(PATTERN_CORE_4.to_text())
    return str(p)


@pytest.fixture()
def core6_file(tmp_path):
    p = tmp_path / "core6.txt"
    p.write_text(CORE_FREE_6.to_text())
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_analyze_matrix_core6(capsys, core6_file):
    code, report = run_cli(capsys, "analyze-matrix", "--input", core6_file)
    assert code == EXIT_OK
    assert report["schema"] == 1
    assert "version" in report and "config" in report
    body = report["report"]
    assert body["balance"]["strongly_balanced"] is True
    assert body["exact_rank"] == 5
    assert body["core4_free_up_to_permutation"] is True
    assert body["core4_free_ordered"] is True
    assert body["spectrum"]["spectral_norm"] == pytest.approx(3.46410161514)


def test_analyze_matrix_rank_one_16x16(capsys, tmp_path):
    path = tmp_path / "kron.txt"
    path.write_text(SignMatrix(np.kron(XOR_2.entries,
                                       np.ones((8, 8), dtype=int))).to_text())
    code, report = run_cli(capsys, "analyze-matrix", "--input", str(path))
    assert code == EXIT_OK
    body = report["report"]
    assert body["exact_rank"] == 1
    # a rank-1 matrix cannot hold the rank-2 core in any arrangement
    assert body["core4_free_up_to_permutation"] is True
    assert body["core4_free_ordered"] is True
    # M = u v^T with u, v of eight +1s and eight -1s: disc_U is
    # max |<x, u>| |<y, v>| / 256 over 0/1 vectors x, y, which is 8 * 8 / 256
    assert body["disc_uniform"] == 0.25


def test_analyze_matrix_core_free_skips_the_ordered_search(
        capsys, monkeypatch, core6_file):
    # an ordered copy is also a permuted one, so a core-free matrix needs
    # only the permuted search, and a matrix holding the core needs both
    import commbound.matrices

    calls = []
    find = commbound.matrices.contains_pattern
    monkeypatch.setattr(commbound.matrices, "contains_pattern",
                        lambda *a, **k: calls.append(a[2]) or find(*a, **k))
    code, report = run_cli(capsys, "analyze-matrix", "--input", core6_file)
    assert code == EXIT_OK and calls == ["up_to_permutation"]
    assert report["report"]["core4_free_ordered"] is True
    calls.clear()
    code, report = run_cli(capsys, "analyze-matrix", "--input", "core4")
    assert calls == ["up_to_permutation", "ordered"]
    assert report["report"]["core4_free_ordered"] is False


def test_analyze_accepts_builtin_names(capsys):
    code, report = run_cli(capsys, "analyze-matrix", "--input", "xor2")
    assert code == EXIT_OK
    assert report["report"]["exact_rank"] == 1


def test_approx_degree_command(capsys):
    code, report = run_cli(capsys, "approx-degree", "--function", "PARITY:3",
                           "--epsilon", "0.333333", "--dual")
    assert code == EXIT_OK
    body = report["report"]
    assert body["d"] == 3
    assert body["dual"]["all_checks_pass"] is True
    assert body["dual"]["correlation"] == pytest.approx(1.0)


def test_symmetric_outer_functions_run_on_levels(capsys):
    # the LP over all 2^10 points takes tens of seconds, the one over the
    # 11 levels milliseconds
    code, report = run_cli(capsys, "lower-bound", "--theorem", "sherstov",
                           "--function", "AND:10", "--inner", "core4")
    assert code == EXIT_OK
    assert report["report"]["intermediates"]["d"] == 4
    # the degree-15 witness of AND:16, lifted from 17 levels to 2^16 points
    code, report = run_cli(capsys, "approx-degree", "--function", "AND:16",
                           "--epsilon", "0", "--dual")
    assert code == EXIT_OK
    body = report["report"]
    assert body["d"] == 16 and body["dual"]["all_checks_pass"] is True
    assert len(body["dual"]["witness_table"]) == 2 ** 16


def test_partially_symmetric_outer_function_runs_on_its_types(capsys,
                                                               tmp_path):
    # MAJ:15 flipped at the point x_1 = -1: classes {x_1} and the 14
    # others, so each LP runs on 2 * 15 types instead of 2^15 points
    from commbound.boolfn import BoolFunction, builtin_function, \
        format_truth_table

    table = builtin_function("MAJ", 15).table.copy()
    table[1] *= -1
    path = tmp_path / "maj15-flipped.txt"
    path.write_text(format_truth_table(BoolFunction(15, table)))
    code, report = run_cli(capsys, "approx-degree", "--function", str(path),
                           "--epsilon", "0.333", "--dual")
    assert code == EXIT_OK
    body = report["report"]
    assert body["d"] == 11 and body["dual"]["all_checks_pass"] is True
    assert len(body["dual"]["witness_table"]) == 2 ** 15


def test_compose_command(capsys, core4_file):
    code, report = run_cli(capsys, "compose", "--function", "AND:2",
                           "--inner", core4_file, "--verify-rank", "--witness")
    assert code == EXIT_OK
    body = report["report"]
    assert body["rank_formula"] == {
        "formula_rank": 9, "composed_rank": 9, "equal": True, "inner_rank": 2}
    assert body["witness"]["l1"] == pytest.approx(1.0)
    assert body["witness"]["spectral_norm"] <= \
        body["witness"]["spectral_bound"] + 1e-8


def test_lower_bound_sherstov(capsys, core4_file):
    code, report = run_cli(capsys, "lower-bound", "--theorem", "sherstov",
                           "--function", "PARITY:2", "--inner", core4_file)
    assert code == EXIT_OK
    assert report["report"]["main_term"] == pytest.approx(1.0)


def test_lower_bound_rank_one_exits_1(capsys):
    code, report = run_cli(capsys, "lower-bound", "--theorem", "sherstov",
                           "--function", "PARITY:2", "--inner", "xor2")
    assert code == EXIT_INAPPLICABLE
    assert any("rank 1" in w for w in report["report"]["warnings"])


def test_lower_bound_exit_reads_the_inner_rank(capsys, monkeypatch):
    # the rank-1 exit comes from the reported rank, not from warning text
    import commbound.bounds

    def rank_12(f, g, epsilon0):
        return BoundReport(theorem="sherstov", applicable=True, main_term=1.0,
                           intermediates={"inner_rank": 12},
                           warnings=["inner matrix has rank 12"])

    monkeypatch.setattr(commbound.bounds, "sherstov_bound", rank_12)
    code, report = run_cli(capsys, "lower-bound", "--theorem", "sherstov",
                           "--function", "PARITY:2", "--inner", "core4")
    assert code == EXIT_OK
    assert report["report"]["intermediates"] == {"inner_rank": 12}


def test_lower_bound_shizhu_needs_mu(capsys, core4_file):
    code, _ = run_cli(capsys, "lower-bound", "--theorem", "shizhu",
                      "--function", "PARITY:2", "--inner", core4_file)
    assert code == EXIT_USAGE


def test_lower_bound_shizhu(capsys, tmp_path):
    mu = tmp_path / "mu.txt"
    mu.write_text("2 2\n0.25 0.25\n0.25 0.25\n")
    code, report = run_cli(capsys, "lower-bound", "--theorem", "shizhu",
                           "--function", "PARITY:2", "--inner", "xor2",
                           "--mu", str(mu))
    assert code == EXIT_INAPPLICABLE  # condition fails at this tiny scale
    assert report["report"]["intermediates"]["gap"] > 0


def test_lower_bound_shizhu_outer_function_of_no_inputs(capsys, tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("n=0\n1\n")
    mu = tmp_path / "mu.txt"
    mu.write_text("2 2\n0.25 0.25\n0.25 0.25\n")
    code = main(["lower-bound", "--theorem", "shizhu", "--function", str(f),
                 "--inner", "xor2", "--mu", str(mu)])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_INAPPLICABLE, "")
    body = json.loads(out)["report"]
    assert not body["applicable"] and body["main_term"] is None
    assert "no inputs" in body["warnings"][-1]


def test_lower_bound_shizhu_refuses_a_tensor_inner(capsys, monkeypatch,
                                                   tmp_path):
    # g = corefree6 (x) core4 under the uniform mu: gamma2* is at least the
    # duality floor 1/sqrt(24), above d/(2en) = 1/(2e), for every mu, so
    # the condition fails before any subset is enumerated.  A 26 x 26 inner,
    # past the enumeration cap of 2^24 subsets, is refused the same way
    def no_enumeration(*args):
        raise AssertionError("discrepancy enumerated")

    monkeypatch.setattr(bd, "discrepancy", no_enumeration)
    tiles = SignMatrix(np.tile(XOR_2.entries, (13, 13)))
    for g in (tensor(CORE_FREE_6, PATTERN_CORE_4), tiles):
        side = g.rows
        inner = tmp_path / "g.txt"
        inner.write_text(g.to_text())
        mu = tmp_path / "mu.txt"
        mu.write_text(f"{side} {side}\n" +
                      (" ".join([repr(side ** -2)] * side) + "\n") * side)
        code, report = run_cli(capsys, "lower-bound", "--theorem", "shizhu",
                               "--function", "PARITY:3", "--inner",
                               str(inner), "--mu", str(mu))
        assert code == EXIT_INAPPLICABLE
        body = report["report"]
        assert body["main_term"] is None
        assert body["intermediates"]["gamma2_star_floor"] == \
            pytest.approx(side ** -0.5)
        assert "gamma2_star_high" not in body["intermediates"]
        assert body["warnings"][-1].endswith(
            "needs at least 30 rows and columns")


def test_lower_bound_shizhu_applies_on_core4_times_h2_to_the_fourth(
        capsys, tmp_path):
    # g = core4 (x) h2^(x)4 (64 x 64) under the uniform mu: the
    # Cauchy-Schwarz end ||M_g||/64 = 2^(-5/2) is below d/(2en) = 1/(2e)
    g = functools.reduce(tensor, [HADAMARD_2] * 4, PATTERN_CORE_4)
    inner = tmp_path / "g.txt"
    inner.write_text(g.to_text())
    mu = tmp_path / "mu.txt"
    mu.write_text("64 64\n" + (" ".join([repr(64 ** -2)] * 64) + "\n") * 64)
    code, report = run_cli(capsys, "lower-bound", "--theorem", "shizhu",
                           "--function", "PARITY:3", "--inner", str(inner),
                           "--mu", str(mu))
    assert code == EXIT_OK
    body = report["report"]
    assert body["applicable"] and body["main_term"] == 3.0
    assert body["intermediates"]["gamma2_star_high"] == \
        pytest.approx(2 ** -2.5, abs=1e-12)


def test_disc_enumerates_the_shorter_side(capsys, tmp_path):
    # 26 x 2 is enumerated over its 2^2 column subsets, not 2^26 row ones
    tall = tmp_path / "tall.txt"
    tall.write_text(SignMatrix(np.tile([[1, -1], [-1, 1]], (13, 1)))
                    .to_text())
    code, report = run_cli(capsys, "lower-bound", "--theorem", "disc",
                           "--function", "AND:2", "--inner", str(tall))
    assert code == EXIT_INAPPLICABLE    # vacuous: disc_U = 1/4 > 2^-7
    assert report["report"]["intermediates"]["disc_u"] == 0.25
    code, report = run_cli(capsys, "analyze-matrix", "--input", str(tall))
    assert code == EXIT_OK
    assert report["report"]["disc_uniform"] == 0.25


def test_lower_bound_disc_refuses_an_unbalanced_inner(capsys):
    code, report = run_cli(capsys, "lower-bound", "--theorem", "disc",
                           "--function", "AND:2", "--inner", "h2")
    assert code == EXIT_INAPPLICABLE
    body = report["report"]
    assert body["applicable"] is False and body["main_term"] is None
    assert "inner matrix is not strongly balanced" in body["warnings"]


def test_usage_errors(capsys, monkeypatch, tmp_path, core4_file):
    code, _ = run_cli(capsys, "approx-degree", "--function", "PARITY:2",
                      "--epsilon", "1.5")
    assert code == EXIT_USAGE
    code, _ = run_cli(capsys, "lower-bound", "--theorem", "sherstov",
                      "--function", "PARITY:2", "--inner", "/nope/missing.txt")
    assert code == EXIT_USAGE
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    missing = str(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    bad_json = tmp_path / "table.json"
    bad_json.write_text('{"h": 2, "order": 2}')
    group = ["group-check", "--gmap", str(gmap)]
    shizhu = ["lower-bound", "--theorem", "shizhu", "--function", "PARITY:2",
              "--inner", "xor2"]

    # every check fires while parsing, before any handler runs
    def unreachable(opts):
        raise AssertionError("a handler ran on a usage error")

    for command in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, command, unreachable)
    # negative counts, malformed or out-of-range numbers and
    # missing files are refused up front with one line
    for argv in (["search-balanced", "--rows", "4", "--cols", "4",
                  "--limit", "-1"],
                 ["search-balanced", "--rows", "4", "--cols", "4",
                  "--min-rank", "-2"],
                 ["approx-degree", "--function", "AND:2", "--epsilon", "abc"],
                 ["lower-bound", "--theorem", "sherstov", "--function",
                  "AND:2", "--inner", "core4", "--epsilon0", "0"],
                 ["analyze-matrix", "--input", "core4", "--tolerance", "0"],
                 ["analyze-matrix", "--input", "core4", "--tolerance", "nan"],
                 ["analyze-matrix", "--input", "core4", "--tolerance", "1"],
                 ["search-balanced", "--rows", "4", "--cols", "4",
                  "--limit", "x"],
                 ["search-balanced", "--rows", "x", "--cols", "4"],
                 ["search-balanced", "--rows", "3", "--cols", "4"],
                 ["search-balanced", "--rows", "0", "--cols", "4"],
                 ["search-balanced", "--rows", "4", "--cols", "-2"],
                 group + ["--easy", "1,a"],
                 ["group-check", "--gmap", missing],
                 group + ["--values", missing],
                 group + ["--table", missing],
                 shizhu + ["--mu", missing],
                 # malformed contents are read before dispatch too
                 ["group-check", "--gmap", str(empty)],
                 group + ["--table", str(bad_json)]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: --") and err.count("\n") == 1, argv


def test_group_order_past_the_cap_is_a_usage_error(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text("group " + ",".join(["2"] * 15) + "\n" +
                    ":".join(["0"] * 15) + "\n")
    code = main(["group-check", "--gmap", str(gmap)])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: --gmap: ") and "at most 16384" in err \
        and err.count("\n") == 1


def test_input_flag_refusals_name_the_flag(capsys, monkeypatch, tmp_path):
    # every read failure of an input flag, whether the file is missing, a
    # directory, not UTF-8 or malformed, is one line naming that flag
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    bad_mu = tmp_path / "mu.txt"
    bad_mu.write_text("2 2\n0.25 0.25\n0.5\n")
    nan = tmp_path / "nan.txt"
    nan.write_text("nan 1\n")
    inf = tmp_path / "inf.txt"
    inf.write_text("1 -inf\n")
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    group = ["group-check", "--gmap", str(gmap)]
    bound = ["lower-bound", "--function", "PARITY:2", "--inner", "xor2"]
    cases = [
        ("--input", ["analyze-matrix", "--input", str(binary)]),
        ("--function", ["approx-degree", "--epsilon", "0.3",
                        "--function", str(binary)]),
        ("--mu", bound + ["--theorem", "shizhu", "--mu", str(binary)]),
        ("--gmap", ["group-check", "--gmap", str(binary)]),
        ("--table", group + ["--table", str(binary)]),
        ("--values", group + ["--values", str(binary)]),
        ("--values", group + ["--values", str(nan)]),
        ("--values", group + ["--values", str(inf)]),
        ("--inner", ["compose", "--function", "AND:2",
                     "--inner", str(tmp_path)]),
        ("--gmap", ["group-check", "--gmap", str(tmp_path)]),
        ("--function", ["approx-degree", "--epsilon", "0.3",
                        "--function", "/nonexist"]),
        ("--forbidden", ["search-balanced", "--rows", "4", "--cols", "4",
                         "--forbidden", "nosuch"]),
        # a malformed --mu is refused even where the theorem does not read it
        ("--mu", bound + ["--theorem", "sherstov", "--mu", str(bad_mu)]),
    ]

    def unreachable(opts):
        raise AssertionError("a handler ran on a usage error")

    for command in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, command, unreachable)
    for flag, argv in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith(f"error: {flag}: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)


def test_refusals_after_the_read_name_the_flag(capsys, tmp_path):
    # inputs that parse but do not fit the command are refused by the
    # handler, each with one line naming the flag at fault
    small_mu = tmp_path / "small.txt"
    small_mu.write_text("1 1\n1\n")
    skewed_mu = tmp_path / "skewed.txt"
    skewed_mu.write_text("2 2\n1 0\n0 0\n")
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    gmap4 = tmp_path / "gmap4.txt"
    gmap4.write_text(GroupMapMatrix.from_sign_blocks([XOR_2] * 2).to_text())
    table = tmp_path / "table.json"
    table.write_text(characters_abelian(AbelianGroupSpec([2])).to_json())
    # rows (1, -1) and (i, i): orthogonal, within degree 1, neither trivial
    no_trivial = tmp_path / "no_trivial.json"
    no_trivial.write_text('{"h": 2, "order": 2, "table": [[1, 0], [-1, 0], '
                          '[0, 1], [0, 1]], "class_of": [0, 1], '
                          '"degrees": [1, 1]}')
    # S3's rows with e grouped with the transposition (01): the sign
    # character is 1 and -1 on that class
    s3_rows = [1] * 6 + [1, -1, -1, -1, 1, 1] + [2, 0, 0, 0, -1, -1]
    mixed = tmp_path / "mixed.json"
    mixed.write_text('{"h": 3, "order": 6, "table": ['
                     + ", ".join(f"[{v}, 0]" for v in s3_rows)
                     + '], "class_of": [0, 0, 1, 1, 2, 2], '
                     '"degrees": [1, 1, 2]}')
    shizhu = ["lower-bound", "--theorem", "shizhu", "--function", "PARITY:1"]
    compose = ["compose", "--function", "AND:2", "--inner", "h2"]
    cases = [
        ("--mu: mu must have the same shape",
         shizhu + ["--inner", "xor2", "--mu", str(small_mu)]),
        ("--mu: mu must be balanced",
         shizhu + ["--inner", "h2", "--mu", str(skewed_mu)]),
        ("--table: character table JSON: table has no trivial character "
         "row\n",
         ["group-check", "--gmap", str(gmap), "--table", str(no_trivial)]),
        ("--table: character table has order 2, but the group map has "
         "order 4\n",
         ["group-check", "--gmap", str(gmap4), "--table", str(table)]),
        ("--table: character table JSON: characters must be constant on "
         "each class\n",
         ["group-check", "--gmap", str(gmap), "--table", str(mixed)]),
        ("--easy: easy indices must be distinct and in [0, 4), got "
         "[0, 0]\n",
         ["group-check", "--gmap", str(gmap4), "--easy", "0,0"]),
        ("--inner: inner matrix must be strongly balanced",
         compose + ["--verify-rank"]),
        ("--inner: witness construction without mu requires",
         compose + ["--witness"]),
        ("--rows must be a positive even integer, got 3",
         ["search-balanced", "--rows", "3", "--cols", "4"]),
        ("--rows must be a positive even integer, got 0",
         ["search-balanced", "--rows", "0", "--cols", "4"]),
        ("--cols must be a positive even integer, got 5",
         ["search-balanced", "--rows", "4", "--cols", "5"]),
    ]
    for prefix, argv in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith(f"error: {prefix}"), (argv, err)
        assert err.count("\n") == 1, (argv, err)


def test_handlers_get_parsed_inputs_and_config_echoes_the_flags(
        capsys, monkeypatch, tmp_path):
    # the function loader is looked up when a flag is read, so a patched
    # load_function (as a tracer installs it) is the one that runs
    calls = []
    load = cli.load_function
    monkeypatch.setattr(cli, "load_function",
                        lambda spec: calls.append(spec) or load(spec))
    mu = tmp_path / "mu.txt"
    mu.write_text("2 2\n0.25 0.25\n0.25 0.25\n")
    code, report = run_cli(capsys, "lower-bound", "--theorem", "shizhu",
                           "--function", "PARITY:2", "--inner", "xor2",
                           "--mu", str(mu))
    assert code == EXIT_INAPPLICABLE and calls == ["PARITY:2"]
    config = report["config"]
    assert (config["function"], config["inner"], config["mu"]) == \
        ("PARITY:2", "xor2", str(mu))


def test_unknown_flag_exits_2(capsys):
    for argv in (["analyze-matrix", "--input", "xor2", "--frobnicate"],
                 ["compose", "--function", "AND:2", "--inner", "core4",
                  "--blocks", "2"],
                 ["approx-degree", "--function", "AND:2", "--epsilon", "0.3",
                  "--tolerance", "1e-9"],
                 # the retired cap flags: every limit is fixed
                 ["analyze-matrix", "--input", "core4", "--enum-cap", "30"],
                 ["lower-bound", "--theorem", "disc", "--function", "AND:2",
                  "--inner", "core4", "--enum-cap", "30"],
                 ["compose", "--function", "AND:2", "--inner", "core4",
                  "--memory-cap", "100"]):
        code = main(argv)
        out, _ = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), argv


def test_malformed_input_files_exit_2(capsys, tmp_path):
    mu = tmp_path / "mu.txt"
    mu.write_text("")
    code, report = run_cli(capsys, "lower-bound", "--theorem", "shizhu",
                           "--function", "PARITY:2", "--inner", "xor2",
                           "--mu", str(mu))
    assert (code, report) == (EXIT_USAGE, None)
    gm = GroupMapMatrix.from_sign_blocks([PATTERN_CORE_4])
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(gm.to_text())
    bad = tmp_path / "bad.txt"
    pairs = '"table": [[1, 0], [1, 0], [1, 0], [-1, 0]]'
    table = ('{"h": %s, "order": %s, ' + pairs +
             ', "class_of": [0, 1], "degrees": [1, 1]}')
    group_check = ["group-check", "--gmap", str(gmap), "--table", str(bad)]
    cases = [(group_check, text, "character table JSON") for text in (
        '{"h": 2, "order": 2}',
        '{"h": 2, "order": 2, "table": [1, 1, 1, -1], '
        '"class_of": [0, 1], "degrees": [1, 1]}',
        '{"h": 2, "order": 2, %s, "class_of": [0, 1], '
        '"degrees": [null, 1]}' % pairs,
        '{"h": 2, "order": 2, %s, "class_of": [0.5, 1], '
        '"degrees": [1, 1]}' % pairs,
        '{"h": 2, "order": 2, %s, "class_of": [0, 1], '
        '"degrees": [1.5, 1]}' % pairs,
        "not json", "[" * 100000)]
    for value in ("2.0", '"2"', "2.5", "true"):
        cases += [(group_check, table % (value, 2), "h must be"),
                  (group_check, table % (2, value), "order must be")]
    shizhu = ["lower-bound", "--theorem", "shizhu", "--function", "PARITY:2",
              "--inner", "xor2", "--mu", str(bad)]
    cases += [(shizhu, "2 2\n0.25 0.25\n0.5\n", "distribution"),
              (shizhu, "2 2 2\n0.25 0.25\n0.25 0.25\n", "distribution"),
              (shizhu, "a b\n", "distribution")]
    cases += [(["analyze-matrix", "--input", str(bad)], text, "sign-matrix")
              for text in ("a b\n+ -\n", "2 2 2\n+ -\n- +\n", "1 2\n+\n")]
    cases += [(["approx-degree", "--function", str(bad), "--epsilon", "0.3"],
               text, "truth table") for text in ("n=-1\n", "n=x\n01\n")]
    cases += [(["group-check", "--gmap", str(bad)], text, "group")
              for text in ("group 2,2\n", "group\n0\n", "group 2,\n0\n",
                           "group 2\n0,x\n", "group 2\n0:0\n")]
    cases += [(["group-check", "--gmap", str(gmap), "--values", str(bad)],
               "1 abc 1 1\n", "--values")]
    for argv, text, words in cases:
        bad.write_text(text)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), text
        assert err.startswith("error: ") and err.count("\n") == 1, text
        assert words in err and "invalid literal" not in err, (text, err)


def test_non_finite_inputs_exit_2(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    irregular = tmp_path / "irregular.txt"
    irregular.write_text("group 2\n0,0\n1,0\n")
    mu = tmp_path / "mu.txt"
    mu.write_text("2 2\n0.25 0.25\n0.25 nan\n")
    table = tmp_path / "table.json"
    table.write_text('{"h": 2, "order": 2, "table": [[1, 0], [1, 0], [1, 0], '
                     '[NaN, 0]], "class_of": [0, 1], "degrees": [1, 1]}')
    argvs = [["lower-bound", "--theorem", "shizhu", "--function", "PARITY:2",
              "--inner", "xor2", "--mu", str(mu)],
             ["group-check", "--gmap", str(gmap), "--table", str(table)]]
    for text in ("nan 1", "1 inf", "-inf 0"):
        values = tmp_path / f"values-{len(argvs)}.txt"
        values.write_text(text + "\n")
        for path in (gmap, irregular):
            argvs.append(["group-check", "--gmap", str(path),
                          "--values", str(values)])
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and "finite" in err, argv
        assert err.count("\n") == 1, argv


def test_group_check_refuses_values_that_are_not_a_class_function(
        capsys, tmp_path):
    # S3's multiplication table as a map file over Z6 (one index per
    # element); the --table supplies S3's characters.  f differs on the
    # transpositions 1 and 2
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    mult = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
            for p in perms]
    gmap = tmp_path / "s3.gmap"
    gmap.write_text(GroupMapMatrix(mult, AbelianGroupSpec([6])).to_text())
    table = tmp_path / "s3.json"
    table.write_text('{"h": 3, "order": 6, "table": ['
                     + ", ".join(f"[{v}, 0]" for v in
                                 [1] * 6 + [1, -1, -1, -1, 1, 1]
                                 + [2, 0, 0, 0, -1, -1])
                     + '], "class_of": [0, 1, 1, 1, 2, 2], '
                     '"degrees": [1, 1, 2]}')
    values = tmp_path / "values.txt"
    argv = ["group-check", "--gmap", str(gmap), "--table", str(table),
            "--values", str(values)]
    values.write_text("1 -1 1 1 1 1\n")
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: --values: values are not a class function: "
                   "elements 1 and 2 share class 1 but differ\n")
    values.write_text("1 -1 -1 -1 1 1\n")
    code, report = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert report["report"]["bound"]["applicable"] is True


def test_group_check_zero_distance_is_a_positive_zero(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text("group 2\n0,1\n1,0\n")
    values = tmp_path / "values.txt"
    values.write_text("1 1\n")
    code = main(["group-check", "--gmap", str(gmap), "--values", str(values)])
    # the report only: the echoed file names may contain "-0"
    body = json.dumps(json.loads(capsys.readouterr().out)["report"])
    assert code == EXIT_INAPPLICABLE
    assert '"delta": 0.0' in body and "-0" not in body
    assert "delta - 2 eps = 0 is not positive" in body


def test_group_check_easy_indices_exit_2(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    for easy in ("99", "0,0", "-1", "1,2"):
        code = main(["group-check", "--gmap", str(gmap), "--easy", easy])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), easy
        assert err.startswith("error: --easy") and err.count("\n") == 1, easy
    code, report = run_cli(capsys, "group-check", "--gmap", str(gmap),
                           "--easy", "1,0")
    assert code == EXIT_OK and report["report"]["easy"] == [0, 1]


def test_resource_cap_exits_3(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the dual LP ran on a refused composition")

    monkeypatch.setattr(cli, "dual_polynomial", unreachable)
    # 8192 x 8192 composed entries pass the 256 MiB budget by themselves
    for flag in ("--verify-rank", "--witness"):
        code = main(["compose", "--function", "PARITY:13", "--inner", "xor2",
                     flag])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_RESOURCE, ""), flag
        assert err.startswith("resource limit: composed matrix of "
                              "8192x8192") and err.count("\n") == 1, flag


def test_unbalanced_inner_refused_before_the_composition(capsys,
                                                         monkeypatch):
    from commbound import composer

    def unreachable(*args):
        raise AssertionError("work began on a refused inner matrix")

    monkeypatch.setattr(composer, "compose_block", unreachable)
    monkeypatch.setattr(cli, "dual_polynomial", unreachable)
    rank = ("error: --inner: inner matrix must be strongly balanced for the "
            "rank formula to apply\n")
    witness = ("error: --inner: witness construction without mu requires a "
               "strongly balanced inner matrix\n")
    for flags, line in ((["--verify-rank"], rank), (["--witness"], witness),
                        (["--verify-rank", "--witness"], rank)):
        code = main(["compose", "--function", "AND:11", "--inner", "h2",
                     *flags])
        assert (code, *capsys.readouterr()) == (EXIT_USAGE, "", line), flags
        # the byte budget is checked first
        code = main(["compose", "--function", "PARITY:13", "--inner", "h2",
                     *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_RESOURCE, ""), flags
        assert err.startswith("resource limit: composed matrix of "
                              "8192x8192") and err.count("\n") == 1, flags


def test_disc_enumeration_cap_refused_before_the_lp(capsys, monkeypatch,
                                                    tmp_path):
    def unreachable(*args):
        raise AssertionError("the degree LP ran on a refused inner matrix")

    monkeypatch.setattr(bd, "approx_degree", unreachable)
    inner = tmp_path / "core6sq.txt"
    inner.write_text(tensor(CORE_FREE_6, CORE_FREE_6).to_text())
    code = main(["lower-bound", "--theorem", "disc", "--function", "MAJ:9",
                 "--inner", str(inner)])
    assert (code, *capsys.readouterr()) == (
        EXIT_RESOURCE, "",
        "resource limit: discrepancy enumeration needs 2^36 subsets of the "
        "shorter side (cap 2^24); fall back to the bound "
        "disc <= ||A||/sqrt(size(A))\n")


def test_explicit_easy_refused_before_the_character_table(
        capsys, monkeypatch, tmp_path):
    from commbound import groupcomp as gc

    def unreachable(*args):
        raise AssertionError("the character table was built")

    gmap = tmp_path / "gmap.txt"
    gmap.write_text("group " + ",".join(["2"] * 12) + "\n" + "".join(
        ",".join(":".join(str(a >> b & 1) for b in range(12))
                 for a in range(64 * r, 64 * r + 64)) + "\n"
        for r in range(64)))
    table = tmp_path / "table.json"
    table.write_text(characters_abelian(AbelianGroupSpec([2])).to_json())
    gmap2 = tmp_path / "gmap2.txt"
    gmap2.write_text(GroupMapMatrix.from_sign_blocks([XOR_2]).to_text())
    monkeypatch.setattr(gc, "characters_abelian", unreachable)
    for argv, line in (
            (["--gmap", str(gmap), "--easy", "5000"], "[0, 4096), got [5000]"),
            (["--gmap", str(gmap), "--easy", "0,0"], "[0, 4096), got [0, 0]"),
            (["--gmap", str(gmap2), "--table", str(table), "--easy", "2"],
             "[0, 2), got [2]")):
        code = main(["group-check", *argv])
        assert (code, *capsys.readouterr()) == (
            EXIT_USAGE, "",
            f"error: --easy: easy indices must be distinct and in {line}\n")


def test_compose_reports_the_shape_without_building_it(capsys):
    import tracemalloc

    # only --verify-rank and --witness build a matrix, so the shape of one
    # past the byte budget is still reported
    tracemalloc.start()
    try:
        code = main(["compose", "--function", "PARITY:13", "--inner", "xor2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)["report"]
    assert code == EXIT_OK
    assert (rep["rows"], rep["cols"], rep["blocks"]) == (8192, 8192, 13)
    assert set(rep) == {"outer_arity", "blocks", "rows", "cols"}
    assert peak < 2 ** 20


def test_arity_cap_exits_3_before_building_the_table(capsys, tmp_path):
    import time

    table = tmp_path / "f.txt"
    table.write_text("n=30\n0110\n")
    for spec in ("AND:30", str(table)):
        start = time.perf_counter()
        code = main(["approx-degree", "--function", spec, "--epsilon", "0.3"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_RESOURCE, ""), spec
        assert err.startswith("resource limit:") and err.count("\n") == 1
        assert elapsed < 1.0, spec


def test_group_check_character_table_cap_exits_3(capsys, tmp_path):
    gmap = tmp_path / "gmap.txt"
    # a character table of order 2^13, then the character stacks of Z2^11
    # on a 128 x 32 map that holds each element twice (the real stacks of a
    # 64 x 32 map fit the budget)
    elements = [":".join(str(a >> b & 1) for b in range(11))
                for a in range(2 ** 11)] * 2
    for text in ("group " + ",".join(["2"] * 13) + "\n" +
                 ":".join(["0"] * 13) + "\n",
                 "group " + ",".join(["2"] * 11) + "\n" +
                 "".join(",".join(elements[r::128]) + "\n"
                         for r in range(128))):
        gmap.write_text(text)
        code = main(["group-check", "--gmap", str(gmap)])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.startswith("resource limit:") and err.count("\n") == 1
    # the pair multisets of a 330 x 330 map are past the budget, so the
    # dense route decides orthogonality and invariance is left out
    gmap.write_text("group 2\n" + (",".join("01" * 165) + "\n") * 330)
    code = main(["group-check", "--gmap", str(gmap)])
    rep = json.loads(capsys.readouterr().out)["report"]
    assert code == EXIT_OK
    assert rep["orthogonality"]["passed"] is True
    assert rep["orthogonality"]["route"] == "dense"
    assert "all_pairs_invariant" not in rep


def test_solver_failure_exits_3(capsys, monkeypatch):
    import commbound.approx
    from commbound.simplex import SimplexError

    def fail(*args, **kwargs):
        raise SimplexError("simplex iteration cap 10 exceeded")

    monkeypatch.setattr(commbound.approx, "solve_lp", fail)
    # AND:3 at 0.3 fits at degree 2 = n - 1 without an LP, and degree 1 is
    # left to one
    code = main(["approx-degree", "--function", "AND:3", "--epsilon", "0.3"])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_dual_solves_one_lp_per_degree(capsys, monkeypatch):
    # each degree the search probes is solved once, and the witness is the
    # degree d-1 dual, so --dual adds no LP.  Degree 0 and, for deg(f) = n,
    # degree n - 1 are read off the transform: MAJ:5 misses at degree 4
    # (|s|/2^5 = 3/8) and stops at d = 5 with no LP; AND:5 searches degrees
    # 1..3 below its fit at degree 4 (1/16), probing 1, 3 and 2, where the
    # sweep solved 0..3
    import commbound.approx
    from commbound.boolfn import degree, load_function

    calls = []
    solve = commbound.approx.solve_lp
    monkeypatch.setattr(commbound.approx, "solve_lp",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    for spec, d_want, lps in (("MAJ:5", 5, 0), ("AND:5", 3, 3)):
        calls.clear()
        code, report = run_cli(capsys, "approx-degree", "--function", spec,
                               "--epsilon", "0.333", "--dual")
        assert code == EXIT_OK
        assert report["report"]["dual"]["all_checks_pass"] is True
        d = report["report"]["d"]
        assert (d, len(calls)) == (d_want, lps)
        assert len(calls) <= min(d + 1, degree(load_function(spec)))


def test_zero_epsilon_certifies_full_degree_without_an_lp(capsys, tmp_path,
                                                          monkeypatch):
    # AND:12 flipped also at the points 2^k - 1, k = 0..11: no swap
    # symmetry, so its LPs run on all 2^12 points, and the degree-11 one is
    # past the byte budget.  Its degree is 12, so the degree-11 dual is the
    # parity and no LP is solved
    import commbound.approx
    from commbound.boolfn import (BoolFunction, builtin_function,
                                  format_truth_table)

    table = builtin_function("AND", 12).table.copy()
    table[[2 ** k - 1 for k in range(12)]] *= -1
    path = tmp_path / "and12-flipped.txt"
    path.write_text(format_truth_table(BoolFunction(12, table)))
    monkeypatch.setattr(commbound.approx, "solve_lp", None)
    code, report = run_cli(capsys, "approx-degree", "--function", str(path),
                           "--epsilon", "0", "--dual")
    assert code == EXIT_OK
    rep = report["report"]
    assert (rep["d"], rep["lp_status"], rep["max_error"]) == (12, "exact", 0.0)
    assert rep["dual"]["all_checks_pass"] is True
    assert rep["dual"]["margins"]["orthogonality_max"] == 0.0


def test_search_balanced_command(capsys):
    code, report = run_cli(capsys, "search-balanced", "--rows", "4",
                           "--cols", "4")
    assert code == EXIT_OK
    assert report["report"]["count"] == 2


def test_search_balanced_tall_repeated_rows(capsys):
    # every 16x2 strongly balanced matrix repeats its two row kinds eight
    # times; the canonicality test branches once per kind
    code, report = run_cli(capsys, "search-balanced", "--rows", "16",
                           "--cols", "2")
    assert code == EXIT_OK
    assert report["report"]["count"] == 1


def test_search_balanced_past_the_recursion_limit(capsys):
    # 600 rows: the search and its canonicality test both run on explicit
    # stacks, so no depth reaches Python's recursion limit
    code, report = run_cli(capsys, "search-balanced", "--rows", "600",
                           "--cols", "2")
    assert code == EXIT_OK
    assert report["report"]["matrices"][0]["matrix"] == \
        [[1, -1]] * 300 + [[-1, 1]] * 300


def test_search_balanced_wide_rows_exit_3(capsys):
    code = main(["search-balanced", "--rows", "2", "--cols", "24",
                 "--limit", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.startswith("resource limit: 24 columns need") and \
        err.count("\n") == 1


def test_search_balanced_core_free(capsys, core4_file):
    code, report = run_cli(capsys, "search-balanced", "--rows", "6",
                           "--cols", "6", "--min-rank", "2",
                           "--forbidden", core4_file, "--limit", "1")
    assert code == EXIT_OK
    assert report["report"]["count"] == 1


def test_group_check_command(capsys, tmp_path):
    gm = GroupMapMatrix.from_sign_blocks([PATTERN_CORE_4])
    gmap = tmp_path / "gmap.txt"
    gmap.write_text(gm.to_text())
    values = tmp_path / "values.txt"
    values.write_text("1 -1\n")
    code, report = run_cli(capsys, "group-check", "--gmap", str(gmap),
                           "--values", str(values), "--easy", "0")
    assert code == EXIT_OK
    body = report["report"]
    assert body["regularity"]["regular"] is True
    assert body["all_pairs_invariant"] is True
    assert body["orthogonality"]["passed"] is True
    assert body["bound"]["main_term"] == pytest.approx(0.5)


def _addition_map_files(tmp_path, moduli):
    """The addition map x + y of G = Z_m1 x ... on |G| x |G|, which is
    invariant (on Z2^t it is XOR), and values."""
    G = AbelianGroupSpec(moduli)
    digits = np.unravel_index(np.arange(G.order), G.moduli, order="F")
    gm = GroupMapMatrix(np.ravel_multi_index(
        [d[:, None] + d[None, :] for d in digits], G.moduli, mode="wrap",
        order="F"), G)
    gmap, values = tmp_path / "add.gmap", tmp_path / "add.vals"
    gmap.write_text(gm.to_text())
    values.write_text(" ".join(str(v) for v in
                               np.linspace(-1.0, 1.0, G.order)) + "\n")
    return str(gmap), str(values)


def test_group_check_evaluates_each_condition_once(capsys, monkeypatch,
                                                   tmp_path):
    from commbound import groupcomp as gc

    calls = []
    for name in ("check_class_function", "regularity_check",
                 "all_pairs_invariant", "check_bytes"):
        def counted(*args, _name=name, _fn=getattr(gc, name)):
            calls.append((_name, args[-1] if _name == "check_bytes" else ""))
            return _fn(*args)
        monkeypatch.setattr(gc, name, counted)
    gmap, values = _addition_map_files(tmp_path, [2] * 3)
    code, report = run_cli(capsys, "group-check", "--gmap", gmap,
                           "--values", values)
    assert code == EXIT_OK
    names = [name for name, _ in calls]
    for name in ("check_class_function", "regularity_check",
                 "all_pairs_invariant"):
        assert names.count(name) == 1, name
    assert not any("character stacks" in subject for _, subject in calls)
    body = report["report"]
    assert body["all_pairs_invariant"] is True
    assert body["orthogonality"] == {"max_row_violation": 0.0,
                                     "max_col_violation": 0.0,
                                     "passed": True, "route": "invariance"}
    assert body["bound"]["applicable"] is True


def test_group_check_table_file_takes_the_dense_route(capsys, tmp_path):
    gmap, values = _addition_map_files(tmp_path, [2] * 2)
    table = tmp_path / "table.json"
    table.write_text(characters_abelian(AbelianGroupSpec([2, 2])).to_json())
    routes = {}
    for extra in ([], ["--table", str(table)]):
        code, report = run_cli(capsys, "group-check", "--gmap", gmap,
                               "--values", values, *extra)
        body = report["report"]
        assert code == EXIT_OK and body["orthogonality"]["passed"] is True
        routes[bool(extra)] = (body["orthogonality"]["route"],
                               "all_pairs_invariant" in body)
    assert routes == {False: ("invariance", True), True: ("dense", False)}


def test_spectral_norm_stack_refused_before_it_is_built(capsys, monkeypatch,
                                                        tmp_path):
    import tracemalloc

    from commbound import errors
    from commbound import groupcomp as gc

    # the addition map of Z4^3 passes orthogonality by invariance, whose
    # 2 MiB of pair-multiset keys the budget admits; its 63 complex 64 x 64
    # character matrices (4,128,768 bytes) it does not.  (Over Z2^6 the
    # matrices are real and smaller than the keys.)
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 2 ** 21)
    gmap, values = _addition_map_files(tmp_path, [4] * 3)
    code = main(["group-check", "--gmap", gmap, "--values", values])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == ("resource limit: 63 character matrices over a 64x64 map "
                   f"need 4128768 bytes (cap {2 ** 21})\n")
    # the refusal comes before the stack: with the structural checks done,
    # the bound allocates next to nothing before it is refused
    gm = gc.GroupMapMatrix.from_text(Path(gmap).read_text())
    table = gc.characters_abelian(gm.group)
    part = gc.HardnessPartition.from_easy([0], 64)
    fv = np.linspace(-1.0, 1.0, 64)
    checked = (gc.regularity_check(gm),
               gc.orthogonality_general(gm, table, part.hard))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="63 character matrices"):
            gc.general_bound(gm, fv, table, part, 0.0, checked=checked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the same map within the budget gets its bound
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 2 ** 23)
    assert gc.general_bound(gm, fv, table, part, 0.0,
                            checked=checked).applicable


def test_verify_suite_is_not_a_command(capsys):
    # the property checks live in the tests; the CLI has no such command
    assert "verify-suite" not in cli._HANDLERS
    code = main(["verify-suite"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert "invalid choice: 'verify-suite'" in err


def test_reports_are_deterministic(capsys, core4_file):
    args = ("lower-bound", "--theorem", "sherstov", "--function", "PARITY:2",
            "--inner", core4_file)
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_report_arrays_round_only_their_floats():
    ints = cli._round_floats(np.array([[1, -1], [-1, 1]]))
    assert ints == [[1, -1], [-1, 1]] and type(ints[0][0]) is int
    assert cli._round_floats(np.array([True, False])) == [True, False]
    assert cli._round_floats(np.array([0.1 + 0.2, 2.0 / 3.0])) == \
        [0.3, 0.666666666667]


def test_one_parser_per_process(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or
                        init(self, *a, **k))
    cli._build_parser.cache_clear()
    assert main(["approx-degree", "--function", "AND:2",
                 "--epsilon", "0.3"]) == EXIT_OK
    first = len(built)
    assert first > 0
    assert main(["search-balanced", "--rows", "4", "--cols", "4"]) == EXIT_OK
    assert len(built) == first
    capsys.readouterr()
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert main(["compose", "--help"]) == 0
    assert "--verify-rank" in capsys.readouterr().out
    assert len(built) == first


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "commbound.cli", "approx-degree",
            "--function", "AND:2", "--epsilon"]
    ok = subprocess.run(argv + ["0.3"], capture_output=True, text=True,
                        cwd=tmp_path, env=env, timeout=120)
    assert ok.returncode == EXIT_OK, ok.stderr
    report = json.loads(ok.stdout)
    assert report["command"] == "approx-degree"
    assert report["config"]["epsilon"] == 0.3
    bad = subprocess.run(argv + ["abc"], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=120)
    assert (bad.returncode, bad.stdout) == (EXIT_USAGE, "")
    assert bad.stderr == "error: --epsilon must be a number, got 'abc'\n"


def test_output_file(capsys, tmp_path, core4_file):
    out = tmp_path / "report.json"
    code = main(["analyze-matrix", "--input", core4_file,
                 "--output", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["report"]["exact_rank"] == 2
