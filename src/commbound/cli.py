"""Command-line front end: parse inputs, dispatch, emit JSON reports.

Exit codes: 0 success, 1 a theorem evaluated but is inapplicable or vacuous
(the report is still emitted), 2 usage errors, 3 a resource cap was hit or
the LP solver failed.
A usage error exits 2 with one stderr line and nothing on stdout, before
any work starts. Each number and list flag is checked by its argparse
``type=`` as it is parsed, and each input flag is read by its entry in
``_READERS`` before dispatch, so handlers get parsed inputs and every
refusal names its flag.
Reports are deterministic for fixed inputs and seed: keys are sorted, floats
are rounded to 12 significant digits, and every report embeds the tool
version plus the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bd
from . import composer as cp
from . import groupcomp as gc
from . import matrices as mx
from .approx import approx_degree, dual_polynomial, verify_dual
from .boolfn import load_function
from .errors import ResourceLimitError
from .simplex import SimplexError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INAPPLICABLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _blaming(flag: str):
    """Turn an OSError or ValueError raised in the block into a UsageError
    naming flag: an input that cannot be read, or that does not fit."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _round_floats(obj):
    """The JSON form of a result: a dataclass by its fields, an array as a
    list, each float to 12 significant digits, so reports stay diffable."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # bool and integer entries need no rounding
        return (obj.tolist() if obj.dtype.kind in "biu"
                else _round_floats(obj.tolist()))
    if dataclasses.is_dataclass(obj):
        return {f.name: _round_floats(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)

def _cmd_analyze_matrix(opts) -> tuple:
    M = opts["input"]
    payload = {
        "rows": M.rows,
        "cols": M.cols,
        "balance": mx.balance_check(M),
        "exact_rank": mx.exact_rank(M),
        "spectrum": mx.spectrum(M, opts["tolerance"]),
    }
    core = mx.PATTERN_CORE_4
    if M.rows >= core.rows and M.cols >= core.cols:
        # an ordered copy is also a permuted one
        free = not mx.contains_pattern(M, core, "up_to_permutation").found
        payload["core4_free_up_to_permutation"] = free
        payload["core4_free_ordered"] = \
            free or not mx.contains_pattern(M, core, "ordered").found
    if min(M.rows, M.cols) <= bd.ENUMERATION_CAP:
        payload["disc_uniform"] = bd.uniform_discrepancy(M)
    return payload, EXIT_OK


def _cmd_approx_degree(opts) -> tuple:
    f = opts["function"]
    eps = opts["epsilon"]
    result = approx_degree(f, eps)
    payload = {
        "n": f.n,
        "epsilon": eps,
        "d": result.d,
        "max_error": result.max_error,
        "lp_status": result.lp_status,
    }
    if opts["dual"]:
        w = result.witness
        check = verify_dual(w, f)
        payload["dual"] = {
            "witness_table": w.v,
            "d": w.d,
            "correlation": w.correlation,
            "l1": w.l1,
            "margins": {
                "orthogonality_max": check.orthogonality_max,
                "l1": check.l1,
                "correlation_margin": check.correlation_margin,
            },
            "all_checks_pass": check.ok,
        }
    return payload, EXIT_OK


def _cmd_compose(opts) -> tuple:
    f, g = opts["function"], opts["inner"]
    payload = {
        "outer_arity": f.n,
        "blocks": f.n,
        "rows": g.rows ** f.n,
        "cols": g.cols ** f.n,
    }
    if opts["verify_rank"] or opts["witness"]:
        cp._check_size(g, f.n)  # before the composition and the dual LP
        with _blaming("--inner"):
            cp.require_strongly_balanced(g, witness=not opts["verify_rank"])
    if opts["verify_rank"]:
        comp = cp.compose_block(f, g)
        payload["rank_formula"] = cp.verify_rank_theorem(comp)
    if opts["witness"]:
        eps = opts["epsilon"]
        w = dual_polynomial(f, eps)
        W = cp.build_witness(w, g)
        payload["witness"] = {
            "epsilon": eps,
            "d": w.d,
            "l1": W.l1,
            "correlation": W.correlation,
            "spectral_norm": W.spectral_norm,
            "spectral_bound": cp.witness_spectral_bound(w, g),
        }
    return payload, EXIT_OK


def _cmd_lower_bound(opts) -> tuple:
    f, g = opts["function"], opts["inner"]
    theorem = opts["theorem"]
    eps0 = opts["epsilon0"]
    if theorem == "sherstov":
        rep = bd.sherstov_bound(f, g, eps0)
    elif theorem == "disc":
        rep = bd.disc_bound(f, g)
    else:  # shizhu, the last of the choices argparse allows
        if opts["mu"] is None:
            raise UsageError("--mu is required for --theorem shizhu")
        with _blaming("--mu"):
            rep = bd.shizhu_bound(f, g, opts["mu"], eps0)
    vacuous = rep.main_term is not None and rep.main_term <= 0
    rank_one = rep.intermediates.get("inner_rank") == 1
    code = EXIT_OK if rep.applicable and not vacuous and not rank_one \
        else EXIT_INAPPLICABLE
    return rep, code


def _cmd_group_check(opts) -> tuple:
    gmap, table, vals = opts["gmap"], opts["table"], opts["values"]
    easy = opts["easy"]
    if table is not None:
        with _blaming("--table"):
            gc.check_table_order(gmap, table)
    if vals is not None and len(vals) != gmap.order:
        raise UsageError(
            f"--values must supply {gmap.order} numbers, got {len(vals)}")
    # an explicit --easy before the table: Abelian ones have a row per element
    if easy is not None:
        with _blaming("--easy"):
            partition = gc.HardnessPartition.from_easy(
                easy, gmap.order if table is None else table.h)
    if table is None:
        table = gc.characters_abelian(gmap.group)
    if vals is not None:
        with _blaming("--values"):
            vals = gc.check_class_function(vals, table)
    if easy is None:
        partition = gc.HardnessPartition.from_easy([table.trivial_index()],
                                                   table.h)
    hard = sorted(partition.hard)
    reg = gc.regularity_check(gmap)
    orth = gc.orthogonality_general(gmap, table, hard)
    payload = {
        "rows": gmap.rows,
        "cols": gmap.cols,
        "group_order": gmap.order,
        "regularity": reg,
        "easy": sorted(partition.easy),
        "hard": hard,
        "orthogonality": {
            "max_row_violation": orth.max_row_violation,
            "max_col_violation": orth.max_col_violation,
            "passed": orth.passed,
            "route": orth.route,
        },
    }
    if orth.all_pairs_invariant is not None:
        payload["all_pairs_invariant"] = orth.all_pairs_invariant
    code = EXIT_OK
    if vals is not None:
        rep = gc.general_bound(gmap, vals, table, partition, opts["epsilon"],
                               checked=(reg, orth))
        payload["bound"] = rep
        if not rep.applicable:
            code = EXIT_INAPPLICABLE
    return payload, code


def _cmd_search_balanced(opts) -> tuple:
    found = []
    for M in mx.search_strongly_balanced(opts["rows"], opts["cols"],
                                         min_rank=opts["min_rank"],
                                         forbidden=opts["forbidden"],
                                         limit=opts["limit"]):
        found.append({
            "rank": mx.exact_rank(M),
            "matrix": M.entries,
        })
    payload = {
        "rows": opts["rows"],
        "cols": opts["cols"],
        "count": len(found),
        "matrices": found,
    }
    return payload, EXIT_OK


_HANDLERS = {
    "analyze-matrix": _cmd_analyze_matrix,
    "approx-degree": _cmd_approx_degree,
    "compose": _cmd_compose,
    "lower-bound": _cmd_lower_bound,
    "group-check": _cmd_group_check,
    "search-balanced": _cmd_search_balanced,
}


# ---------------------------------------------------------------------------
# flag types: argparse calls each with (flag, text) through its ``type=``,
# and each failure is one UsageError line naming the flag

def _number(kind, rule=None, ok=None):
    """Type of an int or float flag, bounded by ``ok`` when given."""
    noun = "an integer" if kind is int else "a number"

    def convert(flag, text):
        try:
            value = kind(text)
        except ValueError:
            raise UsageError(f"{flag} must be {noun}, got {text!r}") from None
        if ok is not None and not ok(value):
            raise UsageError(f"{flag} must {rule}, got {value}")
        return value
    return convert


_COUNT = _number(int, "be non-negative", lambda v: v >= 0)
_EPSILON = _number(float, "lie in [0,1)", lambda v: 0 <= v < 1)
_EPSILON0 = _number(float, "lie in (0,1)", lambda v: 0 < v < 1)
_TOLERANCE = _number(float, "lie in (0,1)", lambda v: 0 < v < 1)
_EVEN = _number(int, "be a positive even integer",
                lambda v: v > 0 and v % 2 == 0)


def _easy_indices(flag, text):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of "
                         "integers") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call. Every
    default is an immutable scalar, so no call can change the next."""
    parser = argparse.ArgumentParser(
        prog="commbound",
        description="Sign-matrix composition workbench: ranks, spectra, "
                    "approximate degrees, and lower-bound main terms.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the JSON report here "
                                        "instead of stdout")

    def typed(p, flag, convert, **kwargs):
        p.add_argument(flag, type=functools.partial(convert, flag), **kwargs)

    # input flags keep their text here; run() reads them through _READERS
    p = sub.add_parser("analyze-matrix", help="balance, rank, spectrum, "
                                              "pattern-core freeness")
    p.add_argument("--input", required=True,
                   help="sign-matrix file or builtin name")
    typed(p, "--tolerance", _TOLERANCE, default=1e-9,
          help="numeric-rank cutoff relative to the largest singular value, in "
               "(0,1) (default 1e-9)")
    add_common(p)

    p = sub.add_parser("approx-degree", help="approximate polynomial degree "
                                             "and the dual witness")
    p.add_argument("--function", required=True,
                   help="truth-table file or NAME:arity builtin")
    typed(p, "--epsilon", _EPSILON, required=True)
    p.add_argument("--dual", action="store_true",
                   help="also emit the dual witness")
    add_common(p)

    p = sub.add_parser("compose", help="shape, rank and witness of f o g^n")
    p.add_argument("--function", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--verify-rank", action="store_true")
    p.add_argument("--witness", action="store_true")
    typed(p, "--epsilon", _EPSILON, default=1.0 / 3.0)
    add_common(p)

    p = sub.add_parser("lower-bound", help="evaluate a lower-bound main term")
    p.add_argument("--theorem", required=True,
                   choices=["sherstov", "disc", "shizhu"])
    p.add_argument("--function", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--mu", default=None,
                   help="distribution file (required for shizhu)")
    typed(p, "--epsilon0", _EPSILON0, default=1.0 / 3.0)
    add_common(p)

    p = sub.add_parser("group-check", help="regularity, invariance, and "
                                           "orthogonality of a group map")
    p.add_argument("--gmap", required=True, help="group-map file")
    p.add_argument("--table", default=None,
                   help="character-table JSON (defaults to the Abelian table)")
    typed(p, "--easy", _easy_indices, default=None,
          help="comma-separated easy character indices "
               "(default: just the trivial character)")
    p.add_argument("--values", default=None,
                   help="class-function values file (enables the bound)")
    typed(p, "--epsilon", _EPSILON, default=0.0)
    add_common(p)

    p = sub.add_parser("search-balanced", help="enumerate strongly balanced "
                                               "matrices up to permutation")
    typed(p, "--rows", _EVEN, required=True)
    typed(p, "--cols", _EVEN, required=True)
    typed(p, "--min-rank", _COUNT, default=None)
    p.add_argument("--forbidden", default=None,
                   help="forbidden pattern file or builtin name")
    typed(p, "--limit", _COUNT, default=None)
    add_common(p)
    return parser


def parse_args(argv) -> tuple:
    """(command, options) from argv; each flag's type has checked it."""
    opts = vars(_build_parser().parse_args(argv))
    return opts.pop("command"), opts


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError("class-function values must be finite")
    return values


# input flag -> its reader, from the flag's text to the parsed input.  A
# lambda looks its loader up when called, so a patched loader is the one run.
_READERS = {
    "function": lambda spec: load_function(spec),
    "input": lambda spec: mx.load_matrix(spec),
    "inner": lambda spec: mx.load_matrix(spec),
    "forbidden": lambda spec: mx.load_matrix(spec),
    "mu": lambda path: bd.DistributionMatrix.from_text(
        Path(path).read_text(encoding="utf-8")),
    "gmap": lambda path: gc.GroupMapMatrix.from_text(
        Path(path).read_text(encoding="utf-8")),
    "table": lambda path: gc.CharacterTable.from_json(
        Path(path).read_text(encoding="utf-8")),
    "values": lambda path: _finite(np.array(
        [float(t) for t in Path(path).read_text(encoding="utf-8").split()])),
}


def run(command: str, opts: dict) -> int:
    config = {k: v for k, v in sorted(opts.items()) if k != "output"}
    opts = dict(opts)
    for key, read in _READERS.items():
        if opts.get(key) is not None:
            with _blaming(f"--{key}"):
                opts[key] = read(opts[key])
    payload, code = _HANDLERS[command](opts)
    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": config,
        "report": payload,
    }
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"
    if opts.get("output"):
        with open(opts["output"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(*parse_args(argv))
    except SystemExit as exc:
        # argparse exits with code 2 on usage problems, 0 on --help
        return int(exc.code or 0)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SimplexError as exc:
        print(f"LP solver failed: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
