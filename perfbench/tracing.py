"""Spans and counters recorded by wrapping commbound's public functions.

Each layer is a module (or one function of `matrices`, `composer` and
`groupcomp`).  `Tracer.install` replaces every wrapped function in every
commbound namespace that bound it by name, so `from .simplex import solve_lp`
in `approx` and `groupcomp` is traced as well as `simplex.solve_lp` itself.
A span records its layer, function, task id, parent span, start and end; a
layer's self time is the length of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter

# layer -> (module, public functions whose calls open a span of that layer)
LAYERS = {
    "simplex": ("simplex", ["solve_lp"]),
    "approx": ("approx", ["approx_degree", "dual_polynomial",
                          "best_approximation", "error_profile",
                          "verify_dual"]),
    "boolfn": ("boolfn", ["wht", "character_sums", "iwht", "degree",
                          "character_eval", "builtin_function",
                          "parse_function_spec", "parse_truth_table",
                          "format_truth_table", "load_function"]),
    "cli": ("cli", ["main"]),
    "matrices.spectrum": ("matrices", ["spectrum"]),
    "matrices.exact_rank": ("matrices", ["exact_rank"]),
    "matrices.contains_pattern": ("matrices", ["contains_pattern"]),
    "matrices.search": ("matrices", ["search_strongly_balanced"]),
    "composer.compose_block": ("composer", ["compose_block"]),
    "composer.build_witness": ("composer", ["build_witness"]),
    "composer.verify_rank": ("composer", ["verify_rank_theorem"]),
    "bounds.discrepancy": ("bounds", ["discrepancy", "uniform_discrepancy"]),
    "bounds.evaluators": ("bounds", ["sherstov_bound", "disc_bound",
                                     "shizhu_bound", "approx_trace_lower",
                                     "shaltiel_verify", "gamma2_star_interval",
                                     "verify_spectral_disc"]),
    "groupcomp.characters": ("groupcomp", ["characters_abelian"]),
    "groupcomp.pair_multisets": ("groupcomp", ["pair_multisets"]),
    "groupcomp.g_invariant": ("groupcomp", ["g_invariant"]),
    "groupcomp.regularity": ("groupcomp", ["regularity_check"]),
    "groupcomp.orthogonality": ("groupcomp", ["orthogonality_general",
                                              "orthogonality_sums",
                                              "tprime_check"]),
    "groupcomp.span_lp": ("groupcomp", ["distance_to_easy", "dual_h",
                                        "product_approx_degree"]),
    "groupcomp.bounds": ("groupcomp", ["general_bound", "block_group_bound",
                                       "degeneration_check"]),
}

GENERATORS = {"search_strongly_balanced"}
CERTIFICATES = {"approx_degree", "dual_polynomial"}


def _cells(x) -> int:
    shape = getattr(getattr(x, "entries", x), "shape", None)
    if shape is None:
        shape = getattr(getattr(x, "B", None), "shape", (0, 0))
    return int(shape[0]) * int(shape[1])


def _count_lp(counts, bound, result):
    """Iterations and the dense tableau size solve_lp builds."""
    a = bound.arguments
    c = a["c"]
    n_ub = len(a["A_ub"]) if a.get("A_ub") is not None else 0
    n_eq = len(a["A_eq"]) if a.get("A_eq") is not None else 0
    m = n_ub + n_eq
    counts["simplex.iterations"] += result.iterations
    counts["simplex.tableau_cells"] += (m + 1) * (len(c) + n_ub + m + 1)


COUNTERS = {
    "solve_lp": _count_lp,
    "spectrum": lambda k, b, r: k.update(
        {"matrices.spectrum.cells": _cells(b.arguments["M"])}),
    "exact_rank": lambda k, b, r: k.update(
        {"matrices.exact_rank.cells": _cells(b.arguments["M"])}),
    "compose_block": lambda k, b, r: k.update(
        {"composer.cells": _cells(r.matrix)}),
    "build_witness": lambda k, b, r: k.update({"composer.cells": _cells(r)}),
    "char_compose": lambda k, b, r: k.update({"composer.cells": _cells(r)}),
    "discrepancy": lambda k, b, r: k.update(
        {"bounds.discrepancy.subsets": 2 ** b.arguments["A"].rows - 1}),
    "pair_multisets": lambda k, b, r: k.update(
        {"groupcomp.multisets": len(r.row_pairs) + len(r.col_pairs)}),
}
# counted without a span, so their time stays in the caller's self time
COUNT_ONLY = {"char_compose": "composer"}


def load_mapping() -> dict:
    """layers.json: which workloads exercise each layer, and what it moves."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "layers.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Tracer:
    """Collects spans and counters for the current pass; single-threaded."""

    def __init__(self):
        self.spans = []     # [layer, function, task, parent, start_ns, end_ns]
        self._stack = []
        self.counts = Counter()
        self.task = None
        self._patched = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "commbound" or name.startswith("commbound.")]
        targets = [(layer, mod, fn) for layer, (mod, fns) in LAYERS.items()
                   for fn in fns]
        targets += [(None, mod, fn) for fn, mod in COUNT_ONLY.items()]
        for layer, modname, fname in targets:
            orig = getattr(sys.modules[f"commbound.{modname}"], fname)
            wrapper = self._wrap(layer, fname, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched = []

    def _wrap(self, layer, fname, fn):
        sig = inspect.signature(fn)
        count = COUNTERS.get(fname)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def enter():
            idx = len(spans)
            spans.append([layer, fname, self.task,
                          stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            return idx

        def leave(idx):
            stack.pop()
            spans[idx][5] = clock()

        if layer is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, sig.bind(*args, **kwargs), result)
                return result
            return counted

        if fname in GENERATORS:
            def generator(*args, **kwargs):
                counts[layer + ".calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    counts[layer + ".emitted"] += 1
                    yield item
            return generator

        def traced(*args, **kwargs):
            counts[layer + ".calls"] += 1
            idx = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if count is not None:
                count(counts, sig.bind(*args, **kwargs), result)
            return result
        return traced

    # -- per-pass aggregation -----------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def pass_metrics(self) -> dict:
        """Self time per layer, counters, and LP calls per certificate."""
        spans = self.spans
        child = [0] * len(spans)
        in_approx = [False] * len(spans)
        for i, (layer, _, _, parent, start, end) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_approx[i] = spans[parent][0] == "approx" or \
                    in_approx[parent]
        out = Counter({f"{layer}.self_s": 0.0 for layer in LAYERS})
        certs = lps = 0
        for i, (layer, fname, _, _, start, end) in enumerate(spans):
            out[f"{layer}.self_s"] += (end - start - child[i]) * 1e-9
            if layer == "approx" and fname in CERTIFICATES and \
                    not in_approx[i]:
                certs += 1
            if layer == "simplex" and in_approx[i]:
                lps += 1
        out.update(self.counts)
        out["approx.lp_per_cert"] = lps / certs if certs else 0.0
        return dict(out)


def summarize(passes: list, plain_s: list, traced_s: list,
              metric_names: list) -> dict:
    """Median of each per-layer metric over the traced passes; the overhead
    compares each traced pass with its untraced twin."""
    out = {}
    for name in metric_names:
        if name == "trace.overhead_frac":
            out[name] = statistics.median(
                t / p for t, p in zip(traced_s, plain_s)) - 1
        else:
            out[name] = statistics.median(p.get(name, 0) for p in passes)
    return out


def uncovered(passes: list, mapping: dict, workload: str) -> list:
    """Layers the mapping says this workload exercises but that it never
    called."""
    missing = []
    for layer, spec in mapping["layers"].items():
        if workload in spec["exercised_by"] and \
                not any(p.get(layer + ".calls", 0) for p in passes):
            missing.append(layer)
    return missing

