"""commbound benchmark: one closed-loop client running certification tasks.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload degree|inner|group --seed N \
        --seconds S --trace 0|1 [--tasks K]

One process, one client, no think time: each task is one CLI command run
in-process through commbound.cli.main(argv) on generated files, or one
public library call.  A run makes a fixed number of whole passes over the
workload's task list, set by the workload and --seconds (see pass_count).
Every task output is checked against an independent oracle after the timed
passes, and reports must be byte-identical across passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs each task twice
back to back, untraced then traced, and prints the per-layer metrics.
--tasks K runs only the first K tasks of the list (the smoke test uses it).
The last line of standard output is the result object; the line before it
holds the environment and per-task details.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from common import BLAS_ENV, HERE, ROOT, SetupError, import_commbound, \
    pin_threads

SETUP_PROBES = 7
# Passes per 30 s of --seconds: about 30 s of work on the 2-core machine the
# benchmark was tuned on, and enough executions of the ceiling tasks for the
# tail to fall among them.
PASSES_PER_30S = {"degree": 7, "inner": 11, "group": 7}
MAX_STRETCH = 1.4

class Calibration:
    """Probe of the CPU's current speed, for scaling times to a reference.

    On a shared machine the CPU slows by up to 2x for seconds to minutes at a
    time.  Each timed piece of work is scaled by the probe's times just
    before and after it, so scaled times stay put while raw ones do not.  The
    probe runs a pure-Python loop, small numpy row updates and a gather over
    a 4 MB array, so that interpreter, numpy-call and cache contention all
    register; REF_S holds their times at the reference speed (about their
    medians on the 2-core Xeon machine the benchmark was tuned on).  Each
    probe runs twice and only the second, warm run is timed, so what a task
    leaves in the caches does not change the factor applied to it.
    """

    REF_S = (0.0011, 0.00006, 0.00026)

    def __init__(self):
        import numpy as np

        self.big = np.ones(1 << 19)
        self.idx = np.random.default_rng(0).choice(1 << 19, 20_000,
                                                   replace=False)
        self.rows = np.ones((40, 40))

    def probe(self) -> tuple:
        self._probe()
        return self._probe()

    def _probe(self) -> tuple:
        clock = time.perf_counter
        t0 = clock()
        x = 0
        for i in range(20_000):
            x += i * i
        t1 = clock()
        a = self.rows.copy()
        for r in range(40):
            a[r, :] -= 0.5 * a[0, :]
        t2 = clock()
        self.big[self.idx].sum() + self.big.sum()
        t3 = clock()
        return (t1 - t0, t2 - t1, t3 - t2)

    def scale(self, before: tuple, after: tuple) -> float:
        """Reference over current speed: geometric mean over the probe's
        parts of reference time over the mean of the two probe times."""
        f = 1.0
        for ref, b, a in zip(self.REF_S, before, after):
            f *= 2 * ref / (b + a)
        return f ** (1 / len(self.REF_S))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["degree", "inner", "group"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--tasks", type=int, default=None,
                   help="run only the first K tasks (smoke test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record

def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# running tasks

def _canon(x):
    """JSON-able canonical form of a library result, for digests."""
    import numpy as np

    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [[f.name, _canon(getattr(x, f.name))]
                                     for f in dataclasses.fields(x)]
    if isinstance(x, np.ndarray):
        data = np.ascontiguousarray(x).tobytes()
        return ["ndarray", str(x.dtype), list(x.shape),
                hashlib.sha256(data).hexdigest()]
    if isinstance(x, dict):
        return sorted([repr(k), _canon(v)] for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(repr(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if hasattr(type(x), "__slots__"):
        return [type(x).__name__] + [[s, _canon(getattr(x, s))]
                                     for s in type(x).__slots__]
    return repr(x)


def digest(x) -> str:
    return hashlib.sha256(json.dumps(_canon(x)).encode()).hexdigest()


@dataclasses.dataclass
class PassResult:
    outdir: str
    task_s: list = dataclasses.field(default_factory=list)
    scale: list = dataclasses.field(default_factory=list)   # per task
    outcomes: list = dataclasses.field(default_factory=list)
    # per task: (exit code or None, library result or None, error or None)
    layer: dict | None = None   # per-layer metrics of a traced pass
    digests: list | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.task_s)

    def run(self, cb, task) -> None:
        """Run one task, timing only the task itself."""
        t0 = time.perf_counter()
        code = result = error = None
        try:
            if task.argv is not None:
                code = cb.cli.main(task.argv + [
                    "--output", os.path.join(self.outdir, task.id + ".json")])
            else:
                module, name = task.call.split(".")
                result = getattr(getattr(cb, module), name)(*task.args)
        except Exception as exc:  # a raising task is a failed task
            error = f"{type(exc).__name__}: {exc}"
        self.task_s.append(time.perf_counter() - t0)
        self.outcomes.append((code, result, error))

    def seal(self, tasks, keep: bool) -> None:
        """Digest every output, and drop library results unless the oracles
        need them, so memory does not grow with the number of passes."""
        self.digests = self._digest(tasks)
        if not keep:
            self.outcomes = [(c, None, e) for c, _, e in self.outcomes]

    def _digest(self, tasks) -> list:
        out = []
        for task, (_, result, error) in zip(tasks, self.outcomes):
            path = os.path.join(self.outdir, task.id + ".json")
            if error is not None:
                out.append(None)
            elif task.argv is None:
                out.append(digest(result))
            elif os.path.isfile(path):
                with open(path, "rb") as fh:
                    out.append(hashlib.sha256(fh.read()).hexdigest())
            else:
                out.append(None)
        return out


def run_pass(cb, tasks, outdir, cal, tracer=None) -> list:
    """One pass over the task list.  With a tracer, each task runs twice
    back to back, untraced then traced, so the overhead ratio compares
    neighbouring runs; returns [untraced] or [untraced, traced]."""
    plain = PassResult(outdir)
    runs = [plain]
    os.makedirs(outdir, exist_ok=True)
    if tracer is not None:
        traced = PassResult(outdir + "-traced")
        runs.append(traced)
        os.makedirs(traced.outdir, exist_ok=True)
        tracer.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        before = cal.probe()
        for task in tasks:
            plain.run(cb, task)
            after = cal.probe()
            plain.scale.append(cal.scale(before, after))
            before = after
            if tracer is not None:
                tracer.task = task.id
                tracer.install()
                try:
                    traced.run(cb, task)
                finally:
                    tracer.uninstall()
                before = cal.probe()
    if tracer is not None:
        traced.layer = tracer.pass_metrics()
    return runs


def pass_count(workload, seconds, traced) -> int:
    """Passes for --seconds.  The count depends on nothing else, so every
    seed and machine speed gives the tail the same number of samples (a
    traced pass runs each task twice)."""
    return max(1, round(PASSES_PER_30S[workload] * seconds / 30 /
                        (1 + traced)))


def run_loop(cb, tasks, work, count, seconds, cal, tracer=None) -> list:
    """Closed loop: count whole passes, fewer only if the machine is so
    slow that the run would pass MAX_STRETCH times --seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        runs = run_pass(cb, tasks,
                        os.path.join(work, "out", f"pass{len(passes)}"),
                        cal, tracer)
        for j, r in enumerate(runs):
            r.seal(tasks, keep=not passes and j == 0)
        passes.append(runs)
        elapsed = time.perf_counter() - start
        if len(passes) >= count or \
                elapsed * (len(passes) + 1) / len(passes) > \
                MAX_STRETCH * seconds:
            return passes


def setup_times(workload, seed, work, cal) -> list:
    """(scaled, raw) wall time of whole probe processes: interpreter start,
    import, input generation."""
    times = []
    for k in range(SETUP_PROBES):
        target = os.path.join(work, f"probe{k}")
        before = cal.probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                        workload, str(seed), target], check=True)
        wall = time.perf_counter() - t0
        times.append((wall * cal.scale(before, cal.probe()), wall))
        shutil.rmtree(target, ignore_errors=True)
    return times


def tail(samples):
    """Value at the highest whole percentile that leaves at least ten
    samples beyond it, with the percentile and the number beyond it."""
    s = sorted(samples)
    pct = math.floor(100 * (1 - 10 / len(s))) if len(s) > 10 else 100
    idx = max(0, math.ceil(pct / 100 * len(s)) - 1)
    return s[idx], pct, len(s) - idx - 1


def time_metrics(plain, scaled: bool) -> dict:
    """pass_s, task_p50_s and task_tail_s from untraced passes: each task's
    time is its median over passes, and the tail is taken over every task
    execution of the run."""
    per_exec = [[t * (f if scaled else 1.0) for t, f in zip(r.task_s, r.scale)]
                for r in plain]
    typical = [statistics.median(col) for col in zip(*per_exec)]
    tail_s, pct, beyond = tail([t for r in per_exec for t in r])
    return {"pass_s": sum(typical), "task_p50_s": statistics.median(typical),
            "task_tail_s": tail_s, "tail_percentile": pct,
            "tail_beyond": beyond, "typical": typical}


# ---------------------------------------------------------------------------

def benchmark(args, cb, work) -> int:
    import gen

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tasks = gen.generate(args.workload, args.seed,
                         os.path.join(work, "inputs"), cb)
    full_mix = args.tasks is None
    if not full_mix:
        tasks = tasks[:args.tasks]

    cal = Calibration()
    setup = setup_times(args.workload, args.seed, work, cal) \
        if args.trace == 0 else []

    tracer = None
    if args.trace == 1:
        import tracing

        tracer = tracing.Tracer()
    count = pass_count(args.workload, args.seconds, args.trace)
    passes = run_loop(cb, tasks, work, count, args.seconds, cal, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [runs[0] for runs in passes]
    traced = [runs[1] for runs in passes] if tracer is not None else []
    executions = plain + traced

    # --- correctness, outside every timed region
    import oracle

    checker = oracle.Checker()
    verdicts = []
    for i, task in enumerate(tasks):
        code, result, error = executions[0].outcomes[i]
        problems = [] if error is None else [error]
        if error is None and task.argv is not None:
            if code != task.expect:
                problems.append(f"exit code {code}, expected {task.expect}")
            try:
                path = os.path.join(executions[0].outdir, task.id + ".json")
                with open(path, encoding="utf-8") as fh:
                    result = json.load(fh)["report"]
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"no readable report: {exc}")
                error = "no report"
        if error is None:
            problems += oracle.check(checker, task.check["kind"], result,
                                     task.check)
        verdicts.append(problems)
    failed = 0
    for k, r in enumerate(executions):
        for i, task in enumerate(tasks):
            code, _, error = r.outcomes[i]
            bad = bool(verdicts[i]) or error is not None or \
                r.digests[i] is None or \
                r.digests[i] != executions[0].digests[i] or \
                (task.argv is not None and code != task.expect)
            if bad and not verdicts[i]:
                verdicts[i] = [f"{r.outdir}: differs from the first pass"
                               if error is None else error]
            failed += bad
    attempted = len(tasks) * len(executions)
    for task, problems in zip(tasks, verdicts):
        for msg in problems:
            print(f"FAIL {task.id}: {msg}", file=sys.stderr)

    # --- metrics, at the reference speed; the raw figures go with details
    scaled = time_metrics(plain, scaled=True)
    raw = time_metrics(plain, scaled=False)
    details = {
        "workload": args.workload, "seed": args.seed, "env": environment(),
        "passes": len(plain), "tasks_per_pass": len(tasks),
        "fail_frac": failed / attempted,
        "task_tail_percentile": scaled["tail_percentile"],
        "task_tail_samples_beyond": scaled["tail_beyond"],
        "setup_samples_s": [t for t, _ in setup],
        "raw_setup_samples_s": [w for _, w in setup],
        "raw_pass_s": [r.wall_s for r in plain],
        "raw": {k: raw[k] for k in ("pass_s", "task_p50_s", "task_tail_s")},
        "task_s": dict(zip((t.id for t in tasks), scaled["typical"])),
    }
    correct = failed == 0
    if tracer is None:
        values = {
            "setup_s": statistics.median(t for t, _ in setup),
            "pass_s": scaled["pass_s"],
            "task_p50_s": scaled["task_p50_s"],
            "task_tail_s": scaled["task_tail_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        mapping = tracing.load_mapping()
        layers = [r.layer for r in traced]
        values = tracing.summarize(layers, [r.wall_s for r in plain],
                                   [r.wall_s for r in traced],
                                   [m["name"] for m in spec["per_layer"]])
        details["raw_traced_pass_s"] = [r.wall_s for r in traced]
        if full_mix:
            missing = tracing.uncovered(layers, mapping, args.workload)
            details["uncovered_layers"] = missing
            for layer in missing:
                print(f"FAIL layer {layer} was never called", file=sys.stderr)
            correct = correct and not missing
        wanted = spec["per_layer"]
    print(json.dumps(details))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin_threads()
        cb = import_commbound()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return benchmark(args, cb, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):    # left if another run uses it
            os.rmdir(os.path.dirname(work))


if __name__ == "__main__":
    sys.exit(main())
