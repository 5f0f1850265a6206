"""Smoke test of the benchmark itself.

Runs every workload on a one-task mix, untraced and traced, and asserts that
each run succeeds and emits exactly the metrics BENCHMARK.json lists, each
with its unit.  A one-task mix does not exercise every layer, so the traced
runs skip the coverage check that full mixes enforce.

Usage (from the root of a checkout): python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

from common import HERE, ROOT


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--tasks", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                out = run(w["name"], trace)
            except AssertionError as exc:
                failures.append(str(exc))
                continue
            label = f"{w['name']} trace={trace}"
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(out)}")
                continue
            if not (out["correct"] and out["failed"] == 0 and
                    out["attempted"] >= 1):
                failures.append(f"{label}: not correct: {out}")
            want = {m["name"]: m["unit"] for m in wanted}
            got = {k: v.get("unit") for k, v in out["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {got}, expected {want}")
            bad = [k for k, v in out["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))]
            if bad:
                failures.append(f"{label}: non-numeric values for {bad}")
            print(f"ok {label}: {len(got)} metrics")
    for msg in failures:
        print("FAIL", msg)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
