"""Steadiness self-check of the benchmark.

    python3 perfbench/check_steady.py

Runs every workload as two independent sets of five runs of
``run_seconds`` each, every run with its own seed (set A takes seeds
1-5, set B seeds 6-10).  For every end-to-end metric it prints the
spread over all ten runs (the distance between the first and third
quartiles over the median) next to the metric's bound from
``BENCHMARK.json``, and checks that the spread stays within the bound
(``setup_s`` excepted) and that the two sets' medians agree within it.
It then runs the traced benchmark twice on the default seed and checks
that every count-type per-layer metric repeats exactly.  It also checks that
``BENCHMARK.json`` declares the metrics, with the units, that ``run.py``
reports.  Exits 1 if a check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_PER_SET = 5
TRACE_SEED = 7


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct\n{done.stdout}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    ok = True
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.E2E_UNITS or [
            (m["name"], m["unit"]) for m in spec["per_layer"]] != list(tracer.PER_LAYER):
        print("FAIL BENCHMARK.json names or units differ from what run.py reports")
        ok = False
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(2):
            first = 1 + k * RUNS_PER_SET
            runs = []
            for seed in range(first, first + RUNS_PER_SET):
                runs.append(bench(workload, seed, seconds, 0)["metrics"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {v['value']:.4f}" for m, v in runs[-1].items()),
                    flush=True)
            sets.append(runs)
        print(f"\n{workload}: {2 * RUNS_PER_SET} runs of {seconds} s")
        print(f"  {'metric':<14}{'bound':>7}{'spread':>8}{'/bound':>8}"
              f"{'median A':>11}{'median B':>11}{'B vs A':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name]["value"] for r in sets[0]]
            b = [r[name]["value"] for r in sets[1]]
            s = spread(a + b)
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = change if metric["better"] == "lower" else -change
            agree = abs(worse) <= bound
            steady = name == "setup_s" or s <= bound
            ok = ok and agree and steady
            print(f"  {name:<14}{bound:>7.2f}{s:>8.3f}{s / bound:>8.2f}"
                  f"{ma:>11.4f}{mb:>11.4f}{change:>+8.3f}"
                  f"{'' if agree and steady else '  FAIL'}")

        first, second = (bench(workload, TRACE_SEED, 10, 1)["metrics"]
                         for _ in range(2))
        differ = [name for name, unit in tracer.PER_LAYER
                  if name not in tracer.TIME_METRICS
                  and not name.startswith("trace.")
                  and first[name]["value"] != second[name]["value"]]
        ok = ok and not differ
        print(f"  traced counts on seed {TRACE_SEED}: "
              + (f"FAIL, these differ: {', '.join(differ)}" if differ
                 else "repeat exactly")
              + "; trace.coverage_ratio "
              f"{first['trace.coverage_ratio']['value']:.3f}, "
              f"{second['trace.coverage_ratio']['value']:.3f}"
              + "; trace.overhead_ratio "
              f"{first['trace.overhead_ratio']['value']:+.3f}, "
              f"{second['trace.overhead_ratio']['value']:+.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
