"""uniprod benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload paper --seed 7 --seconds 15 --trace 0

Run from the root of a checkout.  The inputs are generated from
``--seed`` (outside every timing), then the workload runs again and
again, each time as a fresh process (``probe.py``), until ``--seconds``
have passed.  Only one process runs at a time.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, as
medians over the runs.  Times are scaled to a reference host speed by
the speed ticks each probe records (``speed_factor``); the unscaled
medians are printed beside them.  ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics: self times, scaled like
the end-to-end times, are medians over the traced runs; counts come
from one traced run and must repeat exactly in every other.

Every run's outputs are checked: the exit code, seed-independent
invariants, and the sha256 of every output file, against
``digests.json`` where it records the seed and otherwise against the
first run of the same seed.  A run that fails any check counts in
``failed`` and not in the timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above
it, and ``.perfbench-results/`` in the checkout, give each metric's
median, its high percentile and sample count, the provenance (commit,
versions, thread environment, generator parameters) and the input sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-results"

#: Pinned for every probe so that no library starts worker threads on
#: the two shared cores, and string hashing is the same in every run.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
THREAD_ENV_KEYS = tuple(CHILD_ENV) + ("BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MIN_STUDIES = 3
PROBE_TIMEOUT_S = 60
#: No probe starts after this many seconds of measuring, whatever the
#: minimum counts, so that a run ends well within three minutes.
HARD_LIMIT_S = 100

#: Inputs differ in size from seed to seed (about 6% in publications
#: and 9% in LP pivots between quartiles), so an untraced run cycles its
#: studies over this many inputs drawn from its seed, and the median
#: moves less from one seed to the next.  The run ends on a whole cycle,
#: so every input has the same number of studies.
INPUTS_PER_RUN = 4
DATASET_STRIDE = 1_000_003

#: A probe's times are scaled to the speed at which one tick (see
#: ``probe.py``) takes this long.  A tick took 0.19-0.33 ms on the 2-vCPU
#: shared host the benchmark was tuned on, and 0.2 ms is near its fast end.
REFERENCE_TICK_NS = 200_000

E2E_UNITS = {"setup_s": "s", "study_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "success_ratio": "ratio"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> str:
    """Import the checkout's uniprod, or exit non-zero without a result.

    Importing every module a probe uses also compiles their bytecode and
    warms the file cache before the first probe, as a user's earlier runs
    would have.  Returns the numpy version.
    """
    if not (SRC / "uniprod" / "__init__.py").is_file():
        fail(f"no uniprod package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import uniprod.analysis  # noqa: F401
        import uniprod.cli  # noqa: F401
        import uniprod.dea  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import uniprod from {SRC}: {exc}")
    return numpy.__version__


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def _probe_timeout(signum, frame):
    raise TimeoutError("probe exceeded its time limit")


def run_probe(workload, data: Path, out: Path, result: Path, log: Path,
              traced: bool, env: dict) -> dict:
    """Run one probe process; return its record with rusage attached."""
    for stale in (out, result):
        if stale.is_dir():
            shutil.rmtree(stale)
        elif stale.exists():
            stale.unlink()
    argv = [sys.executable, str(PROBE), str(result), workload.kind, str(data),
            str(out), "1" if traced else "0", "--"]
    if workload.kind == "csv":
        argv += [str(data), "--out", str(out), *workload.cli_args]
    with open(log, "wb") as log_fh:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=log_fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, _probe_timeout)
        signal.alarm(PROBE_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if result.is_file():
        record = json.loads(result.read_text(encoding="utf-8"))
    record.update(
        spawn_ns=spawn_ns,
        returncode=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return record


def load_digests(workload_name: str, seed: int) -> dict | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table["workloads"].get(workload_name, {}).get(str(seed))


def speed_factor(ticks, start=0, end=None) -> float | None:
    """Mean core speed from ``start`` to ``end``, relative to the reference.

    ``ticks`` are a probe's ``(start_ns, duration_ns)`` pairs.  They
    sample the core's speed at even steps of wall time, so the mean of
    reference ÷ tick is the share of reference-speed work the core did
    per second.  A time multiplied by it reads as the time the same work
    takes at the reference speed: the host's drift cancels, and a change
    to the program still moves it in full.  None if no tick fell there.
    """
    inside = [REFERENCE_TICK_NS / d for t, d in ticks
              if start <= t and (end is None or t < end)]
    return statistics.fmean(inside) if inside else None


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples
    beyond it (none below 11 samples), with the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 11:
        pct = 100.0 * (1.0 - 10.0 / n)
        out[f"p{pct:.0f}"] = values[min(n - 1, int(pct / 100.0 * n))]
    return out


def provenance(workload, seed: int, env: dict, numpy_version) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "uniprod").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {k: env.get(k) for k in THREAD_ENV_KEYS},
        "workload": workload.name,
        "generator": {**workload.generator, "seed": seed},
        "cli_args": list(workload.cli_args),
    }


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of a run's inputs: the run's own seed first, then
    seeds far from every small run seed so that runs share no input."""
    return [seed + DATASET_STRIDE * k for k in range(count)]


class Dataset:
    """One generated input set and what its outputs must be."""

    def __init__(self, workload, seed: int, directory: Path):
        self.seed = seed
        self.dir = directory
        self.sizes = workloads.make_inputs(workload, seed, directory)
        self.expected = load_digests(workload.name, seed)
        self.reference = None  # digests of the first run when not recorded
        self.checked = False


class Run:
    """All probes of one benchmark invocation and their checks."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []

    def probe(self, dataset: Dataset, traced: bool = False) -> None:
        w = self.work
        record = run_probe(self.workload, dataset.dir, w / "out",
                           w / "probe.json", w / "probe.log", traced, self.env)
        record["traced"] = traced
        self.attempted += 1
        problem = self.check(record, dataset)
        if problem:
            self.failures.append(f"seed {dataset.seed}: {problem}")
        else:
            self.records.append(record)

    def check(self, record: dict, dataset: Dataset) -> str | None:
        if record["returncode"] != 0:  # every workload analyzes every area
            log = (self.work / "probe.log").read_text("utf-8", "replace")
            return (f"exit code {record['returncode']} (expected 0): "
                    f"{log.strip()[-400:]}")
        marks = record.get("marks", {})
        if "start" not in marks or "end" not in marks:
            return "probe recorded no study window"
        ticks = record.get("ticks", [])
        record["speed"] = {
            "setup_s": speed_factor(ticks, end=marks["start"]),
            "study_s": speed_factor(ticks, marks["start"], marks["end"]),
            "cpu_s": speed_factor(ticks),
        }
        if None in record["speed"].values():
            return "probe recorded no speed ticks in its set-up or study"
        out = self.work / "out"
        digests = workloads.output_digests(self.workload, out)
        if not dataset.checked:
            problems, units = workloads.check_outputs(
                self.workload, out, dataset.sizes)
            if problems:
                return "output check: " + "; ".join(problems)
            dataset.sizes.update(units=units, lps=record["lps"])
            dataset.checked = True
        want = dataset.expected or dataset.reference
        if want is None:
            dataset.reference = digests
        elif digests != want:
            bad = sorted(k for k in set(want) | set(digests)
                         if want.get(k) != digests.get(k))
            source = "recorded digests" if dataset.expected else "first run"
            return f"outputs differ from the {source}: {', '.join(bad)}"
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the probe
    # running at the time is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    numpy_version = load_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return measure(workload, args, work, numpy_version)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(workload, args, work: Path, numpy_version: str) -> int:
    # A traced run needs exact counts, so it uses the seed's own input
    # only; an untraced run spreads its studies over several inputs.
    seeds = dataset_seeds(args.seed, 1 if args.trace else INPUTS_PER_RUN)
    datasets = [Dataset(workload, s, work / f"data-{k}")
                for k, s in enumerate(seeds)]
    run = Run(workload, work)

    started = time.monotonic()
    deadline = started + args.seconds
    studies = 0
    while True:
        now = time.monotonic()
        # A traced run alternates untraced and traced studies; an
        # untraced one cycles through its inputs and stops on a whole
        # cycle.
        if args.trace:
            enough = studies >= 2 * MIN_STUDIES and studies % 2 == 0
        else:
            enough = studies >= len(datasets) and studies % len(datasets) == 0
        if ((now >= deadline and enough) or now - started > HARD_LIMIT_S
                or len(run.failures) >= 3):
            break
        if args.trace:
            run.probe(datasets[0], traced=studies % 2 == 1)
        else:
            run.probe(datasets[studies % len(datasets)])
        studies += 1
    elapsed = time.monotonic() - started

    plain = [r for r in run.records if not r["traced"]]
    traced = [r for r in run.records if r["traced"]]

    raw = {
        "setup_s": [(r["marks"]["start"] - r["spawn_ns"]) / 1e9 for r in plain],
        "study_s": [study_seconds(r) for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
    }
    speeds = {k: [r["speed"][k] for r in plain] for k in raw}
    samples = {k: [x * f for x, f in zip(v, speeds[k])] for k, v in raw.items()}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    summaries = {k: summarize(v) for k, v in samples.items() if v}
    for k, v in raw.items():
        if v:
            summaries[k]["unscaled_median"] = statistics.median(v)
            summaries[k]["speed_median"] = statistics.median(speeds[k])
    correct = not run.failures and bool(plain)
    report = {
        "provenance": provenance(workload, args.seed, run.env, numpy_version),
        "inputs": {d.seed: d.sizes for d in datasets},
        "seconds": args.seconds,
        "measured_s": elapsed,
        "digests": {d.seed: "recorded" if d.expected else "first run"
                    for d in datasets},
        "failures": run.failures,
        "summaries": summaries,
        "samples": samples,
        "unscaled_samples": raw,
        "speed_samples": speeds,
    }
    if not args.trace:
        metrics = {k: summaries[k]["median"] if k in summaries else None
                   for k in ("setup_s", "study_s", "cpu_s", "peak_rss_mb")}
        metrics["success_ratio"] = (run.attempted - len(run.failures)) / run.attempted
        units = E2E_UNITS
    else:
        metrics, missing, problems = layer_medians(traced, plain, workload)
        correct = correct and bool(traced) and not problems
        report["trace_problems"] = problems
        units = dict(tracer.PER_LAYER)
        report["missing_layers"] = missing
        if traced:
            report["spans"] = traced[-1]["trace"]
    report["metrics"] = metrics

    print_report(workload, args, report, metrics, units, run)
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def study_seconds(record: dict) -> float:
    return (record["marks"]["end"] - record["marks"]["start"]) / 1e9


def layer_medians(traced, plain, workload):
    """Per-layer metrics over the traced runs, the layers missing, and
    the problems found: counts must repeat exactly, and the named layers
    (all but the cli and pipeline glue) must cover 95% of the study."""
    on_path = frozenset(workload.layers)
    problems = []
    per_run = []
    missing: set[str] = set()
    for r in traced:
        window = r["marks"]["start"], r["marks"]["end"]
        values, gone = tracer.per_layer_metrics(r["trace"], window, on_path)
        # Self times are scaled like study_s, by the study window's ticks.
        per_run.append({k: v * r["speed"]["study_s"]
                        if k in tracer.TIME_METRICS and v is not None else v
                        for k, v in values.items()})
        missing.update(gone)
    metrics = {}
    for name, unit in tracer.PER_LAYER:
        column = [v[name] for v in per_run]
        if not column or any(x is None for x in column):
            metrics[name] = None
        elif name in tracer.TIME_METRICS or name == "trace.coverage_ratio":
            metrics[name] = statistics.median(column)
        else:
            if len(set(column)) != 1:
                problems.append(f"count {name} differs between traced "
                                f"runs of one seed: {sorted(set(column))}")
            metrics[name] = column[0]
    if traced and plain:
        def study(r):
            return study_seconds(r) * r["speed"]["study_s"]
        # Each traced study runs right after an untraced one; comparing
        # scaled times within pairs cancels the host's drift.
        metrics["trace.overhead_ratio"] = statistics.median(
            study(t) / study(p) for p, t in zip(plain, traced)) - 1.0
    coverage = metrics.get("trace.coverage_ratio")
    if coverage is not None and coverage < 0.95:
        problems.append(f"named layers cover only {coverage:.1%} of the "
                        f"study; the rest is cli and pipeline glue")
    return metrics, sorted(missing), problems


def print_report(workload, args, report, metrics, units, run) -> None:
    prov = report["provenance"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"measured {report['measured_s']:.1f} s  attempted {run.attempted}  "
          f"failed {len(run.failures)}")
    for seed, sizes in report["inputs"].items():
        print(f"input seed {seed} ({report['digests'][seed]} digests): "
              + ", ".join(f"{k} {v}" for k, v in sizes.items()))
    print(f"provenance: commit {prov['git_commit']}  "
          f"source {prov['source_sha256'][:12]}  nproc {prov['nproc']}  "
          f"python {prov['python']}  numpy {prov['numpy']}  {prov['platform']}")
    print("threads: " + ", ".join(f"{k}={v}" for k, v in prov["thread_env"].items()))
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for problem in report.get("trace_problems", ()):
        print(f"TRACE CHECK FAILED: {problem}")
    if report.get("missing_layers"):
        print("missing layers: " + ", ".join(report["missing_layers"]))
    for name, s in report["summaries"].items():
        extra = ", ".join(f"{k} {v:.4f}" for k, v in s.items() if k.startswith("p"))
        unscaled = (f", unscaled median {s['unscaled_median']:.4f} at speed "
                    f"{s['speed_median']:.3f}" if "unscaled_median" in s else "")
        print(f"  {name:<14} median {s['median']:.4f} {E2E_UNITS[name]}"
              f"  (n={s['n']}{', ' + extra if extra else ''}{unscaled})")
    if args.trace:
        off_path = set(workloads.ALL_LAYERS) - set(workload.layers)
        for name, value in metrics.items():
            layer = name.split(".", 1)[0]
            note = ("  missing" if value is None else
                    "  (not on this workload's path)" if layer in off_path else "")
            shown = "" if value is None else f"{value:.6g}"
            print(f"  {name:<32} {shown:>14} {units[name]}{note}")

if __name__ == "__main__":
    sys.exit(main())
