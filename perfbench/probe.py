"""One workload run in a fresh process, as a ``uniprod`` user pays for it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The study window opens at the first call into ``ingest`` (or,
for ``frontier-wide``, at ``DeaProblem`` construction) and closes when
the last report file is written (or the last analysis call returns).
Everything before the window is set-up: interpreter start, ``import
uniprod``, argument parsing and configuration.

The probe also measures the speed of the core it runs on, while it
runs: every ``TICK_PERIOD_S`` of wall time a timer signal interrupts it
for a fixed piece of interpreter work, the tick (``_tick_work``), and
the probe records how long each tick took.  On a shared host the speed
of a core drifts from second to second by up to a factor of two; the
parent scales the probe's times by the ticks (see ``run.speed_factor``).
The ticks cost about 1% of the probe's time, the same on every commit.

The probe writes one JSON file with its timestamps (``time.monotonic_ns``,
the clock the parent used for the spawn time), the start and duration
of every tick, the LP count and, when traced, its spans and counters.  The CLI's own exit
code is the probe's exit code.

    python3 perfbench/probe.py RESULT.json KIND DATA OUT TRACE -- ARGV...
"""

import json
import os
import signal
import sys
import time

TICK_PERIOD_S = 0.02
#: The tick's work: normalising author-like names into a dict, the kind
#: of string, list and dict work that ingest and disambiguation do.  Of
#: the ticks tried (a dict counter, strided array reads, small numpy
#: pivots and this one), this one followed the studies' drift most
#: closely on all three workloads.
TICK_NAMES = tuple(f"Name{i} Van-Der {chr(65 + i % 26)}." for i in range(100))

_marks = {}
_ticks = []


def _tick_work():
    keys = {}
    for name in TICK_NAMES:
        key = " ".join(p.strip(".").lower() for p in name.replace("-", " ").split())
        keys[key[:6]] = key
    return keys


def _on_tick(signum, frame):
    t0 = time.monotonic_ns()
    _tick_work()
    _ticks.append((t0, time.monotonic_ns() - t0))


def _first_call(fn, key):
    def wrapper(*args, **kwargs):
        _marks.setdefault(key, time.monotonic_ns())
        return fn(*args, **kwargs)
    return wrapper


def _after_call(fn, key):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        _marks[key] = time.monotonic_ns()
        return result
    return wrapper


def _counting(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _round(value):
    return None if value is None else f"{value:.9f}"


def _frontier_results(results, sensitivity, ranks, tertiles) -> dict:
    """The frontier-wide outputs the check covers, floats at 1e-9."""
    cmp = sensitivity.comparison
    return {
        "units": [
            [r.dmu_id, _round(r.te), _round(r.pte), _round(r.se), r.rts]
            for r in sorted(results, key=lambda r: r.dmu_id)
        ],
        "sensitivity": {
            "dropped": sensitivity.dropped_label,
            "after": {k: _round(v) for k, v in sensitivity.scores_after.items()},
            "deltas": [list(d) for d in cmp.deltas],
            "changed": cmp.changed,
            "max_delta": cmp.max_delta,
            "mean_delta": _round(cmp.mean_delta),
            "median_delta": _round(cmp.median_delta),
            "cv_delta": _round(cmp.cv_delta),
            "cv_defined": cmp.cv_defined,
            "no_longer_efficient": cmp.no_longer_efficient,
        },
        "ranks": dict(sorted(ranks.items())),
        "tertiles": {
            "efficient": tertiles.efficient_count,
            "inefficient": tertiles.inefficient_count,
            "sizes": list(tertiles.tertile_sizes),
            "means": [_round(m) for m in tertiles.tertile_means],
        },
    }


def main(argv) -> int:
    sep = argv.index("--")
    result_path, kind, data, out, trace_flag = argv[:sep]
    cli_argv = argv[sep + 1:]
    traced = trace_flag == "1"
    signal.signal(signal.SIGALRM, _on_tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)

    from uniprod import analysis, cli, dea

    trace = None
    counts = {"lps": None}  # None: the LP count is missing, not zero
    if traced:
        from tracer import Trace
        trace = Trace()
        trace.install()
    elif hasattr(dea, "solve_lp"):
        # The only hook on an untraced run: one increment per LP.
        counts["lps"] = 0
        dea.solve_lp = _counting(dea.solve_lp, counts, "lps")

    def finish(code: int) -> int:
        signal.setitimer(signal.ITIMER_REAL, 0)
        record = {"marks": _marks, "lps": counts["lps"], "ticks": _ticks}
        if trace is not None:
            if "uniprod.dea.solve_lp" not in trace.missing:
                record["lps"] = trace.counters["lp.calls"]
            record["trace"] = trace.dump()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return code

    if kind == "csv":
        cli.ingest = _first_call(cli.ingest, "start")
        cli.write_report = _after_call(cli.write_report, "end")
        if trace is None:
            return finish(cli.main(cli_argv))
        return finish(trace.span("cli", "uniprod.cli.main", cli.main, cli_argv))

    with open(os.path.join(data, "frontier.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    call = trace.span if trace is not None else (
        lambda layer, name, fn, *a: fn(*a))
    _marks["start"] = time.monotonic_ns()
    problem = call("dea", "DeaProblem", lambda: dea.DeaProblem(
        [dea.DmuRecord(*unit) for unit in spec["units"]],
        spec["input_labels"], spec["output_labels"]))
    results = dea.decompose(problem)
    sensitivity = analysis.sensitivity_drop_input(problem, spec["drop_input"])
    pte = {r.dmu_id: r.pte for r in results}
    ranks = analysis.rank(pte)
    tertiles = analysis.tertile_summary(pte)
    _marks["end"] = time.monotonic_ns()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "frontier_results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(_frontier_results(results, sensitivity, ranks, tertiles),
                  fh, indent=1)
        fh.write("\n")
    return finish(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
