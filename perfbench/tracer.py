"""In-process span recorder for one workload run.

The recorder wraps public functions of each ``uniprod`` layer by
replacing the module or class attributes the pipeline calls through, so
the program itself is not edited.  Each span records its layer, name,
start, end and parent span; every span of one process shares one run
id.  Spans and counters stay in memory and are written once, when the
run ends.

A hook whose target attribute no longer exists is recorded as missing
instead of failing the run, so that the layer's metrics can be reported
as ``missing`` by name.
"""

from __future__ import annotations

import importlib
import time
import uuid
from collections import Counter

#: (layer, module, attribute path, kind).  "span" hooks time each call;
#: "count" hooks only feed counters.  Several entries wrap the same
#: function under different module bindings, because each module that
#: does ``from .x import f`` calls through its own name.
HOOKS = (
    ("cli", "uniprod.cli", "main", "target"),
    ("ingest", "uniprod.cli", "ingest", "span"),
    ("pipeline", "uniprod.cli", "run_pipeline", "span"),
    ("report", "uniprod.cli", "write_report", "span"),
    ("disambiguation", "uniprod.pipeline", "disambiguate_corpus", "span"),
    ("disambiguation", "uniprod.disambiguation", "match_author", "count"),
    ("disambiguation", "uniprod.disambiguation", "normalize_text", "count"),
    ("records", "uniprod.records", "StaffRegistry.coverage", "count"),
    ("records", "uniprod.records", "StaffRegistry.area_ids", "count"),
    ("bibliometrics", "uniprod.pipeline", "MatchedCorpus", "span"),
    ("bibliometrics", "uniprod.pipeline", "build_input_vector", "span"),
    ("bibliometrics", "uniprod.pipeline", "compute_output_vector", "span"),
    ("bibliometrics", "uniprod.pipeline", "assemble_problem", "span"),
    ("bibliometrics", "uniprod.bibliometrics", "MatchedCorpus.cell_rows",
     "count"),
    ("dea", "uniprod.pipeline", "decompose", "span"),
    ("dea", "uniprod.pipeline", "scores", "span"),
    ("dea", "uniprod.dea", "decompose", "span"),
    ("dea", "uniprod.analysis", "scores", "span"),
    ("dea", "uniprod.dea", "solve_output_oriented", "span"),
    ("dea", "uniprod.dea", "DeaProblem.drop_input", "span"),
    ("lp", "uniprod.dea", "solve_lp", "span"),
    ("lp", "uniprod.lp", "_pivot", "count"),
    ("analysis", "uniprod.pipeline", "rank", "span"),
    ("analysis", "uniprod.pipeline", "tertile_summary", "span"),
    ("analysis", "uniprod.pipeline", "compare_rankings", "span"),
    ("analysis", "uniprod.pipeline", "sensitivity_drop_input", "span"),
    ("analysis", "uniprod.pipeline", "normalize_scores", "span"),
    ("analysis", "uniprod.pipeline", "global_index", "span"),
    ("analysis", "uniprod.analysis", "sensitivity_drop_input", "span"),
    ("analysis", "uniprod.analysis", "rank", "span"),
    ("analysis", "uniprod.analysis", "tertile_summary", "span"),
    ("analysis", "uniprod.analysis", "compare_rankings", "span"),
)


def hook_name(module: str, path: str) -> str:
    return f"{module}.{path}"


def _resolve(module: str, path: str):
    """Return (owner, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Trace:
    """Spans and counters of one process.

    ``spans`` holds ``[layer, name, start_ns, end_ns, parent_index]``
    lists; a parent index of -1 marks a root span.
    """

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.called: set[str] = set()
        self._stack: list[int] = []
        self._problems: dict[int, object] = {}
        self._distinct: set[tuple] = set()
        self._sensitivity_depth = 0

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span and return its result."""
        spans = self.spans
        stack = self._stack
        index = len(spans)
        record = [layer, name, 0, 0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        record[2] = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.monotonic_ns()
            stack.pop()

    def install(self) -> None:
        """Wrap every hook; record absent targets."""
        for layer, module, path, kind in HOOKS:
            name = hook_name(module, path)
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            if kind == "target":
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrap(layer, name, fn, kind))

    def _wrap(self, layer, name, fn, kind):
        after = self._after.get(name.rsplit(".", 1)[-1])
        called = self.called
        counters = self.counters

        if kind == "count":
            def counting(*args, **kwargs):
                called.add(name)
                if after is None:
                    counters[name] += 1
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                after(self, args, result)
                return result
            return counting

        def spanning(*args, **kwargs):
            called.add(name)
            if name.endswith(".sensitivity_drop_input"):
                self._sensitivity_depth += 1
                try:
                    result = self.span(layer, name, fn, *args, **kwargs)
                finally:
                    self._sensitivity_depth -= 1
            else:
                result = self.span(layer, name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return spanning

    # Counter updates run after the span closes, so their cost lands in
    # the caller's self time rather than in the measured function.

    def _after_ingest(self, args, corpus):
        self.counters["ingest.rows"] += (
            len(corpus.staff) + len(corpus.publications) + len(corpus.journals)
            + len(corpus.funding) + len(corpus.affiliations)
        )

    def _after_match_author(self, args, outcome):
        self.counters["disambiguation.tokens"] += 1
        self.counters["disambiguation.scope"] += len(args[1])
        if outcome.kind == "matched":
            self.counters["disambiguation.matched"] += 1

    def _after_solve_output_oriented(self, args, result):
        problem, dmu_index, regime = args[0], args[1], args[2]
        # Keeping the problem alive keeps its id unique for the run.
        self._problems[id(problem)] = problem
        self._distinct.add((id(problem), dmu_index, regime))
        self.counters[f"dea.lp_calls.{regime}"] += 1
        self.counters["dea.distinct_lps"] = len(self._distinct)

    def _after_solve_lp(self, args, solution):
        self.counters["lp.calls"] += 1
        self.counters["lp.pivots"] += solution.iterations
        if self._sensitivity_depth:
            self.counters["analysis.sensitivity_lp_calls"] += 1

    def _after_pivot(self, args, result):
        self.counters["lp.pivot_bytes"] += args[0].nbytes

    def _after_compute_output_vector(self, args, result):
        self.counters["bibliometrics.cells"] += 1

    def _after_write_report(self, args, written):
        self.counters["report.bytes"] += sum(p.stat().st_size for p in written)

    _after = {
        "ingest": _after_ingest,
        "match_author": _after_match_author,
        "solve_output_oriented": _after_solve_output_oriented,
        "solve_lp": _after_solve_lp,
        "_pivot": _after_pivot,
        "compute_output_vector": _after_compute_output_vector,
        "write_report": _after_write_report,
    }

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": dict(self.counters),
            "missing": self.missing,
            "called": sorted(self.called),
        }


#: Per-layer metrics of a traced run, with their units.  ``busy_s`` and
#: ``self_s`` are a layer's self time inside the study window: its spans'
#: durations minus the time covered by spans of the layers it calls.
#: ``trace.coverage_ratio`` is the share of the window in the self time
#: of layers other than the cli and pipeline glue.
PER_LAYER = (
    ("ingest.busy_s", "s"),
    ("ingest.rows", "count"),
    ("records.coverage_calls", "count"),
    ("records.area_ids_calls", "count"),
    ("disambiguation.busy_s", "s"),
    ("disambiguation.tokens", "count"),
    ("disambiguation.match_ratio", "ratio"),
    ("disambiguation.scope_per_token", "staff/token"),
    ("disambiguation.normalize_calls", "count"),
    ("bibliometrics.busy_s", "s"),
    ("bibliometrics.cells", "count"),
    ("bibliometrics.cell_scans", "count"),
    ("dea.busy_s", "s"),
    ("dea.build_s", "s"),
    ("dea.lp_calls.crs", "count"),
    ("dea.lp_calls.nirs", "count"),
    ("dea.lp_calls.vrs", "count"),
    ("dea.distinct_lp_ratio", "ratio"),
    ("lp.busy_s", "s"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_lp", "pivots/LP"),
    ("lp.pivot_mb", "MB_computed"),
    ("analysis.busy_s", "s"),
    ("analysis.sensitivity_lp_calls", "count"),
    ("report.busy_s", "s"),
    ("report.bytes", "bytes"),
    ("pipeline.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

TIME_METRICS = frozenset(n for n, u in PER_LAYER if u == "s")

#: Layers whose self time is glue between the named layers' calls.
GLUE_LAYERS = frozenset({"cli", "pipeline"})

#: Metrics that also need another layer's spans: without them, LP time
#: would count as set-up and sensitivity LPs would read 0.
USES_LAYER = {"dea.build_s": "lp", "analysis.sensitivity_lp_calls": "lp"}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(dump: dict, window: tuple[int, int],
                      on_path: frozenset[str]) -> tuple[dict, list[str]]:
    """Per-layer values of one traced process, and the layers missing.

    A layer on the workload's path is missing when one of its hooks
    could not be installed or none of them was called; its metrics are
    then None.  Layers off the path (ingest on ``frontier-wide``) did no
    work and read 0.  ``trace.overhead_ratio`` needs the untraced runs
    and is filled in by the caller.
    """
    spans = dump["spans"]
    c = dump["counters"]
    lo, hi = window

    def inside(start, end):
        return max(0, min(end, hi) - max(start, lo))

    # Self times count only what falls inside the study window: the CLI
    # span also holds argument parsing and the summary printed after the
    # last report file, which are not part of the study.
    child_ns = [0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += inside(start, end)
    self_s: dict[str, float] = {}
    build_ns = 0
    for k, (layer, name, start, end, parent) in enumerate(spans):
        own = inside(start, end) - child_ns[k]
        self_s[layer] = self_s.get(layer, 0.0) + own / 1e9
        if name == "uniprod.dea.solve_output_oriented":
            build_ns += own
    # Time in named layers, without the glue of cli and pipeline: work
    # that no hook wraps lands in that glue and lowers the ratio.
    named = sum(v for layer, v in self_s.items()
                if layer not in GLUE_LAYERS) * 1e9

    pivots = c.get("lp.pivots", 0)
    lp_calls = c.get("lp.calls", 0)
    solves = sum(c.get(f"dea.lp_calls.{r}", 0) for r in ("crs", "nirs", "vrs"))
    tokens = c.get("disambiguation.tokens", 0)
    values = {
        "ingest.busy_s": self_s.get("ingest", 0.0),
        "ingest.rows": c.get("ingest.rows", 0),
        "records.coverage_calls": c.get("uniprod.records.StaffRegistry.coverage", 0),
        "records.area_ids_calls": c.get("uniprod.records.StaffRegistry.area_ids", 0),
        "disambiguation.busy_s": self_s.get("disambiguation", 0.0),
        "disambiguation.tokens": tokens,
        "disambiguation.match_ratio": _ratio(c.get("disambiguation.matched", 0), tokens),
        "disambiguation.scope_per_token": _ratio(c.get("disambiguation.scope", 0), tokens),
        "disambiguation.normalize_calls": c.get("uniprod.disambiguation.normalize_text", 0),
        "bibliometrics.busy_s": self_s.get("bibliometrics", 0.0),
        "bibliometrics.cells": c.get("bibliometrics.cells", 0),
        "bibliometrics.cell_scans": c.get("uniprod.bibliometrics.MatchedCorpus.cell_rows", 0),
        "dea.busy_s": self_s.get("dea", 0.0),
        "dea.build_s": build_ns / 1e9,
        "dea.lp_calls.crs": c.get("dea.lp_calls.crs", 0),
        "dea.lp_calls.nirs": c.get("dea.lp_calls.nirs", 0),
        "dea.lp_calls.vrs": c.get("dea.lp_calls.vrs", 0),
        "dea.distinct_lp_ratio": _ratio(c.get("dea.distinct_lps", 0), solves),
        "lp.busy_s": self_s.get("lp", 0.0),
        "lp.pivots": pivots,
        "lp.pivots_per_lp": _ratio(pivots, lp_calls),
        "lp.pivot_mb": c.get("lp.pivot_bytes", 0) / 1e6,
        "analysis.busy_s": self_s.get("analysis", 0.0),
        "analysis.sensitivity_lp_calls": c.get("analysis.sensitivity_lp_calls", 0),
        "report.busy_s": self_s.get("report", 0.0),
        "report.bytes": c.get("report.bytes", 0),
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.coverage_ratio": _ratio(named, hi - lo),
        "trace.overhead_ratio": None,
    }

    hook_layer = {hook_name(m, p): layer for layer, m, p, _ in HOOKS}
    seen = {s[0] for s in spans} | {hook_layer[h] for h in dump["called"]}
    absent = {hook_layer[h] for h in dump["missing"]}
    missing = sorted(layer for layer in on_path
                     if layer in absent or layer not in seen)
    for name in values:
        if ({name.split(".", 1)[0], USES_LAYER.get(name)} & set(missing)):
            values[name] = None
    return values, missing
