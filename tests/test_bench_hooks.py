"""The benchmark's tracer (``perfbench/tracer.py``) times each layer by
wrapping package functions under their module bindings.  A hook whose
target is gone is reported as a ``missing`` layer instead of failing, so
this test keeps a rename or deletion from hiding a layer silently.

The tracer's after-hooks read results and arguments of the functions
they wrap (``LpSolution.iterations``, the problem, unit and regime of
``solve_output_oriented``); the second test runs them on a small study so
that a renamed field or a moved argument fails here, not only in a
traced benchmark run.  It also checks the matching counts against
``decide`` on the same data, so a matching loop that bypasses the hooked
``match_author`` binding fails here too, and the scope sizes against a
scan of the whole registry, so a scope that gains or loses a member
fails here as well as in the CI pins.

The benchmark's probe (``perfbench/probe.py``) also reads the fields of
the analytics results for the frontier-wide workload; the last test
keeps a renamed field from failing only that benchmark run."""

import json
import types
from pathlib import Path

import numpy as np

from uniprod import cli, dea
from uniprod.analysis import rank, sensitivity_drop_input, tertile_summary
from uniprod.dea import decompose
from uniprod.disambiguation import decide, surname_key
from uniprod.ingest import ingest
from uniprod.synthetic import write_synthetic_dataset

from .oracles import random_dea_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _from_source(name):
    # Executed from source so that nothing is written under perfbench/.
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    exec(code, module.__dict__)
    return module


def test_every_hook_resolves():
    tracer = _from_source("tracer")
    assert tracer.HOOKS
    missing = [
        tracer.hook_name(module, path)
        for _, module, path, _ in tracer.HOOKS
        if tracer._resolve(module, path) is None
    ]
    assert missing == []


def test_after_hooks_count_a_study(tmp_path, monkeypatch):
    tracer = _from_source("tracer")
    iterations = []
    solve = dea.solve_lp

    def recording(*lp):
        solution = solve(*lp)
        iterations.append(solution.iterations)
        return solution

    monkeypatch.setattr(dea, "solve_lp", recording)
    for _, module, path, _ in tracer.HOOKS:  # restored at teardown
        found = tracer._resolve(module, path)
        if found is not None:
            monkeypatch.setattr(*found)
    data = write_synthetic_dataset(tmp_path / "data", seed=7, n_areas=2,
                                   n_universities=8)
    # Counted before the hooks go in; the study runs without overrides,
    # so every author token is one match_author call.
    corpus = ingest(data)
    outcomes = [o for _, per_pub in decide(corpus.publications, corpus.staff)
                for o in per_pub]
    # Each token's scope by a scan of the whole registry: the members on
    # staff in the year, at a university the publication names, under
    # the token's surname key.
    keys = {m.staff_id: surname_key(m.surname) for m in corpus.staff}
    scope = sum(
        1 for p in corpus.publications for token in p.authors
        for m in corpus.staff
        if m.active_in(p.year) and m.university_id in p.universities
        and keys[m.staff_id] == surname_key(token.surname) != "")
    named = [len(p.universities) for p in corpus.publications]
    assert named.count(1) > 0 and max(named) > 1
    trace = tracer.Trace()
    trace.install()
    code = cli.main([str(data), "--out", str(tmp_path / "report"),
                     "--drop-input", "PR", "--compare-partial"])
    assert code == 0
    assert trace.missing == []
    counters = trace.counters
    assert iterations
    assert counters["lp.calls"] == len(iterations) == sum(
        counters[f"dea.lp_calls.{regime}"] for regime in dea.REGIMES)
    assert counters["lp.pivots"] == sum(iterations)
    assert counters["disambiguation.tokens"] == len(outcomes) == sum(
        len(p.authors) for p in corpus.publications)
    assert counters["disambiguation.scope"] == scope > 0
    assert counters["disambiguation.matched"] == sum(
        o.kind == "matched" for o in outcomes) > 0


def test_probe_reads_the_frontier_results():
    probe = _from_source("probe")
    problem = random_dea_problem(np.random.default_rng(5), n_dmus=12)
    results = decompose(problem)
    pte = {r.dmu_id: r.pte for r in results}
    out = probe._frontier_results(
        results, sensitivity_drop_input(problem, "PR"), rank(pte),
        tertile_summary(pte))
    doc = json.loads(json.dumps(out))
    assert len(doc["units"]) == 12
    assert doc["sensitivity"]["dropped"] == "PR"
    assert sorted(doc["sensitivity"]["after"]) == sorted(pte)
    assert doc["ranks"] == dict(sorted(rank(pte).items()))
    assert len(doc["tertiles"]["means"]) == 3
