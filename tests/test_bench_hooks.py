"""The benchmark's tracer (``perfbench/tracer.py``) times each layer by
wrapping package functions under their module bindings.  A hook whose
target is gone is reported as a ``missing`` layer instead of failing, so
this test keeps a rename or deletion from hiding a layer silently.

The benchmark's probe (``perfbench/probe.py``) also reads the fields of
the analytics results for the frontier-wide workload; the second test
keeps a renamed field from failing only that benchmark run."""

import json
import types
from pathlib import Path

import numpy as np

from uniprod.analysis import rank, sensitivity_drop_input, tertile_summary
from uniprod.dea import decompose

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
