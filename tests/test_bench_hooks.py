"""The benchmark's tracer (``perfbench/tracer.py``) times each layer by
wrapping package functions under their module bindings.  A hook whose
target is gone is reported as a ``missing`` layer instead of failing, so
this test keeps a rename or deletion from hiding a layer silently."""

import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # Executed from source so that nothing is written under perfbench/.
    module = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH),
                   "exec")
    exec(code, module.__dict__)
    return module


def test_every_hook_resolves():
    tracer = _tracer()
    assert tracer.HOOKS
    missing = [
        tracer.hook_name(module, path)
        for _, module, path, _ in tracer.HOOKS
        if tracer._resolve(module, path) is None
    ]
    assert missing == []
