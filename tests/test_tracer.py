"""The benchmark's span tracer (perfbench/tracer.py) against the package.

The tracer wraps every public function of the layer modules and a fixed
list of `WitnessEvaluator` methods by name, so a refactor that renames or
drops one breaks traced benchmark runs; installing and removing the tracer
here catches that.
"""

import importlib
import importlib.util
from pathlib import Path

import spindeph
from spindeph.engine import WitnessEvaluator


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_attribute():
    tracer = load_tracer()
    holders = [spindeph, WitnessEvaluator,
               *(importlib.import_module(f"spindeph.{layer}") for layer in tracer.LAYERS)]
    before = [dict(vars(holder)) for holder in holders]
    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._patches)
        assert all(getattr(holder, key) is not fn for holder, key, fn in patched)
        methods = {key for holder, key, _ in patched if holder is WitnessEvaluator}
        assert methods == set(tracer.EVALUATOR_METHODS)
    finally:
        t.uninstall()
    assert len(patched) > len(tracer.EVALUATOR_METHODS)
    assert all(getattr(holder, key) is fn for holder, key, fn in patched)
    for holder, names in zip(holders, before):
        assert [k for k, v in names.items() if vars(holder).get(k) is not v] == []
