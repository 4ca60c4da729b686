"""perfbench's tracer still finds every name it wraps in the package."""

import importlib.util
from pathlib import Path

from latticeopt import opcost
from latticeopt.instances import SndConfig, gen_snd

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_kernel_build_and_uninstalls():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    inst = gen_snd(SndConfig(scenario_count=2, seed=3))
    try:
        tracer.install()
        dec = opcost.single_scenario_decisions(inst)
        m = opcost.opcost_kernel(inst, dec)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    names = {s.name for s in spans}
    assert {"opcost.decisions", "opcost.build", "augment.phase_one"} <= names
    metrics = tracing.layer_metrics(spans, wall_s=1.0)
    assert metrics["augment.phase_one.calls"] >= m.counters.phase_one_calls
    assert not hasattr(opcost.opcost_kernel, "__wrapped__")
    assert not hasattr(opcost.phase_one_feasible, "__wrapped__")
