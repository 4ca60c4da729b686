"""perfbench's tracer still finds every name it wraps in the package."""

import importlib.util
from pathlib import Path

from latticeopt import opcost
from latticeopt.instances import HsConfig, SndConfig, gen_hs, gen_snd

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
    # the tracer counts phase_one_feasible's None as an infeasible cell
    infeasible = sum(row.count(opcost.CELL_INFEASIBLE) for row in m.status)
    assert metrics["augment.phase_one.infeasible"] == infeasible == 1
    assert not hasattr(opcost.opcost_kernel, "__wrapped__")
    assert not hasattr(opcost.phase_one_feasible, "__wrapped__")


def test_tracer_reads_the_walks_step_counts():
    # on small SND instances every Phase-I point is already optimal and the
    # optimisation walks take no steps; HS walks start at the hook's point
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    inst = gen_hs(HsConfig(scenario_count=2, seed=7, scaled=True))
    dec = opcost.single_scenario_decisions(inst)
    try:
        tracer.install()
        m = opcost.opcost_kernel(inst, dec)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.take(), wall_s=1.0)
    assert m.counters.phase_one_calls == 0
    assert metrics["augment.walk.calls"] == m.counters.augment_calls
    assert metrics["augment.walk.steps"] == m.counters.walk_steps > 0
