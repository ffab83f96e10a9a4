"""perfbench's traced run replaces the solver's module bindings by name
(`perfbench/worker.py`).  A refactor that drops a wrapped binding, or
changes the shape of what a wrapped call returns, fails here in a short
solve instead of only in a traced benchmark run."""

from pathlib import Path

from greenflowshop.instance import load_table3
from greenflowshop.nsga2 import RunConfig, evolve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_bindings_count_and_keep_the_front(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    config = RunConfig(pop_size=8, generations=3, seed=7)
    plain = [(ind.perm, ind.obj) for ind in evolve(load_table3(), config)]
    tracer = tracing.Tracer()
    with tracer.installed():
        # installs `worker.instrument_solver` plus every cli/harness binding
        worker.CampaignWorkload.instrument(None, tracer)
        traced = [(ind.perm, ind.obj) for ind in evolve(load_table3(), config)]
    assert traced == plain
    assert tracer.stat("localsearch.vnd").calls > 0
    assert tracer.stat("objectives.evaluate.descent").calls > 0
