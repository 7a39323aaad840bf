"""The benchmark tracer's contract with tsesim.

`perfbench/tracing.py` wraps tsesim functions and methods by name and reads
its counts from their results, so a rename in `src/` or a change in what
`classify_batch` or `expire` returns breaks traced benchmark runs.  The
tracer is loaded by path, as `test_golden.py` loads `workloads.py`, and run
over a short scenario whose attack masks expire.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tsesim.attack import AttackSchedule, UseCase, build_trace
from tsesim.engine import SimConfig, run, scenario_acl, victim_flow_headers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while defining
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture
def tracing(monkeypatch):
    # tracing.py imports `workloads` by its plain name, as perfbench/ on sys.path provides it.
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_tracer_counts_a_run_with_expiry_and_restores(tracing, timed):
    targets = [(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.LEAVES]
    targets += [(tracing.FlowCache, attr) for attr in tracing.COUNTED]
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in targets}

    victims = victim_flow_headers()
    acl = scenario_acl(UseCase.DP, victim_flows=victims)
    trace = build_trace(UseCase.DP, acl)
    # One second of attack, then idle: the attack's entries expire at about 11 s.
    sched = AttackSchedule(rate=1000, t_attack=1.0, t_sleep=20.0, start=0.0)
    tracer = tracing.Tracer(timed=timed)
    tracer.install()
    try:
        result = run(SimConfig(duration=12.0), acl, [(trace, sched)], victims)
    finally:
        tracer.restore()

    assert {key: vars(key[0])[key[1]] for key in targets} == originals
    counts = tracer.counts
    assert counts["entries_expired"] > 0 and counts["masks_expired"] > 0
    assert counts["masks_created"] == result.masks_total == 16
    assert counts["packets"] == sum(r.attacker_pps for r in result.series) == 1000
    if timed:
        names = {span[0] for span in tracer.spans}
        assert {"engine.mask_batches", "engine.victim_cost_probe", "flow_cache.classify_batch",
                "flow_cache.expire", "flow_cache.rebalance"} <= names
        assert len(tracer.durations_ms("flow_cache.expire")) == 120  # one per tick
