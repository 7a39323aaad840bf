"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import child
import run
import tracing
from workloads import ROOT, WORKLOADS, attack, engine, make_inputs

from tsesim import cli

GOLDEN = json.loads(run.GOLDEN.read_text())


def _originals() -> dict:
    targets = [(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.LEAVES]
    targets += [(tracing.FlowCache, attr) for attr in tracing.COUNTED]
    return {(owner, attr): vars(owner)[attr] for owner, attr in targets}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed0_inputs_are_the_builtin_table(name):
    w = WORKLOADS[name]
    acl, trace, victims = make_inputs(w, 0)
    use_case = attack.UseCase(w.scenario["use_case"])
    assert acl == engine.scenario_acl(use_case, victim_flows=victims)
    assert trace == attack.build_trace(use_case, acl)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_golden_digests_are_the_cli_artifacts(name, tmp_path):
    w = WORKLOADS[name]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(w.scenario))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # `tsesim run` always builds the cache map; workloads without it export only the header.
    compared = ["series.csv", "metrics.txt"] + (["cachemap.csv"] if w.cache_map else [])
    for artifact in compared:
        text = (tmp_path / "out" / artifact).read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]["digests"][artifact], artifact


@pytest.mark.parametrize("name", ["churn", "emc_small"])
def test_traced_and_untraced_runs_agree_with_golden(name):
    plain = child.measure(WORKLOADS[name], 0, traced=False)
    traced = child.measure(WORKLOADS[name], 0, traced=True)
    for sample in (plain, traced):
        assert sample["digests"] == GOLDEN[name]["digests"]
        assert sample["counts"] == GOLDEN[name]["counts"]
        assert run.mismatches(sample, GOLDEN[name]) == []
    assert traced["layers"]["flow_cache.packets"] == plain["counts"]["packets"]


def test_self_times_sum_to_traced_run():
    layers = child.measure(WORKLOADS["reference"], 0, traced=True)["layers"]
    parts = [
        "engine.self_s", "engine.mask_batches_s", "engine.victim_cost_probe_s",
        "flow_cache.classify_batch_s", "flow_cache.expire_s", "flow_cache.rebalance_s",
        "slowpath.synthesize_megaflow_s", "headers.header_hash64_s",
    ]
    assert all(layers[p] >= 0 for p in parts)
    assert sum(layers[p] for p in parts) == pytest.approx(layers["engine.run_s"], rel=1e-9)


def test_wrappers_are_removed(monkeypatch):
    before = _originals()
    short = replace(WORKLOADS["emc_small"], scenario={**WORKLOADS["emc_small"].scenario, "duration": 25.0})
    for traced in (False, True):
        child.measure(short, 0, traced=traced)
        assert _originals() == before

    def broken(*args, **kwargs):
        raise RuntimeError("run failed")

    monkeypatch.setattr(engine, "run", broken)
    with pytest.raises(RuntimeError):
        child.measure(short, 0, traced=True)
    assert _originals() == before


def test_other_seed_changes_inputs_and_repeats_exactly():
    w = replace(WORKLOADS["emc_small"], scenario={**WORKLOADS["emc_small"].scenario, "duration": 25.0})
    assert make_inputs(w, 7) == make_inputs(w, 7)
    assert make_inputs(w, 7)[0] != make_inputs(w, 0)[0]
    first, second = child.measure(w, 7, traced=False), child.measure(w, 7, traced=True)
    assert first["digests"] == second["digests"] and first["counts"] == second["counts"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert child.tail_percentile([float(i) for i in range(1200)]) == (99.0, 1188.0)
    assert child.tail_percentile([float(i) for i in range(400)]) == (95.0, 380.0)
    assert child.tail_percentile([float(i) for i in range(12)])[0] == 50.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert (ROOT / spec["command"][1]).resolve() == Path(run.__file__).resolve()
