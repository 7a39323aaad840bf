"""`tsesim run --config` reproduces the benchmark's golden artifacts byte for byte.

The scenarios come from `perfbench/workloads.py` and the digests from
`perfbench/golden.json`; both are only read.  At seed 0 the benchmark's
inputs are the built-in table's, which is what `tsesim run` builds.
`reference` covers clone factor 1, the EMC off and the cache map;
`churn` the TSE 2.0 duty cycle and idle expiry; `clone` clone factor 12 on
four cores; `emc_small` clone factor 12 and the EMC on.  A workload run without
the cache map has a header-only golden `cachemap.csv`, so that file is
compared only where the workload builds the map.  Each run also checks the
cache's invariants after every once-a-second `rebalance`.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tsesim.cli import main
from tsesim.flow_cache import FlowCache

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while defining
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("name", ["reference", "churn", "clone", "emc_small"])
def test_run_reproduces_golden_artifacts(name, tmp_path, monkeypatch):
    rebalance = FlowCache.rebalance
    checked = []

    def rebalance_then_check(cache, now):
        rebalance(cache, now)
        cache.check_invariants()
        checked.append(now)

    monkeypatch.setattr(FlowCache, "rebalance", rebalance_then_check)
    workload = _workloads()[name]
    golden = json.loads((PERFBENCH / "golden.json").read_text())[name]["digests"]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(workload.scenario))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    artifacts = ["series.csv", "metrics.txt"] + (["cachemap.csv"] if workload.cache_map else [])
    for artifact in artifacts:
        digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        assert digest == golden[artifact], artifact
    assert len(checked) == workload.scenario["duration"]
