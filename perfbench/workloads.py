"""The benchmark's four tsesim scenarios and the inputs each one runs on.

Every workload is a `tsesim.cli.Scenario` mapping, so the schedule and the
`SimConfig` are built exactly as `tsesim run` builds them; only the cache map
is switched per workload.  The seed draws the whitelist's allow values and
the benign fill outside the simulator, and `run()` receives only the ACL,
trace and victim headers made here.  Seed 0 reproduces the built-in table.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tsesim  # noqa: E402
from tsesim import attack, engine  # noqa: E402
from tsesim.cli import Scenario  # noqa: E402
from tsesim.headers import FIVE_TUPLE, HeaderValue, header, ip_to_int  # noqa: E402
from tsesim.slowpath import Acl, Action, rule, validate_acl  # noqa: E402

if Path(tsesim.__file__).resolve().parent != SRC / "tsesim":
    raise ImportError(f"tsesim imported from {tsesim.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict  # Scenario fields, as a `tsesim run --config` file holds them
    cache_map: bool

    def make_scenario(self) -> Scenario:
        return Scenario(**self.scenario)


# Simulated lengths are chosen so that one run() takes about a host second:
# long enough that each workload's dominant layer is past its start-up, short
# enough that a measured run holds many samples (the host's speed drifts over
# seconds, and medians need samples from several drifts).
_CLONE = dict(tse="2.1", rate=12000.0, t_attack=10.0, t_sleep=2.0, cores=4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            "paper's reference run: TSE 1.0 at 1000 pps, read-mostly MFC hits over ~8200 subtables",
            dict(use_case="sip_sp_dp", tse="1.0", rate=1000.0, cores=1, duration=80.0),
            cache_map=True,
        ),
        Workload(
            "churn",
            "TSE 2.0 10 s/2 s duty cycle: subtables created and expired every cycle",
            dict(use_case="sip_sp_dp", tse="2.0", rate=1000.0, cores=1, duration=60.0),
            cache_map=False,
        ),
        Workload(
            "clone",
            "TSE 2.1 clone replay at 12000 pps on 4 cores: 11 of 12 packets repeat within a tick",
            dict(use_case="sip_sp_dp", duration=40.0, **_CLONE),
            cache_map=False,
        ),
        Workload(
            "emc_small",
            "sp_dp clone replay with the EMC on: working set fits the EMC, so it bypasses the MFC",
            dict(use_case="sp_dp", emc=True, duration=40.0, **_CLONE),
            cache_map=False,
        ),
    )
}

# Seed 0 keeps the built-in table's values (see tsesim.attack).
_ALLOW_FIELDS = (("dport", 100), ("ip_src", 99), ("sport", 98))
_BUILTIN_ALLOW = {
    "dport": attack.ALLOW_DPORT,
    "ip_src": ip_to_int(attack.ALLOW_IP_SRC),
    "sport": attack.ALLOW_SPORT,
}
_FIELD_RANGE = {
    "ip_src": (1 << 24, 224 << 24),
    "ip_dst": (1 << 24, 224 << 24),
    "sport": (1, 1 << 16),
    "dport": (1, 1 << 16),
}
_PROBE_PROTO = 6  # TCP: the victim rules match UDP, so no probe reaches them


def _draw(seed: int) -> tuple[dict, HeaderValue | None]:
    """Allow values and benign fill for a seed; fill None means the built-in one."""
    if seed == 0:
        return dict(_BUILTIN_ALLOW), None
    rng = random.Random(seed)
    allow = {f: rng.randrange(*_FIELD_RANGE[f]) for f, _ in _ALLOW_FIELDS}
    fill = {}
    for f in ("ip_src", "ip_dst", "sport", "dport"):
        v = rng.randrange(*_FIELD_RANGE[f])
        while v == allow.get(f):
            v = rng.randrange(*_FIELD_RANGE[f])
        fill[f] = v
    return allow, header(FIVE_TUPLE, proto=_PROBE_PROTO, **fill)


def make_inputs(workload: Workload, seed: int) -> tuple[Acl, attack.Trace, list[HeaderValue]]:
    """ACL, probe trace and victim headers of one workload at one seed.

    The ACL is the victim allow rules over the use case's single-field allow
    rules over a deny-all, as `engine.scenario_acl` builds it.
    """
    scenario = workload.make_scenario()
    use_case = attack.UseCase(scenario.use_case)
    victims = engine.victim_flow_headers(FIVE_TUPLE, scenario.victim_flows)
    allow, fill = _draw(seed)
    rules = engine.victim_allow_rules(victims)
    rules += [
        rule(FIVE_TUPLE, priority, Action.ALLOW, **{f: allow[f]})
        for f, priority in _ALLOW_FIELDS
        if f in use_case.targeted_fields
    ]
    rules.append(rule(FIVE_TUPLE, 0, Action.DENY))
    acl = Acl.from_rules(FIVE_TUPLE, rules)
    problems = validate_acl(acl)
    if problems:
        raise ValueError(f"seed {seed}: ACL invalid: {problems}")
    trace = attack.build_trace(use_case, acl, benign_fill=fill)
    return acl, trace, victims


def export(result: engine.RunResult) -> dict[str, str]:
    """The three artifacts, formatted by the functions `tsesim run` uses."""
    return {
        "series.csv": engine.series_to_csv(result.series),
        "metrics.txt": engine.metrics_to_lines(result.metrics),
        "cachemap.csv": engine.cachemap_to_csv(result.frames),
    }


def digests(artifacts: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in artifacts.items()}
