"""Command-line front end: trace generation, simulation runs, rendering, sweeps.

Exit codes: 0 success, 1 runtime/I-O failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .attack import (
    AttackSchedule,
    UseCase,
    average_rate,
    build_trace,
    clone_factor,
    load_trace,
    save_trace,
    use_case_acl,
)
from .engine import (
    DEFAULT_BUDGET_PER_CORE,
    DEFAULT_VICTIM_OFFERED,
    MAX_VICTIM_FLOWS,
    MaskBatches,
    SimConfig,
    cachemap_to_csv,
    metrics_to_lines,
    run,
    scenario_acl,
    series_to_csv,
    victim_flow_headers,
)
from .headers import FIVE_TUPLE
from .slowpath import load_acl


class ConfigError(ValueError):
    pass


# Field annotation -> (accepted types, name in messages, flag keywords); a bool is no number.
_FIELD_TYPES = {
    "bool": ((bool,), "true or false", {"action": argparse.BooleanOptionalAction}),
    "int": ((int,), "an integer", {"type": int}),
    "float": ((int, float), "a finite number", {"type": float}),
    "str": ((str,), "a string", {}),
    "Optional[str]": ((str, type(None)), "a string or null", {}),
}

# What `sweep` runs with where neither the config file nor a flag gives the key.
SWEEP_DEFAULTS = {"tse": "2.1", "duration": 45.0}


@dataclass(frozen=True)
class Scenario:
    """One run's inputs; each field is a config key and a flag, `choices` in its metadata."""

    use_case: str = field(
        default="sip_sp_dp", metadata={"choices": tuple(u.value for u in UseCase)}
    )
    acl: Optional[str] = None
    trace: Optional[str] = None
    tse: str = field(default="1.0", metadata={"choices": ("1.0", "2.0", "2.1")})
    rate: float = 1000.0
    t_attack: float = 10.0
    t_sleep: float = 2.0
    attack_start: float = 20.0
    cores: int = 1
    duration: float = 60.0
    budget_per_core: float = DEFAULT_BUDGET_PER_CORE
    victim_offered: float = DEFAULT_VICTIM_OFFERED
    victim_flows: int = 2
    emc: bool = False
    tick: float = 0.1
    eps_down: float = 0.01
    eps_up: float = 0.05
    out: str = ""  # not given: gen-trace writes <use_case>.trace, run out/, sweep no CSV

    def __post_init__(self) -> None:
        """Raise ConfigError naming a bad value, or ValueError from the schedule or SimConfig."""
        for f in fields(self):
            value = getattr(self, f.name)
            types, kind, _ = _FIELD_TYPES[f.type]
            bad = not isinstance(value, types) or (isinstance(value, bool) and bool not in types)
            if bad or (isinstance(value, float) and not math.isfinite(value)):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                raise ConfigError(f"{f.name} must be one of {f.metadata['choices']}")
        if self.rate < 0 or self.duration <= 0 or self.cores < 1:
            raise ConfigError("rate must be >= 0, duration > 0, cores >= 1")
        if self.rate > 0 and self.attack_start > self.duration:
            raise ConfigError("attack_start must not exceed duration")
        if self.victim_flows < 0:
            raise ConfigError("victim_flows must be >= 0")
        if self.victim_flows > MAX_VICTIM_FLOWS:
            raise ConfigError(
                f"victim_flows must be <= {MAX_VICTIM_FLOWS}, got {self.victim_flows}"
            )
        self.sim_config()
        self.schedule()

    def schedule(self) -> AttackSchedule:
        if self.tse == "1.0":
            return AttackSchedule(rate=self.rate, start=self.attack_start)
        clone = clone_factor(self.rate) if self.tse == "2.1" else 1
        return AttackSchedule(
            rate=self.rate,
            t_attack=self.t_attack,
            t_sleep=self.t_sleep,
            clone=clone,
            start=self.attack_start,
        )

    def sim_config(self, build_cache_map: bool = True) -> SimConfig:
        return SimConfig(
            cores=self.cores,
            budget_per_core=self.budget_per_core,
            victim_offered=self.victim_offered,
            emc_enabled=self.emc,
            tick=self.tick,
            duration=self.duration,
            eps_down=self.eps_down,
            eps_up=self.eps_up,
            build_cache_map=build_cache_map,
        )


def _read_config(config_path: str) -> dict:
    try:
        loaded = json.loads(Path(config_path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    return loaded


def parse_config(config_path: Optional[str], overrides: dict, defaults: Mapping = {}) -> Scenario:
    """Defaults, file values, then non-None overrides, each over the last; raises ValueError."""
    values = {**defaults, **(_read_config(config_path) if config_path else {})}
    values.update({k: v for k, v in overrides.items() if v is not None})
    if unknown := [k for k in values if k not in {f.name for f in fields(Scenario)}]:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    scenario = Scenario(**values)
    for path, what in ((scenario.acl, "ACL"), (scenario.trace, "trace")):
        if path is not None and not Path(path).exists():
            raise ConfigError(f"{what} file not found: {path}")
    return scenario


def _load_scenario_parts(scenario: Scenario):
    victims = victim_flow_headers(FIVE_TUPLE, scenario.victim_flows)
    use_case = UseCase(scenario.use_case)
    if scenario.acl:
        acl = load_acl(scenario.acl, FIVE_TUPLE)
    else:
        acl = scenario_acl(use_case, victim_flows=victims)
    trace = load_trace(scenario.trace) if scenario.trace else build_trace(use_case, acl)
    return acl, trace, victims


def cmd_gen_trace(scenario: Scenario) -> int:
    if scenario.rate <= 0:
        raise ConfigError("gen-trace needs a rate above 0 to timestamp the trace")
    use_case = UseCase(scenario.use_case)
    acl = load_acl(scenario.acl, FIVE_TUPLE) if scenario.acl else use_case_acl(use_case)
    trace = build_trace(use_case, acl)
    out = Path(scenario.out or f"{scenario.use_case}.trace")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trace(out, trace, rate=scenario.rate)
    masks = MaskBatches(trace, acl).mask_count
    print(f"wrote {out}: {len(trace)} packets, {masks} distinct masks")
    return 0


def cmd_run(scenario: Scenario) -> int:
    config = scenario.sim_config()
    schedule = scenario.schedule()
    acl, trace, victims = _load_scenario_parts(scenario)
    result = run(config, acl, [(trace, schedule)], victims)
    out_dir = Path(scenario.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "series.csv").write_text(series_to_csv(result.series))
    (out_dir / "metrics.txt").write_text(metrics_to_lines(result.metrics))
    (out_dir / "cachemap.csv").write_text(cachemap_to_csv(result.frames))
    pps, bps = average_rate(schedule)
    print(
        f"run complete: {len(trace)} trace packets, {result.masks_total} distinct masks, "
        f"avg attack rate {pps:.1f} pps ({bps / 1000:.0f} kbps), "
        f"low-rate={'yes' if schedule.is_low_rate else 'no'}"
    )
    print(f"artifacts in {out_dir}/: series.csv metrics.txt cachemap.csv")
    sys.stdout.write(metrics_to_lines(result.metrics))
    return 0


def render_cache_map(csv_text: str) -> str:
    """Fixed-width text grid: batch rows top down, attack-state row, time row."""
    lines = [ln for ln in csv_text.strip().split("\n") if ln]
    if not lines:
        raise ValueError("empty cache map CSV")
    header = lines[0].split(",")
    if header[:2] != ["second", "attack"]:
        raise ValueError("bad cache map CSV header")
    nbatches = len(header) - 2
    seconds: list[str] = []
    attack: list[str] = []
    grid: list[list[str]] = [[] for _ in range(nbatches)]
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) != 2 + nbatches:
            raise ValueError(f"bad cache map CSV row: {ln!r}")
        seconds.append(cols[0])
        attack.append(cols[1])
        for b in range(nbatches):
            grid[b].append(cols[2 + b])
    width = max((len(a) for a in attack), default=1)
    out = []
    for b in range(nbatches):
        label = f"{b + 1}k".rjust(4)
        out.append(label + " " + " ".join(c.rjust(width) for c in grid[b]))
    out.append("   A " + " ".join(a.rjust(width) for a in attack))
    out.append("T[s] " + " ".join(s[-1].rjust(width) for s in seconds))
    if seconds:
        out.append(f"     seconds {seconds[0]}..{seconds[-1]}")
    return "\n".join(out) + "\n"


def cmd_render_map(path: str) -> int:
    text = Path(path).read_text()
    sys.stdout.write(render_cache_map(text))
    return 0


def cmd_sweep(scenario: Scenario, cores_list: list[int], rates_list: list[float]) -> int:
    base = scenario.sim_config(build_cache_map=False)
    schedules = []
    for rate in rates_list:
        try:
            schedules.append(replace(scenario, rate=rate).schedule())
        except ValueError as e:
            raise ConfigError(f"--rates-list {rate:g}: {e}") from None
    # Attack-phase seconds after the first full cycle and a 2 s margin; the
    # phase pattern is the same at every rate.
    steady_start = scenario.attack_start + scenario.t_attack + scenario.t_sleep + 2
    attack_secs = [
        s
        for s in range(int(steady_start), int(scenario.duration))
        if schedules[0].phase_at(s + 0.5) == "attack"
    ]
    if not attack_secs:
        raise ConfigError(
            f"duration {scenario.duration:g} s leaves no steady-state attack second "
            f"(steady state starts at {steady_start:g} s)"
        )
    acl, trace, victims = _load_scenario_parts(scenario)
    rows = []
    min_rate: dict[int, float] = {}
    for cores in cores_list:
        for rate, sched in zip(rates_list, schedules):
            result = run(replace(base, cores=cores), acl, [(trace, sched)], victims)
            mean = sum(result.fractions[s] for s in attack_secs) / len(attack_secs)
            dos = mean <= scenario.eps_down
            if dos and cores not in min_rate:
                min_rate[cores] = rate
            line = f"cores={cores} rate={rate:.0f} mean_attack_fraction={mean:.6f} dos={'yes' if dos else 'no'}"
            print(line)
            rows.append((cores, rate, mean, dos))
    for cores in cores_list:
        shown = f"{min_rate[cores]:.0f}" if cores in min_rate else "none"
        print(f"min_dos_rate cores={cores}: {shown}")
    if scenario.out:
        path = Path(scenario.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["cores,rate,mean_attack_fraction,dos"]
        lines += [f"{c},{r:.0f},{m:.6f},{int(d)}" for c, r, m, d in rows]
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


_HELP = {
    "acl": "ACL file (line format); default is the built-in table",
    "trace": "replay this trace file instead of generating one",
    "tse": "attack variant (default 1.0; sweep 2.1)",
    "rate": "attack rate in packets/second",
    "t_attack": "attack phase seconds",
    "t_sleep": "sleep phase seconds",
    "out": "output file (gen-trace: default <use-case>.trace; sweep: default none) or "
           "directory (run: default out)",
}


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """`--config`, then one flag per Scenario field, typed and limited as the field is."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(Scenario):  # a field's metadata holds its `choices`
        p.add_argument("--" + f.name.replace("_", "-"), help=_HELP.get(f.name),
                       **f.metadata, **_FIELD_TYPES[f.type][2])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsesim",
        description="Tuple-space flow-cache simulator and probe-trace toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-trace", help="generate a probe trace file")
    _add_scenario_flags(p_gen)

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    _add_scenario_flags(p_run)

    p_map = sub.add_parser("render-map", help="render a cachemap.csv as a text grid")
    p_map.add_argument("csv", help="cache map CSV produced by `run`")

    p_sweep = sub.add_parser("sweep", help="grid of runs over cores and rates")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--cores-list", dest="cores_list", default="1,2,3,4")
    p_sweep.add_argument("--rates-list", dest="rates_list", default="1000,3000,6000,12000")

    args = parser.parse_args(argv)
    try:
        if args.command == "render-map":
            return cmd_render_map(args.csv)
        flags = {f.name: getattr(args, f.name) for f in fields(Scenario)}
        defaults = SWEEP_DEFAULTS if args.command == "sweep" else {}
        scenario = parse_config(args.config, flags, defaults)
        if args.command == "gen-trace":
            return cmd_gen_trace(scenario)
        if args.command == "run":
            return cmd_run(scenario)
        # The subparsers are required, so what is left is "sweep".
        cores_list = _parse_list("--cores-list", args.cores_list, int)
        rates_list = _parse_list("--rates-list", args.rates_list, float)
        if not cores_list or not rates_list:
            raise ConfigError("cores-list and rates-list must be non-empty")
        if min(cores_list) < 1:
            raise ConfigError(f"--cores-list: cores must be >= 1, got {min(cores_list)}")
        return cmd_sweep(scenario, cores_list, rates_list)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _parse_list(flag: str, text: str, kind: type) -> list:
    """Comma-separated values of one flag; a bad or non-finite one exits 2 naming the flag."""
    values = []
    for x in filter(None, text.split(",")):
        try:
            v = kind(x)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise ConfigError(f"{flag}: bad value {x!r}")
        values.append(v)
    return values


if __name__ == "__main__":
    raise SystemExit(main())
