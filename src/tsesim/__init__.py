"""Tuple-space flow-cache simulator and probe-trace toolkit."""

from .headers import FIVE_TUPLE, HYP, FieldSpec, HeaderLayout, HeaderValue
from .slowpath import Acl, Action, FlowRule, validate_acl
from .flow_cache import CostModel, FlowCache, FlowTable, synthesize_megaflow
from .attack import (
    AttackSchedule,
    Trace,
    UseCase,
    average_rate,
    build_trace,
    clone_factor,
    field_probe_values,
    schedule_emissions,
    simple_acl,
    use_case_acl,
)
from .engine import (
    Metrics,
    SimConfig,
    compute_goodput_fraction,
    metrics_extract,
    run,
    scenario_acl,
    victim_cost_probe,
    victim_flow_headers,
)

__all__ = [
    "FIVE_TUPLE", "HYP", "FieldSpec", "HeaderLayout", "HeaderValue", "Acl", "Action", "FlowRule",
    "synthesize_megaflow", "validate_acl", "CostModel", "FlowCache", "FlowTable",
    "AttackSchedule", "Trace", "UseCase", "average_rate", "build_trace", "clone_factor",
    "field_probe_values", "schedule_emissions", "simple_acl", "use_case_acl",
    "Metrics", "SimConfig", "compute_goodput_fraction", "metrics_extract", "run", "scenario_acl",
    "victim_cost_probe", "victim_flow_headers",
]
__version__ = "0.1.0"
