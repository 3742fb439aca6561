"""Experiment harness: workloads, schemes, campaigns, figures, reports."""

from repro.experiments.campaign import (
    CampaignRunner,
    CampaignStats,
    ResultCache,
    ScenarioJob,
    ScenarioRecord,
)
from repro.experiments.config import SweepConfig, sweep_config
from repro.experiments.fabric import NetworkScenario, run_fabric
from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.experiments.report import format_figure, format_table
from repro.experiments.runner import run_scenario
from repro.experiments.spec import ScenarioSpec, load_specs, run_spec
from repro.experiments.schemes import DEFAULT_HEADROOM, Scheme, SchemeBuild, build_scheme
from repro.experiments.workloads import (
    CASE1_GROUPS,
    CASE2_GROUPS,
    LINK_RATE,
    PACKET_SIZE,
    TABLE1_CONFORMANT,
    TABLE1_NONCONFORMANT,
    TABLE2_AGGRESSIVE,
    TABLE2_CONFORMANT,
    TABLE2_MODERATE,
    table1_flows,
    table2_flows,
)

__all__ = [
    "CampaignRunner",
    "CampaignStats",
    "ResultCache",
    "ScenarioJob",
    "ScenarioRecord",
    "SweepConfig",
    "sweep_config",
    "NetworkScenario",
    "run_fabric",
    "ALL_FIGURES",
    "FigureResult",
    "format_figure",
    "format_table",
    "run_scenario",
    "ScenarioSpec",
    "load_specs",
    "run_spec",
    "DEFAULT_HEADROOM",
    "Scheme",
    "SchemeBuild",
    "build_scheme",
    "CASE1_GROUPS",
    "CASE2_GROUPS",
    "LINK_RATE",
    "PACKET_SIZE",
    "TABLE1_CONFORMANT",
    "TABLE1_NONCONFORMANT",
    "TABLE2_AGGRESSIVE",
    "TABLE2_CONFORMANT",
    "TABLE2_MODERATE",
    "table1_flows",
    "table2_flows",
]
