"""The scenario fabric: declarative network experiments.

One declarative object — :class:`NetworkScenario` — describes any
experiment from the paper's single output port to a multi-hop tandem
with dynamic flow churn; :func:`run_fabric` executes it, through one
pipeline.  The classic :func:`~repro.experiments.runner.run_scenario`
is the one-link case and delegates here.

See ``docs/networks.md`` for the model and the sizing rules.
"""

from repro.experiments.fabric.build import FabricResult, LinkResult, run_fabric
from repro.experiments.fabric.churn import ChurnReport, FlowChurnProcess
from repro.experiments.fabric.scenario import (
    DYNAMIC_FLOW_BASE,
    ChurnSpec,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    RoutedFlow,
)

__all__ = [
    "NetworkScenario",
    "NodeSpec",
    "LinkSpec",
    "RoutedFlow",
    "ChurnSpec",
    "ChurnReport",
    "FlowChurnProcess",
    "FabricResult",
    "LinkResult",
    "run_fabric",
    "DYNAMIC_FLOW_BASE",
]
