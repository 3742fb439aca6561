"""repro — Scalable QoS Provision Through Buffer Management (SIGCOMM 1998).

A complete reproduction of Guérin, Kamat, Peris and Rajan's buffer-
management approach to per-flow rate guarantees, including:

* the threshold rule ``T_i = sigma_i + rho_i B / R`` and the buffer-
  sharing (headroom/holes) variant, with FIFO, WFQ and hybrid
  schedulers (:mod:`repro.core`, :mod:`repro.sched`);
* the discrete-event simulator and traffic models used to evaluate them
  (:mod:`repro.sim`, :mod:`repro.traffic`);
* the paper's closed-form analysis — buffer sizing, fluid dynamics,
  hybrid rate optimisation, admission control (:mod:`repro.analysis`);
* the full experiment harness regenerating every figure
  (:mod:`repro.experiments`).

Quickstart::

    from repro import Scheme, run_scenario, table1_flows
    from repro.units import mbytes

    result = run_scenario(table1_flows(), Scheme.FIFO_THRESHOLD, mbytes(2))
    print(f"utilization: {result.utilization():.1%}")
"""

from repro.analysis import (
    FIFOAdmission,
    QueueRequirement,
    WFQAdmission,
    buffer_savings,
    buffer_vs_utilization,
    fifo_min_buffer,
    hybrid_total_buffer,
    optimal_alphas,
    queue_rates,
    two_flow_fluid,
    wfq_min_buffer,
)
from repro.core import (
    DynamicThresholdManager,
    FixedThresholdManager,
    FREDManager,
    HybridBufferManager,
    REDManager,
    SharedHeadroomManager,
    TailDropManager,
    compute_thresholds,
    flow_threshold,
)
from repro.experiments import (
    LINK_RATE,
    CampaignRunner,
    NetworkScenario,
    ResultCache,
    ScenarioJob,
    ScenarioRecord,
    Scheme,
    build_scheme,
    run_fabric,
    run_scenario,
    table1_flows,
    table2_flows,
)
from repro.metrics import FlowStats, MeanCI, StatsCollector, mean_ci
from repro.sched import FIFOScheduler, HybridScheduler, WFQScheduler
from repro.sim import OutputPort, Packet, Simulator
from repro.traffic import (
    CBRSource,
    FlowSpec,
    GreedySource,
    LeakyBucketShaper,
    OnOffSource,
    TokenBucketMeter,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation substrate
    "Simulator", "Packet", "OutputPort",
    # traffic
    "FlowSpec", "OnOffSource", "CBRSource", "GreedySource",
    "LeakyBucketShaper", "TokenBucketMeter",
    # schedulers
    "FIFOScheduler", "WFQScheduler", "HybridScheduler",
    # buffer management
    "TailDropManager", "FixedThresholdManager", "SharedHeadroomManager",
    "DynamicThresholdManager", "REDManager", "FREDManager",
    "HybridBufferManager", "flow_threshold", "compute_thresholds",
    # analysis
    "wfq_min_buffer", "fifo_min_buffer", "buffer_vs_utilization",
    "two_flow_fluid", "QueueRequirement", "optimal_alphas", "queue_rates",
    "hybrid_total_buffer", "buffer_savings", "WFQAdmission", "FIFOAdmission",
    # metrics
    "FlowStats", "StatsCollector", "MeanCI", "mean_ci",
    # experiments
    "LINK_RATE", "Scheme", "build_scheme", "run_scenario",
    "table1_flows", "table2_flows",
    # campaigns: a job is a scenario, a record is its links
    "NetworkScenario", "run_fabric",
    "ScenarioJob", "ScenarioRecord", "CampaignRunner", "ResultCache",
]
