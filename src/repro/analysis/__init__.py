"""Closed-form analysis from the paper: buffer sizing, fluid dynamics,
burst potential, hybrid optimisation, grouping and admission control."""

from repro.analysis.admission import (
    AdmissionControl,
    Decision,
    FIFOAdmission,
    Rejection,
    WFQAdmission,
)
from repro.analysis.buffer_sizing import (
    buffer_inflation_factor,
    buffer_vs_utilization,
    fifo_min_buffer,
    reserved_utilization,
    wfq_min_buffer,
)
from repro.analysis.burst import burst_potential, is_conformant_path, proposition2_bound
from repro.analysis.delay import (
    OC3,
    OC12,
    OC48,
    OC192,
    max_buffer_for_delay,
    worst_case_fifo_delay,
)
from repro.analysis.fluid import FluidInterval, FluidTrajectory, fluid_limits, two_flow_fluid
from repro.analysis.gps import GPSArrival, GPSFinish, gps_finish_times
from repro.analysis.grouping import (
    best_grouping_exhaustive,
    greedy_grouping,
    group_requirements,
    grouping_buffer,
)
from repro.analysis.hybrid_opt import (
    QueueRequirement,
    buffer_savings,
    buffer_savings_identity,
    hybrid_buffer_for_allocation,
    hybrid_min_buffers,
    hybrid_total_buffer,
    optimal_alphas,
    queue_min_buffer,
    queue_rates,
)

__all__ = [
    "AdmissionControl",
    "Decision",
    "FIFOAdmission",
    "Rejection",
    "WFQAdmission",
    "buffer_inflation_factor",
    "buffer_vs_utilization",
    "fifo_min_buffer",
    "reserved_utilization",
    "wfq_min_buffer",
    "burst_potential",
    "is_conformant_path",
    "proposition2_bound",
    "OC3",
    "OC12",
    "OC48",
    "OC192",
    "max_buffer_for_delay",
    "worst_case_fifo_delay",
    "FluidInterval",
    "FluidTrajectory",
    "fluid_limits",
    "two_flow_fluid",
    "GPSArrival",
    "GPSFinish",
    "gps_finish_times",
    "best_grouping_exhaustive",
    "greedy_grouping",
    "group_requirements",
    "grouping_buffer",
    "QueueRequirement",
    "buffer_savings",
    "buffer_savings_identity",
    "hybrid_buffer_for_allocation",
    "hybrid_min_buffers",
    "hybrid_total_buffer",
    "optimal_alphas",
    "queue_min_buffer",
    "queue_rates",
]
