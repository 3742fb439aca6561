"""One function per figure of the paper's evaluation.

Each ``figureN`` runs the simulations behind the corresponding figure and
returns a :class:`FigureResult` holding the x-grid and one mean±CI series
per curve.  Pass ``fast=False`` (or set ``REPRO_FULL=1``) for the
paper-faithful sizing; the default fast mode keeps every qualitative
shape at a fraction of the runtime.

Figures and their curves:

* Figure 1-3 — Table-1 workload, fixed thresholds vs no management,
  FIFO vs WFQ (throughput / conformant loss / flows 6 & 8 throughput).
* Figure 4-6 — same workload with the headroom/holes sharing scheme
  (H = 2 MB) against the no-management baselines.
* Figure 7 — conformant loss versus headroom at B = 1 MB.
* Figure 8-10 — Case-1 hybrid (3 queues) vs WFQ/FIFO with sharing.
* Figure 11-13 — Case-2 hybrid (30 flows, 3 queues).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.campaign import CampaignRunner, ScenarioJob, default_runner
from repro.experiments.config import SweepConfig, sweep_config
from repro.experiments.runner import ScenarioResult
from repro.experiments.schemes import DEFAULT_HEADROOM, Scheme
from repro.experiments.workloads import (
    CASE1_GROUPS,
    CASE2_GROUPS,
    TABLE1_CONFORMANT,
    TABLE2_AGGRESSIVE,
    TABLE2_CONFORMANT,
    TABLE2_MODERATE,
    table1_flows,
    table2_flows,
)
from repro.metrics.stats import mean_ci
from repro.units import mbytes, to_mbps

__all__ = [
    "FigureResult",
    "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
    "figure13",
    "ALL_FIGURES",
]


@dataclass
class FigureResult:
    """The data behind one paper figure.

    Attributes:
        name: e.g. ``"Figure 1"``.
        title: the paper's caption.
        xlabel / ylabel: axis meaning and unit.
        x: the sweep grid (buffer MBytes for most figures).
        series: curve label -> list of MeanCI values aligned with ``x``.
    """

    name: str
    title: str
    xlabel: str
    ylabel: str
    x: list[float]
    series: dict[str, list] = field(default_factory=dict)


_METRIC_UTILIZATION = "link utilization (%)"
_METRIC_LOSS = "loss (% of offered bytes)"
_METRIC_THROUGHPUT = "throughput (Mb/s)"


def _sweep(
    name: str,
    title: str,
    flows,
    curves: Sequence[tuple[str, Scheme, Callable[[ScenarioResult], float]]],
    ylabel: str,
    config: SweepConfig,
    headroom: float = DEFAULT_HEADROOM,
    groups=None,
    runner: CampaignRunner | None = None,
) -> FigureResult:
    """Run a buffer sweep for several (scheme, metric) curves.

    The whole sweep is submitted as **one campaign batch**: every
    (scheme, buffer, seed) combination becomes a
    :class:`~repro.experiments.campaign.ScenarioJob`, the runner
    deduplicates by content digest (curves that share a scheme — e.g.
    per-flow throughput curves — reuse the same simulation), and each
    curve is then measured from the returned records.
    """
    flows = tuple(flows)
    campaign = default_runner() if runner is None else runner
    schemes = list(dict.fromkeys(scheme for _label, scheme, _metric in curves))
    keys = [
        (scheme, buffer_size, seed)
        for scheme in schemes
        for buffer_size in config.buffers
        for seed in config.seeds
    ]
    jobs = [
        ScenarioJob.for_scenario(
            flows,
            scheme,
            buffer_size,
            sim_time=config.sim_time,
            seed=seed,
            headroom=headroom,
            groups=groups if scheme.is_hybrid else None,
        )
        for scheme, buffer_size, seed in keys
    ]
    by_key = dict(zip(keys, campaign.run(jobs)))

    x_mb = [b / mbytes(1.0) for b in config.buffers]
    result = FigureResult(
        name=name, title=title, xlabel="total buffer (MBytes)", ylabel=ylabel, x=x_mb
    )
    for label, scheme, metric in curves:
        result.series[label] = [
            mean_ci(
                [metric(by_key[(scheme, buffer_size, seed)]) for seed in config.seeds]
            )
            for buffer_size in config.buffers
        ]
    return result


def _utilization(result: ScenarioResult) -> float:
    return 100.0 * result.utilization()


def _loss_pct(flow_ids) -> Callable[[ScenarioResult], float]:
    def metric(result: ScenarioResult) -> float:
        return 100.0 * result.loss_fraction(flow_ids)

    return metric


def _throughput_mbps(flow_ids) -> Callable[[ScenarioResult], float]:
    def metric(result: ScenarioResult) -> float:
        return to_mbps(result.throughput(flow_ids))

    return metric


# -- Section 3.2: fixed thresholds (Figures 1-3) -------------------------

_FIG123_SCHEMES = (
    Scheme.FIFO_NONE,
    Scheme.WFQ_NONE,
    Scheme.FIFO_THRESHOLD,
    Scheme.WFQ_THRESHOLD,
)


def figure1(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Aggregate throughput with threshold-based buffer management."""
    config = sweep_config(fast)
    curves = [(s.value, s, _utilization) for s in _FIG123_SCHEMES]
    return _sweep(
        "Figure 1",
        "Aggregate throughput with threshold based buffer management",
        table1_flows(), curves, _METRIC_UTILIZATION, config, runner=runner,
    )


def figure2(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Loss for conformant flows with threshold-based buffer management."""
    config = sweep_config(fast)
    metric = _loss_pct(TABLE1_CONFORMANT)
    curves = [(s.value, s, metric) for s in _FIG123_SCHEMES]
    return _sweep(
        "Figure 2",
        "Loss for conformant flows with threshold based buffer management",
        table1_flows(), curves, _METRIC_LOSS, config, runner=runner,
    )


def figure3(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Throughput for non-conformant flows 6 and 8 (fixed thresholds)."""
    config = sweep_config(fast)
    curves = []
    for scheme in _FIG123_SCHEMES:
        curves.append((f"{scheme.value} - flow 6", scheme, _throughput_mbps([6])))
        curves.append((f"{scheme.value} - flow 8", scheme, _throughput_mbps([8])))
    return _sweep(
        "Figure 3",
        "Throughput for non-conformant flows with threshold based buffer management",
        table1_flows(), curves, _METRIC_THROUGHPUT, config, runner=runner,
    )


# -- Section 3.3: buffer sharing (Figures 4-7) ---------------------------

_FIG456_SCHEMES = (
    Scheme.FIFO_NONE,
    Scheme.WFQ_NONE,
    Scheme.FIFO_SHARING,
    Scheme.WFQ_SHARING,
)


def figure4(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Aggregate throughput with buffer sharing (headroom H = 2 MB)."""
    config = sweep_config(fast)
    curves = [(s.value, s, _utilization) for s in _FIG456_SCHEMES]
    return _sweep(
        "Figure 4",
        "Aggregate throughput with Buffer Sharing",
        table1_flows(), curves, _METRIC_UTILIZATION, config, runner=runner,
    )


def figure5(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Loss for conformant flows with buffer sharing."""
    config = sweep_config(fast)
    metric = _loss_pct(TABLE1_CONFORMANT)
    curves = [(s.value, s, metric) for s in (Scheme.FIFO_SHARING, Scheme.WFQ_SHARING,
                                             Scheme.FIFO_NONE, Scheme.WFQ_NONE)]
    return _sweep(
        "Figure 5",
        "Loss for conformant flows in Buffer Sharing",
        table1_flows(), curves, _METRIC_LOSS, config, runner=runner,
    )


def figure6(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Throughput for non-conformant flows 6 and 8 with buffer sharing."""
    config = sweep_config(fast)
    curves = []
    for scheme in (Scheme.FIFO_SHARING, Scheme.WFQ_SHARING):
        curves.append((f"{scheme.value} - flow 6", scheme, _throughput_mbps([6])))
        curves.append((f"{scheme.value} - flow 8", scheme, _throughput_mbps([8])))
    return _sweep(
        "Figure 6",
        "Throughput for non-conformant flows with Buffer Sharing",
        table1_flows(), curves, _METRIC_THROUGHPUT, config, runner=runner,
    )


def figure7(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Loss for conformant flows versus headroom, B fixed at 1 MB."""
    config = sweep_config(fast)
    headrooms_mb = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
    buffer_size = mbytes(1.0)
    flows = table1_flows()
    metric = _loss_pct(TABLE1_CONFORMANT)
    result = FigureResult(
        name="Figure 7",
        title="Effect of varying the headroom in terms of loss for conformant flows",
        xlabel="headroom H (MBytes)",
        ylabel=_METRIC_LOSS,
        x=list(headrooms_mb),
    )
    campaign = default_runner() if runner is None else runner
    schemes = (Scheme.FIFO_SHARING, Scheme.WFQ_SHARING)
    keys = [
        (scheme, headroom_mb, seed)
        for scheme in schemes
        for headroom_mb in headrooms_mb
        for seed in config.seeds
    ]
    jobs = [
        ScenarioJob.for_scenario(
            flows,
            scheme,
            buffer_size,
            sim_time=config.sim_time,
            seed=seed,
            headroom=mbytes(headroom_mb),
        )
        for scheme, headroom_mb, seed in keys
    ]
    by_key = dict(zip(keys, campaign.run(jobs)))
    for scheme in schemes:
        result.series[scheme.value] = [
            mean_ci(
                [metric(by_key[(scheme, headroom_mb, seed)]) for seed in config.seeds]
            )
            for headroom_mb in headrooms_mb
        ]
    return result


# -- Section 4.2: hybrid systems (Figures 8-13) --------------------------

_HYBRID_SCHEMES = (Scheme.HYBRID_SHARING, Scheme.WFQ_SHARING, Scheme.FIFO_SHARING)


def figure8(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Hybrid Case 1: aggregate throughput with buffer sharing."""
    config = sweep_config(fast)
    curves = [(s.value, s, _utilization) for s in _HYBRID_SCHEMES]
    return _sweep(
        "Figure 8",
        "Hybrid System, Case 1: Aggregate throughput with Buffer Sharing",
        table1_flows(), curves, _METRIC_UTILIZATION, config, groups=CASE1_GROUPS, runner=runner,
    )


def figure9(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Hybrid Case 1: loss for conformant flows."""
    config = sweep_config(fast)
    metric = _loss_pct(TABLE1_CONFORMANT)
    curves = [(s.value, s, metric) for s in _HYBRID_SCHEMES]
    return _sweep(
        "Figure 9",
        "Hybrid System, Case 1: Loss for conformant flows with Buffer Sharing",
        table1_flows(), curves, _METRIC_LOSS, config, groups=CASE1_GROUPS, runner=runner,
    )


def figure10(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Hybrid Case 1: throughput for non-conformant flows 6 and 8."""
    config = sweep_config(fast)
    curves = []
    for scheme in _HYBRID_SCHEMES:
        curves.append((f"{scheme.value} - flow 6", scheme, _throughput_mbps([6])))
        curves.append((f"{scheme.value} - flow 8", scheme, _throughput_mbps([8])))
    return _sweep(
        "Figure 10",
        "Hybrid System, Case 1: Throughput for non-conformant flows with Buffer Sharing",
        table1_flows(), curves, _METRIC_THROUGHPUT, config, groups=CASE1_GROUPS, runner=runner,
    )


def figure11(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Hybrid Case 2 (30 flows): aggregate throughput."""
    config = sweep_config(fast)
    curves = [(s.value, s, _utilization) for s in _HYBRID_SCHEMES]
    return _sweep(
        "Figure 11",
        "Hybrid System, Case 2: Aggregate throughput with Buffer Sharing",
        table2_flows(), curves, _METRIC_UTILIZATION, config, groups=CASE2_GROUPS, runner=runner,
    )


def figure12(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Hybrid Case 2: loss for conformant and moderately conformant flows."""
    config = sweep_config(fast)
    curves = []
    for scheme in _HYBRID_SCHEMES:
        curves.append(
            (f"{scheme.value} - conformant", scheme, _loss_pct(TABLE2_CONFORMANT))
        )
        curves.append(
            (f"{scheme.value} - moderate", scheme, _loss_pct(TABLE2_MODERATE))
        )
    return _sweep(
        "Figure 12",
        "Hybrid System, Case 2: Loss for conformant and moderately conformant flows",
        table2_flows(), curves, _METRIC_LOSS, config, groups=CASE2_GROUPS, runner=runner,
    )


def figure13(fast: bool | None = None, runner: CampaignRunner | None = None) -> FigureResult:
    """Hybrid Case 2: aggregate throughput of the aggressive flows."""
    config = sweep_config(fast)
    curves = [
        (f"{scheme.value} - aggressive flows", scheme, _throughput_mbps(TABLE2_AGGRESSIVE))
        for scheme in _HYBRID_SCHEMES
    ]
    return _sweep(
        "Figure 13",
        "Hybrid System, Case 2: Throughput for non-conformant flows with Buffer Sharing",
        table2_flows(), curves, _METRIC_THROUGHPUT, config, groups=CASE2_GROUPS, runner=runner,
    )


#: Registry used by the report generator and the benchmarks.
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "figure1": figure1, "figure2": figure2, "figure3": figure3,
    "figure4": figure4, "figure5": figure5, "figure6": figure6,
    "figure7": figure7, "figure8": figure8, "figure9": figure9,
    "figure10": figure10, "figure11": figure11, "figure12": figure12,
    "figure13": figure13,
}
