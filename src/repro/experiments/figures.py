"""The paper's thirteen figures as data: each one is a sweep.

A figure is a row of :data:`FIGURES` — caption, y-label, workload,
schemes, x-axis parameter and curves in the
:func:`~repro.experiments.spec.parse_metric` grammar — and
:func:`run_figure` is the one function that runs any of them: it builds
the :class:`~repro.experiments.sweep.SweepSpec` of (scheme × x × seed),
runs it as one campaign batch through
:func:`~repro.experiments.sweep.run_grid` (the runner deduplicates by
content digest, so figures sharing a grid share its simulations) and
pivots the seed-folded groups into one mean±CI series per curve.  Pass
``fast=False`` (or set ``REPRO_FULL=1``) for the paper-faithful sizing;
the default fast mode keeps every qualitative shape at a fraction of
the runtime.

* Figure 1-3 — Table-1 workload, fixed thresholds vs no management,
  FIFO vs WFQ (throughput / conformant loss / flows 6 & 8 throughput).
* Figure 4-6 — same workload with the headroom/holes sharing scheme
  (H = 2 MB) against the no-management baselines.
* Figure 7 — conformant loss versus headroom at B = 1 MB.
* Figure 8-10 — Case-1 hybrid (3 queues) vs WFQ/FIFO with sharing.
* Figure 11-13 — Case-2 hybrid (30 flows, 3 queues).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.campaign import CampaignRunner, default_runner
from repro.experiments.config import sweep_config
from repro.experiments.schemes import Scheme
from repro.experiments.sweep import SweepAxis, SweepSpec, run_grid
from repro.experiments.workloads import TABLE2_AGGRESSIVE, TABLE2_MODERATE
from repro.metrics.stats import MeanCI
from repro.units import mbytes

__all__ = ["FigureResult", "Figure", "FIGURES", "run_figure", "ALL_FIGURES"]


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


@dataclass(frozen=True)
class Figure:
    """One figure of the paper, described.

    Attributes:
        caption: the paper's caption.
        ylabel: y-axis meaning and unit.
        workload: named workload every curve runs on.
        schemes: the schemes compared, in column order.
        curves: per scheme, ``(label suffix, metric)`` — one curve each,
            labelled ``scheme.value + suffix``.
        x: the swept parameter: ``buffer_mb`` over the mode's buffer
            grid, or ``headroom_mb`` at a 1 MB buffer.
    """

    caption: str
    ylabel: str
    workload: str
    schemes: tuple[Scheme, ...]
    curves: tuple[tuple[str, str], ...]
    x: str = "buffer_mb"


_UTILIZATION = "link utilization (%)"
_LOSS = "loss (% of offered bytes)"
_THROUGHPUT = "throughput (Mb/s)"

_XLABELS = {"buffer_mb": "total buffer (MBytes)", "headroom_mb": "headroom H (MBytes)"}
#: Figure 7's headroom grid (MBytes), at ``buffer_mb = 1.0``.
_HEADROOMS_MB = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)

_UNMANAGED = (Scheme.FIFO_NONE, Scheme.WFQ_NONE)
_THRESHOLDS = _UNMANAGED + (Scheme.FIFO_THRESHOLD, Scheme.WFQ_THRESHOLD)
_SHARING = (Scheme.FIFO_SHARING, Scheme.WFQ_SHARING)
_HYBRID = (Scheme.HYBRID_SHARING, Scheme.WFQ_SHARING, Scheme.FIFO_SHARING)

_AGGREGATE = (("", "utilization"),)
_CONFORMANT = (("", "loss:conformant"),)
_FLOWS_6_AND_8 = ((" - flow 6", "throughput:6"), (" - flow 8", "throughput:8"))


#: Sections 3.2 (fixed thresholds, 1-3), 3.3 (buffer sharing, 4-7) and
#: 4.2 (hybrid systems: Case 1, 8-10; Case 2, 11-13).
FIGURES: dict[str, Figure] = {
    "figure1": Figure(
        "Aggregate throughput with threshold based buffer management",
        _UTILIZATION, "table1", _THRESHOLDS, _AGGREGATE,
    ),
    "figure2": Figure(
        "Loss for conformant flows with threshold based buffer management",
        _LOSS, "table1", _THRESHOLDS, _CONFORMANT,
    ),
    "figure3": Figure(
        "Throughput for non-conformant flows with threshold based buffer management",
        _THROUGHPUT, "table1", _THRESHOLDS, _FLOWS_6_AND_8,
    ),
    "figure4": Figure(
        "Aggregate throughput with Buffer Sharing",
        _UTILIZATION, "table1", _UNMANAGED + _SHARING, _AGGREGATE,
    ),
    "figure5": Figure(
        "Loss for conformant flows in Buffer Sharing",
        _LOSS, "table1", _SHARING + _UNMANAGED, _CONFORMANT,
    ),
    "figure6": Figure(
        "Throughput for non-conformant flows with Buffer Sharing",
        _THROUGHPUT, "table1", _SHARING, _FLOWS_6_AND_8,
    ),
    "figure7": Figure(
        "Effect of varying the headroom in terms of loss for conformant flows",
        _LOSS, "table1", _SHARING, _CONFORMANT, x="headroom_mb",
    ),
    "figure8": Figure(
        "Hybrid System, Case 1: Aggregate throughput with Buffer Sharing",
        _UTILIZATION, "table1", _HYBRID, _AGGREGATE,
    ),
    "figure9": Figure(
        "Hybrid System, Case 1: Loss for conformant flows with Buffer Sharing",
        _LOSS, "table1", _HYBRID, _CONFORMANT,
    ),
    "figure10": Figure(
        "Hybrid System, Case 1: Throughput for non-conformant flows with Buffer Sharing",
        _THROUGHPUT, "table1", _HYBRID, _FLOWS_6_AND_8,
    ),
    "figure11": Figure(
        "Hybrid System, Case 2: Aggregate throughput with Buffer Sharing",
        _UTILIZATION, "table2", _HYBRID, _AGGREGATE,
    ),
    "figure12": Figure(
        "Hybrid System, Case 2: Loss for conformant and moderately conformant flows",
        _LOSS, "table2", _HYBRID,
        (
            (" - conformant", "loss:conformant"),
            (" - moderate", "loss:" + ",".join(map(str, TABLE2_MODERATE))),
        ),
    ),
    "figure13": Figure(
        "Hybrid System, Case 2: Throughput for non-conformant flows with Buffer Sharing",
        _THROUGHPUT, "table2", _HYBRID,
        ((" - aggressive flows", "throughput:" + ",".join(map(str, TABLE2_AGGRESSIVE))),),
    ),
}


def run_figure(
    name: str, fast: bool | None = None, runner: CampaignRunner | None = None
) -> FigureResult:
    """Run the simulations behind one figure of :data:`FIGURES`."""
    figure = FIGURES[name]
    config = sweep_config(fast)
    base = {"workload": figure.workload, "sim_time": config.sim_time}
    if figure.x == "buffer_mb":
        x = [b / mbytes(1.0) for b in config.buffers]
    else:
        x = list(_HEADROOMS_MB)
        base["buffer_mb"] = 1.0
    spec = SweepSpec(
        name=name,
        axes=(
            SweepAxis("scheme", tuple(scheme.name for scheme in figure.schemes)),
            SweepAxis(figure.x, x),
            SweepAxis("seed", config.seeds),
        ),
        base=base,
        metrics=tuple(metric for _suffix, metric in figure.curves),
    )
    groups = run_grid(spec, default_runner() if runner is None else runner)["groups"]
    result = FigureResult(
        name=f"Figure {name.removeprefix('figure')}",
        title=figure.caption,
        xlabel=_XLABELS[figure.x],
        ylabel=figure.ylabel,
        x=x,
    )
    # Groups come back in cell order: scheme-major, x-minor.
    for index, scheme in enumerate(figure.schemes):
        points = groups[index * len(x):(index + 1) * len(x)]
        for suffix, metric in figure.curves:
            result.series[scheme.value + suffix] = [
                MeanCI(**point["metrics"][metric]) for point in points
            ]
    return result


#: Registry used by the benchmarks:
#: name -> ``callable(fast=None, runner=None)``.
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    name: functools.partial(run_figure, name) for name in FIGURES
}
