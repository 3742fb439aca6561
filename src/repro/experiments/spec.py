"""Declarative scenario specifications (JSON-friendly).

Lets users define experiments as data — workload, scheme, buffer,
metrics — and run them in batch, e.g.::

    {
      "name": "thresholds-at-1MB",
      "workload": "table1",
      "scheme": "FIFO_THRESHOLD",
      "buffer_mb": 1.0,
      "seeds": [1, 2, 3],
      "metrics": ["utilization", "loss:conformant", "throughput:6,8"]
    }

``python -m repro run spec.json`` executes one spec (or a list of
specs) and prints a result table; :func:`run_spec` is the library
entry point.

Custom workloads are given in the paper's units (Mb/s and KBytes)::

    "workload": [
      {"peak_mbps": 16, "avg_mbps": 2, "bucket_kb": 50,
       "token_mbps": 2, "conformant": true}
    ]

A spec with a ``"network"`` key describes a multi-node fabric instead::

    {
      "name": "tandem-churn",
      "network": "tandem",
      "hops": 3,
      "seeds": [1, 2, 3]
    }

``"network"`` is either the string ``"tandem"`` (the reference demo
tandem, tunable via ``hops``/``sim_time``/``churn``/``reclamation``) or
a full :meth:`~repro.experiments.fabric.NetworkScenario.to_dict`
scenario object (byte units).  Both input forms parse into the same
thing — a :class:`ScenarioSpec` holding one
:class:`~repro.experiments.fabric.NetworkScenario` — and run as one
:class:`~repro.experiments.campaign.ScenarioJob` per seed.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignRunner, ScenarioJob
from repro.experiments.fabric import NetworkScenario
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import (
    CASE1_GROUPS,
    CASE2_GROUPS,
    TABLE1_CONFORMANT,
    TABLE2_CONFORMANT,
    table1_flows,
    table2_flows,
)
from repro.metrics.stats import MeanCI, mean_ci
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes

__all__ = [
    "ScenarioSpec",
    "run_spec",
    "load_specs",
    "parse_metric",
    "WORKLOADS",
    "DEFAULT_GROUPS",
    "CONFORMANT_SETS",
]

#: Named workload registry shared with the sweep DSL
#: (:mod:`repro.experiments.sweep`): name -> flow-population factory.
WORKLOADS = {"table1": table1_flows, "table2": table2_flows}
#: Default hybrid grouping per named workload.
DEFAULT_GROUPS = {"table1": CASE1_GROUPS, "table2": CASE2_GROUPS}
#: Conformant flow-id partition per named workload.
CONFORMANT_SETS = {"table1": TABLE1_CONFORMANT, "table2": TABLE2_CONFORMANT}


def _one_link_scenario(raw: dict) -> NetworkScenario:
    """The workload/scheme/``buffer_mb`` form (paper units) as a scenario."""
    try:
        scheme = Scheme.named(str(raw["scheme"]))
        buffer_mb = float(raw["buffer_mb"])
    except KeyError as missing:
        raise ConfigurationError(f"spec missing required key {missing}") from None

    workload = raw.get("workload", "table1")
    if isinstance(workload, str):
        if workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {workload!r}; valid: {sorted(WORKLOADS)}"
            )
        flows = WORKLOADS[workload]()
        default_groups = DEFAULT_GROUPS[workload]
    else:
        flows = [_flow_from_dict(index, entry) for index, entry in enumerate(workload)]
        default_groups = None

    groups = raw.get("groups")
    if groups is None and scheme.is_hybrid:
        groups = default_groups
    if scheme.is_hybrid and groups is None:
        raise ConfigurationError(f"scheme {scheme.name} requires groups")
    return NetworkScenario.single_node(
        flows,
        scheme,
        mbytes(buffer_mb),
        link_rate=mbps(float(raw.get("link_mbps", 48.0))),
        sim_time=float(raw.get("sim_time", 8.0)),
        headroom=mbytes(float(raw.get("headroom_mb", 2.0))),
        groups=groups,
    )


def _network_scenario(raw: dict) -> NetworkScenario:
    """The ``"network": "tandem" | {...}`` form as a scenario."""
    network = raw["network"]
    if isinstance(network, dict):
        return NetworkScenario.from_dict(network)
    if network != "tandem":
        raise ConfigurationError(
            f"unknown named network {network!r}; valid: tandem, "
            "or an inline scenario object"
        )
    return demo_tandem(
        hops=int(raw.get("hops", 3)),
        sim_time=float(raw.get("sim_time", 8.0)),
        churn=bool(raw.get("churn", True)),
        reclamation=bool(raw.get("reclamation", False)),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: a scenario, its seeds and its metrics."""

    name: str
    scenario: NetworkScenario
    seeds: tuple[int, ...] = (1,)
    metrics: tuple[str, ...] = ("utilization",)

    @property
    def conformant_ids(self) -> tuple[int, ...]:
        """The static flows a ``:conformant`` metric selects."""
        return tuple(
            routed.spec.flow_id for routed in self.scenario.flows if routed.spec.conformant
        )

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioSpec":
        """Build and validate a spec from plain JSON-style data.

        The one place either input form becomes a scenario; everything
        downstream (jobs, pre-flight, tracing, auditing) reads
        ``spec.scenario``.
        """
        if "name" not in raw:
            raise ConfigurationError("spec missing required key 'name'")
        if "network" in raw:
            scenario = _network_scenario(raw)
            default_metrics = ("delivered", "blocking")
        else:
            scenario = _one_link_scenario(raw)
            default_metrics = ("utilization",)
        seeds = tuple(int(s) for s in raw.get("seeds", (1,)))
        if not seeds:
            raise ConfigurationError("seeds must be non-empty")
        spec = ScenarioSpec(
            name=str(raw["name"]),
            scenario=scenario,
            seeds=seeds,
            metrics=tuple(str(m) for m in raw.get("metrics", default_metrics)),
        )
        conformant_ids = spec.conformant_ids
        for metric in spec.metrics:
            parse_metric(metric, conformant_ids)  # validate early
            if metric not in _RECORD_METRICS and len(scenario.links) != 1:
                raise ConfigurationError(
                    f"metric {metric!r} reads one link's measurements; this "
                    f"scenario has {len(scenario.links)} links"
                )
        return spec

    def jobs(self) -> list[ScenarioJob]:
        """The campaign jobs behind this spec: one per seed."""
        return [
            ScenarioJob(dataclasses.replace(self.scenario, seed=seed))
            for seed in self.seeds
        ]


def _flow_from_dict(index: int, raw: dict) -> FlowSpec:
    try:
        peak = float(raw["peak_mbps"])
        avg = float(raw["avg_mbps"])
        bucket = float(raw["bucket_kb"])
        token = float(raw["token_mbps"])
    except KeyError as missing:
        raise ConfigurationError(
            f"custom flow {index} missing key {missing}"
        ) from None
    conformant = bool(raw.get("conformant", True))
    burst_kb = float(raw.get("burst_kb", bucket))
    return FlowSpec(
        flow_id=int(raw.get("flow_id", index)),
        peak_rate=mbps(peak),
        avg_rate=mbps(avg),
        bucket=kbytes(bucket),
        token_rate=mbps(token),
        conformant=conformant,
        mean_burst=kbytes(burst_kb),
    )


#: Metrics any record answers, whatever its shape.
_RECORD_METRICS = {
    "delivered": lambda record: float(sum(record.delivery_packets.values())),
    "blocking": lambda record: float(record.blocking_probability()),
    "events": lambda record: float(record.events_processed),
}


def parse_metric(metric: str, conformant_ids: Sequence[int]):
    """Turn a metric string into (label, extractor).

    Shared by declarative specs and the sweep DSL.  ``utilization``,
    ``loss[:conformant|:ids|:all]`` and ``throughput[:...]`` read one
    link's measurements (a multi-link record refuses them);
    ``delivered`` (packets that reached the end of their route),
    ``blocking`` (churn blocking probability) and ``events`` work on any
    record.
    """
    kind, _, argument = metric.partition(":")
    if metric in _RECORD_METRICS:
        return metric, _RECORD_METRICS[metric]
    if kind == "utilization":
        return metric, lambda result: 100.0 * result.utilization()
    if kind in ("loss", "throughput"):
        if argument == "conformant":
            ids: Sequence[int] | None = tuple(conformant_ids)
        elif argument == "" or argument == "all":
            ids = None
        else:
            try:
                ids = tuple(int(part) for part in argument.split(","))
            except ValueError:
                raise ConfigurationError(f"bad metric flow list in {metric!r}") from None
        if kind == "loss":
            return metric, lambda result, ids=ids: 100.0 * result.loss_fraction(ids)
        return metric, (
            lambda result, ids=ids: 8e-6 * result.throughput(ids)  # Mb/s
        )
    raise ConfigurationError(
        f"unknown metric {metric!r}; use utilization, loss[:ids], "
        f"throughput[:ids], {', '.join(_RECORD_METRICS)}"
    )


def run_spec(
    spec: ScenarioSpec, runner: CampaignRunner | None = None
) -> dict[str, MeanCI]:
    """Execute a spec over its seeds; returns metric -> mean ± CI.

    The seeds are submitted as one campaign batch through ``runner``
    (default: serial, no cache), so spec execution shares the pipeline's
    deduplication, caching, and parallel dispatch.
    """
    if runner is None:
        runner = CampaignRunner()
    extractors = [parse_metric(metric, spec.conformant_ids) for metric in spec.metrics]
    samples: dict[str, list[float]] = {metric: [] for metric in spec.metrics}
    for record in runner.run(spec.jobs()):
        for label, extractor in extractors:
            samples[label].append(extractor(record))
    return {label: mean_ci(values) for label, values in samples.items()}


def load_specs(path: str | pathlib.Path) -> list[ScenarioSpec]:
    """Load one spec or a list of specs from a JSON file.

    Entries of either input form can be mixed in one file.
    """
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file: {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"spec file is not valid JSON: {exc}") from None
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError("spec file must contain an object or non-empty list")
    return [ScenarioSpec.from_dict(entry) for entry in raw]
