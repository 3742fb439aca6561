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
tandem, tunable through the ``"network"`` parameters below) or a full
:meth:`~repro.experiments.fabric.NetworkScenario.to_dict` scenario
object (byte units, carrying its own parameters).  Both input forms
parse into the same thing — a :class:`ScenarioSpec` holding one
:class:`~repro.experiments.fabric.NetworkScenario` — and run as one
:class:`~repro.experiments.campaign.ScenarioJob` per seed.

This module also owns what a spec entry, a sweep cell
(:mod:`repro.experiments.sweep`) and a figure
(:mod:`repro.experiments.figures`) share: the typed parameter table per
topology kind (:data:`PARAMETERS`), the one translation from paper-unit
parameters to a scenario (:func:`scenario_from_params`) and the metric
grammar (:func:`parse_metric`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Mapping, Sequence

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
from repro.metrics.stats import MeanCI
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes, to_mbps

__all__ = [
    "ScenarioSpec",
    "run_spec",
    "load_specs",
    "parse_metric",
    "validate_metrics",
    "scenario_from_params",
    "check_param",
    "PARAMETERS",
    "DEFAULTS",
    "WORKLOADS",
    "DEFAULT_GROUPS",
    "CONFORMANT_SETS",
]

#: Named workload registry: name -> flow-population factory.
WORKLOADS = {"table1": table1_flows, "table2": table2_flows}
#: Default hybrid grouping per named workload.
DEFAULT_GROUPS = {"table1": CASE1_GROUPS, "table2": CASE2_GROUPS}
#: Conformant flow-id partition per named workload.
CONFORMANT_SETS = {"table1": TABLE1_CONFORMANT, "table2": TABLE2_CONFORMANT}

#: The parameters of an experiment, per topology kind: name -> (type,
#: default), in the paper's units.  ``"scenario"`` is one link over a
#: named workload, ``"network"`` the reference tandem.  A tuple type
#: lists the valid names; ``float`` takes integers too; ``bool`` is never
#: a number; ``None`` is a value only where it is the default.
PARAMETERS: dict[str, dict[str, tuple]] = {
    "scenario": {
        "workload": (tuple(WORKLOADS), "table1"),
        "scheme": (tuple(Scheme.__members__), "FIFO_THRESHOLD"),
        "buffer_mb": (float, 1.0),
        "seed": (int, 1),
        "sim_time": (float, 8.0),
        "warmup": (float, None),
        "link_mbps": (float, 48.0),
        "headroom_mb": (float, 2.0),
        "delay_histograms": (bool, False),
        "max_events": (int, None),
    },
    "network": {
        "hops": (int, 3),
        "seed": (int, 1),
        "sim_time": (float, 8.0),
        "churn": (bool, True),
        "reclamation": (bool, False),
        "arrival_rate": (float, 6.0),
        "mean_holding": (float, 4.0),
        "delay_histograms": (bool, False),
    },
}

#: kind -> parameter -> default: what an undeclared parameter reads as.
DEFAULTS = {
    kind: {name: default for name, (_type, default) in table.items()}
    for kind, table in PARAMETERS.items()
}

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false"}


def check_param(kind: str, name: str, value) -> None:
    """Refuse a parameter ``kind`` does not have or a value of the wrong type.

    The describe-stage check of both describers: a bad value fails where
    it is written down, not in a worker building the job.
    """
    table = PARAMETERS[kind]
    if name not in table:
        raise ConfigurationError(
            f"unknown {kind} parameter {name!r}; valid: {sorted(table)}"
        )
    expected, default = table[name]
    if value is None and default is None:
        return
    if isinstance(expected, tuple):
        if value not in expected:
            raise ConfigurationError(
                f"unknown {name} {value!r}; valid: {', '.join(expected)}"
            )
        return
    accepted = (int, float) if expected is float else expected
    if not isinstance(value, accepted) or isinstance(value, bool) != (expected is bool):
        raise ConfigurationError(
            f"parameter {name!r} must be {_TYPE_NAMES[expected]}, got {value!r}"
        )
    # JSON reads NaN and Infinity; neither describes an experiment.
    if expected is float and not -math.inf < value < math.inf:
        raise ConfigurationError(f"parameter {name!r} must be finite, got {value!r}")


def scenario_from_params(kind: str, params: Mapping) -> NetworkScenario:
    """The scenario one set of paper-unit parameters describes.

    ``params`` holds checked values (:func:`check_param`: integers and
    booleans pass through as they are, numbers become floats); whatever
    it leaves out reads as its default.  Spec entries may carry two inputs
    no sweep axis can: ``workload`` as a list of
    :class:`~repro.traffic.profiles.FlowSpec` and explicit ``groups``.
    """
    params = {**DEFAULTS[kind], **params}
    if kind == "network":
        return demo_tandem(
            hops=params["hops"],
            seed=params["seed"],
            sim_time=float(params["sim_time"]),
            churn=params["churn"],
            reclamation=params["reclamation"],
            arrival_rate=float(params["arrival_rate"]),
            mean_holding=float(params["mean_holding"]),
            delay_histograms=params["delay_histograms"],
        )
    workload = params["workload"]
    named = isinstance(workload, str)
    scheme = Scheme.named(params["scheme"])
    groups = params.get("groups")
    if groups is None and scheme.is_hybrid:
        if not named:
            raise ConfigurationError(f"scheme {scheme.name} requires groups")
        groups = DEFAULT_GROUPS[workload]
    warmup = params["warmup"]
    return NetworkScenario.single_node(
        WORKLOADS[workload]() if named else workload,
        scheme,
        mbytes(float(params["buffer_mb"])),
        link_rate=mbps(float(params["link_mbps"])),
        sim_time=float(params["sim_time"]),
        warmup=None if warmup is None else float(warmup),
        seed=params["seed"],
        headroom=mbytes(float(params["headroom_mb"])),
        groups=groups,
        delay_histograms=params["delay_histograms"],
        max_events=params["max_events"],
    )


#: Keys of a spec entry that are not parameters of its scenario.
_ENTRY_KEYS = ("name", "seeds", "metrics", "network")


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
        return self.scenario.conformant_ids

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioSpec":
        """Build and validate a spec from plain JSON-style data.

        The one place either input form becomes a scenario; everything
        downstream (jobs, pre-flight, tracing, auditing) reads
        ``spec.scenario``.  Every key is honoured or refused: a
        parameter of the entry's kind is checked (:func:`check_param`)
        and reaches :func:`scenario_from_params`, anything else raises.
        ``seed`` is not a key — an entry replicates over ``seeds`` — and
        an inline scenario object takes no parameters, it carries them.
        """
        if "name" not in raw:
            raise ConfigurationError("spec missing required key 'name'")
        network = raw.get("network")
        inline = isinstance(network, dict)
        kind = "network" if "network" in raw else "scenario"
        if kind == "network" and not inline and network != "tandem":
            raise ConfigurationError(
                f"unknown named network {network!r}; valid: tandem, "
                "or an inline scenario object"
            )
        valid = [] if inline else [key for key in PARAMETERS[kind] if key != "seed"]
        if kind == "scenario":
            valid.append("groups")
        params = {key: value for key, value in raw.items() if key not in _ENTRY_KEYS}
        for key, value in params.items():
            if key not in valid:
                raise ConfigurationError(
                    f"unknown spec key {key!r}; this entry takes "
                    f"{sorted([*valid, *_ENTRY_KEYS])}"
                )
            if key == "workload" and isinstance(value, list):
                params[key] = [_flow_from_dict(i, flow) for i, flow in enumerate(value)]
            elif key != "groups":
                check_param(kind, key, value)
        for required in ("scheme", "buffer_mb") if kind == "scenario" else ():
            if required not in params:
                raise ConfigurationError(f"spec missing required key {required!r}")
        seeds = tuple(raw.get("seeds", (1,)))
        if not seeds or len(set(seeds)) != len(seeds):
            raise ConfigurationError(
                f"seeds must be non-empty and not repeat a value, got {list(seeds)}"
            )
        for seed in seeds:
            check_param(kind, "seed", seed)
        default_metrics = ("utilization",) if kind == "scenario" else ("delivered", "blocking")
        spec = ScenarioSpec(
            name=str(raw["name"]),
            scenario=(
                NetworkScenario.from_dict(network)
                if inline
                else scenario_from_params(kind, params)
            ),
            seeds=seeds,
            metrics=tuple(str(m) for m in raw.get("metrics", default_metrics)),
        )
        validate_metrics(spec.metrics, spec.conformant_ids, len(spec.scenario.links))
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

    The one metric grammar of spec entries, sweeps and figures.
    ``utilization`` (% of the link), ``loss[:conformant|:ids|:all]`` (%
    of offered bytes) and ``throughput[:...]`` (Mb/s) read one link's
    measurements (a multi-link record refuses them); ``delivered``
    (packets that reached the end of their route), ``blocking`` (churn
    blocking probability) and ``events`` work on any record.
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
        return metric, lambda result, ids=ids: to_mbps(result.throughput(ids))
    raise ConfigurationError(
        f"unknown metric {metric!r}; use utilization, loss[:ids], "
        f"throughput[:ids], {', '.join(_RECORD_METRICS)}"
    )


def validate_metrics(
    metrics: Sequence[str], conformant_ids: Sequence[int], links: int
) -> None:
    """Refuse a metric outside the grammar or one a ``links``-link record cannot answer."""
    for metric in metrics:
        parse_metric(metric, conformant_ids)
        if metric not in _RECORD_METRICS and links != 1:
            raise ConfigurationError(
                f"metric {metric!r} reads one link's measurements; this "
                f"scenario has {links} links"
            )


def run_spec(
    spec: ScenarioSpec, runner: CampaignRunner | None = None
) -> dict[str, MeanCI]:
    """Execute a spec over its seeds; returns metric -> mean ± CI.

    The seeds are submitted as one campaign batch through ``runner``
    (default: serial, no cache), so spec execution shares the pipeline's
    deduplication, caching, and parallel dispatch; the samples fold
    through the one seed fold of sweeps and figures.
    """
    # The sweep package builds on this module; only this call goes back.
    from repro.experiments.sweep.aggregate import fold_seeds

    if runner is None:
        runner = CampaignRunner()
    extractors = [parse_metric(metric, spec.conformant_ids) for metric in spec.metrics]
    rows = (
        ({"seed": seed}, {label: extractor(record) for label, extractor in extractors})
        for seed, record in zip(spec.seeds, runner.run(spec.jobs()))
    )
    [group] = fold_seeds(spec.metrics, rows)
    return group["metrics"]


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
