"""The *describe* stage: frozen, content-addressed scenario descriptions.

A :class:`ScenarioJob` captures everything
:func:`~repro.experiments.runner.run_scenario` takes as loose keyword
arguments — flow population, scheme, buffer, link rate, seed, headroom,
grouping — as one frozen, hashable value.  Its :meth:`digest` is a stable
SHA-256 over a canonical JSON form (tagged with :data:`CAMPAIGN_SCHEMA`),
which is what the result cache and the runner's deduplication key on:
same inputs, same digest, on any machine and in any process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.schemes import DEFAULT_HEADROOM, Scheme
from repro.experiments.workloads import LINK_RATE, PACKET_SIZE
from repro.traffic.profiles import FlowSpec

__all__ = ["CAMPAIGN_SCHEMA", "ScenarioJob"]

#: Version tag baked into every digest and cache entry.  Bump it whenever
#: the meaning of a job field or the record layout changes: old cache
#: entries then miss instead of silently serving stale measurements.
CAMPAIGN_SCHEMA = "repro-campaign-v1"


@dataclass(frozen=True)
class ScenarioJob:
    """One fully-specified simulation run, ready to execute anywhere.

    Defaults mirror :func:`~repro.experiments.runner.run_scenario`; the
    measurement window defaults to the last 90% of ``sim_time`` when
    ``warmup`` is ``None``.

    Attributes:
        flows: the flow population.
        scheme: scheduler/buffer-policy combination.
        buffer_size: total buffer ``B`` in bytes.
        link_rate: output link rate in bytes/second.
        sim_time: total simulated seconds.
        warmup: measurement start; ``None`` means 10% of ``sim_time``.
        seed: root seed for the per-flow source streams.
        headroom: ``H`` for the sharing schemes, bytes.
        groups: flow grouping for hybrid schemes.
        packet_size: bytes per packet.
        delay_histograms: extract per-flow delay percentiles into the
            result record.
        max_events: optional per-job event budget; the run raises
            :class:`~repro.errors.SimulationError` when exceeded.
    """

    flows: tuple[FlowSpec, ...]
    scheme: Scheme
    buffer_size: float
    link_rate: float = LINK_RATE
    sim_time: float = 20.0
    warmup: float | None = None
    seed: int = 0
    headroom: float = DEFAULT_HEADROOM
    groups: tuple[tuple[int, ...], ...] | None = None
    packet_size: float = PACKET_SIZE
    delay_histograms: bool = False
    max_events: int | None = None

    def __post_init__(self) -> None:
        # Coerce sequence fields so equal jobs hash equal regardless of
        # whether the caller passed lists or tuples.
        object.__setattr__(self, "flows", tuple(self.flows))
        if self.groups is not None:
            object.__setattr__(
                self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
            )
        if not self.flows:
            raise ConfigurationError("a job needs at least one flow")
        if not isinstance(self.scheme, Scheme):
            raise ConfigurationError(f"scheme must be a Scheme, got {self.scheme!r}")
        if self.buffer_size <= 0:
            raise ConfigurationError(
                f"buffer size must be positive, got {self.buffer_size}"
            )
        if self.link_rate <= 0:
            raise ConfigurationError(f"link rate must be positive, got {self.link_rate}")
        if self.sim_time <= 0:
            raise ConfigurationError(f"sim_time must be positive, got {self.sim_time}")
        if self.warmup is not None and not 0 <= self.warmup < self.sim_time:
            raise ConfigurationError(
                f"need 0 <= warmup < sim_time, got {self.warmup}"
            )
        if self.max_events is not None and self.max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {self.max_events}"
            )

    # -- content addressing ---------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {
            "schema": CAMPAIGN_SCHEMA,
            "flows": [flow.to_dict() for flow in self.flows],
            "scheme": self.scheme.name,
            "buffer_size": float(self.buffer_size),
            "link_rate": float(self.link_rate),
            "sim_time": float(self.sim_time),
            "warmup": None if self.warmup is None else float(self.warmup),
            "seed": int(self.seed),
            "headroom": float(self.headroom),
            "groups": None
            if self.groups is None
            else [list(group) for group in self.groups],
            "packet_size": float(self.packet_size),
            "delay_histograms": bool(self.delay_histograms),
            "max_events": None if self.max_events is None else int(self.max_events),
        }

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioJob":
        """Rebuild a job from :meth:`to_dict` output."""
        schema = raw.get("schema")
        if schema != CAMPAIGN_SCHEMA:
            raise ConfigurationError(
                f"job schema mismatch: got {schema!r}, expected {CAMPAIGN_SCHEMA!r}"
            )
        try:
            scheme = Scheme[raw["scheme"]]
        except KeyError:
            raise ConfigurationError(f"unknown scheme {raw.get('scheme')!r}") from None
        groups = raw.get("groups")
        return ScenarioJob(
            flows=tuple(FlowSpec.from_dict(entry) for entry in raw["flows"]),
            scheme=scheme,
            buffer_size=float(raw["buffer_size"]),
            link_rate=float(raw["link_rate"]),
            sim_time=float(raw["sim_time"]),
            warmup=None if raw.get("warmup") is None else float(raw["warmup"]),
            seed=int(raw["seed"]),
            headroom=float(raw["headroom"]),
            groups=None if groups is None else tuple(tuple(g) for g in groups),
            packet_size=float(raw["packet_size"]),
            delay_histograms=bool(raw["delay_histograms"]),
            max_events=None
            if raw.get("max_events") is None
            else int(raw["max_events"]),
        )

    def digest(self) -> str:
        """Stable SHA-256 content digest of the job description.

        Two jobs with equal field values produce the same digest; changing
        any field (including the schema tag) produces a different one.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- execution bridge -----------------------------------------------

    def scenario_kwargs(self) -> dict:
        """Keyword arguments for :func:`~repro.experiments.runner.run_scenario`."""
        return {
            "link_rate": self.link_rate,
            "sim_time": self.sim_time,
            "warmup": self.warmup,
            "seed": self.seed,
            "headroom": self.headroom,
            "groups": self.groups,
            "packet_size": self.packet_size,
            "delay_histograms": self.delay_histograms,
            "max_events": self.max_events,
        }

    @staticmethod
    def for_scenario(
        flows: Sequence[FlowSpec],
        scheme: Scheme,
        buffer_size: float,
        **scenario_kwargs,
    ) -> "ScenarioJob":
        """Build a job from ``run_scenario``-style arguments.

        Unknown keyword arguments raise
        :class:`~repro.errors.ConfigurationError` eagerly, so a typo in a
        sweep fails at the describe stage instead of deep inside a worker.
        """
        allowed = {f.name for f in fields(ScenarioJob)} - {
            "flows",
            "scheme",
            "buffer_size",
        }
        unknown = set(scenario_kwargs) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown scenario arguments: {sorted(unknown)}; "
                f"valid: {sorted(allowed)}"
            )
        return ScenarioJob(
            flows=tuple(flows), scheme=scheme, buffer_size=buffer_size, **scenario_kwargs
        )
