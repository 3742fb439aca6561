"""The *describe* stage: a job is a scenario, content-addressed.

A :class:`ScenarioJob` wraps one
:class:`~repro.experiments.fabric.NetworkScenario` — the paper's single
output port (:meth:`ScenarioJob.for_scenario`, the one-link case) and a
multi-hop tandem with churn alike.  Its :meth:`~ScenarioJob.digest` is a
stable SHA-256 over the canonical JSON form (tagged with
:data:`CAMPAIGN_SCHEMA`), which is what the result cache, the work queue
and the runner's deduplication key on: same scenario, same digest, on
any machine and in any process.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.fabric.scenario import NetworkScenario
from repro.experiments.schemes import Scheme
from repro.traffic.profiles import FlowSpec

__all__ = ["CAMPAIGN_SCHEMA", "ScenarioJob"]

#: Version tag baked into every digest and cache entry.  Bump it whenever
#: the meaning of a scenario field or the record layout changes: old cache
#: entries then miss instead of silently serving stale measurements.
#:
#: v2: one job and one record family.  A job is ``{"schema", "scenario"}``
#: and a record is its links; the flat one-port ``repro-campaign-v1`` and
#: the fabric's ``repro-campaign-net-v3`` forms are refused, not migrated.
CAMPAIGN_SCHEMA = "repro-campaign-v2"

#: The keywords :meth:`ScenarioJob.for_scenario` forwards: everything
#: ``run_scenario`` takes that describes the run rather than observes it.
_ONE_LINK_KEYWORDS = frozenset(
    inspect.signature(NetworkScenario.single_node).parameters
) - {"flows", "scheme", "buffer_size"}


@dataclass(frozen=True)
class ScenarioJob:
    """One fully-specified simulation run, ready to execute anywhere."""

    scenario: NetworkScenario

    @staticmethod
    def for_scenario(
        flows: Sequence[FlowSpec],
        scheme: Scheme,
        buffer_size: float,
        **keywords,
    ) -> "ScenarioJob":
        """The one-link job, from ``run_scenario``-style arguments.

        Unknown keyword arguments raise
        :class:`~repro.errors.ConfigurationError` eagerly, so a typo in a
        sweep fails at the describe stage instead of deep inside a worker.
        """
        unknown = keywords.keys() - _ONE_LINK_KEYWORDS
        if unknown:
            raise ConfigurationError(
                f"unknown scenario arguments: {sorted(unknown)}; "
                f"valid: {sorted(_ONE_LINK_KEYWORDS)}"
            )
        return ScenarioJob(
            NetworkScenario.single_node(flows, scheme, buffer_size, **keywords)
        )

    # -- content addressing ---------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {"schema": CAMPAIGN_SCHEMA, "scenario": self.scenario.to_dict()}

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioJob":
        """Rebuild a job from :meth:`to_dict` output."""
        schema = raw.get("schema")
        if schema != CAMPAIGN_SCHEMA:
            raise ConfigurationError(
                f"job schema mismatch: got {schema!r}, expected {CAMPAIGN_SCHEMA!r}"
            )
        return ScenarioJob(NetworkScenario.from_dict(raw["scenario"]))

    def digest(self) -> str:
        """Stable SHA-256 content digest of the job description.

        Two jobs with equal scenarios produce the same digest; changing
        any field (including the schema tag) produces a different one.
        Computed once per instance: the memo lives beside the dataclass
        field, so equality, hashing and :meth:`to_dict` never see it,
        and it travels with the job when a pool pickles it.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            canonical = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
            )
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest
