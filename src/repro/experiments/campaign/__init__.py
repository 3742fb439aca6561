"""Campaign execution pipeline: describe -> execute -> measure.

Every figure and table in the paper is a sweep of independent simulation
runs (buffer sizes x schemes x seeds).  This package turns that shape
into an explicit three-stage pipeline:

1. **describe** — a :class:`ScenarioJob` is one
   :class:`~repro.experiments.fabric.NetworkScenario` (a single port is
   its one-link case) as a hashable value with a stable content digest;
2. **execute** — a :class:`CampaignRunner` executes batches of jobs,
   serially or across a process pool, deduplicating by digest and
   consulting a content-addressed :class:`ResultCache`; every job runs
   through the one :func:`~repro.experiments.fabric.run_fabric`;
3. **measure** — each run returns a :class:`ScenarioRecord`, a plain
   serializable measurement record (a :class:`LinkRecord` per link,
   delivery counters, eagerly extracted delay percentiles, the churn
   report) that survives pickling and JSON round-trips byte-identically.

One job, one record, one :data:`CAMPAIGN_SCHEMA` tag: there is no second
family for multi-hop scenarios.

See ``docs/campaigns.md`` for the full pipeline description and CLI.
"""

from repro.experiments.campaign.cache import ResultCache
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA, ScenarioJob
from repro.experiments.campaign.record import LinkRecord, ScenarioRecord
from repro.experiments.campaign.runner import (
    CampaignRunner,
    CampaignStats,
    default_runner,
    execute_job,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "ScenarioJob",
    "ScenarioRecord",
    "LinkRecord",
    "ResultCache",
    "CampaignRunner",
    "CampaignStats",
    "default_runner",
    "execute_job",
]
