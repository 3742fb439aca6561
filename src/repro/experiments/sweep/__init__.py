"""Distributed, resumable sweep campaigns.

The scale-out layer over :mod:`repro.experiments.campaign`: a frozen,
JSON-round-trippable :class:`~repro.experiments.sweep.spec.SweepSpec`
expands cartesian parameter grids lazily into content-addressed jobs; a
serverless work queue (:mod:`~repro.experiments.sweep.queue`) shards one
grid across N worker processes on N hosts using only atomic claim files
in the shared cache directory; streaming aggregation
(:mod:`~repro.experiments.sweep.aggregate`) folds the results into one
deterministic ``repro-sweep-v1`` artifact, byte-identical however the
work was sharded, killed, or resumed — and ``run_grid`` folds the same
artifact in memory from one campaign batch, which is how a figure runs.

CLI surface: ``repro campaign sweep run | status | aggregate``; see
``docs/campaigns.md`` for the multi-host story.
"""

from repro.experiments.sweep.aggregate import (
    AGGREGATE_SCHEMA,
    SHARD_SCHEMA,
    aggregate_sweep,
    default_aggregate_path,
    fold_seeds,
    metric_row,
    run_grid,
    shard_path,
    write_aggregate,
)
from repro.experiments.sweep.queue import (
    CLAIM_SCHEMA,
    DEFAULT_HEARTBEAT_TIMEOUT,
    read_claim,
    release_claim,
    run_sweep_worker,
    scan_claims,
    sweep_status,
)
from repro.experiments.sweep.spec import (
    SWEEP_SPEC_SCHEMA,
    SweepAxis,
    SweepSpec,
    load_sweep,
)

__all__ = [
    "AGGREGATE_SCHEMA",
    "CLAIM_SCHEMA",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "SHARD_SCHEMA",
    "SWEEP_SPEC_SCHEMA",
    "SweepAxis",
    "SweepSpec",
    "aggregate_sweep",
    "default_aggregate_path",
    "fold_seeds",
    "load_sweep",
    "metric_row",
    "read_claim",
    "release_claim",
    "run_grid",
    "run_sweep_worker",
    "scan_claims",
    "shard_path",
    "sweep_status",
    "write_aggregate",
]
