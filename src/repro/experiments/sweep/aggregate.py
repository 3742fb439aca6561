"""Streaming aggregation: record shards -> one deterministic aggregate.

Workers append one small JSONL *shard row* per executed cell — digest,
cell parameters, extracted metric values — to a worker-local file under
``<cache>/shards/``.  Aggregation streams those rows into a digest
index, then walks the sweep's cells **in expansion order**, pulling each
cell's metric row from the index (or, for cells another campaign already
cached, from the result cache one record at a time).  Per-cell groups
(the cell minus its ``seed``) fold into mean +/- CI in
:func:`fold_seeds` — the one seed fold, which :func:`run_grid` (records
straight from a :class:`~repro.experiments.campaign.CampaignRunner`, no
shards; the figures' route) and
:func:`repro.experiments.spec.run_spec` go through as well.

Determinism is the point: the walk order is the spec's expansion order
and every metric value is a pure function of a content-addressed record,
so the written :data:`AGGREGATE_SCHEMA` file is byte-identical no matter
how many workers ran, which of them died mid-sweep, or whether the run
was a warm cache replay.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.experiments.campaign.cache import ResultCache, _tmp_name, open_creating_parents
from repro.experiments.campaign.runner import CampaignRunner
from repro.experiments.fabric import NetworkScenario
from repro.experiments.sweep.spec import SweepSpec
from repro.experiments.spec import parse_metric
from repro.metrics.stats import mean_ci

__all__ = [
    "AGGREGATE_SCHEMA",
    "SHARD_SCHEMA",
    "aggregate_sweep",
    "default_aggregate_path",
    "fold_seeds",
    "metric_row",
    "read_shard_index",
    "run_grid",
    "shard_dir",
    "shard_path",
    "write_aggregate",
]

#: Version tag on the final aggregate artifact.
AGGREGATE_SCHEMA = "repro-sweep-v1"

#: Version tag on every worker shard row.
SHARD_SCHEMA = "repro-sweep-shard-v1"

#: Subdirectory of the cache root holding worker shards.  Kept out of
#: the root so :meth:`ResultCache.entries`'s ``*.json`` glob and the
#: claim files never see them.
_SHARD_DIR_NAME = "shards"
_AGGREGATE_DIR_NAME = "aggregates"


def shard_dir(cache_root: str | os.PathLike) -> pathlib.Path:
    """Where a cache directory keeps its sweep shards."""
    return pathlib.Path(cache_root) / _SHARD_DIR_NAME


def shard_path(
    cache_root: str | os.PathLike, sweep_digest: str, owner: str
) -> pathlib.Path:
    """One worker's shard file for one sweep."""
    safe_owner = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in owner
    )
    return shard_dir(cache_root) / f"{sweep_digest[:16]}-{safe_owner}.jsonl"


def default_aggregate_path(
    cache_root: str | os.PathLike, spec: SweepSpec
) -> pathlib.Path:
    """Digest-keyed default location of a sweep's aggregate."""
    return (
        pathlib.Path(cache_root)
        / _AGGREGATE_DIR_NAME
        / f"{spec.digest()}.json"
    )


# -- metric extraction ----------------------------------------------------

def metric_row(spec: SweepSpec, scenario: NetworkScenario, record) -> dict:
    """Extract this spec's metric values from one cell's record.

    ``scenario`` is the cell's (``job.scenario``): ``:conformant`` selects
    its conformant static flows, as it does for a spec entry.  A pure
    function of the content-addressed job and record, so every worker —
    and the aggregator replaying from cache — produces identical rows
    for identical digests.
    """
    conformant = scenario.conformant_ids
    row = {}
    for metric in spec.metrics:
        label, extractor = parse_metric(metric, conformant)
        row[label] = float(extractor(record))
    return row


# -- shard I/O ------------------------------------------------------------


def _append_shard_row(path: str, sweep_digest: str, digest: str, params, metrics) -> None:
    """Append one cell's row to a worker's shard file (:func:`shard_path`,
    which the worker names once, not once per cell).

    The line goes out as one ``O_APPEND`` write, so concurrent workers
    never interleave *within* a line; a worker killed mid-write leaves
    at most one torn final line, which readers skip.
    """
    line = (
        json.dumps(
            {
                "schema": SHARD_SCHEMA,
                "sweep": sweep_digest,
                "digest": digest,
                "params": dict(params),
                "metrics": dict(metrics),
            },
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        + "\n"
    )
    fd = open_creating_parents(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def read_shard_index(
    cache_root: str | os.PathLike, sweep_digest: str
) -> dict:
    """Stream every shard of one sweep into a digest -> metrics index.

    Torn lines (a worker killed mid-append), foreign schemas, and rows
    from other sweeps are skipped, never fatal.  Duplicate digests (two
    workers that legitimately re-executed a reaped cell) collapse — the
    rows are identical by construction.
    """
    index: dict = {}
    root = shard_dir(cache_root)
    if not root.is_dir():
        return index
    for path in sorted(root.glob(f"{sweep_digest[:16]}-*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except ValueError:
                continue  # torn write
            if not isinstance(raw, dict) or raw.get("schema") != SHARD_SCHEMA:
                continue
            if raw.get("sweep") != sweep_digest:
                continue
            digest = raw.get("digest")
            metrics = raw.get("metrics")
            if isinstance(digest, str) and isinstance(metrics, dict):
                index[digest] = metrics
    return index


# -- aggregation ----------------------------------------------------------


def fold_seeds(
    metrics: Sequence[str], rows: Iterable[tuple[Mapping, Mapping]]
) -> list[dict]:
    """Fold ``(cell parameters, metric values)`` rows into seed groups.

    Rows differing only in ``seed`` form one group, in first-seen order:
    its parameters without the seed, its seeds, and per metric the mean
    +/- 95% CI (:class:`~repro.metrics.stats.MeanCI`) over them — the
    paper's replications.
    """
    groups: dict = {}
    for params, values in rows:
        key = SweepSpec.group_key(params)
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "params": {k: v for k, v in params.items() if k != "seed"},
                "seeds": [],
                "samples": {metric: [] for metric in metrics},
            }
        group["seeds"].append(int(params["seed"]))
        for metric in metrics:
            value = values.get(metric)
            if value is None:
                raise ConfigurationError(
                    f"the row of cell {dict(params)} lacks metric {metric!r}"
                )
            group["samples"][metric].append(float(value))
    return [
        {
            "params": group["params"],
            "seeds": group["seeds"],
            "metrics": {
                metric: mean_ci(group["samples"][metric]) for metric in metrics
            },
        }
        for group in groups.values()
    ]


def _aggregate(spec: SweepSpec, cells: int, groups: list[dict]) -> dict:
    """The canonical aggregate artifact around a grid's folded groups."""
    for group in groups:
        group["metrics"] = {
            metric: {"mean": ci.mean, "halfwidth": ci.halfwidth, "n": ci.n}
            for metric, ci in group["metrics"].items()
        }
    return {
        "schema": AGGREGATE_SCHEMA,
        "name": spec.name,
        "kind": spec.kind,
        "sweep_digest": spec.digest(),
        "sweep": spec.to_dict(),
        "cells": cells,
        "groups": groups,
    }


def aggregate_sweep(spec: SweepSpec, cache: ResultCache) -> dict:
    """Fold a completed sweep into its canonical aggregate dict.

    Walks cells in expansion order; each cell's metric row comes from
    the shard index or, failing that, from the result cache one record
    at a time — the full record set is never held in memory.  Raises
    :class:`~repro.errors.ConfigurationError` when cells are missing
    (the sweep has not finished) or failed (their claims carry the
    failure record).  An entry that exists but does not decode (torn)
    is deleted on the way, so that status and the next worker see its
    cell as pending and run it again.
    """
    index = read_shard_index(cache.root, spec.digest())
    cells = missing = failed = dropped = 0

    def rows():
        nonlocal cells, missing, failed, dropped
        for params, job in spec.jobs():
            cells += 1
            digest = job.digest()
            metrics = index.get(digest)
            if metrics is None:
                record = cache.get(digest)
                if record is None:
                    # Lazy: the queue module builds on this one.
                    from repro.experiments.sweep.queue import read_claim

                    if "failed" in (read_claim(cache.root / f"{digest}.claim") or ()):
                        failed += 1
                        continue
                    missing += 1
                    if digest in cache:
                        cache.path(digest).unlink(missing_ok=True)
                        dropped += 1
                    continue
                metrics = metric_row(spec, job.scenario, record)
            yield params, metrics

    groups = fold_seeds(spec.metrics, rows())
    if failed or missing:
        problems = []
        if failed:
            problems.append(
                f"{failed} of {cells} cells failed (their .claim files hold "
                "the error; repro campaign clear-cache removes them)"
            )
        if missing:
            torn = f" ({dropped} unreadable, now deleted)" if dropped else ""
            problems.append(
                f"{missing} of {cells} cells have no cached record{torn}; run "
                "more workers (repro campaign sweep run) before aggregating"
            )
        raise ConfigurationError(
            f"sweep {spec.name!r} is incomplete: " + "; ".join(problems)
        )
    return _aggregate(spec, cells, groups)


def run_grid(spec: SweepSpec, runner: CampaignRunner) -> dict:
    """Run a whole grid as one campaign batch; returns its aggregate.

    The in-memory route to what :func:`aggregate_sweep` reads back from
    shards and cache: same cells, same rows, same fold, same dict.
    """
    cells = list(spec.jobs())
    records = runner.run([job for _params, job in cells])
    rows = (
        (params, metric_row(spec, job.scenario, record))
        for (params, job), record in zip(cells, records)
    )
    return _aggregate(spec, len(cells), fold_seeds(spec.metrics, rows))


def write_aggregate(aggregate: dict, path: str | os.PathLike) -> pathlib.Path:
    """Write an aggregate canonically and atomically; returns the path.

    Canonical formatting (sorted keys, fixed separators, trailing
    newline) is what makes "byte-identical to the serial run" a testable
    property rather than a JSON-equality hand-wave.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(aggregate, sort_keys=True, indent=1, allow_nan=False)
    tmp = target.with_name(_tmp_name(target.stem))
    tmp.write_text(payload + "\n", encoding="utf-8")
    os.replace(tmp, target)
    return target
