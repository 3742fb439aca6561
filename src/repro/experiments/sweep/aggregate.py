"""Streaming aggregation: cached records -> one deterministic aggregate.

Aggregation walks the sweep's cells **in expansion order** and reads
each cell's record from the result cache, one record at a time, through
:func:`metric_row`: the cache entry is the only per-cell record a sweep
keeps.  Per-cell groups (the cell minus its ``seed``) fold into mean +/-
CI in :func:`fold_seeds` — the one seed fold, which :func:`run_grid`
(records straight from a
:class:`~repro.experiments.campaign.CampaignRunner`; the figures' route)
and :func:`repro.experiments.spec.run_spec` go through as well.

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
from repro.experiments.campaign.cache import ResultCache, _tmp_name
from repro.experiments.campaign.runner import CampaignRunner
from repro.experiments.fabric import NetworkScenario
from repro.experiments.sweep.spec import SweepSpec
from repro.experiments.spec import parse_metric
from repro.metrics.stats import mean_ci

__all__ = [
    "AGGREGATE_SCHEMA",
    "aggregate_sweep",
    "default_aggregate_path",
    "fold_seeds",
    "run_grid",
    "write_aggregate",
]

#: Version tag on the final aggregate artifact.
AGGREGATE_SCHEMA = "repro-sweep-v1"

_AGGREGATE_DIR_NAME = "aggregates"


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
    function of the content-addressed job and record, so
    :func:`aggregate_sweep` and :func:`run_grid` produce identical rows
    for identical digests.
    """
    conformant = scenario.conformant_ids
    row = {}
    for metric in spec.metrics:
        label, extractor = parse_metric(metric, conformant)
        row[label] = float(extractor(record))
    return row


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
            group["samples"][metric].append(float(values[metric]))
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

    Walks cells in expansion order, reading each cell's record from the
    result cache one at a time — the full record set is never held in
    memory.  Raises :class:`~repro.errors.ConfigurationError` when cells
    are missing (the sweep has not finished) or failed (their claims
    carry the failure record).  An entry that exists but does not decode
    (torn) is deleted on the way, so that status and the next worker see
    its cell as pending and run it again.
    """
    cells = missing = failed = dropped = 0

    def rows():
        nonlocal cells, missing, failed, dropped
        for params, job in spec.jobs():
            cells += 1
            digest = job.digest()
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
            yield params, metric_row(spec, job.scenario, record)

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
    the cache: same cells, same rows, same fold, same dict.
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
