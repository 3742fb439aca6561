"""The *execute* stage: batch execution, process pools, and caching.

A :class:`CampaignRunner` takes a batch of
:class:`~repro.experiments.campaign.job.ScenarioJob` descriptions and
returns one :class:`~repro.experiments.campaign.record.ScenarioRecord`
per job, in the order the jobs were submitted.  Three properties make
campaigns cheap at figure scale:

* **deduplication** — jobs are keyed by content digest, so a figure
  whose curves share (scheme, buffer, seed) combinations (e.g. Figure 3's
  per-flow curves) simulates each combination once;
* **caching** — with a :class:`~repro.experiments.campaign.cache.ResultCache`
  attached, only jobs whose inputs changed are simulated; and
* **parallelism** — with ``workers > 1`` misses are dispatched to a
  ``concurrent.futures.ProcessPoolExecutor`` in digest order with
  chunked scheduling.  Results are keyed by digest and re-emitted in
  submission order, so a parallel run is byte-identical to a serial one.

Both executors — this runner and the sweep worker
(:func:`~repro.experiments.sweep.queue.run_sweep_worker`) — run
:func:`execute_job` and hand each finished record to :func:`store`, the
one place a record enters the cache, as soon as it is finished: a batch
that raises keeps every record finished before the raise.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.experiments.campaign.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    write_telemetry,
)
from repro.experiments.campaign.job import ScenarioJob
from repro.experiments.campaign.record import ScenarioRecord
from repro.experiments.config import positive
from repro.experiments.fabric.build import run_fabric
from repro.obs.telemetry import DEFAULT_TELEMETRY_DIR, JobTelemetry

__all__ = [
    "CampaignRunner",
    "CampaignStats",
    "default_runner",
    "execute_job",
    "preflight_jobs",
    "store",
]


def preflight_jobs(jobs: dict, rejected: str) -> None:
    """Audit scenarios before spending any simulation time.

    ``jobs`` maps digests to jobs.  The auditor grades a finding
    ``error`` only where the fabric itself would refuse to run — a
    scenario with churn outside its admission region; overloading a
    churn-less buffer is the paper's own experimental method and at most
    a ``warning`` — so churn scenarios are the ones audited.  Raises
    :class:`ConfigurationError`, opening with ``rejected``, listing every
    error-severity finding across the jobs.
    """
    scenarios = {
        digest: job.scenario
        for digest, job in jobs.items()
        if job.scenario.churn is not None
    }
    if not scenarios:
        return
    # Lazy import: repro.check.invariants pulls in the admission
    # machinery, which nothing else on the execute path needs.
    from repro.check.invariants import check_scenario

    failures = [
        finding
        for digest, scenario in scenarios.items()
        for finding in check_scenario(scenario, path=f"<job {digest[:12]}>")
        if finding.severity == "error"
    ]
    if failures:
        detail = "\n".join(f"  {f.path}: {f.rule_id} {f.message}" for f in failures)
        raise ConfigurationError(
            f"{rejected}: {len(failures)} invariant violation(s)\n{detail}"
        )


def execute_job(job: ScenarioJob) -> ScenarioRecord:
    """Run one job to completion and return its measurement record.

    Module-level (not a method) so a ``ProcessPoolExecutor`` can pickle
    it by reference into worker processes.  The returned record carries a
    :class:`~repro.obs.telemetry.JobTelemetry` stamped with this
    process's id, so pool runs attribute wall time to the worker that
    actually simulated the job.
    """
    # repro: noqa RPR101 — telemetry measures real wall time, never sim state
    start = time.perf_counter()
    result = run_fabric(job.scenario)
    record = ScenarioRecord.from_result(result, job.digest())
    # repro: noqa RPR101 — telemetry measures real wall time, never sim state
    wall = time.perf_counter() - start
    return dataclasses.replace(
        record,
        telemetry=JobTelemetry(
            job_digest=record.job_digest,
            wall_time=wall,
            events=record.events_processed,
            cache_hit=False,
            worker=os.getpid(),
            # The engine's execution stats, outside the serialized form.
            cancelled_pending=result.cancelled_pending,
            compactions=result.compactions,
        ),
    )


def store(cache: ResultCache | None, record: ScenarioRecord) -> ScenarioRecord:
    """The store step of both executors: put a finished record in
    ``cache`` (when there is one) and return it."""
    if cache is not None:
        cache.put(record)
    return record


@dataclass(frozen=True)
class CampaignStats:
    """Execution accounting for one :meth:`CampaignRunner.run` call."""

    submitted: int
    unique: int
    cache_hits: int
    executed: int


class CampaignRunner:
    """Executes job batches serially or across a process pool.

    Args:
        workers: process count; ``1`` (the default) runs in-process.
        cache: optional result cache consulted before and filled after
            execution.
        telemetry_dir: when given, each :meth:`run` writes its batch
            telemetry as JSONL under this directory (one line per unique
            job; see :mod:`repro.obs.telemetry`).
        preflight: when true, the batch is audited against the
            buffer-management invariants (:func:`preflight_jobs`) before
            anything executes; an error-severity finding aborts the whole
            batch with :class:`~repro.errors.ConfigurationError` rather
            than burning simulation time on a scenario that cannot admit
            its flows.
    """

    __slots__ = ("workers", "cache", "telemetry_dir", "preflight", "last_stats")

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        telemetry_dir=None,
        preflight: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = cache
        self.telemetry_dir = telemetry_dir
        self.preflight = preflight
        self.last_stats: CampaignStats | None = None

    def run(self, jobs: Sequence[ScenarioJob]) -> list[ScenarioRecord]:
        """Execute a batch; returns records aligned with ``jobs``.

        Duplicate jobs (same digest) are simulated once and the shared
        record is returned at every submission position.
        """
        digests = [job.digest() for job in jobs]
        unique: dict[str, ScenarioJob] = {}
        for digest, job in zip(digests, jobs):
            unique.setdefault(digest, job)
        if self.preflight:
            preflight_jobs(unique, "campaign pre-flight rejected the batch")

        records: dict[str, ScenarioRecord] = {}
        if self.cache is not None:
            for digest in unique:
                # repro: noqa RPR101 — telemetry measures real wall time
                start = time.perf_counter()
                cached = self.cache.get(digest)
                if cached is not None:
                    # repro: noqa RPR101 — telemetry measures real wall time
                    lookup = time.perf_counter() - start
                    records[digest] = dataclasses.replace(
                        cached,
                        telemetry=JobTelemetry(
                            job_digest=digest,
                            wall_time=lookup,
                            events=cached.events_processed,
                            cache_hit=True,
                            worker=os.getpid(),
                        ),
                    )
        cache_hits = len(records)

        pending = [job for digest, job in unique.items() if digest not in records]
        for record in self._execute(pending):
            records[record.job_digest] = store(self.cache, record)

        self.last_stats = CampaignStats(
            submitted=len(jobs),
            unique=len(unique),
            cache_hits=cache_hits,
            executed=len(pending),
        )
        if self.telemetry_dir is not None and unique:
            write_telemetry(
                self.telemetry_dir, [records[digest].telemetry for digest in unique]
            )
        if self.cache is not None:
            self.cache.persist_stats()
        return [records[digest] for digest in digests]

    def _execute(self, jobs: list[ScenarioJob]) -> Iterator[ScenarioRecord]:
        """Each job's record, in job order, as it finishes."""
        workers = min(self.workers, len(jobs))
        if workers <= 1:
            yield from map(execute_job, jobs)
            return
        # Aim for ~4 chunks per worker: coarse enough to amortise dispatch,
        # fine enough that a slow chunk cannot serialise the tail of the
        # batch.
        chunk = max(1, len(jobs) // (workers * 4))
        # Imported here: a serial process never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(execute_job, jobs, chunksize=chunk)


def default_runner(
    workers: int | None = None,
    cache_dir=None,
    telemetry_dir=None,
    *,
    preflight: bool = False,
) -> CampaignRunner:
    """The one place run options become a :class:`CampaignRunner`.

    Every field resolves the same way: the argument (a command-line
    flag; ``None`` when it was not given), else its ``REPRO_*``
    variable, else the default.

    * ``workers``: else ``REPRO_WORKERS``, which must be a positive
      integer (anything else is a :class:`ConfigurationError` in the
      words ``--workers`` uses), else 1, i.e. serial.
    * ``cache_dir``: else ``REPRO_CACHE``, else no cache.
    * ``telemetry_dir``: else ``REPRO_TELEMETRY``, else no telemetry.

    A directory variable set to ``1``/``true``/``yes`` names the default
    directory (``results/cache``, ``results/telemetry``); unset, empty,
    ``0``, ``false`` and ``no`` leave the default.  A directory argument
    of ``True`` means "no flag, and the default is the default
    directory", which is the campaign verbs' default.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        try:
            workers = positive(raw) if raw else 1
        except ConfigurationError as exc:
            raise ConfigurationError(f"REPRO_WORKERS: {exc}") from None
    cache_dir = _directory(cache_dir, "REPRO_CACHE", DEFAULT_CACHE_DIR)
    return CampaignRunner(
        workers,
        None if cache_dir is None else ResultCache(cache_dir),
        _directory(telemetry_dir, "REPRO_TELEMETRY", DEFAULT_TELEMETRY_DIR),
        preflight,
    )


def _directory(value, variable: str, default):
    """One directory field: the flag's path, else ``variable``, else the default."""
    if value is not None and value is not True:
        return value
    raw = os.environ.get(variable, "").strip()
    if raw in ("1", "true", "yes"):
        return default
    if raw not in ("", "0", "false", "no"):
        return raw
    return default if value else None
