"""The work-queue runner: serverless sweep sharding over a cache dir.

The coordination point is the cache directory itself — no broker, no
server, nothing to deploy.  Three file conventions do all the work:

* ``<digest>.json`` — a completed cell (the ordinary result-cache
  entry).  Completion is what makes resume free: a restarted worker
  walks the grid and every finished cell is a cache hit.
* ``<digest>.claim`` — a cell some worker is executing right now.
  Created with ``O_CREAT | O_EXCL``, which the filesystem guarantees to
  succeed for exactly one contender; the file carries the owner id and
  pid, and the worker's one daemon heartbeat thread touches its mtime
  every few seconds while the cell executes.
* a stale claim — mtime older than the heartbeat timeout — marks a
  worker that died without releasing.  Reaping renames the claim to a
  per-process tomb name with ``os.replace`` before deleting it, so when
  several workers notice the same corpse exactly one wins the rename
  and counts the reap; the losers get ``FileNotFoundError`` and move on.
* a failure claim — a claim its worker rewrote, by atomic rename, with a
  ``failed`` record (exception type, message, traceback digest) when the
  cell's job or its store step raised.  It never goes stale, so it is
  never reaped and, holding the ``O_EXCL`` name, never claimed again: a
  job is deterministic, so a raise would only repeat.  ``campaign
  clear-cache`` removes failure claims (never live ones).

Re-executing a reaped cell is always safe: jobs are content-addressed
and deterministic, so the second execution produces the byte-identical
record the dead worker would have written.  The whole sweep is therefore
idempotent — N workers, kills, and resumes land on the same cache state
(and the same aggregate) as one serial pass.

Sharing the cache directory over NFS works when the export honours
``O_EXCL`` (NFSv3+ does); see ``docs/campaigns.md`` for tuning notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
import traceback
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.campaign.cache import (
    ResultCache,
    _tmp_name,
    open_creating_parents,
    write_telemetry,
)
from repro.experiments.campaign.runner import execute_job, preflight_jobs, store
from repro.experiments.sweep.aggregate import _append_shard_row, metric_row, shard_path
from repro.experiments.sweep.spec import SweepSpec

__all__ = [
    "CLAIM_SCHEMA",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "read_claim",
    "release_claim",
    "run_sweep_worker",
    "scan_claims",
    "sweep_status",
]

#: Version tag inside every claim file (audited by ``repro check``).
CLAIM_SCHEMA = "repro-claim-v1"

#: Claims whose mtime is older than this many (wall-clock) seconds are
#: considered orphaned and get reaped.  Generous by default: a healthy
#: worker touches its claim every ``timeout / 4`` seconds, so only a
#: worker that has been silent for many heartbeats is declared dead.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0


def _wall_now() -> float:
    """Wall-clock seconds, for claim-age decisions only.

    Queue coordination is about *real* worker liveness across hosts —
    exactly the one place simulation-determinism rules don't apply; no
    simulation state ever derives from this value.
    """
    # repro: noqa RPR101 — claim heartbeats age in wall-clock time, not sim time
    return time.time()


def default_owner() -> str:
    """A worker id unique across the hosts sharing one cache dir."""
    import platform  # here, not at the top: only a sweep worker needs it

    return f"{platform.node() or 'worker'}-{os.getpid()}"


# -- claim files ----------------------------------------------------------


def _claim(path: str, digest: str, owner: str) -> bool:
    """Atomically claim a cell at its claim path (``<root>/<digest>.claim``);
    False when someone else holds it.

    ``O_CREAT | O_EXCL`` makes the filesystem the arbiter: of N racing
    workers exactly one sees the create succeed.
    """
    try:
        fd = open_creating_parents(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return False
    try:
        os.write(fd, _claim_bytes(digest, owner))
    finally:
        os.close(fd)
    return True


def _claim_bytes(digest: str, owner: str, **fields) -> bytes:
    """A claim file's payload: who holds ``digest``, plus ``fields``."""
    payload = {
        "schema": CLAIM_SCHEMA, "digest": digest, "owner": owner, "pid": os.getpid(),
        **fields,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _fail_claim(path: str, digest: str, owner: str, error: Exception) -> None:
    """Rewrite a held claim as its cell's failure record (atomic rename)."""
    trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    failed = {
        "type": type(error).__name__,
        "message": str(error),
        "traceback_sha256": hashlib.sha256(trace.encode("utf-8")).hexdigest(),
    }
    tmp = _tmp_name(path)
    fd = open_creating_parents(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        os.write(fd, _claim_bytes(digest, owner, failed=failed))
    finally:
        os.close(fd)
    os.replace(tmp, path)


def release_claim(path: str | os.PathLike) -> None:
    """Drop a claim (idempotent: an already-reaped claim is a no-op)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def read_claim(path: str | os.PathLike) -> dict | None:
    """The claim payload, or ``None`` when unreadable/foreign/corrupt."""
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(raw, dict) or raw.get("schema") != CLAIM_SCHEMA:
        return None
    return raw


@dataclass(frozen=True)
class ClaimInfo:
    """One live, orphaned or failed claim, as seen by a queue scan.

    A failure claim is never ``stale``: it stays until removed.
    """

    digest: str
    owner: str
    age: float
    stale: bool
    failed: bool


def scan_claims(
    cache_root: str | os.PathLike,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    now: float | None = None,
) -> list[ClaimInfo]:
    """Every claim under a cache dir, sorted by digest.

    Claims that vanish mid-scan (released or reaped by someone else)
    are simply skipped.
    """
    root = pathlib.Path(cache_root)
    if not root.is_dir():
        return []
    if now is None:
        now = _wall_now()
    found = []
    for path in sorted(root.glob("*.claim")):
        try:
            age = max(0.0, now - path.stat().st_mtime)
        except OSError:
            continue
        payload = read_claim(path) or {}
        failed = "failed" in payload
        found.append(
            ClaimInfo(
                digest=path.name[: -len(".claim")],
                owner=str(payload.get("owner", "?")),
                age=age,
                stale=not failed and age > heartbeat_timeout,
                failed=failed,
            )
        )
    return found


def reap_stale_claims(
    cache_root: str | os.PathLike,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    now: float | None = None,
) -> list[str]:
    """Remove orphaned claims; returns the digests reaped *here*.

    Exactly-once accounting: the claim is first renamed to a
    per-process tomb with ``os.replace`` — atomic, and succeeding for
    at most one contender — then unlinked.  A worker whose rename loses
    the race counts nothing.
    """
    reaped = []
    for claim in scan_claims(cache_root, heartbeat_timeout, now=now):
        if not claim.stale:
            continue
        path = pathlib.Path(cache_root) / f"{claim.digest}.claim"
        tomb = path.with_name(f"{path.name}.tomb.{os.getpid()}")
        try:
            os.replace(path, tomb)
        except FileNotFoundError:
            continue  # released, or another worker won the reap
        try:
            os.unlink(tomb)
        except FileNotFoundError:
            pass
        reaped.append(claim.digest)
    return reaped


class _Heartbeat(threading.Thread):
    """Touches the executing cell's claim every ``interval`` seconds.

    One thread serves a whole :func:`run_sweep_worker` call: the worker
    sets :attr:`claim` before a cell executes and clears it afterwards,
    and the thread touches whatever it finds there.
    """

    def __init__(self, interval: float) -> None:
        super().__init__(name="sweep-heartbeat", daemon=True)
        #: Path of the claim being executed now; None between cells.
        self.claim: str | None = None
        self._interval = interval
        # Not named _stop: threading.Thread owns a private _stop method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            claim = self.claim
            if claim is None:
                continue
            try:
                os.utime(claim, None)
            except OSError:
                # Released since it was read, or reaped under us
                # (executing on is still safe): nothing to keep fresh.
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self._interval + 1.0)


# -- the worker loop ------------------------------------------------------


@dataclass(frozen=True)
class WorkerSummary:
    """What one :func:`run_sweep_worker` call did.

    Attributes:
        owner: the worker id used for claims and the shard file.
        executed: cells this worker simulated and cached.
        reaped: stale claims this worker removed (exactly-once counts).
        passes: grid passes made before exiting.
        outstanding: cells still claimed by *other* workers at exit
            (zero means every cell was complete or failed when this
            worker left).
    """

    owner: str
    executed: int
    reaped: int
    passes: int
    outstanding: int


def run_sweep_worker(
    spec: SweepSpec,
    cache: ResultCache,
    owner: str | None = None,
    *,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    heartbeat_interval: float | None = None,
    wait: bool = False,
    poll_interval: float = 0.5,
    preflight: bool = False,
    telemetry_dir: str | os.PathLike | None = None,
) -> WorkerSummary:
    """Execute one worker's share of a sweep; returns its summary.

    The worker streams the grid (never materializing it), skipping
    completed cells, claiming and executing unclaimed ones, and reaping
    stale claims at the top of each pass.  It exits when every cell is
    complete or failed — or, with ``wait=False`` (the default), as soon
    as the only cells left are claimed by live peers.  ``wait=True`` keeps
    polling until the whole sweep is done, which makes the call a
    barrier: when it returns with ``outstanding == 0`` the aggregate
    can be built.  Only the first pass walks the grid; later passes
    revisit just the cells the pass before found claimed by a live peer
    (so a cache cleared mid-sweep is not noticed: cells this call saw
    complete stay done).

    Each claimed cell runs :func:`~repro.experiments.campaign.runner.execute_job`
    and the runner's one store step
    (:func:`~repro.experiments.campaign.runner.store`); what the queue
    adds around them is the claim, its heartbeat, the shard row and the
    release.  One heartbeat thread, started at the first cell this call
    executes, keeps the executing cell's claim fresh; it is stopped and
    joined before the call returns or raises.

    Failure rule: when a cell's job or its store step raises an
    :class:`Exception`, its claim becomes a failure claim (see the
    module notes) and the worker goes on with the other cells; the
    first such exception is re-raised once the grid is done.  Anything
    else (``KeyboardInterrupt``, a kill) leaves the claim to go stale.

    Interruption-safety: a killed worker leaves its claim to go stale
    (reaped by the next pass of any peer after ``heartbeat_timeout``)
    and at most one torn shard line (skipped by the aggregator); cells
    it completed are ordinary cache entries, so its replacement resumes
    exactly where it died.
    """
    if heartbeat_timeout <= 0:
        raise ConfigurationError(
            f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
        )
    if owner is None:
        owner = default_owner()
    if heartbeat_interval is None:
        heartbeat_interval = max(0.05, heartbeat_timeout / 4.0)
    sweep_digest = spec.digest()
    # Claim and shard names, built once: pathlib would re-parse the cache
    # root for every cell.
    claim_prefix = os.path.join(cache.root, "")
    shard = os.fspath(shard_path(cache.root, sweep_digest, owner))

    executed = 0
    reaped = 0
    passes = 0
    entries = []
    heartbeat = None
    failure = None
    # The first pass streams the grid; a later one revisits only the
    # cells the pass before found claimed by a live peer.
    cells = spec.jobs()
    try:
        while True:
            passes += 1
            reaped += len(reap_stale_claims(cache.root, heartbeat_timeout))
            claimed_elsewhere = []
            progress = False
            for params, job in cells:
                digest = job.digest()
                if digest in cache:
                    if passes == 1:
                        # Resume semantics in the lifetime stats: every
                        # cell this worker found already complete was
                        # served from the cache (a warm re-run shows
                        # cells == hits).
                        cache.hits += 1
                    continue
                claim = f"{claim_prefix}{digest}.claim"
                if not _claim(claim, digest, owner):
                    if "failed" not in (read_claim(claim) or ()):
                        claimed_elsewhere.append((params, job))
                    continue
                if digest in cache:
                    # Completed between our membership check and the claim.
                    release_claim(claim)
                    continue
                if preflight:
                    try:
                        preflight_jobs(
                            {digest: job}, f"sweep pre-flight rejected job {digest[:12]}"
                        )
                    except ConfigurationError:
                        release_claim(claim)
                        raise
                if heartbeat is None:
                    heartbeat = _Heartbeat(heartbeat_interval)
                    heartbeat.start()
                heartbeat.claim = claim
                try:
                    record = store(cache, execute_job(job))
                except Exception as error:
                    heartbeat.claim = None
                    _fail_claim(claim, digest, owner, error)
                    if failure is None:
                        failure = error
                    continue
                heartbeat.claim = None
                _append_shard_row(
                    shard, sweep_digest, digest, params,
                    metric_row(spec, job.scenario, record),
                )
                release_claim(claim)
                executed += 1
                progress = True
                if record.telemetry is not None:
                    entries.append(record.telemetry)
            if not claimed_elsewhere:
                break
            if not progress:
                if not wait:
                    break
                time.sleep(poll_interval)
            cells = claimed_elsewhere
    finally:
        if heartbeat is not None:
            heartbeat.stop()

    if telemetry_dir is not None and entries:
        write_telemetry(telemetry_dir, entries)
    cache.persist_stats()
    if failure is not None:
        raise failure
    return WorkerSummary(
        owner=owner,
        executed=executed,
        reaped=reaped,
        passes=passes,
        outstanding=len(claimed_elsewhere),
    )


# -- status ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepStatus:
    """Queue state of one sweep against one cache directory."""

    cells: int
    completed: int
    claimed: int
    orphaned: int
    pending: int
    failed: int

    @property
    def complete(self) -> bool:
        return self.cells > 0 and self.completed == self.cells


def sweep_status(
    spec: SweepSpec,
    cache: ResultCache,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> SweepStatus:
    """Walk the grid and classify every cell (streaming, O(1) memory)."""
    failed_digests = set()
    stale_digests = set()
    live_digests = set()
    for claim in scan_claims(cache.root, heartbeat_timeout):
        if claim.failed:
            failed_digests.add(claim.digest)
        else:
            (stale_digests if claim.stale else live_digests).add(claim.digest)
    cells = completed = claimed = orphaned = pending = failed = 0
    for _params, job in spec.jobs():
        digest = job.digest()
        cells += 1
        if digest in cache:
            completed += 1
        elif digest in failed_digests:
            failed += 1
        elif digest in live_digests:
            claimed += 1
        elif digest in stale_digests:
            orphaned += 1
        else:
            pending += 1
    return SweepStatus(
        cells=cells,
        completed=completed,
        claimed=claimed,
        orphaned=orphaned,
        pending=pending,
        failed=failed,
    )

