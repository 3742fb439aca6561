"""Content-addressed on-disk result cache.

Entries live at ``<root>/<digest>.json`` where ``digest`` is the
:meth:`~repro.experiments.campaign.job.ScenarioJob.digest` of the job
that produced the record — one job family, one record layout, one
:data:`~repro.experiments.campaign.job.CAMPAIGN_SCHEMA` tag for every
scenario shape.  Because the digest covers every input and the tag,
invalidation is automatic: change any input or bump the schema and the
lookup simply misses.  Unreadable, corrupt, or schema-mismatched entries
are treated as misses, never as errors — a cache must not be able to
fail a campaign.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

from repro.errors import ConfigurationError
from repro.experiments.campaign.record import ScenarioRecord
from repro.obs.telemetry import JobTelemetry, batch_digest

__all__ = [
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "open_creating_parents",
    "write_telemetry",
]

#: Default location, relative to the working directory (kept under
#: ``results/`` next to the rendered figures it accelerates).
DEFAULT_CACHE_DIR = pathlib.Path("results") / "cache"

#: Name of the persisted hit/miss counters file.  Deliberately not a
#: ``.json`` name: :meth:`ResultCache.entries` globs ``*.json`` and the
#: stats file must never be mistaken for a cache entry.
_STATS_NAME = "stats.meta"


def open_creating_parents(path: str, flags: int) -> int:
    """``os.open(path, flags, 0o644)``, making missing directories on a miss.

    A cache directory exists from its first file on, so its writers
    (entry, stats, claim, telemetry) open first and create directories
    only on the ``FileNotFoundError`` of a first write, instead of a
    ``mkdir(parents=True, exist_ok=True)`` before every one.
    """
    try:
        return os.open(path, flags, 0o644)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return os.open(path, flags, 0o644)


def _tmp_name(stem: str) -> str:
    """A scratch name beside ``stem`` no other writer uses: the pid tells
    processes apart, the thread id workers sharing one process."""
    return f"{stem}.tmp.{os.getpid()}.{threading.get_ident()}"


def write_telemetry(
    directory: str | os.PathLike, entries: list[JobTelemetry]
) -> pathlib.Path:
    """Write one JSONL telemetry file for a batch of jobs.

    The file name derives from the batch's job digests, so re-running the
    same batch overwrites its own telemetry instead of accumulating
    duplicates; like a cache entry it lands by atomic rename of a
    per-thread scratch file.  Returns the file path.
    """
    name = batch_digest([entry.job_digest for entry in entries])
    stem = os.path.join(directory, f"campaign-{name}")
    payload = "".join(json.dumps(entry.to_dict()) + "\n" for entry in entries)
    tmp = _tmp_name(stem)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    with open(open_creating_parents(tmp, flags), "w", encoding="utf-8") as handle:
        handle.write(payload)
    path = stem + ".jsonl"
    os.replace(tmp, path)
    return pathlib.Path(path)


class ResultCache:
    """Digest-keyed store of :class:`ScenarioRecord` JSON files.

    Args:
        root: cache directory; created lazily on the first store.
    """

    __slots__ = ("root", "_prefix", "hits", "misses", "stores")

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = pathlib.Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(f"cache root {self.root} is not a directory")
        # Per-cell lookups and stores name entries by string
        # concatenation: a pathlib join re-parses the path on every call.
        self._prefix = os.path.join(self.root, "")
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path(self, digest: str) -> pathlib.Path:
        """Where the entry for ``digest`` lives (whether or not it exists)."""
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> ScenarioRecord | None:
        """The cached record for ``digest``, or ``None`` on any miss.

        Entries written under another schema tag (the retired
        ``repro-campaign-v1`` / ``repro-campaign-net-v3`` forms included)
        fail :meth:`ScenarioRecord.from_dict` and are misses like any
        other unreadable file: they are re-simulated, never migrated.
        """
        try:
            with open(f"{self._prefix}{digest}.json", encoding="utf-8") as handle:
                record = ScenarioRecord.from_dict(json.loads(handle.read()))
        except (
            OSError, ConfigurationError, AttributeError, KeyError, TypeError, ValueError
        ):
            # Unreadable, not JSON, not an object, another schema, torn.
            self.misses += 1
            return None
        if record.job_digest != digest:
            # The file was renamed or tampered with; content addressing
            # means the name must match the payload.
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, record: ScenarioRecord) -> None:
        """Store a record at :meth:`path` of its job digest (atomic rename)."""
        # One line, no indent: that is the form the C encoder writes.  An
        # indented entry goes through the pure-Python encoder, a
        # generator resume per token per nesting level — ~3,000 calls
        # for a one-link record, most of a short cell's fixed cost.
        payload = json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))
        stem = self._prefix + record.job_digest
        tmp = _tmp_name(stem)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        with open(open_creating_parents(tmp, flags), "wb") as handle:
            handle.write((payload + "\n").encode("utf-8"))
        os.replace(tmp, stem + ".json")
        self.stores += 1

    def __contains__(self, digest: str) -> bool:
        return os.path.isfile(f"{self._prefix}{digest}.json")

    # -- persisted accounting ----------------------------------------------

    @property
    def stats_path(self) -> pathlib.Path:
        """Where the cumulative hit/miss counters are persisted."""
        return self.root / _STATS_NAME

    def persisted_stats(self) -> dict:
        """Cumulative counters from earlier runs (zeros when absent).

        Like entry lookups, an unreadable or corrupt stats file is a
        non-event — the counters simply restart from zero.
        """
        try:
            raw = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raw = {}
        if not isinstance(raw, dict):
            raw = {}
        return {
            key: int(raw.get(key, 0) or 0)
            for key in ("hits", "misses", "stores")
        }

    def persist_stats(self) -> dict:
        """Fold this instance's counters into the on-disk totals.

        The in-memory counters are reset afterwards, so calling this
        after every batch accumulates exactly once per lookup.  Returns
        the updated cumulative counters.
        """
        totals = self.persisted_stats()
        totals["hits"] += self.hits
        totals["misses"] += self.misses
        totals["stores"] += self.stores
        self.hits = 0
        self.misses = 0
        self.stores = 0
        tmp = _tmp_name(self._prefix + "stats")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        with open(open_creating_parents(tmp, flags), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(totals, sort_keys=True) + "\n")
        os.replace(tmp, self.stats_path)
        return totals

    def entries(self) -> list[pathlib.Path]:
        """All entry files, sorted by name (i.e. by digest)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def size_bytes(self) -> int:
        """Total bytes used by cache entries."""
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry (and the persisted counters); returns how
        many entries were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        try:
            self.stats_path.unlink()
        except OSError:
            pass
        return removed
