"""Schema-versioned benchmark baselines.

A baseline is the serialised output of one suite run on one machine
class, stored as ``BENCH_<host-tag>.json``.  The file carries:

* a ``schema`` tag (:data:`BENCH_SCHEMA`) — bumped on any change to the
  layout, so stale files fail loudly instead of half-parsing;
* the host tag plus the interpreter/platform strings it was measured on;
* one entry per case, each pinned to the case's content digest (the
  campaign job digest for macro cases);
* a SHA-256 ``digest`` over the canonical JSON of everything above, in
  the same canonical form the campaign pipeline uses — a hand-edited
  (or merge-mangled) baseline is detected at load time.

Writes are atomic (temp file + ``os.replace``), matching the campaign
result cache, so a crashed run never leaves a torn baseline behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
from dataclasses import dataclass
from pathlib import Path

from repro.bench.measure import CaseResult
from repro.errors import ConfigurationError

__all__ = ["BENCH_SCHEMA", "BenchBaseline", "default_host_tag", "baseline_filename"]

#: Format version tag; bump when the baseline layout changes.
#: v2: baselines recorded an event-queue ``backend`` field.
#: v3: the field is gone (there is one event queue).
BENCH_SCHEMA = "repro-bench-v3"

_TAG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def default_host_tag() -> str:
    """A coarse machine-class tag, e.g. ``linux-x86_64-py3.12``.

    Deliberately coarse: baselines are comparable across runs on the
    same OS/arch/Python tier, not pinned to one hostname.  Pass an
    explicit ``--host-tag`` (e.g. ``ci-reference``) to name a baseline
    independently of where it was recorded.
    """
    tag = (
        f"{platform.system().lower()}-{platform.machine().lower()}"
        f"-py{platform.python_version_tuple()[0]}.{platform.python_version_tuple()[1]}"
    )
    return _TAG_RE.sub("-", tag)


def baseline_filename(host_tag: str) -> str:
    cleaned = _TAG_RE.sub("-", host_tag).strip("-")
    if not cleaned:
        raise ConfigurationError(f"host tag {host_tag!r} is empty after sanitising")
    return f"BENCH_{cleaned}.json"


@dataclass(frozen=True)
class BenchBaseline:
    """One suite run, ready to be stored or compared against."""

    host_tag: str
    python: str
    platform: str
    cases: tuple[CaseResult, ...]

    def __post_init__(self) -> None:
        names = [case.name for case in self.cases]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate case names in baseline: {names}")

    @staticmethod
    def from_results(results, host_tag: str | None = None) -> "BenchBaseline":
        return BenchBaseline(
            host_tag=host_tag or default_host_tag(),
            python=platform.python_version(),
            platform=f"{platform.system()}-{platform.machine()}",
            cases=tuple(results),
        )

    def case(self, name: str) -> CaseResult | None:
        for case in self.cases:
            if case.name == name:
                return case
        return None

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """Payload without the integrity digest (which is computed over
        exactly this canonical form)."""
        return {
            "schema": BENCH_SCHEMA,
            "host_tag": self.host_tag,
            "python": self.python,
            "platform": self.platform,
            "cases": {case.name: case.to_dict() for case in self.cases},
        }

    def digest(self) -> str:
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def write(self, directory: str | Path) -> Path:
        """Atomically write ``BENCH_<host-tag>.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / baseline_filename(self.host_tag)
        payload = dict(self.to_dict(), digest=self.digest())
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(tmp, path)
        return path

    @staticmethod
    def load(path: str | Path) -> "BenchBaseline":
        """Load and verify a baseline file.

        Raises :class:`~repro.errors.ConfigurationError` on a missing
        file, wrong schema, or integrity-digest mismatch.
        """
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigurationError(f"baseline not found: {path}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable baseline {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"baseline {path} is not a JSON object")
        schema = raw.get("schema")
        if schema != BENCH_SCHEMA:
            raise ConfigurationError(
                f"baseline schema mismatch in {path}: got {schema!r}, "
                f"expected {BENCH_SCHEMA!r}"
            )
        try:
            baseline = BenchBaseline(
                host_tag=str(raw["host_tag"]),
                python=str(raw["python"]),
                platform=str(raw["platform"]),
                cases=tuple(
                    CaseResult.from_dict(case) for case in raw["cases"].values()
                ),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(f"malformed baseline {path}: {exc}") from exc
        stored = raw.get("digest")
        if stored != baseline.digest():
            raise ConfigurationError(
                f"baseline {path} failed integrity check: stored digest "
                f"{stored!r} != recomputed {baseline.digest()!r} "
                "(hand-edited or corrupted; re-run 'repro bench update-baseline')"
            )
        return baseline
