"""The invariant auditor's file leg: specs and artifacts (RPR203/205/206).

:func:`check_data_file` reads and parses each ``*.json``, ``*.jsonl`` or
``*.claim`` file once and routes it: a scenario spec goes to
:func:`repro.check.invariants.check_spec_data`, a schema-tagged artifact
to the audits below.

Every artifact family the repo commits or caches carries a ``schema``
version tag written by its producer; readers reject mismatches at use
time.  This module checks the committed files *ahead* of use, so a
schema bump that forgets to regenerate goldens/caches fails CI at the
``repro check`` gate rather than deep inside a campaign:

* campaign cache records — the one
  :data:`repro.experiments.campaign.job.CAMPAIGN_SCHEMA` (a stale
  ``repro-campaign-v1`` entry is drift; the retired
  ``repro-campaign-net`` family is unknown); a current entry must decode
  through :meth:`~repro.experiments.campaign.record.ScenarioRecord.from_dict`
  and, under a ``<digest>.json`` name, carry that job digest — what
  :meth:`~repro.experiments.campaign.cache.ResultCache.get` demands of a
  hit;
* equivalence goldens — the ``repro-equivalence-v1`` tag the golden test
  asserts;
* JSONL trace files — the :data:`repro.obs.events.TRACE_SCHEMA` header,
  plus capacity conservation of any pool snapshots they carry (RPR206);
* JSONL telemetry files — :data:`repro.obs.telemetry.TELEMETRY_SCHEMA`
  per line;
* JSONL timeline exports — the :data:`repro.obs.timeline.TIMELINE_SCHEMA`
  header written by :meth:`repro.obs.timeline.Timeline.write_jsonl`;
* sweep specs / aggregates — the :mod:`repro.experiments.sweep`
  family (``repro-sweep-spec-v1`` round-trips through the DSL loader,
  and a ``repro-sweep-v1`` aggregate must carry the digest of its
  embedded spec);
* work-queue claim files (``<digest>.claim``) — the
  :data:`repro.experiments.sweep.queue.CLAIM_SCHEMA` payload, whose
  ``digest`` field must match the file name.

Tags are matched by family (the part before the ``-v<N>`` suffix), so a
stale ``repro-timeline-v0`` is reported as *drift* against the current
``repro-timeline-v1`` rather than as an unknown artifact.
"""

from __future__ import annotations

import json
import pathlib
import re

from repro.check.findings import Finding
from repro.check.invariants import check_spec_data
from repro.errors import ConfigurationError
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA
from repro.experiments.campaign.record import ScenarioRecord
from repro.experiments.sweep.aggregate import AGGREGATE_SCHEMA
from repro.experiments.sweep.queue import CLAIM_SCHEMA
from repro.experiments.sweep.spec import SWEEP_SPEC_SCHEMA, SweepSpec
from repro.obs.events import TRACE_SCHEMA
from repro.obs.telemetry import TELEMETRY_SCHEMA
from repro.obs.timeline import TIMELINE_SCHEMA

__all__ = [
    "check_data_file",
]

#: The tag tests/test_equivalence.py pins for the committed goldens.
GOLDENS_SCHEMA = "repro-equivalence-v1"

#: family -> the tag current producers write.
KNOWN_SCHEMAS: dict[str, str] = {
    "repro-campaign": CAMPAIGN_SCHEMA,
    "repro-equivalence": GOLDENS_SCHEMA,
    "repro-trace": TRACE_SCHEMA,
    "repro-telemetry": TELEMETRY_SCHEMA,
    "repro-timeline": TIMELINE_SCHEMA,
    "repro-sweep": AGGREGATE_SCHEMA,
    "repro-sweep-spec": SWEEP_SPEC_SCHEMA,
    "repro-claim": CLAIM_SCHEMA,
}

#: A cache entry's file stem: the 64-hex job digest it is stored under.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")

#: Top-level keys that make a JSON object a scenario spec (with ``name``).
_SPEC_KEYS = ("scheme", "network")


def schema_family(tag: str) -> str:
    """``repro-trace-v1`` -> ``repro-trace`` ('' when not versioned)."""
    family, sep, version = tag.rpartition("-v")
    if not sep or not version.isdigit():
        return ""
    return family


def _check_tag(tag, path: str, line: int = 1) -> list[Finding]:
    """Compare one schema tag against the current producer's tag."""
    if not isinstance(tag, str) or not tag:
        return [
            Finding(
                "RPR205",
                "artifact has no usable 'schema' tag; every committed "
                "artifact must declare its schema version",
                path,
                line,
            )
        ]
    family = schema_family(tag)
    expected = KNOWN_SCHEMAS.get(family)
    if expected is None:
        return [
            Finding(
                "RPR205",
                f"unknown artifact schema family {tag!r}; known: "
                + ", ".join(sorted(KNOWN_SCHEMAS.values())),
                path,
                line,
            )
        ]
    if tag != expected:
        return [
            Finding(
                "RPR205",
                f"schema drift: artifact declares {tag!r} but current "
                f"producers write {expected!r}; regenerate the artifact "
                "(or bump it) before relying on it",
                path,
                line,
            )
        ]
    return []


def _check_sweep_spec(path: pathlib.Path, raw: dict) -> list[Finding]:
    """A committed sweep spec must round-trip through the DSL loader."""
    try:
        SweepSpec.from_dict(raw)
    except ConfigurationError as exc:
        return [Finding("RPR205", f"sweep spec rejected: {exc}", str(path), 1)]
    return []


def _check_sweep_aggregate(path: pathlib.Path, raw: dict) -> list[Finding]:
    """An aggregate must carry a valid spec whose digest it is keyed by."""
    embedded = raw.get("sweep")
    if not isinstance(embedded, dict):
        return [
            Finding(
                "RPR205",
                "sweep aggregate lacks its embedded sweep spec object",
                str(path),
                1,
            )
        ]
    try:
        spec = SweepSpec.from_dict(embedded)
    except ConfigurationError as exc:
        return [
            Finding(
                "RPR205",
                f"sweep aggregate embeds an invalid spec: {exc}",
                str(path),
                1,
            )
        ]
    declared = raw.get("sweep_digest")
    if declared != spec.digest():
        return [
            Finding(
                "RPR205",
                f"sweep aggregate digest mismatch: declares {declared!r} "
                f"but the embedded spec hashes to {spec.digest()!r}",
                str(path),
                1,
            )
        ]
    return []


def _check_cache_entry(path: pathlib.Path, raw: dict) -> list[Finding]:
    """A cache entry must be a hit for :meth:`ResultCache.get`: a record
    that decodes, stored under the name of its own job digest."""
    try:
        record = ScenarioRecord.from_dict(raw)
    except (ConfigurationError, AttributeError, KeyError, TypeError, ValueError) as exc:
        return [Finding("RPR205", f"campaign record does not decode: {exc!r}", str(path), 1)]
    stem = path.stem
    if _DIGEST_RE.fullmatch(stem) and record.job_digest != stem:
        return [
            Finding(
                "RPR205",
                f"cache entry digest mismatch: file is named {stem[:16]}... "
                f"but the record holds job {record.job_digest[:16]}...",
                str(path),
                1,
            )
        ]
    return []


def _check_json_artifact(path: pathlib.Path, raw: dict) -> list[Finding]:
    tag = raw.get("schema")
    findings = _check_tag(tag, str(path))
    if findings:
        return findings
    if tag == CAMPAIGN_SCHEMA:
        findings.extend(_check_cache_entry(path, raw))
    elif tag == SWEEP_SPEC_SCHEMA:
        findings.extend(_check_sweep_spec(path, raw))
    elif tag == AGGREGATE_SCHEMA:
        findings.extend(_check_sweep_aggregate(path, raw))
    return findings


def _check_jsonl_artifact(path: pathlib.Path, text: str) -> list[Finding]:
    """Trace files validate the header line; telemetry every line."""
    findings: list[Finding] = []
    first_tag: str | None = None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            findings.append(
                Finding("RPR205", f"unparsable JSONL line: {exc}", str(path), number)
            )
            break
        if not isinstance(entry, dict):
            findings.append(
                Finding("RPR205", "JSONL line is not an object", str(path), number)
            )
            break
        tag = entry.get("schema")
        if first_tag is None:
            if tag is None:
                findings.append(
                    Finding(
                        "RPR205",
                        "JSONL artifact does not start with a schema-tagged "
                        "header/entry",
                        str(path),
                        number,
                    )
                )
                break
            findings.extend(_check_tag(tag, str(path), number))
            first_tag = tag if isinstance(tag, str) else ""
            if findings:
                break
            if schema_family(first_tag) == "repro-trace":
                # Trace bodies carry one event per line; pool snapshots
                # in them are auditable for conservation (RPR206).
                findings.extend(_check_trace_pool_lines(path, text, number))
                break
            if schema_family(first_tag) != "repro-telemetry":
                break  # other artifacts only tag the header line
        elif tag is not None and tag != first_tag:
            findings.append(
                Finding(
                    "RPR205",
                    f"inconsistent schema tags within one artifact: "
                    f"{first_tag!r} then {tag!r}",
                    str(path),
                    number,
                )
            )
            break
    return findings


#: Conservation tolerance in bytes; matches BufferPool.check().
_POOL_BALANCE_TOL = 1e-3
#: Component non-negativity slack; matches the pool's epsilon.
_POOL_COMPONENT_TOL = 1e-6


def _check_trace_pool_lines(
    path: pathlib.Path, text: str, header_line: int
) -> list[Finding]:
    """RPR206: every pool snapshot in a trace must conserve capacity.

    A :class:`~repro.obs.events.PoolEvent` is the pool's accounting at
    one transition; ``reserved + headroom + holes`` must equal the
    capacity ``B`` and no component may be negative.  Lines that are not
    pool events (or do not parse) are skipped — the schema audit above
    already vouched for the header, and trace bodies are free-form
    event streams.
    """
    findings: list[Finding] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if number <= header_line or not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(entry, dict) or entry.get("kind") != "pool":
            continue
        try:
            reserved = float(entry["reserved"])
            headroom = float(entry["headroom"])
            holes = float(entry["holes"])
            capacity = float(entry["capacity"])
            flows = int(entry["flows"])
        except (KeyError, TypeError, ValueError) as exc:
            findings.append(
                Finding(
                    "RPR206",
                    f"malformed pool event: {exc!r}",
                    str(path),
                    number,
                )
            )
            continue
        for label, value in (
            ("reserved", reserved),
            ("headroom", headroom),
            ("holes", holes),
        ):
            if not value >= -_POOL_COMPONENT_TOL:  # `not >=`, so that NaN is flagged too
                findings.append(
                    Finding(
                        "RPR206",
                        f"pool {label} is negative ({value!r}) at "
                        f"t={entry.get('time')}",
                        str(path),
                        number,
                    )
                )
        if flows < 0:
            findings.append(
                Finding(
                    "RPR206",
                    f"pool flow count is negative ({flows}) at "
                    f"t={entry.get('time')}",
                    str(path),
                    number,
                )
            )
        imbalance = reserved + headroom + holes - capacity
        if not abs(imbalance) <= _POOL_BALANCE_TOL:
            findings.append(
                Finding(
                    "RPR206",
                    f"pool does not conserve capacity at "
                    f"t={entry.get('time')}: reserved {reserved!r} + "
                    f"headroom {headroom!r} + holes {holes!r} deviates "
                    f"from B={capacity!r} by {imbalance!r} bytes",
                    str(path),
                    number,
                )
            )
    return findings


def _check_claim_artifact(path: pathlib.Path, text: str) -> list[Finding]:
    """A claim file, live or a failure record: current schema, digest
    matching the file name."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Finding("RPR205", f"not valid JSON: {exc}", str(path), 1)]
    if not isinstance(raw, dict):
        return [
            Finding("RPR205", "claim file is not a JSON object", str(path), 1)
        ]
    findings = _check_tag(raw.get("schema"), str(path))
    if findings:
        return findings
    declared = raw.get("digest")
    expected = path.name[: -len(".claim")]
    if declared != expected:
        findings.append(
            Finding(
                "RPR205",
                f"claim digest mismatch: file is named {expected[:16]}... "
                f"but the payload claims {str(declared)[:16]}...",
                str(path),
                1,
            )
        )
    return findings


def check_artifact_file(path: str | pathlib.Path) -> list[Finding]:
    """Audit one artifact file; [] when its schema tags are current.

    ``.jsonl`` files are treated as trace/telemetry/timeline streams,
    ``.claim`` files as work-queue claims; ``.json`` files must be
    objects carrying a top-level ``schema`` tag.
    """
    file_path = pathlib.Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Finding("RPR205", f"cannot read artifact: {exc}", str(path), 1)]
    if file_path.suffix == ".claim":
        return _check_claim_artifact(file_path, text)
    if file_path.suffix == ".jsonl":
        return _check_jsonl_artifact(file_path, text)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Finding("RPR205", f"not valid JSON: {exc}", str(path), 1)]
    if not isinstance(raw, dict):
        return [
            Finding(
                "RPR205",
                "artifact must be a JSON object with a 'schema' tag",
                str(path),
                1,
            )
        ]
    return _check_json_artifact(file_path, raw)


def _is_spec(raw) -> bool:
    """A spec object, or a non-empty list of them."""
    entries = raw if isinstance(raw, list) else [raw]
    return bool(entries) and all(
        isinstance(entry, dict)
        and "name" in entry
        and any(key in entry for key in _SPEC_KEYS)
        for entry in entries
    )


def check_data_file(path: pathlib.Path, explicit: bool) -> list[Finding]:
    """Audit one spec or artifact file, read and parsed once.

    ``*.jsonl`` and ``*.claim`` files are artifacts; a JSON object with a
    ``schema`` tag is an artifact, a spec object (a ``name`` plus a
    ``scheme`` or ``network`` key) or a list of them is a scenario spec.
    Anything else is an RPR203 finding when ``explicit`` (the file was
    named on the command line) and skipped otherwise.
    """
    if path.suffix in (".jsonl", ".claim"):
        return check_artifact_file(path)
    name = str(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return [Finding("RPR203", f"cannot read spec file: {exc}", name, 1)]
    except ValueError as exc:  # not JSON, or not UTF-8
        return [Finding("RPR203", f"not valid JSON: {exc}", name, 1)]
    if isinstance(raw, dict) and "schema" in raw:
        return _check_json_artifact(path, raw)
    if _is_spec(raw):
        return check_spec_data(raw, name)
    if not explicit:
        return []
    message = "unrecognized file: neither a scenario/spec object nor a schema-tagged artifact"
    return [Finding("RPR203", message, name, 1)]
