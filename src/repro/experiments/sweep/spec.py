"""The sweep DSL: frozen, lazily-expanded cartesian parameter grids.

A :class:`SweepSpec` describes a whole campaign — thousands of
``(buffer size x scheme x seed x topology x churn load)`` points — as
one small, JSON-round-trippable value.  Expansion is *lazy*:
:meth:`SweepSpec.cells` and :meth:`SweepSpec.jobs` are generators that
yield one parameter combination (and one content-addressed
:class:`~repro.experiments.campaign.job.ScenarioJob`) at a time, so
a 10,000-cell grid costs the same peak memory as a 10-cell one.  That
property is what lets the work-queue runner (:mod:`.queue`) stream a
grid past the claim files instead of materializing a batch.

A grid's ``kind`` names which parameter table of
:data:`repro.experiments.spec.PARAMETERS` its axes and base values come
from — ``"scenario"`` (one link over a named workload) or ``"network"``
(the reference tandem); the table types every declared value at the
describe stage and :func:`~repro.experiments.spec.scenario_from_params`
turns each cell into its job, exactly as it does for a spec entry.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import ConfigurationError
from repro.experiments.campaign.job import ScenarioJob
from repro.experiments.spec import (
    CONFORMANT_SETS,
    DEFAULTS,
    check_param,
    scenario_from_params,
    validate_metrics,
)

__all__ = [
    "SWEEP_SPEC_SCHEMA",
    "SweepAxis",
    "SweepSpec",
    "load_sweep",
]

#: Version tag on serialized sweep specifications.  Bump whenever a
#: parameter's meaning or the expansion order changes: the sweep digest
#: covers this tag, so old cache entries and aggregates then miss
#: instead of silently mixing generations.
SWEEP_SPEC_SCHEMA = "repro-sweep-spec-v1"

#: Metrics aggregated when a spec names none (they enter its digest).
DEFAULT_METRICS = {
    "scenario": ("utilization", "loss"),
    "network": ("delivered", "blocking"),
}

_SCALAR_TYPES = (str, int, float, bool)


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, _SCALAR_TYPES)


def _check_keys(
    raw: object, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Every key is honoured or refused: a misspelt one would otherwise
    fall back to its default without a word, and a missing one is named
    rather than left to a ``KeyError``."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(raw).__name__} {raw!r}"
        )
    valid = required + optional
    for key in raw:
        if key not in valid:
            raise ConfigurationError(
                f"unknown {what} key {key!r}; valid: {sorted(valid)}"
            )
    for key in required:
        if key not in raw:
            raise ConfigurationError(f"{what} missing required key {key!r}")


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name and its ordered value list."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"axis name must be a string, got {self.name!r}")
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")
        for value in self.values:
            if not _is_scalar(value):
                raise ConfigurationError(
                    f"axis {self.name!r} value {value!r} is not a JSON scalar"
                )
        if len(set(map(repr, self.values))) != len(self.values):
            raise ConfigurationError(f"axis {self.name!r} repeats a value")

    def to_dict(self) -> dict:
        return {"name": self.name, "values": list(self.values)}

    @staticmethod
    def from_dict(raw: dict) -> "SweepAxis":
        _check_keys(raw, "axis", ("name", "values"))
        if not isinstance(raw["values"], list):
            # A string would otherwise sweep over its characters.
            raise ConfigurationError(
                f"axis {raw['name']!r} values must be a list, got {raw['values']!r}"
            )
        return SweepAxis(name=str(raw["name"]), values=tuple(raw["values"]))


@dataclass(frozen=True)
class SweepSpec:
    """A frozen description of one whole parameter-grid campaign.

    Attributes:
        name: human label; enters the digest.
        kind: ``"scenario"`` (single-port) or ``"network"`` (tandem
            fabric).
        axes: the swept parameters, outermost first — expansion is
            row-major over the declared order, which fixes the cell
            order for workers and aggregation alike.
        base: fixed parameter overrides applied to every cell (stored
            as sorted ``(key, value)`` pairs so the spec stays frozen
            and its digest canonical).
        metrics: metric labels aggregated per cell group.
    """

    name: str
    axes: tuple[SweepAxis, ...]
    kind: str = "scenario"
    base: tuple[tuple[str, object], ...] = ()
    metrics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep needs a non-empty name")
        if self.kind not in DEFAULTS:
            raise ConfigurationError(
                f"unknown sweep kind {self.kind!r}; valid: {sorted(DEFAULTS)}"
            )
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "base", tuple(sorted(dict(self.base).items())))
        object.__setattr__(
            self, "metrics", tuple(self.metrics) or DEFAULT_METRICS[self.kind]
        )

        axis_names = [axis.name for axis in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ConfigurationError(f"duplicate axis names in {axis_names}")
        for key, _value in self.base:
            if key in axis_names:
                raise ConfigurationError(
                    f"parameter {key!r} is both a base value and an axis"
                )
        # Every declared value is typed here, at the describe stage, not
        # in a worker twenty minutes into the sweep.
        declared = [
            *self.base,
            *((axis.name, value) for axis in self.axes for value in axis.values),
        ]
        for key, value in declared:
            check_param(self.kind, key, value)
        defaults = DEFAULTS[self.kind]

        def values(name: str) -> list:
            """Every value ``name`` can take in a cell of this grid."""
            return [v for key, v in declared if key == name] or [defaults.get(name)]

        # ... and every metric must parse, and be answerable, for every
        # workload and tandem length the grid can produce.
        for workload in values("workload"):
            for hops in values("hops"):
                validate_metrics(
                    self.metrics,
                    CONFORMANT_SETS.get(workload, ()),
                    1 if hops is None else hops,
                )

    # -- expansion -------------------------------------------------------

    def cells(self) -> Iterator[dict]:
        """Lazily yield one full parameter dict per cell.

        Row-major over the declared axis order; peak memory is
        O(axes), independent of the grid size.
        """
        template = {**DEFAULTS[self.kind], **dict(self.base)}
        names = [axis.name for axis in self.axes]
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            params = dict(template)
            params.update(zip(names, combo))
            yield params

    def count(self) -> int:
        """Number of cells: the product of the axis lengths."""
        return math.prod(len(axis.values) for axis in self.axes)

    def job_for_cell(self, params: Mapping) -> ScenarioJob:
        """The content-addressed job executing one cell."""
        return ScenarioJob(scenario_from_params(self.kind, params))

    def jobs(self) -> Iterator[tuple[dict, ScenarioJob]]:
        """Lazily yield ``(cell params, job)`` pairs in cell order."""
        for params in self.cells():
            yield params, self.job_for_cell(params)

    @staticmethod
    def group_key(params: Mapping) -> str:
        """Canonical aggregation key: the cell minus its ``seed`` axis.

        Cells differing only in seed fold into one aggregate group
        (mean +/- CI over seeds), mirroring the paper's replications.
        """
        grouped = {key: value for key, value in params.items() if key != "seed"}
        return json.dumps(grouped, sort_keys=True, separators=(",", ":"))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {
            "schema": SWEEP_SPEC_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "axes": [axis.to_dict() for axis in self.axes],
            "base": {key: value for key, value in self.base},
            "metrics": list(self.metrics),
        }

    @staticmethod
    def from_dict(raw: dict) -> "SweepSpec":
        schema = raw.get("schema")
        if schema != SWEEP_SPEC_SCHEMA:
            raise ConfigurationError(
                f"sweep schema mismatch: got {schema!r}, expected "
                f"{SWEEP_SPEC_SCHEMA!r}"
            )
        _check_keys(
            raw, "sweep", ("schema", "name", "axes"), ("kind", "base", "metrics")
        )
        if not isinstance(raw["axes"], list):
            raise ConfigurationError(f"sweep axes must be a list, got {raw['axes']!r}")
        return SweepSpec(
            name=str(raw["name"]),
            kind=str(raw.get("kind", "scenario")),
            axes=tuple(SweepAxis.from_dict(entry) for entry in raw["axes"]),
            base=raw.get("base", {}),
            metrics=tuple(raw.get("metrics", ())),
        )

    def digest(self) -> str:
        """Stable SHA-256 content digest of the sweep description."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_sweep(path: str | pathlib.Path) -> SweepSpec:
    """Load one :class:`SweepSpec` from a JSON file."""
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read sweep spec: {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"sweep spec is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("a sweep spec file must contain one JSON object")
    return SweepSpec.from_dict(raw)
