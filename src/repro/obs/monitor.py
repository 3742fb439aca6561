"""Online conformance monitor: observed state vs. the paper's bounds.

``repro.check`` audits guarantees *statically* (RPR201–206); this layer
checks them **while the run executes**.  A :class:`ConformanceMonitor`
is itself a :class:`~repro.obs.sink.TraceSink` — attach it (alone, or
teed with a recording sink) and it continuously compares observed state
against the closed-form references:

* **conformant-drop** — a flow provisioned per Prop. 2 must never lose
  a packet (eq. 5/9 region); any :class:`DropEvent` for a watched flow
  is an error.
* **occupancy-threshold** — a flow's buffer occupancy must stay within
  its provisioned threshold.  The bound is re-read live from the
  manager at every sweep, so footnote-5 rescales (reclamation) move the
  reference with the run; drain-safe shrinks are tracked through the
  ``reprovision`` events and tolerated while the flow drains down.
* **hop-delay** — every departure's queueing delay at a FIFO hop is
  bounded by B/R (:func:`repro.analysis.delay.worst_case_fifo_delay`).
  Only FIFO-family hops are armed: a sorted (WFQ, SCFQ) or hybrid hop
  gets no hop bound, since its scheduler's packetisation slack would
  flag legitimate runs.

There is no separate end-to-end delay check: the network bound is the
sum of the per-hop bounds, so a path over it has at least one hop over
its own limit, which **hop-delay** has already flagged (short of an
excess below ``(n - 1)`` times the absolute slack, inside float noise).

Violations are structured :class:`Violation` findings — severity,
sim-time (plus detection window for sweep checks), flow/node, observed
vs. bound — collected into a :class:`MonitorReport` and optionally
mirrored into the trace stream as ``violation`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Callable

from repro.errors import ConfigurationError
from repro.obs.events import (
    DepartEvent,
    DropEvent,
    ReprovisionEvent,
    ViolationEvent,
)

__all__ = [
    "MonitorReport",
    "ConformanceMonitor",
]

#: Relative slack applied to every bound comparison — the bounds are
#: exact in the fluid model, but observed values go through float
#: arithmetic in a different order than the closed forms.
DEFAULT_TOLERANCE = 1e-9

#: Absolute slack in the bound's own units (bytes or seconds).
_ABS_SLACK = 1e-9

#: The guarantee families the monitor evaluates.
CHECKS = ("conformant-drop", "occupancy-threshold", "hop-delay")


@dataclass(frozen=True, slots=True)
class Violation:
    """One observed contradiction of a provisioned guarantee."""

    check: str
    severity: str
    time: float
    flow_id: int
    node: str
    observed: float
    bound: float
    #: Width of the detection window in simulated seconds: 0 for
    #: event-exact findings, the sweep interval for sampled checks.
    window: float = 0.0
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "severity": self.severity,
            "time": self.time,
            "flow_id": self.flow_id,
            "node": self.node,
            "observed": self.observed,
            "bound": self.bound,
            "window": self.window,
            "message": self.message,
        }

    def render(self) -> str:
        flow = "-" if self.flow_id < 0 else str(self.flow_id)
        node = self.node if self.node else "-"
        text = (
            f"[{self.severity}] t={self.time:.6g} {self.check} "
            f"node={node} flow={flow} observed={self.observed:.6g} "
            f"bound={self.bound:.6g}"
        )
        if self.message:
            text += f" ({self.message})"
        return text


@dataclass
class MonitorReport:
    """Aggregated monitor outcome for one run."""

    violations: list = field(default_factory=list)
    events_seen: int = 0
    sweeps: int = 0
    #: Number of individual bound evaluations performed, per check.
    checks: dict = field(default_factory=dict)
    #: Violations found past ``max_violations`` and not retained.
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "events_seen": self.events_seen,
            "sweeps": self.sweeps,
            "checks": dict(self.checks),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        if self.suppressed:
            verdict += f" ({self.suppressed} more suppressed)"
        evaluated = ", ".join(
            f"{name}={self.checks.get(name, 0)}" for name in CHECKS
        )
        lines = [
            f"conformance: {verdict} "
            f"({self.events_seen} events, {self.sweeps} sweeps)",
            f"  checks evaluated: {evaluated}",
        ]
        for violation in self.violations:
            lines.append("  " + violation.render())
        return "\n".join(lines)


class ConformanceMonitor:
    """Live checker comparing a run against its analytic references.

    Implements the ``TraceSink`` protocol: attach it wherever a sink
    attaches (use :class:`~repro.obs.sink.TeeSink` to also record the
    trace).  Event-exact checks (drops, per-hop delay) ride the event
    stream; occupancy checks are swept periodically via :meth:`install`
    — their ``threshold`` callables are re-read at every sweep, so live
    reprovisioning moves the reference automatically.

    Args:
        interval: sweep cadence for the sampled occupancy checks.
        tolerance: relative slack on every bound comparison (a hop's
            delay limit is fixed with it at :meth:`set_hop_bound`).
        max_violations: hard cap on retained findings (an undersized
            scenario can violate per-packet; the count keeps climbing
            in the check counters either way).
    """

    __slots__ = (
        "interval",
        "tolerance",
        "max_violations",
        "violations",
        "sweeps",
        "suppressed",
        "_checks",
        "_emitted",
        "_tees",
        "_handlers",
        "_sink",
        "_sim",
        "_hop_bounds",
        "_hop_limits",
        "_watched",
        "_occ_checks",
        "_drain_caps",
    )

    def __init__(
        self,
        interval: float = 0.05,
        tolerance: float = DEFAULT_TOLERANCE,
        max_violations: int = 1000,
    ) -> None:
        if not 0.0 < interval < inf:  # refuses NaN too: it fails every comparison
            raise ConfigurationError(f"interval must be > 0 and finite, got {interval}")
        if not 0.0 <= tolerance < inf:
            raise ConfigurationError(f"tolerance must be >= 0 and finite, got {tolerance}")
        if max_violations < 1:
            raise ConfigurationError(
                f"max_violations must be >= 1, got {max_violations}"
            )
        self.interval = float(interval)
        self.tolerance = tolerance
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.sweeps = 0
        self.suppressed = 0
        self._checks: dict[str, int] = {name: 0 for name in CHECKS}
        self._emitted = 0
        self._tees: list = []
        self._handlers = {
            DropEvent: self._on_drop,
            DepartEvent: self._on_depart,
            ReprovisionEvent: self._on_reprovision,
        }
        self._sink = None
        self._sim = None
        self._hop_bounds: dict[str, float] = {}
        self._hop_limits: dict[str, float] = {}
        self._watched: set[int] = set()
        self._occ_checks: dict[
            tuple[str, int],
            tuple[Callable[[], float], Callable[[], float]],
        ] = {}
        self._drain_caps: dict[tuple[str, int], float] = {}

    # -- configuration -------------------------------------------------

    def watch_flow(self, flow_id: int) -> None:
        """Declare ``flow_id`` conformant: drops are violations."""
        self._watched.add(flow_id)

    def unwatch_flow(self, flow_id: int) -> None:
        """Stop treating ``flow_id`` as conformant (churn departure)."""
        self._watched.discard(flow_id)

    def set_hop_bound(self, node: str, bound: float) -> None:
        """Per-hop worst-case queueing delay for departures at ``node``.

        The limit a departure is judged against, the bound with its
        slack, is computed here once rather than at every departure.
        """
        if not 0.0 < bound < inf:
            raise ConfigurationError(f"hop bound must be > 0 and finite, got {bound}")
        self._hop_bounds[node] = bound
        self._hop_limits[node] = bound * (1.0 + self.tolerance) + _ABS_SLACK

    def add_occupancy_check(
        self,
        node: str,
        flow_id: int,
        occupancy: Callable[[], float],
        threshold: Callable[[], float],
    ) -> None:
        """Sweep-check ``occupancy() <= threshold()`` for a flow at a hop.

        Both sides are callables read at sweep time — ``threshold``
        should consult the live manager so reprovisioned values are
        honoured.
        """
        self._occ_checks[(node, flow_id)] = (occupancy, threshold)

    def drop_occupancy_checks(self, flow_id: int) -> None:
        """Remove every occupancy check for ``flow_id`` (churn departure)."""
        stale = [key for key in self._occ_checks if key[1] == flow_id]
        for key in stale:
            del self._occ_checks[key]
            self._drain_caps.pop(key, None)

    def attach_trace(self, sink) -> None:
        """Mirror each finding into ``sink`` as a ``violation`` event."""
        self._sink = sink

    # -- the event path (TraceSink protocol) ---------------------------

    @property
    def events_seen(self) -> int:
        """Events offered so far: through :meth:`emit` and through each tee."""
        return self._emitted + sum(tee.emitted for tee in self._tees)

    def kind_handlers(self, tee) -> dict:
        """The checks by class for ``tee``, whose events all count as seen."""
        self._tees.append(tee)
        return dict(self._handlers)

    def emit(self, event) -> None:
        self._emitted += 1
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    def _on_drop(self, event: DropEvent) -> None:
        self._checks["conformant-drop"] += 1
        if event.flow_id in self._watched:
            self._record(
                Violation(
                    check="conformant-drop",
                    severity="error",
                    time=event.time,
                    flow_id=event.flow_id,
                    node=event.node,
                    observed=event.size,
                    bound=0.0,
                    message=f"conformant flow dropped ({event.reason})",
                )
            )

    def _on_depart(self, event: DepartEvent) -> None:
        node = event.node
        limits = self._hop_limits
        if node not in limits:
            return
        self._checks["hop-delay"] += 1
        if event.delay > limits[node]:
            self._record(
                Violation(
                    check="hop-delay",
                    severity="error",
                    time=event.time,
                    flow_id=event.flow_id,
                    node=node,
                    observed=event.delay,
                    bound=self._hop_bounds[node],
                    message="per-hop delay exceeded analytic bound",
                )
            )

    def _on_reprovision(self, event: ReprovisionEvent) -> None:
        # A drain-safe shrink: occupancy may sit above the new
        # threshold until departures bring it down.  Remember the
        # old value as a temporary cap for the occupancy check.
        if event.threshold < event.previous:
            key = (event.node, event.flow_id)
            if event.previous > self._drain_caps.get(key, 0.0):
                self._drain_caps[key] = event.previous

    # -- the sweep path ------------------------------------------------

    def install(self, sim, until: float) -> None:
        """Schedule the periodic occupancy sweep on ``sim``."""
        if self._sim is not None:
            raise ConfigurationError("monitor is already installed")
        if until <= 0.0:
            raise ConfigurationError(f"until must be > 0, got {until}")
        self._sim = sim
        sim.schedule_fast(self.interval, self._sweep, until)

    def _sweep(self, until: float) -> float | None:
        """Sweep, then return the delay to the next sweep; overrides return ``super()``'s."""
        now = self._sim.now
        self.sweeps += 1
        self.sweep_once(now)
        return self.interval if now + self.interval <= until else None

    def sweep_once(self, now: float) -> None:
        """Evaluate every registered occupancy check at sim-time ``now``."""
        for key, (occ_fn, thr_fn) in list(self._occ_checks.items()):
            node, flow_id = key
            occupancy = float(occ_fn())
            threshold = float(thr_fn())
            self._checks["occupancy-threshold"] += 1
            limit = threshold * (1.0 + self.tolerance) + _ABS_SLACK
            if occupancy <= limit:
                # Back within the provisioned region: any drain
                # allowance from a live shrink is spent.
                self._drain_caps.pop(key, None)
                continue
            cap = self._drain_caps.get(key)
            if cap is not None and occupancy <= cap * (1.0 + self.tolerance) + _ABS_SLACK:
                # Draining after a reprovision shrink.  Admission is
                # blocked above threshold, so occupancy can only fall:
                # ratchet the cap down to what we just observed.
                self._drain_caps[key] = occupancy
                continue
            self._record(
                Violation(
                    check="occupancy-threshold",
                    severity="error",
                    time=now,
                    flow_id=flow_id,
                    node=node,
                    observed=occupancy,
                    bound=threshold,
                    window=self.interval,
                    message="occupancy above provisioned threshold",
                )
            )

    # -- finalization --------------------------------------------------

    def finalize(self) -> MonitorReport:
        """The report of every check evaluated so far."""
        return MonitorReport(
            violations=list(self.violations),
            events_seen=self.events_seen,
            sweeps=self.sweeps,
            checks=dict(self._checks),
            suppressed=self.suppressed,
        )

    # -- internals -----------------------------------------------------

    def _record(self, violation: Violation) -> None:
        if len(self.violations) >= self.max_violations:
            self.suppressed += 1
            return
        self.violations.append(violation)
        if self._sink is not None:
            self._sink.emit(
                ViolationEvent(
                    violation.time,
                    violation.check,
                    violation.severity,
                    violation.observed,
                    violation.bound,
                    violation.flow_id,
                    violation.node,
                )
            )
