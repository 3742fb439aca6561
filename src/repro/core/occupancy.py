"""Per-flow buffer occupancy accounting.

Every buffer-management policy in the paper admits or drops packets based
on two pieces of state: the flow's own occupancy and some global quantity
(total occupancy, free space, hole count...).  :class:`BufferManager`
centralises that accounting: a policy supplies an ``_admits`` predicate
to the generic ``try_admit`` (guard, predicate, charge) or, when that is a
few comparisons, one flat ``try_admit``; extra counters (holes, headroom,
RED's idle clock) are updated in its own ``try_admit``/``on_depart``.

The contract with the output port is:

* ``try_admit(flow_id, size)`` — called on packet arrival; returns True
  and charges the occupancy if the packet is accepted, returns False (and
  changes nothing) if it must be dropped;
* ``on_depart(flow_id, size)`` — called when the packet finishes
  transmission and its buffer space is released.

Both are O(1) for every policy here, which is the paper's scalability
argument: admission needs constant state and constant work per packet.

Runtime reprovisioning extends the contract for dynamic-provisioning
scenarios (churn with reclamation, see :mod:`repro.core.pool`):

* ``reprovision(flow_id, threshold)`` — change a flow's admission
  threshold while the run is live.  Only policies with per-flow
  thresholds support it (``has_flow_thresholds`` is True); the base
  class refuses.
* ``retire(flow_id)`` — the flow is gone for good: withdraw its
  threshold (subclasses) and schedule its occupancy entry for cleanup
  once its queued packets drain.

Both are **drain-safe**: occupancy above a shrunken (or withdrawn)
threshold is never evicted — admission predicates only bind *future*
arrivals, and departures read it only to trace a crossing, so in-flight
packets depart normally.
"""

from __future__ import annotations

from typing import ClassVar, Mapping

from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import ReprovisionEvent, ThresholdCrossEvent

__all__ = ["BufferManager", "FlowThresholdManager"]


class BufferManager:
    """Base class for buffer-admission policies over a shared buffer.

    Args:
        capacity: total buffer size ``B`` in bytes.  Must be positive.
    """

    __slots__ = (
        "capacity",
        "_occupancy",
        "_total",
        "_sink",
        "_clock",
        "_node",
        "_retired",
    )

    #: How :meth:`drop_reason` labels policy (non-capacity) rejections;
    #: subclasses override with their mechanism name.
    DROP_REASON = "policy"

    #: Whether the policy keeps a per-flow threshold that
    #: :meth:`reprovision` can change at run time.  Replaces the old
    #: duck-typed ``getattr(manager, "thresholds", None)`` probing.
    has_flow_thresholds: ClassVar[bool] = False

    #: Whether the per-flow threshold is a *hard* occupancy cap — a
    #: flow's occupancy can never exceed ``threshold(flow_id)`` outside
    #: a drain-safe reprovision window.  True only for strict
    #: partitioning (Prop. 2): sharing schemes deliberately let flows
    #: borrow past their threshold, and dynamic thresholds move under a
    #: flow's feet.  The live conformance monitor only arms its
    #: occupancy-vs-threshold check when this is True.
    enforces_thresholds: ClassVar[bool] = False

    def __init__(self, capacity: float):
        if not capacity > 0:  # `not >`, so that a NaN capacity raises too
            raise ConfigurationError(f"buffer capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self._occupancy: dict[int, float] = {}
        self._total = 0.0
        self._sink = None
        self._clock = None
        self._node = ""
        self._retired: set[int] | None = None

    @property
    def total_occupancy(self) -> float:
        """Bytes currently held in the buffer across all flows."""
        return self._total

    @property
    def free_space(self) -> float:
        """Unused buffer bytes."""
        return self.capacity - self._total

    def occupancy(self, flow_id: int) -> float:
        """Bytes currently buffered for ``flow_id``."""
        return self._occupancy.get(flow_id, 0.0)

    # -- observability ---------------------------------------------------

    def attach_trace(self, sink, clock, node: str = "") -> None:
        """Emit threshold-cross (and subclass) events into ``sink``.

        Args:
            sink: a :class:`~repro.obs.sink.TraceSink`, or ``None`` to
                detach.
            clock: zero-argument callable returning simulation time
                (managers have no engine reference of their own).
            node: hop label stamped on emitted events in multi-node runs.
        """
        if sink is not None and clock is None:
            raise ConfigurationError("attach_trace needs a clock with its sink")
        self._sink = sink
        self._clock = clock
        self._node = node

    def drop_reason(self, flow_id: int, size: float) -> str:
        """Classify the rejection :meth:`try_admit` just returned.

        Called by the port only on the traced drop path, never during
        admission itself.  The default distinguishes a genuinely full
        buffer from the policy's own predicate; subclasses set
        :attr:`DROP_REASON` (or override) to name their mechanism.
        """
        if self._total + size > self.capacity:
            return "buffer-full"
        return self.DROP_REASON

    def _reference_threshold(self, flow_id: int) -> float | None:
        """The admission threshold traced for ``flow_id``, if any.

        ``None`` (the default) means the policy has no per-flow threshold
        to cross, so no :class:`ThresholdCrossEvent` is ever emitted.
        """
        return None

    def _trace_crossing(
        self, flow_id: int, occupancy: float, threshold: float, direction: str
    ) -> None:
        """Emit the ThresholdCrossEvent a caller's straddle test found.

        The test sits in the caller so that a traced packet that crosses
        nothing — nearly all of them — costs a comparison, not a call.
        An admission crosses "up" when the flow *reached or exceeded* its
        threshold (``before < T <= after``) — admission caps occupancy at
        exactly ``T``, so a strict-exceed predicate would never fire.  A
        departure mirrors it: "down" when the flow fell back below ``T``
        (``after < T <= before``).
        """
        self._sink.emit(
            ThresholdCrossEvent(
                self._clock(), flow_id, occupancy, threshold, direction, self._node
            )
        )

    # -- runtime reprovisioning -------------------------------------------

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Change ``flow_id``'s admission threshold while live.

        The base class has no per-flow thresholds to change; policies
        that do (``has_flow_thresholds``) override this.  The change is
        drain-safe by construction: thresholds only gate admission, so
        occupancy above a shrunken value simply drains.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no per-flow thresholds to reprovision"
        )

    def retire(self, flow_id: int) -> None:
        """The flow departed for good: release its accounting state.

        The occupancy entry is dropped immediately when the flow has no
        queued bytes, otherwise once its last packet departs — queued
        packets are never stranded or retro-dropped.  Subclasses with
        per-flow thresholds also withdraw the threshold.
        """
        if self._occupancy.get(flow_id, 0.0) <= 0.0:
            self._occupancy.pop(flow_id, None)
        else:
            if self._retired is None:
                self._retired = set()
            self._retired.add(flow_id)

    def _trace_reprovision(self, flow_id: int, threshold: float, previous: float) -> None:
        """Emit a ReprovisionEvent when a sink is attached."""
        if self._sink is not None and threshold != previous:
            self._sink.emit(
                ReprovisionEvent(self._clock(), flow_id, threshold, previous, self._node)
            )

    # -- admission contract ----------------------------------------------

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Generic path: guard, the :meth:`_admits` predicate, then the charge."""
        if size <= 0:
            raise SimulationError(f"packet size must be positive, got {size}")
        if not self._admits(flow_id, size):
            return False
        new_total = self._total + size
        if new_total > self.capacity + 1e-6:
            raise SimulationError(
                f"policy {type(self).__name__} admitted beyond capacity "
                f"({new_total} > {self.capacity})"
            )
        after = self._occupancy.get(flow_id, 0.0) + size
        self._occupancy[flow_id] = after
        self._total = new_total
        if self._sink is not None:
            threshold = self._reference_threshold(flow_id)
            if threshold is not None and after - size < threshold <= after:
                self._trace_crossing(flow_id, after, threshold, "up")
        return True

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release the buffer space of a departing packet."""
        occupancy = self._occupancy.get(flow_id, 0.0) - size
        if occupancy < 0.0:
            if occupancy < -1e-6:
                raise SimulationError(
                    f"flow {flow_id} occupancy went negative ({occupancy}); "
                    "departure without matching admission"
                )
            occupancy = 0.0
        self._occupancy[flow_id] = occupancy
        total = self._total - size
        self._total = total if total >= 0.0 else 0.0
        if self._sink is not None:
            threshold = self._reference_threshold(flow_id)
            if threshold is not None and occupancy < threshold <= occupancy + size:
                self._trace_crossing(flow_id, occupancy, threshold, "down")
        if self._retired:
            self._reclaim(flow_id, occupancy)

    def _reclaim(self, flow_id: int, occupancy: float) -> None:
        """A retired flow's entry is reclaimed the moment it drains."""
        if flow_id in self._retired and occupancy <= 1e-9:
            self._occupancy.pop(flow_id, None)
            self._retired.discard(flow_id)

    def _admits(self, flow_id: int, size: float) -> bool:
        """Policy predicate of the generic path: may this packet enter?"""
        raise NotImplementedError(f"{type(self).__name__} has no _admits or try_admit")


class FlowSlot:
    """One flow's admission record: the bytes it holds and its threshold.

    A packet finds its flow's slot with one subscript and updates it in
    place; the threshold sits beside the occupancy it is tested against.
    """

    __slots__ = ("occupancy", "threshold")

    def __init__(self, occupancy: float, threshold: float) -> None:
        self.occupancy = occupancy
        self.threshold = threshold


def _check_threshold(threshold: float, what: str) -> None:
    # `not >=`, so that a NaN threshold, which every comparison passes, raises too.
    if not threshold >= 0:
        raise ConfigurationError(f"{what} must be non-negative, got {threshold}")


class FlowThresholdManager(BufferManager):
    """The live per-flow threshold table the paper's two policies share.

    Each flow's occupancy and threshold live in one :class:`FlowSlot`
    (``_flows``); the base class's float table stays empty.  A flow
    absent from ``thresholds`` gets a slot at ``default_threshold`` when
    its first packet is admitted.  Subclasses implement ``try_admit``
    flat over the slot.

    Args:
        capacity: total buffer size ``B`` in bytes.
        thresholds: mapping flow id -> threshold in bytes (typically
            from :func:`repro.core.thresholds.compute_thresholds`).
        default_threshold: threshold of flows absent from ``thresholds``.
    """

    __slots__ = ("_flows", "default_threshold")

    has_flow_thresholds = True

    def __init__(
        self,
        capacity: float,
        thresholds: Mapping[int, float],
        default_threshold: float = 0.0,
    ) -> None:
        super().__init__(capacity)
        self._flows: dict[int, FlowSlot] = {}
        for flow_id, threshold in thresholds.items():
            _check_threshold(threshold, f"threshold for flow {flow_id}")
            self._flows[flow_id] = FlowSlot(0.0, threshold)
        _check_threshold(default_threshold, "default threshold")
        self.default_threshold = float(default_threshold)

    def occupancy(self, flow_id: int) -> float:
        """Bytes currently buffered for ``flow_id``."""
        slot = self._flows.get(flow_id)
        return 0.0 if slot is None else slot.occupancy

    def threshold(self, flow_id: int) -> float:
        """Threshold applied to ``flow_id``."""
        slot = self._flows.get(flow_id)
        return self.default_threshold if slot is None else slot.threshold

    def _admit_first(self, flow_id: int, size: float) -> bool:
        """A flow's first packet: admit it through a fresh default slot,
        which stays only if the packet was admitted."""
        self._flows[flow_id] = FlowSlot(0.0, self.default_threshold)
        if self.try_admit(flow_id, size):
            return True
        del self._flows[flow_id]
        return False

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Install or change ``flow_id``'s threshold while live.

        Drain-safe: a shrinking threshold only binds future admissions.
        No other counter moves — the sharing scheme's holes/headroom
        track free space, not reservations.  A retired flow that is
        reprovisioned is live again: its slot outlasts the drain.
        """
        _check_threshold(threshold, f"threshold for flow {flow_id}")
        slot = self._flows.get(flow_id)
        if slot is None:
            previous = self.default_threshold
            self._flows[flow_id] = FlowSlot(0.0, threshold)
        else:
            previous = slot.threshold
            slot.threshold = threshold
        if self._retired:
            self._retired.discard(flow_id)
        self._trace_reprovision(flow_id, threshold, previous)

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release the packet's space; a traced one reads its threshold here."""
        try:
            slot = self._flows[flow_id]
        except KeyError:
            raise SimulationError(
                f"flow {flow_id} departed without a matching admission"
            ) from None
        occupancy = slot.occupancy - size
        if occupancy < 0.0:
            if occupancy < -1e-6:
                raise SimulationError(
                    f"flow {flow_id} occupancy went negative ({occupancy}); "
                    "departure without matching admission"
                )
            occupancy = 0.0
        slot.occupancy = occupancy
        total = self._total - size
        self._total = total if total >= 0.0 else 0.0
        if self._sink is not None:
            threshold = slot.threshold
            if occupancy < threshold <= occupancy + size:
                self._trace_crossing(flow_id, occupancy, threshold, "down")
        if self._retired:
            self._reclaim(flow_id, occupancy)

    def retire(self, flow_id: int) -> None:
        """Withdraw the flow's threshold; queued packets still drain.

        The slot goes at once when the flow holds nothing, otherwise it
        keeps the default threshold until its last packet departs.
        """
        slot = self._flows.get(flow_id)
        if slot is None:
            return
        self._trace_reprovision(flow_id, self.default_threshold, slot.threshold)
        if slot.occupancy <= 0.0:
            del self._flows[flow_id]
        else:
            slot.threshold = self.default_threshold
            if self._retired is None:
                self._retired = set()
            self._retired.add(flow_id)

    def _reclaim(self, flow_id: int, occupancy: float) -> None:
        """A retired flow's slot is reclaimed the moment it drains."""
        if flow_id in self._retired and occupancy <= 1e-9:
            del self._flows[flow_id]
            self._retired.discard(flow_id)
