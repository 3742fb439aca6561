"""Frozen calibration kernel: the unit of host time for this benchmark.

Raw wall time does not repeat on a small shared box (the host's speed
moves by a third within seconds), so every timing is reported in *cops*
(calibration ops): ``1 cop = kernel wall / CAL_OPS`` for a kernel run
next to the timed work.  The kernel uses only the standard library and
has two parts, because they slow down differently when the host's
other hardware thread is busy:

* the simulator's primitive mix in a tight loop — ``heapq`` push/pop of
  event tuples, a slotted-method call, a dict update, a float add;
* wide, allocation-heavy interpreter work — ``json.dumps`` with an
  indent (the pure-Python encoder), ``pprint.pformat`` and ``tokenize``
  over one fixed document.  A tight loop alone kept its speed through
  stretches in which the simulator (which is wide code) lost 10%.

The kernel is frozen: editing this file changes ``cal_digest``, and
results with different digests (or Python minor versions, since the
second part runs standard-library code) are not comparable;
``compare.py`` refuses them.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import pathlib
import pprint
import time
import tokenize

__all__ = ["CAL_OPS", "REFERENCE_COP_S", "cal_digest", "calibrate", "cops"]

_ROUNDS = 6_000
_PENDING = 64
_DOCUMENT = {
    "flows": [
        {
            "id": i,
            "rate": i * 1.5,
            "name": f"flow{i}",
            "tags": ["a", "b", str(i)],
            "nested": {"x": i, "y": [i, i + 1, None, True]},
        }
        for i in range(60)
    ]
}
#: Nominal operations per kernel run; fixes the size of a cop (about
#: 60 ns on the build machine at full speed).
CAL_OPS = 100_000
#: One cop on the build machine at full speed.  ``setup_s`` must be in
#: seconds, so it is measured in cops and converted back at this fixed
#: rate: seconds on the reference host.
REFERENCE_COP_S = 60e-9


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def add(self, value: float) -> None:
        self.total += value


def _kernel() -> float:
    heap = [(float(i), i, None, (), None) for i in range(_PENDING)]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    cell = _Cell()
    add = cell.add
    table: dict[int, float] = {}
    now = 0.0
    for seq in range(_PENDING, _PENDING + _ROUNDS):
        entry = pop(heap)
        now = entry[0]
        add(now)
        table[seq & 255] = now
        push(heap, (now + 1.0 + (seq % 7), seq, None, (), None))
    part = _DOCUMENT["flows"][:12]
    for _ in range(2):
        json.dumps(_DOCUMENT, indent=1, sort_keys=True)
        pprint.pformat(part)
    text = json.dumps(part, indent=1, sort_keys=True)
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        add(token.start[0])
    return cell.total


def calibrate(runs: int = 5) -> float:
    """Mean wall seconds of ``runs`` back-to-back kernel executions.

    The mean, not the best: when the host time-slices this process
    against others, the work being timed pays the whole duty cycle, and
    a best-of calibration that dodges it made costs read 8-11% high.
    """
    start = time.perf_counter()
    for _ in range(runs):
        _kernel()
    return (time.perf_counter() - start) / runs


def cops(wall: float, before: float, after: float) -> float:
    """``wall`` seconds in cops, given the calibrations on either side of it."""
    return wall / ((before + after) / 2 / CAL_OPS)


def cal_digest() -> str:
    """SHA-256 of this file: two results compare only when it matches."""
    source = pathlib.Path(__file__).read_bytes()
    return hashlib.sha256(source).hexdigest()[:16]
