"""Burst-potential process (Section 2.2, eq. 3).

For a flow with arrival process ``A`` and reservation ``(sigma, rho)`` the
burst potential

    sigma(t) = inf_{s <= t} { A(s) + rho (t - s) + sigma } - A(t)

is the size of the flow's remaining token pool: the largest burst it could
emit instantaneously while staying conformant.  The proof of Proposition 2
rests on the supermartingale-like bound ``M(t) = Q_1(t) + sigma_1(t) -
sigma_1 < B_2 rho_1 / (R - rho_1)``.

A live flow's ``sigma(t)`` is its meter's token level
(:meth:`repro.traffic.shaper.TokenBucketMeter.burst_potential`).  This
module checks a sampled arrival path, given as cumulative (time, bytes)
points, against its envelope (eq. 2), and gives the proof's bound.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["is_conformant_path", "proposition2_bound"]


def _validate_path(path: Sequence[tuple[float, float]]) -> None:
    if not path:
        raise ConfigurationError("arrival path must contain at least one point")
    last_t, last_a = -float("inf"), -float("inf")
    for time, cumulative in path:
        if time < last_t:
            raise ConfigurationError("arrival path times must be non-decreasing")
        if cumulative < last_a - 1e-9:
            raise ConfigurationError("cumulative arrivals must be non-decreasing")
        last_t, last_a = time, cumulative


# repro: noqa RPR110 — oracle: tests/test_prop_shaper.py checks shaped output against eq. 2
def is_conformant_path(
    path: Sequence[tuple[float, float]], sigma: float, rho: float, tolerance: float = 1e-6
) -> bool:
    """Check eq. (2): ``A(t) - A(s) <= sigma + rho (t - s)`` for all s <= t.

    ``A`` is read as a right-continuous step function over the sample
    points, so the check compares each post-jump value ``A(t_i)`` against
    both the post-jump and the *left-limit* value at every earlier (or
    equal) sample time — the left limit at the first point being 0.  The
    supremum of ``A(t) - A(s) - rho (t - s)`` over a flat segment of ``A``
    is attained at the segment's left end, so these candidates suffice.
    """
    _validate_path(path)
    for i, (t, a_t) in enumerate(path):
        previous = 0.0
        for s, a_s in path[: i + 1]:
            # Left limit at the jump time s (captures the jump itself).
            if a_t - previous > sigma + rho * (t - s) + tolerance:
                return False
            # Post-jump value, valid for comparison when s <= t.
            if a_t - a_s > sigma + rho * (t - s) + tolerance:
                return False
            previous = a_s
    return True


# repro: noqa RPR110 — ROADMAP item 4 (Proposition 2's invariant as a live judge) will call it
def proposition2_bound(
    sigma1: float, rho1: float, buffer_size: float, link_rate: float
) -> float:
    """The threshold ``sigma_1 + B_2 rho_1 / (R - rho_1)``... rewritten.

    For Proposition 2 the sufficient reserved allocation is
    ``sigma_1 + B rho_1 / R``; the proof's intermediate bound caps
    ``M(t) = Q_1(t) + sigma_1(t) - sigma_1`` by ``B_2 rho_1 / (R -
    rho_1)``.  This helper returns the occupancy bound implied for
    ``Q_1(t)``, namely ``sigma_1 + B_2 rho_1 / (R - rho_1)``, where
    ``B_2 = B - B_1`` and ``B_1 = sigma_1 + B rho_1 / R``.  The identity
    ``sigma_1 + B_2 rho_1/(R - rho_1) <= B_1`` (for ``B >= R sigma_1 /
    (R - rho_1)``, footnote 3) is exercised by the tests.
    """
    if not 0 < rho1 < link_rate:
        raise ConfigurationError(f"need 0 < rho1 < R, got rho1={rho1}, R={link_rate}")
    if sigma1 < 0 or buffer_size <= 0:
        raise ConfigurationError(
            f"need sigma1 >= 0 and B > 0, got ({sigma1}, {buffer_size})"
        )
    b1 = sigma1 + buffer_size * rho1 / link_rate
    b2 = buffer_size - b1
    if b2 < 0:
        raise ConfigurationError(
            f"buffer {buffer_size} too small for threshold {b1} (footnote 3)"
        )
    return sigma1 + b2 * rho1 / (link_rate - rho1)
