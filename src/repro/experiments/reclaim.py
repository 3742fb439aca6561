"""Reclamation study: live buffer reprovisioning vs static sizing.

The paper sizes thresholds once, for the population present at
configuration time.  With flow churn the interesting question is what
live reprovisioning buys: when a departure reclaims its reservation
into the node's :class:`~repro.core.pool.BufferPool` and the survivors'
thresholds rescale online (footnote 5), how do blocking probability and
packet loss compare against the static baseline on the same arrival
sample path?

Because the pool admits exactly when the FIFO region (eq. 9) admits —
``sum(sigma_i + rho_i B / R) <= B`` is the same inequality restated
over base reservations — the study's blocking probabilities match
whenever both modes see the same arrivals, and the comparison isolates
the *loss* effect of keeping thresholds rescaled to the live
population.  The study runs both modes through the campaign pipeline
(dedup, cache, parallelism) over a shared seed list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignRunner, ScenarioJob, ScenarioRecord
from repro.experiments.report import format_table
from repro.experiments.spec import scenario_from_params

__all__ = ["run_reclaim_study"]


def record_loss(record: ScenarioRecord) -> float:
    """Byte loss fraction over every link of a fabric record."""
    offered = 0.0
    dropped = 0.0
    for link in record.links.values():
        for stats in link.flow_stats.values():
            offered += stats.offered_bytes
            dropped += stats.dropped_bytes
    if offered <= 0.0:
        return 0.0
    return dropped / offered


@dataclass(frozen=True)
class ReclaimStudy:
    """Paired static/reclamation measurements over a shared seed list."""

    hops: int
    sim_time: float
    seeds: tuple[int, ...]
    static: tuple[ScenarioRecord, ...]
    reclaim: tuple[ScenarioRecord, ...]

    def mean_blocking(self, records: tuple[ScenarioRecord, ...]) -> float:
        return sum(r.blocking_probability() for r in records) / len(records)

    def mean_loss(self, records: tuple[ScenarioRecord, ...]) -> float:
        return sum(record_loss(r) for r in records) / len(records)

    def render(self) -> str:
        """A per-seed comparison table plus the aggregate means."""
        rows = []
        for seed, stat, recl in zip(self.seeds, self.static, self.reclaim):
            rows.append(
                [
                    str(seed),
                    f"{stat.blocking_probability():.3f}",
                    f"{recl.blocking_probability():.3f}",
                    f"{100.0 * record_loss(stat):.3f}",
                    f"{100.0 * record_loss(recl):.3f}",
                ]
            )
        table = format_table(
            [
                "seed",
                "blocking static",
                "blocking reclaim",
                "loss % static",
                "loss % reclaim",
            ],
            rows,
        )
        summary = (
            f"means over {len(self.seeds)} seed(s): blocking "
            f"{self.mean_blocking(self.static):.3f} static vs "
            f"{self.mean_blocking(self.reclaim):.3f} reclaim; loss "
            f"{100.0 * self.mean_loss(self.static):.3f}% static vs "
            f"{100.0 * self.mean_loss(self.reclaim):.3f}% reclaim"
        )
        return f"{table}\n{summary}"


def run_reclaim_study(
    *,
    hops: int = 3,
    seeds: tuple[int, ...] = (1, 2, 3),
    sim_time: float = 4.0,
    runner: CampaignRunner | None = None,
) -> ReclaimStudy:
    """Run the paired comparison on the reference tandem.

    One :class:`~repro.experiments.campaign.ScenarioJob` per
    (seed, mode): the static half runs the churn demo as-is, the
    reclamation half runs the same scenario with live pools.  Both
    batches go through one campaign submission, so records come back
    deduplicated and cache-friendly.
    """
    if not seeds:
        raise ConfigurationError("reclaim study needs at least one seed")
    if runner is None:
        runner = CampaignRunner()

    def job(seed: int, reclamation: bool) -> ScenarioJob:
        # The network defaults: churn on, no delay histograms.
        return ScenarioJob(
            scenario_from_params(
                "network",
                {"hops": hops, "seed": seed, "sim_time": sim_time, "reclamation": reclamation},
            )
        )

    jobs = [job(seed, False) for seed in seeds]
    jobs += [job(seed, True) for seed in seeds]
    records = runner.run(jobs)
    count = len(seeds)
    return ReclaimStudy(
        hops=hops,
        sim_time=sim_time,
        seeds=tuple(seeds),
        static=tuple(records[:count]),
        reclaim=tuple(records[count:]),
    )
