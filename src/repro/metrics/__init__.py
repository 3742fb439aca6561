"""Measurement: per-flow counters and replication statistics."""

from repro.metrics.collector import FlowStats, StatsCollector
from repro.metrics.histogram import LogHistogram
from repro.metrics.records import DelaySummary
from repro.metrics.stats import MeanCI, mean_ci

__all__ = [
    "FlowStats",
    "StatsCollector",
    "LogHistogram",
    "DelaySummary",
    "MeanCI",
    "mean_ci",
]
