"""Measurement: per-flow counters and replication statistics."""

from repro.metrics.collector import FlowStats, StatsCollector
from repro.metrics.histogram import LogHistogram
from repro.metrics.records import (
    DelaySummary,
    flow_stats_from_dict,
    flow_stats_to_dict,
)
from repro.metrics.stats import MeanCI, mean_ci

__all__ = [
    "FlowStats",
    "StatsCollector",
    "LogHistogram",
    "DelaySummary",
    "flow_stats_from_dict",
    "flow_stats_to_dict",
    "MeanCI",
    "mean_ci",
]
