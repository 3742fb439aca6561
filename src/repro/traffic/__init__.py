"""Traffic models: flow profiles, sources and leaky-bucket regulation."""

from repro.traffic.adversarial import FillThenBurstSource, ThresholdFillingSource
from repro.traffic.profiles import FlowSpec
from repro.traffic.shaper import LeakyBucketShaper, TokenBucketMeter
from repro.traffic.sources import (
    CBRSource,
    GreedySource,
    OnOffSource,
)

__all__ = [
    "FlowSpec",
    "FillThenBurstSource",
    "ThresholdFillingSource",
    "LeakyBucketShaper",
    "TokenBucketMeter",
    "OnOffSource",
    "CBRSource",
    "GreedySource",
]
