"""Property test: a flow's delay bins plus its FlowStats are its histogram.

``StatsCollector`` keeps no ``LogHistogram`` per flow: ``on_depart``
adds one to a bin in a list beside ``flows``, and ``delay_histogram``
rebuilds the histogram from those bins and the flow's count, delay sum
and maximum.  Here the rebuilt histogram is compared, with ``==``, to a
``LogHistogram`` fed the same delays through ``record`` — over several
flows, delays at and around every binning edge (0, below ``lo``, exact
bin edges, ``hi`` and beyond) and departures on both sides of the
warmup.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import DELAY_HI, DELAY_LO, StatsCollector
from repro.metrics.histogram import LogHistogram
from repro.metrics.records import DELAY_PERCENTILES, DelaySummary

WARMUP = 1.0
FLOWS = (0, 1, 2, 3)

_SHAPE = LogHistogram(DELAY_LO, DELAY_HI)
#: Every regular bin's lower edge as ``bin_bounds`` computes it.
EDGES = [_SHAPE.bin_bounds(index)[0] for index in range(1, _SHAPE.n_bins + 1)]

delays = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=DELAY_LO, exclude_max=True),
    st.sampled_from(EDGES),
    st.just(DELAY_HI),
    st.floats(min_value=DELAY_HI, max_value=1e4),
    st.floats(min_value=DELAY_LO, max_value=DELAY_HI, exclude_max=True),
)
departures = st.lists(
    st.tuples(
        st.sampled_from(FLOWS),
        delays,
        # The departure time: before, at or after the warmup.
        st.sampled_from((0.0, WARMUP - 1e-9, WARMUP, WARMUP + 0.5)),
    ),
    max_size=60,
)


def assert_same_histogram(rebuilt: LogHistogram, reference: LogHistogram) -> None:
    assert rebuilt._counts == reference._counts
    assert rebuilt.count == reference.count
    assert rebuilt.total == reference.total
    assert rebuilt.max_value == reference.max_value
    for q in DELAY_PERCENTILES:
        assert rebuilt.percentile(q) == reference.percentile(q)
    assert DelaySummary.from_histogram(rebuilt) == DelaySummary.from_histogram(reference)


@given(departures=departures)
@settings(max_examples=150, deadline=None)
def test_rebuilt_histogram_equals_recorded_histogram(departures):
    collector = StatsCollector(warmup=WARMUP, delay_histograms=True)
    references = {flow: LogHistogram(DELAY_LO, DELAY_HI) for flow in FLOWS}
    for flow, delay, now in departures:
        collector.on_depart(flow, 500.0, delay, now)
        if now >= WARMUP:
            references[flow].record(delay)
    for flow in FLOWS:
        assert_same_histogram(collector.delay_histogram(flow), references[flow])


def test_a_flow_that_never_departed_has_an_empty_histogram():
    collector = StatsCollector(warmup=WARMUP, delay_histograms=True)
    collector.on_offered(7, 500.0, 2.0)
    collector.on_depart(8, 500.0, 0.01, 0.5)  # before the warmup
    for flow in (7, 8, 9):
        assert_same_histogram(collector.delay_histogram(flow), LogHistogram(DELAY_LO, DELAY_HI))


def test_the_histogram_is_a_snapshot():
    collector = StatsCollector(delay_histograms=True)
    collector.on_depart(0, 500.0, 0.01, 1.0)
    before = collector.delay_histogram(0)
    collector.on_depart(0, 500.0, 0.02, 2.0)
    assert before.count == 1
    assert collector.delay_histogram(0).count == 2
