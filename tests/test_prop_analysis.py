"""Property-based tests: the paper's closed-form identities."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.buffer_sizing import (
    buffer_vs_utilization,
    fifo_min_buffer,
    wfq_min_buffer,
)
from repro.analysis.fluid import two_flow_fluid
from repro.analysis.hybrid_opt import (
    QueueRequirement,
    buffer_savings,
    buffer_savings_identity,
    hybrid_buffer_for_allocation,
    hybrid_total_buffer,
    optimal_alphas,
    queue_rates,
)

queue_lists = st.lists(
    st.builds(
        QueueRequirement,
        sigma_hat=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        rho_hat=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


def link_for(queues):
    return 2.0 * sum(q.rho_hat for q in queues) + 1.0


class TestProposition3Properties:
    @given(queues=queue_lists)
    @settings(max_examples=100, deadline=None)
    def test_alphas_form_a_distribution(self, queues):
        alphas = optimal_alphas(queues)
        assert all(a > 0 for a in alphas)
        assert abs(sum(alphas) - 1.0) < 1e-9

    @given(queues=queue_lists)
    @settings(max_examples=100, deadline=None)
    def test_rates_sum_to_link_and_cover_reservations(self, queues):
        link = link_for(queues)
        rates = queue_rates(queues, link)
        assert abs(sum(rates) - link) < max(1e-6, 1e-9 * link)
        for rate, queue in zip(rates, queues):
            assert rate > queue.rho_hat

    @given(queues=queue_lists, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_optimum_beats_random_allocations(self, queues, data):
        link = link_for(queues)
        best = hybrid_total_buffer(queues, link)
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                min_size=len(queues), max_size=len(queues),
            )
        )
        total = sum(raw)
        alphas = [value / total for value in raw]
        alternative = hybrid_buffer_for_allocation(queues, link, alphas)
        assert alternative >= best - max(1e-6, 1e-9 * best)

    @given(queues=queue_lists)
    @settings(max_examples=100, deadline=None)
    def test_savings_identity_eq17(self, queues):
        link = link_for(queues)
        direct = buffer_savings(queues, link)
        identity = buffer_savings_identity(queues, link)
        scale = max(1.0, abs(direct))
        assert abs(direct - identity) < 1e-6 * scale

    @given(queues=queue_lists)
    @settings(max_examples=100, deadline=None)
    def test_hybrid_never_worse_than_single_fifo(self, queues):
        link = link_for(queues)
        sigma = sum(q.sigma_hat for q in queues)
        rho = sum(q.rho_hat for q in queues)
        single = link * sigma / (link - rho)
        assert hybrid_total_buffer(queues, link) <= single + 1e-6 * single


class TestBufferSizingProperties:
    profiles = st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False),   # sigma
            st.floats(min_value=1.0, max_value=1e5, allow_nan=False),   # rho
        ),
        min_size=1,
        max_size=10,
    )

    @given(profiles=profiles)
    @settings(max_examples=100, deadline=None)
    def test_fifo_needs_at_least_wfq_buffer(self, profiles):
        sigmas = [s for s, _ in profiles]
        rhos = [r for _, r in profiles]
        link = 2.0 * sum(rhos)
        assert fifo_min_buffer(sigmas, rhos, link) >= wfq_min_buffer(sigmas)

    @given(profiles=profiles)
    @settings(max_examples=100, deadline=None)
    def test_equation10_consistency(self, profiles):
        sigmas = [s for s, _ in profiles]
        rhos = [r for _, r in profiles]
        link = 3.0 * sum(rhos)
        u = sum(rhos) / link
        via_u = buffer_vs_utilization(u, sum(sigmas))
        direct = fifo_min_buffer(sigmas, rhos, link)
        assert abs(via_u - direct) < 1e-6 * max(1.0, direct)

    @given(
        profiles=profiles,
        scale=st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_requirement_decreases_with_faster_link(self, profiles, scale):
        sigmas = [s for s, _ in profiles]
        rhos = [r for _, r in profiles]
        link = 1.5 * sum(rhos)
        slower = fifo_min_buffer(sigmas, rhos, link)
        faster = fifo_min_buffer(sigmas, rhos, link * scale)
        assert faster <= slower + 1e-9


class TestFluidProperties:
    @given(
        rho_fraction=st.floats(min_value=0.01, max_value=0.95, allow_nan=False),
        buffer_size=st.floats(min_value=100.0, max_value=1e7, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_flow1_rates_increase_towards_guarantee(self, rho_fraction, buffer_size):
        link = 1_000_000.0
        rho1 = rho_fraction * link
        trajectory = two_flow_fluid(rho1, buffer_size, link, n_intervals=40)
        rates = [interval.rate_flow1 for interval in trajectory.intervals]
        for earlier, later in zip(rates, rates[1:]):
            assert later >= earlier - 1e-9
        assert rates[-1] <= rho1 + 1e-6 * rho1

    @given(
        rho_fraction=st.floats(min_value=0.01, max_value=0.95, allow_nan=False),
        buffer_size=st.floats(min_value=100.0, max_value=1e7, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_occupancy_bounded_by_threshold(self, rho_fraction, buffer_size):
        link = 1_000_000.0
        rho1 = rho_fraction * link
        trajectory = two_flow_fluid(rho1, buffer_size, link, n_intervals=40)
        for interval in trajectory.intervals:
            assert interval.occupancy_flow1_end <= trajectory.threshold_flow1 * (
                1.0 + 1e-9
            )

    @given(
        rho_fraction=st.floats(min_value=0.01, max_value=0.95, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_limit_is_fixed_point_of_recursion(self, rho_fraction):
        link = 1_000_000.0
        rho1 = rho_fraction * link
        buffer_size = 1e6
        trajectory = two_flow_fluid(rho1, buffer_size, link, n_intervals=5)
        b2 = buffer_size * (1.0 - rho_fraction)
        fixed_point = trajectory.limit_length
        assert math.isclose(
            (rho1 / link) * fixed_point + b2 / link, fixed_point, rel_tol=1e-9
        )
