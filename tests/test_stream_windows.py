"""Unit and property tests for the event-time windowing core.

The property tests pin the subsystem's late-data contract: any record
whose disorder stays within the watermark lag lands in exactly the
window its timestamp maps to, and any record beyond the lag is
*counted* in ``late_dropped`` — the conservation law
``records_in == records_windowed + late_dropped + resumed_skips``
holds for every tumbling *and sliding* input stream, so nothing is
ever silently lost.  Sliding windows additionally expose pane-level
``*_assignments`` counters, which must tie out against the sealed
accumulators' contents.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.windows import WatermarkClock, WindowManager, WindowSpec
from tests.conftest import make_log

BASE_TS = 1_559_347_200.0  # 2019-06-01T00:00:00Z, the corpus epoch


class CountingWindow:
    """Minimal accumulator: remembers its bounds and its timestamps."""

    def __init__(self, start: float, end: float) -> None:
        self.start = start
        self.end = end
        self.timestamps = []

    def update(self, records) -> None:
        self.timestamps.extend(record.timestamp for record in records)


def make_manager(window_s=60.0, lag_s=0.0, slide_s=None, sources=1,
                 presealed=()):
    sealed = {}

    def on_seal(bounds, accumulator):
        assert bounds not in sealed, f"window {bounds} sealed twice"
        sealed[bounds] = accumulator

    manager = WindowManager(
        WindowSpec(window_s, slide_s),
        watermark_lag_s=lag_s,
        factory=CountingWindow,
        on_seal=on_seal,
        presealed=presealed,
        sources=sources,
    )
    return manager, sealed


class TestWindowSpec:
    def test_tumbling_assignment(self):
        spec = WindowSpec(60.0)
        assert spec.tumbling
        assert spec.assign(BASE_TS) == [(BASE_TS, BASE_TS + 60.0)]
        assert spec.assign(BASE_TS + 59.999) == [(BASE_TS, BASE_TS + 60.0)]
        assert spec.assign(BASE_TS + 60.0) == [
            (BASE_TS + 60.0, BASE_TS + 120.0)
        ]

    def test_sliding_assignment_contains_timestamp(self):
        spec = WindowSpec(300.0, slide_s=60.0)
        bounds = spec.assign(BASE_TS + 130.0)
        assert len(bounds) == 5  # window/slide panes
        for start, end in bounds:
            assert start <= BASE_TS + 130.0 < end
            assert end - start == 300.0
        assert bounds == sorted(bounds)  # earliest first

    def test_sliding_starts_are_slide_multiples(self):
        spec = WindowSpec(90.0, slide_s=30.0)
        for start, _ in spec.assign(12_345.0):
            assert math.isclose(start % 30.0, 0.0, abs_tol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0.0)
        with pytest.raises(ValueError):
            WindowSpec(60.0, slide_s=0.0)
        with pytest.raises(ValueError):
            WindowSpec(60.0, slide_s=120.0)  # gaps would drop records


class TestWatermarkClock:
    def test_single_source_tracks_max_minus_lag(self):
        clock = WatermarkClock(lag_s=10.0)
        assert clock.value == float("-inf")
        assert clock.observe(100.0) == 90.0
        assert clock.observe(50.0) == 90.0  # disorder never regresses it
        assert clock.observe(200.0) == 190.0
        assert clock.max_event_time == 200.0

    def test_min_over_source_frontiers(self):
        clock = WatermarkClock(lag_s=0.0, sources=2)
        clock.observe(500.0, source=0)
        # Source 1 has produced nothing: watermark held at -inf.
        assert clock.value == float("-inf")
        assert clock.observe(90.0, source=1) == 90.0
        # The slow source governs, however far ahead the fast one runs.
        clock.observe(10_000.0, source=0)
        assert clock.value == 90.0

    def test_finished_source_releases_the_watermark(self):
        clock = WatermarkClock(lag_s=0.0, sources=2)
        clock.observe(500.0, source=0)
        assert clock.finish(source=1) == 500.0
        clock.finish(source=0)
        assert clock.value == 500.0  # rests at the overall max

    def test_validation(self):
        with pytest.raises(ValueError):
            WatermarkClock(lag_s=-1.0)
        with pytest.raises(ValueError):
            WatermarkClock(sources=0)


class TestWindowManager:
    def test_requires_factory(self):
        with pytest.raises(ValueError):
            WindowManager(WindowSpec(60.0))

    def test_in_order_stream_seals_in_window_order(self):
        manager, sealed = make_manager(window_s=60.0)
        for offset in (0.0, 30.0, 61.0, 125.0):
            manager.process(make_log(timestamp=BASE_TS + offset))
        manager.flush()
        ends = [bounds[1] for bounds in sealed]
        assert ends == sorted(ends)
        assert manager.sealed_windows == 3
        assert manager.records_windowed == 4
        assert manager.late_dropped == 0

    def test_disorder_within_lag_is_not_late(self):
        manager, sealed = make_manager(window_s=60.0, lag_s=30.0)
        manager.process(make_log(timestamp=BASE_TS + 80.0))
        # 25s older than the max: within the 30s budget, window 0 open.
        manager.process(make_log(timestamp=BASE_TS + 55.0))
        manager.flush()
        assert manager.late_dropped == 0
        first = sealed[(BASE_TS, BASE_TS + 60.0)]
        assert first.timestamps == [BASE_TS + 55.0]

    def test_beyond_lag_record_is_counted_late(self):
        manager, sealed = make_manager(window_s=60.0, lag_s=30.0)
        # Watermark reaches 70s: the first window's end (60s) is passed
        # and sealed, even though no record ever landed in it.
        manager.process(make_log(timestamp=BASE_TS + 100.0))
        assert manager.seal_horizon >= BASE_TS + 60.0
        manager.process(make_log(timestamp=BASE_TS + 10.0))  # 90s behind
        manager.flush()
        assert manager.late_dropped == 1
        assert manager.records_windowed == 1
        assert (BASE_TS, BASE_TS + 60.0) not in sealed  # never materialized

    def test_presealed_windows_count_resumed_skips_not_late(self):
        presealed = [(BASE_TS, BASE_TS + 60.0)]
        manager, sealed = make_manager(window_s=60.0, presealed=presealed)
        manager.process(make_log(timestamp=BASE_TS + 30.0))
        manager.process(make_log(timestamp=BASE_TS + 90.0))
        manager.flush()
        assert manager.resumed_skips == 1
        assert manager.late_dropped == 0
        assert manager.records_windowed == 1
        assert (BASE_TS, BASE_TS + 60.0) not in sealed

    def test_per_source_frontier_protects_slow_source(self):
        # Source 0 races a full window ahead; source 1's old records
        # must still be accepted because its own frontier governs.
        manager, sealed = make_manager(window_s=60.0, lag_s=0.0, sources=2)
        manager.process(make_log(timestamp=BASE_TS + 500.0), source=0)
        manager.process(make_log(timestamp=BASE_TS + 5.0), source=1)
        assert manager.late_dropped == 0
        manager.finish_source(1)
        manager.finish_source(0)
        manager.flush()
        assert manager.late_dropped == 0
        assert sealed[(BASE_TS, BASE_TS + 60.0)].timestamps == [BASE_TS + 5.0]

    def test_sliding_panes_share_records(self):
        manager, sealed = make_manager(window_s=120.0, slide_s=60.0)
        manager.process(make_log(timestamp=BASE_TS + 70.0))
        manager.flush()
        panes = [
            bounds for bounds, window in sealed.items() if window.timestamps
        ]
        assert len(panes) == 2
        for start, end in panes:
            assert start <= BASE_TS + 70.0 < end

    def test_sliding_partial_late_counts_once(self):
        """Regression: a record late for one pane but accepted in
        another must count as windowed, not as windowed AND late.

        The exact repro from the bug report: window 10s / slide 5s,
        lag 6s, timestamps [0, 5, 12, 20, 9].  After ts=20 the
        watermark is 14, sealing pane (0, 10); ts=9 is late for that
        pane but still lands in the open pane (5, 15).  The broken
        accounting produced windowed + late == 6 for 5 records in.
        """
        manager, _ = make_manager(window_s=10.0, lag_s=6.0, slide_s=5.0)
        for offset in (0.0, 5.0, 12.0, 20.0, 9.0):
            manager.process(make_log(timestamp=BASE_TS + offset))
        manager.flush()
        assert manager.records_in == 5
        assert (
            manager.records_windowed
            + manager.late_dropped
            + manager.resumed_skips
            == 5
        )
        assert manager.records_windowed == 5
        assert manager.late_dropped == 0
        # The pane-level miss stays observable:
        assert manager.late_assignments == 1

    def test_assignment_counters_cover_every_pane(self):
        manager, sealed = make_manager(window_s=120.0, slide_s=60.0)
        for offset in (70.0, 130.0):
            manager.process(make_log(timestamp=BASE_TS + offset))
        manager.flush()
        assert manager.accepted_assignments == 4  # 2 records x 2 panes
        accepted = sum(len(window.timestamps) for window in sealed.values())
        assert accepted == manager.accepted_assignments

    def test_fully_late_sliding_record_counts_late_once(self):
        manager, _ = make_manager(window_s=10.0, lag_s=0.0, slide_s=5.0)
        manager.process(make_log(timestamp=BASE_TS + 40.0))
        # Both panes containing ts=2 ((-5, 5) and (0, 10)) are sealed.
        manager.process(make_log(timestamp=BASE_TS + 2.0))
        manager.flush()
        assert manager.late_dropped == 1
        assert manager.late_assignments == 2
        assert manager.records_windowed == 1


# -- property tests ------------------------------------------------------

offsets_within_lag = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3_600.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=29.9, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@given(offsets_within_lag)
@settings(max_examples=60, deadline=None)
def test_disorder_within_lag_lands_in_the_correct_window(pairs):
    """Arrival = event time + delay < lag ⇒ never late, right window."""
    spec = WindowSpec(60.0)
    manager, sealed = make_manager(window_s=60.0, lag_s=30.0)
    arrivals = sorted(
        (event + delay, event) for event, delay in pairs
    )
    for _, event in arrivals:
        manager.process(make_log(timestamp=BASE_TS + event))
    manager.flush()
    assert manager.late_dropped == 0
    assert manager.records_windowed == len(pairs)
    for bounds, window in sealed.items():
        for timestamp in window.timestamps:
            assert spec.assign(timestamp) == [bounds]


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=7_200.0, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_conservation_no_record_is_silently_lost(events, lag):
    """windowed + late + resumed == total, for any stream and lag."""
    presealed = [(BASE_TS, BASE_TS + 60.0)]
    manager, sealed = make_manager(
        window_s=60.0, lag_s=lag, presealed=presealed
    )
    for event in events:
        manager.process(make_log(timestamp=BASE_TS + event))
    manager.flush()
    assert (
        manager.records_windowed
        + manager.late_dropped
        + manager.resumed_skips
        == len(events)
    )
    accepted = sum(len(window.timestamps) for window in sealed.values())
    assert accepted == manager.records_windowed


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=7_200.0, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    st.sampled_from([5.0, 10.0, 30.0, 60.0]),
)
@settings(max_examples=60, deadline=None)
def test_conservation_holds_for_sliding_windows(events, lag, slide):
    """The conservation law for sliding specs, where one record can be
    late for some panes and accepted in others (the historical
    double-count).  Exactly one per-record bucket per record, and the
    pane-level counters tie out against the sealed accumulators."""
    presealed = [(BASE_TS, BASE_TS + 60.0)]
    manager, sealed = make_manager(
        window_s=60.0, lag_s=lag, slide_s=slide, presealed=presealed
    )
    for event in events:
        manager.process(make_log(timestamp=BASE_TS + event))
    manager.flush()
    assert (
        manager.records_windowed
        + manager.late_dropped
        + manager.resumed_skips
        == len(events)
    )
    accepted = sum(len(window.timestamps) for window in sealed.values())
    assert accepted == manager.accepted_assignments
    panes_per_record = math.ceil(60.0 / slide)
    assert (
        manager.accepted_assignments
        + manager.late_assignments
        + manager.resumed_assignments
        == len(events) * panes_per_record
    )


@given(
    st.lists(
        st.floats(min_value=130.0, max_value=3_600.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_beyond_lag_records_always_hit_the_late_counter(advancers):
    """After the watermark passes a window, its stragglers are counted."""
    manager, _ = make_manager(window_s=60.0, lag_s=30.0)
    for event in advancers:
        manager.process(make_log(timestamp=BASE_TS + event))
    # Window (BASE_TS, BASE_TS+60) is sealed: min(advancers) >= 130 so
    # the watermark is at least 100 > 60.
    before = manager.late_dropped
    manager.process(make_log(timestamp=BASE_TS + 1.0))
    assert manager.late_dropped == before + 1
    manager.flush()
    assert (
        manager.records_windowed + manager.late_dropped
        == len(advancers) + 1
    )
