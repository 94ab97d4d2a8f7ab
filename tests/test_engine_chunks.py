"""Chunk boundaries never show in a grouped fold.

Every record-stage state folds its input a chunk at a time
(:data:`repro.logs.record.CHUNK_SIZE` records), grouping each chunk by
user agent, domain, flow key or URL.  These properties split random
records at random chunk boundaries (single-record chunks included) and
compare each state with the per-record analysis-layer functions:
``==`` on the values, and the iteration order of every counter, dict
and set too, because the reports render in insertion order and
checkpoints pickle it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import run_stream
from repro.engine.flowstate import FlowCollectionState
from repro.engine.ngramstate import NgramSequenceState
from repro.engine.state import CharacterizationState
from repro.engine.tracks import ALL_TRACKS, TrackState
from repro.logs.record import CHUNK_SIZE, CacheStatus, HttpMethod
from repro.ngram.evaluate import build_client_sequences
from repro.periodicity.flows import FlowFilter, extract_flows
from repro.stream import merge_accumulators
from repro.stream.accumulators import merged_characterization
from repro.synth.workload import WorkloadBuilder, short_term_config
from tests.conftest import make_log
from tests.reference import characterization_reference

AGENTS = [
    None,
    "NewsReader/5.2.1 (iPhone; iOS 13.1; Scale/3.00) CFNetwork/1107.1",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/76.0.3809.100 Safari/537.36",
    "Mozilla/5.0 (Linux; Android 9; SM-G960F; wv) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Version/4.0 Chrome/76.0.3809.89 Mobile Safari/537.36",
    "FitTrack/2.1.0 (Android 10) okhttp/3.12.1",
    "okhttp/3.12.1",
    "Roku/DVP-9.10 (519.10E04111A)",
]
MIME_TYPES = [
    "application/json",
    "application/json; charset=utf-8",
    " Application/JSON",
    "text/html; charset=utf-8",
    "image/png",
]

records_strategy = st.lists(
    st.builds(
        make_log,
        timestamp=st.integers(0, 40).map(lambda second: 1_559_347_200.0 + second),
        client_ip_hash=st.sampled_from(["c0", "c1", "c2|x"]),
        user_agent=st.sampled_from(AGENTS),
        method=st.sampled_from(list(HttpMethod)),
        domain=st.sampled_from(["a.example.com", "b.example.com"]),
        url=st.sampled_from(
            ["/api/v1/home", "/api/v1/item/17", "/api/v1/item/9?b=1&a=2", "/x"]
        ),
        mime_type=st.sampled_from(MIME_TYPES),
        response_bytes=st.integers(0, 5_000),
        cache_status=st.sampled_from(list(CacheStatus)),
        request_bytes=st.integers(0, 300),
    ),
    max_size=80,
)

#: Chunk lengths, used in turn until the records run out.
cuts_strategy = st.lists(st.integers(1, 30), min_size=1, max_size=6)

EVERY_FLOW = FlowFilter(min_requests_per_client_flow=1,
                        min_clients_per_object_flow=1)


def split(records, cuts):
    """``records`` cut into consecutive parts of the given lengths."""
    parts, start, index = [], 0, 0
    while start < len(records):
        end = start + cuts[index % len(cuts)]
        parts.append(records[start:end])
        start, index = end, index + 1
    return parts


def fold(parts, via):
    """Fold each part as one chunk, through each state's own ``update``
    or through a :class:`TrackState` holding every track."""
    if via == "tracks":
        tracks = TrackState(ALL_TRACKS, EVERY_FLOW)
        for part in parts:
            tracks.update(part)
        assert tracks.record_count == sum(map(len, parts))
        return {
            "characterization": tracks.characterization,
            "flows": tracks.flows,
            "ngrams": tracks.ngrams,
        }
    states = {
        "characterization": CharacterizationState(),
        "flows": FlowCollectionState(EVERY_FLOW),
        "ngrams": NgramSequenceState(),
    }
    for part in parts:
        for state in states.values():
            state.update(part)
    return states


def ordered(value):
    """``value`` with every container's iteration order made explicit."""
    if dataclasses.is_dataclass(value):
        return [
            (spec.name, ordered(getattr(value, spec.name)))
            for spec in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return [(key, ordered(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [ordered(item) for item in value]
    return value


def ordered_report(report):
    """:func:`ordered` of a §4 report, its size distributions taken by
    content type: the state lists them in a fixed order of its own."""
    return ordered(
        dataclasses.replace(report, sizes=dict(sorted(report.sizes.items())))
    )


@pytest.mark.parametrize("via", ["state", "tracks"])
@given(records=records_strategy, cuts=cuts_strategy)
@settings(max_examples=60, deadline=None)
def test_grouped_folds_equal_the_per_record_references(via, records, cuts):
    states = fold(split(records, cuts), via)

    report = states["characterization"].to_report()
    reference = characterization_reference(records)
    assert report == reference
    assert ordered_report(report) == ordered_report(reference)

    # Flows: the filtered map equals extract_flows; the raw per-key
    # lists hold timestamps in record order, keys in first-occurrence
    # order.
    flows = states["flows"]
    expected = extract_flows(records, EVERY_FLOW)
    finalized = flows.finalize()
    assert sorted(finalized) == sorted(expected)
    for object_id, flow in expected.items():
        mine = finalized[object_id].client_flows
        assert sorted(mine) == sorted(flow.client_flows)
        for client_id, client_flow in flow.client_flows.items():
            assert mine[client_id].timestamps.tolist() == (
                client_flow.timestamps.tolist()
            )
            assert mine[client_id].upload_count == client_flow.upload_count
            assert mine[client_id].uncacheable_count == (
                client_flow.uncacheable_count
            )
    by_key = {}
    for record in records:
        if record.is_json:
            by_key.setdefault(
                (record.object_id, record.client_id), []
            ).append(record.timestamp)
    assert [(key, raw.timestamps) for key, raw in flows._raw.items()] == (
        list(by_key.items())
    )
    assert flows.total_json_requests == sum(r.is_json for r in records)

    # Ngram sequences equal build_client_sequences for both variants.
    ngrams = states["ngrams"]
    for clustered in (False, True):
        assert ngrams.sequences(clustered) == build_client_sequences(
            records, clustered=clustered
        )
    clients = list(dict.fromkeys(r.client_id for r in records if r.is_json))
    for variant in (False, True):
        assert list(ngrams._entries[variant]) == clients
    assert [
        [stamp for stamp, _ in entries]
        for entries in ngrams._entries[False].values()
    ] == [
        [r.timestamp for r in records if r.is_json and r.client_id == client]
        for client in clients
    ]


@pytest.mark.parametrize("window_s", [300.0, 3_600.0])
def test_stream_windows_of_several_chunks_merge_to_batch(window_s):
    records = WorkloadBuilder(short_term_config(2_000, seed=1)).build().logs
    result = run_stream(
        records,
        window_s=window_s,
        detect_periods=False,
        predict_urls=False,
        keep_accumulators=True,
    )
    assert result.late_dropped == 0
    assert min(acc.record_count for acc in result.accumulators) > CHUNK_SIZE
    merged = merge_accumulators(result.accumulators)
    assert merged.record_count == len(records)
    report = merged_characterization(merged)
    reference = characterization_reference(records)
    assert report == reference
    if len(result.accumulators) == 1:
        # A merge reorders counters and sets; one window's own state
        # keeps the batch order.
        window = result.accumulators[0].characterization.to_report()
        assert ordered_report(window) == ordered_report(reference)


def test_update_pulls_at_most_one_chunk_ahead():
    state = TrackState(ALL_TRACKS)
    lead = []

    def records():
        for index in range(3 * CHUNK_SIZE + 5):
            # Records pulled, this one included, less records folded.
            lead.append(index + 1 - state.record_count)
            yield make_log(timestamp=1_559_347_200.0 + index)

    state.update(records())
    assert state.record_count == 3 * CHUNK_SIZE + 5
    assert max(lead) == CHUNK_SIZE
