"""Merge-algebra properties of every mergeable engine state.

The executor folds shard states in plan order, but the *plan* itself
varies: worker counts change shard counts, directory layouts change
record groupings, and checkpoint resume replays arbitrary prefixes.
So each mergeable state must behave like a commutative monoid over
its ingest stream: merging in any order, any grouping, with empty
states interleaved, must yield the same value — and the value must
survive pickling, because the process backend ships states between
interpreters.

These are property tests in the stdlib: a seeded ``random.Random``
drives many trials of randomized stream splits, and states compare
via their canonical (order-independent) projections.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine.flowstate import FlowCollectionState, PeriodicityDetectionState
from repro.engine.ngramstate import NgramEvalState, NgramSequenceState
from repro.engine.state import CharacterizationState
from repro.logs.record import CacheStatus, HttpMethod
from repro.periodicity.flows import FlowFilter, extract_flows
from repro.periodicity.results import ObjectPeriodicity
from repro.ngram.model import BackoffNgramModel
from repro.synth.workload import WorkloadBuilder, short_term_config
from tests.conftest import make_log

TRIALS = 20


@pytest.fixture(scope="module")
def records():
    return WorkloadBuilder(short_term_config(2_000, seed=7)).build().logs


def random_split(items, rng, parts):
    """Assign each item to one of ``parts`` buckets at random."""
    buckets = [[] for _ in range(parts)]
    for item in items:
        buckets[rng.randrange(parts)].append(item)
    return buckets


def roundtrip(state):
    return pickle.loads(pickle.dumps(state))


class MergeAlgebra:
    """Shared property checks; subclasses supply the state algebra.

    Required hooks: ``make()`` builds an empty state, ``ingest(state,
    item)`` folds one item, ``canonical(state)`` projects to an
    order-independent comparable value, ``stream(rng)`` yields one
    trial's items.
    """

    parts = 3

    def make(self):
        raise NotImplementedError

    def ingest(self, state, item):
        raise NotImplementedError

    def canonical(self, state):
        raise NotImplementedError

    def stream(self, rng):
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    def build(self, items):
        state = self.make()
        for item in items:
            self.ingest(state, item)
        return state

    def reference(self, items):
        return self.canonical(self.build(items))

    # -- properties -------------------------------------------------------

    def test_commutative(self):
        rng = random.Random(101)
        for _ in range(TRIALS):
            items = self.stream(rng)
            left, right = random_split(items, rng, 2)
            ab = self.build(left).merge(self.build(right))
            ba = self.build(right).merge(self.build(left))
            assert self.canonical(ab) == self.canonical(ba)

    def test_associative(self):
        rng = random.Random(202)
        for _ in range(TRIALS):
            items = self.stream(rng)
            a, b, c = random_split(items, rng, 3)
            left = self.build(a).merge(self.build(b)).merge(self.build(c))
            right = self.build(a).merge(self.build(b).merge(self.build(c)))
            assert self.canonical(left) == self.canonical(right)

    def test_identity(self):
        rng = random.Random(303)
        items = self.stream(rng)
        expected = self.reference(items)
        assert self.canonical(self.build(items).merge(self.make())) == expected
        assert self.canonical(self.make().merge(self.build(items))) == expected

    def test_split_invariant(self):
        """Any shard split folds back to the unsplit stream's state."""
        rng = random.Random(404)
        for _ in range(TRIALS):
            items = self.stream(rng)
            expected = self.reference(items)
            parts = random_split(items, rng, rng.randrange(2, 6))
            merged = self.make()
            for part in parts:
                merged = merged.merge(self.build(part))
            assert self.canonical(merged) == expected

    def test_pickle_roundtrip(self):
        """States survive the process boundary, before and after merge."""
        rng = random.Random(505)
        items = self.stream(rng)
        state = self.build(items)
        assert self.canonical(roundtrip(state)) == self.canonical(state)
        left, right = random_split(items, rng, 2)
        merged = roundtrip(self.build(left)).merge(roundtrip(self.build(right)))
        assert self.canonical(merged) == self.reference(items)


# -- pipeline states ----------------------------------------------------------


class RecordAlgebra(MergeAlgebra):
    """Record-ingesting states draw trial streams from one dataset."""

    @pytest.fixture(autouse=True)
    def _bind_records(self, records):
        self.records = records

    def stream(self, rng):
        count = rng.randrange(50, 400)
        start = rng.randrange(len(self.records) - count)
        return self.records[start : start + count]


class TestFlowCollectionAlgebra(RecordAlgebra):
    def make(self):
        return FlowCollectionState()

    def ingest(self, state, record):
        state.update([record])

    def canonical(self, state):
        return state.canonical()

    def test_finalize_split_invariant(self, records):
        """finalize() itself — filters applied post-merge — is exact."""
        rng = random.Random(606)
        whole = FlowCollectionState().update(records)
        expected = {
            object_id: sorted(flow.client_flows)
            for object_id, flow in whole.finalize().items()
        }
        for _ in range(5):
            merged = FlowCollectionState()
            for part in random_split(records, rng, 4):
                merged = merged.merge(FlowCollectionState().update(part))
            actual = {
                object_id: sorted(flow.client_flows)
                for object_id, flow in merged.finalize().items()
            }
            assert actual == expected

    def test_mismatched_filters_rejected(self):
        strict = FlowCollectionState(FlowFilter(min_requests_per_client_flow=99))
        with pytest.raises(ValueError, match="different filters"):
            FlowCollectionState().merge(strict)


def planted(url, clients, requests):
    """``requests`` JSON requests to ``url`` from each of ``clients``."""
    return [
        make_log(
            url=url,
            client_ip_hash=f"{client:016x}",
            timestamp=1_559_347_200.0 + 7.0 * request + 0.25 * client,
            method=HttpMethod.POST if request % 3 else HttpMethod.GET,
            cache_status=(
                CacheStatus.NO_STORE if request % 2 else CacheStatus.HIT
            ),
        )
        for client in range(clients)
        for request in range(requests)
    ]


def flow_values(flows):
    """Contents of a flow map: per object, per client, the sorted
    timestamps and both tallies."""
    return {
        object_id: {
            client_id: (
                client_flow.timestamps.dtype.name,
                client_flow.timestamps.tolist(),
                client_flow.upload_count,
                client_flow.uncacheable_count,
            )
            for client_id, client_flow in flow.client_flows.items()
        }
        for object_id, flow in flows.items()
    }


class TestFlowFinalizeFilters:
    """finalize() applies both §5.1 filters before it builds a flow."""

    def test_object_below_client_count_builds_no_flow(self, monkeypatch):
        # Nine clients of ten requests each: every client flow passes
        # the per-client threshold, the object fails the client count.
        state = FlowCollectionState().update(planted("/api/nine", 9, 10))

        def no_flow(**_):
            raise AssertionError("built a flow for a filtered-out object")

        monkeypatch.setattr(
            "repro.engine.flowstate.ClientObjectFlow", no_flow
        )
        assert state.finalize() == {}

    def test_object_at_client_count_is_kept(self):
        records = (
            planted("/api/ten", 10, 10)
            + planted("/api/nine", 9, 10)
            + planted("/api/short", 10, 9)
        )
        flows = FlowCollectionState().update(records).finalize()
        kept = make_log(url="/api/ten").object_id
        assert list(flows) == [kept]
        assert flows[kept].client_count == 10
        assert flows[kept].request_count == 100

    def test_finalize_equals_extract_flows_under_random_splits(self, records):
        rng = random.Random(707)
        items = (
            list(records)
            + planted("/api/ten", 10, 10)
            + planted("/api/nine", 9, 12)
            + planted("/api/short", 12, 9)
        )
        rng.shuffle(items)
        expected = flow_values(extract_flows(items))
        assert len(expected) >= 2
        for _ in range(TRIALS):
            merged = FlowCollectionState()
            for part in random_split(items, rng, rng.randrange(1, 6)):
                merged = merged.merge(FlowCollectionState().update(part))
            flows = merged.finalize()
            assert flow_values(flows) == expected
            # The canonical order: objects, then clients, by sorted id.
            assert list(flows) == sorted(flows)
            for flow in flows.values():
                assert list(flow.client_flows) == sorted(flow.client_flows)


class TestNgramSequenceAlgebra(RecordAlgebra):
    def make(self):
        return NgramSequenceState()

    def ingest(self, state, record):
        state.update([record])

    def canonical(self, state):
        return state.canonical()

    def test_sequences_split_invariant(self, records):
        rng = random.Random(707)
        expected = {
            clustered: NgramSequenceState().update(records).sequences(clustered)
            for clustered in (False, True)
        }
        for _ in range(5):
            merged = NgramSequenceState()
            for part in random_split(records, rng, 4):
                merged = merged.merge(NgramSequenceState().update(part))
            for clustered in (False, True):
                assert merged.sequences(clustered) == expected[clustered]

    def test_mismatched_settings_rejected(self):
        other = NgramSequenceState(json_only=False)
        with pytest.raises(ValueError, match="different settings"):
            NgramSequenceState().merge(other)


class TestNgramModelAlgebra(MergeAlgebra):
    def make(self):
        return BackoffNgramModel(order=2)

    def ingest(self, state, sequence):
        state.add_sequence(sequence)

    def canonical(self, state):
        return (
            {history: dict(counts) for history, counts in state._transitions.items()},
            dict(state._totals),
            state.trained_sequences,
            state.trained_tokens,
        )

    def stream(self, rng):
        vocabulary = [f"/api/{index}" for index in range(12)]
        return [
            [rng.choice(vocabulary) for _ in range(rng.randrange(2, 15))]
            for _ in range(rng.randrange(1, 12))
        ]

    def test_merged_predicts_like_fit_on_all(self):
        rng = random.Random(808)
        for _ in range(5):
            sequences = self.stream(rng)
            left, right = random_split(sequences, rng, 2)
            merged = self.build(left).merge(self.build(right))
            whole = self.build(sequences)
            for sequence in sequences:
                for position in range(1, len(sequence)):
                    history = sequence[max(0, position - 2) : position]
                    assert merged.scored_predictions(history, k=5) == (
                        whole.scored_predictions(history, k=5)
                    )

    def test_mismatched_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            BackoffNgramModel(order=1).merge(BackoffNgramModel(order=2))

    def test_mismatched_discount_rejected(self):
        with pytest.raises(ValueError, match="discount"):
            BackoffNgramModel(backoff_discount=0.4).merge(
                BackoffNgramModel(backoff_discount=0.5)
            )


class TestNgramEvalAlgebra(MergeAlgebra):
    def make(self):
        return NgramEvalState()

    def ingest(self, state, item):
        n, k, correct, total = item
        state.record(n, k, correct, total)

    def canonical(self, state):
        return state.canonical()

    def stream(self, rng):
        return [
            (rng.randrange(1, 3), rng.choice((1, 5, 10)), rng.randrange(8), 8)
            for _ in range(rng.randrange(1, 40))
        ]


class TestCharacterizationAlgebra(RecordAlgebra):
    def make(self):
        return CharacterizationState()

    def ingest(self, state, record):
        state.update([record])

    def canonical(self, state):
        # Everything to_report() reads; size lists concatenate in merge
        # order, so they compare sorted.
        return (
            state.summary,
            state.traffic_source,
            state.request_type,
            state.cacheability,
            {domain: vars(stats) for domain, stats in state.domains.items()},
            {ct: sorted(dist.sizes) for ct, dist in state.sizes.items()},
            state.apps,
        )


class TestPeriodicityDetectionAlgebra:
    """Disjoint-union state: no stream, so just the union contract."""

    @staticmethod
    def outcome(object_id):
        return ObjectPeriodicity(object_id=object_id, object_period=None)

    def test_union_merges_disjoint_shards(self):
        rng = random.Random(909)
        for _ in range(TRIALS):
            ids = [f"obj-{index}" for index in range(rng.randrange(2, 30))]
            parts = random_split(ids, rng, 4)
            merged = PeriodicityDetectionState()
            for part in parts:
                merged = merged.merge(
                    PeriodicityDetectionState(
                        {object_id: self.outcome(object_id) for object_id in part}
                    )
                )
            assert sorted(merged.objects) == sorted(ids)

    def test_overlap_rejected(self):
        left = PeriodicityDetectionState({"obj-1": self.outcome("obj-1")})
        right = PeriodicityDetectionState({"obj-1": self.outcome("obj-1")})
        with pytest.raises(ValueError, match="overlap"):
            left.merge(right)

    def test_pickle_roundtrip(self):
        state = PeriodicityDetectionState({"obj-1": self.outcome("obj-1")})
        clone = pickle.loads(pickle.dumps(state))
        assert sorted(clone.objects) == ["obj-1"]
