"""Tests for repro.cdn.purge and repro.ngram.baseline."""

import pytest

from repro.cdn.cache import LruTtlCache
from repro.cdn.edge import EdgeServer
from repro.cdn.network import LatencyModel
from repro.cdn.origin import OriginFleet
from repro.cdn.purge import PurgeController, PurgeRequest
from repro.logs.record import CacheStatus
from repro.ngram.baseline import PerClientRecencyPredictor, PopularityPredictor
from repro.ngram.evaluate import evaluate_topk
from repro.ngram.model import BackoffNgramModel
from repro.synth.clients import Client
from repro.synth.domains import CachePolicyKind, DomainPopulation
from repro.synth.rng import substream
from repro.synth.sessions import RequestEvent
from repro.synth.sizes import SizeModel


@pytest.fixture(scope="module")
def domains():
    return DomainPopulation(num_domains=30, seed=55)


def make_edges(count):
    origins = OriginFleet()
    size_model = SizeModel(substream(12, "sz"))
    return [
        EdgeServer(
            f"edge-{i}",
            LruTtlCache(1 << 24),
            origins,
            LatencyModel(substream(12, "lat", str(i))),
            size_model,
            substream(12, "edge", str(i)),
        )
        for i in range(count)
    ]


@pytest.fixture
def client():
    return Client("cc00dd11", "NewsReader/1.0 (iPhone; iOS 13.1)", "mobile_app", 1.0)


def cacheable_domain(domains):
    for domain in domains:
        if domain.policy.kind is CachePolicyKind.ALWAYS:
            return domain
    pytest.skip("no ALWAYS domain")


class TestPurgeRequest:
    def test_exact_match(self):
        request = PurgeRequest("d.com/api/v1/home", 0.0)
        assert request.matches("d.com/api/v1/home")
        assert not request.matches("d.com/api/v1/other")

    def test_glob_match(self):
        request = PurgeRequest("d.com/api/v1/item/*", 0.0)
        assert request.matches("d.com/api/v1/item/42")
        assert not request.matches("d.com/api/v1/home")


class TestPurgeController:
    def test_purge_removes_after_propagation(self, domains, client):
        edges = make_edges(2)
        domain = cacheable_domain(domains)
        endpoint = domain.manifests[0]
        object_id = f"{domain.name}{endpoint.url}"
        for edge in edges:
            edge.serve(RequestEvent(0.0, client, domain, endpoint))
            assert edge.cache.contains_fresh(object_id, 1.0)

        controller = PurgeController(
            edges, substream(1, "purge"), propagation_median_s=5.0
        )
        controller.purge(object_id, now=10.0)
        controller.advance(now=10.0 + 1000.0)  # long after propagation
        for edge in edges:
            assert not edge.cache.contains_fresh(object_id, 1011.0)
        assert controller.objects_purged == 2
        assert controller.pending_count == 0

    def test_consistency_window_before_propagation(self, domains, client):
        edges = make_edges(3)
        controller = PurgeController(
            edges, substream(2, "purge"), propagation_median_s=10.0
        )
        request = controller.purge("anything/*", now=0.0)
        window = controller.consistency_window(request)
        assert window is not None and window > 0.0
        controller.advance(now=1e6)
        assert controller.consistency_window(request) is None

    def test_stale_serving_inside_window(self, domains, client):
        """Before the purge lands, edges still answer from cache."""
        edges = make_edges(1)
        domain = cacheable_domain(domains)
        endpoint = domain.manifests[0]
        edges[0].serve(RequestEvent(0.0, client, domain, endpoint))
        controller = PurgeController(
            edges, substream(3, "purge"), propagation_median_s=1e6
        )
        controller.purge(f"{domain.name}{endpoint.url}", now=1.0)
        controller.advance(now=2.0)  # purge not propagated yet
        served = edges[0].serve(RequestEvent(3.0, client, domain, endpoint))
        assert served.log.cache_status is CacheStatus.HIT

    def test_zero_propagation_is_instant(self, domains, client):
        edges = make_edges(1)
        domain = cacheable_domain(domains)
        endpoint = domain.manifests[0]
        edges[0].serve(RequestEvent(0.0, client, domain, endpoint))
        controller = PurgeController(
            edges, substream(4, "purge"), propagation_median_s=0.0
        )
        controller.purge(f"{domain.name}*", now=1.0)
        controller.advance(now=1.0)
        served = edges[0].serve(RequestEvent(2.0, client, domain, endpoint))
        assert served.log.cache_status is CacheStatus.MISS

    def test_glob_purge_whole_domain(self, domains, client):
        edges = make_edges(1)
        domain = cacheable_domain(domains)
        for endpoint in domain.manifests[:2]:
            edges[0].serve(RequestEvent(0.0, client, domain, endpoint))
        controller = PurgeController(
            edges, substream(5, "purge"), propagation_median_s=0.0
        )
        controller.purge(f"{domain.name}/*", now=1.0)
        dropped = controller.advance(now=1.0)
        assert dropped == min(2, len(domain.manifests))

    def test_negative_propagation_rejected(self):
        with pytest.raises(ValueError):
            PurgeController([], substream(6, "x"), propagation_median_s=-1.0)


class TestBaselinePredictors:
    def test_popularity_predicts_most_common(self):
        baseline = PopularityPredictor()
        baseline.fit([["a", "a", "a", "b", "b", "c"]])
        assert baseline.predict(["anything"], k=2) == ["a", "b"]

    @pytest.mark.parametrize("order", [["a", "b"], ["b", "a"]])
    def test_popularity_breaks_ties_by_token(self, order):
        fitted = PopularityPredictor().fit([order])
        assert fitted.predict([], k=2) == ["a", "b"]
        grown = PopularityPredictor()
        for token in order:
            grown.add_sequence([token])
        assert grown.predict([], k=2) == ["a", "b"]
        grown.add_sequence(["b"])
        assert grown.predict([], k=2) == ["b", "a"]

    def test_popularity_ignores_history(self):
        baseline = PopularityPredictor().fit([["a", "a", "b"]])
        assert baseline.predict(["b"], k=1) == baseline.predict(["zzz"], k=1)

    def test_recency_predicts_latest_distinct(self):
        baseline = PerClientRecencyPredictor()
        assert baseline.predict(["a", "b", "a", "c"], k=2) == ["c", "a"]

    def test_recency_empty_history(self):
        assert PerClientRecencyPredictor().predict([], k=3) == []

    def test_k_validated(self):
        with pytest.raises(ValueError):
            PopularityPredictor().predict([], k=0)
        with pytest.raises(ValueError):
            PerClientRecencyPredictor().predict([], k=0)

    def test_ngram_beats_popularity_on_structured_flows(self, long_json_logs):
        from repro.ngram.evaluate import build_client_sequences, split_clients

        sequences = build_client_sequences(long_json_logs)
        train_ids, test_ids = split_clients(sequences, seed=3)
        train = [sequences[cid] for cid in train_ids]
        test = [sequences[cid] for cid in test_ids][:200]

        ngram = BackoffNgramModel(order=1).fit(train)
        popularity = PopularityPredictor().fit(train)
        ngram_acc = evaluate_topk(ngram, test, n=1, ks=[1])[0].accuracy
        pop_acc = evaluate_topk(popularity, test, n=1, ks=[1])[0].accuracy
        assert ngram_acc > pop_acc + 0.1
