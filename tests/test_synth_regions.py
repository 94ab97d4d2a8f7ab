"""Tests for repro.synth.regions and repro.analysis.regional."""

import pytest

from repro.analysis.regional import (
    edge_region,
    peak_hour_spread,
    regional_breakdown,
)
from repro.synth.clients import ClientPopulation
from repro.synth.regions import DEFAULT_REGIONS, Region, assign_regions
from repro.synth.rng import substream
from repro.synth.workload import WorkloadBuilder, long_term_config
from tests.conftest import make_log


class TestRegionModel:
    def test_default_regions_share_sums_to_one(self):
        assert sum(r.client_share for r in DEFAULT_REGIONS) == pytest.approx(1.0)

    def test_local_hour_applies_offset(self):
        region = Region("x", utc_offset_h=8.0, client_share=1.0)
        assert region.local_hour(0.0, epoch=0.0) == pytest.approx(8.0)
        assert region.local_hour(3600.0 * 20, epoch=0.0) == pytest.approx(4.0)

    def test_assign_regions_exact_counts(self):
        rng = substream(1, "regions-test")
        assignment = assign_regions(rng, 200, DEFAULT_REGIONS)
        counts = {name: 0 for name in (r.name for r in DEFAULT_REGIONS)}
        for region in assignment:
            counts[region.name] += 1
        for region in DEFAULT_REGIONS:
            assert counts[region.name] == pytest.approx(
                200 * region.client_share, abs=1
            )

    def test_assign_regions_empty_rejected(self):
        with pytest.raises(ValueError):
            assign_regions(substream(1, "x"), 10, [])

    def test_client_population_carries_region(self):
        population = ClientPopulation(100, seed=2, regions=DEFAULT_REGIONS)
        names = {client.region for client in population}
        assert names == {"na", "eu", "apac", "sa"}

    def test_single_region_population_empty_region(self):
        population = ClientPopulation(10, seed=2)
        assert all(client.region == "" for client in population)


class TestEdgeRegion:
    def test_multi_region_id(self):
        assert edge_region("na-edge-0") == "na"
        assert edge_region("apac-edge-2") == "apac"

    def test_single_region_id(self):
        assert edge_region("edge-3") == ""

    def test_odd_id(self):
        assert edge_region("weird") == ""


class TestMultiRegionDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return WorkloadBuilder(
            long_term_config(
                12_000, seed=4, num_domains=40, regions=DEFAULT_REGIONS
            )
        ).build()

    def test_all_regions_serve_traffic(self, dataset):
        stats = regional_breakdown(dataset.logs, epoch=dataset.config.start_time)
        assert set(stats) == {"na", "eu", "apac", "sa"}

    def test_traffic_tracks_client_share(self, dataset):
        stats = regional_breakdown(dataset.logs, epoch=dataset.config.start_time)
        total = sum(s.total_requests for s in stats.values())
        by_name = {r.name: r.client_share for r in DEFAULT_REGIONS}
        for name, bucket in stats.items():
            assert abs(bucket.total_requests / total - by_name[name]) < 0.12

    def test_clients_stay_in_their_region(self, dataset):
        seen = {}
        for record in dataset.logs:
            region = edge_region(record.edge_id)
            previous = seen.setdefault(record.client_ip_hash, region)
            assert previous == region

    def test_peak_hours_differ_across_timezones(self, dataset):
        stats = regional_breakdown(dataset.logs, epoch=dataset.config.start_time)
        # NA and APAC are 14 timezones apart; their diurnal peaks
        # must land hours apart on the dataset clock.
        assert peak_hour_spread(stats) >= 4

    def test_single_region_dataset_unchanged(self, long_dataset):
        stats = regional_breakdown(long_dataset.logs)
        assert set(stats) == {""}


class TestRegionalStats:
    def test_hourly_profile_complete(self):
        logs = [make_log(timestamp=3600.0 * h) for h in range(24)]
        stats = regional_breakdown(logs, epoch=0.0)[""]
        profile = stats.hourly_profile()
        assert len(profile) == 24
        assert all(count == 1 for _, count in profile)

    def test_peak_hour(self):
        logs = [make_log(timestamp=3600.0 * 5 + i) for i in range(10)]
        logs += [make_log(timestamp=3600.0 * 9)]
        stats = regional_breakdown(logs, epoch=0.0)[""]
        assert stats.peak_hour() == 5

    @pytest.mark.parametrize("hours", [(9, 5), (5, 9)])
    def test_peak_hour_tie_goes_to_the_earliest_hour(self, hours):
        logs = [make_log(timestamp=3600.0 * hour) for hour in hours]
        stats = regional_breakdown(logs, epoch=0.0)[""]
        assert stats.peak_hour() == 5

    def test_spread_of_single_region_is_zero(self):
        logs = [make_log(timestamp=0.0)]
        assert peak_hour_spread(regional_breakdown(logs, epoch=0.0)) == 0
