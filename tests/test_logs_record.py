"""Unit tests for repro.logs.record."""

import copy
import dataclasses
import pickle
from types import MappingProxyType

import pytest

from repro.logs.record import (
    CacheStatus,
    HttpMethod,
    RequestLog,
    client_key,
    object_key,
)
from tests.conftest import make_log


class TestHttpMethod:
    def test_get_is_download(self):
        assert HttpMethod.GET.is_download()
        assert not HttpMethod.GET.is_upload()

    def test_head_is_download(self):
        assert HttpMethod.HEAD.is_download()

    def test_post_is_upload(self):
        assert HttpMethod.POST.is_upload()
        assert not HttpMethod.POST.is_download()

    def test_put_and_patch_are_uploads(self):
        assert HttpMethod.PUT.is_upload()
        assert HttpMethod.PATCH.is_upload()

    def test_delete_is_neither(self):
        assert not HttpMethod.DELETE.is_upload()
        assert not HttpMethod.DELETE.is_download()

    def test_from_string_value(self):
        assert HttpMethod("GET") is HttpMethod.GET


class TestCacheStatus:
    def test_hit_and_miss_are_cacheable(self):
        assert CacheStatus.HIT.cacheable
        assert CacheStatus.MISS.cacheable

    def test_no_store_is_uncacheable(self):
        assert not CacheStatus.NO_STORE.cacheable

    def test_values_round_trip(self):
        for status in CacheStatus:
            assert CacheStatus(status.value) is status


class TestRequestLogCoercion:
    def test_method_string_coerced_to_enum(self):
        record = make_log(method="post")
        assert record.method is HttpMethod.POST

    def test_cache_status_string_coerced(self):
        record = make_log(cache_status="no-store", ttl_seconds=None)
        assert record.cache_status is CacheStatus.NO_STORE

    def test_invalid_method_raises(self):
        with pytest.raises(ValueError):
            make_log(method="FETCH")


class TestContentTypeProperties:
    def test_content_type_strips_parameters(self):
        record = make_log(mime_type="application/json; charset=utf-8")
        assert record.content_type == "application/json"

    def test_content_type_lowercases(self):
        record = make_log(mime_type="Application/JSON")
        assert record.content_type == "application/json"

    def test_is_json_true_for_json(self):
        assert make_log(mime_type="application/json").is_json

    def test_is_json_false_for_structured_suffix(self):
        # The paper filters on the exact token, not +json suffixes.
        assert not make_log(mime_type="application/problem+json").is_json

    def test_is_html(self):
        assert make_log(mime_type="text/html; charset=utf-8").is_html
        assert not make_log(mime_type="application/json").is_html


class TestTaxonomyProperties:
    def test_get_is_download_not_upload(self):
        record = make_log(method=HttpMethod.GET)
        assert record.is_download and not record.is_upload

    def test_post_is_upload(self):
        record = make_log(method=HttpMethod.POST, request_bytes=128)
        assert record.is_upload and not record.is_download

    def test_cacheable_follows_cache_status(self):
        assert make_log(cache_status=CacheStatus.MISS).cacheable
        assert not make_log(
            cache_status=CacheStatus.NO_STORE, ttl_seconds=None
        ).cacheable

    def test_object_id_combines_domain_and_url(self):
        record = make_log(domain="a.example.com", url="/x?y=1")
        assert record.object_id == "a.example.com/x?y=1"

    def test_client_id_combines_ip_hash_and_ua(self):
        record = make_log(client_ip_hash="ff00", user_agent="curl/7.64.0")
        assert record.client_id == "ff00|curl/7.64.0"

    def test_client_id_with_missing_ua(self):
        record = make_log(user_agent=None)
        assert record.client_id.endswith("|")


class TestSerialization:
    def test_to_dict_flattens_enums(self):
        data = make_log().to_dict()
        assert data["method"] == "GET"
        assert data["cache_status"] == "hit"

    def test_round_trip(self):
        record = make_log(method=HttpMethod.POST, request_bytes=77)
        assert RequestLog.from_dict(record.to_dict()) == record

    def test_from_dict_ignores_unknown_keys(self):
        data = make_log().to_dict()
        data["unexpected"] = "value"
        record = RequestLog.from_dict(data)
        assert record.domain == "fastnews.example.com"

    def test_with_fields_replaces(self):
        record = make_log()
        changed = record.with_fields(status=404)
        assert changed.status == 404
        assert record.status == 200

    def test_records_are_hashable(self):
        assert len({make_log(), make_log()}) == 1


class TestKeyHelpers:
    def test_object_key(self):
        assert object_key("d.com", "/p") == "d.com/p"

    def test_client_key_none_ua(self):
        assert client_key("abcd", None) == "abcd|"

    def test_client_key_distinguishes_ua(self):
        assert client_key("abcd", "x") != client_key("abcd", "y")


class TestFromDictContract:
    """``from_dict`` fills a slotted record straight from the checked
    contract; it must be indistinguishable from a constructed one."""

    def _pair(self, **changes):
        record = make_log(**changes)
        return RequestLog.from_dict(record.to_dict()), record

    @pytest.mark.parametrize("changes", [
        {},
        {"method": HttpMethod.POST, "request_bytes": 77},
        {"user_agent": None, "cache_status": CacheStatus.NO_STORE,
         "ttl_seconds": None},
        {"timestamp": 1_559_347_200, "ttl_seconds": 60},
    ])
    def test_equals_the_constructed_record(self, changes):
        built, constructed = self._pair(**changes)
        assert type(built) is RequestLog
        assert built == constructed
        assert hash(built) == hash(constructed)
        assert repr(built) == repr(constructed)
        assert built.to_dict() == constructed.to_dict()

    def test_survives_a_pickle_round_trip(self):
        built, constructed = self._pair(user_agent=None)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(built, protocol))
            assert restored == constructed
            assert repr(restored) == repr(constructed)
        assert copy.deepcopy(built) == constructed

    def test_fields_are_frozen(self):
        built, _ = self._pair()
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.status = 500
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.user_agent = None

    def test_records_hold_slots_not_a_dict(self):
        built, constructed = self._pair()
        assert not hasattr(built, "__dict__")
        assert not hasattr(constructed, "__dict__")

    def test_empty_user_agent_becomes_none(self):
        data = make_log().to_dict()
        data["user_agent"] = ""
        assert RequestLog.from_dict(data).user_agent is None
        assert make_log(user_agent="").user_agent is None

    def test_accepts_a_mapping_that_is_not_a_dict(self):
        data = make_log().to_dict()
        assert RequestLog.from_dict(MappingProxyType(data)) == make_log()

    def test_rejects_a_non_mapping(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            RequestLog.from_dict([1, 2])
