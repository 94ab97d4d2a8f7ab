"""The edge-log field contract: :meth:`RequestLog.from_dict`.

Every reader builds its records through this one contract — a JSONL
line's object as decoded, a TSV row after its cells convert — so a
field of the wrong JSON type, an unknown enum value or a line that is
not an object is malformed wherever it arrives.
"""

import json

import pytest

from repro import obs
from repro.logs import record as record_module
from repro.logs.io import decode_lines
from repro.logs.record import RequestLog
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_log


def decoded(**changes):
    data = make_log().to_dict()
    data.update(changes)
    return RequestLog.from_dict(data)


class TestValidRecords:
    def test_baseline_record_is_valid(self):
        assert decoded() == make_log()

    def test_missing_user_agent_is_valid(self):
        assert decoded(user_agent=None).user_agent is None

    def test_missing_ttl_is_valid(self):
        assert decoded(ttl_seconds=None).ttl_seconds is None

    def test_int_timestamp_accepted(self):
        assert decoded(timestamp=12345).timestamp == 12345

    def test_missing_optional_fields_take_the_defaults(self):
        required = {
            "timestamp": 1.5, "client_ip_hash": "c", "user_agent": "ua",
            "method": "POST", "domain": "d", "url": "/u", "mime_type": "m",
        }
        assert RequestLog.from_dict(required) == RequestLog(**required)


class TestFieldViolations:
    def test_wrong_type_reported(self):
        with pytest.raises(
            ValueError, match="field 'status' must be an integer, got 200.0"
        ):
            decoded(status=200.0)

    @pytest.mark.parametrize(
        "field", ["timestamp", "client_ip_hash", "user_agent", "url"]
    )
    def test_missing_required_field_is_named(self, field):
        data = make_log().to_dict()
        del data[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            RequestLog.from_dict(data)

    @pytest.mark.parametrize("value", [[1, 2], None, "text", 7, True])
    def test_non_object_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="expected a JSON object"):
            RequestLog.from_dict(value)

    @pytest.mark.parametrize("field,value", [
        ("timestamp", "1559347200"),
        ("timestamp", True),
        ("timestamp", None),
        ("ttl_seconds", "300"),
        ("status", True),
        ("status", "200"),
        ("response_bytes", 2048.5),
        ("request_bytes", False),
        ("client_ip_hash", None),
        ("user_agent", 5),
        ("domain", ["a"]),
        ("url", {"path": "/"}),
        ("mime_type", 1),
        ("edge_id", None),
        ("method", 1),
        ("cache_status", None),
    ])
    def test_wrong_json_type_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            decoded(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("method", "FETCH"), ("method", "get"), ("cache_status", "stale"),
    ])
    def test_unknown_enum_value_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"field '{field}' has unknown"):
            decoded(**{field: value})


class TestModes:
    """Strict and lenient decoding of the same contract."""

    LINES = [json.dumps(make_log().to_dict()), '{"timestamp": "soon"}']

    def test_require_valid_returns_record(self):
        records = decode_lines(enumerate(self.LINES[:1], 1), "t")
        assert list(records) == [make_log()]

    def test_require_valid_raises_with_details(self):
        with pytest.raises(ValueError, match="line 2: field 'timestamp'"):
            list(decode_lines(enumerate(self.LINES, 1), "t"))

    def test_clean_splits_records(self):
        registry = MetricsRegistry()
        with obs.installed(registry):
            lines = enumerate(self.LINES, 1)
            kept = list(decode_lines(lines, "t", "jsonl", "skip"))
        assert kept == [make_log()]
        assert registry.snapshot()["counters"]["io.lines_skipped"] == 1

    def test_iter_valid_is_lazy_filter(self):
        lines = iter(enumerate([*self.LINES[::-1], "never read"], 1))
        records = decode_lines(lines, "t", "jsonl", "skip")
        assert next(records) == make_log()
        assert next(lines) == (3, "never read")

    def test_default_schema_is_shared_instance(self, monkeypatch):
        # The contract is built once, at import, not per record.
        monkeypatch.setattr(record_module, "fields", None)
        assert decoded() == make_log()


class TestValidationIssueDisplay:
    def test_str_contains_field_and_value(self):
        with pytest.raises(ValueError) as caught:
            decoded(status=999.5)
        assert "status" in str(caught.value)
        assert "999.5" in str(caught.value)

    def test_long_values_truncated(self):
        with pytest.raises(ValueError) as caught:
            decoded(url=["x" * 500])
        assert len(str(caught.value)) < 200
