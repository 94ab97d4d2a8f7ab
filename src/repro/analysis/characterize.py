"""§4 characterization: traffic source and request type.

Produces the Figure 3 breakdown (JSON requests by device type), the
browser/non-browser split, the unique user-agent-string mix, and the
GET/POST request-type shares — all in one streaming pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..core.taxonomy import AppClass, DeviceType
from ..logs.record import HttpMethod, RequestLog
from ..useragent.classify import SHARED_CLASSIFIER, UserAgentClassifier

__all__ = ["TrafficSourceBreakdown", "RequestTypeBreakdown", "characterize"]


@dataclass
class TrafficSourceBreakdown:
    """Figure 3 and the §4 traffic-source statistics."""

    total_requests: int = 0
    device_counts: Counter = field(default_factory=Counter)
    app_counts: Counter = field(default_factory=Counter)
    #: Browser requests per device type (for the mobile-browser stat).
    browser_by_device: Counter = field(default_factory=Counter)
    #: Distinct user-agent strings per device type.
    ua_strings_by_device: Dict[str, set] = field(default_factory=dict)

    def device_shares(self) -> Dict[str, float]:
        """Request share per device type (the Figure 3 pie)."""
        if not self.total_requests:
            return {}
        return {
            device.value: self.device_counts.get(device.value, 0)
            / self.total_requests
            for device in DeviceType
        }

    def ua_string_shares(self) -> Dict[str, float]:
        """Unique UA-string share per device type (§4: 73/17/3/7)."""
        total = sum(len(s) for s in self.ua_strings_by_device.values())
        if not total:
            return {}
        return {
            device: len(strings) / total
            for device, strings in self.ua_strings_by_device.items()
        }

    @property
    def browser_fraction(self) -> float:
        if not self.total_requests:
            return 0.0
        return self.app_counts.get(AppClass.BROWSER.value, 0) / self.total_requests

    @property
    def non_browser_fraction(self) -> float:
        """§4: 88% of JSON traffic is non-browser."""
        return 1.0 - self.browser_fraction if self.total_requests else 0.0

    @property
    def mobile_browser_fraction(self) -> float:
        """§4: mobile browser traffic is 2.5% of all JSON requests."""
        if not self.total_requests:
            return 0.0
        return (
            self.browser_by_device.get(DeviceType.MOBILE.value, 0)
            / self.total_requests
        )

    @property
    def embedded_browser_fraction(self) -> float:
        """§4: no browser traffic is detected on embedded devices."""
        if not self.total_requests:
            return 0.0
        return (
            self.browser_by_device.get(DeviceType.EMBEDDED.value, 0)
            / self.total_requests
        )

    @property
    def mobile_app_fraction(self) -> float:
        """Native-app mobile share of all JSON requests (≥52%)."""
        if not self.total_requests:
            return 0.0
        mobile = self.device_counts.get(DeviceType.MOBILE.value, 0)
        mobile_browser = self.browser_by_device.get(DeviceType.MOBILE.value, 0)
        return (mobile - mobile_browser) / self.total_requests

    # -- folding / merging -------------------------------------------------

    def add(self, record: RequestLog, classifier: UserAgentClassifier) -> None:
        """Fold one record into the breakdown."""
        traffic = classifier.classify(record.user_agent)
        # ``_value_`` is ``.value`` without the enum's Python-level
        # property, which a per-record fold would call each time.
        device = traffic.device._value_
        self.total_requests += 1
        self.device_counts[device] += 1
        self.app_counts[traffic.app._value_] += 1
        if traffic.app is AppClass.BROWSER:
            self.browser_by_device[device] += 1
        if record.user_agent:
            self.ua_strings_by_device.setdefault(device, set()).add(
                record.user_agent
            )

    def merge(self, other: "TrafficSourceBreakdown") -> "TrafficSourceBreakdown":
        """Combine two partial breakdowns; exact (counters and sets)."""
        self.total_requests += other.total_requests
        self.device_counts.update(other.device_counts)
        self.app_counts.update(other.app_counts)
        self.browser_by_device.update(other.browser_by_device)
        for device, strings in other.ua_strings_by_device.items():
            self.ua_strings_by_device.setdefault(device, set()).update(strings)
        return self


@dataclass
class RequestTypeBreakdown:
    """§4 request-type statistics (uploads vs downloads)."""

    total_requests: int = 0
    method_counts: Counter = field(default_factory=Counter)

    @property
    def get_fraction(self) -> float:
        """§4: 84% of JSON requests are GETs."""
        if not self.total_requests:
            return 0.0
        return self.method_counts.get(HttpMethod.GET.value, 0) / self.total_requests

    @property
    def post_share_of_non_get(self) -> float:
        """§4: 96% of the non-GET remainder is POST."""
        non_get = self.total_requests - self.method_counts.get(
            HttpMethod.GET.value, 0
        )
        if not non_get:
            return 0.0
        return self.method_counts.get(HttpMethod.POST.value, 0) / non_get

    @property
    def upload_fraction(self) -> float:
        uploads = sum(
            count
            for method, count in self.method_counts.items()
            if HttpMethod(method).is_upload()
        )
        return uploads / self.total_requests if self.total_requests else 0.0

    # -- folding / merging -------------------------------------------------

    def add(self, record: RequestLog) -> None:
        """Fold one record into the breakdown."""
        self.total_requests += 1
        self.method_counts[record.method._value_] += 1  # ``.value``, cheaper

    def merge(self, other: "RequestTypeBreakdown") -> "RequestTypeBreakdown":
        """Combine two partial breakdowns; exact."""
        self.total_requests += other.total_requests
        self.method_counts.update(other.method_counts)
        return self


def characterize(
    logs: Iterable[RequestLog],
    classifier: Optional[UserAgentClassifier] = None,
    json_only: bool = True,
) -> tuple:
    """One-pass §4 characterization.

    Returns ``(TrafficSourceBreakdown, RequestTypeBreakdown)``.
    """
    classifier = classifier or SHARED_CLASSIFIER
    source = TrafficSourceBreakdown()
    request_type = RequestTypeBreakdown()
    for record in logs:
        if json_only and not record.is_json:
            continue
        source.add(record, classifier)
        request_type.add(record)
    return source, request_type
