"""Traffic-source classification from user-agent strings.

Implements the paper's methodology (§3.2):

1. group by system identifiers in the user-agent field (``Android``,
   ``iPhone``, ``Windows``, ...) to find the device type;
2. consult an EDC-like device database to reduce misclassification;
3. use a browser user-agent database to split browser from
   non-browser traffic (browsers send well-formed UAs);
4. label the source ``UNKNOWN`` when the user agent is missing or
   unidentifiable.
"""

from __future__ import annotations

from typing import Optional

from ..core.taxonomy import AppClass, DeviceType, TrafficSource
from .database import SDK_TOKENS, lookup_browser, lookup_device
from .parser import ParsedUserAgent, parse_user_agent

__all__ = ["classify_user_agent", "UserAgentClassifier"]


class UserAgentClassifier:
    """Stateless classifier with a small LRU-ish memo.

    Real datasets repeat the same UA string millions of times, so a
    memo on the exact string gives an order-of-magnitude speedup on
    characterization runs without changing results.
    """

    def __init__(self, memo_size: int = 100_000) -> None:
        self._memo: dict = {}
        self._memo_size = memo_size

    def classify(self, user_agent: Optional[str]) -> TrafficSource:
        """Classify one raw user-agent header value."""
        if not user_agent:
            return TrafficSource(DeviceType.UNKNOWN, AppClass.UNKNOWN)
        cached = self._memo.get(user_agent)
        if cached is not None:
            return cached
        result = self._classify_uncached(user_agent)
        if len(self._memo) >= self._memo_size:
            self._memo.clear()
        self._memo[user_agent] = result
        return result

    def _classify_uncached(self, user_agent: str) -> TrafficSource:
        parsed = parse_user_agent(user_agent)
        device_entry = lookup_device(user_agent)
        device = device_entry.device_type if device_entry else DeviceType.UNKNOWN
        platform = device_entry.platform if device_entry else None
        browser_capable = device_entry.browser_capable if device_entry else True

        app = self._classify_app(parsed, device, browser_capable)
        return TrafficSource(device=device, app=app, raw_platform=platform)

    def _classify_app(
        self,
        parsed: ParsedUserAgent,
        device: DeviceType,
        browser_capable: bool,
    ) -> AppClass:
        # Browsers send well-formed Mozilla/5.0-prefixed UAs with a
        # recognizable browser token; require both to avoid counting
        # webview-embedding apps (which often also say Mozilla/5.0 but
        # add an app token we detect below) as browser traffic.
        browser = lookup_browser(tuple(parsed.product_names()))
        mozilla_prefixed = (
            parsed.primary_product is not None
            and parsed.primary_product.name == "Mozilla"
        )
        if browser is not None and mozilla_prefixed:
            # WebView / in-app browser heuristic: Android WebViews add
            # "; wv" to the comment, iOS apps lack "Safari" but keep
            # "AppleWebKit".  Treat those as native apps.
            if parsed.has_comment_token("wv"):
                return AppClass.NATIVE_APP
            # EDC correction: platforms without a first-class browser
            # (consoles, TVs, IoT) reuse browser-engine UA templates in
            # their native shells; do not count them as browser traffic.
            if not browser_capable:
                return AppClass.NATIVE_APP
            return AppClass.BROWSER

        # Library / SDK stacks.
        names = {name.lower() for name in parsed.product_names()}
        if names & SDK_TOKENS:
            # An SDK token together with a mobile device token is an
            # app using a HTTP library (okhttp on Android, CFNetwork
            # on iOS); bare SDK tokens are scripts/services.
            if device in (DeviceType.MOBILE, DeviceType.EMBEDDED):
                return AppClass.NATIVE_APP
            return AppClass.SDK

        # A product token plus an identified device is app traffic
        # (e.g. "NewsApp/5.2 (iPhone; iOS 13.1)").
        if parsed.products and device is not DeviceType.UNKNOWN:
            return AppClass.NATIVE_APP

        # Product token but no recognizable platform: could be a bare
        # app id or a script; without device evidence it stays UNKNOWN
        # per the paper's conservative labeling.
        return AppClass.UNKNOWN


#: The process-wide classifier: every §4 fold (serial, engine shard,
#: stream window) classifies through it, so each distinct UA string
#: is classified once per process.  Results are pure functions of the
#: string, so they never depend on what the memo evicted.
SHARED_CLASSIFIER = UserAgentClassifier()


def classify_user_agent(user_agent: Optional[str]) -> TrafficSource:
    """Classify through :data:`SHARED_CLASSIFIER`."""
    return SHARED_CLASSIFIER.classify(user_agent)
