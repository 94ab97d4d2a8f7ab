"""Application identification from user-agent strings.

The paper's first question is "What applications and devices are
consuming JSON traffic?"  Device type comes from
:mod:`repro.useragent.classify`; this module extracts the
*application* identity — the app name and version a native client
embeds in its user-agent — and aggregates traffic per application.

Identification heuristics (in order):

1. the first product token that is not a platform/engine/library
   token is the app identity (``NewsReader/5.2 (...) CFNetwork/...``);
2. webview UAs carry the app token *after* the browser tokens
   (``... Mobile Safari/537.36 ShopFast/3.1.0``);
3. reverse-DNS bundle ids are normalized to their leaf
   (``com.example.newsreader/512`` → ``newsreader``);
4. bare library UAs (``okhttp/3.12.1``) identify a stack, not an app,
   and are reported as unidentified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.stats import ranked
from ..logs.record import RequestLog
from .database import SDK_TOKENS
from .parser import ProductToken, parse_user_agent

__all__ = ["AppIdentity", "identify_app", "AppUsageReport", "aggregate_apps"]

#: Product tokens that never identify an application.
_NON_APP_TOKENS = frozenset(
    token.lower()
    for token in (
        "Mozilla",
        "AppleWebKit",
        "KHTML",
        "Gecko",
        "Chrome",
        "Chromium",
        "CriOS",
        "Safari",
        "Mobile",
        "Version",
        "Firefox",
        "FxiOS",
        "Edg",
        "EdgA",
        "Edge",
        "OPR",
        "SamsungBrowser",
        "Dalvik",
        "CFNetwork",
        "Darwin",
        "Build",
        "Linux",
        "Android",
        "Windows",
        "like",
        "NintendoBrowser",
        "NF",
        "CoreMedia",
        "libhttp",
        "WebAppManager",
        "lwIP",
        "server-bag",
        "Scale",
        "U",
        "rv",
        "compatible",
    )
)


@dataclass(frozen=True)
class AppIdentity:
    """Resolved application identity from one user-agent string."""

    name: str
    version: Optional[str] = None
    #: True when the UA identified an actual application rather than a
    #: bare HTTP stack or browser engine.
    identified: bool = True

    UNKNOWN_NAME = "(unidentified)"

    @classmethod
    def unidentified(cls) -> "AppIdentity":
        return cls(name=cls.UNKNOWN_NAME, version=None, identified=False)


def _normalize_name(name: str) -> str:
    """Normalize an app token: bundle ids collapse to their leaf."""
    if "." in name and not name.replace(".", "").isdigit():
        parts = [part for part in name.split(".") if part]
        if len(parts) >= 2 and parts[0].lower() in ("com", "net", "org", "io", "app"):
            return parts[-1].lower()
    return name


@lru_cache(maxsize=65_536)
def identify_app(user_agent: Optional[str]) -> AppIdentity:
    """Extract the application identity from a user-agent value.

    Memoized process-wide (bounded): the identity is a pure function
    of the string, and real traffic repeats few distinct UAs, so every
    §4 fold — serial, engine shard or stream window — shares one memo.

    Examples
    --------
    >>> identify_app("NewsReader/5.2.1 (iPhone; iOS 13.1) CFNetwork/1107.1").name
    'NewsReader'
    >>> identify_app("okhttp/3.12.1").identified
    False
    """
    if not user_agent:
        return AppIdentity.unidentified()
    parsed = parse_user_agent(user_agent)
    candidates: List[ProductToken] = []
    for token in parsed.products:
        lowered = token.name.lower()
        if lowered in _NON_APP_TOKENS or lowered in SDK_TOKENS:
            continue
        # Version-looking names ("5.0") are fragment noise.
        if token.name.replace(".", "").isdigit():
            continue
        candidates.append(token)
    if not candidates:
        return AppIdentity.unidentified()
    # Webview UAs put the app token last; plain app UAs put it first.
    # Prefer the first candidate unless the UA is Mozilla-prefixed
    # (webview/browser shaped), in which case the trailing extra token
    # is the app.
    mozilla_prefixed = (
        parsed.primary_product is not None
        and parsed.primary_product.name == "Mozilla"
    )
    chosen = candidates[-1] if mozilla_prefixed else candidates[0]
    return AppIdentity(
        name=_normalize_name(chosen.name), version=chosen.version
    )


@dataclass
class AppUsageReport:
    """Traffic aggregated per application."""

    requests_per_app: Counter = field(default_factory=Counter)
    bytes_per_app: Counter = field(default_factory=Counter)
    versions_per_app: Dict[str, Counter] = field(default_factory=dict)
    total_requests: int = 0

    def add(self, identity: AppIdentity, record: RequestLog) -> None:
        self.total_requests += 1
        self.requests_per_app[identity.name] += 1
        self.bytes_per_app[identity.name] += record.response_bytes
        if identity.identified and identity.version:
            self.versions_per_app.setdefault(identity.name, Counter())[
                identity.version
            ] += 1

    def merge(self, other: "AppUsageReport") -> "AppUsageReport":
        """Combine two partial reports; exact (counters)."""
        self.total_requests += other.total_requests
        self.requests_per_app.update(other.requests_per_app)
        self.bytes_per_app.update(other.bytes_per_app)
        for app, versions in other.versions_per_app.items():
            self.versions_per_app.setdefault(app, Counter()).update(versions)
        return self

    @property
    def identified_fraction(self) -> float:
        """Share of requests attributable to a concrete application."""
        if not self.total_requests:
            return 0.0
        unknown = self.requests_per_app.get(AppIdentity.UNKNOWN_NAME, 0)
        return 1.0 - unknown / self.total_requests

    def top_apps(self, count: int = 10) -> List[Tuple[str, int]]:
        """Most-requesting applications (unidentified bucket excluded),
        ties broken by name."""
        return [
            (name, requests)
            for name, requests in ranked(self.requests_per_app)
            if name != AppIdentity.UNKNOWN_NAME
        ][:count]

    def version_spread(self, app_name: str) -> int:
        """Distinct versions observed for one app (fleet-upgrade lag)."""
        return len(self.versions_per_app.get(app_name, ()))


def aggregate_apps(
    logs: Iterable[RequestLog], json_only: bool = True
) -> AppUsageReport:
    """One-pass per-application traffic aggregation.

    :func:`identify_app`'s memo makes this linear in distinct UAs
    rather than in records.
    """
    report = AppUsageReport()
    for record in logs:
        if json_only and not record.is_json:
            continue
        report.add(identify_app(record.user_agent), record)
    return report
