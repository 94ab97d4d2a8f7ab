"""Reference databases for user-agent classification.

Two databases back the classifier, mirroring the two sources the
paper uses (§3.2):

* :data:`BROWSER_DATABASE` — analogous to the public browser
  user-agent string database [11]: known browser product tokens and
  the well-formedness rules browsers follow (``Mozilla/5.0`` prefix).
* :data:`DEVICE_DATABASE` — analogous to Akamai's Edge Device
  Characteristics (EDC) database [2]: platform/device tokens mapped to
  device characteristics, used to reduce misclassification from
  user-agent parsing alone.

A device token matches a user agent case-insensitively where no ASCII
letter or digit flanks it on either side (``axios`` holds no ``iOS``
token).  :func:`lookup_device` checks an ASCII user agent with
``str.find`` on its lowercased form; a user agent with any other
character goes through word-bounded ``re.IGNORECASE`` patterns,
compiled on first use, because ``re`` case-folds characters that
``str.lower`` keeps (``ſ`` matches ``s``, the Kelvin sign ``k``) or
lengthens (``İ``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..core.taxonomy import DeviceType

__all__ = [
    "BrowserEntry",
    "DeviceEntry",
    "BROWSER_DATABASE",
    "DEVICE_DATABASE",
    "SDK_TOKENS",
    "lookup_browser",
    "lookup_device",
]


@dataclass(frozen=True)
class BrowserEntry:
    """One known browser family."""

    token: str
    family: str
    #: Tokens that, when present alongside, indicate a *different*
    #: browser (e.g. every Chrome UA also contains "Safari").
    shadowed_by: Tuple[str, ...] = ()


#: Ordered by specificity: later entries shadow earlier ones, so the
#: classifier scans in reverse (most specific first).
BROWSER_DATABASE: Tuple[BrowserEntry, ...] = (
    BrowserEntry("Safari", "Safari", shadowed_by=("Chrome", "Chromium", "CriOS",
                                                  "Edg", "EdgA", "OPR", "SamsungBrowser")),
    BrowserEntry("Chrome", "Chrome", shadowed_by=("Edg", "EdgA", "OPR",
                                                  "SamsungBrowser", "YaBrowser")),
    BrowserEntry("Chromium", "Chromium"),
    BrowserEntry("CriOS", "Chrome"),
    BrowserEntry("Firefox", "Firefox", shadowed_by=("Seamonkey",)),
    BrowserEntry("FxiOS", "Firefox"),
    BrowserEntry("Edg", "Edge"),
    BrowserEntry("EdgA", "Edge"),
    BrowserEntry("OPR", "Opera"),
    BrowserEntry("Opera", "Opera"),
    BrowserEntry("SamsungBrowser", "Samsung Internet"),
    BrowserEntry("YaBrowser", "Yandex"),
    BrowserEntry("MSIE", "Internet Explorer"),
    BrowserEntry("Trident", "Internet Explorer"),
    BrowserEntry("UCBrowser", "UC Browser"),
    BrowserEntry("Brave", "Brave"),
    BrowserEntry("Vivaldi", "Vivaldi"),
    BrowserEntry("DuckDuckGo", "DuckDuckGo"),
    BrowserEntry("OPiOS", "Opera"),
    BrowserEntry("Silk", "Amazon Silk"),
    BrowserEntry("QQBrowser", "QQ Browser"),
    BrowserEntry("MiuiBrowser", "Miui Browser"),
    BrowserEntry("Whale", "Whale"),
)

_BROWSER_BY_TOKEN: Dict[str, BrowserEntry] = {
    entry.token.lower(): entry for entry in BROWSER_DATABASE
}


@dataclass(frozen=True)
class DeviceEntry:
    """EDC-style device characteristics for one platform token."""

    token: str
    device_type: DeviceType
    platform: str
    #: Whether this platform ships a first-class browser (no browser
    #: traffic is expected from platforms where this is False; the
    #: paper observes none on embedded devices).
    browser_capable: bool = True


#: Platform tokens ordered most-specific-first.  The classifier takes
#: the first raw-substring match, so e.g. "iPad" must precede "iP" -
#: style generic tokens and TV tokens must precede the OS they embed.
DEVICE_DATABASE: Tuple[DeviceEntry, ...] = (
    # -- embedded: game consoles ------------------------------------
    DeviceEntry("PlayStation 5", DeviceType.EMBEDDED, "PlayStation", False),
    DeviceEntry("PlayStation 4", DeviceType.EMBEDDED, "PlayStation", False),
    DeviceEntry("PlayStation Vita", DeviceType.EMBEDDED, "PlayStation", False),
    DeviceEntry("Xbox Series X", DeviceType.EMBEDDED, "Xbox", False),
    DeviceEntry("Xbox One", DeviceType.EMBEDDED, "Xbox", False),
    DeviceEntry("Xbox", DeviceType.EMBEDDED, "Xbox", False),
    DeviceEntry("Nintendo Switch", DeviceType.EMBEDDED, "Nintendo", False),
    DeviceEntry("Nintendo WiiU", DeviceType.EMBEDDED, "Nintendo", False),
    # -- embedded: smart TVs and streaming sticks --------------------
    DeviceEntry("SMART-TV", DeviceType.EMBEDDED, "SmartTV", False),
    DeviceEntry("SmartTV", DeviceType.EMBEDDED, "SmartTV", False),
    DeviceEntry("Tizen", DeviceType.EMBEDDED, "Tizen TV", False),
    DeviceEntry("Web0S", DeviceType.EMBEDDED, "webOS TV", False),
    DeviceEntry("webOS.TV", DeviceType.EMBEDDED, "webOS TV", False),
    DeviceEntry("Roku", DeviceType.EMBEDDED, "Roku", False),
    DeviceEntry("CrKey", DeviceType.EMBEDDED, "Chromecast", False),
    DeviceEntry("AppleTV", DeviceType.EMBEDDED, "Apple TV", False),
    DeviceEntry("tvOS", DeviceType.EMBEDDED, "Apple TV", False),
    DeviceEntry("AFTS", DeviceType.EMBEDDED, "Fire TV", False),
    DeviceEntry("BRAVIA", DeviceType.EMBEDDED, "SmartTV", False),
    # -- embedded: wearables and IoT ---------------------------------
    DeviceEntry("watchOS", DeviceType.EMBEDDED, "Apple Watch", False),
    DeviceEntry("Watch OS", DeviceType.EMBEDDED, "Wear OS", False),
    DeviceEntry("Wear OS", DeviceType.EMBEDDED, "Wear OS", False),
    DeviceEntry("ESP8266HTTPClient", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("ESP32-http-client", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("ESP8266", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("ESP32", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("SmartThings", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("HomePod", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("Oculus", DeviceType.EMBEDDED, "VR headset", False),
    DeviceEntry("Quest 2", DeviceType.EMBEDDED, "VR headset", False),
    DeviceEntry("Tesla", DeviceType.EMBEDDED, "Vehicle", False),
    DeviceEntry("QtCarBrowser", DeviceType.EMBEDDED, "Vehicle", False),
    DeviceEntry("Kindle", DeviceType.EMBEDDED, "E-reader", False),
    DeviceEntry("KFAPWI", DeviceType.EMBEDDED, "Fire tablet", False),
    DeviceEntry("Sonos", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("Alexa", DeviceType.EMBEDDED, "IoT", False),
    DeviceEntry("RaspberryPi", DeviceType.EMBEDDED, "IoT", False),
    # -- mobile -------------------------------------------------------
    DeviceEntry("iPhone", DeviceType.MOBILE, "iOS"),
    DeviceEntry("iPad", DeviceType.MOBILE, "iPadOS"),
    DeviceEntry("iPod", DeviceType.MOBILE, "iOS"),
    DeviceEntry("iOS", DeviceType.MOBILE, "iOS"),
    DeviceEntry("Android", DeviceType.MOBILE, "Android"),
    DeviceEntry("Dalvik", DeviceType.MOBILE, "Android"),
    DeviceEntry("Windows Phone", DeviceType.MOBILE, "Windows Phone"),
    DeviceEntry("BlackBerry", DeviceType.MOBILE, "BlackBerry"),
    # -- desktop ------------------------------------------------------
    DeviceEntry("Windows NT", DeviceType.DESKTOP, "Windows"),
    DeviceEntry("Macintosh", DeviceType.DESKTOP, "macOS"),
    DeviceEntry("Mac OS X", DeviceType.DESKTOP, "macOS"),
    DeviceEntry("X11", DeviceType.DESKTOP, "Linux"),
    DeviceEntry("Ubuntu", DeviceType.DESKTOP, "Linux"),
    DeviceEntry("Linux x86_64", DeviceType.DESKTOP, "Linux"),
    DeviceEntry("CrOS", DeviceType.DESKTOP, "ChromeOS"),
)

#: Library/SDK product tokens.  They reveal a software stack but not a
#: device; device type stays UNKNOWN unless a device token co-occurs
#: (e.g. Dalvik implies Android).
SDK_TOKENS: FrozenSet[str] = frozenset(
    token.lower()
    for token in (
        "okhttp",
        "CFNetwork",
        "python-requests",
        "python-urllib",
        "aiohttp",
        "curl",
        "Wget",
        "Go-http-client",
        "Java",
        "Apache-HttpClient",
        "axios",
        "node-fetch",
        "Dart",
        "Alamofire",
        "Volley",
        "libwww-perl",
        "Faraday",
        "Guzzle",
        "RestSharp",
    )
)


def lookup_browser(product_names: Tuple[str, ...]) -> Optional[BrowserEntry]:
    """Resolve the browser family from parsed product-token names.

    Applies the shadowing rules: a UA containing both ``Chrome`` and
    ``Safari`` is Chrome; one with ``Edg`` as well is Edge.
    Returns None when no known browser token is present.
    """
    present = {name.lower() for name in product_names}
    candidates = [
        entry for entry in BROWSER_DATABASE if entry.token.lower() in present
    ]
    for entry in candidates:
        if not any(shadow.lower() in present for shadow in entry.shadowed_by):
            return entry
    return None


_ALNUM = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")

#: ``(lowercased token, entry)`` in table order.
_DEVICE_TOKENS: Tuple[Tuple[str, DeviceEntry], ...] = tuple(
    (entry.token.lower(), entry) for entry in DEVICE_DATABASE
)


def _token_pattern(token: str) -> "re.Pattern[str]":
    """Word-bounded pattern for a device token.

    Bare substring matching misfires (``axios`` contains ``iOS``), so
    tokens must not be flanked by alphanumerics.
    """
    return re.compile(
        r"(?<![A-Za-z0-9])" + re.escape(token) + r"(?![A-Za-z0-9])",
        re.IGNORECASE,
    )


@functools.cache
def _device_patterns() -> Tuple[Tuple["re.Pattern[str]", DeviceEntry], ...]:
    """The table as word-bounded patterns, for non-ASCII user agents."""
    return tuple((_token_pattern(entry.token), entry) for entry in DEVICE_DATABASE)


def lookup_device(raw_user_agent: str) -> Optional[DeviceEntry]:
    """Resolve device characteristics by most-specific token match:
    the first entry of :data:`DEVICE_DATABASE` whose token the user
    agent holds, by the rule in the module docstring."""
    if not raw_user_agent.isascii():
        for pattern, entry in _device_patterns():
            if pattern.search(raw_user_agent):
                return entry
        return None
    text = raw_user_agent.lower()
    end = len(text)
    for token, entry in _DEVICE_TOKENS:
        start = text.find(token)
        while start >= 0:
            stop = start + len(token)
            if (start == 0 or text[start - 1] not in _ALNUM) and (
                stop == end or text[stop] not in _ALNUM
            ):
                return entry
            start = text.find(token, start + 1)
    return None
