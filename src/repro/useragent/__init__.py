"""User-agent substrate: parsing, reference databases, classification,
and a generation grammar for the synthetic-traffic model.
"""

from .._lazy import lazy_exports

__all__ = [
    "AppIdentity",
    "AppUsageReport",
    "aggregate_apps",
    "identify_app",
    "ParsedUserAgent",
    "ProductToken",
    "parse_user_agent",
    "BrowserEntry",
    "DeviceEntry",
    "BROWSER_DATABASE",
    "DEVICE_DATABASE",
    "SDK_TOKENS",
    "lookup_browser",
    "lookup_device",
    "UserAgentClassifier",
    "classify_user_agent",
    "UA_FACTORIES",
    "make_mobile_browser_ua",
    "make_desktop_browser_ua",
    "make_mobile_app_ua",
    "make_embedded_ua",
    "make_sdk_ua",
    "make_malformed_ua",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".appid": (
        "AppIdentity", "AppUsageReport", "aggregate_apps", "identify_app",
    ),
    ".classify": ("UserAgentClassifier", "classify_user_agent"),
    ".database": (
        "BROWSER_DATABASE", "DEVICE_DATABASE", "SDK_TOKENS", "BrowserEntry",
        "DeviceEntry", "lookup_browser", "lookup_device",
    ),
    ".parser": ("ParsedUserAgent", "ProductToken", "parse_user_agent"),
    ".strings": (
        "UA_FACTORIES", "make_desktop_browser_ua", "make_embedded_ua",
        "make_malformed_ua", "make_mobile_app_ua", "make_mobile_browser_ua",
        "make_sdk_ua",
    ),
})
