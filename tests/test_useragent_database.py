"""The device table's match rule, checked against a regex oracle.

:func:`repro.useragent.database.lookup_device` matches an ASCII user
agent with ``str.find`` plus an alphanumeric-flank check, and falls
back to word-bounded ``re.IGNORECASE`` patterns for any other user
agent.  The oracle below is the table as those patterns, applied to
every user agent: the two must agree on everything the traffic
generator emits, on random strings built around the tokens, and on
the characters ``re`` case-folds and ``str.lower`` does not.
"""

from __future__ import annotations

import random
import re
import string

import pytest

from repro.synth.workload import (
    WorkloadBuilder,
    long_term_config,
    short_term_config,
)
from repro.useragent import database
from repro.useragent.database import DEVICE_DATABASE, lookup_device
from repro.useragent.strings import UA_FACTORIES
from tests.test_import_hygiene import loaded_modules

_ORACLE = tuple(
    (
        re.compile(
            r"(?<![A-Za-z0-9])" + re.escape(entry.token) + r"(?![A-Za-z0-9])",
            re.IGNORECASE,
        ),
        entry,
    )
    for entry in DEVICE_DATABASE
)


def oracle(user_agent: str):
    for pattern, entry in _ORACLE:
        if pattern.search(user_agent):
            return entry
    return None


def _generated_user_agents():
    agents = set()
    for seed in (1, 2, 3, 4):
        for config in (
            short_term_config(6_000, seed=seed),
            long_term_config(4_000, seed=seed),
        ):
            # The population holds every user agent its dataset emits.
            clients = WorkloadBuilder(config).clients
            agents.update(c.user_agent for c in clients if c.user_agent)
    rng = random.Random(7)
    for factory in UA_FACTORIES.values():
        agents.update(factory(rng) for _ in range(500))
    return sorted(agents)


_FRAGMENTS = (
    "ios", "iOS", "IOS", "iPad", "ipad", "androidx", "axios", "Android",
    "x11", "Xbox", "cros", "CrOS", "esp32", "ESP8266", "Linux x86_64",
    "Windows NT", "Mac OS X", "tvOS", "watchOS",
) + tuple(entry.token for entry in DEVICE_DATABASE)
_ALPHABET = string.ascii_letters + string.digits + string.punctuation + " "


def _random_user_agents(count: int, seed: int):
    rng = random.Random(seed)
    agents = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                token = rng.choice(_FRAGMENTS)
                if rng.random() < 0.3:
                    token = "".join(
                        c.upper() if rng.random() < 0.5 else c.lower()
                        for c in token
                    )
                parts.append(token)
            else:
                parts.append(
                    "".join(rng.choices(_ALPHABET, k=rng.randint(0, 3)))
                )
        agents.append("".join(parts))
    return agents


class TestAgreesWithTheRegexTable:
    def test_every_generated_user_agent(self):
        agents = _generated_user_agents()
        assert len(agents) > 1_000
        assert all(agent.isascii() for agent in agents)
        mismatches = [a for a in agents if lookup_device(a) is not oracle(a)]
        assert mismatches == []
        # The set exercises hits of every device class and misses.
        found = {lookup_device(a) for a in agents}
        assert None in found and len(found) > 20

    def test_random_ascii_strings(self):
        agents = _random_user_agents(12_000, seed=11)
        mismatches = [a for a in agents if lookup_device(a) is not oracle(a)]
        assert mismatches == []
        assert sum(lookup_device(a) is not None for a in agents) > 3_000

    @pytest.mark.parametrize("user_agent,platform", [
        # ``re`` folds each of these to an ASCII letter inside a token.
        ("App/1.0 (ıPhone; 13)", "iOS"),       # dotless i
        ("App (İPad)", "iPadOS"),              # dotted capital I
        ("x (Teſla)", "Vehicle"),              # long s
        ("Kindle/3.0", "E-reader"),            # Kelvin sign
        # ... and as a flank, where they count as letters.
        ("ſiOS 13", None),
        ("aKiOS", None),
        ("İiOS", None),
        ("ıAndroid 9", None),
        ("Androidı", None),
        ("Xboxſ", None),
        # Other non-ASCII text flanks a token like punctuation.
        ("é iOS", "iOS"),
        ("café (iPhone)", "iOS"),
    ])
    def test_non_ascii_case_folding(self, user_agent, platform):
        entry = lookup_device(user_agent)
        assert entry is oracle(user_agent)
        assert (entry.platform if entry else None) == platform

    def test_random_non_ascii_strings(self):
        rng = random.Random(5)
        folds = ["ſ", "K", "ı", "İ", "é", "ß"]
        agents = []
        for agent in _random_user_agents(2_000, seed=13):
            chars = list(agent)
            for _ in range(rng.randint(1, 3)):
                chars.insert(rng.randint(0, len(chars)), rng.choice(folds))
            agents.append("".join(chars))
        mismatches = [a for a in agents if lookup_device(a) is not oracle(a)]
        assert mismatches == []


def test_import_compiles_no_pattern():
    loaded_modules(
        "from repro.useragent import database\n"
        "database.lookup_device('App/1.0 (iPhone; iOS 13.1)')\n"
        "assert database._device_patterns.cache_info().misses == 0\n"
        "database.lookup_device('App/1.0 (\\u0131Phone)')\n"
        "assert database._device_patterns.cache_info().misses == 1\n"
    )
    assert database._device_patterns() is database._device_patterns()
