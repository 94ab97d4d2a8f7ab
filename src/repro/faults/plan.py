"""Fault plans: seeded, deterministic schedules of injectable faults.

A :class:`FaultPlan` answers one question at every injection site:
*does this fault fire here, now?*  The answer is a pure function of
``(seed, site, key, attempt)``:

* **Selection** — a rule *selects* a key when the keyed BLAKE2b hash
  of ``seed|site|key`` falls below ``rate``.  Selection is stable:
  the same seed selects the same shards, files, and lines on every
  run, in every process, regardless of scheduling.
* **Transiency** — a selected key fires on attempts ``0..times-1``
  and succeeds from attempt ``times`` on.  A fault with
  ``times <= retries`` is *transient*: the hardening's retry path
  always clears it, which is what lets the chaos differential suite
  demand exact fault-free equality of results.

Because decisions are stateless, a plan pickles cleanly into
process-pool workers; the per-site fire counters are kept for
observability (CI uploads them) but are process-local best effort —
they intentionally carry no semantics.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Optional, Sequence

__all__ = ["FAULT_SITES", "FaultRule", "FaultPlan", "InjectedFault"]

#: Every injection site wired into the stack.  Sites are consulted by
#: the component named in the prefix; ``param`` units per site:
#:
#: ``map.exception``     raise from the shard map function (no param)
#: ``map.hang``          sleep ``param`` seconds in the map function
#: ``map.worker_death``  ``os._exit`` the pool worker (thread/serial
#:                       backends degrade it to an exception)
#: ``checkpoint.torn``   persist a truncated checkpoint file
#: ``checkpoint.corrupt`` persist a bit-flipped checkpoint payload
#: ``io.truncated_gzip`` EOFError after ``param`` lines of a .gz read
#: ``io.malformed_line`` corrupt one log line before parsing
#: ``ingest.stall``      sleep ``param`` seconds before a source drains
FAULT_SITES = (
    "map.exception",
    "map.hang",
    "map.worker_death",
    "checkpoint.torn",
    "checkpoint.corrupt",
    "io.truncated_gzip",
    "io.malformed_line",
    "ingest.stall",
)

_HASH_SPAN = float(2**64)


class InjectedFault(RuntimeError):
    """An error raised by an injected fault, never by real code."""


@dataclass(frozen=True)
class FaultRule:
    """One fault site's schedule within a plan.

    ``rate`` is the fraction of keys selected (hash-deterministic,
    not sampled), ``times`` how many attempts fire before the fault
    clears, ``match`` an optional substring the key must contain, and
    ``param`` the site-specific magnitude (seconds to hang or stall,
    lines before a truncated read).
    """

    site: str
    rate: float = 1.0
    times: int = 1
    match: str = ""
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.times < 1:
            raise ValueError("times must be >= 1 (0 would never fire)")
        if self.param < 0:
            raise ValueError("param must be >= 0")


class FaultPlan:
    """A seeded schedule of faults, one rule per site."""

    def __init__(self, seed: int = 0, rules: Sequence[FaultRule] = ()) -> None:
        self.seed = seed
        self.rules: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate rule for fault site {rule.site!r}")
            self.rules[rule.site] = rule
        self._fired: Counter = Counter()
        self._lock = threading.Lock()

    # -- decisions ---------------------------------------------------------

    def selects(self, site: str, key: str) -> bool:
        """Whether this plan selects ``key`` at ``site`` (attempt-free)."""
        rule = self.rules.get(site)
        if rule is None:
            return False
        return self._selects(rule, site, key)

    def _selects(self, rule: FaultRule, site: str, key: str) -> bool:
        if rule.match and rule.match not in key:
            return False
        digest = blake2b(
            f"{self.seed}|{site}|{key}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / _HASH_SPAN < rule.rate

    def should_fire(
        self, site: str, key: str, attempt: int = 0
    ) -> Optional[FaultRule]:
        """The rule to apply at ``(site, key, attempt)``, or ``None``.

        Deterministic: the same arguments always return the same
        decision.  Firing is recorded in the per-site counters.
        """
        rule = self.rules.get(site)
        if rule is None or attempt >= rule.times:
            return None
        if not self._selects(rule, site, key):
            return None
        with self._lock:
            self._fired[site] += 1
        return rule

    # -- site helpers --------------------------------------------------------

    def corrupt_line(self, key: str, line: bytes, attempt: int = 0) -> bytes:
        """The (possibly corrupted) form of one log line.

        When the ``io.malformed_line`` rule fires, the line is
        replaced by a torn-write lookalike: the first half of the
        original followed by an unterminated fragment — invalid JSON
        and an invalid TSV row alike.
        """
        if self.should_fire("io.malformed_line", key, attempt) is None:
            return line
        body = line.rstrip(b"\r\n")
        return body[: len(body) // 2] + b'\x00{"torn'

    # -- observability -------------------------------------------------------

    def fired(self) -> Dict[str, int]:
        """Per-site fire counts (process-local, best effort)."""
        with self._lock:
            return dict(self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sites = ",".join(sorted(self.rules))
        return f"FaultPlan(seed={self.seed}, sites=[{sites}])"

    # -- pickling (locks don't cross process boundaries) ----------------------

    def __getstate__(self) -> dict:
        return {
            "seed": self.seed,
            "rules": list(self.rules.values()),
            "fired": dict(self._fired),
        }

    def __setstate__(self, state: dict) -> None:
        self.seed = state["seed"]
        self.rules = {rule.site: rule for rule in state["rules"]}
        self._fired = Counter(state["fired"])
        self._lock = threading.Lock()
