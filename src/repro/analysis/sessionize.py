"""Session reconstruction from request logs.

The Table 1 manifest pattern is a *session-scoped* behaviour, but
logs arrive as flat per-client request streams.  This module
re-segments them with the standard inactivity-gap rule (a silence
longer than the threshold starts a new session) and derives the
session-level statistics web measurement studies report: session
length (requests), duration, inter-session spacing, and whether the
session opens with a manifest-like request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.stats import percentile
from ..logs.record import RequestLog

__all__ = ["Session", "SessionStats", "sessionize", "session_statistics"]

#: Default inactivity gap that splits sessions (the classic 30 min of
#: web analytics is far too long for app API traffic; 5 min matches
#: foreground-use patterns).
DEFAULT_GAP_S = 300.0


@dataclass(frozen=True)
class Session:
    """One reconstructed client session."""

    client_id: str
    records: Tuple[RequestLog, ...]

    @property
    def start(self) -> float:
        return self.records[0].timestamp

    @property
    def end(self) -> float:
        return self.records[-1].timestamp

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def length(self) -> int:
        return len(self.records)

    @property
    def first_url(self) -> str:
        return self.records[0].url

    def urls(self) -> List[str]:
        return [record.url for record in self.records]


def sessionize(
    logs: Iterable[RequestLog],
    gap_s: float = DEFAULT_GAP_S,
    json_only: bool = True,
) -> List[Session]:
    """Split per-client request streams on inactivity gaps."""
    if gap_s <= 0:
        raise ValueError("gap_s must be positive")
    per_client: Dict[str, List[RequestLog]] = {}
    for record in logs:
        if json_only and not record.is_json:
            continue
        per_client.setdefault(record.client_id, []).append(record)

    sessions: List[Session] = []
    for client_id, records in per_client.items():
        records.sort(key=lambda record: record.timestamp)
        current: List[RequestLog] = [records[0]]
        for previous, record in zip(records, records[1:]):
            if record.timestamp - previous.timestamp > gap_s:
                sessions.append(Session(client_id, tuple(current)))
                current = []
            current.append(record)
        sessions.append(Session(client_id, tuple(current)))
    sessions.sort(key=lambda session: session.start)
    return sessions


@dataclass
class SessionStats:
    """Aggregate statistics over reconstructed sessions."""

    lengths: List[int] = field(default_factory=list)
    durations_s: List[float] = field(default_factory=list)
    first_urls: Dict[str, int] = field(default_factory=dict)
    total_sessions: int = 0

    @property
    def mean_length(self) -> float:
        return float(np.mean(self.lengths)) if self.lengths else 0.0

    @property
    def median_length(self) -> float:
        return float(np.median(self.lengths)) if self.lengths else 0.0

    @property
    def mean_duration_s(self) -> float:
        return float(np.mean(self.durations_s)) if self.durations_s else 0.0

    def length_percentile(self, q: float) -> float:
        if not self.lengths:
            return 0.0
        return percentile(self.lengths, q)

    def manifest_first_fraction(
        self, markers: Sequence[str] = ("/home", "/config", "/stories")
    ) -> float:
        """Share of sessions opening on a manifest-like URL.

        The Table 1 pattern predicts sessions start with the story
        list / config fetch rather than deep content.
        """
        if not self.total_sessions:
            return 0.0
        matches = sum(
            count
            for url, count in self.first_urls.items()
            if any(marker in url for marker in markers)
        )
        return matches / self.total_sessions


def session_statistics(sessions: Iterable[Session]) -> SessionStats:
    """Fold sessions into aggregate statistics."""
    stats = SessionStats()
    for session in sessions:
        stats.total_sessions += 1
        stats.lengths.append(session.length)
        stats.durations_s.append(session.duration_s)
        stats.first_urls[session.first_url] = (
            stats.first_urls.get(session.first_url, 0) + 1
        )
    return stats
