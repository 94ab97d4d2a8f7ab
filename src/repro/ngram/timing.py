"""Interarrival-aware prediction — the paper's §5.2 future work.

"While our prediction analysis examines request access order, future
work can also take into account request interarrival time to better
inform prediction systems."

:class:`TimedNgramModel` augments the backoff ngram model with
per-transition gap statistics: for every observed ``previous → next``
transition it records the elapsed time, and at prediction time it
returns each candidate with its expected arrival gap.  A prefetcher
can use the gap to decide *whether a prefetch can pay off*: a
predicted request arriving in 50 ms cannot be beaten by an 80 ms
origin fetch, and one arriving beyond the object's TTL would find the
prefetched copy expired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.stats import percentile
from .model import BackoffNgramModel

__all__ = ["GapStats", "TimedPrediction", "TimedNgramModel"]

_MAX_SAMPLES_PER_TRANSITION = 256


@dataclass
class GapStats:
    """Streaming gap statistics for one transition."""

    samples: List[float]

    def add(self, gap_s: float) -> None:
        # Reservoir-less cap: early samples suffice for quantiles of
        # app think-time distributions, which are stationary.
        if len(self.samples) < _MAX_SAMPLES_PER_TRANSITION:
            self.samples.append(gap_s)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def median_s(self) -> float:
        return float(np.median(self.samples))

    def percentile_s(self, q: float) -> float:
        return percentile(self.samples, q)


@dataclass(frozen=True)
class TimedPrediction:
    """One predicted next request with its expected timing."""

    token: str
    score: float
    expected_gap_s: Optional[float]  # None when timing was never seen


class TimedNgramModel:
    """Backoff ngram model with per-transition interarrival stats.

    Training consumes *timed* sequences: lists of ``(timestamp,
    token)`` pairs per client flow.  Order statistics are learned by
    the wrapped :class:`BackoffNgramModel`; gaps are tracked for the
    bigram transitions (history length 1), which dominate prediction
    per Table 3.
    """

    def __init__(self, order: int = 1, backoff_discount: float = 0.4) -> None:
        self.model = BackoffNgramModel(order=order, backoff_discount=backoff_discount)
        self._gaps: Dict[Tuple[str, str], GapStats] = {}

    # -- training ---------------------------------------------------------

    def fit(
        self, timed_sequences: Iterable[Sequence[Tuple[float, str]]]
    ) -> "TimedNgramModel":
        for sequence in timed_sequences:
            self.add_sequence(sequence)
        return self

    def add_sequence(self, sequence: Sequence[Tuple[float, str]]) -> None:
        tokens = [token for _, token in sequence]
        self.model.add_sequence(tokens)
        for (prev_time, prev_token), (next_time, next_token) in zip(
            sequence, sequence[1:]
        ):
            gap = next_time - prev_time
            if gap < 0:
                continue
            stats = self._gaps.get((prev_token, next_token))
            if stats is None:
                stats = GapStats(samples=[])
                self._gaps[(prev_token, next_token)] = stats
            stats.add(gap)

    # -- prediction ------------------------------------------------------------

    def predict(
        self, history: Sequence[str], k: int = 1
    ) -> List[TimedPrediction]:
        """Top-K candidates with scores and expected gaps."""
        previous = history[-1] if history else None
        out: List[TimedPrediction] = []
        for token, score in self.model.scored_predictions(history, k):
            stats = (
                self._gaps.get((previous, token)) if previous is not None else None
            )
            out.append(
                TimedPrediction(
                    token=token,
                    score=score,
                    expected_gap_s=stats.median_s if stats and stats.count else None,
                )
            )
        return out

    def expected_gap(self, previous: str, successor: str) -> Optional[float]:
        """Median observed gap of a transition, if ever seen."""
        stats = self._gaps.get((previous, successor))
        if stats is None or not stats.count:
            return None
        return stats.median_s

    def transition_gap_stats(self, previous: str, successor: str) -> Optional[GapStats]:
        return self._gaps.get((previous, successor))

    # -- prefetch policy helper ------------------------------------------------

    def worthwhile_prefetches(
        self,
        history: Sequence[str],
        k: int,
        min_lead_s: float,
        max_lead_s: Optional[float] = None,
    ) -> List[TimedPrediction]:
        """Predictions whose timing makes a prefetch useful.

        ``min_lead_s`` — skip candidates expected sooner than an
        origin fetch completes (the prefetch cannot win the race).
        ``max_lead_s`` — skip candidates expected after the cached
        copy would have expired (typically the object TTL).
        Candidates with unknown timing are kept (order evidence
        alone is how the paper's base proposal works).
        """
        selected: List[TimedPrediction] = []
        for prediction in self.predict(history, k):
            gap = prediction.expected_gap_s
            if gap is not None:
                if gap < min_lead_s:
                    continue
                if max_lead_s is not None and gap > max_lead_s:
                    continue
            selected.append(prediction)
        return selected
