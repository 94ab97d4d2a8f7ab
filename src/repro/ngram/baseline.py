"""Baseline predictors for the Table 3 comparison.

The ngram model "takes into account the popularity of highly
requested items, unlike standard program analysis" (§5.2).  To show
what the *transition structure* adds beyond popularity alone, this
module provides the natural baselines:

* :class:`PopularityPredictor` — always predict the globally
  most-requested objects, ignoring history entirely;
* :class:`PerClientRecencyPredictor` — predict the objects this
  client requested most recently (an LRU guess).

Both expose the same ``predict(history, k)`` interface as
:class:`repro.ngram.model.BackoffNgramModel`, so
:func:`repro.ngram.evaluate.evaluate_topk` scores them unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence

from ..core.stats import ranked

__all__ = ["PopularityPredictor", "PerClientRecencyPredictor"]


class PopularityPredictor:
    """History-blind global-popularity baseline.

    Tokens rank by :func:`~repro.core.stats.ranked` (count, then
    token), so ties never depend on training order.  The ranking is
    built on the first prediction after training changed the counts.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._ranking: Optional[List[str]] = None

    def fit(self, sequences: Iterable[Sequence[str]]) -> "PopularityPredictor":
        for sequence in sequences:
            self._counts.update(sequence)
        self._ranking = None
        return self

    def add_sequence(self, sequence: Sequence[str]) -> None:
        self._counts.update(sequence)
        self._ranking = None

    def predict(self, history: Sequence[str], k: int = 1) -> List[str]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._ranking is None:
            self._ranking = [token for token, _ in ranked(self._counts)]
        return self._ranking[:k]

    @property
    def vocabulary_size(self) -> int:
        return len(self._counts)


class PerClientRecencyPredictor:
    """Predict a client's most recent distinct requests (LRU guess).

    Stateless across flows: the "history" given at prediction time is
    the recency signal, so this baseline needs no training at all —
    it measures how far self-similarity alone goes.
    """

    def __init__(self) -> None:
        self.trained = True  # interface parity; nothing to fit

    def fit(self, sequences: Iterable[Sequence[str]]) -> "PerClientRecencyPredictor":
        return self

    def predict(self, history: Sequence[str], k: int = 1) -> List[str]:
        if k < 1:
            raise ValueError("k must be >= 1")
        out: List[str] = []
        for token in reversed(list(history)):
            if token not in out:
                out.append(token)
            if len(out) >= k:
                break
        return out
