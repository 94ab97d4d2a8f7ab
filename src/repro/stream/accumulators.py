"""Per-window accumulators: the engine's record-stage state, per window.

A window's state is not a new kind of aggregate: it is exactly the
:class:`~repro.engine.tracks.TrackState` the batch engine folds per
shard, plus the window bounds.  That buys the stream the engine's
already-tested exactness contract for free: merging the accumulators
of *all* sealed tumbling windows of a replay yields the state a
single batch pass builds, and the finalizers below are the engine's
own (at default options), so they reproduce the batch reports bit for
bit (:func:`merged_characterization`, :func:`merged_pattern_report`).

``tracks`` lets a deployment drop analyses it does not need (for
example ``("characterization",)`` for a pure traffic monitor) — each
omitted track removes its per-record fold cost and its window memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..engine.tracks import ALL_TRACKS, TrackState, detect_periods, evaluate_ngram

if TYPE_CHECKING:
    from ..periodicity.config import DetectorConfig
    from ..periodicity.flows import FlowFilter
    from ..periodicity.results import PeriodicityReport

__all__ = [
    "ALL_TRACKS",
    "WindowAccumulator",
    "merge_accumulators",
    "merged_characterization",
    "merged_periodicity",
    "merged_ngram",
    "merged_pattern_report",
]


class WindowAccumulator(TrackState):
    """All mergeable analysis state for one event-time window."""

    def __init__(
        self,
        window_start: float,
        window_end: float,
        flow_filter: Optional["FlowFilter"] = None,
        tracks: Sequence[str] = ALL_TRACKS,
    ) -> None:
        super().__init__(tracks, flow_filter)
        self.window_start = window_start
        self.window_end = window_end

    def merge(self, other: "WindowAccumulator") -> "WindowAccumulator":
        """Fold another window's states in; bounds become the union."""
        super().merge(other)
        self.window_start = min(self.window_start, other.window_start)
        self.window_end = max(self.window_end, other.window_end)
        return self


def merge_accumulators(
    accumulators: Iterable[WindowAccumulator],
) -> Optional[WindowAccumulator]:
    """Fold window accumulators into one; ``None`` when empty."""
    merged: Optional[WindowAccumulator] = None
    for accumulator in accumulators:
        if merged is None:
            merged = WindowAccumulator(
                accumulator.window_start,
                accumulator.window_end,
                flow_filter=(
                    accumulator.flows.flow_filter
                    if accumulator.flows is not None
                    else None
                ),
                tracks=accumulator.tracks,
            )
        merged.merge(accumulator)
    return merged


# -- batch-equivalent finalizers ----------------------------------------
#
# The engine's own track finalizers at default options; the
# differential suite replays a static log through the stream, merges
# every sealed window, and asserts equality against the batch
# references.


def merged_characterization(
    accumulator: WindowAccumulator,
    domain_categories: Optional[Mapping[str, str]] = None,
):
    """§4 report from a merged accumulator (== batch)."""
    if accumulator.characterization is None:
        raise ValueError("accumulator does not track characterization")
    return accumulator.characterization.to_report(domain_categories)


def merged_periodicity(
    accumulator: WindowAccumulator,
    detector_config: Optional["DetectorConfig"] = None,
    match_tolerance: float = 0.10,
) -> "PeriodicityReport":
    """§5.1 report from a merged accumulator (== batch)."""
    if accumulator.flows is None:
        raise ValueError("accumulator does not track periodicity")
    return detect_periods(accumulator.flows, detector_config, match_tolerance)


def merged_ngram(
    accumulator: WindowAccumulator,
    ns: Sequence[int] = (1,),
    ks: Sequence[int] = (1, 5, 10),
    test_fraction: float = 0.25,
    seed: int = 0,
    model_order: Optional[int] = None,
):
    """Table 3 sweep from a merged accumulator (== batch)."""
    if accumulator.ngrams is None:
        raise ValueError("accumulator does not track ngram sequences")
    return evaluate_ngram(
        accumulator.ngrams, ns, ks, test_fraction, seed, model_order
    )


def merged_pattern_report(
    accumulator: WindowAccumulator,
    detector_config: Optional["DetectorConfig"] = None,
    match_tolerance: float = 0.10,
    ngram_ns: Sequence[int] = (1,),
    ngram_ks: Sequence[int] = (1, 5, 10),
):
    """§5 PatternReport from a merged accumulator (== batch)."""
    from ..core.pipeline import PatternReport

    return PatternReport(
        periodicity=merged_periodicity(
            accumulator,
            detector_config=detector_config,
            match_tolerance=match_tolerance,
        ),
        ngram=merged_ngram(accumulator, ns=ngram_ns, ks=ngram_ks),
    )
