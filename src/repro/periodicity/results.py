"""Periodicity analysis over a whole dataset (§5.1 results).

Runs the detector over every object flow and client-object flow,
labels a client flow *periodic* when its period matches its object's
period (the paper's rule), and aggregates:

* the share of JSON requests that is periodic (paper: 6.3%),
* the Figure 5 histogram of object-flow periods,
* the Figure 6 CDF of each object's periodic-client share,
* the method/cacheability mix of periodic traffic (paper: 78%
  upload, 56.2% uncacheable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from ..logs.record import RequestLog
from .flows import FlowFilter, ObjectFlow, extract_flows

if TYPE_CHECKING:
    from .config import DetectorConfig
    from .detector import DetectedPeriod, PeriodDetector

__all__ = [
    "ObjectPeriodicity",
    "PeriodicityReport",
    "analyze_object_flow",
    "analyze_flows",
    "analyze_logs",
]


@dataclass
class ObjectPeriodicity:
    """Detection outcome for one object flow."""

    object_id: str
    object_period: Optional[DetectedPeriod]
    #: How the object period was determined: "object-flow" (the
    #: paper's method — detection on the merged flow) or
    #: "client-consensus" (our extension — the merged flow of a few
    #: interleaved same-period clients can show phase artifacts, but a
    #: majority of per-client detections agreeing on one period is
    #: stronger evidence).
    object_period_source: str = "object-flow"
    #: client id → detected period (None when no period found).
    client_periods: Dict[str, Optional[DetectedPeriod]] = field(default_factory=dict)
    #: Clients whose period matches the object period.
    periodic_clients: List[str] = field(default_factory=list)
    periodic_request_count: int = 0
    periodic_upload_count: int = 0
    periodic_uncacheable_count: int = 0
    total_request_count: int = 0

    @property
    def is_periodic(self) -> bool:
        return self.object_period is not None and bool(self.periodic_clients)

    @property
    def periodic_client_share(self) -> float:
        total = len(self.client_periods)
        return len(self.periodic_clients) / total if total else 0.0


@dataclass
class PeriodicityReport:
    """Dataset-level periodicity summary."""

    objects: Dict[str, ObjectPeriodicity]
    total_json_requests: int

    # -- headline fractions ----------------------------------------------------

    @property
    def periodic_request_count(self) -> int:
        return sum(obj.periodic_request_count for obj in self.objects.values())

    @property
    def periodic_request_fraction(self) -> float:
        """Share of all JSON requests in periodic client flows (6.3%)."""
        if not self.total_json_requests:
            return 0.0
        return self.periodic_request_count / self.total_json_requests

    @property
    def periodic_upload_fraction(self) -> float:
        """Upload share within periodic traffic (paper: 78%)."""
        total = self.periodic_request_count
        if not total:
            return 0.0
        uploads = sum(obj.periodic_upload_count for obj in self.objects.values())
        return uploads / total

    @property
    def periodic_uncacheable_fraction(self) -> float:
        """Uncacheable share within periodic traffic (paper: 56.2%)."""
        total = self.periodic_request_count
        if not total:
            return 0.0
        uncacheable = sum(
            obj.periodic_uncacheable_count for obj in self.objects.values()
        )
        return uncacheable / total

    # -- Figure 5 ------------------------------------------------------------

    def object_periods(self) -> List[float]:
        """Detected object-flow periods (seconds), periodic objects only."""
        return [
            obj.object_period.period_s
            for obj in self.objects.values()
            if obj.is_periodic and obj.object_period is not None
        ]

    def period_histogram(
        self, bin_width_s: float = 10.0
    ) -> List[Tuple[float, int]]:
        """Histogram of object periods — the Figure 5 series.

        Returns (bin start, count) pairs for non-empty bins.
        """
        periods = self.object_periods()
        if not periods:
            return []
        counts: Dict[int, int] = {}
        for period in periods:
            counts[int(period // bin_width_s)] = (
                counts.get(int(period // bin_width_s), 0) + 1
            )
        return sorted(
            (index * bin_width_s, count) for index, count in counts.items()
        )

    # -- Figure 6 -----------------------------------------------------------

    def periodic_client_shares(self) -> List[float]:
        """Per-object share of periodic clients — the Figure 6 sample."""
        return [
            obj.periodic_client_share
            for obj in self.objects.values()
            if obj.object_period is not None
        ]

    def share_cdf(self) -> List[Tuple[float, float]]:
        """(share, cumulative fraction of objects) — the Figure 6 line."""
        shares = sorted(self.periodic_client_shares())
        n = len(shares)
        return [(share, (index + 1) / n) for index, share in enumerate(shares)]

    def majority_periodic_fraction(self) -> float:
        """Fraction of periodic objects with >50% periodic clients."""
        shares = self.periodic_client_shares()
        if not shares:
            return 0.0
        return sum(1 for share in shares if share > 0.5) / len(shares)


#: Minimum per-client detections that must agree before a client
#: consensus may override (or supply) the object-flow period.
_CONSENSUS_MIN_CLIENTS = 3


def _client_consensus(
    client_periods: Mapping[str, Optional[DetectedPeriod]],
    match_tolerance: float,
) -> Optional[DetectedPeriod]:
    """Largest cluster of agreeing client periods, if big enough.

    Per-client false positives are rare (the permutation threshold
    holds each to ~1%), so three independent clients agreeing on one
    period is strong evidence that it is the object's period.

    Candidates are scanned in sorted period order, so equal-size
    cluster ties resolve to the smallest period no matter how the
    client map is ordered — the parallel pipeline rebuilds flows in
    a different client order than the serial pass, and both must
    elect the same consensus.
    """
    detected = sorted(
        (period for period in client_periods.values() if period is not None),
        key=lambda period: (
            period.period_s,
            period.acf_value,
            period.spectral_power,
        ),
    )
    best_cluster: List[DetectedPeriod] = []
    for candidate in detected:
        cluster = [
            other for other in detected if candidate.matches(other, match_tolerance)
        ]
        if len(cluster) > len(best_cluster):
            best_cluster = cluster
    if len(best_cluster) < _CONSENSUS_MIN_CLIENTS:
        return None
    # The cluster's median period is the consensus representative.
    ordered = sorted(period.period_s for period in best_cluster)
    median = ordered[len(ordered) // 2]
    representative = min(
        best_cluster, key=lambda period: abs(period.period_s - median)
    )
    return representative


def _new_detector(config: Optional[DetectorConfig] = None) -> PeriodDetector:
    """A detector; its module (and numpy) loads on the first call."""
    from .detector import PeriodDetector

    return PeriodDetector(config)


def analyze_object_flow(
    flow: ObjectFlow,
    detector: Optional[PeriodDetector] = None,
    match_tolerance: float = 0.10,
) -> ObjectPeriodicity:
    """Run period detection over one object flow.

    The object period comes from the paper's merged-flow detection,
    reconciled against the per-client detections: when more clients
    agree on a different period than match the merged-flow one (an
    interleaving artifact of few same-period clients at distinct
    phases), the client consensus wins.

    Every value computed here is a pure function of the flow's
    contents: clients are visited in sorted-id order and consensus
    ties resolve canonically, so the sharded pipeline (which rebuilds
    flows in a different client order than the serial pass) produces
    an identical outcome.
    """
    detector = detector or _new_detector()
    outcome = ObjectPeriodicity(
        object_id=flow.object_id,
        object_period=detector.detect(flow.merged_timestamps()),
    )
    outcome.total_request_count = flow.request_count
    ordered_flows = sorted(flow.client_flows.items())
    for client_id, client_flow in ordered_flows:
        outcome.client_periods[client_id] = detector.detect(
            client_flow.timestamps
        )

    consensus = _client_consensus(outcome.client_periods, match_tolerance)
    if consensus is not None:
        matches_object = (
            sum(
                1
                for period in outcome.client_periods.values()
                if period is not None
                and outcome.object_period is not None
                and period.matches(outcome.object_period, match_tolerance)
            )
            if outcome.object_period is not None
            else 0
        )
        matches_consensus = sum(
            1
            for period in outcome.client_periods.values()
            if period is not None and period.matches(consensus, match_tolerance)
        )
        if outcome.object_period is None or matches_consensus > matches_object:
            outcome.object_period = consensus
            outcome.object_period_source = "client-consensus"

    for client_id, client_flow in ordered_flows:
        detected = outcome.client_periods[client_id]
        if (
            detected is not None
            and outcome.object_period is not None
            and detected.matches(outcome.object_period, match_tolerance)
        ):
            outcome.periodic_clients.append(client_id)
            outcome.periodic_request_count += client_flow.request_count
            outcome.periodic_upload_count += client_flow.upload_count
            outcome.periodic_uncacheable_count += client_flow.uncacheable_count
    return outcome


def analyze_flows(
    flows: Mapping[str, ObjectFlow],
    total_json_requests: int,
    detector: Optional[PeriodDetector] = None,
    match_tolerance: float = 0.10,
) -> PeriodicityReport:
    """Run period detection over pre-extracted flows."""
    if detector is None and flows:
        detector = _new_detector()
    objects: Dict[str, ObjectPeriodicity] = {
        object_id: analyze_object_flow(
            flow, detector=detector, match_tolerance=match_tolerance
        )
        for object_id, flow in flows.items()
    }
    return PeriodicityReport(
        objects=objects, total_json_requests=total_json_requests
    )


def analyze_logs(
    logs: Iterable[RequestLog],
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    match_tolerance: float = 0.10,
) -> PeriodicityReport:
    """End-to-end §5.1 analysis of a log collection.

    Materializes the JSON request count and the filtered flows in one
    pass, then runs detection.
    """
    materialized = list(logs)
    total_json = sum(1 for record in materialized if record.is_json)
    flows = extract_flows(materialized, flow_filter)
    detector = _new_detector(detector_config) if detector_config else None
    return analyze_flows(
        flows, total_json, detector=detector, match_tolerance=match_tolerance
    )
