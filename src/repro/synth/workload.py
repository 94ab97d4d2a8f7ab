"""Dataset builders: the stand-ins for the paper's two log collections.

Table 2 defines the datasets: a *short-term* capture (10 minutes,
whole network, ~5K domains) used for characterization (§4), and a
*long-term* capture (24 hours, one metro's edges, ~170 domains) used
for pattern mining (§5).  :func:`short_term_config` and
:func:`long_term_config` reproduce those shapes at laptop scale; the
absolute request counts are a knob because every analysis here is a
fraction or a distribution, not an absolute count.

Build pipeline::

    populations (domains, clients)
        → request events (sessions + periodic agents + sporadic flows)
        → time-sorted replay through simulated edge servers
        → RequestLog dataset + generation ground truth

Ground truth (which flows were truly periodic, each object's designed
period) is kept alongside the logs so detector tests can score
against *known* answers, something the paper could not do.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cdn.cache import LruTtlCache
from ..cdn.edge import EdgeServer, ServedRequest
from ..cdn.network import LatencyModel
from ..cdn.origin import OriginFleet
from ..logs.record import RequestLog
from .clients import Client, ClientPopulation
from .domains import DomainPopulation, DomainProfile, Endpoint
from .periodic import (
    PeriodicAgent,
    PeriodicObjectSpec,
    agent_duty_window,
    choose_period,
    choose_periodic_share,
)
from .regions import Region
from .rng import substream, zipf_weights
from .sessions import RequestEvent, SessionConfig, SessionGenerator
from .sizes import SizeModel

__all__ = [
    "WorkloadConfig",
    "GroundTruth",
    "Dataset",
    "WorkloadBuilder",
    "short_term_config",
    "long_term_config",
    "EPOCH_2019",
]

#: 2019-06-01 00:00:00 UTC — the datasets' nominal capture epoch.
EPOCH_2019 = 1_559_347_200.0


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one synthetic dataset.

    ``total_requests`` targets the number of **JSON** requests, since
    the paper's datasets are JSON-filtered log collections ("35
    million JSON requests", §1).  Browser traffic adds HTML and
    static-asset logs on top of the JSON budget.
    """

    total_requests: int
    duration_s: float
    num_domains: int
    num_clients: int
    seed: int = 0
    #: Target share of requests from periodic machine agents (§5.1).
    periodic_fraction: float = 0.063
    num_edges: int = 4
    start_time: float = EPOCH_2019
    session: SessionConfig = field(default_factory=SessionConfig)
    #: Apply a diurnal human-activity curve (day-long datasets only).
    diurnal: bool = False
    cache_capacity_bytes: int = 1 << 30
    #: Geographic regions (see :mod:`repro.synth.regions`).  None is
    #: a single implicit region (the paper's long-term Seattle
    #: capture); a tuple of regions gives each its own edges and
    #: phases the diurnal curve by local time.
    regions: Optional[Tuple["Region", ...]] = None

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_s


def short_term_config(
    total_requests: int = 250_000, seed: int = 0, **overrides
) -> WorkloadConfig:
    """The short-term dataset shape: 10 minutes, wide domain coverage.

    Paper scale is 25M logs over ~5K domains; default reproduction
    scale is 250K logs over 1,200 domains (same logs-per-domain
    order).
    """
    num_domains = overrides.pop("num_domains", max(50, total_requests // 200))
    return WorkloadConfig(
        total_requests=total_requests,
        duration_s=600.0,
        num_domains=num_domains,
        num_clients=overrides.pop("num_clients", max(200, total_requests // 12)),
        seed=seed,
        num_edges=overrides.pop("num_edges", 8),
        diurnal=False,
        **overrides,
    )


def long_term_config(
    total_requests: int = 200_000, seed: int = 0, **overrides
) -> WorkloadConfig:
    """The long-term dataset shape: 24 hours, ~170 domains, 3 edges."""
    return WorkloadConfig(
        total_requests=total_requests,
        duration_s=86_400.0,
        num_domains=overrides.pop("num_domains", 170),
        num_clients=overrides.pop("num_clients", max(100, total_requests // 60)),
        seed=seed,
        num_edges=overrides.pop("num_edges", 3),
        diurnal=True,
        **overrides,
    )


@dataclass
class GroundTruth:
    """What the generator actually planted (for detector scoring)."""

    #: Designed periodic objects, keyed by object id.
    periodic_specs: Dict[str, PeriodicObjectSpec] = field(default_factory=dict)
    #: (client_id, object_id) pairs that ran on a timer.
    periodic_flows: set = field(default_factory=set)
    periodic_request_count: int = 0
    session_request_count: int = 0
    #: JSON requests already emitted per client segment by the
    #: periodic phase (periodic + sporadic flows).
    periodic_segment_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return self.periodic_request_count + self.session_request_count

    @property
    def periodic_fraction(self) -> float:
        total = self.total_requests
        return self.periodic_request_count / total if total else 0.0


@dataclass
class Dataset:
    """A built dataset: logs plus everything needed to interpret them."""

    config: WorkloadConfig
    logs: List[RequestLog]
    domains: DomainPopulation
    clients: ClientPopulation
    ground_truth: GroundTruth

    def __len__(self) -> int:
        return len(self.logs)


class WorkloadBuilder:
    """Builds one dataset from a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self.domains = DomainPopulation(config.num_domains, seed=config.seed)
        self.clients = ClientPopulation(
            config.num_clients, seed=config.seed, regions=config.regions
        )
        self._regions_by_name = {
            region.name: region for region in (config.regions or ())
        }

    # -- event generation -------------------------------------------------------

    def build_events(self) -> Tuple[List[RequestEvent], GroundTruth]:
        """Generate the full, time-sorted request-event stream."""
        truth = GroundTruth()
        events: List[RequestEvent] = []
        events.extend(self._periodic_events(truth))
        events.extend(self._session_events(truth))
        # The same order as ``events.sort()``: events compare by
        # timestamp only, and the sort is stable.  A key sort skips
        # the dataclass ``__lt__`` per comparison.
        events.sort(key=operator.attrgetter("timestamp"))
        return events, truth

    def build(self) -> Dataset:
        """Generate events and replay them through the edge fleet."""
        events, truth = self.build_events()
        logs = [served.log for served in self.replay(events)]
        return Dataset(
            config=self.config,
            logs=logs,
            domains=self.domains,
            clients=self.clients,
            ground_truth=truth,
        )

    def replay(self, events: Sequence[RequestEvent]) -> List[ServedRequest]:
        """Serve a sorted event stream on per-POP edge servers.

        Single-region datasets spread clients over ``num_edges``
        machines; multi-region datasets deploy each region's own
        edges and route every client to an edge in its home region,
        as CDN request routing does.
        """
        config = self.config
        origins = OriginFleet()
        size_model = SizeModel(substream(config.seed, "sizes"))

        def make_edge(edge_id: str) -> EdgeServer:
            return EdgeServer(
                edge_id=edge_id,
                cache=LruTtlCache(config.cache_capacity_bytes),
                origins=origins,
                latency_model=LatencyModel(substream(config.seed, "latency", edge_id)),
                size_model=size_model,
                rng=substream(config.seed, "edge", edge_id),
            )

        edges_by_region: Dict[str, List[EdgeServer]] = {}
        if config.regions:
            for region in config.regions:
                edges_by_region[region.name] = [
                    make_edge(f"{region.name}-edge-{index}")
                    for index in range(region.num_edges)
                ]
        else:
            edges_by_region[""] = [
                make_edge(f"edge-{index}") for index in range(config.num_edges)
            ]

        default_pool = next(iter(edges_by_region.values()))
        served: List[ServedRequest] = []
        for event in events:
            pool = edges_by_region.get(event.client.region, default_pool)
            # Stable client→edge mapping (string hash() is seeded per
            # process and would break reproducibility).
            edge = pool[int(event.client.ip_hash[:8], 16) % len(pool)]
            served.append(edge.serve(event))
        return served

    # -- periodic traffic ------------------------------------------------------

    def _periodic_events(self, truth: GroundTruth) -> List[RequestEvent]:
        config = self.config
        rng = substream(config.seed, "periodic")
        budget = int(config.total_requests * config.periodic_fraction)
        if budget <= 0:
            return []

        machine_clients = [
            client
            for client in self.clients
            if client.segment in ("mobile_app", "embedded", "sdk", "no_ua")
        ]
        if not machine_clients:
            return []

        # Periodic objects come from the most popular domains first —
        # the paper's periodic objects sit in the top 25% of objects.
        # Endpoint choice is weighted toward telemetry uploads so that
        # periodic traffic is ~78% upload as observed (§5.1).
        ranked = sorted(self.domains, key=lambda d: d.popularity, reverse=True)
        pools: List[Tuple[DomainProfile, List[Endpoint], List[Endpoint]]] = []
        for domain in ranked:
            uploads = [ep for ep in domain.periodic_endpoints if ep.method.is_upload()]
            downloads = [
                ep for ep in domain.periodic_endpoints if not ep.method.is_upload()
            ]
            rng.shuffle(uploads)
            rng.shuffle(downloads)
            pools.append((domain, uploads, downloads))

        # A period only makes sense when the window fits >= 12 ticks —
        # shorter flows cannot clear the ten-request filter (§5.1).
        max_period = config.duration_s / 12.0

        events: List[RequestEvent] = []
        emitted = 0
        upload_emitted = 0
        client_cursor = 0
        pool_cursor = 0
        majority_objects = 0
        while emitted < budget and any(up or down for _, up, down in pools):
            domain, uploads, downloads = pools[pool_cursor % len(pools)]
            pool_cursor += 1
            # Request-level quota: keep the periodic traffic ~78%
            # upload (§5.1) regardless of how few objects fit the
            # budget.
            want_upload = upload_emitted < 0.78 * max(emitted, 1)
            if want_upload and uploads:
                endpoint = uploads.pop()
            elif downloads:
                endpoint = downloads.pop()
            elif uploads:
                endpoint = uploads.pop()
            else:
                continue
            period = choose_period(rng)
            for _ in range(8):
                if period <= max_period:
                    break
                period = choose_period(rng)
            if period > max_period:
                continue
            # Quota-schedule the firmware-style (majority-periodic)
            # objects: ~25% of planted objects, deterministically
            # spread, so the Figure 6 majority fraction is stable at
            # dataset scale.
            planted = len(truth.periodic_specs)
            force_majority = majority_objects < 0.25 * (planted + 1) - 0.5
            if force_majority:
                majority_objects += 1
            share = choose_periodic_share(rng, majority=force_majority)
            spec = PeriodicObjectSpec(
                domain=domain,
                endpoint=endpoint,
                period_s=period,
                periodic_client_share=share,
            )
            num_clients = rng.randint(12, 24)
            num_periodic = max(1, round(num_clients * share))
            num_sporadic = num_clients - num_periodic
            truth.periodic_specs[spec.object_id] = spec

            for _ in range(num_periodic):
                client = machine_clients[client_cursor % len(machine_clients)]
                client_cursor += 1
                start, end = agent_duty_window(
                    rng, period, config.start_time, config.end_time
                )
                agent = PeriodicAgent(
                    client=client,
                    spec=spec,
                    phase_s=rng.uniform(0.0, period),
                    jitter_s=rng.uniform(0.05, 0.40),
                    drop_probability=rng.uniform(0.01, 0.08),
                    active_start=start,
                    active_end=end,
                )
                agent_events = agent.generate(rng)
                events.extend(agent_events)
                emitted += len(agent_events)
                if endpoint.method.is_upload():
                    upload_emitted += len(agent_events)
                truth.periodic_flows.add((client.client_key, spec.object_id))
                truth.periodic_segment_counts[client.segment] = (
                    truth.periodic_segment_counts.get(client.segment, 0)
                    + len(agent_events)
                )

            # Sporadic (human-triggered) clients of the same object:
            # enough requests to clear the flow filter, but Poisson
            # times — no period for the detector to find.
            for _ in range(num_sporadic):
                client = machine_clients[client_cursor % len(machine_clients)]
                client_cursor += 1
                # Sporadic flows must clear the ten-request filter in
                # day-long datasets; in short captures they are simply
                # background noise on the object.
                if config.duration_s >= 3_600:
                    count = rng.randint(10, 16)
                else:
                    count = rng.randint(2, 5)
                for _ in range(count):
                    timestamp = rng.uniform(config.start_time, config.end_time)
                    events.append(RequestEvent(timestamp, client, domain, endpoint))
                truth.session_request_count += count
                truth.periodic_segment_counts[client.segment] = (
                    truth.periodic_segment_counts.get(client.segment, 0) + count
                )

        truth.periodic_request_count = emitted
        return events

    # -- human/session traffic ------------------------------------------------------

    def _session_events(self, truth: GroundTruth) -> List[RequestEvent]:
        """Fill the JSON budget with session traffic, segment by segment.

        Scheduling is deficit-driven: each segment has a target JSON
        request count (:data:`repro.synth.clients.DEFAULT_SEGMENT_MIX`
        share × total budget, minus what periodic traffic already
        consumed on that segment), and the next session always goes to
        the segment furthest below target.  This self-corrects for the
        very different JSON yields of session types (a browser session
        emits mostly HTML/assets; an app session is pure JSON).
        """
        config = self.config
        rng = substream(config.seed, "sessions")
        generator = SessionGenerator(
            substream(config.seed, "sessions", "chain"), config.session
        )
        budget = config.total_requests - truth.periodic_request_count
        if budget <= 0:
            return []

        domain_list = list(self.domains)
        domain_weights = self.domains.popularity_weights()
        by_segment = self.clients.by_segment()
        segment_weights = {
            name: [client.activity for client in group]
            for name, group in by_segment.items()
        }
        total_share = sum(
            share for name, share in self._segment_shares().items() if name in by_segment
        )
        targets: Dict[str, float] = {
            name: share / total_share * config.total_requests
            for name, share in self._segment_shares().items()
            if name in by_segment
        }
        emitted: Dict[str, int] = {name: 0 for name in targets}
        # Periodic traffic already spent part of some segments' budget.
        for segment, count in truth.periodic_segment_counts.items():
            if segment in emitted:
                emitted[segment] += count

        app_affinity: Dict[str, List[DomainProfile]] = {}
        events: List[RequestEvent] = []
        session_json = 0
        total_emitted = lambda: sum(emitted.values())
        while total_emitted() < config.total_requests:
            segment = max(targets, key=lambda name: targets[name] - emitted[name])
            if targets[segment] - emitted[segment] <= 0:
                break
            group = by_segment[segment]
            client = rng.choices(group, weights=segment_weights[segment], k=1)[0]
            domain = self._pick_domain(rng, client, domain_list, domain_weights,
                                       app_affinity)
            start = self._pick_start_time(rng, client)
            if segment in ("mobile_browser", "desktop_browser"):
                session = generator.browser_session(client, domain, start)
            elif segment == "sdk":
                session = generator.script_burst(client, domain, start)
            else:
                session = generator.app_session(client, domain, start)
            session = [
                event for event in session if event.timestamp < config.end_time
            ]
            events.extend(session)
            json_count = sum(
                1
                for event in session
                if event.endpoint.mime_type == "application/json"
            )
            emitted[segment] += json_count
            session_json += json_count
        truth.session_request_count += session_json
        return events

    @staticmethod
    def _segment_shares() -> Dict[str, float]:
        from .clients import DEFAULT_SEGMENT_MIX

        total = sum(DEFAULT_SEGMENT_MIX.values())
        return {name: share / total for name, share in DEFAULT_SEGMENT_MIX.items()}

    def _pick_domain(
        self,
        rng,
        client: Client,
        domain_list: List[DomainProfile],
        domain_weights: List[float],
        app_affinity: Dict[str, List[DomainProfile]],
    ) -> DomainProfile:
        # Browsers roam; apps are installed.
        if client.segment in ("mobile_browser", "desktop_browser", "sdk"):
            return rng.choices(domain_list, weights=domain_weights, k=1)[0]
        key = client.client_key
        installed = app_affinity.get(key)
        if installed is None:
            count = rng.randint(1, 3)
            installed = [
                rng.choices(domain_list, weights=domain_weights, k=1)[0]
                for _ in range(count)
            ]
            app_affinity[key] = installed
        return rng.choice(installed)

    def _pick_start_time(self, rng, client: Client) -> float:
        config = self.config
        if not config.diurnal:
            return rng.uniform(config.start_time, config.end_time)
        # Rejection-sample against a day curve peaking in the local
        # evening; the client's region phases "local".
        region = self._regions_by_name.get(client.region)
        offset = region.utc_offset_h if region is not None else 0.0
        while True:
            timestamp = rng.uniform(config.start_time, config.end_time)
            hour = ((timestamp - config.start_time) / 3600.0 + offset) % 24.0
            # Peak at 20:00 local, trough in the early morning.
            weight = 0.35 + 0.65 * (0.5 - 0.5 * math.cos(2 * math.pi * (hour - 8) / 24))
            if rng.random() < weight:
                return timestamp
