"""Wiring the metrics registry through every layer of the stack.

This module is deliberately **import-light**: it never imports
:mod:`repro.service` or :mod:`repro.fleet` (the service modules import
*it* for :class:`RegistryBackedCounters`, so a top-level import here
would be a cycle).  Everything binds by duck typing:

- :func:`instrument_service` /
  :meth:`ServiceObs.bind_verifier` — outcome counters, round-latency
  histograms, coalescer depth/flush metrics, spot-pool gauges, and
  round trace spans for an :class:`~repro.service.facade.AuthService`
  or a bare :class:`~repro.fleet.verifier.BatchVerifier`.
- :func:`instrument_server` / :func:`instrument_chaos` — migrate the
  ``ServerMetrics``/``ChaosMetrics`` attribute counters onto a shared
  registry, carrying over any counts already taken, and
  add handshake-latency timing.
- :func:`instrument_backend` — checkpoint duration/bytes plus sampled
  eviction/fault/WAL counters for a ``ShardedFileBackend``.
- :func:`instrument_replica_group` — one shared registry across a
  whole :class:`~repro.service.ha.ReplicaGroup` (lease transitions,
  promotions, fenced refusals, WAL replay time, per-replica
  incarnations), so scraping *any* replica returns fleet-wide totals.

The binding sites inside the instrumented classes are all of the form
``if self._obs is not None: self._obs.on_...(...)`` — an
uninstrumented object pays one attribute load, and an instrumented
object with a *disabled* registry pays exactly one further branch
(every hook begins with the enabled check).  No hook ever touches an
RNG or a non-injected clock: metrics on vs off is transcript- and
nonce-stream-identical (tests/obs/test_noninterference.py).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import RoundTracer

__all__ = [
    "GroupObs",
    "RegistryBackedCounters",
    "ServerObs",
    "ServiceObs",
    "instrument_backend",
    "instrument_chaos",
    "instrument_replica_group",
    "instrument_server",
    "instrument_service",
    "instrument_verifier",
]

#: Fleets larger than this skip the per-device spot-pool sweep on
#: scrape — sampling a million-device out-of-core registry would fault
#: every page in.
POOL_SAMPLE_LIMIT = 4096

#: Micro-round size buckets (devices per coalesced flush).
MICRO_ROUND_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                       256.0, 512.0)

#: Checkpoint size buckets (bytes, powers of 16 from 4 KiB).
CHECKPOINT_BYTE_BUCKETS = tuple(4096.0 * 16.0 ** k for k in range(8))


class RegistryBackedCounters:
    """Base for ``ServerMetrics``/``ChaosMetrics``: plain-int counters
    backed by a :class:`~repro.obs.registry.MetricsRegistry`.

    ``metrics.requests += 1`` and ``metrics.to_json()`` read and write
    :class:`~repro.obs.registry.Counter` series on the registry passed
    at construction; :func:`instrument_server` /
    :func:`instrument_chaos` rebind an owner's counters onto a shared
    one.

    Attribute writes go through ``Counter._set_total`` deliberately
    un-gated on the registry's enabled flag: the attribute API promises
    the counts are always live, and the socket server's accounting
    (e.g. ``drained_tickets``) must stay correct even when an operator
    disables scraping.
    """

    _PREFIX = "repro_"
    _FIELDS: Tuple[str, ...] = ()
    _HELP: Dict[str, str] = {}

    def __init__(self, registry: MetricsRegistry,
                 labels: Optional[Dict[str, object]] = None):
        bind = object.__setattr__
        bind(self, "_registry", registry)
        bind(self, "_labels",
             {name: str(value) for name, value in (labels or {}).items()})
        labelnames = tuple(sorted(self._labels))
        counters = {}
        for name in self._FIELDS:
            counters[name] = registry.counter(
                self._PREFIX + name,
                self._HELP.get(name, name.replace("_", " ")),
                labelnames,
            )
        bind(self, "_counters", counters)

    def __getattr__(self, name: str) -> int:
        if name in type(self)._FIELDS:
            return int(self._counters[name].value(**self._labels))
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def __setattr__(self, name: str, value: object) -> None:
        if name in type(self)._FIELDS:
            self._counters[name]._set_total(int(value), **self._labels)
        else:
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}


class ServiceObs:
    """Observer for the verify plane: facade, verifier, coalescer.

    One instance may be bound to several services at once (an HA
    replica group shares one), in which case the counters aggregate
    across replicas and sampled gauges sum over the live coalescers.
    """

    def __init__(self, registry: MetricsRegistry,
                 tracer: Optional[RoundTracer] = None):
        self.registry = registry
        self.tracer = tracer
        self._services: List[object] = []
        self._pool_sources: List[object] = []
        self._span = None
        self._pre_round: List[tuple] = []  # buffered (event, t) marks
        self.incarnations: Dict[int, int] = {}
        metrics = registry
        self.results = metrics.counter(
            "repro_auth_results_total",
            "Per-device authentication outcomes from every verified round",
            ("result",))
        self.rounds = metrics.counter(
            "repro_auth_rounds_total", "Verification rounds completed")
        self.challenges = metrics.counter(
            "repro_auth_challenges_total",
            "Round nonces issued (challenge phase)")
        self.finalized = metrics.counter(
            "repro_auth_finalized_total",
            "Two-phase commits settled (registry CRP rolled)")
        self.aborted = metrics.counter(
            "repro_auth_aborted_total",
            "Pending sessions aborted (confirmation undeliverable or "
            "rejected)")
        self.recovered = metrics.counter(
            "repro_auth_recovered_total",
            "Interrupted commits settled by MAC-proven recovery")
        self.round_latency = metrics.histogram(
            "repro_service_round_latency_seconds",
            "AuthService round latency by phase", ("phase",))
        self.enrolled = metrics.counter(
            "repro_service_enrolled_total",
            "Devices enrolled through the service facade")
        self.revoked = metrics.counter(
            "repro_service_revoked_total",
            "Devices revoked through the service facade")
        self.queue_depth = metrics.gauge(
            "repro_coalescer_queue_depth",
            "Tickets pending in the round coalescer")
        self.micro_round_size = metrics.histogram(
            "repro_coalescer_micro_round_size",
            "Devices per coalesced micro-round",
            buckets=MICRO_ROUND_BUCKETS)
        self.submitted = metrics.counter(
            "repro_coalescer_submitted_total",
            "Tickets submitted to the coalescer")
        self.micro_rounds = metrics.counter(
            "repro_coalescer_micro_rounds_total",
            "Coalesced micro-rounds flushed")
        self.flushes = metrics.counter(
            "repro_coalescer_flushes_total",
            "Coalescer flushes by trigger", ("reason",))
        self.spot_pool = metrics.gauge(
            "repro_service_spot_pool_remaining",
            "Unburned spot-check CRPs remaining, by device class",
            ("device_class",))
        registry.register_collector(self._collect)

    # -- binding ----------------------------------------------------------

    def bind(self, service: object) -> "ServiceObs":
        """Attach to an ``AuthService`` (verifier + coalescer ride along)."""
        if not any(bound is service for bound in self._services):
            self._services.append(service)
        service._obs = self
        self.bind_verifier(service.verifier)
        coalescer = getattr(service, "coalescer", None)
        if coalescer is not None:
            coalescer._obs = self
        return self

    def bind_verifier(self, verifier: object) -> "ServiceObs":
        """Attach to a bare ``BatchVerifier`` (the simulator path)."""
        verifier._obs = self
        fleet_registry = getattr(verifier, "registry", None)
        if fleet_registry is not None and not any(
                source is fleet_registry for source in self._pool_sources):
            self._pool_sources.append(fleet_registry)
        return self

    def set_incarnation(self, replica: int, incarnation: int) -> None:
        self.incarnations[int(replica)] = int(incarnation)

    # -- sampled gauges (scrape-time collector) ---------------------------

    def _collect(self) -> None:
        depth = submitted = micro = by_size = by_deadline = 0
        sampled = False
        for service in self._services:
            coalescer = getattr(service, "coalescer", None)
            if coalescer is None:
                continue
            sampled = True
            depth += coalescer.pending_count
            submitted += coalescer.submitted
            micro += coalescer.micro_rounds
            by_size += coalescer.flushed_by_size
            by_deadline += coalescer.flushed_by_deadline
        if sampled:
            self.queue_depth.set(depth)
            self.submitted._set_total(submitted)
            self.micro_rounds._set_total(micro)
            self.flushes._set_total(by_size, reason="size")
            self.flushes._set_total(by_deadline, reason="deadline")
        for source in reversed(self._pool_sources):
            try:
                if len(source) > POOL_SAMPLE_LIMIT:
                    continue
                totals: Dict[str, int] = {}
                for device_id in source.device_ids():
                    record = source.record(device_id)
                    device_class = (f"{record.challenge_bits}x"
                                    f"{record.current_response.size}")
                    totals[device_class] = totals.get(device_class, 0) + int(
                        record.crp_used.size - record.crp_used.sum())
                for device_class, remaining in totals.items():
                    self.spot_pool.set(remaining, device_class=device_class)
            except Exception:
                # A torn-down backend (closed files after promotion) is
                # not worth failing a scrape over; try the next source.
                continue
            break

    # -- verifier hooks ---------------------------------------------------

    def on_challenge(self, verifier: object,
                     nonces: Dict[str, bytes]) -> None:
        if not self.registry._enabled:
            return
        self.challenges.inc(len(nonces))
        if self.tracer is not None:
            replica = int(getattr(verifier, "replica_index", 0))
            span = self.tracer.begin(
                sorted(nonces), replica, self.incarnations.get(replica, 0))
            span.events.extend(self._pre_round[-16:])
            self._pre_round.clear()
            span.correlate(nonces)
            self.tracer.mark(span, "challenge")
            self._span = span

    def on_verify(self, verifier: object, report: object) -> None:
        if not self.registry._enabled:
            return
        self.rounds.inc()
        if report.confirmations:
            self.results.inc(len(report.confirmations), result="accepted")
        for kind in report.failure_kinds.values():
            self.results.inc(result=kind)
        span = self._span
        if self.tracer is not None and span is not None:
            self.tracer.mark(span, "verify")
            self.tracer.finish(span, "verified")

    def on_result(self, kind: str) -> None:
        if not self.registry._enabled:
            return
        self.results.inc(result=kind)

    def on_finalize(self, verifier: object, device_id: str) -> None:
        if not self.registry._enabled:
            return
        self.finalized.inc()
        span = self._span
        # Mark the span's state transition once per round, not once per
        # device: a 64-device round settles with 64 finalize calls, and
        # 64 identical marks would only add clock reads to the hot path.
        if self.tracer is not None and span is not None \
                and span.status != "finalized" \
                and device_id in span.nonces:
            self.tracer.mark(span, "finalize")
            span.status = "finalized"

    def on_abort(self, verifier: object, device_id: str) -> None:
        if not self.registry._enabled:
            return
        self.aborted.inc()
        span = self._span
        if self.tracer is not None and span is not None \
                and span.status not in ("aborted", "finalized") \
                and device_id in span.nonces:
            self.tracer.mark(span, "abort")
            span.status = "aborted"

    def on_recovered(self, verifier: object) -> None:
        if not self.registry._enabled:
            return
        self.recovered.inc()

    # -- facade hooks -----------------------------------------------------

    def on_round(self, report: object, elapsed: float, phase: str) -> None:
        if not self.registry._enabled:
            return
        self.round_latency.observe(elapsed, phase=phase)

    def on_enroll(self) -> None:
        if not self.registry._enabled:
            return
        self.enrolled.inc()

    def on_revoke(self) -> None:
        if not self.registry._enabled:
            return
        self.revoked.inc()

    # -- coalescer hooks --------------------------------------------------

    def on_coalescer_submit(self, depth: int) -> None:
        if not self.registry._enabled:
            return
        self.queue_depth.set(depth)
        if self.tracer is not None and len(self._pre_round) < 1024:
            self._pre_round.append(("submit", self.tracer.clock()))

    def on_coalescer_flush(self, size: int) -> None:
        if not self.registry._enabled:
            return
        self.micro_round_size.observe(size)
        if self.tracer is not None and len(self._pre_round) < 1024:
            self._pre_round.append(("flush", self.tracer.clock()))


class ServerObs:
    """Socket-server extras beyond the migrated ``ServerMetrics``."""

    def __init__(self, registry: MetricsRegistry,
                 labels: Optional[Dict[str, object]] = None):
        self.registry = registry
        self.labels = {name: str(value)
                       for name, value in (labels or {}).items()}
        self.handshake_latency = registry.histogram(
            "repro_net_handshake_latency_seconds",
            "Wire hello/welcome handshake latency",
            tuple(sorted(self.labels)))

    def on_handshake(self, elapsed: float) -> None:
        if not self.registry._enabled:
            return
        self.handshake_latency.observe(elapsed, **self.labels)


class BackendObs:
    """Checkpoint timing/size for a sharded storage backend."""

    def __init__(self, registry: MetricsRegistry,
                 labels: Optional[Dict[str, object]] = None):
        self.registry = registry
        self.labels = {name: str(value)
                       for name, value in (labels or {}).items()}
        labelnames = tuple(sorted(self.labels))
        self.checkpoint_seconds = registry.histogram(
            "repro_storage_checkpoint_seconds",
            "Checkpoint sweep duration", labelnames)
        self.checkpoint_bytes = registry.histogram(
            "repro_storage_checkpoint_bytes",
            "Bytes written per checkpoint sweep", labelnames,
            buckets=CHECKPOINT_BYTE_BUCKETS)
        self._stat_counters = {
            name: registry.counter(
                f"repro_storage_{name}_total", help_text, labelnames)
            for name, help_text in (
                ("faults", "Record page faults into the resident set"),
                ("evictions", "Resident-set evictions"),
                ("wal_records", "Write-ahead-log records appended"),
                ("checkpoints", "Checkpoint sweeps completed"),
            )
        }
        self.resident = registry.gauge(
            "repro_storage_resident_records",
            "Records currently resident in memory", labelnames)

    def on_checkpoint(self, written: int, elapsed: float) -> None:
        if not self.registry._enabled:
            return
        self.checkpoint_bytes.observe(written, **self.labels)
        self.checkpoint_seconds.observe(elapsed, **self.labels)

    def make_collector(self, backend: object) -> Callable[[], None]:
        def collect() -> None:
            stats = getattr(backend, "stats", None)
            if stats is None:
                return
            for name, counter in self._stat_counters.items():
                if name in stats:
                    counter._set_total(int(stats[name]), **self.labels)
            resident = getattr(backend, "resident_count", None)
            if resident is not None:
                self.resident.set(int(resident() if callable(resident)
                                      else resident), **self.labels)
        return collect


class GroupObs:
    """Replica-group observer: HA control-plane events + shared plane."""

    def __init__(self, registry: MetricsRegistry,
                 tracer: Optional[RoundTracer] = None):
        self.registry = registry
        self.tracer = tracer
        self.service_obs = ServiceObs(registry, tracer)
        self.promotions = registry.counter(
            "repro_ha_promotions_total", "Standby promotions to primary")
        self.lease_transitions = registry.counter(
            "repro_ha_lease_transitions_total",
            "Lease grants and renewals by holder transition", ("event",))
        self.fenced = registry.counter(
            "repro_ha_fenced_refusals_total",
            "Mutating verbs refused by the lease fence", ("kind",))
        self.wal_replay = registry.histogram(
            "repro_ha_wal_replay_seconds",
            "Durable-state attach (WAL replay) time during promotion")
        self.incarnations = registry.gauge(
            "repro_ha_replica_incarnations",
            "Server starts per replica (the trace incarnation)",
            ("replica",))

    def on_lease(self, event: str) -> None:
        if not self.registry._enabled:
            return
        self.lease_transitions.inc(event=event)

    def on_promotion(self) -> None:
        if not self.registry._enabled:
            return
        self.promotions.inc()

    def on_fenced(self, kind: str) -> None:
        if not self.registry._enabled:
            return
        self.fenced.inc(kind=kind)

    def on_wal_replay(self, elapsed: float) -> None:
        if not self.registry._enabled:
            return
        self.wal_replay.observe(elapsed)

    def rebind(self, group: object) -> None:
        """(Re)attach every replica — called after start/promotion too,
        so services, servers and transports recreated by failover stay
        instrumented."""
        for replica in group.replicas:
            service = getattr(replica, "service", None)
            if service is not None:
                self.service_obs.bind(service)
            server = getattr(replica, "server", None)
            if server is not None and getattr(server, "_obs", None) is None:
                instrument_server(server, self.registry,
                                  labels={"replica": replica.index})
            chaos = getattr(replica, "chaos", None)
            if chaos is not None \
                    and chaos.metrics._registry is not self.registry:
                instrument_chaos(chaos, self.registry,
                                 labels={"replica": replica.index})
            self.incarnations.set(int(getattr(replica, "starts", 0)),
                                  replica=replica.index)
            self.service_obs.set_incarnation(
                replica.index, int(getattr(replica, "starts", 0)))


# -- entry points ---------------------------------------------------------


def instrument_service(service: object,
                       registry: Optional[MetricsRegistry] = None, *,
                       tracer: Optional[RoundTracer] = None) -> ServiceObs:
    """Attach a (new or shared) registry to an ``AuthService``."""
    if registry is None:
        registry = MetricsRegistry(
            clock=getattr(service, "clock", None) or time.monotonic)
    return ServiceObs(registry, tracer).bind(service)


def instrument_verifier(verifier: object,
                        registry: Optional[MetricsRegistry] = None, *,
                        tracer: Optional[RoundTracer] = None) -> ServiceObs:
    """Attach to a bare ``BatchVerifier`` (e.g. under a simulator)."""
    if registry is None:
        registry = MetricsRegistry()
    return ServiceObs(registry, tracer).bind_verifier(verifier)


def instrument_server(server: object, registry: MetricsRegistry, *,
                      labels: Optional[Dict[str, object]] = None
                      ) -> ServerObs:
    """Migrate a server's counters onto ``registry`` (values carry over)."""
    old = server.metrics
    metrics = type(old)(registry, labels=labels)
    for name in type(old)._FIELDS:
        setattr(metrics, name, getattr(old, name))
    server.metrics = metrics
    server._obs = ServerObs(registry, labels)
    return server._obs


def instrument_chaos(transport: object, registry: MetricsRegistry, *,
                     labels: Optional[Dict[str, object]] = None) -> object:
    """Migrate a ``ChaosTransport``'s counters onto ``registry``."""
    old = transport.metrics
    metrics = type(old)(registry, labels=labels)
    for name in type(old)._FIELDS:
        setattr(metrics, name, getattr(old, name))
    transport.metrics = metrics
    return metrics


def instrument_backend(backend: object, registry: MetricsRegistry, *,
                       labels: Optional[Dict[str, object]] = None
                       ) -> BackendObs:
    """Attach checkpoint/eviction metrics to a storage backend."""
    obs = BackendObs(registry, labels)
    backend._obs = obs
    registry.register_collector(obs.make_collector(backend))
    return obs


def instrument_replica_group(group: object,
                             registry: Optional[MetricsRegistry] = None, *,
                             tracer: Optional[RoundTracer] = None
                             ) -> GroupObs:
    """One shared registry across a whole ``ReplicaGroup``.

    Every replica's service, server and chaos transport write to the
    same registry (per-replica series carry a ``replica`` label), so
    the ``metrics`` verb on *any* endpoint — primary or standby —
    serves the fleet-wide totals.  Replicas restarted or promoted
    later are re-bound by the group's own lifecycle hooks.
    """
    if registry is None:
        registry = MetricsRegistry()
    obs = GroupObs(registry, tracer)
    group._obs = obs
    obs.rebind(group)
    return obs
