"""repro.obs — fleet-wide observability: metrics, traces, export.

A production verifier plane needs eyes: this package adds a
hot-path-cheap :class:`MetricsRegistry` (counters, gauges, fixed
log-bucket histograms; one branch when disabled), per-round trace
spans in a bounded ring (:class:`RoundTracer`), Prometheus/JSON
renderers, and instrumentation entry points for every layer — the
:class:`~repro.service.facade.AuthService` facade, the
:class:`~repro.fleet.verifier.BatchVerifier` and its
:class:`~repro.fleet.verifier.RoundCoalescer`, the socket server and
chaos transport, the sharded storage backend, and a whole
:class:`~repro.service.ha.ReplicaGroup`.  Replicas serve their
registry over the wire via the ``metrics`` / ``trace`` admin verbs
(wire 1.2), so ``HAAuthClient.scrape()`` works against any endpoint.

Instrumentation is an *observer*, never a participant: no hook
touches an RNG or an un-injected clock, so campaign transcripts,
nonce streams and registry state are bit-identical with metrics on or
off (pinned by tests/obs/test_noninterference.py).

Metric catalogue
----------------
Authentication plane (:func:`instrument_service` /
:func:`instrument_verifier`):

- ``repro_auth_results_total{result}`` — per-device outcomes;
  ``result`` is ``accepted`` or a
  :class:`~repro.protocols.mutual_auth.FailureKind` value.
- ``repro_auth_rounds_total`` / ``repro_auth_challenges_total`` —
  verification rounds completed / round nonces issued.
- ``repro_auth_finalized_total`` / ``repro_auth_aborted_total`` /
  ``repro_auth_recovered_total`` — two-phase commit settlements.
- ``repro_service_round_latency_seconds{phase}`` — facade round
  latency histogram (``batch`` / ``flush`` / ``wire``; every coalesced
  micro-round is timed under ``flush``, whatever triggered it).
- ``repro_service_enrolled_total`` / ``repro_service_revoked_total``.
- ``repro_service_spot_pool_remaining{device_class}`` — unburned
  spot-check CRPs (sampled at scrape; skipped above 4096 devices).

Round coalescer:

- ``repro_coalescer_queue_depth`` (gauge),
  ``repro_coalescer_micro_round_size`` (histogram),
  ``repro_coalescer_submitted_total``,
  ``repro_coalescer_micro_rounds_total``,
  ``repro_coalescer_flushes_total{reason}`` (``size``/``deadline``).

Socket plane (:func:`instrument_server` / :func:`instrument_chaos`;
the deprecated ``ServerMetrics``/``ChaosMetrics`` attribute shims
write the same series):

- ``repro_net_server_*_total`` — one per legacy ``ServerMetrics``
  field (connections, requests, flush reasons, auths, backpressure
  ``reads_paused``, ...).
- ``repro_net_handshake_latency_seconds`` — hello/welcome latency.
- ``repro_net_chaos_*_total`` — frames forwarded / dropped / delayed
  / duplicated / truncated, kills, blackholed legs.

HA control plane (:func:`instrument_replica_group`):

- ``repro_ha_promotions_total``,
  ``repro_ha_lease_transitions_total{event}``,
  ``repro_ha_fenced_refusals_total{kind}``,
  ``repro_ha_wal_replay_seconds``,
  ``repro_ha_replica_incarnations{replica}`` (gauge).

Storage plane (:func:`instrument_backend`):

- ``repro_storage_checkpoint_seconds`` /
  ``repro_storage_checkpoint_bytes`` (histograms),
  ``repro_storage_faults_total`` / ``evictions`` / ``wal_records`` /
  ``checkpoints`` (sampled), ``repro_storage_resident_records``.

Quickstart
----------
>>> from repro import AuthService, FleetConfig
>>> from repro.obs import (instrument_service, parse_prometheus,
...                        render_prometheus)
>>> service = AuthService.provision(FleetConfig(n_devices=4, seed=7))
>>> obs = instrument_service(service)
>>> service.authenticate_batch().n_accepted
4
>>> scrape = render_prometheus(obs.registry.snapshot())
>>> parse_prometheus(scrape)[("repro_auth_challenges_total", ())]
4.0

Over the wire, scrape any replica with
``await client.metrics(fmt="prometheus")`` (wire >= 1.2) or
``await ha_client.scrape()``; the Streamlit demo lives in
``examples/ops_dashboard.py``.
"""

from repro.obs.export import (
    format_value,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.instrument import (
    GroupObs,
    RegistryBackedCounters,
    ServerObs,
    ServiceObs,
    instrument_backend,
    instrument_chaos,
    instrument_replica_group,
    instrument_server,
    instrument_service,
    instrument_verifier,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import RoundTracer, TraceSpan

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "GroupObs",
    "Histogram",
    "MetricsRegistry",
    "RegistryBackedCounters",
    "RoundTracer",
    "ServerObs",
    "ServiceObs",
    "TraceSpan",
    "format_value",
    "instrument_backend",
    "instrument_chaos",
    "instrument_replica_group",
    "instrument_server",
    "instrument_service",
    "instrument_verifier",
    "parse_prometheus",
    "render_json",
    "render_prometheus",
]
