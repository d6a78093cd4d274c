"""``repro.service.ha``: a replicated verifier plane you can kill.

One :class:`~repro.service.net.server.AuthServer` is a single point of
failure: crash it mid-round and every in-flight ticket strands until a
manual restore.  This module runs **N replicas over shared durable
state** with lease-based primary election, standby promotion on crash,
and chaos-tested failover:

* :class:`ReplicaGroup` — N servers over one durable registry (the
  ``"shared"`` handoff serves every replica from the same registry
  object, the in-process model of a shared store; ``"attach"`` re-opens
  the PR 7 sharded on-disk root with write-ahead journal replay at
  promotion, the real crash path).  Each replica's verifier partitions
  the nonce-epoch space by residue class
  (``epoch * n_replicas + replica_index``) with a durable per-replica
  epoch floor bumped on every (re)start, so no replica can ever re-issue
  a nonce any other incarnation of any replica put on the wire.
* The group shares the :class:`~repro.fleet.verifier.CommitLog` every
  verifier keeps, which closes the two-phase-commit crash window: a
  confirmation delivered whose finalize never lands leaves the device
  one CRP ahead of the registry; the parked candidate lets the
  *promoted* replica prove the roll from the device's next MAC and
  complete it lazily — zero desyncs across kills.
* :class:`HAAuthClient` — multi-endpoint failover over
  :class:`~repro.service.net.client.AuthClient`: per-verb timeouts,
  :class:`~repro.service.policy.RetryPolicy` exponential backoff with
  seeded jitter, endpoint rotation on transport-kind failures.  Retried
  ``authenticate`` is idempotent by construction: a device only rolls
  on a verified confirmation, and the registry only rolls on finalize
  or a commit-log proof, so a replay of the whole exchange against the
  promoted replica continues the same CRP chain.
* :func:`run_replicated_campaign` — the campaign harness with
  ``kill_replica``/``restore_replica`` scheduling, a nonce wiretap, and
  a final desync audit, used by the chaos CI lane.

What failover guarantees: no nonce reuse (partitioned epochs), no
device/registry desync (two-phase commit + commit log), at-most-one
roll per accepted ticket.  What it does not: in-flight tickets on the
killed primary fail (clients must retry — that is what
:class:`HAAuthClient` is for), and failover latency is bounded below by
``lease_timeout_s``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fleet.registry import FleetRegistry
from repro.fleet.storage import ShardedFileBackend
from repro.fleet.verifier import BatchVerifier, CommitLog, FleetDevice
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service.config import FleetConfig, HAConfig
from repro.service.facade import AuthService
from repro.service.net.chaos import ChaosTransport, LegChaos
from repro.service.net.client import AuthClient, RemoteAuthError, RemoteTicket
from repro.service.net.server import AuthServer, NetConfig
from repro.service.policy import RetryPolicy, ServicePolicy

__all__ = [
    "HAAuthClient",
    "HACampaignReport",
    "KillEvent",
    "Lease",
    "ReplicaGroup",
    "run_replicated_campaign",
]


@dataclass
class Lease:
    """Who may serve, until when — on the group's injectable clock."""

    holder: Optional[int] = None
    expires_at: float = float("-inf")

    def held_by(self, index: int, now: float) -> bool:
        return self.holder == index and now < self.expires_at

    def expired(self, now: float) -> bool:
        return self.holder is None or now >= self.expires_at


class _WiretapVerifier(BatchVerifier):
    """A :class:`BatchVerifier` that logs every issued nonce.

    The group's wiretap is the acceptance instrument for the no-reuse
    guarantee: every nonce any replica ever puts on the wire lands in
    one shared list, asserted globally unique at campaign end.
    """

    def __init__(self, *args, wiretap: Optional[List[bytes]] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self._wiretap = wiretap

    def open_round(self, device_ids: Sequence[str]) -> Dict[str, bytes]:
        nonces = super().open_round(device_ids)
        if self._wiretap is not None:
            self._wiretap.extend(nonces.values())
        return nonces


class _Replica:
    """One replica slot: service + server + its stable chaos endpoint."""

    def __init__(self, index: int, service: AuthService):
        self.index = index
        self.service = service
        self.server: Optional[AuthServer] = None
        self.chaos: Optional[ChaosTransport] = None
        self.alive = False
        self.starts = 0


class ReplicaGroup:
    """N :class:`AuthServer` replicas over shared verifier-plane state.

    >>> config = FleetConfig(n_devices=8, ha=HAConfig(n_replicas=3))
    >>> group = await ReplicaGroup.provision(config)
    >>> await group.kill_replica(group.primary)     # chaos strikes
    >>> await group.wait_for_primary()              # a standby promoted

    Every replica fronts through its own :class:`ChaosTransport` proxy
    (fault-free unless leg configs are given), which keeps each
    replica's *endpoint* stable across kill/restore cycles — exactly
    like a load-balancer address — and gives the campaign harness its
    connection-severing kill hook for free.
    """

    def __init__(self, service: AuthService, *,
                 net_config: Optional[NetConfig] = None,
                 uplink: Optional[LegChaos] = None,
                 downlink: Optional[LegChaos] = None,
                 chaos_seed: int = 0):
        self.service = service
        self.config: FleetConfig = service.config
        self.ha: HAConfig = service.config.ha or HAConfig()
        self.net_config = net_config or NetConfig()
        self.uplink = uplink or LegChaos()
        self.downlink = downlink or LegChaos()
        self.chaos_seed = int(chaos_seed)
        self._clock: Callable[[], float] = service.clock
        self.lease = Lease()
        self.commit_log = CommitLog()
        self.issued_nonces: List[bytes] = []
        self.events: List[dict] = []
        self.promotions = 0
        self._obs = None                 # set by instrument_replica_group
        # Durable per-replica epoch floors: bumped at every verifier
        # incarnation (start, restore, attach-promotion), never reused.
        self._epochs = [0] * self.ha.n_replicas
        self._registries: List[FleetRegistry] = [service.registry]
        self._steward_task: Optional[asyncio.Task] = None
        self._closing = False
        self.replicas: List[_Replica] = []
        for index in range(self.ha.n_replicas):
            if index == 0:
                # Replica 0 reuses the provisioned service (it owns the
                # execution plane and the device roster) with its
                # verifier swapped for the partitioned one.
                service._install(service.registry,
                                 self._make_verifier(0, service.registry))
                self.replicas.append(_Replica(0, service))
            else:
                standby = AuthService(
                    service.registry, [],
                    self._make_verifier(index, service.registry),
                    config=service.config, policies=service.policies,
                    clock=service.clock)
                self.replicas.append(_Replica(index, standby))

    @classmethod
    async def provision(cls, config: FleetConfig, *,
                        policies: Sequence[ServicePolicy] = (),
                        clock: Callable[[], float] = time.monotonic,
                        net_config: Optional[NetConfig] = None,
                        uplink: Optional[LegChaos] = None,
                        downlink: Optional[LegChaos] = None,
                        chaos_seed: int = 0) -> "ReplicaGroup":
        """Provision a fleet and start the whole replica group."""
        service = AuthService.provision(config, policies=policies,
                                        clock=clock)
        group = cls(service, net_config=net_config, uplink=uplink,
                    downlink=downlink, chaos_seed=chaos_seed)
        await group.start()
        return group

    # -- verifier plumbing -------------------------------------------------

    def _make_verifier(self, index: int,
                       registry: FleetRegistry) -> BatchVerifier:
        epoch = self._epochs[index]
        self._epochs[index] += 1
        return _WiretapVerifier(
            registry, seed=self.config.seed,
            clock_tolerance=self.config.clock_tolerance,
            nonce_epoch=epoch, replica_index=index,
            n_replicas=self.ha.n_replicas, commit_log=self.commit_log,
            wiretap=self.issued_nonces)

    def assert_nonces_unique(self) -> int:
        """Raise unless every wiretapped nonce is globally distinct."""
        if len(self.issued_nonces) != len(set(self.issued_nonces)):
            raise AssertionError(
                f"nonce reuse across replicas: "
                f"{len(self.issued_nonces) - len(set(self.issued_nonces))} "
                "duplicates")
        return len(self.issued_nonces)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ReplicaGroup":
        now = self._clock()
        for replica in self.replicas:
            await self._start_server(replica)
            replica.chaos = ChaosTransport(
                replica.server.host, replica.server.port,
                uplink=self.uplink, downlink=self.downlink,
                seed=self.chaos_seed + replica.index)
            await replica.chaos.start()
        self._grant_lease(0, now)
        self._steward_task = asyncio.get_running_loop().create_task(
            self._steward_loop())
        return self

    async def _start_server(self, replica: _Replica) -> None:
        replica.server = AuthServer(
            replica.service, self.net_config,
            fence=lambda index=replica.index: self._fence(index))
        await replica.server.start()
        replica.alive = True
        replica.starts += 1
        self._bind_incarnation(replica)
        if replica.chaos is not None:
            # The stable proxy endpoint re-targets the fresh port.
            replica.chaos.target_host = replica.server.host
            replica.chaos.target_port = replica.server.port
        if self._obs is not None:
            self._obs.rebind(self)

    def _bind_incarnation(self, replica: _Replica) -> None:
        """Stamp this replica's boot identity onto every policy that
        joins audit lines with traces (runs instrumented or not)."""
        for policy in replica.service.policies:
            bind = getattr(policy, "bind_incarnation", None)
            if bind is not None:
                bind(replica.starts, replica=replica.index)

    async def aclose(self) -> None:
        if self._closing:
            return
        self._closing = True
        if self._steward_task is not None:
            self._steward_task.cancel()
            try:
                await self._steward_task
            except (asyncio.CancelledError, Exception):
                pass
        for replica in self.replicas:
            if replica.chaos is not None:
                await replica.chaos.aclose()
            if replica.server is not None and replica.alive:
                await replica.server.kill()
        # Close every registry this group ever opened, exactly once.
        seen = set()
        for registry in self._registries:
            if id(registry) in seen:
                continue
            seen.add(id(registry))
            registry.close()

    async def __aenter__(self) -> "ReplicaGroup":
        if self._steward_task is None:
            await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- membership / addressing ------------------------------------------

    @property
    def devices(self) -> List[FleetDevice]:
        return self.service.device_list

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """Stable per-replica addresses (the chaos proxy fronts)."""
        return [(replica.chaos.host, replica.chaos.port)
                for replica in self.replicas]

    @property
    def primary(self) -> Optional[int]:
        now = self._clock()
        if (self.lease.holder is not None
                and self.replicas[self.lease.holder].alive
                and not self.lease.expired(now)):
            return self.lease.holder
        return None

    @property
    def registry(self) -> FleetRegistry:
        """The authoritative registry (the current primary's, else the
        most recently opened one)."""
        holder = self.lease.holder
        if holder is not None:
            return self.replicas[holder].service.registry
        return self._registries[-1]

    # -- the lease steward -------------------------------------------------

    def _fence(self, index: int) -> Optional[AuthenticationFailure]:
        now = self._clock()
        if self.lease.held_by(index, now):
            return None
        if self.lease.holder == index:
            refusal = AuthenticationFailure(
                f"replica {index} lost its lease", FailureKind.LEASE_EXPIRED)
        else:
            refusal = AuthenticationFailure(
                f"replica {index} is not the primary",
                FailureKind.REPLICA_UNAVAILABLE)
        if self._obs is not None:
            self._obs.on_fenced(refusal.kind.value)
        return refusal

    def lease_tick(self, now: Optional[float] = None) -> None:
        """One steward evaluation: heartbeat or promote.  Exposed so
        tests can drive election on a fake clock without real sleeps."""
        if now is None:
            now = self._clock()
        holder = self.lease.holder
        if holder is not None and self.replicas[holder].alive:
            # A live primary heartbeats; a dead one silently lets the
            # lease run out — that silence *is* the failure detector.
            self.lease.expires_at = now + self.ha.lease_timeout_s
            return
        if self.lease.expired(now):
            candidate = next((replica.index for replica in self.replicas
                              if replica.alive), None)
            if candidate is not None:
                self._promote(candidate, now)

    async def _steward_loop(self) -> None:
        interval = self.ha.heartbeat_interval_s / 2.0
        while True:
            self.lease_tick()
            await asyncio.sleep(interval)

    def _grant_lease(self, index: int, now: float) -> None:
        if self._obs is not None:
            self._obs.on_lease(
                "grant" if self.lease.holder != index else "regrant")
        self.lease.holder = index
        self.lease.expires_at = now + self.ha.lease_timeout_s
        self.events.append({"event": "lease", "replica": index,
                            "at": now})

    def _promote(self, index: int, now: float) -> None:
        replica = self.replicas[index]
        if self.ha.handoff == "attach":
            # The real crash path: re-open the sharded on-disk root.
            # The constructor (not .attach) resumes *with* write-ahead
            # journal replay, so every roll the dead primary finalized
            # after its last checkpoint survives the handoff.
            attach_started = self._clock()
            backend = ShardedFileBackend(
                self.config.storage_root,
                resident_records=int(self.config.resident_records or 65536))
            registry = FleetRegistry(backend)
            if self._obs is not None:
                self._obs.on_wal_replay(self._clock() - attach_started)
            self._registries.append(registry)
            replica.service._install(registry,
                                     self._make_verifier(index, registry))
        self.promotions += 1
        self.events.append({"event": "promote", "replica": index,
                            "at": now})
        self._bind_incarnation(replica)
        if self._obs is not None:
            self._obs.on_promotion()
            self._obs.rebind(self)
        self._grant_lease(index, now)

    async def wait_for_primary(self, timeout: float = 5.0) -> int:
        """Block until some replica holds an unexpired lease."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            primary = self.primary
            if primary is not None:
                return primary
            if asyncio.get_running_loop().time() >= deadline:
                raise asyncio.TimeoutError(
                    "no replica promoted within the timeout")
            await asyncio.sleep(self.ha.heartbeat_interval_s / 2.0)

    # -- chaos hooks -------------------------------------------------------

    async def kill_replica(self, index: int) -> None:
        """Crash one replica abruptly: no drain, connections severed.

        The lease is *not* touched — the steward notices the silence
        when the lease runs out, exactly like a real failure detector.
        """
        replica = self.replicas[index]
        if not replica.alive:
            return
        replica.alive = False
        self.events.append({"event": "kill", "replica": index,
                            "at": self._clock()})
        await replica.server.kill()
        replica.server = None
        if replica.chaos is not None:
            replica.chaos.kill_connections()

    async def restore_replica(self, index: int) -> None:
        """Bring a killed replica back as a standby, on a fresh epoch.

        Transient verifier state (pendings, replay tags) died with the
        process — by design; the commit log and registry are the shared
        durable state it rejoins.  The bumped epoch floor keeps every
        post-restore nonce outside anything the dead incarnation issued.
        """
        replica = self.replicas[index]
        if replica.alive:
            return
        registry = self.registry
        replica.service._install(registry,
                                 self._make_verifier(index, registry))
        await self._start_server(replica)
        self.events.append({"event": "restore", "replica": index,
                            "at": self._clock()})

    def calm(self) -> None:
        """Turn all chaos off (the reconciliation round runs clean)."""
        for replica in self.replicas:
            if replica.chaos is not None:
                replica.chaos.uplink = LegChaos()
                replica.chaos.downlink = LegChaos()
                replica.chaos.kill_connections()

    # -- audits ------------------------------------------------------------

    def desynchronized(self) -> List[str]:
        """Devices whose CRP disagrees with the authoritative registry."""
        import numpy as np
        registry = self.registry
        drifted = []
        for device in self.devices:
            record = registry.record(device.device_id)
            if not np.array_equal(record.current_response,
                                  device.current_response):
                drifted.append(device.device_id)
        return drifted


#: Transport-level kinds that make the client rotate to the next
#: endpoint (and redial) before retrying.
_ROTATE_KINDS = frozenset({
    FailureKind.CONNECTION_LOST.value,
    FailureKind.TIMEOUT.value,
    FailureKind.REPLICA_UNAVAILABLE.value,
    FailureKind.LEASE_EXPIRED.value,
    FailureKind.RATE_LIMITED.value,       # a draining server says "elsewhere"
})


class HAAuthClient:
    """Multi-endpoint failover client over :class:`AuthClient`.

    Dials endpoints in rotation: a verb that fails with a transport
    kind (connection lost, timeout, replica unavailable, lease expired)
    drops the connection, rotates to the next endpoint, and retries
    under the configured :class:`RetryPolicy`'s backoff-with-jitter
    schedule.  Protocol-level failures (bad MAC, not enrolled, ...)
    surface immediately — failing over cannot change them.

    Safe-resumption guarantees (why retries are idempotent):

    * a retried ``authenticate`` whose earlier attempt died before the
      CONFIRMATION landed finds both sides still on the old CRP (the
      server's connection-death abort is *ambiguous* and rolls nothing);
    * one whose earlier attempt died *after* the device confirmed is
      already settled accepted locally, so no retry happens — and the
      registry side completes from the shared commit log;
    * a retried ``enroll`` that raced a connection loss may find the
      first attempt landed; the duplicate-device refusal on a retried
      attempt is reported as success (the enrollment exists).
    """

    def __init__(self, endpoints: Sequence[Tuple[str, int]], *,
                 retry_policy: Optional[RetryPolicy] = None,
                 peer: str = "repro-ha-client",
                 handshake_timeout_s: float = 2.0,
                 verb_timeout_s: float = 10.0):
        if not endpoints:
            raise ValueError("HAAuthClient needs at least one endpoint")
        self.endpoints = [(host, int(port)) for host, port in endpoints]
        self.retry_policy = retry_policy or RetryPolicy.network()
        self.peer = peer
        self.handshake_timeout_s = float(handshake_timeout_s)
        self.verb_timeout_s = float(verb_timeout_s)
        self.attempts = 0
        self.failovers = 0
        self._active = 0
        self._client: Optional[AuthClient] = None
        self._dial_lock = asyncio.Lock()

    # -- connection management --------------------------------------------

    async def _connection(self) -> AuthClient:
        async with self._dial_lock:
            if self._client is not None and not self._client._closed:
                return self._client
            host, port = self.endpoints[self._active]
            self._client = await AuthClient.connect(
                host, port, peer=self.peer,
                handshake_timeout_s=self.handshake_timeout_s,
                response_timeout_s=self.verb_timeout_s)
            return self._client

    async def _rotate(self, failed: Optional[AuthClient]) -> None:
        """Advance to the next endpoint — once, even under concurrency."""
        async with self._dial_lock:
            if failed is not None and failed is not self._client:
                return                     # somebody already rotated
            if self._client is not None:
                await self._client.aclose()
                self._client = None
            self._active = (self._active + 1) % len(self.endpoints)
            self.failovers += 1

    async def aclose(self) -> None:
        async with self._dial_lock:
            if self._client is not None:
                await self._client.aclose()
                self._client = None

    async def __aenter__(self) -> "HAAuthClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- verbs -------------------------------------------------------------

    async def authenticate(self, device: FleetDevice,
                           flush: bool = False) -> RemoteTicket:
        policy = self.retry_policy
        attempt = 0
        while True:
            attempt += 1
            self.attempts += 1
            client: Optional[AuthClient] = None
            try:
                client = await self._connection()
                ticket = await client.authenticate(device, flush=flush)
            except AuthenticationFailure as failure:
                kind = getattr(failure.kind, "value", None)
                await self._rotate(client)
                if not policy.should_retry(kind, attempt):
                    raise
                await asyncio.sleep(policy.delay(attempt))
                continue
            if ticket.accepted:
                return ticket
            if not policy.should_retry(ticket.failure_kind, attempt):
                return ticket
            if ticket.failure_kind in _ROTATE_KINDS:
                await self._rotate(client)
            await asyncio.sleep(policy.delay(attempt))

    async def enroll(self, device: FleetDevice) -> None:
        await self._call(lambda client: client.enroll(device),
                         ambiguous_ok=frozenset(
                             {FailureKind.DUPLICATE_DEVICE.value}))

    async def revoke(self, device_id: str) -> None:
        await self._call(lambda client: client.revoke(device_id),
                         ambiguous_ok=frozenset(
                             {FailureKind.NOT_ENROLLED.value}))

    async def flush(self) -> None:
        await self._call(lambda client: client.flush())

    async def poll(self) -> bool:
        return await self._call(lambda client: client.poll())

    async def spot_check(self, device: FleetDevice, k: int = 8,
                         threshold: float = 0.25) -> Tuple[float, bool]:
        return await self._call(
            lambda client: client.spot_check(device, k, threshold))

    async def scrape(self, fmt: str = "prometheus",
                     index: Optional[int] = None) -> str:
        """Scrape metrics from a replica (wire 1.2 ``metrics`` verb).

        With ``index=None`` the active connection is used (failing over
        like any other verb); naming an index dials that endpoint
        one-shot — the verb is unfenced, so standbys answer too, and
        under :func:`repro.obs.instrument_replica_group` every replica
        serves the same fleet-wide registry.
        """
        if index is None:
            return await self._call(lambda client: client.metrics(fmt))
        host, port = self.endpoints[index]
        async with AuthClient.connect(
                host, port, peer=self.peer,
                handshake_timeout_s=self.handshake_timeout_s,
                response_timeout_s=self.verb_timeout_s) as client:
            return await client.metrics(fmt)

    async def trace(self, index: Optional[int] = None) -> list:
        """Fetch recent round spans from a replica (wire 1.2)."""
        if index is None:
            return await self._call(lambda client: client.trace())
        host, port = self.endpoints[index]
        async with AuthClient.connect(
                host, port, peer=self.peer,
                handshake_timeout_s=self.handshake_timeout_s,
                response_timeout_s=self.verb_timeout_s) as client:
            return await client.trace()

    async def _call(self, op, ambiguous_ok: frozenset = frozenset()):
        """Run one idempotent-or-ambiguity-tolerant verb with failover.

        ``ambiguous_ok`` names kinds treated as success *after* a
        transport-level retry: once a connection died mid-verb the first
        attempt may have landed, so e.g. ``duplicate-device`` on a
        retried enroll means "already done", not "error".
        """
        policy = self.retry_policy
        attempt = 0
        ambiguous = False
        while True:
            attempt += 1
            self.attempts += 1
            client: Optional[AuthClient] = None
            try:
                client = await self._connection()
                return await op(client)
            except asyncio.TimeoutError:
                failure = RemoteAuthError("verb timed out",
                                          FailureKind.TIMEOUT)
                kind = failure.kind.value
            except AuthenticationFailure as exc:
                failure = exc
                kind = getattr(exc.kind, "value", None)
            if ambiguous and kind in ambiguous_ok:
                return None
            if kind in _ROTATE_KINDS:
                ambiguous = True
                await self._rotate(client)
            if not policy.should_retry(kind, attempt):
                raise failure
            await asyncio.sleep(policy.delay(attempt))


@dataclass
class KillEvent:
    """Kill ``replica_index`` once ``after_settled`` tickets of round
    ``round_index`` settled — a *mid-round* crash by construction."""

    round_index: int
    after_settled: int
    replica_index: int
    restore_after_round: bool = True


@dataclass
class HACampaignReport:
    """Outcome of one :func:`run_replicated_campaign`."""

    n_rounds: int = 0
    n_devices: int = 0
    accepted: int = 0
    attempts: int = 0
    failovers: int = 0
    kills: List[Tuple[int, int]] = field(default_factory=list)
    promotions: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    desynchronized: List[str] = field(default_factory=list)
    nonces_issued: int = 0
    nonces_unique: bool = True
    commit_log_unresolved: int = 0

    def to_json(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "n_devices": self.n_devices,
            "accepted": self.accepted,
            "attempts": self.attempts,
            "failovers": self.failovers,
            "kills": [list(kill) for kill in self.kills],
            "promotions": self.promotions,
            "failures": dict(self.failures),
            "desynchronized": list(self.desynchronized),
            "nonces_issued": self.nonces_issued,
            "nonces_unique": self.nonces_unique,
            "commit_log_unresolved": self.commit_log_unresolved,
        }


async def run_replicated_campaign(
        group: ReplicaGroup, *, n_rounds: int = 3,
        kill_schedule: Sequence[KillEvent] = (),
        retry_policy_factory: Optional[Callable[[int], RetryPolicy]] = None,
        verb_timeout_s: float = 5.0,
        reconcile: bool = True) -> HACampaignReport:
    """Drive every device through ``n_rounds`` of authentication while
    the schedule crashes replicas mid-round.

    Each device runs its own :class:`HAAuthClient` (devices are
    independent network clients), all submitting concurrently so the
    primary coalesces them into micro-rounds.  Killed replicas are
    restored as standbys after their round (``restore_after_round``),
    rebuilding the standby pool for later kills.  With ``reconcile``
    the campaign ends with one fault-free round — every ambiguous
    commit gets the fresh device message that lets the commit-log
    recovery settle it, so the final audit is exact, not racy.
    """
    devices = group.devices
    report = HACampaignReport(n_rounds=n_rounds, n_devices=len(devices))
    clients = []
    for position, device in enumerate(devices):
        policy = (retry_policy_factory(position) if retry_policy_factory
                  else RetryPolicy.network(max_retries=14, seed=position))
        clients.append(HAAuthClient(group.endpoints, retry_policy=policy,
                                    verb_timeout_s=verb_timeout_s))
    state = {"settled": 0}
    pending_kills = list(kill_schedule)

    async def _one(round_index: int, client: HAAuthClient,
                   device: FleetDevice) -> None:
        try:
            ticket = await client.authenticate(device)
        except AuthenticationFailure as failure:
            report.failures[device.device_id] = (
                f"round {round_index}: {failure}")
        else:
            if ticket.accepted:
                report.accepted += 1
            else:
                report.failures[device.device_id] = (
                    f"round {round_index}: {ticket.failure} "
                    f"[{ticket.failure_kind}]")
        state["settled"] += 1
        for event in list(pending_kills):
            if (event.round_index == round_index
                    and state["settled"] >= event.after_settled):
                pending_kills.remove(event)
                report.kills.append((round_index, event.replica_index))
                await group.kill_replica(event.replica_index)

    try:
        for round_index in range(n_rounds):
            state["settled"] = 0
            await asyncio.gather(*[
                _one(round_index, client, device)
                for client, device in zip(clients, devices)])
            for event in list(kill_schedule):
                if (event.round_index == round_index
                        and event.restore_after_round):
                    await group.restore_replica(event.replica_index)
        if reconcile:
            group.calm()
            state["settled"] = 0
            report.n_rounds += 1
            await asyncio.gather(*[
                _one(n_rounds, client, device)
                for client, device in zip(clients, devices)])
    finally:
        for client in clients:
            await client.aclose()
    report.attempts = sum(client.attempts for client in clients)
    report.failovers = sum(client.failovers for client in clients)
    report.promotions = group.promotions
    report.desynchronized = group.desynchronized()
    report.nonces_issued = len(group.issued_nonces)
    report.nonces_unique = (len(group.issued_nonces)
                            == len(set(group.issued_nonces)))
    report.commit_log_unresolved = len(group.commit_log)
    return report
