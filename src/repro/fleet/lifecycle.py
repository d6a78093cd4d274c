"""Fleet lifecycle simulation: fault injection, adversaries, persistence.

:class:`FleetSimulator` drives multi-round authentication campaigns over
a configurable fault model and reports campaign-level statistics.  It is
the torture harness for the two-phase CRP commit of
:class:`~repro.fleet.verifier.BatchVerifier`: every failure ordering the
rolling-CRP scheme must tolerate — lost requests/responses/confirmations,
replayed and corrupted messages, tampered integrity evidence, device
churn, and verifier restarts — is exercised here, and the invariant under
test is always the same: *no device ever desynchronizes from the
registry's rolling CRP*.

Building blocks
---------------
* :class:`FaultModel` — per-message drop probabilities (request /
  response / confirmation), the device retry budget, and
  enrollment/revocation churn rates;
* :class:`Adversary` and its stock subclasses
  (:class:`ReplayAdversary`, :class:`TamperAdversary`,
  :class:`CorruptionAdversary`) — pluggable attackers that tamper with a
  device's integrity measurement or mutate/inject round traffic;
* :class:`CampaignStats` — the aggregate of every per-round
  :class:`~repro.fleet.verifier.BatchAuthReport`, keyed by the shared
  :class:`~repro.protocols.mutual_auth.FailureKind` taxonomy;
* :meth:`FleetSimulator.snapshot` / :meth:`FleetSimulator.restore` — a
  verifier crash/restart: registry and nonce counter come back from the
  persisted state, in-flight sessions are lost, and devices recover by
  plain retry.

The simulator owns no verifier state: it drives one
:class:`repro.service.AuthService` (``FleetSimulator(service, ...)`` or
``service.simulator(...)``), and every round, churn event and restore
goes through that service's registry, verifier and roster.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.fleet.registry import FleetRegistry
from repro.fleet.rounds import respond_round
from repro.fleet.verifier import (
    AuthResponse,
    BatchAuthReport,
    BatchVerifier,
    FleetDevice,
)
from repro.protocols.mutual_auth import AuthenticationFailure
from repro.puf.photonic_strong import PhotonicStrongPUF
from repro.utils.rng import derive_rng
from repro.utils.serialization import load_state


@dataclass
class FaultModel:
    """Per-round fault probabilities and the device retry policy.

    Drop probabilities apply independently per message per attempt:
    ``request_drop`` loses the verifier's nonce on the way out (the
    device never responds), ``response_drop`` loses the device's
    ``m || mac`` message, and ``confirmation_drop`` loses the verifier's
    ``mac'`` — the ordering the two-phase commit exists for, since the
    verifier has already checked the response when the confirmation
    vanishes.  ``max_retries`` bounds how many extra attempts a device
    gets within one round; ``enroll_prob`` / ``revoke_prob`` are the
    per-round probabilities of fleet churn.
    """

    request_drop: float = 0.0
    response_drop: float = 0.0
    confirmation_drop: float = 0.0
    max_retries: int = 3
    enroll_prob: float = 0.0
    revoke_prob: float = 0.0
    min_fleet_size: int = 1

    def __post_init__(self) -> None:
        for name in ("request_drop", "response_drop", "confirmation_drop",
                     "enroll_prob", "revoke_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.min_fleet_size < 1:
            # Churn must never revoke the fleet to empty, or campaigns
            # would pass their zero-desync gate vacuously.
            raise ValueError("min_fleet_size must be at least 1")


class Adversary:
    """Base adversary: hooks into each round attempt at two points.

    :meth:`tamper_factor` may override a device's integrity-measurement
    timing before it responds (Fig. 4's CC evidence); :meth:`mutate` sees
    the round's in-flight messages plus a wiretap of earlier rounds'
    traffic and may corrupt entries or inject extras.
    """

    name = "adversary"

    def tamper_factor(self, device_id: str, round_index: int,
                      rng: np.random.Generator) -> Optional[float]:
        return None

    def mutate(self, messages: List[AuthResponse],
               captured: Sequence[AuthResponse],
               rng: np.random.Generator) -> List[AuthResponse]:
        return messages


class TamperAdversary(Adversary):
    """Compromises a device's integrity routine with some probability.

    The slowdown shows up as an out-of-band clock count, which the
    verifier rejects as ``clock-anomaly``.
    """

    name = "tamper"

    def __init__(self, probability: float = 0.1, factor: float = 1.5):
        self.probability = probability
        self.factor = factor

    def tamper_factor(self, device_id: str, round_index: int,
                      rng: np.random.Generator) -> Optional[float]:
        if rng.random() < self.probability:
            return self.factor
        return None


class ReplayAdversary(Adversary):
    """Injects a stale captured message into the round with some probability.

    Stale messages fail the MAC check once the victim's CRP has rolled
    (old key) or the replay-tag/session checks otherwise; when the stale
    message lands *before* the victim's fresh one it additionally trips
    the duplicate-device rejection, forcing the honest device into a
    retry — a denial attempt the retry budget must absorb.
    """

    name = "replay"

    def __init__(self, probability: float = 0.3):
        self.probability = probability

    def mutate(self, messages: List[AuthResponse],
               captured: Sequence[AuthResponse],
               rng: np.random.Generator) -> List[AuthResponse]:
        if not captured or rng.random() >= self.probability:
            return messages
        stale = captured[int(rng.integers(len(captured)))]
        position = int(rng.integers(len(messages) + 1))
        mutated = list(messages)
        mutated.insert(position, stale)
        return mutated


class CorruptionAdversary(Adversary):
    """Corrupts in-flight messages: bit flips and truncations.

    Flipped bodies/tags fail the MAC check; truncations exercise the
    malformed-message path.  Either way the round must fail only the
    victim device.
    """

    name = "corruption"

    def __init__(self, probability: float = 0.1):
        self.probability = probability

    def mutate(self, messages: List[AuthResponse],
               captured: Sequence[AuthResponse],
               rng: np.random.Generator) -> List[AuthResponse]:
        mutated = []
        for message in messages:
            if rng.random() < self.probability:
                mutated.append(self._corrupt(message, rng))
            else:
                mutated.append(message)
        return mutated

    @staticmethod
    def _corrupt(message: AuthResponse,
                 rng: np.random.Generator) -> AuthResponse:
        body, tag = message.body, message.tag
        mode = int(rng.integers(3))
        if mode == 0 and body:
            index = int(rng.integers(len(body)))
            body = body[:index] + bytes([body[index] ^ 0x01]) + body[index + 1:]
        elif mode == 1 and len(body) > 4:
            body = body[: int(rng.integers(1, len(body)))]
        elif tag:
            index = int(rng.integers(len(tag)))
            tag = tag[:index] + bytes([tag[index] ^ 0x01]) + tag[index + 1:]
        return AuthResponse(message.device_id, body, tag)


@dataclass
class CampaignStats:
    """Aggregate outcome of a :meth:`FleetSimulator.run_campaign`."""

    rounds: int = 0
    attempts: int = 0
    authenticated: int = 0
    retries: int = 0
    dropped_requests: int = 0
    dropped_responses: int = 0
    dropped_confirmations: int = 0
    adversary_messages: int = 0
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    enrolled: int = 0
    revoked: int = 0
    snapshots: int = 0
    restores: int = 0
    desynchronized: int = 0
    elapsed_s: float = 0.0

    @property
    def auths_per_sec(self) -> float:
        return self.authenticated / self.elapsed_s if self.elapsed_s else 0.0

    def count_failure(self, kind: str) -> None:
        self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["auths_per_sec"] = round(self.auths_per_sec, 3)
        return payload

    def to_state(self) -> dict:
        """A JSON-faithful snapshot: ``from_state(to_state())`` is
        equality (``to_json`` adds the derived rate, this does not)."""
        return asdict(self)

    @classmethod
    def from_state(cls, state: dict) -> "CampaignStats":
        """Rebuild from :meth:`to_state` output (or a JSON round-trip
        of it); unknown keys — e.g. ``auths_per_sec`` from
        :meth:`to_json` — are ignored."""
        names = {f.name for f in fields(cls)}
        kwargs = {name: value for name, value in state.items()
                  if name in names}
        if "failures_by_kind" in kwargs:
            kwargs["failures_by_kind"] = {
                str(kind): int(count)
                for kind, count in kwargs["failures_by_kind"].items()}
        return cls(**kwargs)


@dataclass
class RoundOutcome:
    """What one :meth:`FleetSimulator.run_round` call achieved."""

    round_index: int
    authenticated: Set[str] = field(default_factory=set)
    unresolved: List[str] = field(default_factory=list)
    retries: int = 0
    reports: List[BatchAuthReport] = field(default_factory=list)


def photonic_device_factory(seed: int = 0, die_offset: int = 1_000_000,
                            prefix: str = "dev-churn",
                            **puf_kwargs) -> Callable[[int], FleetDevice]:
    """Device source for mid-campaign enrollments: one fresh die per call.

    ``die_offset`` keeps churn dies disjoint from the initial fleet's
    die indices under the same design seed.
    """

    def build(index: int) -> FleetDevice:
        puf = PhotonicStrongPUF(seed=seed, die_index=die_offset + index,
                                **puf_kwargs)
        device = FleetDevice(f"{prefix}-{index:06d}", puf)
        device.provision(seed)
        return device

    return build


class FleetSimulator:
    """Drives authentication campaigns over a faulty, hostile network.

    The simulator owns the end-to-end loop of one round: churn, nonce
    issue, device responses (with adversarial tampering), message
    transport (drops, corruption, injected replays), batch verification,
    confirmation delivery, and the finalize/abort decision per device —
    retrying transiently-failed devices within the round up to the fault
    model's budget.  Campaign statistics accumulate in :attr:`stats`.

    ``service`` is an :class:`repro.service.AuthService` (duck-typed, so
    this module never imports :mod:`repro.service`).  It owns the
    registry, verifier and roster; churn goes through its ``enroll`` /
    ``revoke`` and a crash through its ``snapshot`` / ``save`` /
    ``restore``.  The simulator keeps only its RNG (seeded from
    ``service.config.seed``), statistics, wiretap and sorted roster.
    """

    def __init__(
        self,
        service,
        *,
        faults: Optional[FaultModel] = None,
        adversaries: Sequence[Adversary] = (),
        device_factory: Optional[Callable[[int], FleetDevice]] = None,
        capture_window: int = 256,
    ):
        self.service = service
        self.faults = (faults if faults is not None
                       else service.config.fault_model or FaultModel())
        self.adversaries = list(adversaries)
        self.capture_window = capture_window
        self.stats = CampaignStats()
        self._rng = derive_rng(service.config.seed, "fleet-lifecycle")
        # Incrementally-maintained sorted id list: campaign rounds and
        # churn sampling need the fleet in sorted order every round, and
        # re-sorting the whole fleet per round is O(n log n) x rounds.
        # bisect keeps it O(log n) per enroll/revoke — and the order is
        # byte-identical to sorted(self.devices), so every RNG-driven
        # selection (churn victims) is unchanged.
        self._sorted_ids: List[str] = sorted(service.device_ids())
        self._captured: List[AuthResponse] = []
        self._device_factory = device_factory
        self._churn_counter = 0
        self._round_index = 0

    @property
    def registry(self) -> FleetRegistry:
        return self.service.registry

    @property
    def verifier(self) -> BatchVerifier:
        return self.service.verifier

    @property
    def devices(self) -> Dict[str, FleetDevice]:
        """The service's devices by id, in enrollment order."""
        return {device.device_id: device
                for device in self.service.device_list}

    # -- lifecycle: churn -------------------------------------------------

    def _churn(self, rng: np.random.Generator) -> None:
        faults = self.faults
        if (self._device_factory is not None
                and rng.random() < faults.enroll_prob):
            device = self._device_factory(self._churn_counter)
            self.service.enroll(device, n_spot_crps=0)
            bisect.insort(self._sorted_ids, device.device_id)
            self.stats.enrolled += 1
            self._churn_counter += 1
        ids = self._sorted_ids
        if (faults.revoke_prob > 0.0
                and len(ids) > faults.min_fleet_size
                and rng.random() < faults.revoke_prob):
            victim = int(rng.integers(len(ids)))
            self.service.revoke(ids[victim])
            del ids[victim]
            self.stats.revoked += 1

    # -- lifecycle: rounds ------------------------------------------------

    def run_round(self) -> RoundOutcome:
        """One campaign round: every enrolled device attempts one session.

        Devices that fail transiently (drops, adversarial interference)
        are retried with fresh nonces up to ``faults.max_retries`` times;
        whatever is left in ``unresolved`` simply retries next round —
        by the two-phase commit it is still synchronized.
        """
        rng = self._rng
        self._round_index += 1
        self.stats.rounds += 1
        self._churn(rng)
        outcome = RoundOutcome(round_index=self._round_index)
        todo = list(self._sorted_ids)
        for attempt in range(self.faults.max_retries + 1):
            if not todo:
                break
            if attempt:
                self.stats.retries += len(todo)
                outcome.retries += len(todo)
            authenticated = self._attempt(todo, rng, outcome)
            todo = [device_id for device_id in todo
                    if device_id not in authenticated]
        outcome.unresolved = todo
        return outcome

    # -- transport hooks --------------------------------------------------
    #
    # The four verifier touch-points of an attempt are overridable so a
    # transport-backed simulator (e.g. AuthClient → AuthServer over real
    # sockets, tests/service/test_net_equality.py) can reroute them over
    # a wire while the fault/adversary RNG draw sequence — which lives
    # entirely in _attempt — stays bit-identical to the in-process path.

    def _transport_open_round(self, ids: List[str]) -> Dict[str, bytes]:
        return self.verifier.open_round(ids)

    def _transport_verify_round(self, messages: List[AuthResponse],
                                nonces: Dict[str, bytes]):
        return self.verifier.verify_round(messages, nonces)

    def _transport_finalize(self, device_id: str) -> None:
        self.verifier.finalize(device_id)

    def _transport_abort(self, device_id: str) -> None:
        self.verifier.abort(device_id)

    def _attempt(self, ids: List[str], rng: np.random.Generator,
                 outcome: RoundOutcome) -> Set[str]:
        faults = self.faults
        nonces = self._transport_open_round(ids)
        # Decide per-device faults and tamper overrides first (one RNG
        # draw sequence per device, as before), then measure every
        # responding device in one stacked pass per execution plane.
        responders: List[str] = []
        factors: Dict[str, float] = {}
        delivered: Dict[str, bool] = {}
        for device_id in ids:
            self.stats.attempts += 1
            if rng.random() < faults.request_drop:
                self.stats.dropped_requests += 1
                continue
            factor = 1.0
            for adversary in self.adversaries:
                override = adversary.tamper_factor(device_id,
                                                   self._round_index, rng)
                if override is not None:
                    factor = override
            responders.append(device_id)
            factors[device_id] = factor
            if rng.random() < faults.response_drop:
                self.stats.dropped_responses += 1
                delivered[device_id] = False
            else:
                delivered[device_id] = True
        device_of = self.service.device
        fresh: List[AuthResponse] = respond_round(
            [device_of(device_id) for device_id in responders],
            nonces, factors,
        )
        messages: List[AuthResponse] = [
            message for message in fresh if delivered[message.device_id]
        ]
        for adversary in self.adversaries:
            before = {id(message) for message in messages}
            messages = list(adversary.mutate(messages, tuple(self._captured),
                                             rng))
            self.stats.adversary_messages += sum(
                1 for message in messages if id(message) not in before
            )
        report = self._transport_verify_round(messages, nonces)
        outcome.reports.append(report)
        for kind in report.failure_kinds.values():
            self.stats.count_failure(kind)
        authenticated: Set[str] = set()
        for device_id, confirmation in report.confirmations.items():
            if rng.random() < faults.confirmation_drop:
                # Delivery timed out after the verifier already accepted
                # the response — the exact ordering that desynchronizes a
                # naive verifier.  Abort keeps both sides on the old CRP.
                self.stats.dropped_confirmations += 1
                self._transport_abort(device_id)
                continue
            try:
                device_of(device_id).confirm(confirmation,
                                             nonces[device_id])
            except AuthenticationFailure as failure:
                self.stats.count_failure(failure.kind.value)
                self._transport_abort(device_id)
                continue
            self._transport_finalize(device_id)
            authenticated.add(device_id)
            self.stats.authenticated += 1
        # Wiretap for the replay adversary: traffic becomes capturable
        # only after the attempt, so replays are genuinely stale.
        self._captured = (self._captured + fresh)[-self.capture_window:]
        outcome.authenticated |= authenticated
        return authenticated

    def run_campaign(self, n_rounds: int,
                     crash_after_round: Optional[int] = None,
                     snapshot_path: Optional[str] = None) -> CampaignStats:
        """Run ``n_rounds`` rounds, optionally crashing the verifier once.

        With ``crash_after_round`` set, the service snapshots its state
        after that round and restores from the snapshot — a verifier
        restart (round-tripped through ``snapshot_path`` on disk when
        given, in memory otherwise).  Final stats include the
        campaign-end desynchronization count — the number that must be
        zero for the scheme to be fault-tolerant.
        """
        start = time.perf_counter()
        for round_number in range(1, n_rounds + 1):
            self.run_round()
            if crash_after_round is not None \
                    and round_number == crash_after_round:
                if snapshot_path is not None:
                    written = self.service.save(snapshot_path)
                    self.stats.snapshots += 1
                    manifest, arrays = load_state(written)
                    self.restore({"manifest": manifest, "arrays": arrays})
                else:
                    self.restore(self.snapshot())
        self.stats.elapsed_s += time.perf_counter() - start
        self.stats.desynchronized = len(self.desynchronized())
        return self.stats

    # -- lifecycle: persistence -------------------------------------------

    def snapshot(self) -> dict:
        """The service's snapshot, counted in :attr:`stats`."""
        state = self.service.snapshot()
        self.stats.snapshots += 1
        return state

    def restore(self, state: dict) -> None:
        """Verifier restart through the service's ``restore``.

        The physical devices are untouched — their rolling state lives on
        the devices themselves.  In-flight sessions die with the old
        verifier; affected devices recover by plain retry because neither
        side committed (two-phase commit).
        """
        self.service.restore(state)
        self._sorted_ids = sorted(self.service.device_ids())
        self.stats.restores += 1

    # -- invariants -------------------------------------------------------

    def desynchronized(self) -> List[str]:
        """Devices whose rolling CRP disagrees with the registry's."""
        registry = self.registry
        stranded = []
        for device_id in sorted(self.service.device_ids()):
            if device_id not in registry:
                continue
            device = self.service.device(device_id)
            record = registry.record(device_id)
            if device.current_response is None or not np.array_equal(
                device.current_response, record.current_response
            ):
                stranded.append(device_id)
        return stranded
