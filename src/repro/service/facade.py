"""The transport-agnostic authentication service facade.

:class:`AuthService` is the single supported entry point to the fleet
stack.  It wraps the enrollment registry, the batch verifier, the
request coalescer, and the fleet-stacked execution plane behind a small
verb set:

``provision``
    build + enroll a whole fleet from one :class:`FleetConfig`;
``enroll`` / ``revoke``
    fleet membership;
``authenticate`` / ``authenticate_batch``
    synchronous single/batch mutual authentication;
``submit`` / ``poll`` / ``flush``
    staged authentication through the micro-round coalescer;
``spot_check``
    Hamming-threshold spot checks against the enrollment pool;
``snapshot`` / ``restore`` / ``save`` / ``load``
    crash-safe persistence (registry, verifier, device state, config);
``open_round_wire`` / ``verify_round_wire``
    the byte-level round for transports, framed by the versioned codec
    (:mod:`repro.service.codec`).

Policies (:mod:`repro.service.policy`) hook every verb: rate limiting
denies requests before they burn a nonce, audit logging observes
lifecycle events, and a :class:`~repro.service.policy.RetryPolicy`
drives transient-failure retries.  Lifecycle simulation is just another
client: :meth:`AuthService.simulator` wires a
:class:`~repro.fleet.lifecycle.FleetSimulator` onto the same registry,
devices, and verifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fleet.lifecycle import Adversary, FaultModel, FleetSimulator
from repro.fleet.registry import FleetRegistry
from repro.fleet.storage import make_backend
from repro.fleet.storage.base import adopt_scratch
from repro.fleet.storage.memory import MONOLITHIC_STATE_VERSION
from repro.fleet.verifier import (
    AuthResponse,
    BatchAuthReport,
    BatchVerifier,
    CoalescedAuth,
    FleetDevice,
    RoundCoalescer,
    SpotCheckReport,
    provisioning_challenge,
)
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.puf.photonic_strong import photonic_strong_family
from repro.service.codec import (
    AuthChallenge,
    AuthConfirmation,
    CodecError,
    decode_message,
    encode_message,
)
from repro.service.config import FleetConfig
from repro.service.policy import (
    RetryPolicy,
    ServicePolicy,
    deny_reason,
    run_hooks,
)
from repro.utils.serialization import load_state, save_state

DeviceLike = Union[str, FleetDevice]


@dataclass
class AuthOutcome:
    """Settled result of one :meth:`AuthService.authenticate` call."""

    device_id: str
    accepted: bool
    failure: Optional[str] = None
    failure_kind: Optional[str] = None
    attempts: int = 1

    @classmethod
    def from_report(cls, device_id: str, report: BatchAuthReport,
                    attempts: int = 1) -> "AuthOutcome":
        if device_id in report.confirmations:
            return cls(device_id, True, attempts=attempts)
        return cls(
            device_id, False,
            failure=report.failures.get(device_id, "not part of the round"),
            failure_kind=report.failure_kinds.get(device_id),
            attempts=attempts,
        )


class AuthService:
    """Facade over registry + verifier + coalescer + execution plane."""

    def __init__(self, registry: FleetRegistry,
                 devices: Sequence[FleetDevice],
                 verifier: Optional[BatchVerifier] = None,
                 *, config: Optional[FleetConfig] = None,
                 policies: Sequence[ServicePolicy] = (),
                 clock: Callable[[], float] = time.monotonic):
        self.config = (config if config is not None
                       else FleetConfig(n_devices=max(1, len(devices))))
        self.registry = registry
        self._devices: Dict[str, FleetDevice] = {
            device.device_id: device for device in devices
        }
        self.verifier = verifier if verifier is not None else BatchVerifier(
            registry, seed=self.config.seed,
            clock_tolerance=self.config.clock_tolerance,
        )
        self.policies: List[ServicePolicy] = list(policies)
        self._clock = clock
        # Observability hook (repro.obs.ServiceObs via
        # instrument_service); None costs one attribute load per verb.
        self._obs = None
        self.coalescer = self._build_coalescer()

    def _build_coalescer(self) -> RoundCoalescer:
        coalescer = RoundCoalescer(
            self.registry.record, self._run_micro_round,
            latency_budget_s=self.config.latency_budget_s,
            max_batch=self.config.max_batch,
            clock=self._clock,
        )
        coalescer._obs = getattr(self, "_obs", None)
        return coalescer

    # -- construction ------------------------------------------------------

    @classmethod
    def provision(cls, config: FleetConfig, *,
                  policies: Sequence[ServicePolicy] = (),
                  clock: Callable[[], float] = time.monotonic,
                  ) -> "AuthService":
        """Build, provision and enroll a whole fleet from one config.

        Every die shares the design of
        :func:`repro.puf.photonic_strong.photonic_strong_family`, so the
        family is compiled **once** into a fleet-stacked execution plane:
        provisioning responses and the optional spot-check pools are
        harvested as single stacked tensor passes, and every device is
        plane-attached so subsequent rounds run one pass each.  The
        challenge streams, noise realisations, and resulting records are
        bit-identical to enrolling each die through :meth:`enroll`.
        """
        family = photonic_strong_family(config.n_devices, seed=config.seed,
                                        **config.puf)
        registry = FleetRegistry(config.make_registry_backend())
        plane = family.stack()
        verifier = BatchVerifier(registry, seed=config.seed,
                                 clock_tolerance=config.clock_tolerance)
        pufs = plane.pufs
        devices = [FleetDevice(f"dev-{die:06d}", pufs[die])
                   for die in range(config.n_devices)]
        # Manufacturing-time measurement of every die's enrollment CRP in
        # one stacked pass (same challenge streams and noise realisations
        # as the per-die FleetDevice.provision path).
        challenges = np.stack([
            provisioning_challenge(config.seed, device.device_id,
                                   pufs[0].challenge_bits)
            for device in devices
        ])
        responses = plane.evaluate(challenges[:, np.newaxis, :])[:, 0, :]
        for die, device in enumerate(devices):
            device.current_response = np.asarray(responses[die],
                                                 dtype=np.uint8)
            device.attach_plane(plane, die)
        registry.enroll_fleet(devices, n_spot_crps=config.n_spot_crps,
                              seed=config.seed)
        return cls(registry, devices, verifier, config=config,
                   policies=policies, clock=clock)

    # -- fleet membership --------------------------------------------------

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def device_ids(self) -> List[str]:
        return list(self._devices)

    @property
    def device_list(self) -> List[FleetDevice]:
        """Devices in enrollment order (the legacy tuple's list)."""
        return list(self._devices.values())

    @property
    def clock(self):
        """The monotonic clock this service (and its coalescer) reads.

        Transports that run their own flush timers — e.g.
        :class:`repro.service.net.AuthServer` — must schedule against
        this clock so latency budgets mean the same thing on both sides
        of the timer.
        """
        return self._clock

    def device(self, device_id: str) -> FleetDevice:
        try:
            return self._devices[device_id]
        except KeyError:
            raise AuthenticationFailure(
                f"device {device_id!r} is not held by this service",
                "not-enrolled",
            ) from None

    def _resolve(self, device: DeviceLike) -> FleetDevice:
        return self.device(device) if isinstance(device, str) else device

    def _resolve_all(self, devices: Optional[Sequence[DeviceLike]],
                     ) -> List[FleetDevice]:
        if devices is None:
            return self.device_list
        return [self._resolve(device) for device in devices]

    def enroll(self, device: FleetDevice,
               n_spot_crps: Optional[int] = None):
        """Enroll one device (provisions its first CRP if needed)."""
        if device.current_response is None:
            device.provision(self.config.seed)
        record = self.registry.enroll(
            device,
            n_spot_crps=(self.config.n_spot_crps if n_spot_crps is None
                         else n_spot_crps),
            seed=self.config.seed,
        )
        self._devices[device.device_id] = device
        run_hooks(self.policies, "on_enroll", device.device_id)
        if self._obs is not None:
            self._obs.on_enroll()
        return record

    def revoke(self, device_id: str):
        """Remove one device: registry record, verifier state, coalescer.

        A ticket the device still has pending inside the coalescer
        settles as a rejection at the next flush (it no longer poisons
        the micro-round it would have joined).
        """
        record = self.registry.revoke(device_id)
        self.verifier.evict(device_id)
        self._devices.pop(device_id, None)
        run_hooks(self.policies, "on_revoke", device_id)
        if self._obs is not None:
            self._obs.on_revoke()
        return record

    # -- authentication ----------------------------------------------------

    def authenticate(self, device: DeviceLike, *,
                     retry_policy: Optional[RetryPolicy] = None,
                     ) -> AuthOutcome:
        """One synchronous mutual-auth session for one device.

        With a :class:`~repro.service.policy.RetryPolicy`, transient
        failures (duplicate/replay interference) are retried up to its
        budget; deterministic failures settle immediately.
        """
        device = self._resolve(device)
        attempt = 0
        while True:
            attempt += 1
            report = self.authenticate_batch([device])
            outcome = AuthOutcome.from_report(device.device_id, report,
                                              attempts=attempt)
            if outcome.accepted or retry_policy is None:
                return outcome
            if not retry_policy.should_retry(outcome.failure_kind, attempt):
                return outcome

    def authenticate_batch(self,
                           devices: Optional[Sequence[DeviceLike]] = None,
                           ) -> BatchAuthReport:
        """One full mutual-auth round for many devices, in one call.

        Policy vetoes (rate limits) are applied first — a denied device
        lands in the report without burning a nonce or a plane pass —
        and the surviving devices run through the batch verifier
        exactly as one fleet round.
        """
        obs = self._obs
        started = self._clock() if obs is not None else 0.0
        devices = self._resolve_all(devices)
        denied: List[Tuple[str, AuthenticationFailure]] = []
        admitted: List[FleetDevice] = []
        for device in devices:
            failure = deny_reason(self.policies, device.device_id)
            if failure is None:
                admitted.append(device)
            else:
                denied.append((device.device_id, failure))
        if admitted:
            report = self.verifier.authenticate_fleet(admitted)
        else:
            report = BatchAuthReport()
        for device_id, failure in denied:
            report.record_failure(device_id, failure)
        run_hooks(self.policies, "after_round", report)
        if obs is not None:
            obs.on_round(report, self._clock() - started, "batch")
        return report

    def submit(self, device: DeviceLike) -> CoalescedAuth:
        """Queue one request into the staged micro-round coalescer.

        Policy vetoes settle the ticket immediately; admitted requests
        settle when the coalescer flushes (size, deadline via
        :meth:`poll`, or duplicate arrival).
        """
        device = self._resolve(device)
        failure = deny_reason(self.policies, device.device_id)
        if failure is not None:
            ticket = CoalescedAuth(device.device_id)
            ticket.reject(str(failure), failure.kind.value)
            return ticket
        return self.coalescer.submit(device)

    def poll(self) -> Optional[BatchAuthReport]:
        """Flush the pending micro-round once its latency budget expires."""
        return self.coalescer.poll()

    def flush(self) -> Optional[BatchAuthReport]:
        """Flush the pending micro-round now."""
        return self.coalescer.flush()

    def _run_micro_round(self, batch: List[Tuple[FleetDevice, CoalescedAuth]],
                         ) -> Optional[BatchAuthReport]:
        """The coalescer's ``run_round``: one micro-round, in process.

        A device revoked while pending fails *its own* ticket before the
        round opens (``open_round`` would fail everyone).  A failed round
        fails every ticket and returns ``None`` (a protocol failure) or
        re-raises.  Whatever triggered the flush, a verified round runs
        the ``after_round`` hooks and is timed under ``phase="flush"``.
        """
        live = []
        for device, ticket in batch:
            if device.device_id in self.registry:
                live.append((device, ticket))
            else:
                ticket.reject(
                    f"device {device.device_id!r} was revoked while its "
                    "request was pending", FailureKind.NOT_ENROLLED.value)
        if not live:
            return None
        self.coalescer.opened(len(live))
        obs = self._obs
        started = self._clock() if obs is not None else 0.0
        try:
            report = self.verifier.authenticate_fleet(
                [device for device, __ in live])
        except Exception as exc:
            kind = getattr(exc, "kind", None)
            for __, ticket in live:
                ticket.reject(f"micro-round failed: {exc}",
                              kind.value if kind is not None else None)
            if isinstance(exc, AuthenticationFailure):
                return None
            raise
        for __, ticket in live:
            ticket.settle(report)
        run_hooks(self.policies, "after_round", report)
        if obs is not None:
            obs.on_round(report, self._clock() - started, "flush")
        return report

    def spot_check(self, devices: Optional[Sequence[DeviceLike]] = None,
                   k: int = 8, threshold: float = 0.25) -> SpotCheckReport:
        """Burn ``k`` enrollment CRPs per device; one batched pass each."""
        return self.verifier.spot_check(self._resolve_all(devices), k=k,
                                        threshold=threshold)

    # -- wire-level round (transport integration) --------------------------

    def open_round_wire(self,
                        device_ids: Optional[Sequence[str]] = None,
                        ) -> Tuple[Dict[str, bytes], Dict[str, bytes]]:
        """Open a round for transports: ``(nonces, challenge frames)``.

        The frames are codec-encoded :class:`AuthChallenge` messages,
        one per device; the transport keeps the plain ``nonces`` mapping
        to hand back to :meth:`verify_round_wire`.
        """
        ids = list(device_ids) if device_ids is not None \
            else self.device_ids()
        nonces = self.verifier.open_round(ids)
        frames = {
            device_id: encode_message(AuthChallenge(device_id, nonce))
            for device_id, nonce in nonces.items()
        }
        return nonces, frames

    def verify_round_wire(self,
                          frames: Sequence[Union[bytes, AuthResponse]],
                          nonces: Dict[str, bytes],
                          ) -> Tuple[bytes, Dict[str, bytes]]:
        """Verify codec-framed device responses; emit framed replies.

        Returns ``(report frame, {device_id: confirmation frame})``.
        Each of ``frames`` is a RESPONSE frame or the
        :class:`~repro.fleet.verifier.AuthResponse` a transport already
        decoded from one, so no frame is decoded twice.  Frames that
        fail to decode as an ``AuthResponse`` raise
        :class:`~repro.service.codec.CodecError` — a transport must not
        hand the protocol undecodable bytes.
        """
        messages: List[AuthResponse] = []
        for frame in frames:
            message = frame if isinstance(frame, AuthResponse) \
                else decode_message(frame)
            if not isinstance(message, AuthResponse):
                raise CodecError(
                    f"expected a RESPONSE frame, got "
                    f"{type(message).__name__}"
                )
            messages.append(message)
        obs = self._obs
        started = self._clock() if obs is not None else 0.0
        report = self.verifier.verify_round(messages, nonces)
        run_hooks(self.policies, "after_round", report)
        if obs is not None:
            obs.on_round(report, self._clock() - started, "wire")
        confirmations = {
            device_id: encode_message(AuthConfirmation(device_id, mac))
            for device_id, mac in report.confirmations.items()
        }
        return encode_message(report), confirmations

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything a restarted service needs, as one state capture."""
        state = self.registry.to_state()
        state["manifest"]["verifier"] = self.verifier.to_state()
        state["manifest"]["config"] = self.config.to_state()
        state["manifest"]["device_states"] = [
            self._devices[device_id].to_state()
            for device_id in sorted(self._devices)
        ]
        return state

    def restore(self, state: dict) -> None:
        """Verifier restart from a snapshot; physical devices untouched.

        In-flight sessions (verifier pendings, coalescer tickets) die
        with the old verifier; affected devices recover by plain retry
        under the two-phase commit.  Devices enrolled *after* the
        snapshot are dropped from the service's fleet view — the
        restored registry no longer knows them, and one stray unknown
        device would fail ``open_round`` for a whole default-scope
        round.  (A device the snapshot knows but this service no longer
        holds stays absent from rounds: physical devices cannot be
        conjured from state — rebuild the service around the hardware,
        as :meth:`load` does, to bring it back.)

        A pointer snapshot (out-of-core registry) re-attaches its shard
        directory at the snapshotted generation — post-snapshot rolls
        and burns are discarded, exactly like the monolithic capture.
        """
        config = (FleetConfig.from_state(state["manifest"]["config"])
                  if "config" in state["manifest"] else self.config)
        old_registry = self.registry
        self.registry = FleetRegistry.from_state(
            state,
            backend=self._registry_target_backend(state["manifest"], config),
        )
        adopt_scratch(old_registry.backend, self.registry.backend)
        if old_registry.backend is not self.registry.backend:
            old_registry.close()
        # A pointer re-attach starts from backend defaults; the resident
        # cap is config-level state, so carry it forward.
        if config.resident_records is not None \
                and hasattr(self.registry.backend, "resident_records"):
            self.registry.backend.resident_records = \
                int(config.resident_records)
        self.verifier = BatchVerifier.from_state(
            self.registry, state["manifest"]["verifier"]
        )
        self.config = config
        self._devices = {
            device_id: device
            for device_id, device in self._devices.items()
            if device_id in self.registry
        }
        self.coalescer = self._build_coalescer()
        if self._obs is not None:
            # The restored verifier and coalescer are new objects; keep
            # them on the same registry as the service they serve.
            self._obs.bind(self)

    @staticmethod
    def _registry_target_backend(manifest: dict, config: FleetConfig):
        """The backend a *monolithic* registry state loads into.

        Honors ``config.registry_backend`` so a legacy archive restores
        straight into out-of-core storage; always a scratch root (never
        ``config.storage_root`` — the named directory may already hold
        the live fleet's shards).  Pointer states re-attach their own
        directory, so they take no target (None).
        """
        if manifest.get("version") != MONOLITHIC_STATE_VERSION \
                or config.registry_backend == "memory":
            return None
        return make_backend(config.registry_backend,
                            resident_records=config.resident_records)

    def save(self, path: Optional[str] = None) -> str:
        """Persist :meth:`snapshot` as one ``.npz`` archive."""
        path = path if path is not None else self.config.snapshot_path
        if path is None:
            raise ValueError(
                "no path given and config.snapshot_path is unset"
            )
        state = self.snapshot()
        return save_state(path, state["manifest"], state["arrays"])

    @classmethod
    def load(cls, path: str, devices: Sequence[FleetDevice],
             *, policies: Sequence[ServicePolicy] = (),
             clock: Callable[[], float] = time.monotonic) -> "AuthService":
        """Rebuild a service from :meth:`save` around the physical devices."""
        manifest, arrays = load_state(path)
        state = {"manifest": manifest, "arrays": arrays}
        config = (FleetConfig.from_state(manifest["config"])
                  if "config" in manifest else None)
        registry = FleetRegistry.from_state(
            state,
            backend=(cls._registry_target_backend(manifest, config)
                     if config is not None else None),
        )
        verifier = BatchVerifier.from_state(registry, manifest["verifier"])
        if config is None:
            config = FleetConfig(n_devices=max(1, len(registry)))
        return cls(registry, devices, verifier, config=config,
                   policies=policies, clock=clock)

    # -- lifecycle simulation and teardown ---------------------------------

    def simulator(self, faults: Optional[FaultModel] = None,
                  adversaries: Sequence[Adversary] = (),
                  **kwargs) -> FleetSimulator:
        """A lifecycle simulator driving *this* service's fleet.

        Fault-injection campaigns are just another client of the
        facade: the simulator shares the registry, devices, and
        verifier, so campaign outcomes are the service's outcomes.
        (Delegates to :meth:`FleetSimulator.from_service` — the wiring
        exists exactly once.)
        """
        return FleetSimulator.from_service(self, faults=faults,
                                           adversaries=adversaries, **kwargs)

    def close(self) -> None:
        """Close the registry backend."""
        self.registry.close()

    def __enter__(self) -> "AuthService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
