"""The supported service boundary of the fleet authentication stack.

``repro.service`` is the single entry point for production use:

>>> from repro.service import AuthService, FleetConfig
>>> service = AuthService.provision(FleetConfig(n_devices=8, seed=42))
>>> report = service.authenticate_batch()
>>> report.n_accepted
8

* :mod:`repro.service.config` — :class:`FleetConfig` /
  :class:`HAConfig`, the declarative home of every provisioning knob;
* :mod:`repro.service.facade` — :class:`AuthService`, the verb set
  (enroll, authenticate, spot_check, revoke, snapshot/restore) over
  registry + verifier + coalescer + execution plane;
* :mod:`repro.service.policy` — pluggable rate limiting, audit logging,
  and retry policies;
* :mod:`repro.service.codec` — the versioned wire codec every protocol
  message round-trips through, so transports can be layered on without
  touching protocol code;
* :mod:`repro.service.net` — the asyncio TCP transport speaking that
  codec: :class:`~repro.service.net.AuthServer` serves a wrapped
  :class:`AuthService`; :class:`~repro.service.net.AuthClient` mirrors
  the facade verbs on the device side of the socket;
* :mod:`repro.service.ha` — the replicated verifier plane:
  :class:`~repro.service.ha.ReplicaGroup` runs N servers over shared
  durable state with lease-based failover, and
  :class:`~repro.service.ha.HAAuthClient` fails over between their
  endpoints under a retry/backoff policy.

The pre-redesign free functions (``repro.fleet.provision_fleet``,
``respond_fleet``, ``respond_fleet_staged``) were removed in 0.9.0; the
README migration table maps each one onto this package.
"""

from repro.service.codec import (
    MAGIC,
    SCHEMA_MAJOR,
    SCHEMA_MINOR,
    AuthChallenge,
    AuthConfirmation,
    CodecError,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    WireType,
    decode_message,
    encode_message,
    negotiate_version,
    peek_header,
)
from repro.service.config import FleetConfig, HAConfig
from repro.service.facade import AuthOutcome, AuthService
from repro.service.policy import (
    AuditLogPolicy,
    RateLimitPolicy,
    RetryPolicy,
    ServicePolicy,
)

__all__ = [
    "MAGIC",
    "SCHEMA_MAJOR",
    "SCHEMA_MINOR",
    "AuditLogPolicy",
    "AuthChallenge",
    "AuthConfirmation",
    "AuthOutcome",
    "AuthService",
    "CodecError",
    "FleetConfig",
    "HAConfig",
    "RateLimitPolicy",
    "RetryPolicy",
    "ServicePolicy",
    "SessionHello",
    "SessionReject",
    "SessionRequest",
    "SessionResult",
    "SessionWelcome",
    "WireType",
    "decode_message",
    "encode_message",
    "negotiate_version",
    "peek_header",
]
