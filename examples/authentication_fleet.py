"""Fleet-scale batch authentication through the AuthService facade.

The paper's Sec. III-A scalability argument, taken to fleet scale: the
HSC-IoT verifier keeps exactly one rolling CRP per device, and
:class:`repro.service.AuthService` serves a whole fleet's mutual-auth
sessions per call — batch rounds, staged micro-rounds through the
request coalescer, spot checks, rate limiting, audit logging, and the
versioned wire codec — with the photonic interrogations routed through
the compiled vectorized engine.  The classic CRP-database baseline
(Suh et al. [16]) is provisioned alongside for the storage comparison.

Run:  python examples/authentication_fleet.py
"""

import time

from repro.protocols.mutual_auth import CRPDatabaseVerifier
from repro.service import (
    AuditLogPolicy,
    AuthService,
    FleetConfig,
    RateLimitPolicy,
    decode_message,
    encode_message,
)
from repro.system.soc import DeviceSoC, SoCConfig


def main() -> None:
    fleet_size = 6
    rounds = 8

    print(f"fleet of {fleet_size} devices, {rounds} authentication rounds\n")

    print("=== enrollment (one declarative FleetConfig) ===")
    audit = AuditLogPolicy()
    config = FleetConfig(
        n_devices=fleet_size, seed=100, n_spot_crps=64,
        latency_budget_s=0.002, max_batch=fleet_size,
        puf=dict(challenge_bits=32, n_stages=6, response_bits=16),
    )
    start = time.perf_counter()
    service = AuthService.provision(config, policies=[
        audit, RateLimitPolicy(max_requests=1000, window_s=1.0),
    ])
    elapsed = time.perf_counter() - start
    print(f"enrolled {fleet_size} devices in {elapsed:.2f} s "
          f"({fleet_size * 64 / elapsed:.0f} CRPs/s harvested, one stacked "
          "plane)")
    print(f"verifier storage: {service.registry.storage_bytes} B total "
          f"(constant in session count)\n")

    print("=== batch mutual authentication (Fig. 4, whole fleet per call) ===")
    start = time.perf_counter()
    accepted = sum(service.authenticate_batch().n_accepted
                   for _ in range(rounds))
    elapsed = time.perf_counter() - start
    total = fleet_size * rounds
    print(f"{accepted}/{total} sessions ok in {elapsed * 1e3:.0f} ms "
          f"-> {total / elapsed:.0f} auths/s")
    for device in service.device_list[:2]:
        record = service.registry.record(device.device_id)
        print(f"  {device.device_id}: {record.sessions} sessions, "
              f"verifier stores {record.storage_bytes} B")

    print("\n=== spot check (32 batched CRPs per device, one engine pass) ===")
    start = time.perf_counter()
    spot = service.spot_check(k=32)
    elapsed = time.perf_counter() - start
    checks = fleet_size * 32
    print(f"{spot.n_accepted}/{fleet_size} devices accepted, "
          f"max fractional HD {spot.fractional_hd.max():.3f} "
          f"(threshold {spot.threshold})")
    print(f"{checks} CRP verifications in {elapsed * 1e3:.0f} ms "
          f"-> {checks / elapsed:.0f} auths/s")

    print("\n=== staged micro-rounds (submit/poll) ===")
    start = time.perf_counter()
    tickets = [service.submit(device) for device in service.device_list]
    while service.coalescer.pending_count:    # trickle under the budget
        time.sleep(0.0005)
        service.poll()
    elapsed = time.perf_counter() - start
    settled = sum(1 for ticket in tickets if ticket.accepted)
    print(f"{settled}/{fleet_size} individually-arriving requests settled "
          f"through {service.coalescer.micro_rounds} micro-round(s) in "
          f"{elapsed * 1e3:.1f} ms")

    print("\n=== one round over the versioned wire codec ===")
    nonces, challenge_frames = service.open_round_wire()
    response_frames = []
    for device in service.device_list:
        challenge = decode_message(challenge_frames[device.device_id])
        response_frames.append(device.respond(challenge.nonce))
    report_frame, confirmation_frames = service.verify_round_wire(
        [encode_message(message) for message in response_frames], nonces)
    report = decode_message(report_frame)
    for device in service.device_list:
        confirmation = decode_message(confirmation_frames[device.device_id])
        device.confirm(confirmation.mac, nonces[device.device_id])
        service.verifier.finalize(device.device_id)
    print(f"{report.n_accepted}/{fleet_size} sessions over self-describing "
          f"frames ({len(report_frame)} B report, schema-versioned headers) "
          "— transports plug in without touching protocol code")

    print(f"\naudit trail: {len(audit.events)} events "
          f"(last: {audit.events[-1]['event']!r})")

    print("\n=== CRP-database baseline (Suh et al. [16]) for storage ===")
    soc = DeviceSoC(SoCConfig(seed=100, memory_size=8 * 1024))
    database = CRPDatabaseVerifier(soc, n_crps=rounds, seed=200)
    print(f"one device, {rounds}-session budget: {database.storage_bytes} B "
          f"(grows with the session budget; the registry above does not)")


if __name__ == "__main__":
    main()
