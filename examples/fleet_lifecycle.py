"""Fault-tolerant fleet campaigns: drops, adversaries, crash recovery.

The rolling-CRP scheme's whole advantage over CRP-database verifiers is
that one shared secret per device survives hostile conditions: lost
confirmations, replayed traffic, tampered devices, fleet churn, and
verifier restarts.  This example provisions the fleet through one declarative
:class:`repro.service.FleetConfig`, then drives a multi-round campaign
through the :class:`repro.fleet.FleetSimulator` — *just another client
of the AuthService facade* — under all of them at once, crashes the
verifier mid-campaign (persisting the service to an ``.npz`` snapshot
and restoring from it), and shows the invariant that makes the scheme
production-viable: zero desynchronized devices at the end, and a
service that goes on accepting every live device.

Run:  python examples/fleet_lifecycle.py
"""

import json
import os
import tempfile

from repro.fleet import (
    CorruptionAdversary,
    FaultModel,
    ReplayAdversary,
    TamperAdversary,
    photonic_device_factory,
)
from repro.service import AuthService, FleetConfig


def main() -> None:
    fleet_size, rounds = 24, 30
    puf_kwargs = dict(challenge_bits=32, n_stages=6, response_bits=16)

    print(f"fleet of {fleet_size} devices, {rounds}-round hostile campaign\n")

    service = AuthService.provision(FleetConfig(
        n_devices=fleet_size, seed=7, puf=puf_kwargs,
        fault_model=FaultModel(
            request_drop=0.02,       # verifier's nonce lost in transit
            response_drop=0.05,      # device's m||mac lost
            confirmation_drop=0.20,  # verifier's mac' lost (the hard case)
            max_retries=4,
            enroll_prob=0.15,        # new device joins mid-campaign
            revoke_prob=0.05,        # device decommissioned mid-campaign
            min_fleet_size=fleet_size // 2,
        ),
    ))
    simulator = service.simulator(
        adversaries=[
            ReplayAdversary(probability=0.3),
            TamperAdversary(probability=0.05, factor=1.5),
            CorruptionAdversary(probability=0.08),
        ],
        device_factory=photonic_device_factory(seed=7, **puf_kwargs),
    )

    print("=== campaign with mid-run verifier crash + npz restore ===")
    snapshot = os.path.join(tempfile.mkdtemp(prefix="fleet-lifecycle-"),
                            "registry-snapshot")
    stats = simulator.run_campaign(rounds, crash_after_round=rounds // 2,
                                   snapshot_path=snapshot)
    print(f"snapshot archive: {snapshot}.npz "
          f"({os.path.getsize(snapshot + '.npz')} B for "
          f"{len(simulator.registry)} devices)\n")

    print("=== campaign statistics ===")
    print(json.dumps(stats.to_json(), indent=2, sort_keys=True))

    print("\n=== the invariant ===")
    stranded = simulator.desynchronized()
    print(f"desynchronized devices after {stats.rounds} rounds, "
          f"{stats.dropped_confirmations} lost confirmations, "
          f"{stats.adversary_messages} adversarial messages, "
          f"{stats.enrolled} enrollments, {stats.revoked} revocations "
          f"and one verifier restart: {len(stranded)}")
    assert not stranded, stranded
    print("two-phase commit held: every device still shares its rolling "
          "CRP with the registry")

    print("\n=== the service keeps serving ===")
    report = service.authenticate_batch()
    print(f"one service round after the campaign: {report.n_accepted}/"
          f"{len(service)} live devices accepted")
    assert report.n_accepted == len(service) and not report.failures, \
        report.failures


if __name__ == "__main__":
    main()
