"""FIG4: the mutual-authentication session of Fig. 4.

Measures what the figure describes: the three-message exchange, the CRP
update on both sides, the message/byte budget, and the scalability
argument of Sec. III-A (constant verifier storage vs. the CRP-database
baseline).  Also checks the protocol's attack resistance inline.
"""

import pytest

from repro.attacks.protocol_attacks import replay_attack, tamper_attack
from repro.protocols.mutual_auth import (
    CRPDatabaseVerifier,
    provision,
    run_session,
)
from repro.system.channel import Channel
from repro.system.soc import DeviceSoC, SoCConfig


@pytest.fixture(scope="module")
def parties():
    soc = DeviceSoC(SoCConfig(seed=80, memory_size=8 * 1024))
    return provision(soc, seed=80)


def test_fig4_session_loop(benchmark, table_printer, parties):
    device, verifier = parties
    channel = Channel(seed=80)

    def one_session():
        return run_session(device, verifier, channel=channel)

    record = benchmark.pedantic(one_session, rounds=5, iterations=1)
    assert record.success
    rows = [
        ("messages per session", 3, "Fig. 4 (request, m||mac, mac')"),
        ("device -> verifier bytes", record.bytes_device_to_verifier, "m||mac"),
        ("verifier -> device bytes", record.bytes_verifier_to_device,
         "nonce + mac'"),
        ("verifier storage (B)", verifier.storage_bytes,
         "ONE CRP + references"),
        ("CRPs stored verifier-side", 1, "vs a whole database [16]"),
    ]
    table_printer("FIG4 — mutual authentication session budget",
                  ["quantity", "value", "note"], rows)


def test_fig4_crp_rolls_every_session(benchmark, parties):
    device, verifier = parties
    seen = set()
    for __ in range(6):
        record = run_session(device, verifier)
        assert record.success
        key = device.current_response.tobytes()
        assert key not in seen, "CRP must be fresh every session"
        seen.add(key)


def test_fig4_scalability_vs_database(benchmark, table_printer):
    session_budgets = [8, 32, 128]
    rows = []
    for budget in session_budgets:
        soc = DeviceSoC(SoCConfig(seed=81, memory_size=8 * 1024))
        database = CRPDatabaseVerifier(soc, n_crps=budget, seed=81)
        soc2 = DeviceSoC(SoCConfig(seed=81, memory_size=8 * 1024))
        __, verifier = provision(soc2, seed=81)
        rows.append((budget, verifier.storage_bytes, database.storage_bytes))
    table_printer(
        "FIG4 — verifier storage: HSC-IoT vs CRP database",
        ["sessions supported", "HSC-IoT bytes", "database bytes"],
        rows,
    )
    # The paper's claim: HSC-IoT storage is constant, database grows.
    assert rows[0][1] == rows[-1][1]
    assert rows[-1][2] > rows[0][2] * 10


def test_fig4_attack_resistance(benchmark, parties):
    device, verifier = parties
    assert not replay_attack(device, verifier).succeeded
    assert not tamper_attack(device, verifier).succeeded
