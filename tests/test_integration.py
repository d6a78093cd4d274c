"""Cross-module integration tests: the full NEUROPULS stack end to end.

Each test exercises a complete Fig. 1 flow across several subpackages,
including the failure paths a unit test cannot reach: counterfeit
devices, drifted environments, desynchronised sessions, corrupted helper
data.
"""

import numpy as np
import pytest

from repro.accelerator.network import LayerConfig, NetworkConfig
from repro.crypto.fuzzy_extractor import KeyRecoveryError
from repro.protocols import (
    AttestationDevice,
    AttestationVerifier,
    KeyVault,
    NetworkOwner,
    SecureAccelerator,
    establish_session,
    provision,
    run_session,
)
from repro.puf import PUFEnvironment
from repro.system.channel import Channel
from repro.system.soc import DeviceSoC, SoCConfig


@pytest.fixture()
def soc():
    return DeviceSoC(SoCConfig(seed=400, memory_size=8 * 1024))


class TestFullLifecycle:
    def test_provision_authenticate_attest_infer(self, soc):
        # 1. Authentication.
        device, verifier = provision(soc, seed=400)
        assert run_session(device, verifier).success
        # 2. Attestation.
        att_verifier = AttestationVerifier(
            soc.memory.image(), soc.strong_puf,
            chunk_size=soc.memory.chunk_size, soc_model=soc,
        )
        request = att_verifier.new_request(timestamp=1)
        verdict = att_verifier.verify(request,
                                      AttestationDevice(soc).attest(request))
        assert verdict.accepted
        # 3. Encrypted inference with the weak-PUF-derived key.
        vault = KeyVault(soc, seed=400)
        secure = SecureAccelerator(soc, vault)
        owner = NetworkOwner(vault)
        rng = np.random.default_rng(0)
        network = NetworkConfig(layers=[
            LayerConfig(rng.normal(size=(4, 3)), rng.normal(size=4), "relu"),
            LayerConfig(rng.normal(size=(2, 4)), rng.normal(size=2), "linear"),
        ])
        secure.load_network(owner.seal_network(network))
        output = owner.open_output(
            secure.execute_network(owner.seal_input(np.array([0.1, 0.2, 0.3])))
        )
        assert output.shape == (2,)
        # 4. Session keys over the rolled CRP.
        session = establish_session(device.current_response, soc, seed=400)
        assert len(session.session_key) == 32

    def test_counterfeit_device_fails_everything(self, soc):
        genuine_device, verifier = provision(soc, seed=401)
        counterfeit = DeviceSoC(SoCConfig(seed=400, die_index=7,
                                          memory_size=8 * 1024))
        # Counterfeit takes over the genuine device's network position but
        # cannot produce the rolled CRP.
        from repro.protocols.mutual_auth import AuthDevice

        impostor = AuthDevice(counterfeit,
                              counterfeit.strong_puf.evaluate(
                                  np.zeros(64, dtype=np.uint8), measurement=0),
                              seed=401)
        record = run_session(impostor, verifier)
        assert not record.success

    def test_environment_drift_tolerated_by_stack(self, soc):
        # A hot but stabilised device still authenticates: the CRP is
        # stored, and fresh PUF evaluations only seed the *next* session.
        device, verifier = provision(soc, seed=402)
        hot = PUFEnvironment(temperature_c=45.0)
        soc.strong_peripheral.set_environment(hot)
        results = [run_session(device, verifier).success for __ in range(4)]
        assert all(results)


class TestKeyLifecycle:
    def test_key_rederivation_across_temperature(self, soc):
        vault = KeyVault(soc, seed=403)
        # Re-derive at several noisy measurements; ECC absorbs the noise.
        assert vault.rederive_key(measurement=7)
        assert vault.rederive_key(measurement=13)

    def test_corrupted_helper_data_fails_safe(self, soc):
        vault = KeyVault(soc, seed=404)
        vault.helper.offset[: vault.helper.offset.size // 2] ^= 1
        noisy = vault._measure_response(measurement=5)
        with pytest.raises(KeyRecoveryError):
            vault.extractor.reproduce(noisy, vault.helper)

    def test_wrong_device_cannot_reproduce_key(self):
        device_a = DeviceSoC(SoCConfig(seed=405, die_index=0,
                                       memory_size=8 * 1024))
        device_b = DeviceSoC(SoCConfig(seed=405, die_index=1,
                                       memory_size=8 * 1024))
        vault_a = KeyVault(device_a, seed=405)
        vault_b = KeyVault(device_b, seed=405)
        # B's response + A's helper data must not give A's key: either
        # decoding fails outright, or the derived key cannot open A's
        # ciphertexts.
        response_b = vault_b._measure_response(measurement=3)
        sealed = vault_a.cipher().encrypt(b"probe", nonce=b"n")
        try:
            key = vault_a.extractor.reproduce(response_b, vault_a.helper)
        except KeyRecoveryError:
            return  # fail-safe path
        from repro.crypto.modes import AuthenticatedCipher, AuthenticationError

        with pytest.raises(AuthenticationError):
            AuthenticatedCipher(key).decrypt(sealed)


class TestServiceUnderAdversity:
    def test_noisy_channel_sessions_recover(self, soc):
        device, verifier = provision(soc, seed=406)
        channel = Channel(seed=406)
        flip_next = {"armed": True}

        def sometimes_tamper(message: bytes) -> bytes:
            if flip_next["armed"] and len(message) > 60:
                flip_next["armed"] = False
                corrupted = bytearray(message)
                corrupted[30] ^= 1
                return bytes(corrupted)
            return message

        channel.tamper = sometimes_tamper
        first = run_session(device, verifier, channel=channel)
        assert not first.success  # the tampered session dies...
        second = run_session(device, verifier, channel=channel)
        assert second.success  # ...and the parties recover.

    def test_attestation_after_firmware_update(self, soc):
        # A legitimate update changes memory; the verifier must be given
        # the new image, after which attestation succeeds again.
        verifier_old = AttestationVerifier(
            soc.memory.image(), soc.strong_puf,
            chunk_size=soc.memory.chunk_size, soc_model=soc,
        )
        soc.memory.write(0, b"\x42" * 128)  # the update
        request = verifier_old.new_request(timestamp=9)
        report = AttestationDevice(soc).attest(request)
        assert not verifier_old.verify(request, report).accepted
        verifier_new = AttestationVerifier(
            soc.memory.image(), soc.strong_puf,
            chunk_size=soc.memory.chunk_size, soc_model=soc,
        )
        request2 = verifier_new.new_request(timestamp=10)
        report2 = AttestationDevice(soc).attest(request2)
        assert verifier_new.verify(request2, report2).accepted

    def test_replayed_nn_ciphertext_is_valid_but_stateless(self, soc):
        # CTR+MAC accepts a replayed input ciphertext (no anti-replay at
        # this layer by design); the output is simply recomputed.  This
        # documents the layer boundary: replay protection lives in the
        # session protocol above.
        vault = KeyVault(soc, seed=407)
        secure = SecureAccelerator(soc, vault)
        owner = NetworkOwner(vault)
        rng = np.random.default_rng(1)
        secure.load_network(owner.seal_network(NetworkConfig(layers=[
            LayerConfig(rng.normal(size=(2, 2)), rng.normal(size=2), "linear"),
        ])))
        sealed = owner.seal_input(np.array([0.3, 0.7]))
        out1 = owner.open_output(secure.execute_network(sealed))
        out2 = owner.open_output(secure.execute_network(sealed))
        assert np.allclose(out1, out2)


class TestPowerAndTiming:
    def test_power_report_covers_session_activity(self, soc):
        device, verifier = provision(soc, seed=408)
        run_session(device, verifier)
        report = soc.power_report()
        assert report["cpu"] > 0
        assert report["puf_pic"] > 0

    def test_event_log_accumulates_puf_activity(self, soc):
        device, verifier = provision(soc, seed=409)
        before = soc.log.counters.get("puf.evaluations", 0)
        run_session(device, verifier)
        assert soc.log.counters["puf.evaluations"] > before
