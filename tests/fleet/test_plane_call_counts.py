"""Structural counts behind the stacked plane's wall-clock floors.

``benchmarks/test_fleet_throughput.py`` holds the plane to speed ratios
(rounds 5x, one-shot provisioning 3x) that a loaded host can blur.
These tests pin the structure that earns those ratios, deterministically:
how many tensor passes and compiles a provision, a round and a spot
check make.  A regression back to per-device work fails here on any
host, however fast.
"""

import numpy as np
import pytest

from repro.photonics.engine import CompiledMesh
from repro.photonics.fleet_engine import CompiledFleet
from repro.puf.photonic_strong import PhotonicFleet, PhotonicStrongPUF
from repro.service import AuthService, FleetConfig

CFG = dict(challenge_bits=32, n_stages=3, response_bits=16)
FLEET = 16


class CallCounter:
    """Counts calls to patched methods, keyed by a label."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.counts = {}

    def method(self, owner, name, label):
        original = getattr(owner, name)
        self.counts[label] = 0

        def counted(*args, **kwargs):
            self.counts[label] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counted)

    def classmethod(self, owner, name, label):
        original = getattr(owner, name).__func__
        self.counts[label] = 0

        def counted(cls, *args, **kwargs):
            self.counts[label] += 1
            return original(cls, *args, **kwargs)

        self.monkeypatch.setattr(owner, name, classmethod(counted))

    def reset(self):
        for label in self.counts:
            self.counts[label] = 0


@pytest.fixture
def counter(monkeypatch):
    calls = CallCounter(monkeypatch)
    calls.method(PhotonicFleet, "evaluate", "plane")
    calls.method(PhotonicStrongPUF, "evaluate", "device")
    calls.method(PhotonicStrongPUF, "evaluate_batch", "device_batch")
    calls.classmethod(CompiledFleet, "compile", "fleet_compile")
    calls.classmethod(CompiledMesh, "compile", "mesh_compile")
    return calls


def provision(n_spot_crps=8):
    return AuthService.provision(FleetConfig(
        n_devices=FLEET, seed=77, n_spot_crps=n_spot_crps, puf=CFG))


def split_plane(service, n_planes):
    """Re-attach the fleet across ``n_planes`` planes of equal size."""
    devices = service.device_list
    if n_planes == 1:
        return devices
    for chunk in np.array_split(np.arange(len(devices)), n_planes):
        members = [devices[i] for i in chunk]
        plane = PhotonicFleet([device.puf for device in members])
        for row, device in enumerate(members):
            device.attach_plane(plane, row)
    return devices


def test_provision_compiles_one_fleet_and_no_mesh(counter):
    service = provision()
    assert counter.counts["fleet_compile"] == 1
    assert counter.counts["mesh_compile"] == 0
    # One pass for the enrollment CRPs, one for every spot pool.
    assert counter.counts["plane"] == 2
    assert counter.counts["device"] == counter.counts["device_batch"] == 0
    assert len({id(d.plane) for d in service.device_list}) == 1


@pytest.mark.parametrize("n_planes", [1, 2])
def test_round_is_one_plane_pass_per_plane(counter, n_planes):
    service = provision(n_spot_crps=0)
    devices = split_plane(service, n_planes)
    counter.reset()
    report = service.verifier.authenticate_fleet(devices)
    assert report.n_accepted == FLEET
    assert counter.counts["plane"] == n_planes
    assert counter.counts["device"] == counter.counts["device_batch"] == 0


@pytest.mark.parametrize("n_planes", [1, 2])
def test_spot_check_is_one_plane_pass_per_plane(counter, n_planes):
    service = provision()
    devices = split_plane(service, n_planes)
    counter.reset()
    report = service.verifier.spot_check(devices, k=4)
    assert report.n_accepted == FLEET
    assert counter.counts["plane"] == n_planes
    assert counter.counts["device"] == counter.counts["device_batch"] == 0
