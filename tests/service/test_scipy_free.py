"""The serving path imports no scipy.

A fresh interpreter provisions a 64/12/32 fleet on a sharded registry
with spot pools, runs a round and a spot check, replaces one device the
way churn does, and runs one gateway round over a loopback
``AuthServer``; then it reports every loaded ``scipy`` module.  Only the
physics reference (``DiscreteTimeRing.filter``) and the NIST statistics
(``repro.metrics.nist``) may load scipy, and neither serves a fleet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SERVE_FLEET = r"""
import asyncio
import json
import sys
import tempfile

from repro.fleet.verifier import FleetDevice
from repro.service import AuthService, FleetConfig
from repro.service.net import AuthClient, AuthServer

PUF = {"challenge_bits": 64, "n_stages": 12, "response_bits": 32}

with tempfile.TemporaryDirectory() as root:
    config = FleetConfig(n_devices=16, seed=41, puf=PUF, n_spot_crps=8,
                         registry_backend="sharded", storage_root=root,
                         resident_records=4)
    service = AuthService.provision(config)
    assert service.authenticate_batch().n_accepted == 16
    assert service.spot_check(k=4).n_accepted == 16
    old = service.device_list[3]
    service.revoke(old.device_id)
    new = FleetDevice("rep-000003", old.puf)
    new.provision(config.seed)
    service.enroll(new, n_spot_crps=0)
    new.attach_plane(old.plane, old.plane_row)

    async def gateway_round():
        async with AuthServer(service) as server:
            async with AuthClient.connect("127.0.0.1", server.port) as client:
                return await client.authenticate_batch(service.device_list)

    assert asyncio.run(gateway_round()).n_accepted == 16
    service.close()

print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""


def test_serving_path_loads_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", SERVE_FLEET], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
