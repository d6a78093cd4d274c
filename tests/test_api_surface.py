"""Public-API surface snapshot.

The exported names of ``repro``, ``repro.fleet.storage``,
``repro.obs``, ``repro.service``, ``repro.service.net``, and
``repro.service.ha`` — plus the :class:`FailureKind` taxonomy —
are pinned against the checked-in manifest ``tests/api_surface.json``.
Any drift — a new export, a removal, a rename — fails here until the
manifest is updated in the same change, so surface changes are always
explicit and reviewable (CI runs this test in its own blocking step).

To accept an intentional change, regenerate the manifest:

    PYTHONPATH=src python -c "
    import json
    from tests.test_api_surface import current_surface
    print(json.dumps(current_surface(), indent=2, sort_keys=True))
    " > tests/api_surface.json
"""

import json
from pathlib import Path

import pytest

import repro
import repro.fleet.storage
import repro.obs
import repro.service
import repro.service.ha
import repro.service.net
from repro.protocols.mutual_auth import FailureKind

MANIFEST_PATH = Path(__file__).parent / "api_surface.json"

#: Every module whose ``__all__`` is a supported surface.
SURFACE_MODULES = {
    "repro": repro,
    "repro.fleet.storage": repro.fleet.storage,
    "repro.obs": repro.obs,
    "repro.service": repro.service,
    "repro.service.ha": repro.service.ha,
    "repro.service.net": repro.service.net,
}


def current_surface() -> dict:
    surface = {name: sorted(module.__all__)
               for name, module in SURFACE_MODULES.items()}
    surface["repro.protocols.FailureKind"] = sorted(
        kind.value for kind in FailureKind)
    return surface


def load_manifest() -> dict:
    with open(MANIFEST_PATH) as fh:
        return json.load(fh)


class TestSurfaceSnapshot:
    @pytest.mark.parametrize("module_name", sorted(SURFACE_MODULES))
    def test_exports_match_manifest(self, module_name):
        manifest = load_manifest()
        module = SURFACE_MODULES[module_name]
        assert sorted(module.__all__) == manifest[module_name], (
            f"{module_name}.__all__ drifted from tests/api_surface.json — "
            "update the manifest if the change is intentional"
        )

    def test_failure_kinds_match_manifest(self):
        # The failure taxonomy is wire format: clients aggregate and
        # retry by these strings, so members only ever get *added*.
        manifest = load_manifest()
        assert sorted(kind.value for kind in FailureKind) == \
            manifest["repro.protocols.FailureKind"], (
                "FailureKind drifted from tests/api_surface.json — "
                "update the manifest if the change is intentional"
            )

    def test_manifest_covers_exactly_the_pinned_surfaces(self):
        manifest = load_manifest()
        assert sorted(manifest) == sorted(current_surface())

    @pytest.mark.parametrize("module_name", sorted(SURFACE_MODULES))
    def test_every_export_resolves(self, module_name):
        module = SURFACE_MODULES[module_name]
        for name in module.__all__:
            assert getattr(module, name, None) is not None, name

    @pytest.mark.parametrize("module_name", sorted(SURFACE_MODULES))
    def test_no_duplicate_exports(self, module_name):
        module = SURFACE_MODULES[module_name]
        assert len(set(module.__all__)) == len(module.__all__)


class TestSupportedEntryPoints:
    def test_facade_verbs_exist(self):
        # The redesign's contract: the facade carries the full verb set.
        for verb in ("provision", "enroll", "revoke", "authenticate",
                     "authenticate_batch", "submit", "poll", "flush",
                     "spot_check", "snapshot", "restore", "save", "load",
                     "open_round_wire", "verify_round_wire", "simulator",
                     "close"):
            assert callable(getattr(repro.service.AuthService, verb)), verb

    def test_client_mirrors_facade_verbs(self):
        # The net redesign's contract: the client SDK speaks the facade
        # verb set, verb for verb, across the socket.
        for verb in ("enroll", "revoke", "authenticate",
                     "authenticate_batch", "submit", "poll", "flush",
                     "spot_check", "open_round_wire", "verify_round_wire"):
            assert callable(
                getattr(repro.service.net.AuthClient, verb)), verb

    def test_ha_client_mirrors_retryable_verbs(self):
        # The HA redesign's contract: everything a single-endpoint
        # client can do safely under retry, the failover client does
        # across endpoints.
        for verb in ("enroll", "revoke", "authenticate", "flush", "poll",
                     "spot_check"):
            assert callable(
                getattr(repro.service.ha.HAAuthClient, verb)), verb

    def test_network_transient_kinds_are_valid_taxonomy(self):
        from repro.service.policy import NETWORK_TRANSIENT_KINDS
        taxonomy = {kind.value for kind in FailureKind}
        assert NETWORK_TRANSIENT_KINDS <= taxonomy
