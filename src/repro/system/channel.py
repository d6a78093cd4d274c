"""Network channel between the Device and the external Verifier.

Carries protocol messages with configurable latency and jitter, and
exposes attacker hooks (eavesdrop, modify, replay) for the protocol
attack studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.utils.rng import derive_rng


@dataclass
class ChannelStats:
    messages: int = 0
    bytes_carried: int = 0
    total_latency_s: float = 0.0


class Channel:
    """Point-to-point message channel with latency and attacker hooks."""

    def __init__(
        self,
        base_latency_s: float = 2e-3,
        jitter_s: float = 2e-4,
        bandwidth_bytes_per_s: float = 1.25e6,  # ~10 Mbit/s uplink
        seed: int = 0,
    ):
        self.base_latency_s = base_latency_s
        self.jitter_s = jitter_s
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.stats = ChannelStats()
        self._rng = derive_rng(seed, "channel")
        self.eavesdropper: Optional[Callable[[bytes], None]] = None
        self.tamper: Optional[Callable[[bytes], bytes]] = None
        self._transcript: List[bytes] = []

    def send(self, message: bytes) -> tuple:
        """Deliver a message; returns (delivered bytes, latency seconds).

        The eavesdropper (if any) sees every message; the tamper hook (if
        any) may substitute the delivered bytes — the receiver's MACs are
        what must catch this.
        """
        latency = (self.base_latency_s
                   + float(self._rng.uniform(0.0, self.jitter_s))
                   + len(message) / self.bandwidth_bytes_per_s)
        self.stats.messages += 1
        self.stats.bytes_carried += len(message)
        self.stats.total_latency_s += latency
        self._transcript.append(message)
        if self.eavesdropper is not None:
            self.eavesdropper(message)
        delivered = message
        if self.tamper is not None:
            delivered = self.tamper(message)
        return delivered, latency

    @property
    def transcript(self) -> List[bytes]:
        """Every message ever carried (the replay attacker's notebook)."""
        return list(self._transcript)
