"""Gaussian incident states: momentum densities and the two-point overlap."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = ["GaussianPacket", "momentum_density", "phi_overlap"]


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian envelope centered at q0 with spatial width sigma, carrier k0.

    k0 > 0 encodes rightward incidence.  q0 must sit left of any barrier in
    use; that check lives with the operations that take a barrier, since a
    bare packet knows no geometry.  The derived momentum spread is
    sigma_k = 1/(2 sigma).
    """

    q0: float
    sigma: float
    k0: float

    def __post_init__(self) -> None:
        for name in ("q0", "sigma", "k0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.k0 > 0.0:
            raise ValueError("k0 must be positive (rightward incidence)")

    @property
    def sigma_k(self) -> float:
        return 0.5 / self.sigma

    def check_support(self, barrier_a: float) -> None:
        """Validate the no-initial-leakage condition against a left edge."""
        if self.q0 >= barrier_a:
            raise ValueError(
                f"packet center q0={self.q0} must lie left of the barrier edge {barrier_a}"
            )
        if abs(self.q0 - barrier_a) <= 5.0 * self.sigma:
            warnings.warn(
                "packet tail closer than 5 sigma to the barrier; "
                "the no-leakage assumption is marginal",
                stacklevel=2,
            )


def momentum_density(packet: GaussianPacket, k: float, sign: int) -> float:
    """Momentum density |psi(+-k)|^2 = sqrt(2 sigma^2 / pi) exp[-2 sigma^2 (k -+ k0)^2]."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    s2 = packet.sigma * packet.sigma
    d = k - sign * packet.k0
    return math.sqrt(2.0 * s2 / math.pi) * math.exp(-2.0 * s2 * d * d)


def phi_overlap(packet: GaussianPacket, zeta: float) -> float:
    """Envelope overlap Phi(zeta) = int phi*(eta - zeta/2) phi(eta + zeta/2) d eta.

    For the Gaussian envelope this closes to exp(-zeta^2 / (8 sigma^2)),
    independent of carrier and center; Phi(0) = 1.
    """
    u = zeta / packet.sigma
    return math.exp(-0.125 * u * u)
