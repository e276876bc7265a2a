"""Gaussian packet densities and the overlap function."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import simpson
from reltoa.wavepacket import GaussianPacket, momentum_density, phi_overlap
from reltoa.classical import kappa_c


PACKET = GaussianPacket(q0=-20.0, sigma=0.5, k0=2.0)


class TestMomentumDensity:
    def test_peak_value(self):
        ref = math.sqrt(2.0 * 0.25 / math.pi)
        assert momentum_density(PACKET, 2.0, +1) == pytest.approx(ref, rel=1e-14)

    def test_sign_asymmetry(self):
        # density(+k0)/density(-k0) for the + branch is exp(8 sigma^2 k0^2)
        plus = momentum_density(PACKET, PACKET.k0, +1)
        minus = momentum_density(PACKET, PACKET.k0, -1)
        assert plus / minus == pytest.approx(
            math.exp(8.0 * PACKET.sigma**2 * PACKET.k0**2), rel=1e-10
        )

    def test_normalization(self):
        k = np.linspace(-30.0, 30.0, 2_000_001)
        dens = np.sqrt(2.0 * PACKET.sigma**2 / np.pi) * np.exp(
            -2.0 * PACKET.sigma**2 * (k - PACKET.k0) ** 2
        )
        assert simpson(dens, k) == pytest.approx(1.0, abs=1e-10)

    def test_partition_above_below_threshold(self):
        # mass above +kappa_c plus the mass between -kappa_c and +kappa_c
        # equals one minus the mass below -kappa_c
        sigma, k0, v0 = 1.5, 1.0, 0.3
        kc = kappa_c(v0)
        rt = math.sqrt(2.0) * sigma

        def mass(lo, hi):
            return 0.5 * (math.erf(rt * (hi - k0)) - math.erf(rt * (lo - k0)))

        above = mass(kc, 60.0)
        middle = mass(-kc, kc)
        below = mass(-60.0, -kc)
        assert above + middle == pytest.approx(1.0 - below, abs=1e-10)

    def test_symmetric_about_k0(self):
        for dk in (0.1, 0.7, 2.0):
            assert momentum_density(PACKET, PACKET.k0 + dk, +1) == pytest.approx(
                momentum_density(PACKET, PACKET.k0 - dk, +1), rel=1e-12
            )

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            momentum_density(PACKET, 1.0, 0)


class TestPhiOverlap:
    def test_at_zero(self):
        assert phi_overlap(PACKET, 0.0) == 1.0

    def test_characteristic_width(self):
        zeta = 2.0 * PACKET.sigma * math.sqrt(2.0)
        assert phi_overlap(PACKET, zeta) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 5.0])
    def test_against_defining_integral(self, zeta):
        # overlap of shifted envelopes, brute-forced on a fine grid
        sigma, q0 = 0.5, -3.0
        packet = GaussianPacket(q0=q0, sigma=sigma, k0=2.0)
        eta = np.linspace(q0 - 25.0 * sigma, q0 + 25.0 * sigma, 2_000_001)

        def envelope(q):
            return (sigma * math.sqrt(2.0 * math.pi)) ** -0.5 * np.exp(
                -((q - q0) ** 2) / (4.0 * sigma**2)
            )

        vals = envelope(eta - 0.5 * zeta) * envelope(eta + 0.5 * zeta)
        assert phi_overlap(packet, zeta) == pytest.approx(simpson(vals, eta), abs=1e-10)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_even_and_bounded(self, zeta):
        val = phi_overlap(PACKET, zeta)
        assert 0.0 < val <= 1.0
        assert val == pytest.approx(phi_overlap(PACKET, -zeta), rel=1e-15)

    def test_strictly_decreasing_in_abs_zeta(self):
        vals = [phi_overlap(PACKET, z) for z in np.linspace(0.0, 5.0, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPacketValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            GaussianPacket(q0=-5.0, sigma=0.0, k0=1.0)
        with pytest.raises(ValueError):
            GaussianPacket(q0=-5.0, sigma=1.0, k0=-2.0)
        for field, bad in [("q0", -math.inf), ("q0", math.nan), ("sigma", math.inf),
                           ("k0", math.inf), ("k0", math.nan)]:
            fields = {"q0": -50.0, "sigma": 0.5, "k0": 2.0, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                GaussianPacket(**fields)

    def test_support_check(self):
        packet = GaussianPacket(q0=-1.0, sigma=1.0, k0=1.0)
        with pytest.raises(ValueError):
            packet.check_support(-2.0)  # center right of the edge
        with pytest.warns(UserWarning):
            GaussianPacket(q0=-4.0, sigma=1.0, k0=1.0).check_support(-2.0)
        GaussianPacket(q0=-40.0, sigma=1.0, k0=1.0).check_support(-2.0)  # silent
