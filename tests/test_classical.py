"""Classical arrival-time oracles, threshold identities and resummation."""

from __future__ import annotations

import math
import random

import pytest
import scipy.special

from reltoa.classical import (
    ClassicallyForbiddenError,
    classical_toa_closed,
    crtoa_quadrature,
    kappa_c,
    qc_asymptotic,
    rc_asymptotic,
    rc_series_resummation,
    tau_top,
)
from reltoa.kernels import (
    NATURAL_UNITS, BarrierSpec, PhysicalParams, lorentzian_transform,
)
from reltoa.numerics import SeriesDivergenceError

BARRIER = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)


class TestCrtoaQuadrature:
    def test_free_flight(self):
        # q = -10, p = 1: time 10 * gamma = 10 sqrt(2)
        t = crtoa_quadrature(-10.0, 1.0, None)
        assert t == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-10)

    def test_region_two_matches_closed_form(self):
        # start on top of the barrier
        q0 = -1.5
        t = crtoa_quadrature(q0, 1.0, BARRIER)
        ref = classical_toa_closed("II", q0, 1.0, BARRIER)
        assert t == pytest.approx(ref, abs=1e-8)

    def test_region_one_matches_closed_form(self):
        q0 = -0.5
        t = crtoa_quadrature(q0, 1.0, BARRIER)
        ref = classical_toa_closed("I", q0, 1.0, BARRIER)
        assert t == pytest.approx(ref, abs=1e-8)
        assert t == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-10)

    def test_region_three_matches_closed_form(self):
        q0 = -5.0
        p0 = 2.0  # well above kappa_c(0.3) ~ 0.83
        t = crtoa_quadrature(q0, p0, BARRIER)
        ref = classical_toa_closed("III", q0, p0, BARRIER)
        assert t == pytest.approx(ref, abs=1e-8)

    def test_negative_momentum_sign(self):
        t = crtoa_quadrature(-0.5, -1.0, BARRIER)
        assert t == pytest.approx(-0.5 * math.sqrt(2.0), rel=1e-10)

    def test_turning_point_raises(self):
        # p0 below the threshold: the barrier section is forbidden
        with pytest.raises(ClassicallyForbiddenError):
            crtoa_quadrature(-5.0, 0.3, BARRIER)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            crtoa_quadrature(-1.0, 0.0, BARRIER)

    def test_random_admissible_configurations(self):
        # twenty random starts across all regions against the closed forms
        rng = random.Random(20230617)
        for trial in range(20):
            v0 = rng.uniform(0.05, 0.8)
            a = rng.uniform(-8.0, -2.0)
            length = rng.uniform(0.5, min(3.0, -a - 0.2))
            barrier = BarrierSpec(v0=v0, a=a, b=a + length)
            region = ("I", "II", "III")[trial % 3]
            if region == "I":
                q0 = rng.uniform(barrier.b * 0.95, -1e-3)
                p0 = rng.uniform(0.2, 3.0) * (1 if rng.random() < 0.7 else -1)
            elif region == "II":
                q0 = rng.uniform(barrier.a + 1e-3, barrier.b - 1e-3)
                p0 = rng.uniform(0.2, 3.0)
            else:
                q0 = barrier.a - rng.uniform(0.5, 10.0)
                p_min = kappa_c(v0) * NATURAL_UNITS.hbar
                p0 = p_min * rng.uniform(1.05, 3.0)
            quad = crtoa_quadrature(q0, p0, barrier)
            closed = classical_toa_closed(region, q0, p0, barrier)
            assert quad == pytest.approx(closed, abs=1e-8), (
                region, q0, p0, v0, a, length,
            )


class TestClosedForms:
    def test_free_value(self):
        t = classical_toa_closed("I", -10.0, 1.0, BARRIER)
        assert t == pytest.approx(14.1421356, abs=1e-6)

    def test_region_three_zero_height_limit(self):
        thin = BarrierSpec(v0=1e-12, a=-2.0, b=-1.0)
        t = classical_toa_closed("III", -5.0, 1.0, thin)
        assert t == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-9)

    def test_region_two_edge_limit(self):
        # b -> 0: the second term vanishes and free flight remains
        nearly = BarrierSpec(v0=0.3, a=-2.0, b=-1e-9)
        t = classical_toa_closed("II", -1.0, 1.0, nearly)
        assert t == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_below_barrier_raises(self):
        with pytest.raises(ClassicallyForbiddenError):
            classical_toa_closed("III", -5.0, 0.3, BARRIER)


class TestTauTop:
    def test_limits(self):
        # approach to t_c goes like v0/E_k
        length = 1.0
        assert tau_top(1e4, 0.3, length) == pytest.approx(length, rel=1e-4)
        kc = kappa_c(0.3)
        assert tau_top(kc * 1.0001, 0.3, length) > 50.0
        with pytest.raises(ClassicallyForbiddenError):
            tau_top(kc * 0.999, 0.3, length)

    def test_arithmetic_value(self):
        # k = 2, V_o = 0.3, L = 1: t_c sqrt(5 / ((sqrt5 - 0.3)^2 - 1))
        ref = math.sqrt(5.0 / ((math.sqrt(5.0) - 0.3) ** 2 - 1.0))
        assert tau_top(2.0, 0.3, 1.0) == pytest.approx(ref, rel=1e-12)


class TestKappaC:
    def test_small_height(self):
        assert kappa_c(1e-12) == pytest.approx(math.sqrt(2e-12), rel=1e-6)

    def test_reference_values(self):
        assert kappa_c(0.3) == pytest.approx(math.sqrt(0.69), rel=1e-12)
        assert kappa_c(0.3) == pytest.approx(0.830662, abs=1e-6)
        # formula arithmetic, deliberately not the rounded 1.7025 caption figure
        assert kappa_c(0.99) == pytest.approx(math.sqrt(1.98 * 1.495), rel=1e-12)
        assert kappa_c(0.99) == pytest.approx(1.720494, abs=1e-6)
        assert abs(kappa_c(0.99) - 1.7025) > 0.01

    @pytest.mark.parametrize("v0", [0.1, 0.3, 0.99])
    def test_threshold_identity(self, v0):
        params = NATURAL_UNITS
        kc = kappa_c(v0, params)
        lhs = (params.hbar * kc * params.c) ** 2 + params.rest_energy**2
        rhs = (params.rest_energy + v0) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            kappa_c(0.0)
        with pytest.raises(ValueError):
            kappa_c(1.0)


class TestAsymptotics:
    def test_qc_values(self):
        assert qc_asymptotic(0.0) == 1.0
        assert qc_asymptotic(2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)
        assert qc_asymptotic(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_rc_zero_height_is_gamma(self):
        assert rc_asymptotic(2.0, 0.0) == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_rc_arithmetic(self):
        e_p = math.sqrt(5.0)
        ref = 2.0 * math.sqrt(5.0 / ((e_p - 0.3) ** 2 - 1.0))
        assert rc_asymptotic(2.0, 0.3) == pytest.approx(ref, rel=1e-12)

    def test_rc_tau_top_identity(self):
        # tau_top(k) * (hbar k / mu c) / t_c == rc_asymptotic(hbar k, v0)
        for k in (1.0, 2.0, 4.5):
            lhs = tau_top(k, 0.3, 1.0) * k / 1.0
            assert lhs == pytest.approx(rc_asymptotic(k, 0.3), rel=1e-12)


class TestRcResummation:
    def test_rejects_zero_p0(self):
        with pytest.raises(ValueError, match="requires p0 != 0"):
            rc_series_resummation(0.0, 0.3, 5)

    def test_zero_height_gives_gamma(self):
        for j_max in (0, 3, 8):
            val = rc_series_resummation(2.0, 0.0, j_max)
            assert val == pytest.approx(math.sqrt(5.0), rel=1e-8)

    def test_j_zero_series_part_is_one(self):
        # at j_max = 0 the hypergeometric bracket cancels to exactly 1,
        # leaving 1 + branch term
        val = rc_series_resummation(2.0, 0.3, 0)

        def branch_only():
            from reltoa.kernels import gb_factor
            from reltoa.numerics import integrate_semiinf_exp

            x = 4.0
            br, _ = integrate_semiinf_exp(
                lambda z: x / (z * z + x) * math.sqrt(z * z - 1.0) / z * gb_factor(0.3, z),
                1.0,
                0.0,
            )
            return 2.0 / math.pi * br

        assert val == pytest.approx(1.0 + branch_only(), rel=1e-9)

    def test_converges_to_asymptotic(self):
        target = rc_asymptotic(2.0, 0.3)
        val = rc_series_resummation(2.0, 0.3, 12)
        assert val == pytest.approx(target, abs=1e-6)

    def test_monotone_convergence(self):
        target = rc_asymptotic(2.0, 0.3)
        gaps = [abs(rc_series_resummation(2.0, 0.3, j) - target) for j in range(0, 13, 3)]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    # (p0, v0) from below the threshold's scale to far above it
    RESUM_POINTS = ((0.5, 0.05), (1.0, 0.1), (2.0, 0.3), (3.0, 0.5), (8.0, 0.3))

    @staticmethod
    def hypergeometric_form(p0: float, v0: float, j_max: int) -> float:
        """The paper's double series, each (j, k) bracket
        gamma^(k+1) - x^(j+1) C(alpha, j+1) 2F1(1, j+1-alpha; j+2; -x) with
        alpha = (k+1)/2, by scipy's 2F1, plus the branch-cut term."""
        x = p0 * p0
        total = 0.0
        for j in range(j_max + 1):
            outer = math.comb(2 * j, j) * (v0 / (2.0 * p0 * p0)) ** j
            for k in range(j + 1):
                alpha = (k + 1) / 2.0
                bracket = (1.0 + x) ** alpha - x ** (j + 1) * scipy.special.binom(
                    alpha, j + 1
                ) * scipy.special.hyp2f1(1.0, j + 1 - alpha, j + 2.0, -x)
                total += outer * math.comb(j, k) * (-v0 / 2.0) ** (j - k) * bracket
        return total + lorentzian_transform(v0, x).value

    @pytest.mark.parametrize("p0, v0", RESUM_POINTS)
    def test_partial_sums_match_the_hypergeometric_form(self, p0, v0):
        for j_max in range(13):
            assert rc_series_resummation(p0, v0, j_max) == pytest.approx(
                self.hypergeometric_form(p0, v0, j_max), rel=1e-12
            )

    @pytest.mark.parametrize("p0, v0", RESUM_POINTS)
    def test_reaches_asymptotic_to_rounding(self, p0, v0):
        target = rc_asymptotic(p0, v0)
        assert abs(rc_series_resummation(p0, v0, 40) - target) <= 1e-14 * abs(target)

    def test_long_series_converges_or_raises_typed_error(self):
        # at j_max = 200 x^j reaches 4^200 at p0 = 2 and 64^200 at p0 = 8,
        # past the float range, but each bracket carries the outer factor
        # step^j that cancels it; at p0 = 0.3, below kappa_c = 0.83, the
        # series itself diverges: a typed error, never NaN or a bare
        # OverflowError
        assert rc_series_resummation(2.0, 0.3, 200) == pytest.approx(
            rc_asymptotic(2.0, 0.3), abs=1e-14
        )
        target = rc_asymptotic(8.0, 0.3)
        assert abs(rc_series_resummation(8.0, 0.3, 200) - target) <= 1e-14 * abs(target)
        with pytest.raises(SeriesDivergenceError, match="float range"):
            rc_series_resummation(0.3, 0.3, 600)

