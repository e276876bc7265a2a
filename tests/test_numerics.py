"""Quadrature engines and special functions against independent oracles."""

from __future__ import annotations

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, strategies as st

from conftest import branch_integral_oracle, load_by_path, sine_integral_oracle
from reltoa import numerics
from reltoa.numerics import (
    DEFAULT_SETTINGS,
    FADDEEVA_IM_REL_ERR,
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
    faddeeva,
    gen_binomial,
    hyp0f1_one,
    integrate_semiinf_exp,
    integrate_sqrt_endpoint,
    sine_transform_decaying,
)

# the pin script's call counter
KERNEL_PINS = load_by_path("scripts/kernel_pins.py", "kernel_pins")


def hyp0f1_partial_sum(x: float, terms: int) -> float:
    """Compensated partial summation of sum_m x^m/(m!)^2 in 50-digit arithmetic."""
    with mp.workdps(50):
        total = mp.mpf(0)
        term = mp.mpf(1)
        for m in range(terms):
            total += term
            term = term * x / ((m + 1) * (m + 1))
        return float(total)


class TestHyp0f1:
    def test_at_zero(self):
        assert hyp0f1_one(0.0) == 1.0

    def test_at_one_vs_partial_sum(self):
        assert hyp0f1_one(1.0) == pytest.approx(hyp0f1_partial_sum(1.0, 50), rel=1e-12)

    def test_oscillatory_bounded(self):
        # 0F1(;1;-t^2) = J_0(2t): bounded by 1, checked against the oracle sum
        for t in np.linspace(0.5, 10.0, 20):
            val = hyp0f1_one(-t * t)
            assert abs(val) <= 1.0 + 1e-12
            assert val == pytest.approx(hyp0f1_partial_sum(-t * t, 200), abs=1e-11)

    def test_agrees_with_bessel(self):
        for x in (-1e6, -1e5, -1e4, -100.0, -37.5, -4.0, 2.0, 60.0):
            if x < 0:
                ref = scipy.special.j0(2.0 * math.sqrt(-x))
            else:
                ref = scipy.special.i0(2.0 * math.sqrt(x))
            assert hyp0f1_one(x) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_out_of_range_raises_typed_errors(self):
        # I0(2 sqrt(x)) overflows a float past x ~ 1.26e5; J0's rule has a
        # node cap past x ~ -4e6
        with pytest.raises(SeriesDivergenceError, match="overflows a float"):
            hyp0f1_one(1e6)
        with pytest.raises(QuadratureError):
            hyp0f1_one(-1e8)

    def test_partial_sum_invariant_sweep(self):
        # 10 * rel_tol agreement with the 200-term compensated sum on |x| <= 100
        for x in np.linspace(-100.0, 100.0, 41):
            ref = hyp0f1_partial_sum(float(x), 200)
            assert hyp0f1_one(float(x)) == pytest.approx(
                ref, rel=10 * DEFAULT_SETTINGS.rel_tol, abs=1e-13
            )


def faddeeva_oracle(z: complex) -> complex:
    """w(z) = exp(-z^2) erfc(-i z) to 30 digits.

    exp(-z^2) and erfc(-i z) are huge and tiny when |z| is large, and Im w
    is a small part of their product, so 2 log10|z| guard digits are added.
    """
    with mp.workdps(30 + 2 * math.ceil(math.log10(1.0 + abs(z)))):
        x = mp.mpc(z.real, z.imag)
        return complex(mp.exp(-x * x) * mp.erfc(-1j * x))


class TestFaddeeva:
    # every (sigma, k0) whose Q_c or series branch transform the CLI or the
    # tests form; the argument is (k0 + i z) sqrt(2) sigma in natural units
    SIGMAS = (0.5, 6.0, 9.0, 12.0)
    K0S = (0.15, 0.19, 0.2, 0.25, 0.5, 0.9, 2.0, 3.0, 5.0)

    def test_im_matches_mpmath_on_the_packet_arguments(self):
        zs = [0.0] + [float(z) for z in np.geomspace(1.0, 1e6, 25)]
        worst = 0.0
        for sigma in self.SIGMAS:
            root = math.sqrt(2.0) * sigma
            for k0 in self.K0S:
                for z in zs:
                    x = complex(k0 * root, z * root)
                    ref = faddeeva_oracle(x).imag
                    worst = max(worst, abs(faddeeva(x).imag - ref) / abs(ref))
        assert worst <= FADDEEVA_IM_REL_ERR

    def test_asymptotic_region(self):
        # |z| >> 1, where w ~ i/(sqrt(pi) z) and Im w is the small part; the
        # branch transform's last node, z ~ e^40/2, reaches Im ~ 1e17 sqrt(2) sigma
        for re in (0.05, 1.0, 30.0, 100.0):
            for im in (1e2, 1e4, 1e6, 1e8, 1e11, 1e14, 1e17, 1e19):
                x = complex(re, im)
                ref = faddeeva_oracle(x)
                assert abs(faddeeva(x).imag - ref.imag) <= FADDEEVA_IM_REL_ERR * abs(ref.imag)
                assert abs(faddeeva(x) - ref) <= FADDEEVA_IM_REL_ERR * abs(ref)

    def test_im_matches_mpmath_on_a_dense_real_axis_grid(self):
        # Im w(x) = (2/sqrt(pi)) Dawson(x) on the real axis: 1,800
        # log-spaced points on [1e-3, 1e4] (7.2e-15 relative at worst)
        worst = 0.0
        for x in np.geomspace(1e-3, 1e4, 1800):
            z = complex(float(x), 0.0)
            ref = faddeeva_oracle(z).imag
            worst = max(worst, abs(faddeeva(z).imag - ref) / abs(ref))
        assert worst <= FADDEEVA_IM_REL_ERR

    def test_im_matches_mpmath_on_random_complex_draws(self):
        # 1,000 seeded draws, Re z log-uniform on [1e-3, 316] and Im z 0 or
        # log-uniform on [1e-4, 1e3] (7.4e-15 relative at worst)
        rng = random.Random(9)
        worst = 0.0
        for _ in range(1000):
            im = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-4.0, 3.0)
            z = complex(10.0 ** rng.uniform(-3.0, 2.5), im)
            ref = faddeeva_oracle(z).imag
            worst = max(worst, abs(faddeeva(z).imag - ref) / abs(ref))
        assert worst <= FADDEEVA_IM_REL_ERR

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError, match="Im z >= 0"):
            faddeeva(complex(1.0, -1e-3))


class TestGenBinomial:
    def test_values(self):
        assert gen_binomial(0.5, 0) == 1.0
        assert gen_binomial(0.5, 2) == pytest.approx(-1.0 / 8.0, rel=1e-15)
        assert gen_binomial(-0.5, 1) == pytest.approx(-0.5, rel=1e-15)

    def test_integer_case_matches_comb(self):
        for n in range(8):
            assert gen_binomial(7.0, n) == pytest.approx(math.comb(7, n), rel=1e-13)


class TestSemiInfExp:
    def test_constant(self):
        val, err = integrate_semiinf_exp(lambda z: 1.0, 1.0, 1.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert err >= 0.0

    def test_constant_from_zero(self):
        val, _ = integrate_semiinf_exp(lambda z: 1.0, 0.0, 2.0)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_branch_envelope_oracle(self):
        # oracle itself is good to ~1e-13; agreement is bounded by rel_tol
        val, _ = integrate_semiinf_exp(lambda z: math.sqrt(z * z - 1.0) / z, 1.0, 1.0)
        oracle = branch_integral_oracle(1.0)
        assert val == pytest.approx(oracle, rel=2e-10)
        sp, _ = scipy.integrate.quad(
            lambda z: math.sqrt(z * z - 1.0) / z * math.exp(-z), 1.0, np.inf
        )
        assert val == pytest.approx(sp, rel=1e-9)

    def test_monomials(self):
        # int_L^inf z^n e^(-d z) dz for n = 0, 1, 2
        lower, d = 0.7, 1.3
        e = math.exp(-d * lower)
        exact = [
            e / d,
            e * (lower / d + 1.0 / d**2),
            e * (lower**2 / d + 2.0 * lower / d**2 + 2.0 / d**3),
        ]
        for n, ref in enumerate(exact):
            val, _ = integrate_semiinf_exp(lambda z, n=n: z**n, lower, d)
            assert val == pytest.approx(ref, rel=DEFAULT_SETTINGS.rel_tol * 10)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
    def test_residue_identity(self, a, b):
        # int_1^inf sqrt(z^2-1)/z * a^2/(a^2 + b^2 z^2) dz, no exponential damping
        def f(z):
            return math.sqrt(z * z - 1.0) / z * a * a / (a * a + b * b * z * z)

        val, _ = integrate_semiinf_exp(f, 1.0, 0.0)
        ref = 0.5 * math.pi * (-1.0 + math.sqrt(1.0 + a * a / (b * b)))
        assert val == pytest.approx(ref, abs=1e-8)

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError):
            integrate_semiinf_exp(lambda z: 1.0, 0.0, -1.0)

    def test_constant_tail_raises_at_the_end_of_the_half_line(self):
        # unseeded, bisection of the last segment takes a node that rounds
        # to t = 1 before the segment narrows below the width floor
        with pytest.raises(QuadratureError, match=f"^{numerics._NON_DECAYING}$"):
            integrate_semiinf_exp(lambda z: 1.0, 1.0, 0.0)

    # the sine transform's openings: periods + 1, one segment per period
    # and the first period's two halves in u, on a window of
    # sine_openings - 1 periods of sin(zeta)
    @pytest.mark.parametrize("max_subdivisions, sine_openings", [(2, 7), (8, 8), (16, 10)])
    def test_one_cap_counts_bisected_segments_past_the_openings(
        self, max_subdivisions, sine_openings
    ):
        # on a tolerance neither run can meet, a seeded half-line integral
        # (four openings) and a sine transform each bisect max_subdivisions
        # segments past their openings, then raise
        end = (sine_openings - 1.5) * 2.0 * math.pi
        settings = QuadratureSettings(
            rel_tol=1e-300, abs_tol=0.0, max_subdivisions=max_subdivisions
        )
        runs = [
            (4, lambda: integrate_semiinf_exp(
                lambda z: 1.0 / (1.0 + z * z), 0.0, 0.5, settings, (1.0, 2.0, 5.0)
            )),
            (sine_openings, lambda: sine_transform_decaying(lambda z: math.exp(-z), 1.0, end, 0.0, settings)),
        ]
        for openings, run in runs:
            cap = openings + max_subdivisions - 1
            with KERNEL_PINS.counting("numerics._gk21") as passes:
                with pytest.raises(QuadratureError, match=f"^tolerance not met within {cap} "):
                    run()
            assert passes == [openings + max_subdivisions]


class TestSineTransform:
    def test_laplace_sine(self):
        val, _ = sine_transform_decaying(lambda z: math.exp(-z), 1.0, 40.0, 0.0)
        assert val == pytest.approx(0.5, rel=1e-11)

    def test_gaussian_oracle(self):
        val, _ = sine_transform_decaying(lambda z: math.exp(-z * z / 8.0), 2.0, 20.0, 0.0)
        oracle = sine_integral_oracle(lambda z: np.exp(-z * z / 8.0), 2.0, 60.0)
        assert val == pytest.approx(oracle, abs=1e-11)
        # Dawson-function closed form as a second, independent reference
        alpha = 1.0 / 8.0
        ref = float(scipy.special.dawsn(2.0 / (2.0 * math.sqrt(alpha)))) / math.sqrt(alpha)
        assert val == pytest.approx(ref, rel=1e-11)

    def test_one_over_zeta_regularization(self):
        val, _ = sine_transform_decaying(lambda z: math.exp(-z * z) / z, 1.0, 8.0, 0.0)
        oracle = sine_integral_oracle(lambda z: np.exp(-z * z) / z, 1.0, 30.0)
        assert val == pytest.approx(oracle, abs=1e-10)
        # known closed form: (pi/2) erf(1/2)
        assert val == pytest.approx(0.5 * math.pi * math.erf(0.5), rel=1e-10)

    def test_slow_exponential(self):
        # e^(-0.05 z) falls below 1e-17 only past z = 790: 127 periods
        val, _ = sine_transform_decaying(lambda z: math.exp(-0.05 * z), 1.0, 800.0, 0.0)
        assert val == pytest.approx(1.0 / (1.0 + 0.05**2), rel=1e-9)

    def test_bandwidth_pieces_keep_the_closed_form(self):
        # f = cos(3 z) e^(-z/2) has six half-periods in each half-period of
        # sin(z/2); seeded at each period of cos(3 z), the transform keeps
        # its closed form within its err
        k, b, a = 0.5, 3.0, 0.5
        ref = 0.5 * ((k + b) / (a * a + (k + b) ** 2) + (k - b) / (a * a + (k - b) ** 2))
        val, err = sine_transform_decaying(
            lambda z: math.cos(b * z) * math.exp(-a * z), k, 80.0, b
        )
        assert abs(val - ref) <= err
        assert val == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("max_subdivisions", [1, 4, 8, 28, 2000])
    @pytest.mark.parametrize("bandwidth", [0.0, 2.9, 40.0])
    def test_opening_segments(self, monkeypatch, max_subdivisions, bandwidth):
        # the window [0, end] is one G10/K21 run in u, zeta = w u^3 up to
        # u = 1 and affine beyond, w = 2 pi/max(k, bandwidth): seeded at
        # u = 1/2 and at the image 1 + (n - 1)/3 of every period edge n w
        # below end, whatever max_subdivisions is; a window of more than
        # 16 x max_subdivisions periods raises first
        runs = []
        adaptive_gk = numerics._adaptive_gk

        def recording_gk(f, a, b, settings, seeds=()):
            runs.append((a, b, sorted(seeds)))
            return adaptive_gk(f, a, b, settings, seeds)

        monkeypatch.setattr(numerics, "_adaptive_gk", recording_gk)
        settings = QuadratureSettings(rel_tol=1e-6, max_subdivisions=max_subdivisions)
        end = 8.0
        width = 2.0 * math.pi / max(1.0, bandwidth)

        def transform():
            return sine_transform_decaying(
                lambda z: math.exp(-z * z) / z, 1.0, end, bandwidth, settings
            )

        if math.ceil(end / width) > 16 * max_subdivisions:
            with pytest.raises(QuadratureError, match="periods exceed"):
                transform()
            assert runs == []
            return
        try:
            transform()
        except QuadratureError:
            pass  # a segment cap this low need not converge
        [(a, b, seeds)] = runs
        periods = math.ceil(end / width)
        assert a == 0.0
        assert b == pytest.approx(1.0 + (end / width - 1.0) / 3.0, rel=1e-15)
        assert seeds == [0.5] + [1.0 + (n - 1) / 3.0 for n in range(1, periods)]
        # the map takes each seed past u = 1 back onto its period edge
        assert all(
            width * (1.0 + 3.0 * (u - 1.0)) == pytest.approx(n * width, rel=1e-14)
            for n, u in enumerate(seeds[1:], start=1)
        )

    def test_short_window_ends_inside_the_cube(self, monkeypatch):
        # a window shorter than one period ends at u = (end/w)^(1/3), and
        # its seed at u = 1/2 stays where it lies inside the window
        runs = []
        adaptive_gk = numerics._adaptive_gk

        def recording_gk(f, a, b, settings, seeds=()):
            runs.append((a, b, seeds))
            return adaptive_gk(f, a, b, settings, seeds)

        monkeypatch.setattr(numerics, "_adaptive_gk", recording_gk)
        val, err = sine_transform_decaying(lambda z: 1.0, 1.0, math.pi, 0.0)
        [(a, b, seeds)] = runs
        assert (a, seeds) == (0.0, (0.5,))
        assert b == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)
        # int_0^pi sin(zeta) dzeta = 2
        assert abs(val - 2.0) <= err + 1e-15

    def test_small_k_takes_the_window_in_one_run(self, monkeypatch):
        # at k far below the bandwidth the seeds follow the bandwidth and
        # the window, not 3 pi/k: one run over a few dozen periods
        k = 1e-6
        runs = []
        adaptive_gk = numerics._adaptive_gk

        def recording_gk(f, a, b, settings, seeds=()):
            runs.append(len(seeds))
            return adaptive_gk(f, a, b, settings, seeds)

        monkeypatch.setattr(numerics, "_adaptive_gk", recording_gk)
        val, err = sine_transform_decaying(lambda z: math.exp(-z * z), k, 40.0, 1.0)
        assert len(runs) == 1 and runs[0] < 40
        # int_0^inf sin(k z) e^(-z^2) dz = D(k/2), Dawson's integral, ~ k/2
        ref = float(scipy.special.dawsn(k / 2.0))
        assert abs(val - ref) <= err + 1e-300
        assert val == pytest.approx(ref, rel=1e-12)

    def test_fast_wave_keeps_the_closed_form(self):
        # 1,273 periods of sin(200 z) under a broad Gaussian, each cancelling
        # down to the Gaussian's slope, still meet Dawson's closed form
        a, k = 1.0 / 32.0, 200.0
        val, err = sine_transform_decaying(lambda z: math.exp(-a * z * z), k, 40.0, 0.0)
        ref = float(scipy.special.dawsn(k / (2.0 * math.sqrt(a)))) / math.sqrt(a)
        assert abs(val - ref) <= err

    @given(
        log_k=st.floats(min_value=-6.0, max_value=math.log10(2e3)),
        log_b_over_k=st.floats(min_value=-2.0, max_value=2.0),
        sigma=st.floats(min_value=0.5, max_value=9.0),
        frac=st.floats(min_value=0.05, max_value=1.0),
    )
    @example(log_k=0.0, log_b_over_k=1.0, sigma=2.0, frac=1.0)
    @example(log_k=0.0, log_b_over_k=-1.0, sigma=2.0, frac=1.0)
    @example(log_k=math.log10(2e3), log_b_over_k=-2.0, sigma=9.0, frac=0.5)
    @example(log_k=-6.0, log_b_over_k=2.0, sigma=0.5, frac=1.0)
    def test_cube_map_meets_the_oracle_within_one_period(self, log_k, log_b_over_k, sigma, frac):
        # T_B's start, 2/(pi zeta) + zeta log zeta, under a Gaussian with a
        # cos(b zeta) term at b above or below k, over a window inside the
        # first period (and at most 60 sigma): all of it lies under the cube
        # zeta = w u^3.  The value lies within its err, plus a few roundings
        # the err does not count, of a 30-digit mpmath tanh-sinh integral.
        # The Simpson oracle's own rounding, about 1e-16 of the sum over its
        # 2e6 nodes, lies above most of these errs, so mpmath is the oracle
        k = 10.0**log_k
        b = k * 10.0**log_b_over_k
        a = 1.0 / (8.0 * sigma * sigma)
        end = frac * min(2.0 * math.pi / max(k, b), 60.0 * sigma)

        def f(z):
            return math.exp(-a * z * z) * (2.0 / (math.pi * z) + z * math.log(z) + math.cos(b * z))

        val, err = sine_transform_decaying(f, k, end, b)
        with mp.workdps(30):
            ref = float(mp.quad(
                lambda z: mp.sin(k * z) * mp.exp(-a * z * z)
                * (2 / (mp.pi * z) + z * mp.log(z) + mp.cos(b * z)),
                [0, end / 2, end],
            ))
        assert abs(val - ref) <= err + 4 * 2.0**-52 * abs(ref)

    def test_non_finite_result_raises(self):
        # a bare _adaptive_gk run sums a NaN node into (nan, nan); the transform
        # raises a typed error instead
        def nan_tail(z):
            return math.nan if z > 3.0 else math.exp(-z)

        assert all(map(math.isnan, numerics._adaptive_gk(nan_tail, 0.0, 40.0, DEFAULT_SETTINGS)))
        with pytest.raises(QuadratureError, match="not finite"):
            sine_transform_decaying(nan_tail, 1.0, 40.0, 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sine_transform_decaying(lambda z: math.exp(-z), 0.0, 40.0, 0.0)

    def test_period_cap_message_stays_short(self):
        # a window of ~1.6e299 periods: the count prints in six digits, not 300
        with pytest.raises(QuadratureError) as info:
            sine_transform_decaying(lambda z: 1.0, 1.0, 1e300, 0.0)
        assert str(info.value) == (
            "sine transform at k = 1.0: 1.59155e+299 periods exceed 16 x max_subdivisions"
        )
        assert len(str(info.value)) < 200

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_linearity(self, alpha, beta):
        def f(z):
            return math.exp(-z)

        def g(z):
            return math.exp(-z * z / 4.0)

        lhs, _ = sine_transform_decaying(lambda z: alpha * f(z) + beta * g(z), 1.5, 40.0, 0.0)
        fa, _ = sine_transform_decaying(f, 1.5, 40.0, 0.0)
        gb, _ = sine_transform_decaying(g, 1.5, 40.0, 0.0)
        assert lhs == pytest.approx(alpha * fa + beta * gb, rel=1e-8, abs=1e-11)


class TestGk21:
    # QUADPACK's qk21 constants, rounded to floats, against 30-digit mpmath

    @staticmethod
    def moment_gap(nodes, weights, center, j):
        """|sum of the rule's weights times x^j - int_-1^1 x^j dx| at 30 digits."""
        with mp.workdps(30):
            total = mp.mpf(center) if j == 0 else mp.mpf(0)
            for x, w in zip(nodes, weights):
                total += mp.mpf(w) * (mp.mpf(x) ** j + mp.mpf(-x) ** j)
            return abs(total - (mp.mpf(2) / (j + 1) if j % 2 == 0 else 0))

    def test_g10_nodes_are_the_roots_of_p10(self):
        with mp.workdps(30):
            for x in numerics._XGK21[1::2]:
                root = mp.findroot(lambda t: mp.legendre(10, t), mp.mpf(x))
                assert float(root) == x

    def test_k21_is_exact_through_degree_31(self):
        nodes, weights = numerics._XGK21, numerics._WGK21
        for j in range(32):
            assert self.moment_gap(nodes, weights, numerics._WGK21_CENTER, j) < 1e-15, j
        assert self.moment_gap(nodes, weights, numerics._WGK21_CENTER, 32) > 1e-13

    def test_g10_is_exact_through_degree_19(self):
        nodes, weights = numerics._XGK21[1::2], numerics._WG10
        for j in range(20):
            assert self.moment_gap(nodes, weights, 0.0, j) < 1e-15, j
        assert self.moment_gap(nodes, weights, 0.0, 20) > 1e-8

    def test_err_is_the_pair_gap(self):
        # a degree-20 polynomial: K21 exact, G10 off by its leading term's
        # quadrature error, scaled by the half-width of [1, 3]
        val, err = numerics._gk21(lambda z: (z - 2.0) ** 20, 1.0, 3.0)
        assert val == pytest.approx(2.0 / 21.0, rel=1e-14)
        g10 = sum(
            w * ((-x) ** 20 + x ** 20)
            for x, w in zip(numerics._XGK21[1::2], numerics._WG10)
        )
        assert err == pytest.approx(abs(2.0 / 21.0 - g10), rel=1e-10)

    def test_width_floor_raises(self):
        # 1/z is not integrable at 0: bisection narrows the first segment
        # below 2^-45 without meeting the tolerance
        with pytest.raises(QuadratureError, match="^bisection reached the width floor at "):
            numerics._adaptive_gk(lambda z: 1.0 / z, 0.0, 1.0, DEFAULT_SETTINGS)

    def test_subnormal_floor_counts_21_nodes(self):
        # a subnormal value gets at least one grid step 2^-1074 per node
        _, err = numerics._adaptive_gk(lambda z: 1e-310 * z, 0.0, 1.0, DEFAULT_SETTINGS)
        assert err >= 21 * 2.0 ** -1074


class TestSqrtEndpoint:
    """int_a^inf exp(-lam (k - centre)^2) w(k) dk/sqrt(k^2 - a^2), on the tau rule.

    With w(k) = k and centre 0, s = k^2 - a^2 gives the closed form
    int_0^inf exp(-lam (s + a^2)) ds/(2 sqrt(s)) = sqrt(pi/lam) exp(-lam a^2)/2.
    """

    def test_shifted_gamma_half(self):
        val, err = integrate_sqrt_endpoint(lambda k: k, 1.0, 0.0, 1.0)
        ref = 0.5 * math.sqrt(math.pi) * math.exp(-1.0)
        assert abs(val - ref) <= err <= 1e-10 * ref
        # substitution-free adaptive oracle in k, offset 1e-12 past the endpoint
        brute, _ = scipy.integrate.quad(
            lambda k: math.exp(-k * k) * k / math.sqrt(k * k - 1.0), 1.0 + 1e-12, 60.0, limit=400
        )
        assert val == pytest.approx(brute, abs=1e-6)

    def test_gamma_half_at_origin(self):
        # the endpoint near the origin, as at a barrier of 1e-16 mu c^2: in
        # tau the integrand runs flat from 0 to the Gaussian's reach
        val, err = integrate_sqrt_endpoint(lambda k: k, 1e-8, 0.0, 1.0)
        ref = 0.5 * math.sqrt(math.pi) * math.exp(-1e-16)
        assert abs(val - ref) <= err <= 1e-10 * ref

    def test_shifted_decay_two(self):
        val, err = integrate_sqrt_endpoint(lambda k: k, 2.0, 0.0, 2.0)
        ref = 0.5 * math.sqrt(math.pi / 2.0) * math.exp(-8.0)
        assert abs(val - ref) <= err <= 1e-10 * ref


class TestSqrtEndpointMap:
    """The tau rule's window, a narrow core far from the endpoint, and its typed failures.

    Against it, the same integrals in u = sqrt(k - a), k = a + u^2, on
    integrate_semiinf_exp: dk/sqrt(k^2 - a^2) = 2 du/sqrt(k + a), and its map
    t = u/(1 + u) takes the half line onto [0, 1).
    """

    def test_seeds_map_to_u(self):
        # k-seeds s bracket a peak of width 0.01 at k = 9 out to 8 widths and
        # mark u = sqrt(s - a) for the u-form; one at or below a is dropped.
        # The u-form and the tau rule agree within their errs.
        def h(u):
            k = 1.0 + u * u
            return 2.0 * math.exp(-1e4 * (k - 9.0) ** 2) / math.sqrt(k + 1.0)

        peak = (0.5, 1.0) + tuple(9.0 + 0.01 * j for j in range(-8, 9, 2))
        u_seeds = tuple(math.sqrt(k - 1.0) for k in peak if k > 1.0)
        val_u, err_u = integrate_semiinf_exp(h, 0.0, 0.0, DEFAULT_SETTINGS, u_seeds)
        val, err = integrate_sqrt_endpoint(lambda k: 1.0, 1.0, 9.0, 1e4)
        assert abs(val - val_u) <= err + err_u, (val, val_u)
        assert val_u == pytest.approx(0.01 * math.sqrt(math.pi / 80.0), rel=1e-5)

    def test_narrow_core_far_from_the_endpoint(self):
        # a core of width 0.01 at k = 9: exp(-(100 (k - 9))^2) dk/sqrt(k^2 - 1)
        # is within 1e-7 relative the Gaussian's 0.01 sqrt(pi) over sqrt(80),
        # and scipy's quad in k around the core checks the rest
        val, err = integrate_sqrt_endpoint(lambda k: 1.0, 1.0, 9.0, 1e4)
        brute, _ = scipy.integrate.quad(
            lambda k: math.exp(-1e4 * (k - 9.0) ** 2) / math.sqrt(k * k - 1.0),
            8.8, 9.2, epsabs=0.0, epsrel=1e-13, limit=400,
        )
        assert abs(val - brute) <= err + 1e-13 * brute
        assert val == pytest.approx(0.01 * math.sqrt(math.pi / 80.0), rel=1e-5)

    def test_wider_window_moves_the_value_within_its_err(self, monkeypatch):
        # nodes past the cut weigh below e^-40 of the largest: doubling the
        # cut moves the value by less than the err
        cases = [(lambda k: k, 1.0, 0.0, 1.0), (lambda k: 1.0 + k * k, 0.5, 3.0, 8.0)]
        for w, a, centre, lam in cases:
            val, err = integrate_sqrt_endpoint(w, a, centre, lam)
            monkeypatch.setattr(numerics, "_TAU_CUT", 80.0)
            wide, _ = integrate_sqrt_endpoint(w, a, centre, lam)
            monkeypatch.setattr(numerics, "_TAU_CUT", 40.0)
            assert abs(wide - val) <= err

    def test_non_decaying_tail_raises(self):
        # a w that is infinite past k = 3 leaves no finite sum
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_sqrt_endpoint(lambda k: math.inf if k > 3.0 else 1.0, 1.0, 2.0, 0.5)

    def test_tail_reaching_t_one_raises_typed_error(self):
        # a bare inverse square root in k is the constant 2 in u, which does
        # not decay: with the seed at k = 4.75, bisection reaches a node at
        # t = 1.0, where the map divides by zero
        message = "integrand does not decay: bisection reached the end of the half line"
        with pytest.raises(QuadratureError, match=f"^{message}$"):
            integrate_semiinf_exp(lambda u: 2.0, 0.0, 0.0, DEFAULT_SETTINGS, (math.sqrt(4.75),))

    def test_window_too_narrow_for_exact_nodes_raises(self):
        # a Gaussian of width 1e-20 at k = 2 spans less than 2^-30 of its
        # tau: a typed error, where a zero step would divide by zero
        with pytest.raises(QuadratureError, match="too narrow for exact nodes"):
            integrate_sqrt_endpoint(lambda k: 1.0, 1.0, 2.0, 1e40)

    def test_jump_reaches_the_node_cap(self):
        # a jump in w leaves the trapezoid rule first order: the steps halve
        # until the node cap raises
        with pytest.raises(QuadratureError, match="tau rule needs more than 16384 nodes"):
            integrate_sqrt_endpoint(lambda k: 2.0 if k > 2.0 else 1.0, 1.0, 2.0, 1.0)



def momentum_w(v0: float, sigma: float) -> callable:
    """The momentum route's tau-integrand over its Gaussian, in complex k:
    sqrt(2 sigma^2/pi) E sqrt((E + 1 + v0)/(E + 1 - v0)), E = sqrt(k^2 + 1),
    on the principal branches, which are analytic for |Im tau| < pi/4."""
    pref = sigma * math.sqrt(2.0 / math.pi)

    def w(k: complex) -> complex:
        e_k = cmath.sqrt(k * k + 1.0)
        return pref * e_k * cmath.sqrt((e_k + 1.0 + v0) / (e_k + 1.0 - v0))

    return w


class TestStripBound:
    """The tau rule's truncation bound: its two lemmas in the strip
    |Im tau| < pi/4 and the closed-form M on the lines Im tau = +-d."""

    def test_gaussian_modulus_in_the_strip(self):
        # |exp(-lam (k_y - c)^2)| = exp(-lam (k - c)^2 + lam E_y(k)) exactly,
        # k_y = a cosh(tau + i y), k = a cosh(tau)
        rng = random.Random(38)
        for _ in range(20000):
            a, c = 10.0 ** rng.uniform(-6.0, 1.0), rng.uniform(-6.0, 8.0)
            lam = 10.0 ** rng.uniform(-2.0, 3.0)
            y, tau = rng.uniform(0.0, 0.78), rng.uniform(0.0, 5.0)
            k = a * math.cosh(tau)
            k_y = a * cmath.cosh(complex(tau, y))
            exponent = (2.0 * k * k - a * a) * math.sin(y) ** 2 - 2.0 * c * k * (1.0 - math.cos(y))
            closed = -lam * (k - c) ** 2 + lam * exponent
            exact = (-lam * (k_y - c) ** 2).real
            scale = 1.0 + lam * (k + abs(c)) ** 2
            assert abs(exact - closed) <= 1e-11 * scale, (a, c, lam, y, tau)

    def test_momentum_w_holds_the_contract(self):
        # |w(k_y)| <= sqrt((2 + v0)/(2 - v0)) w(k) for |y| <= pi/4; w rises
        # with k while w/k falls
        rng = random.Random(39)
        for _ in range(20000):
            v0, sigma = rng.uniform(1e-12, 0.999), rng.uniform(0.2, 12.0)
            a = math.sqrt(v0 * (2.0 + v0))
            tau, y = rng.uniform(0.0, 8.0), rng.uniform(-math.pi / 4, math.pi / 4)
            w = momentum_w(v0, sigma)
            k = a * math.cosh(tau)
            bound = math.sqrt((2.0 + v0) / (2.0 - v0)) * w(k).real
            assert abs(w(a * cmath.cosh(complex(tau, y)))) <= bound, (v0, sigma, tau, y)
            k2 = k * (1.0 + rng.uniform(0.0, 2.0))
            assert w(k).real <= w(k2).real and w(k2).real / k2 <= w(k).real / k * (1.0 + 1e-15)

    @given(
        sigma=st.floats(min_value=0.2, max_value=12.0),
        v0=st.floats(min_value=1e-12, max_value=0.999),
        k0=st.floats(min_value=0.01, max_value=6.0),
        sign=st.sampled_from((1, -1)),
        d=st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.75)),
    )
    @example(sigma=2.0, v0=0.566334, k0=1.209351, sign=1, d=None)
    @example(sigma=6.0, v0=0.99, k0=1.05, sign=1, d=None)
    @example(sigma=0.2, v0=1e-12, k0=0.01, sign=1, d=0.75)
    @example(sigma=12.0, v0=0.999, k0=6.0, sign=-1, d=None)
    def test_closed_form_mass_covers_the_line_integral(self, sigma, v0, k0, sign, d):
        # strip w(k_ref) e^(ln B) >= int_0^inf |f(tau + i d)| dtau, the latter
        # by scipy's quad on the complex integrand, at the rule's own d (None)
        # or a drawn one; both are scaled by the bound, so nothing overflows
        a, centre, lam = math.sqrt(v0 * (2.0 + v0)), sign * k0, 2.0 * sigma * sigma
        if d is None:
            d = numerics._strip_width(a, centre, lam, DEFAULT_SETTINGS.rel_tol)
        log_mass, _, k_ref = numerics._strip_bound(a, centre, lam, d)
        w = momentum_w(v0, sigma)
        strip = math.sqrt((2.0 + v0) / (2.0 - v0))
        c2 = math.cos(2.0 * d)
        b = centre * math.cos(d) / c2
        k_m = max(a, b)

        def line(tau: float) -> float:
            k_d = a * cmath.cosh(complex(tau, d))
            return math.exp((-lam * (k_d - centre) ** 2).real - log_mass) * abs(w(k_d))

        peak = math.acosh(k_m / a)
        end = math.acosh((k_m + math.sqrt(800.0 / (lam * c2))) / a) + 1.0
        pieces = [0.0, peak, end] if peak > 0.0 else [0.0, end]
        mass = sum(
            scipy.integrate.quad(line, lo, hi, epsabs=0.0, epsrel=1e-10, limit=400)[0]
            for lo, hi in zip(pieces, pieces[1:])
        )
        assert mass <= strip * w(k_ref).real, (mass, strip * w(k_ref).real)


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)

    def test_deterministic(self):
        vals = {
            sine_transform_decaying(lambda z: math.exp(-z * z / 2.0), 1.7, 20.0, 0.0)[0]
            for _ in range(3)
        }
        assert len(vals) == 1
