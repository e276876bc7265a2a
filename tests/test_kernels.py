"""Kernel factors against brute-force oracles and limit identities."""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import math
import operator
import random
import re
import sys
import threading
import warnings

import mpmath as mp
from mpmath import libmp
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from conftest import branch_integral_oracle, contour_kernel_oracle, load_by_path, run_fresh
from reltoa import ior, kernels
from reltoa.ior import _laplace_sine
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    barrier_factor,
    branch_integral,
    barrier_free_gap,
    fb_moments,
    fb_series,
    free_factor,
    gb_factor,
    momentum_kernel_f,
    momentum_kernel_g,
    region_kernel,
)
from reltoa.numerics import (
    QuadratureError,
    SeriesDivergenceError,
    hyp0f1_one,
)
from reltoa.wavepacket import GaussianPacket


# the pin script's call counter; the benchmark's oracles share no code
# with the library's kernels
KERNEL_PINS = load_by_path("scripts/kernel_pins.py", "kernel_pins")
ORACLES = load_by_path("perfbench/oracles.py", "perfbench_oracles")
EPS = 2.0**-53  # unit roundoff


def spectral_kernel(v0: float, zeta: float) -> float:
    """T_B(-v0, zeta) by the spectral identity, through scipy's quadrature."""
    with warnings.catch_warnings():
        # QUADPACK's roundoff notes on single pieces, far below the gate
        warnings.simplefilter("ignore")
        return ORACLES.spectral_kernel(v0, zeta)


def highdigit_barrier_factor(v: float, zeta: float, count: int) -> float:
    """T_B(v, zeta) from `count` triple-sum D_p at 40 digits plus QUADPACK's
    branch integral: the residue series' own ordering, sharing no code with
    the moment form."""
    coeffs = ORACLES.residue_coeffs(v, count, 40)
    return ORACLES.barrier_factor_highdigit(v, [zeta], coeffs, 40)[0]


def race_matches_serial(grid, bits, serial, rounds, forget=None, meddle=False):
    """Each round, after forget(round) where given, four threads, switched
    every 1e-6 s, start together at a barrier and call bits at every point
    of grid, each in its own shuffled order; each thread's bits must equal
    serial's.  With meddle, one thread a round makes each call under
    mpmath's workdps(8)."""

    def sweep(seed, start, low_precision):
        order = grid[:]
        random.Random(seed).shuffle(order)
        start.wait()
        out = {}
        for point in order:
            with mp.workdps(8) if low_precision else contextlib.nullcontext():
                out[point] = bits(*point)
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for rnd in range(rounds):
                if forget is not None:
                    forget(rnd)
                start = threading.Barrier(4, timeout=60)
                futures = [pool.submit(sweep, 4 * rnd + i, start, meddle and i == rnd % 4)
                           for i in range(4)]
                for future in futures:
                    assert future.result(timeout=120) == serial, rnd
    finally:
        sys.setswitchinterval(interval)


class TestFreeFactor:
    def test_large_zeta_is_one(self):
        assert free_factor(200.0).value == pytest.approx(1.0, abs=1e-8)

    def test_oracle_at_one(self):
        ev = free_factor(1.0)
        ref = 1.0 + (2.0 / math.pi) * branch_integral_oracle(1.0)
        assert ev.value == pytest.approx(ref, rel=1e-9)
        assert ev.err < 1e-9

    def test_monotone_decreasing(self):
        assert free_factor(0.5).value > free_factor(1.0).value

    def test_small_zeta_divergence_scale(self):
        # T_F(zeta) ~ 1 + 2 hbar/(pi mu c zeta) as zeta -> 0+
        z = 1e-6
        assert free_factor(z).value == pytest.approx(
            2.0 / (math.pi * z), rel=1e-4
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            free_factor(0.0)


class TestGbFactor:
    def test_zero_height(self):
        for z in (1.0, 1.5, 7.0):
            assert gb_factor(0.0, z) == 1.0

    def test_even_in_v(self):
        assert gb_factor(0.3, 2.0) == gb_factor(-0.3, 2.0)

    @given(
        st.floats(min_value=-0.95, max_value=0.95),
        st.floats(min_value=1.0, max_value=40.0),
    )
    def test_even_in_v_property(self, v, z):
        # bit for bit: +v0 and -v0 share one branch-profile table
        assert gb_factor(v, z) == gb_factor(-v, z)

    def test_half_sum_oracle(self):
        # independent evaluation as the literal half-sum of both branches
        v, z = 0.3, 2.0
        vt = v / 1.0
        bracket = 1.0 - vt**2 / z**2 + 2j * math.sqrt(z**2 - 1.0) / z**2 * vt
        ref = 0.5 * (bracket**-0.5 + bracket.conjugate() ** -0.5)
        assert abs(ref.imag) < 1e-16
        assert gb_factor(v, z) == pytest.approx(ref.real, abs=1e-14)

    @pytest.mark.parametrize("v0, z", [
        (0.99999, 1.0 + 1e-8), (0.999, 1.0 + 1e-8), (-0.999, 1.0 + 1e-8), (0.99999, 1.0 + 1e-4),
    ])
    def test_keeps_its_digits_near_z_one_and_the_rest_energy(self, v0, z):
        # 1 - v^2/z^2 cancels as z -> 1 and v -> 1; Re[bracket^(-1/2)] of the
        # docstring at 40 digits, at the float z, is the reference
        with mp.workdps(40):
            zz, v = mp.mpf(z), mp.mpf(v0)
            bracket = 1 - v * v / (zz * zz) + 2j * v * mp.sqrt(zz * zz - 1) / (zz * zz)
            ref = float(mp.re(bracket ** mp.mpf(-0.5)))
        assert gb_factor(v0, z) == pytest.approx(ref, rel=1e-15)

    def test_rejects_z_below_one(self):
        with pytest.raises(ValueError):
            gb_factor(0.3, 0.5)

    @pytest.mark.parametrize(
        "v0, z, message",
        [
            (0.3, math.nan, "requires 1 <= z < inf"),
            (0.3, math.inf, "requires 1 <= z < inf"),
            (1.5, 2.0, "requires [|]v0[|] below the rest energy"),
        ],
    )
    def test_rejects_bad_arguments(self, v0, z, message):
        # the checks of the other kernel entries: a NaN or infinite z and a
        # strength at or above the rest energy raise instead of returning
        # a number
        with pytest.raises(ValueError, match=message):
            gb_factor(v0, z)


class TestFbSeries:
    def test_zero_height_is_one(self):
        for zeta in (0.0, 1.0, 7.5):
            assert fb_series(0.0, zeta).value == 1.0

    def test_nonrelativistic_limit(self):
        params = PhysicalParams(mu=1.0, c=1e6, hbar=1.0)
        val = fb_series(-0.3, 2.0, params).value
        assert val == pytest.approx(hyp0f1_one(-0.3 * 4.0 / 2.0), abs=1e-6)

    def test_triple_sum_oracle(self):
        # T_B = F_B + branch term against the (l, m, n) triple sum's D_p at 40
        # digits plus a QUADPACK branch integral; at +v0 this is the branch
        # term's only oracle.  Larger zeta is checked against the moment
        # integral in TestFbMomentForm.
        for v, zeta in [(-0.3, 1.0), (0.3, 1.0)]:
            tb = barrier_factor(v, zeta)
            ref = highdigit_barrier_factor(v, zeta, 14)
            assert tb.value == pytest.approx(ref, rel=1e-9)
            assert abs(tb.value - ref) <= tb.err

    def test_rejects_negative_zeta(self):
        with pytest.raises(ValueError):
            fb_series(-0.3, -1.0)

    def test_strong_barrier_error_is_tight(self):
        # F_B(-0.9, 1) is checked against the moment integral in
        # TestFbMomentForm; the whole kernel keeps a small error there too
        tb = barrier_factor(-0.9, 1.0)
        assert abs(tb.value - spectral_kernel(0.9, 1.0)) <= tb.err
        assert tb.err < 1e-9

    def test_rest_energy_scale_raises(self):
        # below the rest energy F_B is a value (next test); at and above it
        # the barrier is outside the kernel's domain
        for v in (-1.0, 1.0, 2.5):
            with pytest.raises(ValueError, match=r"^fb_series requires \|v0\| below"):
                fb_series(v, 1.0)
        with pytest.raises(ValueError, match=r"^barrier_factor requires \|v0\| below"):
            barrier_factor(1.0, 1.0)

    def test_rest_energy_scale_matches_spectral_oracle(self):
        # Fig. 5's barrier: the moment form has no convergence limit below
        # the rest energy, where the triple-sum coefficients stopped at p = 0
        tb = barrier_factor(-0.99, 1.0)
        ref = spectral_kernel(0.99, 1.0)
        assert abs(tb.value - ref) <= tb.err
        assert abs(tb.value - ref) <= 1e-12
        assert fb_series(-0.99, 1.0).err < 1e-14


def fb_moment_oracle(v: float, zeta: float, dps: int = 30):
    """F_B(v, zeta) as the moment integral of the crossing weight over s,

        (2/pi) int_0^kappa_c E/sqrt(1 - (E - a)^2) cos(zeta s) ds     (v < 0)
        (2/pi) int_0^x* E'/sqrt((E' + a)^2 - 1) cosh(zeta x) dx       (v > 0)

    with a = |v|, E = sqrt(1 + s^2) and E' = sqrt(1 - x^2), by tanh-sinh in
    a private mpmath context at dps digits.  The endpoint's inverse square
    root is left to tanh-sinh; the radicand is written in factors that stay
    non-negative up to it.  One piece per half oscillation of cos; cosh does
    not oscillate, so its pieces halve their distance to x* until that is
    below 1/zeta, across which cosh grows by at most e.  The real part is
    taken in that context (tanh-sinh may leave 0j), so sums with the other
    oracles stay at dps digits until a test converts them to a float."""
    ctx = mp.MPContext()
    ctx.dps = dps
    a = ctx.mpf(abs(v))
    if v < 0:
        reach = ctx.sqrt(2 * a + a * a)

        def f(s):
            e = ctx.sqrt(1 + s * s)
            # 1 - (E - a)^2 = (reach - s)(reach + s)(1 + E - a)/(1 + a + E)
            root = ctx.sqrt((reach - s) * (reach + s) * (1 + e - a) / (1 + a + e))
            return e / root * ctx.cos(zeta * s)

        pieces = max(1, math.ceil(zeta * float(reach) / math.pi))
        edges = [reach * i / pieces for i in range(pieces + 1)]
    else:
        reach = ctx.sqrt(2 * a - a * a)

        def f(x):
            e = ctx.sqrt(1 - x * x)
            # (E' + a)^2 - 1 = (reach - x)(reach + x)(E' + a + 1)/(E' + 1 - a)
            root = ctx.sqrt((reach - x) * (reach + x) * (e + a + 1) / (e + 1 - a))
            return e / root * ctx.cosh(zeta * x)

        halvings = math.ceil(math.log2(max(1.0, zeta * float(reach))))
        edges = [reach * (1 - ctx.mpf(2) ** -j) for j in range(halvings + 1)] + [reach]
    return ctx.re(2 / ctx.pi * ctx.quad(f, edges, method="tanh-sinh"))


class TestFbMomentForm:
    """F_B as a trapezoid rule in theta, against independent oracles."""

    @pytest.mark.parametrize("v0, zeta", [
        *((0.1, zeta) for zeta in (50.0, 71.6, 104.6, 140.2)),
        *((0.3, zeta) for zeta in (50.0, 100.0, 150.0)),
        *((v0, zeta) for v0 in (0.6, 0.9, 0.99) for zeta in (5.0, 20.0, 60.0)),
    ])
    def test_barrier_factor_matches_spectral_oracle(self, v0, zeta):
        # the wide packets' zeta range and barriers up to the rest energy,
        # where the triple-sum coefficients gave wrong values or none
        tb = barrier_factor(-v0, zeta)
        ref = spectral_kernel(v0, zeta)
        assert abs(tb.value - ref) <= tb.err
        assert tb.err <= 1e-12

    @pytest.mark.parametrize("v, zetas", [
        (-0.99, (0.0, 1.0, 20.0, 60.0)),
        (-0.6, (0.5, 2.5, 9.0)),
        (-0.1, (1.0, 140.2)),
        (-1e-6, (3.0,)),
        (0.1, (1.0, 140.2)),
        (0.6, (0.5, 20.0)),
        (0.9, (0.0, 5.0, 60.0)),
        (-0.3, (8.0, 40.0)),
        (-0.9, (1.0,)),
    ])
    def test_error_covers_moment_integral(self, v, zetas):
        for zeta in zetas:
            ref = fb_moment_oracle(v, zeta)
            est = fb_series(v, zeta)
            assert abs(est.value - ref) <= est.err, zeta
            assert est.err <= 2e-13 * max(1.0, abs(est.value)), zeta
            less, err = fb_minus_one(v, zeta)
            assert abs(less - (ref - 1)) <= err, zeta

    @pytest.mark.parametrize("v", [-0.3, 0.3, -0.6])
    def test_moments_match_triple_sum(self, v):
        # the series route's D_p against the (l, m, n) triple sum at 40 digits
        coeffs = list(itertools.islice(fb_moments(v), 40))
        refs = ORACLES.residue_coeffs(v, 12, 40)
        for p, ref in enumerate(refs):
            assert coeffs[p] == pytest.approx(float(ref), rel=1e-14), p
        # all 40 are moments of a positive weight, with the sign (-1)^p for
        # v < 0 and none for v > 0
        if v < 0:
            assert all((-1) ** p * d > 0 for p, d in enumerate(coeffs))
        else:
            assert all(d > 0 for d in coeffs)

    def test_general_units_against_moment_integral(self):
        # F_B(v, zeta; mu, c, hbar) = F_B(v/mu c^2, zeta mu c/hbar); the
        # general units meet 0F1 independently in the nonrelativistic limit
        params = PhysicalParams(mu=1.5, c=2.0, hbar=0.7)
        mu_c = params.mu * params.c
        for v, zeta in [(-0.3, 1.3), (0.3, 0.8)]:
            est = fb_series(v, zeta, params)
            ref = fb_moment_oracle(v / (mu_c * params.c), zeta * mu_c / params.hbar)
            assert abs(est.value - ref) <= est.err + 1e-15

    def test_overflow_and_rule_cap_raise_typed_errors(self):
        # F_B(+0.3, 1000) ~ cosh(714) exceeds the largest float
        with pytest.raises(SeriesDivergenceError, match="overflows"):
            fb_series(0.3, 1000.0)
        # ~1e6 oscillations of cos(zeta s) need more than the largest rule
        with pytest.raises(QuadratureError, match="rule intervals"):
            fb_series(-0.3, 1e6)
        # so does a size past the float range (1.2 zeta kappa_c > 1.8e308)
        with pytest.raises(QuadratureError, match="rule intervals"):
            fb_series(-0.999999, 1e308)

    def test_concurrent_threads_on_empty_caches_match_serial_bits(self):
        # strengths no other test uses, so their T_B cores, rules and
        # moments start empty
        grid = [(v0, zeta) for v0 in (-0.61, 0.61) for zeta in (0.5, 3.0, 20.0, 90.0)]

        def forget():
            for key in [key for key in kernels._TB_CORES if abs(key) == 0.61]:
                del kernels._TB_CORES[key]
            for key in [key for key in kernels._FB_RULES if abs(key[0]) == 0.61]:
                del kernels._FB_RULES[key]
            for key in [key for key in kernels._FB_MOMENTS if abs(key) == 0.61]:
                del kernels._FB_MOMENTS[key]

        def bits(v0, zeta):
            est = fb_series(v0, zeta)
            less, _err = fb_minus_one(v0, zeta)
            moments = itertools.islice(fb_moments(v0), 100)
            return est.value.hex(), est.err.hex(), less.hex(), [d.hex() for d in moments]

        forget()
        serial = {point: bits(*point) for point in grid}
        race_matches_serial(grid, bits, serial, 6, forget=lambda rnd: forget())

    def test_values_do_not_depend_on_earlier_calls(self):
        code = (
            "import itertools\n"
            "from reltoa.kernels import barrier_free_gap, fb_moments, fb_series\n"
            "for v, zeta in [(-0.1, 140.2), (0.3, 20.0), (-0.9, 5.0)]:\n"
            "    est = fb_series(v, zeta)\n"
            "    print(est.value.hex(), est.err.hex(), barrier_free_gap(-v, zeta).hex())\n"
            "    moments = itertools.islice(fb_moments(v), 70)\n"
            "    print(*(d.hex() for d in moments))\n"
        )
        fresh = run_fresh(code)
        # other zetas at the same strengths, the neighbouring rule sizes and a
        # longer moment table come first here
        for v in (-0.1, 0.3, -0.9):
            for zeta in (0.2, 9.0, 60.0, 160.0):
                fb_series(v, zeta)
                barrier_free_gap(-v, zeta)
            list(itertools.islice(fb_moments(v), 200))
        lines = []
        for v, zeta in [(-0.1, 140.2), (0.3, 20.0), (-0.9, 5.0)]:
            est = fb_series(v, zeta)
            lines.append(f"{est.value.hex()} {est.err.hex()} {barrier_free_gap(-v, zeta).hex()}")
            moments = itertools.islice(fb_moments(v), 70)
            lines.append(" ".join(d.hex() for d in moments))
        assert fresh.splitlines() == lines


@functools.lru_cache(maxsize=None)
def mp_branch_oracle(v0: float, zeta: float, dps: int = 30):
    """(2/pi) int_1^inf e^(-zeta z) sqrt(z^2-1)/z G_B(v0, z) dz in natural
    units, as an mpf, by tanh-sinh in a private mpmath context at dps digits.

    Taken in z = 1 + t^2, not the library's sinh variable, with G_B the
    half-sum Re[(z^2 - v0^2 + 2i v0 sqrt(z^2-1))/z^2]^(-1/2) of gb_factor's
    docstring; G_B(0, z) = 1 gives T_F - 1.  The pieces end at t = 16/sqrt(zeta),
    past which e^(-zeta t^2) < e^-256.
    """
    ctx = mp.MPContext()
    ctx.dps = dps
    v = ctx.mpf(v0)
    x = ctx.mpf(zeta)

    def f(t):
        z = 1 + t * t
        root = t * ctx.sqrt(2 + t * t)  # sqrt(z^2 - 1)
        g = ctx.re(((z * z - v * v + 2j * v * root) / (z * z)) ** ctx.mpf(-0.5))
        return root / z * g * ctx.exp(-x * t * t) * 2 * t

    scale = 1 / ctx.sqrt(x)
    edges = [0] + [scale * 4**i for i in range(-2, 4)] + [ctx.inf]
    return 2 / ctx.pi * ctx.exp(-x) * ctx.quad(f, edges)


# log-spaced from 1e-12 (the kernel's 2/(pi zeta) regime) to 160 (the wide
# packets' far end); scipy's forms lose digits of their own below
# ORACLE_ZETA_FLOOR, so there every factor meets the mpmath integrals alone
ORACLE_ZETAS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 4.0, 20.0, 160.0)
ORACLE_ZETA_FLOOR = {"free_factor_bessel": 1e-2, "spectral_kernel": 1e-4, "branch_integral": 1e-8}


class TestKernelFactorOracles:
    """T_F, T_B(-v0), the branch term and the gap, each within its err of
    independent oracles from zeta = 1e-12 to 160."""

    def test_free_factor(self):
        for zeta in ORACLE_ZETAS:
            tf = free_factor(zeta)
            assert abs(tf.value - float(1 + mp_branch_oracle(0.0, zeta))) <= tf.err, zeta
            if zeta >= ORACLE_ZETA_FLOOR["free_factor_bessel"]:
                with warnings.catch_warnings():
                    # QUADPACK's roundoff note near the K_1 pole, far below the gate
                    warnings.simplefilter("ignore")
                    bessel = ORACLES.free_factor_bessel(zeta)
                assert abs(tf.value - bessel) <= tf.err, zeta

    @pytest.mark.parametrize("v0", [0.1, 0.3, 0.6, 0.9, 0.99])
    def test_barrier_factor_branch_term_and_gap(self, v0):
        for zeta in ORACLE_ZETAS:
            branch_ref = mp_branch_oracle(v0, zeta)
            fb_ref = fb_moment_oracle(-v0, zeta)
            # the branch term at both signs, since G_B is even in v0
            for sign in (-1.0, 1.0):
                br, br_err = branch_integral(sign * v0, zeta, NATURAL_UNITS)
                assert abs(br - float(branch_ref)) <= br_err, (sign, zeta)
            if zeta >= ORACLE_ZETA_FLOOR["branch_integral"]:
                assert abs(br - ORACLES.branch_integral(v0, zeta)) <= br_err, zeta
            tb = barrier_factor(-v0, zeta)
            assert abs(tb.value - float(fb_ref + branch_ref)) <= tb.err, zeta
            if zeta >= ORACLE_ZETA_FLOOR["spectral_kernel"]:
                assert abs(tb.value - spectral_kernel(v0, zeta)) <= tb.err, zeta
            # the gap returns no err: its parts' errs and the rounding of
            # their sum bound it
            gap = barrier_free_gap(v0, zeta)
            gap_ref = 1 - fb_ref + mp_branch_oracle(0.0, zeta) - branch_ref
            assert abs(gap - float(gap_ref)) <= gap_bound(-v0, zeta, gap), zeta

    @pytest.mark.parametrize("v0", [0.3, 0.9, 0.99])
    def test_barrier_factor_at_plus_v0(self, v0):
        # T_B(+v0), the region-II kernel (the kernel command's t_barrier_plus
        # column): F_B's cosh rule plus the branch term, whose G_B is even
        for zeta in (1e-8, 1e-2, 4.0, 160.0):
            tb = barrier_factor(v0, zeta)
            ref = fb_moment_oracle(v0, zeta) + mp_branch_oracle(v0, zeta)
            assert abs(tb.value - float(ref)) <= tb.err, zeta

    def test_barrier_factor_at_plus_v0_up_to_overflow(self):
        # F_B's cosh rule up to the largest zeta whose sum is a float (it
        # raises from 994.87), where its rounding bound, scaled last, overflowed
        for zeta in (990.0, 993.5, 994.86):
            fb_ref = fb_moment_oracle(0.3, zeta)
            tb = barrier_factor(0.3, zeta)
            assert math.isfinite(tb.err), zeta
            assert abs(tb.value - float(fb_ref + mp_branch_oracle(0.3, zeta))) <= tb.err, zeta
            less, err = fb_minus_one(0.3, zeta)
            assert math.isfinite(err), zeta
            assert abs(less - float(fb_ref - 1)) <= err, zeta

    @pytest.mark.parametrize("v0", [0.0, 0.3, 0.99])
    def test_branch_term_where_exp_is_subnormal(self, v0):
        # from e^-x's underflow into the subnormal range (x ~ 708) to the
        # last x where it is not 0.0 (745.13), the term rounds on the grid
        # 2^-1074 and its err must cover that; compared at 30 digits
        for zeta in (*(700.0 + 5.0 * i for i in range(10)), 724.16, 735.18):
            br, br_err = branch_integral(v0, zeta, NATURAL_UNITS)
            assert abs(mp_branch_oracle(v0, zeta) - br) <= br_err, zeta

    def test_general_units_through_the_scaling_identity(self):
        # T(v0, zeta; mu, c, hbar) = T(v0/(mu c^2), zeta mu c/hbar; 1, 1, 1)
        params = PhysicalParams(mu=1.5, c=2.0, hbar=0.7)
        rest, scale = params.rest_energy, params.mu * params.c / params.hbar
        for vn, x in [(0.3, 1e-10), (0.9, 0.5), (0.6, 20.0), (0.99, 3.0)]:
            v0, zeta = vn * rest, x / scale
            tf = free_factor(zeta, params)
            assert abs(tf.value - float(1 + mp_branch_oracle(0.0, x))) <= tf.err, x
            br, br_err = branch_integral(-v0, zeta, params)
            assert abs(br - float(mp_branch_oracle(vn, x))) <= br_err, x
            tb = barrier_factor(-v0, zeta, params)
            ref = fb_moment_oracle(-vn, x) + mp_branch_oracle(vn, x)
            assert abs(tb.value - float(ref)) <= tb.err, x

    def test_rule_at_its_node_cap_raises(self):
        # below zeta ~ 4e-221 the rule would need more than its node cap (and
        # its last node's s^2 would overflow from ~3e-153 down)
        with pytest.raises(QuadratureError, match="needs more than 4096 rule nodes"):
            free_factor(1e-300)

    def test_rule_next_to_the_rest_energy_reaches_its_node_cap(self):
        # from x ~ 545.69, where the step h/2 halves to 2^-7, the rule needs
        # more than 4096 nodes within 2^-47 of the rest energy, up to exp's
        # underflow at 745.13; T_B(-v) skips the sum there and answers.
        # Twice as far from it, at 1 - 2^-46, the rule answers up to 745.13
        edge, inside = 1.0 - 2.0**-52, 1.0 - 2.0**-46
        message = "^branch-cut integral at x = 562.34 needs more than 4096 rule nodes$"
        for call in (lambda: branch_integral(edge, 562.34, NATURAL_UNITS),
                     lambda: barrier_free_gap(edge, 562.34)):
            with pytest.raises(QuadratureError, match=message):
                call()
        assert math.isfinite(barrier_factor(-edge, 562.34).value)
        for x in (600.0, 745.0):
            br, br_err = branch_integral(inside, x, NATURAL_UNITS)
            assert abs(br - float(mp_branch_oracle(inside, x))) <= br_err, x

    @pytest.mark.parametrize("v0", [0.0, 0.3, 0.99])
    def test_rule_reaches_down_to_its_overflow_edge(self, v0):
        # the branch rule answers down to natural zeta 2.81e-153 (v0 = 0.3
        # and 0.99) or 2.87e-153 (v0 = 0), where its last node's s^2 would
        # overflow
        above, below = 2.9e-153, 2.75e-153
        br, br_err = branch_integral(v0, above, NATURAL_UNITS)
        assert math.isfinite(br_err)
        assert abs(br - float(mp_branch_oracle(v0, above))) <= br_err
        calls = (lambda: kernels._tb_core(-v0).estimate(below)[0],
                 lambda: kernels._tb_core(-v0).value(below),
                 lambda: barrier_free_gap(v0, below))
        outcomes = {_value_or_error(call) for call in calls}
        assert outcomes == {
            f"QuadratureError: branch-cut integral at x = {below} needs rule nodes whose s^2 "
            "overflows a float"
        }

    def test_values_near_the_edge_do_not_depend_on_earlier_calls(self):
        # a node list extended to twice its length near the edge would reach
        # u ~ 711, where sinh overflows; a strength no other test uses
        for key in [key for key in kernels._BRANCH_NODES if key[0] == 0.37]:
            del kernels._BRANCH_NODES[key]
        later = branch_integral(0.37, 3.6e-153, NATURAL_UNITS)
        core = kernels._tb_core(0.37)
        assert core.branch_size(3.6e-153)[1] < core.branch_size(2.9e-153)[1]
        out = run_fresh(
            "from reltoa.kernels import NATURAL_UNITS, branch_integral\n"
            "print(*(f.hex() for z in (2.9e-153, 3.6e-153)"
            " for f in branch_integral(0.37, z, NATURAL_UNITS)))\n"
        )
        first = branch_integral(0.37, 2.9e-153, NATURAL_UNITS)
        assert out.split() == [f.hex() for f in first + later]

    def test_skipped_range(self):
        # zeta where T_F and T_B skip the branch-cut sum
        for zeta in (300.0, 700.0):
            tf = free_factor(zeta)
            assert abs(tf.value - float(1 + mp_branch_oracle(0.0, zeta))) <= tf.err, zeta
        for v0, zeta in [(-0.3, 300.0), (-0.3, 700.0), (0.3, 100.0), (0.3, 300.0), (0.3, 700.0)]:
            tb = barrier_factor(v0, zeta)
            assert kernels._branch_bound(0.3, zeta) < 0.25 * math.ulp(tb.err), (v0, zeta)
            ref = fb_moment_oracle(v0, zeta) + mp_branch_oracle(0.3, zeta)
            assert abs(tb.value - float(ref)) <= tb.err, (v0, zeta)


TWO_OVER_PI = 2.0 / math.pi
MIN_NORMAL, MIN_SUBNORMAL = 2.0**-1022, 2.0**-1074


def fb_rule_sum(vn: float, x: float, n: int, drop_unity: bool = False) -> float:
    """F_B(vn, x) (or F_B - 1) on the n-interval theta rule, summed here from
    kernels._fb_nodes: the fsum of w g C(x s), or that of w (g - 1) C(x s)
    -+ the fsum of 2 w S(x s/2)^2 (C, S = cos, sin for vn < 0, else cosh,
    sinh).  F_B(0, x) is 1 exactly."""
    if vn == 0.0:
        return 0.0 if drop_unity else 1.0
    fn, half_fn = (math.cos, math.sin) if vn < 0.0 else (math.cosh, math.sinh)
    nodes = kernels._fb_nodes(vn, n)
    if not drop_unity:
        return math.fsum([w * math.exp(ln_g) * fn(x * s) for s, ln_g, w in nodes])
    scaled = math.fsum([w * math.expm1(ln_g) * fn(x * s) for s, ln_g, w in nodes])
    halves = [(w, half_fn(0.5 * x * s)) for s, _ln_g, w in nodes]
    unity = math.fsum([2.0 * w * (t * t) for w, t in halves])
    return scaled - unity if vn < 0.0 else scaled + unity


def fb_rule_bound(vn: float, x: float, n: int, total: float, drop_unity: bool = False) -> float:
    """The rounding bound of the n-interval theta rule whose sum is total,
    composed here from kernels._fb_nodes in _FbRule.evaluate's operations:
    6 roundoffs per unit of the node values and of x s in C's argument;
    0 at vn = 0, where F_B is 1 with no rule."""
    if vn == 0.0:
        return 0.0
    nodes = kernels._fb_nodes(vn, n)
    y_max = x * nodes[-1][0]
    if vn > 0.0:
        # positive terms, each at most its weight times cosh(y_max); scaled
        # by 2^-53 first, so that the bound stays finite where the sum does
        size = 2.0 * EPS * math.cosh(y_max) if drop_unity else EPS * total
        return (6.0 + 6.0 * y_max) * size
    c = [w * math.exp(ln_g) for _s, ln_g, w in nodes]
    scale = 6.0 * math.fsum(c) + 6.0 * x * math.fsum([c_k * s for c_k, (s, _g, _w) in zip(c, nodes)])
    return EPS * (scale + (12.0 + 6.0 * y_max) if drop_unity else scale)


def fb_minus_one(vn: float, x: float) -> tuple[float, float]:
    """F_B - 1 at natural zeta x as the gap sums it, its a-priori rule's
    total(x, True), and that rule's rounding bound (fb_rule_bound); (0.0,
    0.0) at vn = 0, where F_B is 1 with no rule."""
    if not vn:
        return 0.0, 0.0
    less = kernels._tb_core(vn).rule(x).total(x, True)
    return less, fb_rule_bound(vn, x, kernels._tb_core(vn).fb_size(x), less, drop_unity=True)


def branch_rule_sum(a: float, x: float, level: int, gap: bool = False) -> float:
    """e^-x sum_k c_k e^(-x w_k) (d_k with gap) over the level's nodes below
    the branch cut, the integral int_1^inf sqrt(z^2-1)/z G(z) e^(-x z) dz on
    the step 2^-level, summed here from kernels._branch_nodes.

    The a-priori level m (the core's branch_size) ends at its node n,
    within a step of the cut; at a finer level the nodes run up to
    u = (n + 1/2) 2^-m, which passes the cut by less than the a-priori
    step."""
    envelope = math.exp(-x)
    if envelope == 0.0:
        return 0.0
    top, n = kernels._tb_core(a).branch_size(x)
    n = (2 * n + 1) << (level - top) >> 1
    w, c, d = kernels._branch_nodes(a, level, n)
    terms = [b * math.exp(-x * w_k) for w_k, b in zip(w[:n], d if gap else c)]
    return envelope * math.fsum(terms)


def rule_sizes(vn: float, x: float) -> tuple[int, int]:
    """The a-priori F_B rule intervals (0 at vn = 0, where F_B is 1 with no
    rule) and branch-cut level at (vn, x); the finer rules, which the tests
    check them against, are 2n and level + 1."""
    n = kernels._tb_core(vn).fb_size(x) if vn else 0
    return n, kernels._tb_core(vn).branch_size(x)[0]


def scaled_branch(a: float, x: float) -> tuple[float, float]:
    """branch_integral's (value, err) at strength a and natural zeta x, in
    its operations, the branch-cut sum always summed: the a-priori rule's
    sum, and an err of 2^-53 (24 + 2x) times the sum and 2^-53 twice its
    2/pi multiple, with two steps of 2^-1074 more where that is subnormal."""
    value = branch_rule_sum(a, x, kernels._tb_core(a).branch_size(x)[0])
    br_val = value * TWO_OVER_PI
    err = TWO_OVER_PI * (EPS * (24.0 + 2.0 * x) * value) + 2.0 * EPS * br_val
    return br_val, err + 2.0 * MIN_SUBNORMAL if br_val < MIN_NORMAL else err


def composed_barrier(vn: float, x: float) -> tuple[float, float]:
    """The T_B core's (value, err) as F_B plus the scaled branch-cut sum, the sum
    always formed: each value is its a-priori rule's sum and each err that
    rule's rounding bound.  Past x = 32, where the branch bound B is below a
    quarter-ulp of F_B's value, the sum leaves that value's bits alone (as
    checked here) and B takes the place of the branch term's err."""
    kernels._tb_core(vn).fb(x)  # F_B's typed errors, which T_B raises first
    n = rule_sizes(vn, x)[0]
    fb_val = fb_rule_sum(vn, x, n)
    fb_err = fb_rule_bound(vn, x, n, fb_val)
    br_val, br_err = scaled_branch(abs(vn), x)
    value = fb_val + br_val
    bound = kernels._branch_bound(abs(vn), x)
    if x > 32.0 and bound < 0.25 * math.ulp(fb_val):
        assert value == fb_val
        return value, fb_err + bound + EPS * abs(fb_val)
    return value, fb_err + br_err + EPS * abs(value)


# every branch-cut sum, counted per call
BRANCH_SUM = "kernels._TbCore.branch"


def _value_or_error(call) -> str:
    """call()'s float in float.hex, or its typed error's type and text."""
    try:
        return call().hex()
    except (QuadratureError, SeriesDivergenceError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBranchSkip:
    """Past natural zeta 32, T_F, T_B and the direct route's value-only T_B
    core skip the branch-cut sum only where it cannot change a bit of the
    value; T_F and T_B then add its bound B to their err."""

    @given(
        vn=st.floats(min_value=-0.999, max_value=0.999, exclude_min=True, exclude_max=True),
        x=st.floats(min_value=1.0, max_value=745.0),
    )
    # about each skip's onset (x ~ 34 at v = 0, 35-39 for v < 0) and past
    # exp's underflow
    @example(vn=0.0, x=34.2)
    @example(vn=-0.1, x=35.0)
    @example(vn=-0.1, x=40.0)
    @example(vn=-0.3, x=64.0)
    @example(vn=0.3, x=38.0)
    @example(vn=0.999, x=37.0)
    @example(vn=-0.99, x=745.0)
    def test_bits_match_composed_sum(self, vn, x):
        try:
            value, err = composed_barrier(vn, x)
        except (QuadratureError, SeriesDivergenceError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                kernels._tb_core(vn).estimate(x)
        else:
            got = kernels._tb_core(vn).estimate(x)
            assert [f.hex() for f in got] == [value.hex(), err.hex()]
        tf = free_factor(x)
        assert [tf.value.hex(), tf.err.hex()] == [f.hex() for f in composed_barrier(0.0, x)]

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.3, 0.6, 0.9, 0.99, 0.999])
    def test_bound_covers_branch_value_and_err(self, a):
        # from the kernel's 2/(pi zeta) regime to exp's underflow
        for i in range(400):
            x = 1e-3 * 745e3 ** (i / 399)
            val, err = branch_integral(a, x, NATURAL_UNITS)
            bound = kernels._branch_bound(a, x)
            assert abs(val) <= bound and err <= bound, x

    def test_skip_fires_past_the_guard(self):
        # the branch-cut sums of each call: none past the guard, one below it
        for sums, call in ((0, lambda: barrier_factor(-0.3, 100.0)),
                           (0, lambda: free_factor(100.0)),
                           (0, lambda: barrier_factor(0.0, 100.0)),
                           (1, lambda: barrier_factor(-0.3, 5.0)),
                           (1, lambda: free_factor(5.0))):
            with KERNEL_PINS.counting(BRANCH_SUM) as calls:
                call()
            assert calls == [sums]

    @given(
        x=st.floats(min_value=1e-6, max_value=750.0),
        params=st.sampled_from([NATURAL_UNITS, PhysicalParams(mu=1.5, c=2.0, hbar=0.7)]),
    )
    # about the skip's onset (x ~ 34), and past exp's underflow
    @example(x=34.0, params=NATURAL_UNITS)
    @example(x=35.0, params=NATURAL_UNITS)
    @example(x=70.0, params=NATURAL_UNITS)
    @example(x=745.0, params=NATURAL_UNITS)
    def test_free_factor_is_the_barrier_factor_at_zero_height(self, x, params):
        # x is natural zeta; T_F(zeta) = T_B(+-0, zeta), value and err
        zeta = x * params.hbar / (params.mu * params.c)
        tf = free_factor(zeta, params)
        expected = [tf.value.hex(), tf.err.hex()]
        for v0 in (0.0, -0.0):
            tb = barrier_factor(v0, zeta, params)
            assert [tb.value.hex(), tb.err.hex()] == expected, v0

    @given(
        vn=st.floats(min_value=-0.999, max_value=0.999, exclude_min=True, exclude_max=True),
        x=st.floats(min_value=-3.0, max_value=math.log10(760.0)).map(lambda t: 10.0**t),
    )
    # at the skip's onset for v < 0 (x ~ 35-39), where B sits within a few
    # ulps of F_B's value; where B is 6 ulps of F_B's value and the branch
    # term moves its last bit (x ~ 33.8); and past exp's underflow at 745
    @example(vn=-0.1, x=33.755)
    @example(vn=-0.3, x=33.795)
    @example(vn=-0.1, x=36.5)
    @example(vn=-0.3, x=36.0)
    @example(vn=-0.3, x=37.0)
    @example(vn=-0.9, x=37.5)
    @example(vn=-0.99, x=37.0)
    @example(vn=-0.99, x=38.0)
    @example(vn=-0.3, x=750.0)
    @example(vn=0.5, x=746.0)
    @example(vn=0.95, x=760.0)
    def test_value_core_matches_barrier_bits(self, vn, x):
        expected = _value_or_error(lambda: kernels._tb_core(vn).estimate(x)[0])
        assert _value_or_error(lambda: composed_barrier(vn, x)[0]) == expected
        got = _value_or_error(lambda: kernels._tb_core(vn).value(x))
        assert got == expected

    def test_value_core_skips_from_the_value_onset(self):
        # at (-0.1, 40) B is below a quarter-ulp of F_B's value, not of its
        # err; at (-0.1, 33.755) it is 6 ulps of the value
        with KERNEL_PINS.counting(BRANCH_SUM) as calls:
            got = kernels._tb_core(-0.1).value(40.0), barrier_factor(-0.1, 40.0)
        assert calls == [0]
        assert got[0] == got[1].value
        assert got[1].err >= kernels._branch_bound(0.1, 40.0)
        for call in (lambda: kernels._tb_core(-0.1).value(33.755),
                     lambda: barrier_factor(-0.1, 33.755)):
            with KERNEL_PINS.counting(BRANCH_SUM) as calls:
                call()
            assert calls == [1]


# strengths the T_B core test always draws: zero, Table 1's 0.3 and two next
# to the rest energy, at both signs
CORE_STRENGTHS = [0.0] + [sign * a for a in (0.3, 0.99, 0.999999) for sign in (-1.0, 1.0)]


def _least_reach(vn: float) -> float:
    """The natural zeta up to which the core of strength vn sums its held
    least F_B rule: where 1.2 x reach + 16 meets 20/eta (at least 32)."""
    core = kernels._tb_core(vn)
    return (core.least - 16.0) / (1.2 * core.reach)


class TestTbCore:
    """The per-strength T_B core: its value and err are the composed sums'
    bits, and its held least rule serves exactly where fb_size gives that
    rule's size (the direct route's integrand is checked in test_ior)."""

    @given(
        vn=st.one_of(
            st.sampled_from(CORE_STRENGTHS),
            st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        x=st.floats(min_value=math.log(1e-160), max_value=math.log(760.0)).map(math.exp),
    )
    # about the held least rule's reach, where the next rule takes over
    # (x ~ 16.05 at v = -0.3 and 18.7 at v = 0.3); where the branch rule's
    # last node would overflow s^2 (x below ~3e-153) and the node cap
    # (below ~4e-221); the skip's onset; exp's underflow; and v -> +1,
    # where F_B's rule passes its cap
    @example(vn=-0.3, x=_least_reach(-0.3) * (1.0 - 1e-9))
    @example(vn=-0.3, x=_least_reach(-0.3) * (1.0 + 1e-9))
    @example(vn=0.3, x=_least_reach(0.3) * (1.0 + 1e-9))
    @example(vn=-0.99, x=_least_reach(-0.99) * (1.0 + 1e-9))
    @example(vn=0.0, x=2.8e-153)
    @example(vn=-0.3, x=1e-200)
    @example(vn=-0.3, x=1e-160)
    @example(vn=-0.1, x=35.0)
    @example(vn=-0.999999, x=745.0)
    @example(vn=0.999999, x=1.0)
    def test_value_and_err_match_composed_barrier(self, vn, x):
        core = kernels._tb_core(vn)
        try:
            value, err = composed_barrier(vn, x)
        except (QuadratureError, SeriesDivergenceError) as exc:
            for call in (lambda: core.estimate(x), lambda: core.value(x)):
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    call()
            return
        assert [f.hex() for f in core.estimate(x)] == [value.hex(), err.hex()]
        assert core.value(x).hex() == value.hex()
        if x >= kernels._FINITE_S2_X:
            # branch_size checks s^2 of the rule's last node only below
            # _FINITE_S2_X; here that node lies within half a step above
            # the returned rule's last
            level, n = core.branch_size(x)
            last = core.delta * math.sinh((2 * n + 1) * 0.5 ** (level + 1))
            assert math.isfinite(last * last)

    @pytest.mark.parametrize("vn", [v for v in CORE_STRENGTHS if v])
    def test_rule_has_the_stated_size_about_the_least_reach(self, vn):
        # the held least rule serves up to its reach, and fb_size's rule on
        # from there
        core = kernels._tb_core(vn)
        if core.least_rule is None:  # past the cap every size raises
            with pytest.raises(QuadratureError, match="rule intervals"):
                core.rule(1.0)
            return
        reach = _least_reach(vn)
        for x in (reach * (1.0 - 1e-9), reach, reach * (1.0 + 1e-9), 2.0 * reach):
            assert len(core.rule(x).s) == core.fb_size(x) + 1, x


# the unit systems of the kernel and route tests
UNITS = [NATURAL_UNITS, PhysicalParams(mu=1.5, c=2.0, hbar=0.7),
         PhysicalParams(mu=0.7, c=1.3, hbar=1.1)]


def assert_beyond_branch_reach(vn: float, x: float, exc: QuadratureError) -> None:
    """exc is the branch-cut rule's node cap, raised inside the reach that
    _TbCore.branch_size states next to the rest energy: 1 - |vn| below
    2^-46 and x from the breakpoint (~545.69) where its step h/2 halves to
    2^-7."""
    assert "needs more than 4096 rule nodes" in str(exc), (vn, x, exc)
    assert 1.0 - abs(vn) < 2.0**-46 and x >= kernels._level_breaks()[3], (vn, x)


def _half_and_full(v0: float, zeta: float, params: PhysicalParams):
    """At (v0, zeta) in params: barrier_factor, the value core's T_B and
    barrier_free_gap(-v0) = T_F - T_B(v0), each with the finer rules' sum
    (the theta rule of twice the a-priori intervals and the branch-cut
    level above the a-priori one, summed here) and the err that bounds
    both; None where barrier_factor raises a typed error, after checking
    that both value cores raise it too, and None where only the gap's
    branch-cut sum raises, inside the rule's reach next to the rest energy,
    where T_B skips that sum and the value core gives its bits."""
    vn = kernels._strength(v0, params, "barrier_factor")
    x = kernels._natural_zeta(zeta, params, "barrier_factor")
    try:
        tb = barrier_factor(v0, zeta, params)
    except (QuadratureError, SeriesDivergenceError) as exc:
        for call in (lambda: kernels._tb_core(vn).value(x),
                     lambda: barrier_free_gap(-v0, zeta, params)):
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                call()
        return None
    try:
        n, level = rule_sizes(vn, x)
    except QuadratureError as exc:
        assert_beyond_branch_reach(vn, x, exc)
        assert kernels._tb_core(vn).value(x) == tb.value
        with pytest.raises(QuadratureError, match=f"^{re.escape(str(exc))}$"):
            barrier_free_gap(-v0, zeta, params)
        return None
    a = abs(vn)
    full = fb_rule_sum(vn, x, 2 * n) + TWO_OVER_PI * branch_rule_sum(a, x, level + 1)
    gap = barrier_free_gap(-v0, zeta, params)
    gap_full = (-fb_rule_sum(vn, x, 2 * n, True)
                + TWO_OVER_PI * branch_rule_sum(a, x, level + 1, True))
    half = kernels._tb_core(vn).value(x)
    return (vn, x), (half, full, tb), (gap, gap_full, gap_bound(vn, x, gap))


def gap_bound(vn: float, x: float, gap: float) -> float:
    """A bound on the error of gap = barrier_free_gap(-vn) at natural zeta x:
    F_B - 1's rounding bound (the core's fb), 2/pi times e^-x times the 1 - G_B
    rule's rounding bound (branch_rule_parts), and 2^-53 twice the scaled
    branch part and the gap, for the rounding of their 2/pi product and sum."""
    fb_err = fb_minus_one(vn, x)[1]
    envelope = math.exp(-x)
    if envelope == 0.0:
        return fb_err + 2.0 * EPS * abs(gap)
    value, _trunc, rounding = branch_rule_parts(abs(vn), x, True)
    br_gap, br_gap_err = envelope * value, envelope * rounding
    return fb_err + TWO_OVER_PI * br_gap_err + 2.0 * EPS * (TWO_OVER_PI * abs(br_gap) + abs(gap))


def branch_rule_parts(a: float, x: float, gap: bool) -> tuple[float, float, float]:
    """(T_2h, |T_h - T_2h|, T_2h's rounding bound) of the branch-cut rule
    T_2h at its a-priori level and the rule T_h one level finer, on its
    nodes up to half a step of T_2h past T_2h's last (branch_rule_sum),
    before the factor e^-x.  T_2h is formed in the core's branch operations,
    which must give its bits as e^-x T_2h.  The bound is summed term by
    term: per unit of a_k e^(-x w_k), a_k = c_k (|d_k| + c_k for the gap),
    12 + 2x roundoffs, and 8 per unit of x w_k (see the core's branch_term)."""
    level, n = kernels._tb_core(a).branch_size(x)

    def terms_of(level, n):
        w, c, d = kernels._branch_nodes(a, level, n)
        decay = [math.exp(-x * w_k) for w_k in w[:n]]
        terms = [b * e for b, e in zip(d if gap else c, decay)]
        scales = [c_k * e + abs(t) for c_k, e, t in zip(c, decay, terms)] if gap else terms
        return w, terms, scales

    w, terms, scales = terms_of(level, n)
    value = math.fsum(terms)
    rounding = EPS * ((12.0 + 2.0 * x) * sum(scales)
                      + 8.0 * x * sum(s * w_k for s, w_k in zip(scales, w)))
    assert math.exp(-x) * value == kernels._tb_core(a).branch(x, gap)
    finer = math.fsum(terms_of(level + 1, 2 * n + 1)[1])
    return value, abs(finer - value), rounding


def assert_rules_settled(vn: float, x: float) -> None:
    """At (vn, x), natural units, both rules at their a-priori sizes, for T_B
    and for the gap, lie within their own rounding bound of the rules with
    twice the nodes: the invariant that makes each rule's rounding bound its
    err, and lets each value take one pass.  A rule that raises a typed
    error is not checked."""
    try:
        n = kernels._tb_core(vn).fb_size(x) if vn else 0
    except QuadratureError:
        n = 0
    rules = (kernels._fb_rule(vn, n), kernels._FbRule(vn, 2 * n)) if n else ()
    for drop_unity in (False, True) if rules else ():
        try:
            value, finer = (r.total(x, drop_unity) for r in rules)
        except SeriesDivergenceError:
            continue
        # F_B's bound is the rule's own; F_B - 1 carries none, so the
        # test's copy (fb_rule_bound) stands in
        rounding = (fb_rule_bound(vn, x, n, value, True) if drop_unity
                    else rules[0].evaluate(x)[1])
        assert abs(finer - value) <= rounding, ("F_B", drop_unity)
    if math.exp(-x) == 0.0:
        return
    for gap in (False, True):
        try:
            _value, trunc, rounding = branch_rule_parts(abs(vn), x, gap)
        except QuadratureError:
            continue
        assert trunc <= rounding, ("branch", gap)


class TestHalfRuleValue:
    """Each kernel value is its rules' sum at their a-priori sizes, in one
    pass, with the rules' rounding bounds as the err: the T_B core's value
    gives its estimate's value bits, and barrier_free_gap the sum of its two
    rules.
    At those sizes each rule lies within its rounding bound of the rule
    with twice the nodes (assert_rules_settled)."""

    @given(
        v=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        x=st.floats(min_value=-6.0, max_value=math.log10(760.0)).map(lambda t: 10.0**t),
    )
    # strengths at zero and next to the rest energy, and x up to and past
    # exp's underflow at 745, where the mean comes nearest 3/2
    @example(v=0.0, x=740.0)
    @example(v=0.0, x=745.0)
    @example(v=0.999999, x=745.0)
    @example(v=-0.999999, x=1e-6)
    @example(v=-0.999999, x=745.0)
    # within 2^-47 of the rest energy, where the rule passes its node cap
    @example(v=-(1.0 - 2.0**-52), x=600.0)
    def test_laplace_mean_stays_below_three_halves(self, v, x):
        """x sum_k t_k w_k <= (3/2) sum_k t_k, t_k = c_k e^(-x w_k), on the
        a-priori rule's nodes: the bound that lets the branch term's err be
        a fixed multiple of its value.  The ratio is the Laplace mean of
        x (z - 1) under the weight sqrt(z^2-1)/z G_B, which starts as
        sqrt(2 (z - 1)) G_B(1) at z = 1, so by Watson's lemma it tends to
        Gamma(5/2)/Gamma(3/2) = 3/2 as x grows: from below, at v = 0 as
        1.5 (1 - 15/(8x))/(1 - 9/(8x)), and lower where |v| -> 1 stretches
        G_B's rise.  So the err is at least the rule's rounding bound
        summed term by term (branch_rule_parts), and that bound settles the
        rule (assert_rules_settled)."""
        a = abs(v)
        try:
            level, n = kernels._tb_core(a).branch_size(x)
        except QuadratureError as exc:
            assert_beyond_branch_reach(a, x, exc)
            return
        w, c, _d = kernels._branch_nodes(a, level, n)
        terms = [c_k * math.exp(-x * w_k) for w_k, c_k in zip(w[:n], c)]
        assert x * math.fsum(map(operator.mul, terms, w)) <= 1.5 * math.fsum(terms)
        br_val, br_err = branch_integral(v, x, NATURAL_UNITS)
        envelope = math.exp(-x)
        if envelope:
            rounding = branch_rule_parts(a, x, False)[2]
            assert br_err >= TWO_OVER_PI * (envelope * rounding) + 2.0 * EPS * br_val
        assert_rules_settled(v, x)

    @given(
        v=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        x=st.floats(min_value=-6.0, max_value=math.log10(750.0)).map(lambda t: 10.0**t),
        params=st.sampled_from(UNITS),
    )
    @example(v=0.0, x=2.0, params=NATURAL_UNITS)
    @example(v=-0.999999, x=750.0, params=UNITS[1])
    @example(v=0.999, x=1.0, params=UNITS[2])
    @example(v=-(1.0 - 2.0**-52), x=600.0, params=NATURAL_UNITS)
    def test_half_values_lie_within_err_of_the_full_rules(self, v, x, params):
        # x is natural zeta; the a-priori sizes make the rules' sums exact
        # to rounding, so each lies within its err of the finer rules' sum
        found = _half_and_full(v * params.rest_energy, x * params.hbar / (params.mu * params.c),
                               params)
        if found is None:
            return
        (vn, xn), (half, full, tb), (gap, gap_full, gap_err) = found
        assert_rules_settled(vn, xn)
        assert half == tb.value
        assert abs(half - full) <= tb.err
        assert abs(gap - gap_full) <= gap_err

    @hyp_settings(max_examples=6)
    @given(
        v=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        x=st.floats(min_value=-6.0, max_value=math.log10(750.0)).map(lambda t: 10.0**t),
        params=st.sampled_from(UNITS),
    )
    @example(v=-0.3, x=2.0, params=UNITS[1])
    @example(v=-(1.0 - 2.0**-52), x=600.0, params=NATURAL_UNITS)
    def test_half_values_lie_within_err_of_the_mpmath_oracles(self, v, x, params):
        found = _half_and_full(v * params.rest_energy, x * params.hbar / (params.mu * params.c),
                               params)
        if found is None:
            return
        (vn, xn), (half, _full, tb), (gap, _gap_full, gap_err) = found
        assert_rules_settled(vn, xn)
        # F_B(0, x) is 1 exactly; an int keeps the sums in the oracles' context
        fb_ref = fb_moment_oracle(vn, xn) if vn else 1
        branch_ref = mp_branch_oracle(abs(vn), xn)
        assert abs(half - float(fb_ref + branch_ref)) <= tb.err
        gap_ref = 1 - fb_ref + mp_branch_oracle(0.0, xn) - branch_ref
        assert abs(gap - float(gap_ref)) <= gap_err

    @pytest.mark.parametrize("vn, x, outcome", [
        # F_B's strength cap for v > 0: the a-priori rule is the cap, then past it
        (0.99938, 1.0, None),
        (0.9994, 1.0, QuadratureError),
        # x* rounds to 1 a few ulps below v = 1: F_B's strip is gone
        (1.0 - 2.0**-52, 1.0, QuadratureError),
        # zeta kappa_c ~ 27,300 for v < 0, on both sides
        (-0.3, 32853.0, None),
        (-0.3, 32866.0, QuadratureError),
        # zeta x* ~ 710.5 for v > 0, where F_B leaves the float range
        (0.3, 994.86, None),
        (0.3, 994.87, SeriesDivergenceError),
        # where the branch-cut rule's last node would overflow s^2 at small
        # zeta, and on both sides of where its level's nodes pass half the cap
        (0.0, 8e-154, QuadratureError),
        (-0.3, 8e-154, QuadratureError),
        (0.0, 3.4e-153, None),
        (-0.3, 5.2e-110, None),
        (-0.3, 5.4e-110, None),
    ])
    def test_value_cores_match_the_err_paths_at_the_caps(self, vn, x, outcome):
        # both paths take the rule sizes, and their typed errors, from
        # the core's fb_size and branch_size, and one pass of the rules
        # settles there
        expected = _value_or_error(lambda: kernels._tb_core(vn).estimate(x)[0])
        assert _value_or_error(lambda: kernels._tb_core(vn).value(x)) == expected
        assert expected.startswith(outcome.__name__) if outcome else "Error" not in expected
        branch_size = kernels._tb_core(vn).branch_size
        expected_gap = _value_or_error(
            lambda: -fb_minus_one(vn, x)[0]
            + TWO_OVER_PI * branch_rule_sum(abs(vn), x, branch_size(x)[0], True)
        )
        assert _value_or_error(lambda: barrier_free_gap(-vn, x)) == expected_gap
        assert_rules_settled(vn, x)


def laplace_sine_by_node(packet: GaussianPacket):
    """J(z) of the series route node by node, as the branch transform
    summed it before its far form: the library's w below the far form's z0,
    and the 8-term Laplace expansion by Horner's rule in r = (z - i k0)^-2
    from z0 >= z_8 up, within 2^-54 of J plus its rounding (3.8 units of
    roundoff at most against mpmath).  The oracle of the far sum that
    replaces it."""
    j, k0 = _laplace_sine(packet), packet.k0
    a = 1.0 / (8.0 * packet.sigma * packet.sigma)
    start = ior._laplace_far(packet)[0]
    factors = [-2.0 * a * (2 * q - 1) for q in range(7, 0, -1)]

    def exact(z: float) -> float:
        if z < start:
            return j(z)
        w = 1.0 / complex(z, -k0)
        r, acc = w * w, 1.0
        for factor in factors:
            acc = 1.0 + factor * r * acc
        return (w * acc).imag

    return exact


def lorentzian(x: float):
    return lambda z: x / (z * z + x)


# the two j families the library hands branch_transform, each (j, far form,
# j at every node): the series route's Laplace-sine J of a natural
# packet (sigma, k0), and the x/(z^2 + x) of the R_c resummation and the
# limits' residue identity; the members are the ones that came nearest their
# err in a wider sweep
TRANSFORM_FAMILIES = {
    "laplace_sine": [
        (_laplace_sine(packet), ior._laplace_far(packet), laplace_sine_by_node(packet))
        for packet in (GaussianPacket(0.0, sigma, k0)
                       for sigma, k0 in ((0.25, 5.0), (1.0, 0.01), (6.0, 0.1), (30.0, 0.1),
                                         (300.0, 0.01), (3000.0, 0.01)))
    ],
    "lorentzian": [
        (lorentzian(x), kernels._lorentzian_far(x), lorentzian(x))
        for x in (1e-6, 3e-5, 1e-4, 1e-2, 0.1, 1.0, 10.0, 3e4, 1e6)
    ],
}


def transform_rule(v: float, level: int | None = None) -> tuple[tuple, tuple]:
    """The nodes' w and c of branch_transform's rule of strength v, at its
    own level or at level, out to u = 40 + ln(1/delta)."""
    level = (2 if v >= 0.1 else 3) if level is None else level
    count = int((40.0 - math.log(1.0 - v)) * (1 << level))
    w, c, _d = kernels._branch_nodes(v, level, count)
    return w[:count], c[:count]


def rule_sum(v: float, j, level: int | None = None) -> float:
    """(2/pi) sum_k c_k j(z_k) over every node of transform_rule(v, level)."""
    w, c = transform_rule(v, level)
    return TWO_OVER_PI * math.fsum([c_k * j(1.0 + w_k) for w_k, c_k in zip(w, c)])


class TestBranchTransform:
    """branch_transform sums one rule, sized a priori from the strength
    alone: h = 2^-2 from v = 0.1 up, h = 2^-3 below, out to
    u = 40 + ln(1/delta); j at the nodes below its far form's z0, the far
    form's inverse-power sums from z0 on."""

    # (v, nodes): zero, both sides of the switch at 0.1 and next to the rest
    # energy, with the rule's node count
    @pytest.mark.parametrize("v, nodes", [
        (0.0, 320), (1e-6, 320), (1e-3, 320), (0.01, 320), (0.05, 320),
        (0.1, 160), (0.3, 161), (0.99, 178), (0.999999, 215),
    ])
    @pytest.mark.parametrize("family", sorted(TRANSFORM_FAMILIES))
    def test_sized_rule_lies_within_err_of_the_finest(self, family, v, nodes):
        # the h = 2^-6 rule out to u = 40 + ln(1/delta), summed here with j
        # at every node; below v = 0.1 the h = 2^-2 rule would miss it by up
        # to 163 units of roundoff, against the err's 12 and the tail's bound
        assert len(transform_rule(v)[0]) == nodes
        calls = [0]
        for j, far, exact in TRANSFORM_FAMILIES[family]:
            def counted(z, j=j):
                calls[0] += 1
                return j(z)

            value, err = kernels.branch_transform(v, counted, far)
            assert abs(value - rule_sum(v, exact, 6)) <= err
        # j calls over the family's members: every node below each z0,
        # against len(members) * nodes when every node called j
        assert calls[0] == BRANCH_J_CALLS[family][v]

    @pytest.mark.parametrize("v", [0.0, 0.05, 0.3, 0.99, 0.999999])
    @pytest.mark.parametrize("family", sorted(TRANSFORM_FAMILIES))
    def test_far_sum_lies_within_its_bound_of_the_node_sum(self, family, v):
        # the node sum is the same rule with j at every node, the oracle the
        # far sum replaces: they share their nodes' weights and the nodes
        # below z0, and the far sum departs from it by its own rounding
        # bound, the two sums' products and additions (12 units of the
        # value in err) and the truncation of the two forms, at most 2^-53
        # of the value (J's far form 2^-54 + 2^-56 and its Horner form
        # 2^-54 of J; the Lorentzian's 2^-63)
        z_last = 1.0 + transform_rule(v)[0][-1]
        for j, far, exact in TRANSFORM_FAMILIES[family]:
            value, err = kernels.branch_transform(v, j, far)
            tail = TWO_OVER_PI * far[1][0] / (z_last * math.sqrt((1.0 - v) * (1.0 + v)))
            assert abs(value - rule_sum(v, exact)) <= err - tail + EPS * value

    @pytest.mark.parametrize("a, k0", [(0.5, 2.0), (0.5, 5.0), (0.0139, 3.0), (2.0, 0.3),
                                       (1.25e-3, 0.9)])
    def test_far_coefficients_are_watsons(self, a, k0):
        # e_p = (2p - 1)! [zeta^(2p-1)] of sin(k0 zeta) times the 8 terms of
        # exp(-a zeta^2), which are all of exp(-a zeta^2) up to p = 8
        sigma = 1.0 / math.sqrt(8.0 * a)
        _start, coeffs = ior._laplace_far(GaussianPacket(0.0, sigma, k0))
        assert 8 <= len(coeffs) <= 16
        with mp.workdps(40):
            full = mp.taylor(lambda t: mp.sin(k0 * t) * mp.exp(-a * t * t), 0, 33)
            eight = mp.taylor(lambda t: mp.sin(k0 * t)
                              * sum((-a * t * t) ** m / mp.factorial(m) for m in range(8)), 0, 33)
            for p, e_p in enumerate(coeffs, start=1):
                ref = mp.factorial(2 * p - 1) * eight[2 * p - 1]
                assert abs(e_p - ref) <= 1e-14 * abs(ref), p
                if p <= 8:
                    assert eight[2 * p - 1] == full[2 * p - 1]
                assert (e_p > 0) == (p % 2 == 1)

    def test_far_forms_reach_sixteen_terms(self):
        # a packet whose kappa at z_8 needs more than 16 terms starts its far
        # form further out, where 16 do; Table 1's take 8 to 14 from z_8
        packet = GaussianPacket(0.0, 2.0, 5.86)
        a = 1.0 / (8.0 * packet.sigma ** 2)
        start, coeffs = ior._laplace_far(packet)
        assert len(coeffs) == 16 and start > ior._laplace_switch(a, packet.k0)
        for k0 in (2.0, 0.9, 3.0, 5.0, 0.15, 0.2, 0.25):
            table1 = GaussianPacket(0.0, 0.5, k0)
            start, coeffs = ior._laplace_far(table1)
            assert start == ior._laplace_switch(0.5, k0) and 8 <= len(coeffs) <= 14

    def test_more_far_terms_than_the_sums_hold_raise(self):
        j, (start, coeffs), _exact = TRANSFORM_FAMILIES["lorentzian"][0]
        with pytest.raises(ValueError, match="at most 16 far-form terms, got 17"):
            kernels.branch_transform(0.3, j, (start, coeffs + (0.0,)))

    def test_far_form_with_no_term_raises(self):
        # e_1 bounds the tail past the last node, so every far form carries it
        j, _far, _exact = TRANSFORM_FAMILIES["lorentzian"][0]
        with pytest.raises(ValueError, match="at least 1 and at most 16 far-form terms, got 0"):
            kernels.branch_transform(0.3, j, (math.inf, ()))

    @pytest.mark.parametrize("sigma, k0", [
        (0.5, 1e-10),   # k0 below 2^-30
        (1e-13, 1e-9),  # sigma k0 below ~1e-21: y^7 passes 2^960
        (0.5, 1e20),    # a coefficient past the float range
    ])
    def test_far_form_without_nodes_keeps_its_first_coefficient(self, sigma, k0):
        # each early exit of J's far form leaves J to every node, and still
        # hands on e_1 = k0, the bound J <= k0/z^2 the tail is taken from
        assert ior._laplace_far(GaussianPacket(0.0, sigma, k0)) == (math.inf, (k0,))

    def test_lorentzian_far_form_without_nodes_keeps_its_first_coefficient(self):
        # x^16 passes the float range from x ~ 1.9e19
        assert kernels._lorentzian_far(1e19)[0] < math.inf
        assert kernels._lorentzian_far(2e19) == (math.inf, (2e19,))

    # (v, x, value, err) of branch_transform(v, x/(z^2 + x), with x as its
    # bound and its far form) before lorentzian_transform owned it: the
    # nine x of the Lorentzian family at two strengths, the limits' three
    # residue identities, the R_c resummation cases of the classical tests
    # and a far form that no node takes
    LORENTZIAN_BITS = [
        (0.0, 1e-06, "0x1.0c6f75a5789d6p-21", "0x1.08697ca5fee10p-69"),
        (0.3, 1e-06, "0x1.0addd81dbba9fp-21", "0x1.aaa81b6819e5cp-70"),
        (0.0, 3e-05, "0x1.f7500d72665e8p-17", "0x1.efc6179cfa8b1p-65"),
        (0.3, 3e-05, "0x1.f45f06e0e8b45p-17", "0x1.8ffdbaf5db5e6p-65"),
        (0.0, 0.0001, "0x1.a36b7f88b3957p-15", "0x1.9d25b0654ce40p-63"),
        (0.3, 0.0001, "0x1.a0f7fbabdd6a7p-15", "0x1.4d53b412a2263p-63"),
        (0.0, 0.01, "0x1.46dd68287f358p-8", "0x1.430a4c7c1c43fp-56"),
        (0.3, 0.01, "0x1.44f3dbb2f1240p-8", "0x1.04874e8576492p-56"),
        (0.0, 0.1, "0x1.8fd792d4adeb4p-5", "0x1.4ee33d2008534p-53"),
        (0.3, 0.1, "0x1.8d7bc42797f7bp-5", "0x1.19ee89b4e320bp-53"),
        (0.0, 1.0, "0x1.a827999fcef33p-2", "0x1.ce807613c5dcep-51"),
        (0.3, 1.0, "0x1.a5999f0aedce1p-2", "0x1.a6d49cc41929bp-51"),
        (0.0, 10.0, "0x1.2887293fd6f35p+1", "0x1.1c98d4a3a4f3bp-48"),
        (0.3, 10.0, "0x1.271d60bfd0f19p+1", "0x1.079171022a8abp-48"),
        (0.0, 30000.0, "0x1.586a7ab6ce596p+7", "0x1.eb2ce4a07ead0p-42"),
        (0.3, 30000.0, "0x1.585c45e33d244p+7", "0x1.f7ccd0011850bp-42"),
        (0.0, 1000000.0, "0x1.f38010624d8b7p+9", "0x1.ec74842066998p-38"),
        (0.3, 1000000.0, "0x1.f37c754448490p+9", "0x1.12aacbe2ad6edp-37"),
        (0.0, 4.0, "0x1.3c6ef372fe950p+0", "0x1.33dde3744c071p-49"),
        (0.0, 0.1111111111111111, "0x1.bb204e7879c36p-5", "0x1.62df266c9783ep-53"),
        (0.05, 0.25, "0x1.e363cd326fea5p-4", "0x1.4adfc60a0707cp-52"),
        (0.1, 1.0, "0x1.a7e0b1d7961f4p-2", "0x1.a8c9c689075eep-51"),
        (0.3, 4.0, "0x1.3aabe3a41d27bp+0", "0x1.213fef580672dp-49"),
        (0.5, 9.0, "0x1.10ee5d2362283p+1", "0x1.ed3ea00d413dep-49"),
        (0.3, 64.0, "0x1.c2c21f5a62102p+2", "0x1.8ceb70444ad6ap-47"),
        (0.3, 2e+19, "0x1.0a8f60a807447p+32", "0x1.f8b1c4c3fe745p+6"),
    ]

    @pytest.mark.parametrize("v, x, value, err", LORENTZIAN_BITS)
    def test_lorentzian_transform_keeps_the_composed_bits(self, v, x, value, err):
        est = kernels.lorentzian_transform(v, x)
        assert (est.value.hex(), est.err.hex()) == (value, err)

    @pytest.mark.parametrize("j, far", [
        (lambda z: math.nan, (math.inf, (1.0,))),
        # fsum meets inf - inf: a typed error, not fsum's bare ValueError
        (lambda z: math.inf, (3.0, (1.0, -math.inf))),
    ])
    def test_non_finite_sums_raise_a_typed_error(self, j, far):
        with pytest.raises(QuadratureError, match=r"branch transform at v = 0\.3 is not"):
            kernels.branch_transform(0.3, j, far)

    def test_concurrent_threads_on_empty_sums_match_serial_bits(self):
        # strengths no other test uses, so their inverse-power sums and
        # branch nodes start empty; both families at each
        strengths = (0.0721, 0.721)
        members = [member[:2] for family in TRANSFORM_FAMILIES.values() for member in family]
        grid = [(v, i) for v in strengths for i in range(len(members))]

        def forget():
            for v in strengths:
                kernels._FAR_SUMS.pop(v, None)
            for key in [key for key in kernels._BRANCH_NODES if key[0] in strengths]:
                del kernels._BRANCH_NODES[key]

        def bits(v, i):
            est = kernels.branch_transform(v, *members[i])
            return est.value.hex(), est.err.hex()

        forget()
        serial = {point: bits(*point) for point in grid}
        race_matches_serial(grid, bits, serial, 6, forget=lambda rnd: forget())


# j calls of test_sized_rule_lies_within_err_of_the_finest per family and
# strength, over its 6 and 9 members: every node below each z0 (6 and 9
# times the node count, 1,920 and 2,880 at v = 0, when every node called j)
BRANCH_J_CALLS = {
    "laplace_sine": {0.0: 78, 1e-6: 78, 1e-3: 78, 0.01: 78, 0.05: 80, 0.1: 39, 0.3: 42,
                     0.99: 93, 0.999999: 204},
    "lorentzian": {0.0: 174, 1e-6: 174, 1e-3: 174, 0.01: 174, 0.05: 177, 0.1: 89, 0.3: 93,
                   0.99: 178, 0.999999: 363},
}


def mpf_sum_oracle(terms) -> float:
    """The exact sum of the float terms in mpf arithmetic, rounded to the
    nearest float: the bits a correctly rounded math.fsum must give.  At
    2200 bits every partial sum of doubles is exact."""
    ctx = mp.MPContext()
    ctx.prec = 2200
    total = ctx.mpf(0)
    for term in terms:
        total += ctx.mpf(term)
    return libmp.to_float(total._mpf_, rnd=libmp.round_nearest)


class _MathWithOracleSums:
    """The math module, with fsum replaced by mpf_sum_oracle; counts calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, terms) -> float:
        self.calls += 1
        return mpf_sum_oracle(terms)


class TestFbCoeffBuild:
    """The series route's D_p, built as moments of the crossing weight."""

    def test_bits_ignore_a_concurrent_global_precision(self):
        # the build uses no mpmath, so a thread that keeps setting mpmath's
        # global precision changes neither its bits nor the precision the
        # caller finds afterwards, nor the other cache entries
        key = 0.57  # a strength no other test uses

        def build():
            kernels._FB_MOMENTS.pop(key, None)
            return [d.hex() for d in itertools.islice(fb_moments(0.57), 112)]

        serial = build()
        cached = {k: entry for k, entry in kernels._FB_MOMENTS.items() if k != key}
        prec = mp.mp.prec
        stop = threading.Event()

        def meddle():
            while not stop.is_set():
                with mp.workdps(8):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        meddler = threading.Thread(target=meddle)
        meddler.start()
        try:
            meddled = build()
        finally:
            stop.set()
            meddler.join()
            sys.setswitchinterval(interval)
        assert meddled == serial
        assert mp.mp.prec == prec
        assert all(kernels._FB_MOMENTS[k] is entry for k, entry in cached.items())

    @pytest.mark.parametrize("v", [-0.999999, -0.99, -0.3, -1e-12, 0.3, 0.99])
    def test_largest_first_sum_keeps_the_ascending_bits(self, v):
        # the cache sums the nodes largest s first; fsum is correctly
        # rounded in any order, so each D_p equals the ascending sum of the
        # same products bit for bit
        nodes = kernels._fb_nodes(v, kernels._MOMENT_INTERVALS)
        powers = [w * math.exp(ln_g) for _s, ln_g, w in nodes]
        squares = [s**2 for s, _ln_g, _w in nodes]
        sign = -1.0 if v < 0.0 else 1.0
        ascending = []
        for p in range(600):
            ascending.append((sign**p * math.fsum(powers)).hex())
            powers = list(map(operator.mul, powers, squares))
        assert [d.hex() for d in itertools.islice(fb_moments(v), 600)] == ascending

    @pytest.mark.parametrize("v, first", [(-0.999999, 649), (-0.99, 657), (-0.9, 743)])
    def test_walk_past_the_float_range_raises_a_typed_error(self, v, first):
        # D_p's sum leaves the float range past the 640th coefficient: the
        # walk yields every finite D_p and raises a typed error at the first
        # that overflows, again on a second walk over the cached entry
        for _ in range(2):
            walked = []
            with pytest.raises(SeriesDivergenceError, match=rf"^moment D_{first} of "):
                walked.extend(itertools.islice(fb_moments(v), 800))
            assert len(walked) == first
            assert all(math.isfinite(d) for d in walked)

    def test_rest_energy_failure_message(self):
        # checked when the moments are asked for, before any node is built:
        # at v = +1 a node's atanh(1) would otherwise fail as a domain error
        for v in (-1.0, 1.0, 2.5):
            with pytest.raises(ValueError) as info:
                fb_moments(v)
            assert str(info.value) == (
                f"fb_moments requires |v0| below the rest energy 1.0, got {v}"
            )
        with pytest.raises(ValueError, match=r"^fb_moments requires a finite v0"):
            fb_moments(math.nan)


class TestFbExactSum:
    """The trapezoid sums of F_B give the bits of the exact mpf sum."""

    @pytest.mark.parametrize("v, zetas, drop_unity", [
        # cosh up to its largest rule at zeta = 160
        (0.1, (20.0, 75.0, 160.0), False),
        # cos through the deep cancellation at large zeta
        (-0.1, (33.0, 50.0, 71.6, 104.6, 140.2, 160.0), False),
        (-0.3, (20.0, 30.0, 40.0), False),
        # F_B - 1, summed as two pairs of sums
        (-0.1, (60.0, 80.0, 150.0), True),
        # near the rest energy, where the analytic strip sets the rule size
        (-0.9, (10.0, 15.0, 20.0), False),
    ])
    def test_matches_mpf_oracle_bits(self, monkeypatch, v, zetas, drop_unity):
        oracle = _MathWithOracleSums()

        def evaluate(module, zeta):
            monkeypatch.setattr(kernels, "math", module)
            if drop_unity:  # the gap's F_B - 1, which carries no err
                return kernels._tb_core(v).rule(zeta).total(zeta, True).hex()
            val, err = kernels._tb_core(v).fb(zeta)
            return val.hex(), err.hex()

        for zeta in zetas:
            evaluate(math, zeta)  # settles the rule cache for zeta
            rules = dict(kernels._FB_RULES)
            calls = oracle.calls
            assert evaluate(math, zeta) == evaluate(oracle, zeta), zeta
            # one sum of the one rule, two with drop_unity
            assert oracle.calls - calls == (2 if drop_unity else 1), zeta
            assert kernels._FB_RULES == rules
        # the node sums kept with each rule, built anew with the oracle
        monkeypatch.setattr(kernels, "math", math)
        built = {key: rule for key, rule in kernels._FB_RULES.items() if key[0] == v}
        monkeypatch.setattr(kernels, "math", oracle)
        for (vn, n), rule in built.items():
            fresh = kernels._FbRule(vn, n)
            assert (fresh.c_sum.hex(), fresh.cs_sum.hex()) == (
                rule.c_sum.hex(), rule.cs_sum.hex()
            ), n

    def test_concurrent_sums_match_serial_bits(self):
        # the sums take no lock and leave mpmath's precision alone, so a
        # thread that lowers it around each call changes nobody's bits
        grid = [(v0, 100.0 + 7.5 * i) for v0 in (-0.1, 0.1) for i in range(9)]
        prec = mp.mp.prec
        for point in grid:
            barrier_factor(*point)  # settles the rule cache
        rules = dict(kernels._FB_RULES)

        def bits(v0, zeta):
            est = barrier_factor(v0, zeta)
            return est.value.hex(), est.err.hex()

        serial = {point: bits(*point) for point in grid}
        race_matches_serial(grid, bits, serial, 6, meddle=True)
        assert mp.mp.prec == prec
        assert all(kernels._FB_RULES[key] is rule for key, rule in rules.items())


def branch_size_formula(delta: float, x: float) -> tuple[int, int]:
    """(m, n) of the branch-cut rule at natural zeta x, from its step
    formula, as _TbCore.branch_size's docstring states it: h/2 = 2^-(m+1)
    the least power of two at most half of pi^2/(37 + pi^2 x/8) up to
    x = 8*37/pi^2 and of 0.73/sqrt(x) beyond, at every x."""
    pi2 = math.pi**2
    step = pi2 / (37.0 + x * pi2 / 8) if x <= 8.0 * 37.0 / pi2 else 0.73 / math.sqrt(x)
    fine = math.ceil(-math.log2(0.5 * step))
    w_cut = 40.0 / x
    u_cut = math.asinh(math.sqrt(w_cut) * math.sqrt(w_cut + 2.0) / delta)
    return fine - 1, int(u_cut * 2.0**fine) >> 1


class TestBranchLevels:
    """_TbCore.branch_size reads its level off exact float breakpoints."""

    def test_each_breakpoint_and_the_float_below_it(self):
        breaks = kernels._level_breaks()
        assert len(breaks) == 5 and list(breaks) == sorted(breaks)
        for level, x in enumerate(breaks, start=3):
            assert branch_size_formula(1.0, x)[0] == level
            assert branch_size_formula(1.0, math.nextafter(x, 0.0))[0] == level - 1
            assert kernels._tb_core(0.0).branch_size(x)[0] == level
            assert kernels._tb_core(0.0).branch_size(math.nextafter(x, 0.0))[0] == level - 1

    @given(
        log_x=st.floats(math.log(1e-150), math.log(5e3)),
        v=st.sampled_from([-0.999, -0.3, 0.0, 0.1, 0.3, 0.9, 0.999]),
    )
    @example(log_x=math.log(2.008929641868021), v=0.0)
    @example(log_x=math.log(745.0), v=0.3)
    def test_every_level_matches_the_formula(self, log_x, v):
        # levels m = 2 to 6 below x = 2183, from the breakpoints, and the
        # formula's own from there
        x = math.exp(log_x)
        assert kernels._tb_core(v).branch_size(x) == branch_size_formula(1.0 - abs(v), x)


class TestBranchProfile:
    """The branch-cut integrals sum one nested trapezoid rule per strength.

    A rule's weights are G_B's profile sqrt(z^2-1)/z G_B(v0, z) times the
    Jacobian at its nodes.  The branch_integral pin (tests/test_pins.py)
    holds the bits of every (value, err), written once the oracle tests
    below passed.
    """

    def test_table_holds_the_integrand_and_spares_g_b(self):
        # the weights are h (s/z)^2 delta cosh(u) times G_B or 1 - G_B at
        # u = k h, s = delta sinh(u), z = hypot(1, s), and G_B matches
        # gb_factor; a warm call builds no node again
        vn = 0.27
        for key in [key for key in kernels._BRANCH_NODES if key[0] == vn]:
            del kernels._BRANCH_NODES[key]
        first = branch_integral(-vn, 2.0, NATURAL_UNITS)
        built = {key: nodes for key, nodes in kernels._BRANCH_NODES.items() if key[0] == vn}
        assert built
        delta = 1.0 - vn
        for (_vn, level), (w, c, d) in built.items():
            h = 0.5**level
            assert w
            for k, (w_k, c_k, d_k) in enumerate(zip(w, c, d), start=1):
                s = delta * math.sinh(k * h)
                z = math.hypot(1.0, s)
                jacobian = h * (s / z) ** 2 * delta * math.cosh(k * h)
                assert w_k == pytest.approx(math.expm1(0.5 * math.log1p(s * s)), rel=1e-14)
                assert c_k == pytest.approx(jacobian * gb_factor(vn, z), rel=1e-13)
                assert c_k + d_k == pytest.approx(jacobian, rel=1e-15)
        assert branch_integral(vn, 2.0, NATURAL_UNITS) == first
        assert all(kernels._BRANCH_NODES[key] is nodes for key, nodes in built.items())

    def test_concurrent_threads_match_serial_bits(self):
        # T_B at both signs and the gap share the branch rules of |v0| = 0.3;
        # zeta from 1e-9 to 160 selects rule sizes and node counts apart
        zetas = [1e-9, 1e-4, 0.01] + [0.25 * i for i in range(1, 37)] + [40.0, 160.0]
        grid = [(v0, zeta) for v0 in (-0.3, 0.3) for zeta in zetas]

        def forget(fb_rules: bool, trim: bool):
            # drop the branch nodes of |v0| = 0.3, or cut them back to three,
            # so that the threads race on extending them; with fb_rules,
            # drop the F_B rules and the T_B cores that hold them too
            for key in [key for key in kernels._BRANCH_NODES if key[0] == 0.3]:
                if trim:
                    kernels._BRANCH_NODES[key] = tuple(c[:3] for c in kernels._BRANCH_NODES[key])
                else:
                    del kernels._BRANCH_NODES[key]
            if fb_rules:
                for key in [key for key in kernels._FB_RULES if abs(key[0]) == 0.3]:
                    del kernels._FB_RULES[key]
                for key in [key for key in kernels._TB_CORES if abs(key) == 0.3]:
                    del kernels._TB_CORES[key]

        def bits(v0, zeta):
            tb = barrier_factor(v0, zeta)
            return tb.value.hex(), tb.err.hex(), barrier_free_gap(abs(v0), zeta).hex()

        forget(fb_rules=True, trim=False)
        serial = {point: bits(*point) for point in grid}
        # the threads race on the F_B rules in the first round, on empty
        # branch nodes in the even rounds, and on extending cut-back node
        # lists in the odd
        race_matches_serial(grid, bits, serial, 8,
                            forget=lambda rnd: forget(fb_rules=rnd == 0, trim=rnd % 2 == 1))


class TestKernelArguments:
    def test_nan_zeta_raises(self):
        barrier = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)
        calls = {
            "free_factor": lambda zeta: free_factor(zeta),
            "barrier_factor": lambda zeta: barrier_factor(0.3, zeta),
            "fb_series": lambda zeta: fb_series(-0.3, zeta),
            "barrier_free_gap": lambda zeta: barrier_free_gap(0.3, zeta),
            "region_kernel": lambda zeta: region_kernel("III", -3.0, zeta, barrier),
            "momentum_kernel_g": lambda zeta: momentum_kernel_g(0, 0, zeta),
        }
        # an infinite zeta must raise too: past the guard, F_B would size
        # its rule from it
        for zeta in (math.nan, math.inf, -math.inf):
            for name, call in calls.items():
                with pytest.raises(ValueError, match=f"^{name} requires zeta"):
                    call(zeta)

    @pytest.mark.parametrize("zeta, params", [
        (1e-200, PhysicalParams(mu=1e-200)), (5e-324, PhysicalParams(mu=0.1)),
    ])
    @pytest.mark.parametrize("name", [
        "free_factor", "barrier_factor", "branch_integral", "region_kernel", "barrier_free_gap",
    ])
    def test_underflowing_natural_zeta_raises(self, name, zeta, params):
        # mu c zeta/hbar rounds to 0.0 here, where the kernels diverge; the
        # branch rule would divide by it
        v0 = 0.3 * params.rest_energy
        barrier = BarrierSpec(v0=v0, a=-2.0, b=-1.0)
        calls = {
            "free_factor": lambda: free_factor(zeta, params),
            "barrier_factor": lambda: barrier_factor(-v0, zeta, params),
            "branch_integral": lambda: branch_integral(-v0, zeta, params),
            "region_kernel": lambda: region_kernel("III", -3.0, zeta, barrier, params),
            "barrier_free_gap": lambda: barrier_free_gap(v0, zeta, params),
        }
        with pytest.raises(ValueError, match=f"^{name} requires mu c zeta/hbar > 0"):
            calls[name]()

    def test_non_finite_v0_raises_before_any_build(self):
        rules = set(kernels._BRANCH_NODES)
        calls = {
            "barrier_factor": lambda v0: barrier_factor(v0, 1.0),
            "fb_series": lambda v0: fb_series(v0, 1.0),
            "branch_integral": lambda v0: branch_integral(
                v0, 1.0, NATURAL_UNITS
            ),
            "barrier_free_gap": lambda v0: barrier_free_gap(v0, 1.0),
        }
        with KERNEL_PINS.counting("kernels._FbRule.__init__") as builds:
            for v0 in (math.nan, math.inf, -math.inf):
                for name, call in calls.items():
                    with pytest.raises(ValueError, match=f"^{name} requires a finite v0"):
                        call(v0)
        assert builds == [0]
        assert set(kernels._BRANCH_NODES) == rules


class TestBarrierFactor:
    def test_zero_height_recovers_free(self):
        for zeta in (0.1, 1.0, 10.0):
            tb = barrier_factor(0.0, zeta)
            tf = free_factor(zeta)
            assert tb.value == pytest.approx(tf.value, rel=1e-10)

    def test_oracle_sum_plus_quadrature(self):
        # independently coded: triple-sum oracle + QUADPACK branch integral
        tb = barrier_factor(-0.3, 2.0)
        ref = highdigit_barrier_factor(-0.3, 2.0, 20)
        assert tb.value == pytest.approx(ref, rel=1e-9)
        assert abs(tb.value - ref) <= tb.err

    def test_nonrelativistic_limit_monotone(self):
        for v0, zeta in [(0.3, 1.0), (0.5, 0.5)]:
            ref = hyp0f1_one(-v0 * zeta * zeta / 2.0)
            errs = []
            for c in (1e2, 1e3, 1e4):
                params = PhysicalParams(mu=1.0, c=c, hbar=1.0)
                errs.append(abs(barrier_factor(-v0, zeta, params).value - ref))
            assert errs[0] > errs[1] > errs[2]


class TestBarrierFreeGap:
    def test_zero_height_is_exactly_zero(self):
        assert barrier_free_gap(0.0, 1.3) == 0.0

    def test_matches_subtraction(self):
        for v0, zeta in [(0.3, 1.0), (0.5, 2.0)]:
            gap = barrier_free_gap(v0, zeta)
            ref = free_factor(zeta).value - barrier_factor(-v0, zeta).value
            assert gap == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_small_height_scales_linearly(self):
        g1 = barrier_free_gap(1e-6, 1.0)
        g2 = barrier_free_gap(2e-6, 1.0)
        assert g2 / g1 == pytest.approx(2.0, rel=1e-4)


class TestRegionKernel:
    barrier = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)

    def test_region_one_free(self):
        for zeta in (0.4, 1.0):
            ev = region_kernel("I", -1.0, zeta, self.barrier)
            assert ev.value == pytest.approx(-0.5 * free_factor(zeta).value, rel=1e-12)

    def test_region_three_cancellation(self):
        length = self.barrier.length
        ev = region_kernel("III", -length, 1.0, self.barrier)
        ref = -0.5 * length * barrier_factor(-self.barrier.v0, 1.0).value
        assert ev.value == pytest.approx(ref, rel=1e-10)

    def test_region_two_direct_assembly(self):
        eta, zeta = -0.5, 1.0
        ev = region_kernel("II", eta, zeta, self.barrier)
        ref = 0.5 * (eta + self.barrier.b) * free_factor(zeta).value - 0.5 * (
            self.barrier.b
        ) * barrier_factor(self.barrier.v0, zeta).value
        assert ev.value == pytest.approx(ref, rel=1e-12)

    def test_eta_slope_is_half_free_factor(self):
        zeta = 1.3
        slope_ref = 0.5 * free_factor(zeta).value
        h = 1e-4
        for region, eta in [("I", -0.5), ("II", -1.5), ("III", -3.0)]:
            hi = region_kernel(region, eta + h, zeta, self.barrier).value
            lo = region_kernel(region, eta - h, zeta, self.barrier).value
            assert (hi - lo) / (2.0 * h) == pytest.approx(slope_ref, abs=1e-8)

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError):
            region_kernel("IV", -1.0, 1.0, self.barrier)


class TestMomentumKernels:
    def test_f_trivial(self):
        for k in (0, 1, 4):
            assert momentum_kernel_f(0, k, 0.7) == 1.0

    def test_f_contour_oracle(self):
        for (j, k, zeta) in [(1, 0, 1.0), (1, 1, 2.0), (2, 1, 1.5), (2, 2, 0.8)]:
            val = momentum_kernel_f(j, k, zeta)
            ref = contour_kernel_oracle(j, k, zeta, NATURAL_UNITS)
            assert val == pytest.approx(ref, abs=1e-8)

    @staticmethod
    def f_reference(j: int, k: int, zeta: float) -> float:
        """f_{j,k} in natural units at 50 digits, from its factorial form."""
        with mp.workdps(50):
            z = mp.mpf(zeta)
            acc = mp.fsum(
                mp.binomial(mp.mpf(k + 1) / 2, a) * mp.binomial(2 * j, 2 * a)
                * mp.factorial(2 * a) * (-1) ** a * z ** (-2 * a)
                for a in range(j + 1)
            )
            return float((-1) ** j * z ** (2 * j) / mp.factorial(2 * j) * acc)

    def test_f_large_j_stays_in_the_float_range(self):
        # (2j)! leaves the float range from j = 86 on and (1/zeta)^(2a) at
        # zeta = 1e-3 and a = 52; the value does not
        val = momentum_kernel_f(200, 0, 1.0)
        assert val == pytest.approx(-1.5463347164903472e-4, rel=1e-14)
        assert val == pytest.approx(self.f_reference(200, 0, 1.0), rel=1e-14)
        assert momentum_kernel_f(100, 3, 1e-3) == pytest.approx(
            self.f_reference(100, 3, 1e-3), rel=1e-14, abs=1e-300
        )
        # at zeta = 1000 the value itself, ~1e331, does not fit a float
        with pytest.raises(SeriesDivergenceError, match="overflows a float"):
            momentum_kernel_f(200, 0, 1000.0)

    def test_f_requires_nonzero_zeta(self):
        with pytest.raises(ValueError):
            momentum_kernel_f(1, 0, 0.0)

    def test_g_vanishes_for_odd_k(self):
        for j in (0, 1, 3):
            assert momentum_kernel_g(j, 1, 0.9) == 0.0
            assert momentum_kernel_g(j, 3, 2.0) == 0.0

    def test_g00_matches_free_branch(self):
        for zeta in (0.1, 1.0, 10.0):
            g = momentum_kernel_g(0, 0, zeta)
            assert g == pytest.approx(free_factor(zeta).value - 1.0, rel=1e-9, abs=1e-12)

    def test_g_overflow_raises_typed_error(self):
        # g_{0,400}(1) ~ Gamma(401) lies past the float range, and so does
        # its integrand from y ~ 34 on
        with pytest.raises(SeriesDivergenceError, match="overflows a float"):
            momentum_kernel_g(0, 400, 1.0)

    @staticmethod
    def g_reference(j: int, k: int, zeta: float) -> float:
        """g_{j,k} in natural units at 30 digits, for even k: (-1)^j i^k (2/pi)
        times int_1^inf (y^2-1)^((k+1)/2) y^-(2j+1) e^(-zeta y) dy, by
        tanh-sinh in y = 1 + t^2, broken about the peak y = (k - 2j)/zeta."""
        ctx = mp.MPContext()
        ctx.dps = 30
        z, power = ctx.mpf(zeta), ctx.mpf(k + 1) / 2

        def f(t):
            y = 1 + t * t
            return (t * t * (2 + t * t)) ** power / y ** (2 * j + 1) * ctx.exp(-z * y) * 2 * t

        peak = ctx.sqrt(max(1, (k - 2 * j) / zeta))
        edges = [0] + [peak * 2**i for i in range(-3, 4)] + [ctx.inf]
        return float((-1) ** (j + k // 2) * 2 / ctx.pi * ctx.quad(f, edges))

    def test_g_answers_where_its_integrand_alone_would_overflow(self):
        # (y^2 - 1)^((k+1)/2) leaves the float range near y ~ 34, where
        # e^(-zeta y) keeps the product, and the value, finite
        for j, k, zeta in [(0, 200, 10.0), (0, 300, 50.0)]:
            ref = self.g_reference(j, k, zeta)
            assert momentum_kernel_g(j, k, zeta) == pytest.approx(ref, rel=1e-12), (k, zeta)
        assert self.g_reference(0, 200, 10.0) == pytest.approx(3.9016178777122e173, rel=1e-13)

    def test_g_oracle(self):
        val = momentum_kernel_g(1, 0, 1.0)
        ref = -(2.0 / math.pi) * branch_integral_oracle(1.0, sqrt_pow=1, y_pow=3)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_building_block_equivalence(self):
        # f00 + g00 reassembles the free kernel factor
        for zeta in (0.1, 1.0, 10.0):
            combo = momentum_kernel_f(0, 0, zeta) + momentum_kernel_g(0, 0, zeta)
            assert combo == pytest.approx(free_factor(zeta).value, rel=1e-9)


class TestBarrierSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BarrierSpec(v0=0.3, a=-1.0, b=-2.0)
        with pytest.raises(ValueError):
            BarrierSpec(v0=0.3, a=-2.0, b=1.0)
        with pytest.raises(ValueError):
            BarrierSpec(v0=-0.1, a=-2.0, b=-1.0)
        for field, bad in [("v0", math.inf), ("a", -math.inf), ("a", math.nan),
                           ("b", math.nan)]:
            fields = {"v0": 0.3, "a": -2.0, "b": -1.0, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                BarrierSpec(**fields)

    def test_length_positive(self):
        barrier = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)
        assert barrier.length == pytest.approx(1.0)

    def test_subcritical_gate(self):
        barrier = BarrierSpec(v0=1.5, a=-2.0, b=-1.0)
        assert not barrier.is_subcritical(NATURAL_UNITS)
        with pytest.raises(ValueError):
            barrier.require_subcritical(NATURAL_UNITS)
