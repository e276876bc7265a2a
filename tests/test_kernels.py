"""Kernel factors against brute-force oracles and limit identities."""

from __future__ import annotations

import cmath
import concurrent.futures
import functools
import importlib.util
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings as hyp_settings, strategies as st

from conftest import branch_integral_oracle
from reltoa import kernels
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    _build_fb_coeffs,
    barrier_factor,
    branch_integral,
    barrier_free_gap,
    fb_series,
    free_factor,
    gb_factor,
    momentum_kernel_f,
    momentum_kernel_g,
    region_kernel,
)
from reltoa.numerics import (
    DEFAULT_SETTINGS,
    HalfLineTable,
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
    hyp0f1_one,
    integrate_half_line,
    integrate_semiinf_exp,
)


def _load_fb_build_bench():
    # the script that writes tests/data/fb_coeffs_pin.json defines its digest
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "fb_build_bench.py"
    spec = importlib.util.spec_from_file_location("fb_build_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FB_BUILD_BENCH = _load_fb_build_bench()
FB_PINS = json.loads(FB_BUILD_BENCH.PIN_FILE.read_text())["builds"]
BRANCH_PIN = json.loads(FB_BUILD_BENCH.BRANCH_PIN_FILE.read_text())
FACTOR_PIN = json.loads(FB_BUILD_BENCH.FACTOR_PIN_FILE.read_text())


def _run_bench_code(code: str) -> str:
    """stdout of `code` in a fresh interpreter, with the bench script as `bench`."""
    prelude = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('fb_build_bench', sys.argv[1])\n"
        "bench = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", prelude + code, str(FB_BUILD_BENCH.__file__)],
        capture_output=True, check=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return out.stdout


def fb_triple_sum_oracle(v: float, zeta: float, params: PhysicalParams,
                         l_terms: int = 300, dps: int = 60) -> float:
    """Direct summation of the residue series in its original (l, m, n)
    ordering.  Independent of the production reorganization by powers of
    zeta^2.  Binomials over integers come from exact integer arithmetic;
    the half-integer binomials from their recurrence."""
    with mp.workdps(dps):
        mu, c, hbar = mp.mpf(params.mu), mp.mpf(params.c), mp.mpf(params.hbar)
        vv = mp.mpf(v)
        a_fac = mu * vv / (2 * hbar**2)
        b_fac = vv / (2 * mu * c**2)
        c_fac = -(hbar**2) / (mu * c) ** 2
        # z2f[i] = zeta^(2i) / (2i)!, cpow[n] = c_fac^n, half-integer rows
        z2 = mp.mpf(zeta) ** 2
        z2f = [mp.mpf(1)]
        cpow = [mp.mpf(1)]
        bpow = [mp.mpf(1)]
        apow = [mp.mpf(1)]
        gb_rows: dict[int, list] = {}

        def gbin(m, n):
            row = gb_rows.setdefault(m, [mp.mpf(1)])
            alpha = mp.mpf(m + 1) / 2
            while len(row) <= n:
                k = len(row)
                row.append(row[-1] * (alpha - (k - 1)) / k)
            return row[n]

        total = mp.mpf(0)
        for l in range(l_terms):
            while len(z2f) <= l:
                i = len(z2f)
                z2f.append(z2f[-1] * z2 / ((2 * i - 1) * (2 * i)))
            while len(cpow) <= l:
                cpow.append(cpow[-1] * c_fac)
            while len(bpow) <= l:
                bpow.append(bpow[-1] * b_fac)
            while len(apow) <= l:
                apow.append(apow[-1] * a_fac)
            outer = mp.mpf(math.comb(2 * l, l)) * apow[l]
            m_sum = mp.mpf(0)
            for m in range(l + 1):
                n_sum = mp.mpf(0)
                for n in range(l + 1):
                    n_sum += gbin(m, n) * cpow[n] * z2f[l - n]
                m_sum += mp.mpf(math.comb(l, m)) * bpow[l - m] * n_sum
            term = outer * m_sum
            total += term
            if l > 4 and abs(term) < mp.mpf(10) ** -40 * (1 + abs(total)):
                break
        return float(total)


def contour_kernel_oracle(j: int, k: int, zeta: float,
                          params: PhysicalParams) -> float:
    """Brute-force evaluation of the residue building block f_{j,k}:
    Gauss-Laguerre in y (exact for the polynomial y-dependence), trapezoid
    around the circle |z| = mu c / 2 (spectrally accurate)."""
    mu_c = params.mu * params.c
    radius = 0.5 * mu_c
    n_theta = 512
    y_nodes, y_weights = np.polynomial.laguerre.laggauss(80)
    acc = 0.0 + 0.0j
    for y, w in zip(y_nodes, y_weights):
        ring = 0.0 + 0.0j
        for i in range(n_theta):
            z = radius * cmath.exp(2j * math.pi * i / n_theta)
            val = (1.0 + (z / mu_c) ** 2) ** ((k + 1) / 2.0)
            val *= (1.0 - 1j * params.hbar * y / (zeta * z)) ** (2 * j)
            ring += val
        acc += w * ring / n_theta
    pref = (1j * zeta / params.hbar) ** (2 * j) / math.factorial(2 * j)
    out = pref * acc
    assert abs(out.imag) < 1e-10
    return out.real


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
        assert gb_factor(0.3, 2.0) == pytest.approx(gb_factor(-0.3, 2.0), rel=1e-15)

    @given(
        st.floats(min_value=-0.95, max_value=0.95),
        st.floats(min_value=1.0, max_value=40.0),
    )
    def test_even_in_v_property(self, v, z):
        assert gb_factor(v, z) == pytest.approx(gb_factor(-v, z), rel=1e-13, abs=1e-13)

    def test_half_sum_oracle(self):
        # independent evaluation as the literal half-sum of both branches
        v, z = 0.3, 2.0
        vt = v / 1.0
        bracket = 1.0 - vt**2 / z**2 + 2j * math.sqrt(z**2 - 1.0) / z**2 * vt
        ref = 0.5 * (bracket**-0.5 + bracket.conjugate() ** -0.5)
        assert abs(ref.imag) < 1e-16
        assert gb_factor(v, z) == pytest.approx(ref.real, abs=1e-14)

    def test_rejects_z_below_one(self):
        with pytest.raises(ValueError):
            gb_factor(0.3, 0.5)


class TestFbSeries:
    def test_zero_height_is_one(self):
        for zeta in (0.0, 1.0, 7.5):
            assert fb_series(0.0, zeta).value == 1.0

    def test_nonrelativistic_limit(self):
        params = PhysicalParams(mu=1.0, c=1e6, hbar=1.0)
        val = fb_series(-0.3, 2.0, params).value
        assert val == pytest.approx(hyp0f1_one(-0.3 * 4.0 / 2.0), abs=1e-6)

    def test_triple_sum_oracle(self):
        for v, zeta in [(-0.3, 1.0), (0.3, 1.0), (-0.6, 2.5), (-0.3, 8.0)]:
            val = fb_series(v, zeta).value
            assert val == pytest.approx(
                fb_triple_sum_oracle(v, zeta, NATURAL_UNITS), rel=1e-9, abs=1e-11
            )

    def test_large_zeta_against_oracle(self):
        # deep cancellation regime: partial terms ~ exp(kappa zeta) >> result
        val = fb_series(-0.3, 40.0).value
        ref = fb_triple_sum_oracle(-0.3, 40.0, NATURAL_UNITS, l_terms=400, dps=70)
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_rejects_negative_zeta(self):
        with pytest.raises(ValueError):
            fb_series(-0.3, -1.0)

    def test_strong_barrier_optimal_truncation(self):
        # near the rest energy the series is asymptotic; the optimally
        # truncated value must match the original-ordering summation run to
        # its own floor (l = 251, where its terms bottom out at ~6e-16)
        val = fb_series(-0.9, 1.0).value
        ref = fb_triple_sum_oracle(-0.9, 1.0, NATURAL_UNITS, l_terms=252, dps=60)
        assert val == pytest.approx(ref, abs=1e-9)
        assert barrier_factor(-0.9, 1.0).err < 1e-9

    def test_rest_energy_scale_raises(self):
        with pytest.raises(SeriesDivergenceError):
            fb_series(-0.99, 1.0)


class TestFbCoeffBuild:
    """The coefficient build reproduces its pinned bits and failure messages.

    The pins are sha256 digests of (v, count, dps) builds written by
    scripts/fb_build_bench.py; the digits of every residue-series value
    downstream depend on these bits.
    """

    @pytest.mark.parametrize(
        "pin", FB_PINS, ids=lambda pin: f"v{pin['v']}-count{pin['count']}-dps{pin['dps']}"
    )
    def test_bits_match_pin(self, pin):
        entry = _build_fb_coeffs(
            pin["v"], NATURAL_UNITS, pin["count"], pin["dps"], DEFAULT_SETTINGS
        )
        assert FB_BUILD_BENCH.digest(entry) == pin["sha256"]
        assert entry.floats == [float(cf) for cf in entry.coeffs]
        if pin["v"] == -0.9:
            # this pin covers the optimal-truncation exit of every coefficient
            assert all(entry.errs)

    def test_rest_energy_failure_message(self):
        with pytest.raises(SeriesDivergenceError) as info:
            _build_fb_coeffs(-0.99, NATURAL_UNITS, 112, 45, DEFAULT_SETTINGS)
        assert str(info.value) == (
            "residue-series coefficient p=0 floors at 6.8e-07 for v=-0.99: "
            "barrier strength too close to the rest-mass energy"
        )

    def test_failure_names_the_smallest_failing_p(self):
        # p = 47 runs out of its 4 * 23 l-terms; the larger p still summing
        # when it does must not be reported instead
        with pytest.raises(SeriesDivergenceError) as info:
            _build_fb_coeffs(-0.6, NATURAL_UNITS, 50, 30, QuadratureSettings(max_series_terms=23))
        assert str(info.value) == "residue-series coefficient p=47 did not converge for v=-0.6"


class TestBranchProfile:
    """The branch-cut integral reads G_B from a per-strength profile table.

    The table may only change how often G_B is evaluated: the pin holds the
    bits of every (value, err) as they were before the table existed.
    """

    def test_bits_match_pin_in_reversed_order(self):
        # a fresh process, so the grid fills the tables in reverse
        out = _run_bench_code(
            "pin = json.loads(bench.BRANCH_PIN_FILE.read_text())\n"
            "grid = [(v0, zeta) for v0 in pin['v0'] for zeta in pin['zeta']]\n"
            "print(bench.branch_digest(pin, bench.branch_values(grid[::-1])))\n"
        )
        assert len(BRANCH_PIN["v0"]) == 6 and len(BRANCH_PIN["zeta"]) == 40
        assert out.strip() == BRANCH_PIN["sha256"]

    def test_free_factor_and_gap_match_pins(self):
        # a fresh process: the residue part of the gap depends on the
        # coefficient cache's history.  The gap rows at v0 = -0.3 and 0.3
        # take ~2.5 min of coefficient builds; scripts/fb_build_bench.py
        # checks them
        rows = [-0.1, 0.0, 0.1]
        out = _run_bench_code(
            "zetas = json.loads(bench.BRANCH_PIN_FILE.read_text())['zeta']\n"
            "print(bench.free_factor_digest(zetas))\n"
            f"for v0 in {rows!r}:\n"
            "    print(bench.gap_digest(v0, zetas))\n"
        )
        gap_pins = {row["v0"]: row["sha256"] for row in FACTOR_PIN["barrier_free_gap"]}
        assert sorted(gap_pins) == sorted(FB_BUILD_BENCH.GAP_V0)
        assert out.split() == [FACTOR_PIN["free_factor"]] + [gap_pins[v0] for v0 in rows]

    def test_table_holds_the_integrand_and_spares_g_b(self, monkeypatch):
        v0 = 0.27
        kernels._BRANCH_PROFILES.pop((v0, NATURAL_UNITS), None)
        first = branch_integral(v0, 2.0, NATURAL_UNITS, DEFAULT_SETTINGS)
        table = kernels._BRANCH_PROFILES[(v0, NATURAL_UNITS)]
        assert table
        for z, h in table.items():
            assert h == math.sqrt(z * z - 1.0) / z * gb_factor(v0, z)
        calls = []
        original = kernels.gb_factor
        monkeypatch.setattr(
            kernels, "gb_factor", lambda *args: calls.append(args) or original(*args)
        )
        size = len(table)
        assert branch_integral(v0, 2.0, NATURAL_UNITS, DEFAULT_SETTINGS) == first
        assert calls == [] and len(table) == size

    def test_concurrent_threads_match_serial_bits(self):
        grid = [(v0, 0.25 * i) for v0 in (-0.3, 0.3) for i in range(1, 37)]
        units = (NATURAL_UNITS.mu, NATURAL_UNITS.c, NATURAL_UNITS.hbar)

        def forget(coefficients: bool, values: bool):
            # empty the profile tables' segment caches and, if asked, drop
            # the tables with their values, and the coefficient cache
            for v0 in (-0.3, 0.3):
                table = kernels._BRANCH_PROFILES.get((v0, NATURAL_UNITS))
                if table is not None:
                    table.segments.clear()
                if values:
                    kernels._BRANCH_PROFILES.pop((v0, NATURAL_UNITS), None)
                if coefficients:
                    kernels._FB_CACHE.pop((v0, *units), None)

        def bits(est):
            return est.value.hex(), est.err.hex()

        forget(coefficients=True, values=True)
        serial = {point: bits(barrier_factor(*point)) for point in grid}

        def sweep(seed, start):
            order = grid[:]
            random.Random(seed).shuffle(order)
            start.wait()
            return {point: bits(barrier_factor(*point)) for point in order}

        # four threads, switched often, race on the coefficient build in the
        # first round, on filling empty value tables in the even rounds, and
        # on filling empty segment caches from full value tables in the odd
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                for rnd in range(8):
                    forget(coefficients=rnd == 0, values=rnd % 2 == 0)
                    start = threading.Barrier(4, timeout=60)
                    futures = [pool.submit(sweep, 4 * rnd + i, start) for i in range(4)]
                    for future in futures:
                        assert future.result(timeout=120) == serial, rnd
        finally:
            sys.setswitchinterval(interval)


def _outcome(integral):
    """(value, err) as float.hex, or the QuadratureError's text."""
    try:
        val, err = integral()
    except QuadratureError as exc:
        return "QuadratureError", str(exc)
    return val.hex(), err.hex()


class TestHalfLineTable:
    """integrate_half_line reproduces integrate_semiinf_exp bit for bit."""

    INTEGRANDS = {
        **{
            f"h(v0={v0})": functools.partial(kernels._branch_h, v0, NATURAL_UNITS)
            for v0 in (-0.9, -0.3, 0.1)
        },
        "T_F envelope": kernels._branch_envelope,
        "gap(v0=0.3)": functools.partial(kernels._gap_integrand, 0.3, NATURAL_UNITS),
    }

    @hyp_settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_matches_generic_integral_bits(self, decays, rng):
        # always decay 0, where the integrals of h and the T_F envelope
        # diverge and _adaptive_gk stops on unimprovable segments, and 1e3,
        # where every node of the opening pass underflows to 0.0
        decays = decays + [0.0, 1e3]
        for name, g in self.INTEGRANDS.items():
            table = HalfLineTable(g)
            rng.shuffle(decays)
            for decay in decays:
                tabulated = _outcome(lambda: integrate_half_line(table, decay))
                generic = _outcome(lambda: integrate_semiinf_exp(g, 1.0, decay))
                assert tabulated == generic, (name, decay)

    def test_every_node_underflows(self):
        table = HalfLineTable(kernels._branch_envelope)
        assert integrate_half_line(table, 1e3) == (0.0, 0.0)
        assert min(table) * -1e3 < math.log(2.2e-308)

    def test_kernels_read_their_tables(self):
        assert kernels._FREE_TABLE.g is kernels._branch_envelope
        profile = kernels.branch_profile(-0.3, NATURAL_UNITS)
        assert (profile.g.func, profile.g.args) == (kernels._branch_h, (-0.3, NATURAL_UNITS))
        barrier_free_gap(0.3, 1.0)
        gap = kernels._GAP_TABLES[(0.3, NATURAL_UNITS)]
        assert (gap.g.func, gap.g.args) == (kernels._gap_integrand, (0.3, NATURAL_UNITS))


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
        # an infinite zeta must raise too: past the guard, the residue
        # series would run toward its term cap before failing
        for zeta in (math.nan, math.inf, -math.inf):
            for name, call in calls.items():
                with pytest.raises(ValueError, match=f"^{name} requires zeta"):
                    call(zeta)

    def test_non_finite_v0_raises_before_any_build(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("coefficient build started")

        monkeypatch.setattr(kernels, "_build_fb_coeffs", no_build)
        tables = set(kernels._BRANCH_PROFILES)
        calls = {
            "barrier_factor": lambda v0: barrier_factor(v0, 1.0),
            "fb_series": lambda v0: fb_series(v0, 1.0),
            "branch_integral": lambda v0: branch_integral(
                v0, 1.0, NATURAL_UNITS, DEFAULT_SETTINGS
            ),
            "barrier_free_gap": lambda v0: barrier_free_gap(v0, 1.0),
        }
        for v0 in (math.nan, math.inf, -math.inf):
            for name, call in calls.items():
                with pytest.raises(ValueError, match=f"^{name} requires a finite v0"):
                    call(v0)
        assert set(kernels._BRANCH_PROFILES) == tables


class TestBarrierFactor:
    def test_zero_height_recovers_free(self):
        for zeta in (0.1, 1.0, 10.0):
            tb = barrier_factor(0.0, zeta)
            tf = free_factor(zeta)
            assert tb.value == pytest.approx(tf.value, rel=1e-10)

    def test_oracle_sum_plus_quadrature(self):
        # independently coded: triple-sum oracle + QUADPACK branch integral
        v, zeta = -0.3, 2.0
        series = fb_triple_sum_oracle(v, zeta, NATURAL_UNITS)
        branch, _ = scipy.integrate.quad(
            lambda z: math.exp(-zeta * z)
            * math.sqrt(z * z - 1.0)
            / z
            * gb_factor(v, z),
            1.0,
            np.inf,
            limit=300,
        )
        ref = series + 2.0 / math.pi * branch
        assert barrier_factor(v, zeta).value == pytest.approx(ref, rel=1e-9)

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
