"""Refraction index, traversal times and arrival-time differences."""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st

from conftest import crossing_weight, load_by_path, momentum_weight_reference

from reltoa import ior, kernels
from reltoa.classical import kappa_c, qc_asymptotic, tau_top
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    barrier_factor,
    branch_integral,
    branch_transform,
    fb_series,
    free_factor,
    region_kernel,
)
from reltoa.numerics import (
    DEFAULT_SETTINGS,
    Estimate,
    FADDEEVA_IM_REL_ERR,
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
    integrate_semiinf_exp,
    integrate_sqrt_endpoint,
    sine_transform_decaying,
)
from reltoa.wavepacket import GaussianPacket, momentum_density, phi_overlap
from reltoa.cli import TABLE1_ROWS, _grid, _packet
from reltoa.ior import (
    Luminality,
    _branch_transform,
    _crossing_integrand,
    _minus_bound,
    _phi_transform,
    ior_direct,
    ior_momentum,
    ior_series,
    momentum_split,
    qc_expectation,
    superluminal_classify,
    toa_difference,
    traversal_time,
)


def tau_plus_consistency(packet: GaussianPacket, barrier: BarrierSpec) -> tuple[float, float]:
    """Return (tau_plus, independent weighted average of tau_top).

    The two numbers are the same integral assembled through different code
    paths: traversal_time's tau_plus, t_c times the momentum-route plus
    weight, against direct quadrature of tau_top(k) * |psi(+k)|^2 above
    kappa_c, taken in u = sqrt(k - kappa_c) as 2u times the k-form, whose
    threshold root is not factored out.
    """
    kc = kappa_c(barrier.v0)
    _, tau_plus, _ = traversal_time(packet, barrier)

    def g(u: float) -> float:
        k = kc + u * u
        return 2.0 * u * momentum_density(packet, k, +1) * tau_top(k, barrier.v0, barrier.length)

    # seeds bracket the density's core, k0 + j sigma_k, out to 12 sigma_k
    cores = (packet.k0 + j * packet.sigma_k for j in (-12, -8, -4, -2, -1, 0, 1, 2, 4, 8, 12))
    u_seeds = tuple(math.sqrt(k - kc) for k in cores if k > kc)
    avg, _err = integrate_semiinf_exp(g, 0.0, 0.0, seeds=u_seeds)
    return tau_plus.value, avg


def nested_branch_transform(packet: GaussianPacket, v0: float) -> tuple[float, float]:
    """Series-route branch transform with zeta outermost (natural units).

    int_0^inf sin(k0 zeta) Phi(zeta) [branch-cut term of T_B(v0, zeta)]
    dzeta, one branch_integral per sine-transform node.
    """
    cut = 1e-3 * DEFAULT_SETTINGS.abs_tol

    def integrand(zeta: float) -> float:
        phi = phi_overlap(packet, zeta)
        if phi < cut * zeta:
            return 0.0
        br, _ = branch_integral(v0, zeta, NATURAL_UNITS)
        return br * phi

    end = packet.sigma * math.sqrt(8.0 * 745.0)  # Phi underflows past here
    return sine_transform_decaying(integrand, packet.k0, end, 0.0, DEFAULT_SETTINGS)


def nested_qc(packet: GaussianPacket) -> tuple[float, float]:
    """Q_c and its error as k0 times the sine transform of T_F Phi, zeta outermost."""
    val, err = _phi_transform(lambda zeta: free_factor(zeta).value, packet, DEFAULT_SETTINGS, 0.0)
    return packet.k0 * val, packet.k0 * err


# the pin script: its grids, and the call counter behind every pinned count
KERNEL_PINS = load_by_path("scripts/kernel_pins.py", "kernel_pins")
# every integrand closure of the momentum route, counted per call
CROSSING_W = "ior._crossing_integrand.<locals>.w"
# every summed level of the tau rule
TAU_LEVEL = "numerics.integrate_sqrt_endpoint.<locals>.level"
ROUTE_SWEEP = load_by_path("scripts/route_sweep.py", "route_sweep")
# the benchmark's scipy oracles share no code with the library's quadrature
ORACLES = load_by_path("perfbench/oracles.py", "perfbench_oracles")


# the three unit systems of the momentum tests
UNIT_SYSTEMS = [NATURAL_UNITS, PhysicalParams(mu=2.0, c=3.0, hbar=0.5),
                PhysicalParams(mu=0.7, c=137.0, hbar=1.3)]


def natural(packet: GaussianPacket, v0: float, params) -> tuple[GaussianPacket, float]:
    """The packet and barrier height as every route runs them: sigma in
    units of hbar/(mu c), k0 in units of mu c/hbar and v0 in units of
    mu c^2, each by one product or quotient."""
    wavenumber = params.mu * params.c / params.hbar
    return (GaussianPacket(q0=0.0, sigma=packet.sigma * wavenumber, k0=packet.k0 / wavenumber),
            v0 / params.rest_energy)


def minus_weight_reference(v0: float, sigma: float, k0: float) -> float:
    """The -k weight int_kc^inf |psi(-k)|^2 w(k) dk by scipy's quad, in u
    (natural units).  The Gaussian falls by a factor e per step in k at
    kappa_c and faster beyond, so the pieces end at kappa_c + j step,
    j = 1, 2, 4, 8, 16 and 40; past the last it is below e^-40 of its peak."""
    kc = ORACLES.kappa(v0)
    norm = math.sqrt(2.0 * sigma * sigma / math.pi)
    step = 1.0 / (4.0 * sigma * sigma * (kc + k0))  # one e-fold at kappa_c

    def g(u: float) -> float:
        k = kc + u * u
        gauss = math.exp(-2.0 * sigma * sigma * (k + k0) ** 2)
        return norm * gauss * ORACLES._two_u_weight(u, v0)

    edges = [0.0] + [math.sqrt(j * step) for j in (1, 2, 4, 8, 16, 40)]
    return math.fsum(
        scipy.integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges, edges[1:])
    )


def narrow(k0: float) -> GaussianPacket:
    return GaussianPacket(q0=-20.0, sigma=0.5, k0=k0)


def wide(k0: float, sigma: float = 9.0) -> GaussianPacket:
    return GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)


class TestCallCounter:
    """The profile-hook counter behind every pinned count of the routes."""

    @pytest.mark.parametrize("name", [
        "kernels._TbCore.no_such", "ior._crossing_integrand.<locals>.v", "kernels.NATURAL_UNITS",
    ])
    def test_unknown_name_raises_before_the_block(self, name):
        # so that a count cannot read 0 for a function that moved
        ran = []
        with pytest.raises(ValueError, match="names no function"):
            with KERNEL_PINS.counting(name):
                ran.append(name)
        assert ran == []

    def test_counts_every_closure_of_a_factory(self):
        first, second = (_crossing_integrand(narrow(k0), 0.3) for k0 in (1.0, 2.0))
        with KERNEL_PINS.counting(CROSSING_W, "ior._crossing_integrand") as counts:
            first(1.0)
            second(1.0)
            second(2.0)
        assert counts == [3, 0]

    def test_previous_hook_is_back_after_the_block(self):
        # also when the block raises; the displaced hook sees every call
        before = sys.getprofile()
        with KERNEL_PINS.counting("numerics.faddeeva") as outer:
            hook = sys.getprofile()
            with pytest.raises(ZeroDivisionError):
                with KERNEL_PINS.counting("numerics.faddeeva") as inner:
                    ior.faddeeva(1j)
                    1 / 0
            assert sys.getprofile() is hook
            ior.faddeeva(1j)
        assert sys.getprofile() is before
        assert (outer, inner) == ([2], [1])


class TestIorDirect:
    def test_reference_narrow_above_barrier(self):
        assert ior_direct(narrow(2.0), 0.2).value == pytest.approx(1.32442, abs=1e-4)

    def test_reference_near_unity(self):
        assert ior_direct(narrow(0.90), 0.3).value == pytest.approx(0.99882, abs=2e-4)

    def test_wide_packet_numerically_zero(self):
        res = ior_direct(wide(0.19), 0.3)
        assert abs(res.value) < 1e-10

    def test_rejects_supercritical(self):
        with pytest.raises(ValueError):
            ior_direct(narrow(2.0), 1.5)

    def test_agrees_with_momentum_across_widths(self):
        # the direct route against the independent momentum route, run
        # 1000x tighter, at three widths, on both sides of kappa_c and up to
        # the rest-energy scale: each value within the sum of the two errs
        tight = QuadratureSettings(rel_tol=1e-13)
        for sigma in (0.5, 2.0, 6.0):
            for v0 in (0.1, 0.3, 0.99):
                kc = kappa_c(v0)
                for k0 in (0.5 * kc, 1.1 * kc, 2.0):
                    packet = wide(k0, sigma)
                    direct = ior_direct(packet, v0)
                    momentum = ior_momentum(packet, v0, settings=tight)
                    gap = abs(direct.value - momentum.value)
                    assert gap <= direct.err + momentum.err, (sigma, v0, k0, direct, momentum)

    @pytest.mark.parametrize("k0", [1e-6, 1e-8])
    def test_tiny_k0_agrees_with_momentum(self, k0):
        # the seeds follow kappa_c's scale inside Phi's window, not the
        # sine's pi/k0, so the nodes meet the packet: the direct route
        # agrees with momentum within the summed errs, and toa_difference
        # with Q_c/k0 - R_c.  Both routes are linear in k0, as at k0 = 1e-4
        packet = GaussianPacket(q0=-50.0, sigma=0.5, k0=k0)
        direct = ior_direct(packet, 0.3)
        momentum = ior_momentum(packet, 0.3, settings=QuadratureSettings(rel_tol=1e-13))
        assert abs(direct.value - momentum.value) <= direct.err + momentum.err
        barrier = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)
        gap = qc_expectation(packet).value / k0 - direct.value
        delta = toa_difference(packet, barrier).value
        assert delta == pytest.approx(barrier.length * gap, rel=1e-10)
        slope = ior_direct(GaussianPacket(q0=-50.0, sigma=0.5, k0=1e-4), 0.3).value / 1e-4
        assert ior_momentum(packet, 0.3).value / k0 == pytest.approx(slope, rel=1e-6)
        assert direct.value / k0 == pytest.approx(slope, rel=1e-6)

    @pytest.mark.parametrize(
        "sigma, k0", [(0.5, 2.0), (0.5, 0.3), (2.0, 1.0), (0.5, 1e-6), (0.5, 1e-8)]
    )
    def test_zero_height_is_the_free_transform(self, sigma, k0):
        # at v0 = 0, T_B = T_F has no kappa_c: the route transforms T_F at
        # bandwidth 0, bit for bit, and agrees with Q_c / k0 within its err.
        # At k0 = 1e-6 and 1e-8 the first period, 2 pi/k0, is clipped to
        # Phi's window, so the nodes meet the packet
        packet = wide(k0, sigma)
        est = ior_direct(packet, 0.0)
        val, err = _phi_transform(
            lambda zeta: free_factor(zeta).value, packet, DEFAULT_SETTINGS, 0.0
        )
        assert (est.value.hex(), est.err.hex()) == (val.hex(), err.hex())
        assert abs(est.value - qc_expectation(packet).value / k0) <= est.err

    def test_zero_abs_tol_ends_where_phi_underflows(self):
        # at abs_tol = 0 the window's cut is 0: it ends where Phi underflows,
        # and the Table 1 cell answers with the default settings' value
        packet = narrow(2.0)
        est = ior_direct(packet, 0.3, settings=QuadratureSettings(abs_tol=0.0))
        assert est.value.hex() == ior_direct(packet, 0.3).value.hex()
        assert est.err <= 1e-10 * abs(est.value)

    @pytest.mark.parametrize("sigma, v0, k0", [(6.0, 0.3, 0.3), (9.0, 0.3, 0.65)])
    def test_err_is_honest_where_rc_is_small(self, sigma, v0, k0):
        # R_c is 1.7e-9 and 9.4e-3 here: the err meets the tolerance against
        # the total, not each period's, and still covers the momentum route
        # run 1000x tighter
        packet = wide(k0, sigma)
        est = ior_direct(packet, v0)
        assert est.err <= max(DEFAULT_SETTINGS.abs_tol, DEFAULT_SETTINGS.rel_tol * abs(est.value))
        ref, _, _ = momentum_split(packet, v0, settings=QuadratureSettings(rel_tol=1e-13))
        assert abs(est.value - ref.value) <= est.err

    @pytest.mark.parametrize("k0, rel_tol", [(0.65, 1e-10), (6.0, 1e-13)])
    def test_wide_cells_answer_at_a_small_segment_cap(self, k0, rel_tol):
        # at sigma = 9 the window opens on 28 and 161 segments (22 and 155
        # periods, and the first period's six graded points), near or above
        # max_subdivisions = 32: the bisections come on top of the openings,
        # so these cells still answer, as they did on one run per period
        packet = wide(k0)
        settings = QuadratureSettings(rel_tol=rel_tol, max_subdivisions=32)
        est = ior_direct(packet, 0.3, settings=settings)
        ref, _, _ = momentum_split(packet, 0.3, settings=QuadratureSettings(rel_tol=1e-13))
        assert abs(est.value - ref.value) <= est.err

    def test_huge_k0_raises_before_any_barrier_value(self):
        # at k0 = 1e7 the window holds ~1.4e7 periods, above 16 x
        # max_subdivisions: the route raises before taking a single T_B value
        with KERNEL_PINS.counting("kernels._TbCore.value") as calls:
            with pytest.raises(QuadratureError, match="periods"):
                ior_direct(narrow(1e7), 0.3)
        assert calls[0] == 0

    def test_seeded_panels_cut_the_barrier_calls(self):
        # T_B calls over Table 1's seven v0 = 0.3 direct cells.  With every
        # panel opened as one segment, bisected toward T_B's 1/zeta start and
        # at kappa_c's scale, they made 2,391; on one-period panels that each
        # met the tolerance, 1,589; in one run over the window with the first
        # period graded six halvings toward zeta = 0, 1,554; with the first
        # period under zeta = w u^3 instead, 945.  Those values sum 16,065
        # F_B and 24,011 branch-cut nodes
        counts = KERNEL_PINS.direct_counts(KERNEL_PINS.TABLE1_DIRECT_CELLS)
        assert counts == (945, 16065, 24011)

    def test_bandwidth_panels_cut_the_wide_calls(self):
        # T_B calls over the wide_packets benchmark's two direct cells
        # (sigma 9, v0 0.1).  On adaptive G7/K15 panels, pi/k0 wide and split
        # at kappa_c's scale, they made 1,716; on one-period panels that each
        # met the tolerance, 1,310; in one run with the first period graded
        # six halvings toward zeta = 0, 1,197; with it under zeta = w u^3,
        # 945, which sum 34,321 F_B and 7,907 branch-cut nodes
        counts = KERNEL_PINS.direct_counts(KERNEL_PINS.WIDE_DIRECT_CELLS)
        assert counts == (945, 34321, 7907)

    @pytest.mark.parametrize(
        "sigma, v0, k0", KERNEL_PINS.TABLE1_DIRECT_CELLS + [(0.7, 0.0, 2.0), (9.0, 0.1, 0.65)],
    )
    def test_integrand_is_the_barrier_value_times_phi(self, monkeypatch, sigma, v0, k0):
        # at every node the route's integrand is the value of the T_B core
        # of strength -v0 times Phi(zeta), bit for bit, on Table 1's seven
        # direct cells, at v0 = 0, where T_B is T_F, and on a wide cell
        # whose nodes pass the branch skip; sigma = 0.7 also tells
        # zeta/sigma from zeta (1/sigma) apart
        nodes = []
        transform = ior.sine_transform_decaying

        def recording(f, *args):
            def g(zeta):
                nodes.append((zeta, f(zeta)))
                return nodes[-1][1]
            return transform(g, *args)

        monkeypatch.setattr(ior, "sine_transform_decaying", recording)
        packet = GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)
        ior_direct(packet, v0)
        assert len(nodes) > 100
        for zeta, value in nodes:
            expected = kernels._tb_core(-v0).value(zeta) * phi_overlap(packet, zeta)
            assert value.hex() == expected.hex(), zeta

    # at hbar = 0.5 a product or quotient by mu c/hbar rounds the same
    # whichever order its factors take, so a third unit system tells the
    # orders of the natural packet's conversion apart
    UNITS = [NATURAL_UNITS, PhysicalParams(mu=2.0, c=3.0, hbar=0.5),
             PhysicalParams(mu=0.7, c=1.3, hbar=1.1)]

    @hyp_settings(max_examples=12)
    @given(
        sigma=st.floats(min_value=0.5, max_value=9.0),
        k0=st.floats(min_value=0.3, max_value=3.0),
        v0_frac=st.floats(min_value=0.0, max_value=0.99, exclude_min=True, exclude_max=True),
        params=st.sampled_from(UNITS),
    )
    @example(sigma=2.0, k0=1.0, v0_frac=0.5, params=UNITS[2])
    def test_bits_match_composed_barrier_factor(self, sigma, k0, v0_frac, params):
        # whatever the units, the route is the sine transform of
        # barrier_factor's natural-unit value at the natural packet, node by
        # node, bit for bit, seeded at T_B's own wavenumber kappa_c.  At
        # hbar = 0.5 the natural sigma reaches 108, where a cell whose R_c
        # is near 0 can miss abs_tol within the cap: both forms then raise
        # the same QuadratureError
        packet = GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)
        v0 = v0_frac * params.rest_energy
        packet_n, vn = natural(packet, v0, params)

        def bits(run):
            try:
                est = run()
            except QuadratureError as exc:
                return str(exc)
            return est.value.hex(), est.err.hex()

        composed = bits(lambda: Estimate(*_phi_transform(
            lambda zeta: barrier_factor(-vn, zeta).value,
            packet_n, DEFAULT_SETTINGS, kappa_c(vn),
        )))
        assert bits(lambda: ior_direct(packet, v0, params, DEFAULT_SETTINGS)) == composed

    def test_abs_tol_from_4000_on_raises_a_typed_error(self):
        # the window closes where 4 Phi meets 1e-3 abs_tol, which 4 Phi <= 4
        # never does from abs_tol = 4000 on: both transforms of Phi raise a
        # ValueError that names abs_tol.  Below it every bit is kept
        barrier = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)
        loose = QuadratureSettings(abs_tol=3999.0)
        direct = ior_direct(narrow(1.0), 0.3, settings=loose)
        toa = toa_difference(narrow(1.0), barrier, settings=loose)
        assert (direct.value.hex(), direct.err.hex()) == (
            "0x1.125e0706d8d26p+0", "0x1.f1eb146a97b40p-38"
        )
        assert (toa.value.hex(), toa.err.hex()) == (
            "-0x1.fd31a758bbf74p-6", "0x1.00776d2b35406p-37"
        )
        for abs_tol in (4000.0, 1e6):
            settings = QuadratureSettings(abs_tol=abs_tol)
            with pytest.raises(ValueError, match="abs_tol must be below 4000"):
                ior_direct(narrow(1.0), 0.3, settings=settings)
            with pytest.raises(ValueError, match="abs_tol must be below 4000"):
                toa_difference(narrow(1.0), barrier, settings=settings)


class TestIorSeries:
    def test_reference_values(self):
        assert ior_series(narrow(2.0), 0.5).value == pytest.approx(1.48255, abs=1e-4)
        assert ior_series(narrow(2.0), 0.6).value == pytest.approx(1.52350, abs=1e-4)
        assert ior_series(narrow(3.0), 0.3).value == pytest.approx(1.24812, abs=2e-4)

    def test_wide_packet_diverges(self):
        with pytest.raises(SeriesDivergenceError):
            ior_series(wide(0.19), 0.3)

    def test_tiny_k0_takes_an_out_of_range_switch_point_as_inf(self):
        # at k0 = 1e-300 (sigma 0.5) one bound on the M = 1 switch point of
        # J's Laplace expansion is past the float range.  R_c lies within
        # the errs of the direct route's, and Q_c ~ 1.35 k0^2 underflows
        series, direct = ior_series(narrow(1e-300), 0.3), ior_direct(narrow(1e-300), 0.3)
        assert abs(series.value - direct.value) <= series.err + direct.err
        assert qc_expectation(narrow(1e-300)) == Estimate(0.0, 0.0)

    def test_one_rule_halves_the_j_calls(self):
        # J calls over Table 1's seven v0 = 0.3 series cells, one for M_0
        # and one per node of the branch transform's rule below the far
        # form's z0: 2,261 when it summed the h = 2^-3 rule to take the
        # h = 2^-2 rule's err, 1,134 when every node of the h = 2^-2 rule
        # called J, 131 now
        assert KERNEL_PINS.series_counts(KERNEL_PINS.TABLE1_SERIES_CELLS)[0] == 131

    def test_laplace_expansion_spares_the_faddeeva_calls(self):
        # every one of those J calls sums w, J(0) and the nodes below the
        # packet's z_8, as when the expansion was summed node by node
        assert KERNEL_PINS.series_counts(KERNEL_PINS.TABLE1_SERIES_CELLS)[1] == 131

    @pytest.mark.parametrize("k0", [0.15, 2.0, 5.0])
    @pytest.mark.parametrize("v0", [0.3, 0.6])
    def test_branch_transform_matches_nested_oracle(self, k0, v0):
        swapped, swapped_err = _branch_transform(ior._laplace_sine(narrow(k0)), narrow(k0), v0)
        nested, nested_err = nested_branch_transform(narrow(k0), v0)
        gap = abs(swapped - nested)
        # the nested form sums the same branch rule per zeta, so the swapped
        # err alone must cover the gap
        assert gap <= swapped_err
        assert gap <= 5e-14

    def test_error_bar_covers_tight_run(self):
        # the reported err bounds the distance to a run at much tighter
        # tolerances, on the benchmark's Table 1 rows and the v0 = 0.5, 0.6 rows
        tight = QuadratureSettings(rel_tol=1e-13, abs_tol=1e-16)
        rows = [(k0, 0.3) for k0 in (2.0, 0.9, 3.0, 5.0, 0.15, 0.2, 0.25)]
        for k0, v0 in rows + [(2.0, 0.5), (2.0, 0.6)]:
            res = ior_series(narrow(k0), v0)
            ref = ior_series(narrow(k0), v0, settings=tight)
            assert abs(res.value - ref.value) <= res.err, (k0, v0)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: the series route's moment recurrence loses its "
        "digits at sigma >= 1 while its err stays near 1e-12",
    )
    @pytest.mark.parametrize("sigma, v0, k0", [(1.0, 0.3, 6.0), (2.0, 0.99, 2.2)])
    def test_err_covers_momentum_route_at_wider_packets(self, sigma, v0, k0):
        # the momentum route is independent of the series route's moments;
        # a typed error instead of an answer meets item 9's gate too
        packet = wide(k0, sigma)
        try:
            series = ior_series(packet, v0)
        except SeriesDivergenceError:
            return
        momentum = ior_momentum(packet, v0, settings=QuadratureSettings(rel_tol=1e-13))
        assert abs(series.value - momentum.value) <= series.err + momentum.err


# the reduced sweep's series cells that answer outside their err, as
# (sigma, v0, k0/kappa_c): the moment recurrence (ROADMAP item 9)
SERIES_ITEM9_CELLS = {(2.0, 0.3, 1.1), (2.0, 0.3, 2.0), (2.0, 0.99, 1.1)}
SERIES_OK = {"within", "SeriesDivergenceError"}


@pytest.fixture(scope="module")
def reduced_sweep():
    rows = ROUTE_SWEEP.sweep(ROUTE_SWEEP.reduced_grid())
    return {(row["sigma"], row["v0"], round(row["k0"] / kappa_c(row["v0"]), 6)): row
            for row in rows}


def laplace_sine_oracle(sigma: float, k0: float, z: float) -> float:
    """J(z) = Im[sigma sqrt(2 pi) w((k0 + i z) sqrt(2) sigma)] of a natural
    packet, from mpmath's exp and erfc at 40 digits, plus 2 log10 of the
    argument's size as guard digits: exp(-x^2) and erfc(-i x) are huge and
    tiny where |x| is large, and J is a small part of their product."""
    size = math.sqrt(2.0) * sigma * math.hypot(k0, z)
    with mp.workdps(40 + 2 * math.ceil(math.log10(1.0 + size))):
        root = mp.sqrt(2) * mp.mpf(sigma)
        x = mp.mpc(k0, z) * root
        return float(mp.im(mp.sqrt(mp.pi) * root * mp.exp(-x * x) * mp.erfc(-1j * x)))


class TestLaplaceSine:
    """J(z) of the series route: w's closed form, which the route sums
    below its far form's z0 and at J(0), and the far form, the 8-term
    Laplace expansion in inverse powers of z, from z0 up."""

    @given(
        log_sigma=st.floats(math.log(0.25), math.log(3000.0)),
        log_k0=st.floats(math.log(0.01), math.log(10.0)),
        above=st.booleans(),
        log_offset=st.floats(-12.0 * math.log(10.0), math.log(0.5)),
    )
    @example(log_sigma=math.log(0.5), log_k0=math.log(0.15), above=False,
             log_offset=math.log(1e-12))
    @example(log_sigma=math.log(0.5), log_k0=math.log(5.0), above=True,
             log_offset=math.log(1e-12))
    @example(log_sigma=math.log(2.0), log_k0=math.log(5.86), above=True,
             log_offset=math.log(1e-12))
    def test_both_forms_meet_the_mpmath_oracle(self, log_sigma, log_k0, above, log_offset):
        # z on either side of z0: w lies within the Faddeeva bound of J
        # below it, with no allowance; from z0 up the far form lies within
        # its own bound, (2^-54 + 2^-56) of J's lower bound k0/(2 z^2), plus
        # the rounding of its sum here, and z_8's remainder bound E_8 and
        # J's lower bound hold
        sigma, k0 = math.exp(log_sigma), math.exp(log_k0)
        a = 1.0 / (8.0 * sigma * sigma)
        packet = GaussianPacket(0.0, sigma, k0)
        start, coeffs = ior._laplace_far(packet)
        z = start * (1.0 + math.exp(log_offset) if above else 1.0 - math.exp(log_offset))
        ref = laplace_sine_oracle(sigma, k0, z)
        if not above:
            value = ior._laplace_sine(packet)(z)
            assert abs(value - ref) <= FADDEEVA_IM_REL_ERR * abs(ref)
            return
        assert z >= ior._laplace_switch(a, k0)
        remainder = a**8 / math.factorial(8) * min(
            math.factorial(16) / z**17, k0 * math.factorial(17) / z**18,
        )
        lower = k0 / (2.0 * z * z)
        assert remainder <= 2.0**-54 * lower <= 2.0**-54 * ref
        terms = [e_p * z ** (-2 * p) for p, e_p in enumerate(coeffs, start=1)]
        rounding = 2.0**-53 * sum((2 * p + 3) * abs(t) for p, t in enumerate(terms, start=1))
        assert abs(math.fsum(terms) - ref) <= (2.0**-54 + 2.0**-56) * lower + rounding


class TestRouteSweep:
    # scripts/route_sweep.py on its reduced grid: sigma 0.5 to 6, v0 0.3 and
    # 0.99, k0 on both sides of kappa_c, against momentum_split at 1e-13

    def test_direct_and_momentum_answer_within_their_err(self, reduced_sweep):
        for cell, row in reduced_sweep.items():
            for route in ("direct", "momentum"):
                assert ROUTE_SWEEP.outcome(row, route) == "within", (cell, route, row)

    def test_series_answers_within_its_err_or_declines(self, reduced_sweep):
        for cell, row in reduced_sweep.items():
            if cell not in SERIES_ITEM9_CELLS:
                assert ROUTE_SWEEP.outcome(row, "series") in SERIES_OK, (cell, row)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: the series route's moment recurrence loses its "
        "digits at sigma >= 1 while its err stays near 1e-12",
    )
    def test_series_item9_cells_answer_within_their_err_or_decline(self, reduced_sweep):
        assert SERIES_ITEM9_CELLS <= reduced_sweep.keys()
        for cell in SERIES_ITEM9_CELLS:
            assert ROUTE_SWEEP.outcome(reduced_sweep[cell], "series") in SERIES_OK, cell

    def test_reference_is_read_from_a_saved_sweep(self, monkeypatch, tmp_path):
        # --reference takes ref and ref_err from a saved --out file, by
        # (sigma, v0, k0), and the ratios against them
        cell = ROUTE_SWEEP.reduced_grid()[0]
        saved = tmp_path / "old.csv"
        saved.write_text("sigma,v0,k0,ref,ref_err\n" + ",".join(map(repr, cell)) + ",0.5,0.25\n")
        reference = ROUTE_SWEEP.read_reference(str(saved))
        assert reference == {cell: Estimate(0.5, 0.25)}
        row = ROUTE_SWEEP.sweep([cell], reference)[0]
        assert (row["ref"], row["ref_err"]) == (0.5, 0.25)
        sigma, v0, k0 = cell
        momentum = ior_momentum(GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0), v0)
        assert row["momentum_ratio"] == abs(momentum.value - 0.5) / (momentum.err + 0.25)
        monkeypatch.setattr(sys, "argv", ["route_sweep.py", "--grid", "reduced",
                                          "--reference", str(saved)])
        with pytest.raises(SystemExit, match="2"):
            ROUTE_SWEEP.main()

    def test_exit_status_names_an_answer_outside_its_err(self, monkeypatch, tmp_path):
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(sys, "argv", ["route_sweep.py", "--grid", "reduced", "--out", str(out)])
        status = ROUTE_SWEEP.main()
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(ROUTE_SWEEP.reduced_grid())
        header = lines[0].split(",")
        assert header[:8] == ["sigma", "v0", "k0", "ref", "ref_err", "direct", "direct_err",
                              "direct_ratio"]
        ratios = [float(field) for line in lines[1:]
                  for name, field in zip(header, line.split(","))
                  if name.endswith("_ratio") and field]
        # while item 9 stands, its series cells answer outside their err
        assert any(ratio > 1.0 for ratio in ratios)
        assert status == ROUTE_SWEEP.EXIT_OUTSIDE


class TestIorMomentum:
    def test_reference_values(self):
        assert ior_momentum(narrow(2.0), 0.2).value == pytest.approx(1.32442, abs=1e-4)
        assert ior_momentum(narrow(0.15), 0.3).value == pytest.approx(0.18996, abs=1e-4)

    def test_wide_packet_tiny(self):
        res, plus, _ = momentum_split(wide(0.19), 0.3)
        assert abs(res.value) < 1e-20
        # magnitude scale of the suppressed crossing weight
        assert 1e-31 < plus.value < 1e-27

    def test_decomposition_exact(self):
        res, plus, minus = momentum_split(narrow(0.5), 0.3)
        assert plus.value >= 0.0
        assert minus.value >= 0.0
        assert res.value == plus.value - minus.value  # exact identity
        assert res.err == plus.err + minus.err
        assert ior_momentum(narrow(0.5), 0.3) == res

    def test_split_error_bars_cover_tight_run(self):
        # each weight's err bounds its distance to a run at 1000x tighter
        # tolerances: narrow and wide packets on both sides of kappa_c, the
        # Table 1 rows, and Fig. 5's scan (sigma 6, v0 0.99, 120 k0)
        tight = QuadratureSettings(rel_tol=1e-13, abs_tol=1e-16)
        packets = (narrow(0.5), narrow(2.0), wide(0.7, 2.0), wide(1.0, 6.0), wide(0.19), wide(2.0))
        cases = [(packet, v0) for packet in packets for v0 in (0.1, 0.3, 0.99)]
        cases += [(narrow(k0), v0) for k0, v0, _ in TABLE1_ROWS]
        cases += [(wide(float(k0), 6.0), 0.99) for k0 in np.linspace(0.1, 6.0, 120)]
        assert len(cases) == 148
        for packet, v0 in cases:
            _, plus, minus = momentum_split(packet, v0)
            _, plus_t, minus_t = momentum_split(packet, v0, settings=tight)
            assert abs(plus.value - plus_t.value) <= plus.err, (packet, v0)
            assert abs(minus.value - minus_t.value) <= minus.err, (packet, v0)

    # (v0, sigma, k0): two cells where the root cancelled in floating point
    # made err undershoot the actual error 10x and 7x, then a grid with k0
    # at 0.8 and 1.25 times kappa_c
    ORACLE_CELLS = [(0.755719, 6.0, 1.25091), (0.66194, 3.0, 0.94001)] + [
        (v0, sigma, round(f * kappa_c(v0), 6))
        for sigma in (0.5, 2.0, 6.0, 9.0)
        for v0 in (0.1, 0.3, 0.9, 0.99)
        for f in (0.8, 1.25)
    ]
    # cells whose +k core lies 12 and 24 sigma_k above kappa_c, where the
    # Gauss-Hermite pair once took the weight, rounded up to six decimals
    CORE_CELLS = [
        (v0, sigma, math.ceil((kappa_c(v0) + m * 0.5 / sigma) * 1e6) / 1e6)
        for sigma in (2.0, 6.0, 9.0)
        for v0 in (0.1, 0.99)
        for m in (12, 24)
    ]
    ORACLE_CELLS += CORE_CELLS

    @pytest.mark.parametrize("v0, sigma, k0", ORACLE_CELLS)
    def test_error_covers_scipy_oracle(self, v0, sigma, k0):
        est = ior_momentum(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0)
        assert abs(est.value - ORACLES.momentum_rc(v0, sigma, k0)) <= est.err

    @given(
        sigma=st.floats(min_value=0.2, max_value=12.0),
        k0=st.floats(min_value=0.01, max_value=6.0),
        v0_frac=st.floats(min_value=0.001, max_value=0.999),
        params=st.sampled_from(UNIT_SYSTEMS),
    )
    def test_tau_integrand_matches_k_form(self, sigma, k0, v0_frac, params):
        # the tau rule's w from _crossing_integrand, which times the Gaussian
        # exp(-2 sigma^2 (k -+ k0)^2) is the node at k = kappa_c cosh(tau),
        # against the k-form sqrt(2 sigma^2/pi) sqrt(E^2/D) dk/dtau, with
        # D = (E - v0)^2 - 1 and dk/dtau = sqrt(k^2 - kappa_c^2), which
        # cancels near kappa_c, all in natural units.  The k-form's rounding
        # bounds their relative gap, in units of eps:
        #  * D: E from hypot(k, 1) is within 3 eps, so E - v0 within
        #    4 eps E, its square within 9 eps E^2; with the subtraction,
        #    |dD| <= 10 eps E^2 + eps D, and sqrt(E^2/D) moves by half that
        #    relative to D;
        #  * the threshold: k - kappa_c is within eps k, and the float
        #    kappa_c sits within 5 eps kappa_c of the root of D; the k-form
        #    goes as (k - kappa_c)^(+-1/2), so each moves it by half that
        #    over k - kappa_c;
        #  * 17 eps for the remaining roundings of both forms.
        # The unit system is drawn for the public entry, which runs the
        # integrand bit for bit at the natural packet and strength
        drawn = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
        v0 = v0_frac * params.rest_energy
        packet, vn = natural(drawn, v0, params)
        assert momentum_split(drawn, v0, params) == momentum_split(packet, vn)
        kc = kappa_c(vn)
        w = _crossing_integrand(packet, vn)
        eps = sys.float_info.epsilon
        norm = math.sqrt(2.0 * packet.sigma * packet.sigma / math.pi)
        at_threshold = w(kc)
        assert math.isfinite(at_threshold) and at_threshold > 0.0
        ks = [kc * math.cosh(math.sqrt(2.0**-j)) for j in range(0, 80)]
        ks += [packet.k0 + j * packet.sigma_k / 4.0 for j in range(-40, 41)]
        for k in ks:
            gap = k - kc
            if gap <= 2.0**24 * math.ulp(kc):
                continue
            e_k = math.hypot(k, 1.0)
            denom = gap * (k + kc) * (e_k - vn + 1.0) / (e_k + 1.0 + vn)
            bound = eps * (
                (10.0 * e_k * e_k + denom) / (2.0 * denom) + (2.0 * k + 5.0 * kc) / gap + 17.0
            )
            k_form = norm * crossing_weight(k, vn, NATURAL_UNITS) * math.sqrt(gap * (k + kc))
            assert abs(w(k) - k_form) <= bound * k_form, (k, w(k), k_form)

    def test_underflowed_gaussian_gives_exact_zero(self):
        # sigma 9, k0 2.5: the -k Gaussian exp(-2 sigma^2 (k + k0)^2) has
        # underflowed already at kappa_c, so it is 0.0 at every node: the
        # minus weight is exactly zero, with a zero error, and w is never
        # called for it
        packet, v0 = GaussianPacket(q0=-360.0, sigma=9.0, k0=2.5), 0.3
        kc = kappa_c(v0)
        assert math.exp(-2.0 * 81.0 * (kc + 2.5) ** 2) == 0.0
        with KERNEL_PINS.counting(CROSSING_W) as calls:
            minus = ior._weight(packet, v0, DEFAULT_SETTINGS, kc, -1)
        assert calls == [0]
        assert minus == (0.0, 0.0)
        assert minus[0].hex() == "0x0.0p+0"
        _, _, split_minus = momentum_split(packet, v0)
        assert split_minus == Estimate(0.0, 0.0)
        # on the +k side w is finite and positive from kappa_c to far past
        # the Gaussian's reach
        w = _crossing_integrand(packet, v0)
        assert all(math.isfinite(w(k)) and w(k) > 0.0 for k in (kc, 1.0, 1e3, 1e150))

    @given(
        expo=st.floats(min_value=700.0, max_value=760.0),
        k0=st.floats(min_value=0.05, max_value=6.0),
        v0_frac=st.floats(min_value=0.01, max_value=0.999),
        params=st.sampled_from(UNIT_SYSTEMS),
    )
    def test_minus_skip_matches_the_integral_at_its_edge(self, expo, k0, v0_frac, params):
        # sigma puts the -k Gaussian's exponent 2 sigma^2 (kappa_c + k0)^2 at
        # expo, so exp of it runs from normal through subnormal to 0.0 at
        # kappa_c.  The -k weight keeps an err of at least one step of
        # 2^-1074 throughout, also where exp underflows and the rule scales
        # the Gaussian back, and ior_momentum, which may skip it, keeps
        # momentum_split's bits
        v0 = v0_frac * params.rest_energy
        kc = kappa_c(v0, params)
        sigma = math.sqrt(0.5 * expo) / (kc + k0)
        packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
        rc, _, minus = momentum_split(packet, v0, params)
        assert minus.value >= 0.0 and minus.err >= 2.0**-1074
        est = ior_momentum(packet, v0, params)
        assert (est.value.hex(), est.err.hex()) == (rc.value.hex(), rc.err.hex())

    @given(
        sigma=st.floats(min_value=0.5, max_value=9.0),
        v0=st.floats(min_value=0.05, max_value=0.99),
        k0=st.floats(min_value=0.1, max_value=6.0),
    )
    # two sweep cells where an unseeded -k integral's err understated its
    # gap to the reference 4.6x and 2.2x
    @example(sigma=6.0, v0=0.407959, k0=0.502279)
    @example(sigma=3.0, v0=0.847063, k0=4.444005)
    def test_minus_weight_covers_scipy_reference(self, sigma, v0, k0):
        # the -k weight lies within its err of scipy's quad; below 1e-300
        # the reference's own digits thin out
        packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
        _, _, minus = momentum_split(packet, v0)
        if minus == Estimate(0.0, 0.0):
            return  # skipped: the -k Gaussian is 0.0 at kappa_c
        reference = minus_weight_reference(v0, sigma, k0)
        if reference >= 1e-300:
            assert abs(minus.value - reference) <= minus.err, (minus, reference)

    # -k weights in the subnormal range, where the nodes round on the grid
    # 2^-1074 and the err counts steps of it: two sweep cells, and a cell 2
    # steps from the reference, which one step would not cover
    @pytest.mark.parametrize(
        "sigma, v0, k0",
        [(6.0, 0.973889, 1.506871), (6.0, 0.542374, 2.021232), (3.893754, 0.600255, 3.6857)],
    )
    def test_subnormal_minus_weight_covers_scipy_reference(self, sigma, v0, k0):
        _, _, minus = momentum_split(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0)
        assert 0.0 < minus.value < sys.float_info.min
        reference = minus_weight_reference(v0, sigma, k0)
        assert abs(minus.value - reference) <= minus.err, (minus, reference)

    @given(
        sigma=st.floats(min_value=0.5, max_value=9.0),
        v0_frac=st.floats(min_value=1e-12, max_value=0.99),
        k0=st.floats(min_value=0.05, max_value=6.0),
        params=st.sampled_from(UNIT_SYSTEMS),
    )
    @example(sigma=0.5, v0_frac=1e-12, k0=2.0, params=NATURAL_UNITS)
    @example(sigma=9.0, v0_frac=1e-12, k0=0.05, params=UNIT_SYSTEMS[2])
    @example(sigma=6.0, v0_frac=0.99, k0=0.1, params=NATURAL_UNITS)
    # a -k exponent of 745.5 at kappa_c, where exp underflows and the weight
    # is 5e-324: a rule that returned (0.0, 0.0) there had no err to cover it
    @example(sigma=7.188219753998432, v0_frac=2.2558930546921778e-05, k0=2.6802896963897833,
             params=NATURAL_UNITS)
    @hyp_settings(max_examples=30)
    def test_weights_cover_the_mpmath_reference(self, sigma, v0_frac, k0, params):
        # each weight of momentum_split lies within its err of the 40-digit
        # reference, whose own err is below 1e-30 of it
        v0 = v0_frac * params.rest_energy
        _, plus, minus = momentum_split(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0, params)
        for sign, est in ((+1, plus), (-1, minus)):
            ref, ref_err = momentum_weight_reference(v0, sigma, k0, sign, params)
            assert ref_err <= 1e-30 * ref or ref == 0.0
            assert abs(est.value - ref) <= est.err + ref_err, (sign, est, ref)

    def test_cell_that_sank_the_squared_test_lies_within_its_err(self):
        # a stop one level sooner on |T_h - T_2h| gave 2.2454467309623993
        # +- 2.3e-13 here; the truth is the rel_tol 1e-14 run of the rule
        # that confirmed each level
        est = ior_momentum(GaussianPacket(q0=-100.0, sigma=2.0, k0=1.209351), 0.566334)
        assert abs(est.value - 2.245446730906325) <= est.err, est
        assert est.err <= DEFAULT_SETTINGS.rel_tol * est.value

    @pytest.mark.parametrize("k0", [1.05, 1.5, 3.0])
    def test_fig5_barrier_weights_lie_within_err_of_the_reference(self, k0):
        # Fig. 5's barrier, sigma 6 and v0 0.99: k0 8 and 2.6 sigma_k below
        # kappa_c = 1.72 and 15 sigma_k above it, each weight within its err
        # of the 40-digit reference
        _, plus, minus = momentum_split(GaussianPacket(q0=-100.0, sigma=6.0, k0=k0), 0.99)
        for sign, est in ((+1, plus), (-1, minus)):
            ref, ref_err = momentum_weight_reference(0.99, 6.0, k0, sign, NATURAL_UNITS)
            assert abs(est.value - ref) <= est.err + ref_err, (sign, est, ref)

    def test_pin_cells_take_one_level_each(self):
        # the momentum pin's 80 cells: each tau rule sums one level at its
        # a-priori step, with no confirming level (5,267 evaluations when
        # each rule halved until two levels agreed)
        assert KERNEL_PINS.momentum_evals(KERNEL_PINS.MOMENTUM_GRID) == 2462

    def test_step_halves_while_the_err_misses_rel_tol(self):
        # the tau rule sums one more level while its err exceeds rel_tol |T_h|
        # and the truncation term exceeds the rounding bound.  `scan --vo
        # 0.99 --sigma 6 --steps 120 --tol 1e-13` meets that at the +k
        # weights of rows 26 and 27, which take two levels each and then
        # meet rel_tol.  At default settings each of the 149 weights that
        # the momentum pin's 80 cells sum (the other 11 are exactly 0.0)
        # takes one level
        k0s = _grid("scan", "steps", 120, "--ko-min", 0.1, "--ko-max", 6.0)
        assert k0s[26:28] == [1.389075630252101, 1.4386554621848742]
        tight = QuadratureSettings(rel_tol=1e-13)
        for k0 in k0s[26:28]:
            packet, vn, kc = ior._momentum_cell(_packet(6.0, k0), 0.99, NATURAL_UNITS)
            with KERNEL_PINS.counting(TAU_LEVEL) as levels:
                value, err = ior._weight(packet, vn, tight, kc, +1)
            assert levels == [2] and err <= 1e-13 * value, (k0, err, value)
        with KERNEL_PINS.counting(TAU_LEVEL) as levels:
            for sigma, v0, k0 in KERNEL_PINS.grid_cells(KERNEL_PINS.MOMENTUM_GRID):
                momentum_split(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0)
        assert levels == [149]

    @pytest.mark.parametrize("k0", [1e-30, 1e-76, 1e-100, 1e-161, 1e-200])
    def test_tiny_k0_weight_lies_within_err_of_the_reference(self, k0):
        # the strip half-width's Newton start overflows where the Gaussian's
        # centre is near 0 (k0 ~ 1e-161 to 1e-76 at sigma 0.5), and d then
        # takes its limit _TAU_D_CAP
        _, plus, _ = momentum_split(narrow(k0), 0.3)
        ref, ref_err = momentum_weight_reference(0.3, 0.5, k0, +1, NATURAL_UNITS)
        assert abs(plus.value - ref) <= plus.err + ref_err, (plus, ref)

    def test_scan_rows_below_1e14_lie_within_err_of_the_reference(self):
        # Fig. 5's column as `scan` runs it, on the CLI's own k0 floats: R_c
        # moves ~220x faster than k0 there, so the 12 printed digits of k0
        # would not do.  Its 20 rows with R_c < 1e-14 (k0 <= 1.042), which
        # abs_tol once let stop at a few digits
        k0s = _grid("scan", "steps", 120, "--ko-min", 0.1, "--ko-max", 6.0)
        rows = 0
        for k0 in k0s:
            est = ior_momentum(_packet(6.0, k0), 0.99)
            if est.value >= 1e-14:
                continue
            rows += 1
            plus, plus_err = momentum_weight_reference(0.99, 6.0, k0, +1, NATURAL_UNITS)
            minus, minus_err = momentum_weight_reference(0.99, 6.0, k0, -1, NATURAL_UNITS)
            gap = abs(est.value - (plus - minus))
            assert gap <= est.err + plus_err + minus_err, (k0, est, plus - minus)
        assert rows == 20

    @pytest.mark.parametrize("v0", [1e-12, 1e-8, 1e-6])
    def test_tiny_barrier_answers_within_err_of_the_reference(self, v0):
        # kappa_c ~ sqrt(2 v0) ~ 1e-6 to 1e-3 puts the threshold far below
        # the packet: in tau the weights run flat from tau = 0 to the core
        for sigma, k0 in ((0.5, 2.0), (2.0, 0.5), (9.0, 0.05)):
            packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
            est = ior_momentum(packet, v0)
            plus, plus_err = momentum_weight_reference(v0, sigma, k0, +1, NATURAL_UNITS)
            minus, minus_err = momentum_weight_reference(v0, sigma, k0, -1, NATURAL_UNITS)
            assert abs(est.value - (plus - minus)) <= est.err + plus_err + minus_err

    def test_tiny_barrier_takes_few_evaluations(self):
        # at v0 = 1e-12 the tau window runs ~15 tau wide: a rule in
        # u = sqrt(k - kappa_c), which keeps a near-singularity of
        # 1/sqrt(k + kappa_c) at u = +-i sqrt(2 kappa_c), took 27,820
        # evaluations on such a cell
        for sigma, k0 in ((0.5, 2.0), (0.5, 6.0), (2.0, 0.5), (9.0, 0.05)):
            with KERNEL_PINS.counting(CROSSING_W) as calls:
                ior_momentum(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), 1e-12)
            assert 0 < calls[0] <= 1000, (sigma, k0, calls[0])

    @pytest.mark.parametrize("v0, sigma, k0", CORE_CELLS)
    def test_hermite_cells_take_the_pair(self, v0, sigma, k0):
        # the cells the Gauss-Hermite core once took now take the tau rule's
        # pair of weights: far above kappa_c the +k weight's err is relative,
        # well inside rel_tol, and the value path is the split's, bit for bit
        packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
        rc, plus, _ = momentum_split(packet, v0)
        assert 0.0 < plus.err <= DEFAULT_SETTINGS.rel_tol * plus.value
        est = ior_momentum(packet, v0)
        assert (est.value.hex(), est.err.hex()) == (rc.value.hex(), rc.err.hex())

    @given(
        sigma=st.floats(min_value=0.2, max_value=12.0),
        margin=st.floats(min_value=0.5, max_value=40.0),
        v0_frac=st.floats(min_value=0.001, max_value=0.999),
        params=st.sampled_from(UNIT_SYSTEMS),
    )
    @example(sigma=12.0, margin=12.0, v0_frac=0.999, params=UNIT_SYSTEMS[2])
    @example(sigma=0.2, margin=12.0, v0_frac=0.001, params=NATURAL_UNITS)
    def test_value_path_lies_within_err_of_the_split(self, sigma, margin, v0_frac, params):
        # k0 = kappa_c + margin sigma_k: ior_momentum within err + err_ref
        # of momentum_split at rel_tol 1e-13
        v0 = v0_frac * params.rest_energy
        packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=kappa_c(v0, params) + margin * 0.5 / sigma)
        est = ior_momentum(packet, v0, params)
        ref = momentum_split(packet, v0, params, QuadratureSettings(rel_tol=1e-13))[0]
        assert abs(est.value - ref.value) <= est.err + ref.err, (est, ref)

    def test_scan_column_lies_within_err_of_the_split(self):
        # Fig. 5's column, against momentum_split at rel_tol 1e-13
        for k0 in np.linspace(0.1, 6.0, 120):
            packet = wide(float(k0), 6.0)
            est = ior_momentum(packet, 0.99)
            ref = momentum_split(packet, 0.99, settings=QuadratureSettings(rel_tol=1e-13))[0]
            assert abs(est.value - ref.value) <= est.err + ref.err, (k0, est, ref)

    @given(
        sigma=st.floats(min_value=0.2, max_value=12.0),
        k0=st.floats(min_value=0.01, max_value=6.0),
        v0_frac=st.floats(min_value=0.001, max_value=0.999),
        params=st.sampled_from(UNIT_SYSTEMS),
    )
    # the subnormal -k weights below, and a -k weight near a quarter ulp of plus
    @example(sigma=6.0, k0=1.506871, v0_frac=0.973889, params=NATURAL_UNITS)
    @example(sigma=6.0, k0=2.021232, v0_frac=0.542374, params=NATURAL_UNITS)
    @example(sigma=3.893754, k0=3.6857, v0_frac=0.600255, params=NATURAL_UNITS)
    @example(sigma=2.0, k0=3.0, v0_frac=0.3, params=NATURAL_UNITS)
    def test_value_path_keeps_the_split_bits(self, sigma, k0, v0_frac, params):
        # the -k skip changes no bit of R_c's value or err
        v0 = v0_frac * params.rest_energy
        packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
        est = ior_momentum(packet, v0, params)
        ref = momentum_split(packet, v0, params)[0]
        assert (est.value.hex(), est.err.hex()) == (ref.value.hex(), ref.err.hex())

    @given(
        sigma=st.floats(min_value=0.2, max_value=12.0),
        k0=st.floats(min_value=0.01, max_value=6.0),
        v0_frac=st.floats(min_value=0.001, max_value=0.999),
        params=st.sampled_from(UNIT_SYSTEMS),
    )
    @example(sigma=6.0, k0=1.506871, v0_frac=0.973889, params=NATURAL_UNITS)
    @example(sigma=0.2, k0=0.01, v0_frac=0.001, params=NATURAL_UNITS)
    def test_minus_bound_holds_where_the_integral_runs(self, sigma, k0, v0_frac, params):
        # the closed-form bound is above the -k weight wherever momentum_split
        # runs its integral.  Below the smallest normal float the rule sums
        # on the absolute grid 2^-1074, and its value may sit a few steps
        # above the integral, within its err.  The split runs in the drawn
        # units, and the bound at the natural packet and strength it runs
        v0 = v0_frac * params.rest_energy
        packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
        _, _, minus = momentum_split(packet, v0, params)
        assume(minus != Estimate(0.0, 0.0))
        packet_n, vn = natural(packet, v0, params)
        bound = _minus_bound(packet_n, vn, kappa_c(vn))
        if minus.value >= sys.float_info.min:
            assert minus.value <= bound, (minus, bound)
        else:
            assert minus.value - minus.err <= bound, (minus, bound)

    def test_value_path_cuts_the_evaluations(self):
        # over the benchmark sweep's sigmas plus a sigma 12 column, k0
        # across [0.1, 6] and v0 up to 0.99, ior_momentum takes
        # momentum_split's evaluations less those of the -k integrals it
        # skips, and it skips them on about a third of the cells (154 of 440)
        grid = [
            (GaussianPacket(q0=-100.0, sigma=sigma, k0=0.1 + 0.59 * j), v0)
            for sigma in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 12.0)
            for j in range(11)
            for v0 in (0.05, 0.3, 0.6, 0.9, 0.99)
        ]
        skipped = 0
        for packet, v0 in grid:
            counts = []
            for run in (
                lambda: ior_momentum(packet, v0),
                lambda: momentum_split(packet, v0),
                lambda: ior._weight(packet, v0, DEFAULT_SETTINGS, kappa_c(v0), -1),
            ):
                with KERNEL_PINS.counting(CROSSING_W) as calls:
                    run()
                counts.append(calls[0])
            value_path, split, minus = counts
            skipped += value_path < split
            assert value_path in (split, split - minus), (packet, v0, counts)
        assert skipped >= 0.3 * len(grid), skipped

    def test_methods_agree(self):
        for k0, v0 in ((2.0, 0.3), (0.25, 0.3)):
            a = ior_direct(narrow(k0), v0).value
            b = ior_series(narrow(k0), v0).value
            c = ior_momentum(narrow(k0), v0).value
            assert abs(a - c) < 1e-7
            assert abs(b - c) < 1e-7

    @pytest.mark.parametrize("k0", [0.5, 2.0])
    def test_three_routes_agree_at_the_rest_energy_scale(self, k0):
        # Fig. 5's barrier, v0 = 0.99: each route within the sum of errors
        momentum = ior_momentum(narrow(k0), 0.99)
        for route in (ior_direct, ior_series):
            est = route(narrow(k0), 0.99)
            assert abs(est.value - momentum.value) <= est.err + momentum.err, route.__name__

    def test_rejects_zero_height(self):
        with pytest.raises(ValueError):
            ior_momentum(narrow(2.0), 0.0)


class TestQcExpectation:
    def test_wide_packet_reaches_gamma(self):
        packet = GaussianPacket(q0=-300.0, sigma=6.0, k0=2.0)
        assert qc_expectation(packet).value == pytest.approx(math.sqrt(5.0), rel=1e-2)

    def test_slow_packet(self):
        packet = GaussianPacket(q0=-600.0, sigma=12.0, k0=0.5)
        assert qc_expectation(packet).value == pytest.approx(math.sqrt(1.25), rel=1e-2)
        # no barrier argument exists: barrier independence holds by signature

    def test_matches_nested_oracle(self):
        packet = GaussianPacket(q0=-300.0, sigma=6.0, k0=2.0)
        nested, nested_err = nested_qc(packet)
        qc = qc_expectation(packet)
        gap = abs(qc.value - nested)
        assert gap <= nested_err
        assert gap <= qc.err  # the err is carried, not a 0.0 placeholder
        assert gap <= 5e-13


class TestTraversalTime:
    barrier = BarrierSpec(v0=0.2, a=-21.0, b=-20.0)

    def test_reference_row_times_tc(self):
        packet = GaussianPacket(q0=-40.0, sigma=0.5, k0=2.0)
        tau, tau_plus, tau_minus = traversal_time(packet, self.barrier)
        t_c = self.barrier.length  # c = 1
        assert tau.value == pytest.approx(1.32442 * t_c, abs=2e-4 * t_c)
        assert tau.value == pytest.approx(tau_plus.value - tau_minus.value, rel=1e-14)

    def test_instantaneous_regime(self):
        barrier = BarrierSpec(v0=0.3, a=-400.0, b=-399.0)
        packet = GaussianPacket(q0=-500.0, sigma=9.0, k0=0.19)
        tau, _, _ = traversal_time(packet, barrier)
        assert abs(tau.value) < 1e-20 * barrier.length

    def test_plus_part_is_tau_top_average(self):
        # same integral, assembled independently (library route vs QUADPACK)
        barrier = BarrierSpec(v0=0.3, a=-300.0, b=-299.0)
        packet = GaussianPacket(q0=-400.0, sigma=6.0, k0=2.0)
        mine, via_my_engine = tau_plus_consistency(packet, barrier)
        assert mine == pytest.approx(via_my_engine, rel=1e-9)
        kc = kappa_c(barrier.v0)

        def integrand(u: float) -> float:
            k = kc + u * u
            return (
                2.0
                * u
                * momentum_density(packet, k, +1)
                * tau_top(k, barrier.v0, barrier.length)
            )

        oracle, _ = scipy.integrate.quad(integrand, 0.0, 12.0, limit=400,
                                         epsabs=1e-13, epsrel=1e-12)
        assert mine == pytest.approx(oracle, rel=1e-9)


    def test_scales_each_momentum_estimate_by_t_c(self):
        # the errs of the momentum weights are carried, not dropped
        packet = GaussianPacket(q0=-40.0, sigma=0.5, k0=2.0)
        t_c = self.barrier.length
        taus = traversal_time(packet, self.barrier)
        weights = momentum_split(packet, self.barrier.v0)
        assert taus == tuple(Estimate(t_c * w.value, t_c * w.err) for w in weights)
        assert all(tau.err > 0.0 for tau in taus)


class TestOneResultType:
    """Every public value-and-err return, from the engines to the
    traversal times, is an Estimate: a tuple that unpacks as value, err,
    with the repr Estimate(value=..., err=...)."""

    def test_every_value_and_err_is_an_estimate(self):
        packet = GaussianPacket(q0=-40.0, sigma=0.5, k0=2.0)
        barrier = BarrierSpec(v0=0.3, a=-21.0, b=-20.0)
        results = {
            "sine_transform_decaying": sine_transform_decaying(
                lambda z: math.exp(-z), 1.0, 40.0, 0.0),
            "integrate_semiinf_exp": integrate_semiinf_exp(lambda z: 1.0, 1.0, 1.0),
            "integrate_sqrt_endpoint": integrate_sqrt_endpoint(lambda k: k, 1.0, 0.0, 1.0),
            "branch_transform": branch_transform(
                0.3, ior._laplace_sine(packet), packet.k0, ior._laplace_far(packet)),
            "branch_integral": branch_integral(-0.3, 2.0, NATURAL_UNITS),
            "free_factor": free_factor(2.0),
            "barrier_factor": barrier_factor(-0.3, 2.0),
            "fb_series": fb_series(-0.3, 2.0),
            "region_kernel": region_kernel("III", -25.0, 2.0, barrier),
            "ior_direct": ior_direct(packet, 0.3),
            "ior_series": ior_series(packet, 0.3),
            "ior_momentum": ior_momentum(packet, 0.3),
            "qc_expectation": qc_expectation(packet),
            "toa_difference": toa_difference(packet, barrier),
        }
        for name, part in (("traversal_time", traversal_time(packet, barrier)),
                           ("momentum_split", momentum_split(packet, 0.3))):
            assert len(part) == 3, name
            results.update({f"{name}[{i}]": est for i, est in enumerate(part)})
        for name, est in results.items():
            assert type(est) is Estimate, name
            value, err = est
            assert (value, err) == (est.value, est.err), name
            assert type(value) is float and type(err) is float, name
            assert repr(est) == f"Estimate(value={value!r}, err={err!r})", name
        assert repr(Estimate(1.5, 0.25)) == "Estimate(value=1.5, err=0.25)"


class TestExtremeSigma:
    """A natural sigma whose square underflows to 0, or where 8 sigma^2
    overflows, is a configuration error on every route."""

    barrier = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-163, 5e153, 1e300])
    def test_every_route_raises_a_typed_error(self, sigma):
        packet = GaussianPacket(q0=-3.0 - 20.0 * sigma, sigma=sigma, k0=1.0)
        calls = {
            "ior_direct": lambda: ior_direct(packet, 0.3),
            "ior_series": lambda: ior_series(packet, 0.3),
            "ior_momentum": lambda: ior_momentum(packet, 0.3),
            "momentum_split": lambda: momentum_split(packet, 0.3),
            "qc_expectation": lambda: qc_expectation(packet),
            "toa_difference": lambda: toa_difference(packet, self.barrier),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(f"sigma {sigma!r} is {sigma!r} in natural"), name

    @pytest.mark.parametrize("sigma", [1e-140, 1e-120, 1e-100, 9.99e-77])
    def test_momentum_route_raises_below_its_least_sigma(self, sigma):
        # the tau rule's strip bound leaves the float range below a natural
        # sigma of ~7.3e-77, and the -k bound's lam^(3/2) underflows below
        # ~1e-107: each momentum-route entry names sigma instead
        packet = GaussianPacket(q0=-3.0 - 20.0 * sigma, sigma=sigma, k0=1.0)
        calls = {
            "ior_momentum": lambda: ior_momentum(packet, 0.3),
            "momentum_split": lambda: momentum_split(packet, 0.3),
            "traversal_time": lambda: traversal_time(packet, self.barrier),
            "superluminal_classify": lambda: superluminal_classify(packet, 0.3),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(
                f"sigma {sigma!r} is {sigma!r} in natural units, below 1e-76"), name

    @pytest.mark.parametrize("sigma", [1e-76, 1e-60])
    def test_momentum_route_answers_from_its_least_sigma(self, sigma):
        packet = GaussianPacket(q0=-3.0 - 20.0 * sigma, sigma=sigma, k0=1.0)
        rc = ior_momentum(packet, 0.3)
        assert rc == momentum_split(packet, 0.3)[0]
        assert math.isfinite(rc.value) and math.isfinite(rc.err)

    def test_underflowing_minus_bound_sums_the_minus_weight(self):
        # k0 and v0 near 1e-300 make the -k bound's lam^(3/2) underflow to 0
        # where sigma is fine: no bound, so the -k weight is summed, and
        # ior_momentum stays momentum_split's R_c
        packet = GaussianPacket(q0=-3.0, sigma=1e-60, k0=1e-300)
        assert _minus_bound(packet, 1e-300, kappa_c(1e-300)) == math.inf
        assert ior_momentum(packet, 1e-300) == momentum_split(packet, 1e-300)[0]

    def test_answers_just_inside_the_guard_stay(self):
        # the series route and Q_c answer where only 1/(8 sigma^2) is inf
        # (its Gaussians underflow in one piece) and near sigma ~ 2e153
        tiny = GaussianPacket(q0=-3.0, sigma=2e-162, k0=1.0)
        assert 0.0 < ior_series(tiny, 0.3).value < 1e-300
        assert 0.0 < qc_expectation(tiny).value < 1e-300
        wide = GaussianPacket(q0=-3.0, sigma=2e153, k0=1.0)
        assert qc_expectation(wide).value == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_si_units_convert_before_the_check(self):
        # sigma is checked in natural units: 1e-300 m is fine where hbar/(mu c)
        # is 1e-300 m as well
        params = PhysicalParams(mu=1.0, c=1.0, hbar=1e-300)
        packet = GaussianPacket(q0=-3e-300, sigma=1e-300, k0=1e300)
        natural = qc_expectation(GaussianPacket(q0=-3.0, sigma=1.0, k0=1.0))
        assert qc_expectation(packet, params).value == pytest.approx(natural.value, rel=1e-12)


class TestToaDifference:
    def test_vanishing_barrier(self):
        barrier = BarrierSpec(v0=1e-12, a=-30.0, b=-29.0)
        packet = GaussianPacket(q0=-60.0, sigma=0.5, k0=2.0)
        assert abs(toa_difference(packet, barrier).value) < 1e-8 * barrier.length

    def test_linear_in_v0(self):
        packet = GaussianPacket(q0=-60.0, sigma=0.5, k0=2.0)
        d6 = toa_difference(packet, BarrierSpec(v0=1e-6, a=-30.0, b=-29.0)).value
        d5 = toa_difference(packet, BarrierSpec(v0=1e-5, a=-30.0, b=-29.0)).value
        assert d5 / d6 == pytest.approx(10.0, rel=1e-3)

    def test_wide_packet_asymptotic_assembly(self):
        # all components above the barrier: difference ~ (mu L / p0) gamma
        # minus the tau_top average
        barrier = BarrierSpec(v0=0.3, a=-400.0, b=-399.0)
        packet = GaussianPacket(q0=-500.0, sigma=6.0, k0=2.0)
        delta = toa_difference(packet, barrier).value
        gamma = qc_asymptotic(packet.k0)
        _, tau_avg = tau_plus_consistency(packet, barrier)
        ref = barrier.length / packet.k0 * gamma - tau_avg
        assert delta == pytest.approx(ref, rel=1e-2)

    def test_instantaneous_regime_is_free_flight(self):
        # the barrier is crossed in zero time; the free flight is not
        barrier = BarrierSpec(v0=0.3, a=-400.0, b=-399.0)
        packet = GaussianPacket(q0=-500.0, sigma=9.0, k0=0.19)
        delta = toa_difference(packet, barrier).value
        q_c = qc_expectation(packet).value
        ref = barrier.length / packet.k0 * q_c  # mu L / p0 * Q_c
        assert delta == pytest.approx(ref, rel=1e-6)


class TestSuperluminalClassify:
    def test_deep_tunneling_is_superluminal(self):
        packet = GaussianPacket(q0=-300.0, sigma=6.0, k0=0.5)
        label, margin = superluminal_classify(packet, 0.99)
        assert label is Luminality.SUPERLUMINAL
        assert margin < 0.0

    def test_near_peak_is_subluminal(self):
        kc = kappa_c(0.99)
        packet = GaussianPacket(q0=-300.0, sigma=6.0, k0=kc + 1.0 / 12.0)
        label, margin = superluminal_classify(packet, 0.99)
        assert label is Luminality.SUBLUMINAL
        assert margin > 0.0

    def test_vanishing_barrier_is_subluminal(self):
        packet = GaussianPacket(q0=-300.0, sigma=6.0, k0=2.0)
        label, _ = superluminal_classify(packet, 1e-6)
        assert label is Luminality.SUBLUMINAL


def _qc(packet: GaussianPacket, v0: float, params) -> Estimate:
    return qc_expectation(packet, params)


def _toa(packet: GaussianPacket, v0: float, params) -> Estimate:
    """Delta tau across the barrier on (-2, -1) in natural units, in units of
    hbar/(mu c^2)."""
    length = params.hbar / (params.mu * params.c)
    est = toa_difference(packet, BarrierSpec(v0=v0, a=-2.0 * length, b=-length), params)
    time = length / params.c
    return Estimate(est.value / time, est.err / time)


# the natural cells (sigma, k0, v0) of the unit-system test; Q_c takes one
# v0, and Delta tau, which costs what the direct route does, half the sigmas
# and v0s
UNIT_GRID = [(sigma, k0, v0) for sigma in (0.5, 1.0, 2.0, 9.0)
             for k0 in (0.25, 1.2, 2.0, 5.0) for v0 in (0.1, 0.3, 0.9, 0.99)]
UNIT_ROUTES = {
    ior_direct: UNIT_GRID,
    ior_series: UNIT_GRID,
    ior_momentum: UNIT_GRID,
    _qc: [cell for cell in UNIT_GRID if cell[2] == 0.1],
    _toa: [cell for cell in UNIT_GRID if cell[0] in (0.5, 2.0) and cell[2] in (0.3, 0.99)],
}


def in_units(route, sigma: float, k0: float, v0: float, params):
    """route at the natural cell (sigma, k0, v0), run in params' units: its
    Estimate, or the type of the typed error it raised; any other error
    propagates."""
    length = params.hbar / (params.mu * params.c)
    packet = GaussianPacket(
        q0=-(2.0 + 20.0 * sigma) * length, sigma=sigma * length, k0=k0 / length
    )
    try:
        return route(packet, v0 * params.rest_energy, params)
    except (ValueError, QuadratureError, SeriesDivergenceError) as exc:
        return type(exc)


class TestUnitSystems:
    @pytest.fixture(scope="class")
    def natural_outcomes(self):
        return {(route, cell): in_units(route, *cell, NATURAL_UNITS)
                for route, cells in UNIT_ROUTES.items() for cell in cells}

    @pytest.mark.parametrize("params", [
        PhysicalParams(mu=2.0, c=3.0, hbar=0.5),
        PhysicalParams(mu=0.5, c=1.2, hbar=1.0),
        PhysicalParams(mu=3.7, c=0.21, hbar=17.0),
        PhysicalParams(mu=1e-3, c=300.0, hbar=1e-2),
        PhysicalParams(mu=9.1093837e-31, c=2.99792458e8, hbar=1.054571817e-34),  # SI electron
    ], ids=["2-3-0.5", "0.5-1.2-1", "3.7-0.21-17", "1e-3-300-1e-2", "si-electron"])
    def test_routes_answer_as_in_natural_units(self, params, natural_outcomes):
        # R_c on the three routes, Q_c and Delta tau are dimensionless or
        # scaled back, and every route runs in natural units inside: each
        # cell gives the natural run's typed error, or a value within its err
        # of the natural value, with an err within 2x of the natural err
        # wherever the value is above its err
        broken = []
        for (route, cell), want in natural_outcomes.items():
            got = in_units(route, *cell, params)
            if isinstance(want, type) or isinstance(got, type):
                ok = got is want
            else:
                ok = abs(got.value - want.value) <= got.err and (
                    abs(got.value) <= got.err or want.err <= 2.0 * got.err <= 4.0 * want.err
                )
            if not ok:
                broken.append((route.__name__, cell, want, got))
        assert broken == []
