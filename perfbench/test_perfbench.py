"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import reltoa  # noqa: E402

# QUADPACK warns when asked for ~1e-13; the oracle cross-checks decide
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


# --- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(20, 50.0), (42, 75.0), (100, 90.0), (972, 98.0), (3000, 99.5)])
def test_tail_percentile_choice(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 20001, 7):
        pct = stats.tail_percentile(n)
        assert n - math.ceil(pct / 100 * n) >= 10
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(n - math.ceil(p / 100 * n) < 10 for p in higher)


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_tail_latency_uses_guaranteed_count():
    latencies = [float(i) for i in range(1, 201)]  # a run that fit extra passes
    pct, value, beyond = stats.tail_latency(latencies, n_guaranteed=100)
    assert (pct, value, beyond) == (90.0, 180.0, 20)


# --- host-speed scaling ----------------------------------------------------

def test_speed_factors_use_the_probes_around_and_inside_each_cell():
    ref = speed.REFERENCE_S
    # probes at clock times 0..3; the one at t = 2 is a spike
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 9 * ref), (3.0, 2 * ref)]
    got = speed.factors(samples, [(0.1, 0.5), (2.2, 2.8), (0.5, 2.9)])
    # smoothed: [1.5, 2, 2, 5.5] x ref; a short cell gets the probes on
    # either side of it, a long one also those inside it
    assert got == pytest.approx([
        (1 / 1.5 + 1 / 2) / 2,
        (1 / 2 + 1 / 5.5) / 2,
        (1 / 1.5 + 1 / 2 + 1 / 2 + 1 / 5.5) / 4,
    ])


def test_sampler_probes_inside_a_long_cell_and_leaves_probes_out_of_its_clock():
    sampler = speed.Sampler()
    with sampler.running():
        t0, w0 = sampler.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 3 * speed.EVERY_S:
            pass
        t1, w1 = sampler.clock(), time.perf_counter()
    inside = [t for t, _ in sampler.samples if t0 < t < t1]
    assert len(inside) >= 2
    assert (w1 - w0) - (t1 - t0) == pytest.approx(sum(p for t, p in sampler.samples if t0 < t < t1), rel=0.2)


def test_scaled_latencies():
    p = stats.PassResult([0.2, 0.4], [0.5, 2.0], [1.0, 1.0], [None, None], [True, True])
    assert p.scaled == pytest.approx([0.1, 0.8])


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, tracing.ROOT, "cell:x", 0.0, 10.0),
        (1, 0, "A", 1.0, 9.0),
        (2, 1, "B", 2.0, 4.0),
        (3, 1, "B", 5.0, 6.0),
        (4, 3, "C", 5.2, 5.7),
    ]
    agg = tracing.self_times(spans)
    assert agg["cell:x"]["self_s"] == pytest.approx(2.0)
    assert agg["A"]["self_s"] == pytest.approx(5.0)
    assert agg["A"]["total_s"] == pytest.approx(8.0)
    assert agg["B"]["calls"] == 2
    assert agg["B"]["self_s"] == pytest.approx(2.5)
    assert agg["C"]["self_s"] == pytest.approx(0.5)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0)


def test_tracer_sees_internal_calls_and_restores_bindings():
    original = reltoa.numerics.integrate_semiinf_exp
    packet = reltoa.GaussianPacket(q0=-50.0, sigma=0.5, k0=2.0)
    expected = reltoa.ior.ior_momentum(packet, 0.3).value
    tracer = tracing.Tracer()
    tracer.install(counting=False)
    try:
        with tracer.cell("probe"):
            value = reltoa.ior.ior_momentum(packet, 0.3).value
    finally:
        tracer.uninstall()
    assert value == expected
    assert reltoa.numerics.integrate_semiinf_exp is original
    assert reltoa.kernels.integrate_semiinf_exp is original
    spans, counts = tracer.reset()
    assert counts == {}  # a span pass runs no counters
    by_id = {sid: (parent, name) for sid, parent, name, _t0, _t1 in spans}
    names = [name for _p, name in by_id.values()]
    assert names.count("ior.ior_momentum") == 1
    assert names.count("numerics.integrate_sqrt_endpoint") == 2
    # integrate_sqrt_endpoint reaches integrate_semiinf_exp through the
    # numerics module's own binding; the span must nest under it
    for parent, name in by_id.values():
        if name == "numerics.integrate_semiinf_exp":
            assert by_id[parent][1] == "numerics.integrate_sqrt_endpoint"


def test_counting_pass_counts_evaluations_without_spans():
    packet = reltoa.GaussianPacket(q0=-50.0, sigma=0.5, k0=2.0)
    expected = reltoa.ior.ior_momentum(packet, 0.3).value
    tracer = tracing.Tracer()
    tracer.install(counting=True)
    try:
        value = reltoa.ior.ior_momentum(packet, 0.3).value
    finally:
        tracer.uninstall()
    assert value == expected
    spans, counts = tracer.reset()
    assert spans == []
    assert counts["numerics.integrate_sqrt_endpoint.evals"] > 0
    assert counts["wavepacket.momentum_density.calls"] == counts[
        "numerics.integrate_sqrt_endpoint.evals"
    ]


# --- failure counting ------------------------------------------------------

def _fake_pass(values, errors):
    cells = _fake_cells()
    ok = [e is None and c.check(v) for c, v, e in zip(cells, values, errors)]
    return stats.PassResult([0.1] * len(values), [1.0] * len(values), values, errors, ok)


def _fake_cells():
    return [
        workloads.Cell("good", lambda: 1.0, lambda v: workloads.within(v, 1.0)),
        workloads.Cell("known", lambda: 2.0, lambda v: workloads.within(v, 1.0), seed_defect=True),
        workloads.Cell("new", lambda: 1.0, lambda v: workloads.within(v, 1.0)),
    ]


def test_failure_counting():
    passes = [
        _fake_pass([1.0, 2.0, 1.0], [None, None, None]),
        _fake_pass([1.0, None, None], [None, "QuadratureError", "SeriesDivergenceError"]),
        _fake_pass([1.0 + 1e-9, 1.0, math.nan], [None, None, None]),
    ]
    summary = stats.failures(_fake_cells(), passes)
    assert summary.attempted == 9
    # known: wrong value, raised; new: raised, nan; good: off by 1e-9 > TOL
    assert summary.failed == 5
    assert summary.failed_frac == pytest.approx(5 / 9)
    assert summary.unexpected == 3
    assert summary.errors == {"QuadratureError": 1, "SeriesDivergenceError": 1}
    assert summary.seed_defects == {"known"}
    assert summary.failed_names == ["known", "new", "good"]


def test_cold_warm_mismatch_is_bitwise():
    def result(values):
        return stats.PassResult([0.1] * 3, [1.0] * 3, values, [None] * 3, [True] * 3)

    cold = result([1.0, 0.0, (1.0, 2.0)])
    warm = result([1.0, -0.0, (1.0, 2.0 + 4.5e-16)])
    assert stats.cold_warm_mismatch(cold, warm) == 2


# --- references ------------------------------------------------------------

@pytest.mark.parametrize("zeta", [0.5, 2.0, 10.0, 25.0, 40.0])
def test_spectral_oracle_matches_library_at_trusted_points(zeta):
    lib = reltoa.barrier_factor(-0.3, zeta).value
    assert abs(oracles.spectral_kernel(0.3, zeta) - lib) <= 1e-11 * max(1.0, abs(lib))
    free = reltoa.free_factor(zeta).value
    assert abs(oracles.spectral_kernel(0.0, zeta) - free) <= 1e-11 * max(1.0, abs(free))


def test_spectral_free_factor_matches_bessel_form():
    for zeta in (0.1, 1.0, 7.0, 30.0):
        assert oracles.spectral_kernel(0.0, zeta) == pytest.approx(
            oracles.free_factor_bessel(zeta), abs=1e-13
        )


def test_momentum_oracle_matches_library():
    for v0, sigma, k0 in ((0.3, 0.5, 2.0), (0.99, 6.0, 3.0), (0.05, 1.0, 0.1)):
        packet = reltoa.GaussianPacket(q0=-300.0, sigma=sigma, k0=k0)
        lib = reltoa.ior_momentum(packet, v0).value
        assert abs(oracles.momentum_rc(v0, sigma, k0) - lib) <= workloads.TOL * max(1.0, lib)


def test_committed_kernel_refs_match_library_where_it_is_sound():
    w = workloads.load_refs()["wide_packets"]
    for i in range(0, 200, 19):  # zeta <= 40
        zeta = w["zeta"][i]
        assert workloads.within(reltoa.free_factor(zeta).value, w["t_free"][i])
        assert workloads.within(reltoa.barrier_factor(+0.1, zeta).value, w["t_barrier_plus"][i])


# --- workloads -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    first = [c.name for c in workloads.build(name, reltoa, 7)]
    assert first == [c.name for c in workloads.build(name, reltoa, 7)]
    assert first != [c.name for c in workloads.build(name, reltoa, 8)]
    assert len(set(first)) == len(first)


def test_stratified_picks_cover_the_range():
    picks = workloads._stratified(random.Random(3), 800, 160)
    assert [p // 5 for p in picks] == list(range(160))


def test_wide_defect_cells_do_not_depend_on_seed():
    # 2 direct cells plus the T_B(-0.1) picks at zeta >= WIDE_BAD_ZETA
    for seed in range(1, 30):
        cells = workloads.build("wide_packets", reltoa, seed)
        assert sum(c.seed_defect for c in cells) == 58
        zetas = [float(c.name.split("=")[1]) for c in cells if "t_barrier_minus" in c.name]
        assert zetas == sorted(zetas)


def test_pass_count_depends_only_on_seconds():
    import run

    assert run.warm_passes("wide_packets", 30, 3) == 7
    assert run.warm_passes("wide_packets", 1, 3) == 3
    assert run.warm_passes("narrow_table", 30, 1, extra=2.5) == 2


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "momentum_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
