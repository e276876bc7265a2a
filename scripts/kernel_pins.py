#!/usr/bin/env python3
"""Pin the branch-cut integrals, T_F, T_B and the T_F - T_B gap; time F_B warm.

``reltoa.kernels.branch_integral`` runs over a grid of barrier strengths
and log-spaced zeta.  Its (value, err) pairs are hashed and checked against
tests/data/branch_integral_pin.json.  On the same grid, ``free_factor``'s
(value, err) per zeta and ``barrier_free_gap``'s value per (v0, zeta) are
hashed and checked against tests/data/branch_factors_pin.json, which
tests/test_kernels.py also reads; so is ``barrier_factor``'s (value, err)
on the same zeta at both signs of four strengths up to the rest-energy
scale, where a point that raises hashes its error type and text.  The dense
pin, tests/data/dense_kernel_pin.json, hashes T_F's and those T_B's (value,
err) the same way on 1,000 log-spaced zeta from 20 to 750, past the onset of
the branch-cut skip and exp's underflow at 745.  Then the number of nodes that the grid
left in each branch-cut rule is printed, per strength |v0| (G_B is even in
v0, so the two signs share a rule) and step 2^-m.  The direct pin,
tests/data/direct_pin.json, hashes ``reltoa.ior.ior_direct``'s (value, err)
on the wide cells whose sine transforms reach natural zeta > 36: sigma 6
and 9, three barriers up to v0 = 0.99 and three k0; beside its CPU time the
script prints the grid's T_B calls, counted by wrapping the value method
of the T_B core, which the direct route binds once per cell
(counting_barrier_calls), and the F_B and branch-cut nodes each T_B value
sums, counted by wrapping that method and the core's branch-cut sum
(counting_kernel_nodes); beside them come the same counts for Table 1's
seven v0 = 0.3 direct cells (TABLE1_DIRECT_CELLS) and for the two direct
cells of the wide_packets benchmark (WIDE_DIRECT_CELLS).  The momentum pin,
tests/data/momentum_pin.json, hashes ``reltoa.ior.momentum_split``'s R_c,
+k and -k weights, each value and err, on 80 cells: sigma from 0.5 to 9,
v0 up to 0.99 and k0 on both sides of kappa_c; beside its CPU time the
script prints the integrand evaluations of ``reltoa.ior.ior_momentum`` on
the same cells, counted by wrapping the route's integrand factory
(counting_momentum_evals).  The series pin, tests/data/series_pin.json,
hashes ``reltoa.ior.ior_series``'s (value, err), or its error type and
text, on 18 cells, sigma 0.5 and 1, v0 on both sides of the branch
transform's switch of rule at 0.1 and k0 from 0.5 to 5, and
``qc_expectation``'s on the six (sigma, k0); beside its CPU time the script
prints the J calls of Table 1's seven v0 = 0.3 series cells
(TABLE1_SERIES_CELLS), counted by wrapping the route's Laplace-sine
factory (series_calls), and how many of them sum the Faddeeva function
rather than J's Laplace expansion (faddeeva_calls).  Last, the residue factor
F_B, the whole barrier factor T_B and T_B's value alone are timed per warm
call of the fb and value methods of the strength's T_B core
(``reltoa.kernels._tb_core``), whose value the direct route calls at every
node, and of ``barrier_factor`` (their rules cached, best of a few
rounds), at v = -0.1 and +0.1, at zeta from 1 to 150, with the number of
intervals of the F_B rule each call sums.  From zeta ~ 36 at v = -0.1, and
at every zeta past 32 at v = +0.1, barrier_factor and the value both skip
the branch-cut sum.  The script ends with the CPU time of a warm Table 1
direct cell per T_B node it takes, and per cell (direct_node_cost).

Run from the repository root:

    PYTHONPATH=src python scripts/kernel_pins.py           # time and check
    PYTHONPATH=src python scripts/kernel_pins.py --write   # rewrite the pins
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import pathlib
import sys
import time

from reltoa import ior, kernels
from reltoa.cli import TABLE1_ROWS, TABLE1_SIGMA
from reltoa.ior import ior_direct, ior_series, momentum_split, qc_expectation
from reltoa.kernels import (
    NATURAL_UNITS,
    barrier_factor,
    barrier_free_gap,
    branch_integral,
    free_factor,
)
from reltoa.wavepacket import GaussianPacket

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
BRANCH_PIN_FILE = DATA / "branch_integral_pin.json"
FACTOR_PIN_FILE = DATA / "branch_factors_pin.json"
DENSE_PIN_FILE = DATA / "dense_kernel_pin.json"
DIRECT_PIN_FILE = DATA / "direct_pin.json"
MOMENTUM_PIN_FILE = DATA / "momentum_pin.json"
SERIES_PIN_FILE = DATA / "series_pin.json"

# the branch-cut pin: both signs the routes use, zero, and a strong barrier,
# at 40 log-spaced zeta from a wide packet's small-zeta end to the kernel
# table's far end
BRANCH_V0 = [-0.9, -0.3, -0.1, 0.0, 0.1, 0.3]
BRANCH_ZETA = [0.05 * 3200.0 ** (i / 39) for i in range(40)]
# the T_F and gap pins use the same grid
GAP_V0 = BRANCH_V0
# the T_B pin: both signs of four strengths, on the same zeta
BARRIER_V0 = [sign * a for a in (0.1, 0.3, 0.9, 0.99) for sign in (-1.0, 1.0)]
# the dense pin's zeta: count log-spaced points from first to last
DENSE_ZETA = {"first": 20.0, "last": 750.0, "count": 1000}
# the direct pin's cells: the widest packets, whose transforms reach past
# natural zeta 36, on barriers up to the rest-energy scale
DIRECT_GRID = {"sigma": [6.0, 9.0], "v0": [0.1, 0.3, 0.99], "k0": [0.3, 0.65, 2.0]}
# Table 1's v0 = 0.3 direct cells and the wide_packets benchmark's direct
# cells, (sigma, v0, k0)
TABLE1_DIRECT_CELLS = [
    (TABLE1_SIGMA, v0, k0) for k0, v0, has_integral in TABLE1_ROWS if has_integral and v0 == 0.3
]
WIDE_DIRECT_CELLS = [(9.0, 0.1, 0.3), (9.0, 0.1, 0.65)]
# the momentum pin's cells: every v0 has k0 on both sides of kappa_c
MOMENTUM_GRID = {
    "sigma": [0.5, 2.0, 6.0, 9.0],
    "v0": [0.1, 0.3, 0.5, 0.99],
    "k0": [0.2, 0.7, 1.0, 1.5, 2.5],
}
# the series pin's cells: v0 on both sides of the branch transform's switch
# from the h = 2^-3 rule to the h = 2^-2 rule at 0.1, and up to the rest
# energy; qc_expectation runs on each (sigma, k0)
SERIES_GRID = {"sigma": [0.5, 1.0], "v0": [0.05, 0.3, 0.99], "k0": [0.5, 2.0, 5.0]}
# Table 1's v0 = 0.3 series cells, (sigma, v0, k0)
TABLE1_SERIES_CELLS = [(TABLE1_SIGMA, v0, k0) for k0, v0, _ in TABLE1_ROWS if v0 == 0.3]
# the F_B timing: (v, zeta), timed in this order after every pin
FB_POINTS = [(v, zeta) for v in (-0.1, 0.1) for zeta in (1.0, 3.0, 9.0, 50.0, 100.0, 150.0)]
FB_CALLS = 200  # calls per timed round
FB_ROUNDS = 5


def branch_values(grid) -> dict:
    """branch_integral's (value, err) at each (v0, zeta), computed in grid order."""
    return {
        (v0, zeta): branch_integral(v0, zeta, NATURAL_UNITS)
        for v0, zeta in grid
    }


def branch_digest(pin: dict, values: dict) -> str:
    """sha256 of the (value, err) pairs, hashed v0-major whatever order made them."""
    h = hashlib.sha256()
    for v0 in pin["v0"]:
        for zeta in pin["zeta"]:
            value, err = values[(v0, zeta)]
            h.update(f"{value.hex()} {err.hex()}\n".encode())
    return h.hexdigest()


def free_factor_digest(zetas) -> str:
    """sha256 of free_factor's (value, err) at each zeta, in order."""
    h = hashlib.sha256()
    for zeta in zetas:
        est = free_factor(zeta, NATURAL_UNITS)
        h.update(f"{est.value.hex()} {est.err.hex()}\n".encode())
    return h.hexdigest()


def gap_digest(v0: float, zetas) -> str:
    """sha256 of barrier_free_gap(v0, zeta)'s value at each zeta, in order."""
    h = hashlib.sha256()
    for zeta in zetas:
        h.update(f"{barrier_free_gap(v0, zeta, NATURAL_UNITS).hex()}\n".encode())
    return h.hexdigest()


def _estimate_line(call, *args) -> str:
    """call(*args)'s (value, err) in float.hex, or its error type and text."""
    try:
        est = call(*args, NATURAL_UNITS)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}\n"
    return f"{est.value.hex()} {est.err.hex()}\n"


def barrier_factor_digest(zetas) -> str:
    """sha256 of barrier_factor's (value, err), or its error type and text,
    at each (v0, zeta), v0-major."""
    h = hashlib.sha256()
    for v0 in BARRIER_V0:
        for zeta in zetas:
            h.update(_estimate_line(barrier_factor, v0, zeta).encode())
    return h.hexdigest()


def dense_zetas(spec: dict) -> list[float]:
    """The dense pin's zeta: spec's count log-spaced points, first to last."""
    first, ratio, count = spec["first"], spec["last"] / spec["first"], spec["count"]
    return [first * ratio ** (i / (count - 1)) for i in range(count)]


def dense_digest(zetas) -> str:
    """sha256 of free_factor's (value, err) at each zeta, then of
    barrier_factor's at each (v0, zeta), v0-major; a point that raises
    hashes its error type and text."""
    h = hashlib.sha256()
    for zeta in zetas:
        h.update(_estimate_line(free_factor, zeta).encode())
    for v0 in BARRIER_V0:
        for zeta in zetas:
            h.update(_estimate_line(barrier_factor, v0, zeta).encode())
    return h.hexdigest()


def direct_digest(grid: dict) -> str:
    """sha256 of ior_direct's (value, err) on grid's cells, sigma-major, then
    v0, then k0."""
    h = hashlib.sha256()
    for sigma in grid["sigma"]:
        for v0 in grid["v0"]:
            for k0 in grid["k0"]:
                est = ior_direct(GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0), v0)
                h.update(f"{est.value.hex()} {est.err.hex()}\n".encode())
    return h.hexdigest()


@contextlib.contextmanager
def counting_barrier_calls():
    """Count the direct route's T_B calls within the block.

    Yields a one-item list that counts each call of the T_B core's value
    method (kernels._TbCore.value), which ior_direct binds once per cell and
    calls at every sine-transform node, while the block runs; the method is
    restored on exit.
    """
    calls = [0]
    value = kernels._TbCore.value

    def counted(core, x):
        calls[0] += 1
        return value(core, x)

    kernels._TbCore.value = counted
    try:
        yield calls
    finally:
        kernels._TbCore.value = value


@contextlib.contextmanager
def counting_kernel_nodes():
    """Count the F_B and branch-cut nodes that T_B values sum within the block.

    Yields a two-item list: each call of the T_B core's value method adds
    the n + 1 nodes of its F_B rule, n its a-priori intervals (the core's
    fb_size; none at zero height), and each call of its branch-cut sum
    (branch) the n nodes of its a-priori rule (branch_size).  The methods
    are restored on exit.
    """
    counts = [0, 0]
    value, branch = kernels._TbCore.value, kernels._TbCore.branch

    def value_counted(core, x):
        counts[0] += core.fb_size(x) + 1 if core.vn else 0
        return value(core, x)

    def branch_counted(core, x, gap=False):
        counts[1] += core.branch_size(x)[1]
        return branch(core, x, gap)

    kernels._TbCore.value, kernels._TbCore.branch = value_counted, branch_counted
    try:
        yield counts
    finally:
        kernels._TbCore.value, kernels._TbCore.branch = value, branch


def direct_counts(cells) -> tuple[int, int, int]:
    """(T_B calls, F_B nodes, branch-cut nodes) of ior_direct over cells,
    each (sigma, v0, k0)."""
    with counting_barrier_calls() as calls, counting_kernel_nodes() as nodes:
        for sigma, v0, k0 in cells:
            ior_direct(GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0), v0)
    return calls[0], *nodes


def direct_calls(cells) -> int:
    """T_B calls of ior_direct over cells, each (sigma, v0, k0)."""
    return direct_counts(cells)[0]


def _per_value(counts) -> str:
    """T_B calls and the F_B and branch-cut nodes summed per T_B value."""
    calls, fb_nodes, branch_nodes = counts
    return (f"{calls} T_B calls, {fb_nodes / calls:.1f} F_B + "
            f"{branch_nodes / calls:.1f} branch-cut nodes a value")


@contextlib.contextmanager
def _counting_closure_calls(name: str):
    """Yield a one-item list that counts each call of every function that
    the factory reltoa.ior.<name> returns within the block; the factory is
    restored on exit."""
    calls = [0]
    factory = getattr(ior, name)

    def make(*args):
        f = factory(*args)

        def counted(x):
            calls[0] += 1
            return f(x)

        return counted

    setattr(ior, name, make)
    try:
        yield calls
    finally:
        setattr(ior, name, factory)


def counting_momentum_evals():
    """Count the momentum route's integrand evaluations within the block:
    each call of every w that reltoa.ior._crossing_integrand returns, which
    the tau rule calls once per node."""
    return _counting_closure_calls("_crossing_integrand")


def momentum_evals(grid: dict) -> int:
    """ior_momentum's integrand evaluations over the momentum pin's cells."""
    with counting_momentum_evals() as calls:
        for sigma in grid["sigma"]:
            for v0 in grid["v0"]:
                for k0 in grid["k0"]:
                    ior.ior_momentum(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0)
    return calls[0]


def momentum_digest(grid: dict) -> str:
    """sha256 of momentum_split's R_c, plus and minus, each value and err, on
    grid's cells (q0 = -100), sigma-major, then v0, then k0."""
    h = hashlib.sha256()
    for sigma in grid["sigma"]:
        for v0 in grid["v0"]:
            for k0 in grid["k0"]:
                packet = GaussianPacket(q0=-100.0, sigma=sigma, k0=k0)
                line = " ".join(
                    f"{est.value.hex()} {est.err.hex()}" for est in momentum_split(packet, v0)
                )
                h.update(f"{line}\n".encode())
    return h.hexdigest()


def series_digest(grid: dict) -> str:
    """sha256 of ior_series' (value, err), or its error type and text, on
    grid's cells, sigma-major, then v0, then k0; then of qc_expectation's
    (value, err) on each (sigma, k0), sigma-major."""
    h = hashlib.sha256()
    for sigma in grid["sigma"]:
        for v0 in grid["v0"]:
            for k0 in grid["k0"]:
                packet = GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)
                h.update(_estimate_line(ior_series, packet, v0).encode())
    for sigma in grid["sigma"]:
        for k0 in grid["k0"]:
            packet = GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)
            h.update(_estimate_line(qc_expectation, packet).encode())
    return h.hexdigest()


def series_calls(cells) -> int:
    """J calls of ior_series over cells, each (sigma, v0, k0): each call of
    every J that reltoa.ior._laplace_sine returns, once for M_0 and once per
    node of the branch transform's rule."""
    with _counting_closure_calls("_laplace_sine") as calls:
        for sigma, v0, k0 in cells:
            ior_series(GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0), v0)
    return calls[0]


def faddeeva_calls(cells) -> int:
    """Faddeeva calls of ior_series over cells, each (sigma, v0, k0): the J
    calls that sum w, counted by wrapping reltoa.ior.faddeeva, which is
    restored on exit; the rest take J's Laplace expansion."""
    calls = [0]
    faddeeva = ior.faddeeva

    def counted(z):
        calls[0] += 1
        return faddeeva(z)

    ior.faddeeva = counted
    try:
        for sigma, v0, k0 in cells:
            ior_series(GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0), v0)
    finally:
        ior.faddeeva = faddeeva
    return calls[0]


def fb_timing(v: float, zeta: float) -> tuple[int, list[float]]:
    """(intervals of the F_B rule summed, best warm CPU seconds per call of
    the T_B core's fb, barrier_factor and the core's value) at (v, zeta),
    natural units."""
    core = kernels._tb_core(v)
    intervals = core.fb_size(zeta)
    barrier_factor(v, zeta, NATURAL_UNITS)  # fills the rules and branch nodes
    calls = (
        lambda: core.fb(zeta),
        lambda: barrier_factor(v, zeta, NATURAL_UNITS),
        lambda: core.value(zeta),
    )
    best = [float("inf")] * len(calls)
    for _ in range(FB_ROUNDS):
        for i, call in enumerate(calls):
            t0 = time.process_time()
            for _ in range(FB_CALLS):
                call()
            best[i] = min(best[i], (time.process_time() - t0) / FB_CALLS)
    return intervals, best


def direct_node_cost(cells) -> tuple[float, float]:
    """(best warm CPU seconds of ior_direct over cells, each (sigma, v0, k0),
    per T_B node and per cell), best of FB_ROUNDS passes after one warm-up."""
    packets = [(GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0), v0)
               for sigma, v0, k0 in cells]
    calls = direct_calls(cells)  # also the warm-up
    best = float("inf")
    for _ in range(FB_ROUNDS):
        t0 = time.process_time()
        for packet, v0 in packets:
            ior_direct(packet, v0)
        best = min(best, time.process_time() - t0)
    return best / calls, best / len(cells)


def _report(line: str, sha: str, pinned: str | None) -> int:
    """Print a digest against its pin (None when writing); 1 if they differ."""
    if pinned is None:
        print(line + sha)
        return 0
    print(line + ("matches pin" if sha == pinned else f"DIFFERS from pin: {sha}"))
    return int(sha != pinned)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the pin files")
    args = parser.parse_args()

    faults = 0
    pin = {"v0": BRANCH_V0, "zeta": BRANCH_ZETA} if args.write else json.loads(
        BRANCH_PIN_FILE.read_text()
    )
    t0 = time.process_time()
    values = branch_values([(v0, zeta) for v0 in pin["v0"] for zeta in pin["zeta"]])
    cpu = time.process_time() - t0
    sha = branch_digest(pin, values)
    faults += _report(f"branch_integral, {len(values)} points: cpu {cpu:7.3f} s  ",
                      sha, None if args.write else pin["sha256"])

    factor_pin = {} if args.write else json.loads(FACTOR_PIN_FILE.read_text())
    t0 = time.process_time()
    free_sha = free_factor_digest(pin["zeta"])
    cpu = time.process_time() - t0
    faults += _report(f"free_factor, {len(pin['zeta'])} points: cpu {cpu:7.3f} s  ",
                      free_sha, factor_pin.get("free_factor"))
    gap_pins = {row["v0"]: row["sha256"] for row in factor_pin.get("barrier_free_gap", [])}
    gap_rows = []
    for v0 in GAP_V0:
        t0 = time.process_time()
        gap_rows.append({"v0": v0, "sha256": gap_digest(v0, pin["zeta"])})
        cpu = time.process_time() - t0
        faults += _report(f"barrier_free_gap v0={v0:+.1f}: cpu {cpu:7.3f} s  ",
                          gap_rows[-1]["sha256"], gap_pins.get(v0))
    t0 = time.process_time()
    barrier_sha = barrier_factor_digest(pin["zeta"])
    cpu = time.process_time() - t0
    faults += _report(
        f"barrier_factor, {len(BARRIER_V0) * len(pin['zeta'])} points: cpu {cpu:7.3f} s  ",
        barrier_sha, factor_pin.get("barrier_factor", {}).get("sha256"),
    )

    dense_pin = {"v0": BARRIER_V0, "zeta": DENSE_ZETA} if args.write else json.loads(
        DENSE_PIN_FILE.read_text()
    )
    t0 = time.process_time()
    dense_sha = dense_digest(dense_zetas(dense_pin["zeta"]))
    cpu = time.process_time() - t0
    faults += _report(
        f"dense T_F and T_B, {(1 + len(BARRIER_V0)) * dense_pin['zeta']['count']} points: "
        f"cpu {cpu:7.3f} s  ",
        dense_sha, None if args.write else dense_pin["sha256"],
    )

    for (vn, level), nodes in sorted(kernels._BRANCH_NODES.items()):
        print(f"branch rule |v0|={vn:.1f} m={level}: {len(nodes[0])} nodes")

    direct_pin = DIRECT_GRID if args.write else json.loads(DIRECT_PIN_FILE.read_text())
    with counting_barrier_calls() as calls, counting_kernel_nodes() as nodes:
        t0 = time.process_time()
        direct_sha = direct_digest(direct_pin)
        cpu = time.process_time() - t0
    cells = len(direct_pin["sigma"]) * len(direct_pin["v0"]) * len(direct_pin["k0"])
    faults += _report(
        f"ior_direct, {cells} cells: {_per_value((calls[0], *nodes))} "
        f"({_per_value(direct_counts(TABLE1_DIRECT_CELLS))} on Table 1's "
        f"{len(TABLE1_DIRECT_CELLS)} at v0 = 0.3; "
        f"{_per_value(direct_counts(WIDE_DIRECT_CELLS))} on wide_packets' "
        f"{len(WIDE_DIRECT_CELLS)}), cpu {cpu:7.3f} s  ",
        direct_sha, None if args.write else direct_pin["sha256"],
    )

    momentum_pin = MOMENTUM_GRID if args.write else json.loads(MOMENTUM_PIN_FILE.read_text())
    t0 = time.process_time()
    momentum_sha = momentum_digest(momentum_pin)
    cpu = time.process_time() - t0
    cells = len(momentum_pin["sigma"]) * len(momentum_pin["v0"]) * len(momentum_pin["k0"])
    faults += _report(
        f"momentum_split, {cells} cells: cpu {cpu:7.3f} s "
        f"(ior_momentum: {momentum_evals(momentum_pin)} integrand evaluations)  ",
        momentum_sha, None if args.write else momentum_pin["sha256"],
    )

    series_pin = SERIES_GRID if args.write else json.loads(SERIES_PIN_FILE.read_text())
    t0 = time.process_time()
    series_sha = series_digest(series_pin)
    cpu = time.process_time() - t0
    cells = len(series_pin["sigma"]) * len(series_pin["v0"]) * len(series_pin["k0"])
    faults += _report(
        f"ior_series, {cells} cells, and qc_expectation: cpu {cpu:7.3f} s "
        f"({series_calls(TABLE1_SERIES_CELLS)} J calls, "
        f"{faddeeva_calls(TABLE1_SERIES_CELLS)} of them Faddeeva calls, on Table 1's "
        f"{len(TABLE1_SERIES_CELLS)} series cells at v0 = 0.3)  ",
        series_sha, None if args.write else series_pin["sha256"],
    )

    for v, zeta in FB_POINTS:
        intervals, (fb_cpu, tb_cpu, value_cpu) = fb_timing(v, zeta)
        print(f"v={v:+.1f} zeta={zeta:5.1f}: {intervals:4d} F_B intervals, "
              f"F_B {1e6 * fb_cpu:6.1f} us/call, T_B {1e6 * tb_cpu:6.1f} us/call, "
              f"T_B value {1e6 * value_cpu:6.1f} us/call")
    per_node, per_cell = direct_node_cost(TABLE1_DIRECT_CELLS)
    print(f"warm Table 1 direct cell: {1e6 * per_node:5.2f} us CPU per T_B node, "
          f"{1e3 * per_cell:5.2f} ms per cell")

    if faults:
        return 1
    if args.write:
        BRANCH_PIN_FILE.write_text(json.dumps({**pin, "sha256": sha}, indent=2) + "\n")
        FACTOR_PIN_FILE.write_text(
            json.dumps({
                "free_factor": free_sha,
                "barrier_free_gap": gap_rows,
                "barrier_factor": {"v0": BARRIER_V0, "sha256": barrier_sha},
            }, indent=2) + "\n"
        )
        DENSE_PIN_FILE.write_text(json.dumps({**dense_pin, "sha256": dense_sha}, indent=2) + "\n")
        DIRECT_PIN_FILE.write_text(
            json.dumps({**direct_pin, "sha256": direct_sha}, indent=2) + "\n"
        )
        MOMENTUM_PIN_FILE.write_text(
            json.dumps({**momentum_pin, "sha256": momentum_sha}, indent=2) + "\n"
        )
        SERIES_PIN_FILE.write_text(
            json.dumps({**series_pin, "sha256": series_sha}, indent=2) + "\n"
        )
        print(f"wrote {BRANCH_PIN_FILE}, {FACTOR_PIN_FILE}, {DENSE_PIN_FILE}, "
              f"{DIRECT_PIN_FILE}, {MOMENTUM_PIN_FILE} and {SERIES_PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
