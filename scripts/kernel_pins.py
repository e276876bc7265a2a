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
script prints the grid's T_B calls, each a call of the value method of the
T_B core, which the direct route binds once per cell, and the F_B and
branch-cut nodes each T_B value sums (direct_counts); beside them come the
same counts for Table 1's seven v0 = 0.3 direct cells (TABLE1_DIRECT_CELLS)
and for the two direct cells of the wide_packets benchmark
(WIDE_DIRECT_CELLS).  The momentum pin, tests/data/momentum_pin.json,
hashes ``reltoa.ior.momentum_split``'s R_c, +k and -k weights, each value
and err, on 80 cells: sigma from 0.5 to 9, v0 up to 0.99 and k0 on both
sides of kappa_c; beside its CPU time the script prints the integrand
evaluations of ``reltoa.ior.ior_momentum`` on the same cells
(momentum_evals).  The series pin, tests/data/series_pin.json, hashes
``reltoa.ior.ior_series``'s (value, err), or its error type and text, on
18 cells, sigma 0.5 and 1, v0 on both sides of the branch transform's
switch of rule at 0.1 and k0 from 0.5 to 5, and ``qc_expectation``'s on
the six (sigma, k0); beside its CPU time the script prints the J calls of
Table 1's seven v0 = 0.3 series cells (TABLE1_SERIES_CELLS) and how many
of them sum the Faddeeva function rather than J's Laplace expansion
(series_counts).  Every pin is the sha256 of its lines (digest), and
every count comes from one profile-hook counter (counting), which counts
the calls of named library functions and closures by their code objects
and patches nothing.  Last, the residue factor F_B, the whole barrier
factor T_B and T_B's value alone are timed per warm call of the fb and
value methods of the strength's T_B core
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
import importlib
import json
import pathlib
import sys
import time
import types

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


def digest(lines) -> str:
    """sha256 of the lines, each ended by a newline: every pin's hash."""
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _hex(value: float, err: float) -> str:
    """A (value, err) pair in float.hex."""
    return f"{value.hex()} {err.hex()}"


def _estimate_line(call, *args) -> str:
    """call(*args)'s (value, err) in float.hex, or its error type and text."""
    try:
        est = call(*args, NATURAL_UNITS)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return _hex(est.value, est.err)


def branch_lines(pin: dict, values: dict) -> list[str]:
    """The (value, err) pairs, v0-major whatever order made them."""
    return [_hex(*values[(v0, zeta)]) for v0 in pin["v0"] for zeta in pin["zeta"]]


def free_factor_lines(zetas) -> list[str]:
    """free_factor's (value, err) at each zeta, in order."""
    return [_estimate_line(free_factor, zeta) for zeta in zetas]


def gap_lines(v0: float, zetas) -> list[str]:
    """barrier_free_gap(v0, zeta)'s value at each zeta, in order."""
    return [barrier_free_gap(v0, zeta, NATURAL_UNITS).hex() for zeta in zetas]


def barrier_factor_lines(zetas) -> list[str]:
    """barrier_factor's (value, err), or its error type and text, at each
    (v0, zeta), v0-major; the dense pin hashes free_factor's lines and
    then these."""
    return [_estimate_line(barrier_factor, v0, zeta) for v0 in BARRIER_V0 for zeta in zetas]


def dense_zetas(spec: dict) -> list[float]:
    """The dense pin's zeta: spec's count log-spaced points, first to last."""
    first, ratio, count = spec["first"], spec["last"] / spec["first"], spec["count"]
    return [first * ratio ** (i / (count - 1)) for i in range(count)]


def grid_cells(grid: dict) -> list[tuple[float, float, float]]:
    """grid's (sigma, v0, k0) cells, sigma-major, then v0, then k0."""
    return [(sigma, v0, k0) for sigma in grid["sigma"] for v0 in grid["v0"] for k0 in grid["k0"]]


def _packet(sigma: float, k0: float) -> GaussianPacket:
    """The direct and series pins' packet, 40 sigma left of the barrier."""
    return GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)


def direct_lines(grid: dict) -> list[str]:
    """ior_direct's (value, err) on grid's cells."""
    return [_estimate_line(ior_direct, _packet(sigma, k0), v0)
            for sigma, v0, k0 in grid_cells(grid)]


def momentum_lines(grid: dict) -> list[str]:
    """momentum_split's R_c, plus and minus, each value and err, on grid's
    cells (q0 = -100)."""
    return [
        " ".join(_hex(est.value, est.err)
                 for est in momentum_split(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0))
        for sigma, v0, k0 in grid_cells(grid)
    ]


def series_lines(grid: dict) -> list[str]:
    """ior_series' (value, err), or its error type and text, on grid's
    cells; then qc_expectation's on each (sigma, k0), sigma-major."""
    return [_estimate_line(ior_series, _packet(sigma, k0), v0)
            for sigma, v0, k0 in grid_cells(grid)] + [
        _estimate_line(qc_expectation, _packet(sigma, k0))
        for sigma in grid["sigma"] for k0 in grid["k0"]
    ]


def _code(name: str) -> types.CodeType:
    """The code object of reltoa.<name>, a function or method, and past each
    '.<locals>.' the one function of that name defined inside it;
    ValueError if name resolves to none."""
    outer, *inner = name.split(".<locals>.")
    module, *path = outer.split(".")
    obj = importlib.import_module(f"reltoa.{module}")
    for part in path:
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    for part in inner:
        found = [c for c in getattr(code, "co_consts", ())
                 if isinstance(c, types.CodeType) and c.co_name == part]
        code = found[0] if len(found) == 1 else None
    if not isinstance(code, types.CodeType):
        raise ValueError(f"reltoa.{name} names no function")
    return code


@contextlib.contextmanager
def counting(*specs):
    """Count calls of reltoa's functions within the block, in the calling
    thread only.

    Each spec is a name under reltoa, such as "kernels._TbCore.value", or
    "ior._crossing_integrand.<locals>.w" for every w that factory returns,
    or (name, weigh): each call then adds weigh(args), args the call's
    arguments by name, instead of 1.  Yields a list of the counts, in spec
    order.  Every name is resolved to its code object before the block
    runs, and one that resolves to none raises ValueError, so a count
    cannot read 0 for a function that moved.  The calls are seen by a
    profile hook (sys.setprofile) that matches code objects by identity and
    passes each event on to the hook it displaces, which is back on exit;
    nothing in reltoa is patched.  A weigh that raises raises from the
    counted call and ends the counting.
    """
    watch: dict[types.CodeType, list] = {}
    for i, spec in enumerate(specs):
        name, weigh = (spec, None) if isinstance(spec, str) else spec
        watch.setdefault(_code(name), []).append((i, weigh))
    counts = [0] * len(specs)
    previous = sys.getprofile()

    def hook(frame, event, arg):
        if event == "call":
            for i, weigh in watch.get(frame.f_code, ()):
                counts[i] += 1 if weigh is None else weigh(frame.f_locals)
        if previous is not None:
            previous(frame, event, arg)

    sys.setprofile(hook)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def _fb_nodes(args) -> int:
    """The nodes of the F_B rule a T_B core's value sums at args["x"]: n + 1,
    n its a-priori intervals (fb_size), and none at zero height."""
    core = args["self"]
    return core.fb_size(args["x"]) + 1 if core.vn else 0


def _branch_nodes(args) -> int:
    """The nodes of the a-priori rule a T_B core's branch-cut sum runs at
    args["x"] (branch_size)."""
    return args["self"].branch_size(args["x"])[1]


def direct_counts(cells) -> tuple[int, int, int]:
    """(T_B calls, F_B nodes, branch-cut nodes) of ior_direct over cells,
    each (sigma, v0, k0): each call of the T_B core's value, which the
    route binds once per cell and calls at every sine-transform node, and
    the nodes of that value's F_B rule and of its core's branch-cut sum."""
    value = "kernels._TbCore.value"
    with counting(value, (value, _fb_nodes), ("kernels._TbCore.branch", _branch_nodes)) as counts:
        for sigma, v0, k0 in cells:
            ior_direct(_packet(sigma, k0), v0)
    return tuple(counts)


def _per_value(counts) -> str:
    """T_B calls and the F_B and branch-cut nodes summed per T_B value."""
    calls, fb_nodes, branch_nodes = counts
    return (f"{calls} T_B calls, {fb_nodes / calls:.1f} F_B + "
            f"{branch_nodes / calls:.1f} branch-cut nodes a value")


def momentum_evals(grid: dict) -> int:
    """ior_momentum's integrand evaluations over grid's cells (q0 = -100):
    each call of every w that ior._crossing_integrand returns, which the
    tau rule calls once per node."""
    with counting("ior._crossing_integrand.<locals>.w") as calls:
        for sigma, v0, k0 in grid_cells(grid):
            ior.ior_momentum(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0)
    return calls[0]


def series_counts(cells) -> tuple[int, int]:
    """(J calls, Faddeeva calls) of ior_series over cells, each (sigma, v0,
    k0): each call of every J that ior._laplace_sine returns, once for M_0
    and once per node of the branch transform's rule, and those of them
    that sum the Faddeeva function rather than J's Laplace expansion."""
    with counting("ior._laplace_sine.<locals>.j", "numerics.faddeeva") as counts:
        for sigma, v0, k0 in cells:
            ior_series(_packet(sigma, k0), v0)
    return tuple(counts)


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
    packets = [(_packet(sigma, k0), v0) for sigma, v0, k0 in cells]
    calls = direct_counts(cells)[0]  # also the warm-up
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
    sha = digest(branch_lines(pin, values))
    faults += _report(f"branch_integral, {len(values)} points: cpu {cpu:7.3f} s  ",
                      sha, None if args.write else pin["sha256"])

    factor_pin = {} if args.write else json.loads(FACTOR_PIN_FILE.read_text())
    t0 = time.process_time()
    free_sha = digest(free_factor_lines(pin["zeta"]))
    cpu = time.process_time() - t0
    faults += _report(f"free_factor, {len(pin['zeta'])} points: cpu {cpu:7.3f} s  ",
                      free_sha, factor_pin.get("free_factor"))
    gap_pins = {row["v0"]: row["sha256"] for row in factor_pin.get("barrier_free_gap", [])}
    gap_rows = []
    for v0 in GAP_V0:
        t0 = time.process_time()
        gap_rows.append({"v0": v0, "sha256": digest(gap_lines(v0, pin["zeta"]))})
        cpu = time.process_time() - t0
        faults += _report(f"barrier_free_gap v0={v0:+.1f}: cpu {cpu:7.3f} s  ",
                          gap_rows[-1]["sha256"], gap_pins.get(v0))
    t0 = time.process_time()
    barrier_sha = digest(barrier_factor_lines(pin["zeta"]))
    cpu = time.process_time() - t0
    faults += _report(
        f"barrier_factor, {len(BARRIER_V0) * len(pin['zeta'])} points: cpu {cpu:7.3f} s  ",
        barrier_sha, factor_pin.get("barrier_factor", {}).get("sha256"),
    )

    dense_pin = {"v0": BARRIER_V0, "zeta": DENSE_ZETA} if args.write else json.loads(
        DENSE_PIN_FILE.read_text()
    )
    t0 = time.process_time()
    zetas = dense_zetas(dense_pin["zeta"])
    dense_sha = digest(free_factor_lines(zetas) + barrier_factor_lines(zetas))
    cpu = time.process_time() - t0
    faults += _report(
        f"dense T_F and T_B, {(1 + len(BARRIER_V0)) * dense_pin['zeta']['count']} points: "
        f"cpu {cpu:7.3f} s  ",
        dense_sha, None if args.write else dense_pin["sha256"],
    )

    for (vn, level), nodes in sorted(kernels._BRANCH_NODES.items()):
        print(f"branch rule |v0|={vn:.1f} m={level}: {len(nodes[0])} nodes")

    direct_pin = DIRECT_GRID if args.write else json.loads(DIRECT_PIN_FILE.read_text())
    t0 = time.process_time()
    direct_sha = digest(direct_lines(direct_pin))
    cpu = time.process_time() - t0
    cells = grid_cells(direct_pin)
    faults += _report(
        f"ior_direct, {len(cells)} cells: {_per_value(direct_counts(cells))} "
        f"({_per_value(direct_counts(TABLE1_DIRECT_CELLS))} on Table 1's "
        f"{len(TABLE1_DIRECT_CELLS)} at v0 = 0.3; "
        f"{_per_value(direct_counts(WIDE_DIRECT_CELLS))} on wide_packets' "
        f"{len(WIDE_DIRECT_CELLS)}), cpu {cpu:7.3f} s  ",
        direct_sha, None if args.write else direct_pin["sha256"],
    )

    momentum_pin = MOMENTUM_GRID if args.write else json.loads(MOMENTUM_PIN_FILE.read_text())
    t0 = time.process_time()
    momentum_sha = digest(momentum_lines(momentum_pin))
    cpu = time.process_time() - t0
    faults += _report(
        f"momentum_split, {len(grid_cells(momentum_pin))} cells: cpu {cpu:7.3f} s "
        f"(ior_momentum: {momentum_evals(momentum_pin)} integrand evaluations)  ",
        momentum_sha, None if args.write else momentum_pin["sha256"],
    )

    series_pin = SERIES_GRID if args.write else json.loads(SERIES_PIN_FILE.read_text())
    t0 = time.process_time()
    series_sha = digest(series_lines(series_pin))
    cpu = time.process_time() - t0
    j_calls, faddeeva_calls = series_counts(TABLE1_SERIES_CELLS)
    faults += _report(
        f"ior_series, {len(grid_cells(series_pin))} cells, and qc_expectation: cpu {cpu:7.3f} s "
        f"({j_calls} J calls, {faddeeva_calls} of them Faddeeva calls, on Table 1's "
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
