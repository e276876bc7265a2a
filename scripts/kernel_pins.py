#!/usr/bin/env python3
"""Pin the kernels, the three routes and the quadrature engines; count and time them.

One registry, PINS, names every pin and the builder of the lines it
hashes; tests/data/pins.json maps each name to the sha256 of those lines
(digest), and tests/test_pins.py reads both.  Each grid is stated once,
as a constant here.  The pins:

- branch_integral: ``reltoa.kernels.branch_integral``'s (value, err) on
  BRANCH_CELLS, six barrier strengths by 40 log-spaced zeta, hashed
  v0-major whatever order computed them (branch_lines);
- free_factor: ``free_factor``'s (value, err) on the same zeta, and
  barrier_free_gap <v0>: ``barrier_free_gap``'s value per zeta, one pin
  for each of the six strengths;
- barrier_factor: ``barrier_factor``'s (value, err) on the same zeta at
  both signs of four strengths up to the rest-energy scale (BARRIER_V0),
  where a point that raises hashes its error type and text;
- dense: T_F's and those T_B's (value, err) on 1,000 log-spaced zeta from
  20 to 750 (DENSE_ZETA), past the onset of the branch-cut skip and exp's
  underflow at 745;
- direct: ``reltoa.ior.ior_direct``'s (value, err) on the wide cells whose
  sine transforms reach natural zeta > 36 (DIRECT_GRID: sigma 6 and 9,
  three barriers up to v0 = 0.99 and three k0);
- momentum: ``reltoa.ior.momentum_split``'s R_c, +k and -k weights, each
  value and err, on 80 cells (MOMENTUM_GRID: sigma from 0.5 to 9, v0 up
  to 0.99 and k0 on both sides of kappa_c);
- series: ``reltoa.ior.ior_series``'s (value, err), or its error type and
  text, on 18 cells (SERIES_GRID: sigma 0.5 and 1, v0 on both sides of
  the branch transform's switch of rule at 0.1 and k0 from 0.5 to 5), and
  ``qc_expectation``'s on the six (sigma, k0);
- sine_transform_decaying, gk21, integrate_semiinf_exp,
  integrate_sqrt_endpoint and crtoa_quadrature: the adaptive G10/K21
  engine's callers and the tau rule, one pin per caller over its
  ENGINE_CASES.

Every pin is checked, or with --write written, and its CPU time printed.
Then the script prints the number of nodes that the kernel pins, up to
the dense one, left in each branch-cut rule, per strength |v0| (G_B is even in v0, so the two signs
share a rule) and step 2^-m; the T_B calls of the direct pin's cells, of
Table 1's seven v0 = 0.3 direct cells (TABLE1_DIRECT_CELLS) and of the two
direct cells of the wide_packets benchmark (WIDE_DIRECT_CELLS), each a
call of the value method of the T_B core, which the direct route binds
once per cell, with the F_B and branch-cut nodes each T_B value sums
(direct_counts); ``reltoa.ior.ior_momentum``'s integrand evaluations on
the momentum pin's cells (momentum_evals); and the J calls of Table 1's
seven v0 = 0.3 series cells (TABLE1_SERIES_CELLS), how many of them
sum the Faddeeva function, the terms of each cell's far form and the CPU
time of a cold build of the branch transform's inverse-power sums
(series_counts).  Every count comes from one profile-hook counter
(counting), which counts the calls of named library functions and
closures by their code objects and patches nothing.  Last, the residue
factor F_B, the whole barrier factor T_B and T_B's value alone are timed
per warm call of the fb and value methods of the strength's T_B core
(``reltoa.kernels._tb_core``), whose value the direct route calls at every
node, and of ``barrier_factor`` (their rules cached, best of a few
rounds), at v = -0.1 and +0.1, at zeta from 1 to 150, with the number of
intervals of the F_B rule each call sums.  From zeta ~ 36 at v = -0.1, and
at every zeta past 32 at v = +0.1, barrier_factor and the value both skip
the branch-cut sum.  The script ends with the CPU time of a warm Table 1
direct cell per T_B node it takes, and per cell (direct_node_cost).

Run from the repository root:

    PYTHONPATH=src python scripts/kernel_pins.py           # time and check
    PYTHONPATH=src python scripts/kernel_pins.py --write   # rewrite pins.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import math
import pathlib
import sys
import time
import types

from reltoa import ior, kernels, numerics
from reltoa.classical import crtoa_quadrature
from reltoa.cli import TABLE1_ROWS, TABLE1_SIGMA
from reltoa.ior import ior_direct, ior_series, momentum_split, qc_expectation
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    barrier_factor,
    barrier_free_gap,
    branch_integral,
    free_factor,
)
from reltoa.numerics import (
    DEFAULT_SETTINGS,
    QuadratureSettings,
    integrate_semiinf_exp,
    integrate_sqrt_endpoint,
    sine_transform_decaying,
)
from reltoa.wavepacket import GaussianPacket

PINS_FILE = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "pins.json"

# the branch-cut pin: both signs the routes use, zero, and a strong barrier,
# at 40 log-spaced zeta from a wide packet's small-zeta end to the kernel
# table's far end; the T_F and gap pins use the same zeta and strengths
BRANCH_V0 = [-0.9, -0.3, -0.1, 0.0, 0.1, 0.3]
BRANCH_ZETA = [0.05 * 3200.0 ** (i / 39) for i in range(40)]
BRANCH_CELLS = [(v0, zeta) for v0 in BRANCH_V0 for zeta in BRANCH_ZETA]
# the T_B pin: both signs of four strengths, on the same zeta
BARRIER_V0 = [sign * a for a in (0.1, 0.3, 0.9, 0.99) for sign in (-1.0, 1.0)]
# the dense pin's zeta: 1,000 log-spaced points from 20 to 750
DENSE_ZETA = [20.0 * (750.0 / 20.0) ** (i / 999) for i in range(1000)]
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

# the engine pins' settings and barrier
FEW_SUBDIVISIONS = QuadratureSettings(max_subdivisions=4)
TIGHT_FEW = QuadratureSettings(rel_tol=1e-12, max_subdivisions=4)
EIGHT_SUBDIVISIONS = QuadratureSettings(max_subdivisions=8)
TIGHT = QuadratureSettings(rel_tol=1e-13, abs_tol=1e-16)
PIN_BARRIER = BarrierSpec(v0=0.3, a=-2.0, b=-1.0)


def digest(lines) -> str:
    """sha256 of the lines, each ended by a newline: every pin's hash."""
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _hex(out) -> str:
    """A value and err in float.hex (an Estimate or _gk21's pair), or a bare value."""
    return " ".join(x.hex() for x in (out if isinstance(out, tuple) else (out,)))


def _line(call, *args) -> str:
    """call(*args)'s result in float.hex, or the error it raises, its type and text."""
    try:
        out = call(*args)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return _hex(out)


def branch_lines(order=BRANCH_CELLS) -> list[str]:
    """branch_integral's (value, err) on BRANCH_CELLS, computed in order's
    order and listed v0-major."""
    values = {cell: branch_integral(*cell, NATURAL_UNITS) for cell in order}
    return [_hex(values[cell]) for cell in BRANCH_CELLS]


def free_factor_lines(zetas) -> list[str]:
    """free_factor's (value, err) at each zeta, in order."""
    return [_line(free_factor, zeta, NATURAL_UNITS) for zeta in zetas]


def gap_lines(v0: float) -> list[str]:
    """barrier_free_gap(v0, zeta)'s value at each of BRANCH_ZETA, in order."""
    return [_line(barrier_free_gap, v0, zeta, NATURAL_UNITS) for zeta in BRANCH_ZETA]


def barrier_factor_lines(zetas) -> list[str]:
    """barrier_factor's (value, err), or its error type and text, at each
    (v0, zeta), v0-major; the dense pin hashes free_factor's lines and
    then these."""
    return [_line(barrier_factor, v0, zeta, NATURAL_UNITS) for v0 in BARRIER_V0 for zeta in zetas]


def grid_cells(grid: dict) -> list[tuple[float, float, float]]:
    """grid's (sigma, v0, k0) cells, sigma-major, then v0, then k0."""
    return [(sigma, v0, k0) for sigma in grid["sigma"] for v0 in grid["v0"] for k0 in grid["k0"]]


def _packet(sigma: float, k0: float) -> GaussianPacket:
    """The direct and series pins' packet, 40 sigma left of the barrier."""
    return GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)


def direct_lines(grid: dict) -> list[str]:
    """ior_direct's (value, err) on grid's cells."""
    return [_line(ior_direct, _packet(sigma, k0), v0) for sigma, v0, k0 in grid_cells(grid)]


def momentum_lines(grid: dict) -> list[str]:
    """momentum_split's R_c, plus and minus, each value and err, on grid's
    cells (q0 = -100)."""
    return [
        " ".join(_hex(est)
                 for est in momentum_split(GaussianPacket(q0=-100.0, sigma=sigma, k0=k0), v0))
        for sigma, v0, k0 in grid_cells(grid)
    ]


def series_lines(grid: dict) -> list[str]:
    """ior_series' (value, err), or its error type and text, on grid's
    cells; then qc_expectation's on each (sigma, k0), sigma-major."""
    return [_line(ior_series, _packet(sigma, k0), v0) for sigma, v0, k0 in grid_cells(grid)] + [
        _line(qc_expectation, _packet(sigma, k0)) for sigma in grid["sigma"] for k0 in grid["k0"]
    ]


# (caller, thunk) pairs: each thunk returns (value, err), a bare value, or
# raises.  The sine transform runs a decaying exponential, a Gaussian at
# tight settings, a 1/zeta start under the cubic map (and again under a cap
# of 8 subdivisions), sin * cos seeded at each period of cos, k far below
# the bandwidth, two NaN tails, a 1/(1 + z) tail over 32 periods at
# rel_tol 1e-12 on 4 bisected segments past its 33 openings, and a window
# of 160 periods, more than 16 x 4.  The G10/K21 cases run the
# pass alone and _adaptive_gk on it (a sqrt start, a subnormal value, a 1/z
# start that reaches the width floor).  The tau rule runs the closed form
# of tests/test_numerics.py's TestSqrtEndpoint with the endpoint at 1 and
# near the origin, a narrow core at tight settings, a subnormal -k-like
# weight, a NaN past k = 3 and a jump that reaches the node cap.
ENGINE_CASES = [
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(lambda z: math.exp(-z), 1.0, 40.0, 0.0)),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(lambda z: math.exp(-z * z / 8.0), 2.0, 20.0, 0.0, TIGHT)),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(lambda z: math.exp(-z * z) / z, 1.0, 8.0, 0.0)),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(
         lambda z: math.exp(-z * z) / z, 1.0, 8.0, 0.0, EIGHT_SUBDIVISIONS
     )),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(
         lambda z: math.cos(2.0 * z) * math.exp(-0.2 * z), 0.5, 200.0, 2.0
     )),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(lambda z: math.exp(-z * z), 1e-6, 40.0, 1.0)),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(
         lambda z: math.nan if z > 3.0 else math.exp(-z), 1.0, 40.0, 0.0, FEW_SUBDIVISIONS
     )),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(
         lambda z: math.nan if z > 3.0 else math.exp(-z), 1.0, 40.0, 2.0, FEW_SUBDIVISIONS
     )),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(lambda z: 1.0 / (1.0 + z), 0.5, 400.0, 0.0, TIGHT_FEW)),
    ("sine_transform_decaying",
     lambda: sine_transform_decaying(lambda z: math.exp(-z), 1.0, 1000.0, 0.0, FEW_SUBDIVISIONS)),
    ("gk21", lambda: numerics._gk21(math.exp, 0.0, 1.0)),
    ("gk21", lambda: numerics._gk21(math.sqrt, 0.0, 2.0)),
    ("gk21",
     lambda: numerics._adaptive_gk(math.sqrt, 0.0, 1.0, DEFAULT_SETTINGS)),
    ("gk21", lambda: numerics._adaptive_gk(lambda z: 1e-310 * z, 0.0, 1.0, DEFAULT_SETTINGS)),
    ("gk21", lambda: numerics._adaptive_gk(lambda z: 1.0 / z, 0.0, 1.0, DEFAULT_SETTINGS)),
    ("integrate_semiinf_exp", lambda: integrate_semiinf_exp(lambda z: 1.0, 1.0, 1.0)),
    ("integrate_semiinf_exp", lambda: integrate_semiinf_exp(lambda z: z * z, 0.7, 1.3, TIGHT)),
    ("integrate_semiinf_exp",
     lambda: integrate_semiinf_exp(lambda z: math.sqrt(z * z - 1.0) / z, 1.0, 1.0)),
    ("integrate_semiinf_exp",
     lambda: integrate_semiinf_exp(lambda z: 1.0 / (1.0 + z * z), 0.0, 0.0)),
    ("integrate_semiinf_exp",
     lambda: integrate_semiinf_exp(
         lambda z: math.exp(-((z - 5.0) / 0.01) ** 2), 0.0, 0.1, DEFAULT_SETTINGS, (5.0,)
     )),
    ("integrate_semiinf_exp", lambda: integrate_semiinf_exp(lambda z: 1.0, 1.0, 0.0)),
    ("integrate_sqrt_endpoint", lambda: integrate_sqrt_endpoint(lambda k: k, 1.0, 0.0, 1.0)),
    ("integrate_sqrt_endpoint", lambda: integrate_sqrt_endpoint(lambda k: k, 1e-8, 0.0, 1.0)),
    ("integrate_sqrt_endpoint",
     lambda: integrate_sqrt_endpoint(lambda k: 1.0, 1.0, 9.0, 1e4, TIGHT)),
    ("integrate_sqrt_endpoint",
     lambda: integrate_sqrt_endpoint(lambda k: 1.0, 1.0, -0.5, 320.0)),
    ("integrate_sqrt_endpoint",
     lambda: integrate_sqrt_endpoint(lambda k: math.nan if k > 3.0 else 1.0, 1.0, 2.0, 0.5)),
    ("integrate_sqrt_endpoint",
     lambda: integrate_sqrt_endpoint(lambda k: 2.0 if k > 2.0 else 1.0, 1.0, 2.0, 1.0)),
    ("crtoa_quadrature", lambda: crtoa_quadrature(-10.0, 1.0, None)),
    ("crtoa_quadrature", lambda: crtoa_quadrature(-1.5, 1.0, PIN_BARRIER)),
    ("crtoa_quadrature", lambda: crtoa_quadrature(-5.0, 2.0, PIN_BARRIER)),
    ("crtoa_quadrature", lambda: crtoa_quadrature(0.5, -1.0, PIN_BARRIER)),
]


def engine_lines(caller: str) -> list[str]:
    """Each of caller's ENGINE_CASES in float.hex, or its error type and text."""
    return [_line(thunk) for name, thunk in ENGINE_CASES if name == caller]


# every pin: its name in pins.json, and the builder of the lines it hashes
PINS = {
    "branch_integral": branch_lines,
    "free_factor": functools.partial(free_factor_lines, BRANCH_ZETA),
    **{f"barrier_free_gap {v0:+.1f}": functools.partial(gap_lines, v0) for v0 in BRANCH_V0},
    "barrier_factor": functools.partial(barrier_factor_lines, BRANCH_ZETA),
    "dense": lambda: free_factor_lines(DENSE_ZETA) + barrier_factor_lines(DENSE_ZETA),
    "direct": functools.partial(direct_lines, DIRECT_GRID),
    "momentum": functools.partial(momentum_lines, MOMENTUM_GRID),
    "series": functools.partial(series_lines, SERIES_GRID),
    **{caller: functools.partial(engine_lines, caller) for caller in dict(ENGINE_CASES)},
}


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


def series_counts(cells) -> tuple[int, int, list[int], dict[float, float]]:
    """(J calls, Faddeeva calls, far terms, build seconds) of ior_series over
    cells, each (sigma, v0, k0): each call of every J that ior._laplace_sine
    returns, once for M_0 and once per node of the branch transform's rule
    below the far form's z0, and those of them that sum the Faddeeva
    function; the terms of each cell's far form (ior._laplace_far); and per
    strength the best CPU seconds, of FB_ROUNDS, of a cold build of the
    branch transform's inverse-power sums (kernels._far_sums), which the
    cells then share."""
    builds = {}
    for v0 in sorted({v0 for _sigma, v0, _k0 in cells}):
        builds[v0] = math.inf
        for _ in range(FB_ROUNDS):
            kernels._FAR_SUMS.pop(v0, None)
            t0 = time.process_time()
            kernels._far_sums(v0)
            builds[v0] = min(builds[v0], time.process_time() - t0)
    with counting("ior._laplace_sine.<locals>.j", "numerics.faddeeva") as counts:
        for sigma, v0, k0 in cells:
            ior_series(_packet(sigma, k0), v0)
    terms = [len(ior._laplace_far(ior._natural_packet(_packet(sigma, k0), NATURAL_UNITS))[1])
             for sigma, _v0, k0 in cells]
    return counts[0], counts[1], terms, builds


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/data/pins.json")
    args = parser.parse_args()

    pinned = {} if args.write else json.loads(PINS_FILE.read_text())
    shas = {}
    for name, lines in PINS.items():
        t0 = time.process_time()
        shas[name] = digest(lines())
        cpu = time.process_time() - t0
        verdict = shas[name] if args.write else (
            "matches pin" if shas[name] == pinned.get(name) else f"DIFFERS from pin: {shas[name]}"
        )
        print(f"{name}: cpu {cpu:7.3f} s  {verdict}")
        if name == "dense":  # the branch-cut rules as the kernel pins leave them
            rules = [(key, len(nodes[0])) for key, nodes in sorted(kernels._BRANCH_NODES.items())]
    for name in pinned.keys() - PINS.keys():
        print(f"{name}: pinned in {PINS_FILE.name} but not in the registry")

    for (vn, level), count in rules:
        print(f"branch rule |v0|={vn:.1f} m={level}: {count} nodes")
    cells = grid_cells(DIRECT_GRID)
    print(f"ior_direct: {_per_value(direct_counts(cells))} on the direct pin's "
          f"{len(cells)} cells; "
          f"{_per_value(direct_counts(TABLE1_DIRECT_CELLS))} on Table 1's "
          f"{len(TABLE1_DIRECT_CELLS)} at v0 = 0.3; "
          f"{_per_value(direct_counts(WIDE_DIRECT_CELLS))} on wide_packets' "
          f"{len(WIDE_DIRECT_CELLS)}")
    print(f"ior_momentum: {momentum_evals(MOMENTUM_GRID)} integrand evaluations on the "
          f"momentum pin's {len(grid_cells(MOMENTUM_GRID))} cells")
    j_calls, faddeeva_calls, terms, builds = series_counts(TABLE1_SERIES_CELLS)
    print(f"ior_series: {j_calls} J calls, {faddeeva_calls} of them Faddeeva calls, on "
          f"Table 1's {len(TABLE1_SERIES_CELLS)} series cells at v0 = 0.3; far-form terms "
          f"per cell {', '.join(map(str, terms))}; inverse-power sums built in "
          + ", ".join(f"{1e3 * cpu:.3f} ms at v0 = {v0}" for v0, cpu in builds.items()))
    for v, zeta in FB_POINTS:
        intervals, (fb_cpu, tb_cpu, value_cpu) = fb_timing(v, zeta)
        print(f"v={v:+.1f} zeta={zeta:5.1f}: {intervals:4d} F_B intervals, "
              f"F_B {1e6 * fb_cpu:6.1f} us/call, T_B {1e6 * tb_cpu:6.1f} us/call, "
              f"T_B value {1e6 * value_cpu:6.1f} us/call")
    per_node, per_cell = direct_node_cost(TABLE1_DIRECT_CELLS)
    print(f"warm Table 1 direct cell: {1e6 * per_node:5.2f} us CPU per T_B node, "
          f"{1e3 * per_cell:5.2f} ms per cell")

    if args.write:
        PINS_FILE.write_text(json.dumps(shas, indent=2) + "\n")
        print(f"wrote {PINS_FILE}")
        return 0
    return int(shas != pinned)


if __name__ == "__main__":
    sys.exit(main())
