"""Seeded workloads: the cells each pass evaluates and how each is checked.

A cell is one R_c value or one kernel evaluation (the momentum-sweep cell
also carries the classical pair for its packet).  Every input is drawn by
``random.Random(seed)`` from the pools in refs.json, so the same seed gives
the same cells in the same order, and every cell has an independent
reference value (see make_refs.py).  The library is reached through its
module objects at call time, so a tracer that rebinds module attributes
sees every call.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

# |value - reference| <= TOL * max(1, |reference|).  The seed's three routes
# agree to ~1e-12 on Table 1 and its kernels match the oracles to ~5e-12, so
# this passes the seed with margin while a looser quadrature tolerance fails.
TOL = 1e-10
# the published Table 1 carries 5 digits (and a 6e-5 spread on its
# k0 = 0.90 row); same bound as the package's acceptance gate
PUBLISHED_TOL = 2e-4

# one direct+momentum pair each side of kappa_c = 0.458.  These are fixed,
# not seeded: the direct route's cost jumps between neighbouring k0 (0.87 s
# at k0 = 0.315, 2.1 s at 0.31 and 0.32), which no bound could absorb.
WIDE_K0 = (0.3, 0.65)
WIDE_ZETA_POINTS = 160  # one zeta per stratum of ~5 grid points over (0, 160]
SWEEP_CELLS = 1500

# (cold pass, warm pass) seconds at the seed commit, scaled to the reference
# host speed (speed.py).  They fix how many warm passes a run makes for a
# given --seconds, so a seed always gives the same passes, the same
# `attempted` and the same `failed`; a run that timed its passes would make
# one pass more or less as the host's speed varies.
NOMINAL_S = {
    "narrow_table": (11.1, 3.86),
    "wide_packets": (9.0, 2.85),
    "momentum_sweep": (0.79, 0.77),
}


@dataclass
class Cell:
    name: str
    run: Callable[[], object]  # a float, or a tuple of floats
    check: Callable[[object], bool]
    # defects present at the seed commit: the cell still counts in failed
    # and failed_frac, but its failure does not make the run incorrect
    seed_defect: bool = False


def load_refs() -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def within(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= TOL * max(1.0, abs(ref))


def _rc_cell(name, reltoa, route, sigma, k0, v0, ref, published=None, seed_defect=False):
    packet = reltoa.GaussianPacket(q0=-max(50.0, 40.0 * sigma), sigma=sigma, k0=k0)
    fn_name = "ior_" + route

    def run() -> float:
        return getattr(reltoa.ior, fn_name)(packet, v0).value

    def check(value: float) -> bool:
        ok = within(value, ref)
        return ok and (published is None or abs(value - published) <= PUBLISHED_TOL)

    return Cell(name, run, check, seed_defect)


def narrow_table(reltoa, refs: dict, rng: random.Random) -> list[Cell]:
    cells = []
    for row in refs["narrow_table"]:
        for route in ("direct", "series", "momentum"):
            cells.append(
                _rc_cell(
                    f"narrow_table/{route}/k0={row['k0']:g}",
                    reltoa, route, row["sigma"], row["k0"], row["v0"], row["rc"],
                    published=row["published"][route],
                )
            )
    rng.shuffle(cells)
    return cells


def _stratified(rng: random.Random, n_pool: int, n_pick: int) -> list[int]:
    # one index per equal stratum, so every seed spreads over the whole range
    edges = [round(i * n_pool / n_pick) for i in range(n_pick + 1)]
    return [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]


# Seed defects.  T_B(-0.1, zeta) leaves its reference from zeta = 104.6 once
# a direct cell has grown the coefficient table (from 71.6 in a fresh
# process; the residue series is summed at too few digits).  This workload
# always runs its direct cells first, so every T_B(-0.1) cell below 104.6
# still gates correctness.  The direct route integrates that kernel out to
# zeta ~ 159 at sigma = 9, so both wide direct cells are off by O(1).
WIDE_BAD_ZETA = 104.5


def _zeta_picks(rng: random.Random, zeta: list[float]) -> list[int]:
    """Stratified picks, drawn apart below and above WIDE_BAD_ZETA so that
    every seed takes the same number of points on each side: which cells
    fail at the seed then does not depend on the seed, only their zetas."""
    split = bisect.bisect_left(zeta, WIDE_BAD_ZETA)
    n_low = round(WIDE_ZETA_POINTS * split / len(zeta))
    high = _stratified(rng, len(zeta) - split, WIDE_ZETA_POINTS - n_low)
    return _stratified(rng, split, n_low) + [split + i for i in high]


def wide_packets(reltoa, refs: dict, rng: random.Random) -> list[Cell]:
    w = refs["wide_packets"]
    sigma, v0 = w["sigma"], w["v0"]
    cells = []
    picks = list(zip(WIDE_K0, w["rc"]))
    rng.shuffle(picks)
    for k0, ref in picks:
        cells.append(_rc_cell(f"wide_packets/direct/k0={k0:g}", reltoa, "direct",
                              sigma, k0, v0, ref, seed_defect=True))
        cells.append(_rc_cell(f"wide_packets/momentum/k0={k0:g}", reltoa, "momentum",
                              sigma, k0, v0, ref))
    kernels = reltoa.kernels
    for i in _zeta_picks(rng, w["zeta"]):
        zeta = w["zeta"][i]
        for kind, fn in (
            ("t_free", lambda z=zeta: kernels.free_factor(z).value),
            ("t_barrier_minus", lambda z=zeta: kernels.barrier_factor(-v0, z).value),
            ("t_barrier_plus", lambda z=zeta: kernels.barrier_factor(+v0, z).value),
        ):
            ref = w[kind][i]
            cells.append(Cell(
                f"wide_packets/{kind}/zeta={zeta:g}", fn,
                lambda value, r=ref: within(value, r),
                seed_defect=kind == "t_barrier_minus" and zeta >= WIDE_BAD_ZETA,
            ))
    return cells


def momentum_sweep(reltoa, refs: dict, rng: random.Random) -> list[Cell]:
    sweep = refs["momentum_sweep"]
    a, b = sweep["barrier"]
    cells = []
    for v0, sigma, k0, rc, t_classical in rng.sample(sweep["cells"], SWEEP_CELLS):
        packet = reltoa.GaussianPacket(q0=-max(50.0, 40.0 * sigma), sigma=sigma, k0=k0)
        barrier = reltoa.BarrierSpec(v0=v0, a=a, b=b)
        q0 = a - 20.0 * sigma  # classical launch point, as in make_refs.py

        def run(packet=packet, v0=v0, barrier=barrier, q0=q0, k0=k0, pair=t_classical):
            value = reltoa.ior.ior_momentum(packet, v0).value
            if pair is None:
                return (value,)
            return (
                value,
                reltoa.classical.crtoa_quadrature(q0, k0, barrier),
                reltoa.classical.classical_toa_closed("III", q0, k0, barrier),
            )

        def check(values, rc=rc, pair=t_classical) -> bool:
            return within(values[0], rc) and all(within(v, pair) for v in values[1:])

        cells.append(Cell(
            f"momentum_sweep/momentum/v0={v0:g},sigma={sigma:g},k0={k0:g}", run, check
        ))
    return cells


WORKLOADS = {
    "narrow_table": narrow_table,
    "wide_packets": wide_packets,
    "momentum_sweep": momentum_sweep,
}


def build(name: str, reltoa, seed: int) -> list[Cell]:
    return WORKLOADS[name](reltoa, load_refs(), random.Random(seed))
