#!/usr/bin/env python3
"""Time the residue-coefficient build D_p(v) and pin the branch-cut integrals.

Each pinned build (v, count, dps) calls ``reltoa.kernels._build_fb_coeffs``
twice: once for its CPU time and its bits, once under tracemalloc for its
peak memory.  The bits are hashed and checked against
tests/data/fb_coeffs_pin.json, which tests/test_kernels.py also reads.  The
two builds near the rest energy that must fail are timed the same way, with
their message.  The coefficient cache is not touched.

Then ``reltoa.kernels.branch_integral`` runs over a grid of barrier
strengths and log-spaced zeta.  Its (value, err) pairs are hashed and checked
against tests/data/branch_integral_pin.json.  On the same grid,
``free_factor``'s (value, err) per zeta and ``barrier_free_gap``'s value per
(v0, zeta) are hashed and checked against tests/data/branch_factors_pin.json.
Last, the node count, segment count and bytes of every half-line table the
grid leaves behind are printed: the G_B profile and the gap table per
strength, and the one T_F table.

Run from the repository root:

    PYTHONPATH=src python scripts/fb_build_bench.py           # time and check
    PYTHONPATH=src python scripts/fb_build_bench.py --write   # rewrite the pins
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time
import tracemalloc

from reltoa import kernels
from reltoa.kernels import (
    NATURAL_UNITS,
    _build_fb_coeffs,
    barrier_free_gap,
    branch_integral,
    free_factor,
)
from reltoa.numerics import DEFAULT_SETTINGS, SeriesDivergenceError

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
PIN_FILE = DATA / "fb_coeffs_pin.json"
BRANCH_PIN_FILE = DATA / "branch_integral_pin.json"
FACTOR_PIN_FILE = DATA / "branch_factors_pin.json"

# (v, count, dps): the table1 and kernel-CLI sizes, and a strong barrier whose
# every coefficient takes the optimal-truncation exit
BUILDS = [(-0.3, 112, 45), (0.1, 112, 45), (-0.1, 224, 60), (-0.9, 24, 45)]
# strengths too close to the rest energy: the build raises on p = 0
FAILING = [(-0.97, 112, 45), (-0.99, 112, 45)]
# the branch-cut pin: both signs the routes use, zero, and a strong barrier,
# at 40 log-spaced zeta from a wide packet's small-zeta end to the kernel
# table's far end
BRANCH_V0 = [-0.9, -0.3, -0.1, 0.0, 0.1, 0.3]
BRANCH_ZETA = [0.05 * 3200.0 ** (i / 39) for i in range(40)]
# the T_F and gap pins use the same grid, but barrier_free_gap(-0.9, zeta)
# raises in its residue series (the v = +0.9 build fails, ~15 s a call)
# before it reaches the branch integral, so the gap leaves out v0 = -0.9
GAP_V0 = [v0 for v0 in BRANCH_V0 if v0 != -0.9]


def build(v: float, count: int, dps: int):
    return _build_fb_coeffs(v, NATURAL_UNITS, count, dps, DEFAULT_SETTINGS)


def digest(entry) -> str:
    """sha256 of the coefficients' mpf tuples, then errs, then log10."""
    h = hashlib.sha256()
    h.update(repr([tuple(int(x) for x in cf._mpf_) for cf in entry.coeffs]).encode())
    h.update(repr(entry.errs).encode())
    h.update(repr(entry.log10).encode())
    return h.hexdigest()


def branch_values(grid) -> dict:
    """branch_integral's (value, err) at each (v0, zeta), computed in grid order."""
    return {
        (v0, zeta): branch_integral(v0, zeta, NATURAL_UNITS, DEFAULT_SETTINGS)
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
        est = free_factor(zeta, NATURAL_UNITS, DEFAULT_SETTINGS)
        h.update(f"{est.value.hex()} {est.err.hex()}\n".encode())
    return h.hexdigest()


def gap_digest(v0: float, zetas) -> str:
    """sha256 of barrier_free_gap(v0, zeta)'s value at each zeta, in order."""
    h = hashlib.sha256()
    for zeta in zetas:
        h.update(f"{barrier_free_gap(v0, zeta, NATURAL_UNITS, DEFAULT_SETTINGS).hex()}\n".encode())
    return h.hexdigest()


def table_size(table) -> str:
    """Nodes, segments and bytes of a HalfLineTable.

    The node bytes count the dict and its z and g floats; the segment bytes
    count the segment dict, its (a, b) keys, the node tuples and their
    (1 - t)^2 floats, since z and g are the node table's own objects.
    """
    node_bytes = sys.getsizeof(table) + sum(
        sys.getsizeof(z) + sys.getsizeof(g) for z, g in table.items()
    )
    seg_bytes = sys.getsizeof(table.segments) + sum(
        sys.getsizeof(key) + 2 * sys.getsizeof(key[0]) + sys.getsizeof(seg)
        + sum(sys.getsizeof(node) + sys.getsizeof(node[2]) for node in seg)
        for key, seg in table.segments.items()
    )
    return (
        f"{len(table)} nodes, {node_bytes} bytes; "
        f"{len(table.segments)} segments, {seg_bytes} bytes"
    )


def _report(line: str, sha: str, pinned: str | None) -> int:
    """Print a digest against its pin (None when writing); 1 if they differ."""
    if pinned is None:
        print(line + sha)
        return 0
    print(line + ("matches pin" if sha == pinned else f"DIFFERS from pin: {sha}"))
    return int(sha != pinned)


def _measure(v: float, count: int, dps: int):
    """(cpu seconds, tracemalloc peak MB, entry or the error raised)."""
    outcome = None
    t0 = time.process_time()
    try:
        outcome = build(v, count, dps)
    except SeriesDivergenceError as exc:
        outcome = exc
    cpu = time.process_time() - t0
    tracemalloc.start()
    try:
        build(v, count, dps)
    except SeriesDivergenceError:
        pass
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return cpu, peak, outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the pin files")
    args = parser.parse_args()
    pins = {} if args.write else {
        (b["v"], b["count"], b["dps"]): b["sha256"]
        for b in json.loads(PIN_FILE.read_text())["builds"]
    }

    written = []
    faults = 0
    for v, count, dps in BUILDS + FAILING:
        cpu, peak, outcome = _measure(v, count, dps)
        line = f"v={v:+.2f} count={count:3d} dps={dps}: cpu {cpu:7.3f} s  peak {peak:6.2f} MB  "
        if (v, count, dps) in FAILING:
            raised = isinstance(outcome, SeriesDivergenceError)
            faults += not raised
            print(line + (f"raises: {outcome}" if raised else "DID NOT RAISE"))
        elif isinstance(outcome, SeriesDivergenceError):
            faults += 1
            print(line + f"RAISES: {outcome}")
        elif args.write:
            written.append({"v": v, "count": count, "dps": dps, "sha256": digest(outcome)})
            print(line + written[-1]["sha256"])
        else:
            sha = digest(outcome)
            same = pins.get((v, count, dps)) == sha
            faults += not same
            print(line + ("matches pin" if same else f"DIFFERS from pin: {sha}"))

    pin = {"v0": BRANCH_V0, "zeta": BRANCH_ZETA} if args.write else json.loads(
        BRANCH_PIN_FILE.read_text()
    )
    t0 = time.process_time()
    values = branch_values([(v0, zeta) for v0 in pin["v0"] for zeta in pin["zeta"]])
    cpu = time.process_time() - t0
    sha = branch_digest(pin, values)
    faults += _report(f"branch_integral, {len(values)} points: cpu {cpu:7.3f} s  ",
                      sha, None if args.write else pin["sha256"])

    # T_F and the gap on the same grid; their residue series builds dominate
    # the time, not the tabulated branch integrals
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

    for v0 in pin["v0"]:
        table = kernels._BRANCH_PROFILES[(v0, NATURAL_UNITS)]
        print(f"branch profile v0={v0:+.1f}: {table_size(table)}")
    print(f"free_factor table: {table_size(kernels._FREE_TABLE)}")
    for v0 in GAP_V0:
        print(f"gap table v0={v0:+.1f}: {table_size(kernels._GAP_TABLES[(v0, NATURAL_UNITS)])}")

    if faults:
        return 1
    if args.write:
        PIN_FILE.write_text(json.dumps({"builds": written}, indent=2) + "\n")
        BRANCH_PIN_FILE.write_text(json.dumps({**pin, "sha256": sha}, indent=2) + "\n")
        FACTOR_PIN_FILE.write_text(
            json.dumps({"free_factor": free_sha, "barrier_free_gap": gap_rows}, indent=2) + "\n"
        )
        print(f"wrote {PIN_FILE}, {BRANCH_PIN_FILE} and {FACTOR_PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
