#!/usr/bin/env python3
"""Time the residue-coefficient build D_p(v) and pin the branch-cut integral.

Each pinned build (v, count, dps) calls ``reltoa.kernels._build_fb_coeffs``
twice: once for its CPU time and its bits, once under tracemalloc for its
peak memory.  The bits are hashed and checked against
tests/data/fb_coeffs_pin.json, which tests/test_kernels.py also reads.  The
two builds near the rest energy that must fail are timed the same way, with
their message.  The coefficient cache is not touched.

Then ``reltoa.kernels.branch_integral`` runs over a grid of barrier
strengths and log-spaced zeta.  Its (value, err) pairs are hashed and checked
against tests/data/branch_integral_pin.json, and the size of the G_B profile
table each strength leaves behind is printed.

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
from reltoa.kernels import NATURAL_UNITS, _build_fb_coeffs, branch_integral
from reltoa.numerics import DEFAULT_SETTINGS, SeriesDivergenceError

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
PIN_FILE = DATA / "fb_coeffs_pin.json"
BRANCH_PIN_FILE = DATA / "branch_integral_pin.json"

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
    parser.add_argument("--write", action="store_true", help="rewrite the pin file")
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
    for v0 in pin["v0"]:
        table = kernels._BRANCH_PROFILES[(v0, NATURAL_UNITS)]
        floats = sum(sys.getsizeof(z) + sys.getsizeof(h) for z, h in table.items())
        print(
            f"branch profile v0={v0:+.1f}: {len(table)} nodes, dict {sys.getsizeof(table)} "
            f"bytes + floats {floats} bytes"
        )
    line = f"branch_integral, {len(values)} points: cpu {cpu:7.3f} s  "
    if args.write:
        print(line + sha)
    else:
        same = pin["sha256"] == sha
        faults += not same
        print(line + ("matches pin" if same else f"DIFFERS from pin: {sha}"))

    if faults:
        return 1
    if args.write:
        PIN_FILE.write_text(json.dumps({"builds": written}, indent=2) + "\n")
        BRANCH_PIN_FILE.write_text(json.dumps({**pin, "sha256": sha}, indent=2) + "\n")
        print(f"wrote {PIN_FILE} and {BRANCH_PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
