#!/usr/bin/env python3
"""Sweep R_c's three routes over (sigma, v0, k0) against an independent reference.

Each cell runs ``reltoa.ior``'s ior_direct, ior_series and ior_momentum at
the default settings.  The reference is momentum_split's R_c at
rel_tol = 1e-13, which shares no code with the direct and series routes;
ior_momentum runs the reference's own tau rule at the default tolerance.
One CSV row a cell gives sigma, v0, k0, the reference's value and err, and
for each route its value and err, or its typed error's class name
(QuadratureError or SeriesDivergenceError) and no err, and the ratio
|route - reference|/(err_route + err_reference).  A ratio above 1 is an
answer outside its err.  A table of outcomes per route and sigma goes to
stderr: answers within their err, answers outside it, and typed errors.

The full grid is sigma in {0.5, 1, 1.5, 2, 3}, v0 in {0.1, 0.3, 0.6, 0.9,
0.99} and 60 k0 evenly spaced on [0.1, 6]: 1,500 cells.
The reduced grid, which tests/test_ior.py runs, is sigma in {0.5, 2, 6},
v0 in {0.3, 0.99} and k0 at 0.5, 1.1 and 2 times kappa_c.  The exit status
is 3 when a route answers outside its err, as ``reltoa limits`` does on a
failed check, and 0 otherwise.  --reference reads the reference's value and
err from the ref and ref_err columns of a saved --out file instead, by
(sigma, v0, k0), so that the routes of one commit are judged against the
reference of another.  Run from the repository root:

    PYTHONPATH=src python scripts/route_sweep.py                  # full grid
    PYTHONPATH=src python scripts/route_sweep.py --grid reduced --out sweep.csv
    PYTHONPATH=src python scripts/route_sweep.py --reference old.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Callable, Iterable

from reltoa.classical import kappa_c
from reltoa.ior import ior_direct, ior_momentum, ior_series, momentum_split
from reltoa.numerics import (
    Estimate,
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
)
from reltoa.wavepacket import GaussianPacket

EXIT_OUTSIDE = 3
REFERENCE_SETTINGS = QuadratureSettings(rel_tol=1e-13)
ROUTES: dict[str, Callable[[GaussianPacket, float], Estimate]] = {
    "direct": ior_direct,
    "series": ior_series,
    "momentum": ior_momentum,
}
TYPED_ERRORS = (QuadratureError, SeriesDivergenceError)


def full_grid() -> list[tuple[float, float, float]]:
    """The (sigma, v0, k0) cells of the full grid, sigma-major."""
    k0s = [0.1 + i * (6.0 - 0.1) / 59 for i in range(60)]
    return [
        (sigma, v0, k0)
        for sigma in (0.5, 1.0, 1.5, 2.0, 3.0)
        for v0 in (0.1, 0.3, 0.6, 0.9, 0.99)
        for k0 in k0s
    ]


def reduced_grid() -> list[tuple[float, float, float]]:
    """The tier-1 test's cells: k0 on both sides of each v0's kappa_c."""
    return [
        (sigma, v0, ratio * kappa_c(v0))
        for sigma in (0.5, 2.0, 6.0)
        for v0 in (0.3, 0.99)
        for ratio in (0.5, 1.1, 2.0)
    ]


GRIDS = {"full": full_grid, "reduced": reduced_grid}


def sweep_cell(sigma: float, v0: float, k0: float, ref: Estimate | None = None) -> dict:
    """One row: the reference (computed where ref is None) and every route
    at (sigma, v0, k0)."""
    packet = GaussianPacket(q0=-40.0 * sigma, sigma=sigma, k0=k0)
    if ref is None:
        ref = momentum_split(packet, v0, settings=REFERENCE_SETTINGS)[0]
    row = {"sigma": sigma, "v0": v0, "k0": k0, "ref": ref.value, "ref_err": ref.err}
    for name, route in ROUTES.items():
        try:
            est = route(packet, v0)
        except TYPED_ERRORS as exc:
            row.update({name: type(exc).__name__, f"{name}_err": None, f"{name}_ratio": None})
            continue
        bound = est.err + ref.err
        gap = abs(est.value - ref.value)
        ratio = gap / bound if bound > 0.0 else (0.0 if gap == 0.0 else math.inf)
        row.update({name: est.value, f"{name}_err": est.err, f"{name}_ratio": ratio})
    return row


def outcome(row: dict, route: str) -> str:
    """'within', 'outside' (ratio above 1, or NaN) or the typed error's name."""
    ratio = row[f"{route}_ratio"]
    if ratio is None:
        return row[route]
    return "within" if ratio <= 1.0 else "outside"


def sweep(
    cells: Iterable[tuple[float, float, float]],
    reference: dict[tuple[float, float, float], Estimate] | None = None,
) -> list[dict]:
    return [sweep_cell(*cell, None if reference is None else reference[cell]) for cell in cells]


def read_reference(path: str) -> dict[tuple[float, float, float], Estimate]:
    """The ref and ref_err columns of a saved --out file, by (sigma, v0, k0)."""
    with open(path, newline="") as handle:
        return {
            (float(row["sigma"]), float(row["v0"]), float(row["k0"])):
                Estimate(float(row["ref"]), float(row["ref_err"]))
            for row in csv.DictReader(handle)
        }


def outcome_table(rows: list[dict]) -> list[str]:
    """Markdown lines: per route and sigma, the count of each outcome."""
    kinds = sorted({outcome(row, route) for row in rows for route in ROUTES})
    lines = ["| route | sigma | " + " | ".join(kinds) + " |",
             "|---|---|" + "---|" * len(kinds)]
    for route in ROUTES:
        for sigma in sorted({row["sigma"] for row in rows}):
            got = [outcome(row, route) for row in rows if row["sigma"] == sigma]
            counts = " | ".join(str(got.count(kind)) for kind in kinds)
            lines.append(f"| {route} | {sigma:g} | {counts} |")
    return lines


def _field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", choices=sorted(GRIDS), default="full")
    parser.add_argument("--out", help="CSV file (default: stdout)")
    parser.add_argument("--reference", metavar="CSV",
                        help="take the reference from this saved --out file")
    args = parser.parse_args()
    cells = GRIDS[args.grid]()
    reference = None
    if args.reference:
        reference = read_reference(args.reference)
        missing = [cell for cell in cells if cell not in reference]
        if missing:
            parser.error(f"{args.reference} has no row for {len(missing)} cells, "
                         f"the first (sigma, v0, k0) = {missing[0]}")
    rows = sweep(cells, reference)
    columns = ["sigma", "v0", "k0", "ref", "ref_err"] + [
        f"{name}{suffix}" for name in ROUTES for suffix in ("", "_err", "_ratio")
    ]
    lines = [columns] + [[_field(row[column]) for column in columns] for row in rows]
    if args.out:
        with open(args.out, "w", newline="") as out:
            csv.writer(out, lineterminator="\n").writerows(lines)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(lines)
    print("\n".join(outcome_table(rows)), file=sys.stderr)
    outside = any(outcome(row, route) == "outside" for row in rows for route in ROUTES)
    return EXIT_OUTSIDE if outside else 0


if __name__ == "__main__":
    sys.exit(main())
