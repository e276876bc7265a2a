"""Regenerate perfbench/refs.json, the reference values every benchmark cell
is checked against.

    python3 perfbench/make_refs.py            # about 70 s on one core

Needs scipy (the package's test extra) and mpmath.  The references come
from perfbench/oracles.py, which does not use the library's quadrature or
residue-series code; the library is imported only to cross-check the
momentum references against ior_momentum at a tight tolerance.  Every
cross-check below must hold or the script stops without writing.

The benchmark draws its seeded inputs from the pools written here:

* narrow_table   -- Table 1 of the paper, the v0 = 0.3 rows at sigma = 0.5,
                    with the published 5-digit values;
* wide_packets   -- R_c at workloads.WIDE_K0 (sigma = 9, v0 = 0.1), and
                    zeta on a 0.2 grid over (0, 160] for T_F, T_B(-0.1)
                    and T_B(+0.1);
* momentum_sweep -- cells (v0, sigma, k0) drawn once from a fixed seed,
                    with the region-III classical arrival time where
                    k0 > kappa_c.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from workloads import WIDE_K0  # noqa: E402

# published narrow-packet values (sigma = 0.5, v0 = 0.3):
# k0, direct integral, series, momentum
TABLE1_V03 = [
    (2.00, 1.38141, 1.38141, 1.38141),
    (0.90, 0.99882, 0.99888, 0.99888),
    (3.00, 1.24812, 1.24812, 1.24811),
    (5.00, 1.09394, 1.09394, 1.09393),
    (0.15, 0.18996, 0.18996, 0.18996),
    (0.20, 0.25253, 0.25253, 0.25253),
    (0.25, 0.31446, 0.31446, 0.31446),
]
WIDE_SIGMA = 9.0
WIDE_V0 = 0.1
ZETA = [round(0.2 * j, 1) for j in range(1, 801)]
SWEEP_POOL = 3000
SWEEP_SIGMAS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0)
BARRIER_A, BARRIER_B = -21.0, -20.0
HIGHDIGIT_COUNT = 300
HIGHDIGIT_DPS = 90
# agreement the cross-checks below demand of the oracles
ORACLE_AGREE = 1e-12


def sweep_pool() -> list[tuple[float, float, float]]:
    rng = random.Random(20221201)
    return [
        (
            round(rng.uniform(0.05, 0.99), 6),
            rng.choice(SWEEP_SIGMAS),
            round(rng.uniform(0.1, 6.0), 6),
        )
        for _ in range(SWEEP_POOL)
    ]


def classical_start(sigma: float) -> float:
    """Launch point of the classical pair: 20 sigma left of the barrier."""
    return BARRIER_A - 20.0 * sigma


def _check(name: str, worst: float, limit: float) -> None:
    print(f"  {name}: max deviation {worst:.2e} (limit {limit:.0e})", flush=True)
    if not worst <= limit:
        raise SystemExit(f"cross-check failed: {name}")


def main() -> None:
    from reltoa import GaussianPacket, QuadratureError, QuadratureSettings, ior_momentum

    warnings.simplefilter("ignore")  # QUADPACK chatter; cross-checks decide
    # tighter than the library's 1e-10 default, but not so tight that its
    # engine runs out of subdivisions (1e-12 does on some wide packets)
    tight = QuadratureSettings(rel_tol=1e-11, max_subdivisions=20000)

    def rc_ref(v0: float, sigma: float, k0: float) -> float:
        ref = oracles.momentum_rc(v0, sigma, k0)
        try:
            lib = ior_momentum(GaussianPacket(-100.0, sigma, k0), v0, settings=tight).value
        except QuadratureError:
            unchecked.append((v0, sigma, k0))
            return ref
        worst[0] = max(worst[0], abs(ref - lib) / max(1.0, abs(ref)))
        return ref

    t0 = time.perf_counter()
    worst = [0.0]
    unchecked: list = []
    narrow = [
        {"k0": k0, "v0": 0.3, "sigma": 0.5, "rc": rc_ref(0.3, 0.5, k0),
         "published": {"direct": d, "series": s, "momentum": m}}
        for k0, d, s, m in TABLE1_V03
    ]
    wide_rc = [rc_ref(WIDE_V0, WIDE_SIGMA, k0) for k0 in WIDE_K0]
    pool = sweep_pool()
    sweep = []
    for v0, sigma, k0 in pool:
        classical = None
        if k0 > oracles.kappa(v0):
            classical = oracles.classical_region3(
                classical_start(sigma), k0, v0, BARRIER_A, BARRIER_B
            )
        sweep.append([v0, sigma, k0, rc_ref(v0, sigma, k0), classical])
    _check("momentum oracle vs ior_momentum(rel_tol=1e-11)", worst[0], 1e-10)
    print(f"  cells the tight library run could not cross-check: {unchecked}")
    print(f"R_c references done in {time.perf_counter() - t0:.0f}s", flush=True)

    t_free = [oracles.spectral_kernel(0.0, z) for z in ZETA]
    _check(
        "spectral T_F vs K_1 form",
        max(abs(a - oracles.free_factor_bessel(z)) for a, z in zip(t_free, ZETA)),
        ORACLE_AGREE,
    )
    t_minus = [oracles.spectral_kernel(WIDE_V0, z) for z in ZETA]
    print(f"spectral references done in {time.perf_counter() - t0:.0f}s", flush=True)

    coeffs_plus = oracles.residue_coeffs(+WIDE_V0, HIGHDIGIT_COUNT, HIGHDIGIT_DPS)
    t_plus = oracles.barrier_factor_highdigit(+WIDE_V0, ZETA, coeffs_plus, HIGHDIGIT_DPS)
    coeffs_minus = oracles.residue_coeffs(-WIDE_V0, HIGHDIGIT_COUNT, HIGHDIGIT_DPS)
    probe = [0.2, 1.0, 5.0, 20.0, 50.0, 100.0, 110.0, 140.0, 160.0]
    probe_vals = oracles.barrier_factor_highdigit(-WIDE_V0, probe, coeffs_minus, HIGHDIGIT_DPS)
    _check(
        "spectral T_B(-0.1) vs high-digit residue series",
        max(abs(oracles.spectral_kernel(WIDE_V0, z) - h) for z, h in zip(probe, probe_vals)),
        ORACLE_AGREE,
    )
    print(f"high-digit references done in {time.perf_counter() - t0:.0f}s", flush=True)

    out = {
        "units": "natural (mu = c = hbar = 1)",
        "narrow_table": narrow,
        "wide_packets": {
            "sigma": WIDE_SIGMA,
            "v0": WIDE_V0,
            "k0": list(WIDE_K0),
            "rc": wide_rc,
            "zeta": ZETA,
            "t_free": t_free,
            "t_barrier_minus": t_minus,
            "t_barrier_plus": t_plus,
        },
        "momentum_sweep": {
            "barrier": [BARRIER_A, BARRIER_B],
            "columns": ["v0", "sigma", "k0", "rc", "t_classical"],
            "cells": sweep,
        },
    }
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote refs.json in {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
