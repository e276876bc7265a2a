"""Command-line front end: table reproduction, scans, dumps and check suites.

Subcommands: table1, table2, scan, density, kernel, limits, point.
All numeric output is CSV with a unit-annotated header, 12 significant
digits, and per-value method/error columns; byte-stable across runs for a
fixed configuration.  Exit codes: 0 success, 1 invalid configuration,
2 numerical non-convergence, 3 property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

from reltoa.classical import (
    ClassicallyForbiddenError,
    classical_toa_closed,
    crtoa_quadrature,
    kappa_c,
    qc_asymptotic,
    rc_asymptotic,
    rc_series_resummation,
)
from reltoa.kernels import (
    BarrierSpec,
    PhysicalParams,
    barrier_factor,
    free_factor,
    lorentzian_transform,
    momentum_kernel_f,
    momentum_kernel_g,
)
from reltoa.numerics import (
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
    hyp0f1_one,
)
from reltoa.wavepacket import GaussianPacket, momentum_density, phi_overlap
from reltoa.ior import (
    Luminality,
    ior_direct,
    ior_momentum,
    ior_series,
    momentum_split,
    qc_expectation,
    superluminal_classify,
    toa_difference,
    traversal_time,
)

UNAVAILABLE = "---"

# Published narrow-packet reference grid (sigma = 0.5): (k0, v0) plus which
# rows the source table leaves blank in the direct-integral column.
TABLE1_ROWS = [
    (2.00, 0.2, True),
    (2.00, 0.3, True),
    (2.00, 0.5, False),
    (2.00, 0.6, False),
    (0.90, 0.3, True),
    (3.00, 0.3, True),
    (5.00, 0.3, True),
    (0.15, 0.3, True),
    (0.20, 0.3, True),
    (0.25, 0.3, True),
]
TABLE1_SIGMA = 0.5
TABLE2_SIGMA = 9.0
TABLE2_V0 = 0.3
TABLE2_K0 = (0.19, 0.25, 0.28)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CHECK = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide configuration: units, tolerances, output target."""

    params: PhysicalParams
    settings: QuadratureSettings
    out: str | None


def fmt(x: float) -> str:
    return f"{x:.11e}"


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


_CONFIG_KEYS = (
    "mu", "c", "hbar", "rel_tol", "abs_tol", "max_subdivisions",
)


def _config_number(raw: dict[str, str], key: str, default: float, kind: type):
    """raw[key] parsed as kind (float or int), or default when the key is absent."""
    if key not in raw:
        return default
    try:
        return kind(raw[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {raw[key]!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, str] = {}
    if args.config:
        raw = _parse_config_file(args.config)
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    mu = _config_number(raw, "mu", 1.0, float)
    c = _config_number(raw, "c", 1.0, float)
    hbar = _config_number(raw, "hbar", 1.0, float)
    rel_tol = args.tol if args.tol is not None else _config_number(raw, "rel_tol", 1e-10, float)
    abs_tol = _config_number(raw, "abs_tol", 1e-14, float)
    max_sub = _config_number(raw, "max_subdivisions", 2000, int)
    params = PhysicalParams(mu=mu, c=c, hbar=hbar)
    settings = QuadratureSettings(
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_subdivisions=max_sub,
    )
    return RunConfig(params=params, settings=settings, out=args.out)


def _open_out(cfg: RunConfig):
    if cfg.out is None or cfg.out == "-":
        return sys.stdout, False
    return open(cfg.out, "w", newline="", encoding="utf-8"), True


def _emit(cfg: RunConfig, header: list[str], rows: list[list[str]]) -> None:
    fh, close = _open_out(cfg)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _grid(
    command: str, count_flag: str, count: int, lo_flag: str, lo: float, hi_flag: str, hi: float
) -> list[float]:
    """count evenly spaced points from lo to hi, checked against their flags.

    The points are np.linspace's, bit for bit: lo + i * step with the last
    set to hi, and lo + (i / (count - 1)) * (hi - lo) where the step
    underflows to 0.  A non-finite bound, or finite bounds whose span
    overflows a float, is rejected here: either would give NaN or infinite
    points, and the error would then name a value the user never gave.
    """
    if count < 2:
        raise ValueError(f"{command} needs {count_flag} >= 2")
    for flag, value in ((lo_flag, lo), (hi_flag, hi)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(
            f"{lo_flag} {lo} and {hi_flag} {hi} span more than the largest float"
        )
    step = span / (count - 1)
    points = [(i * step if step else i / (count - 1) * span) + lo for i in range(count)]
    points[-1] = hi
    return points


def _packet(sigma: float, k0: float, q0: float | None = None) -> GaussianPacket:
    # a far-left center keeps the no-leakage warning silent for scans
    center = q0 if q0 is not None else -max(50.0, 40.0 * sigma)
    return GaussianPacket(q0=center, sigma=sigma, k0=k0)


def cmd_table1(cfg: RunConfig, args: argparse.Namespace) -> int:
    header = [
        "k0 (1/length)",
        "v0 (energy)",
        "sigma (length)",
        "rc_integral (dimensionless)",
        "rc_integral_err (dimensionless)",
        "rc_series (dimensionless)",
        "rc_series_err (dimensionless)",
        "rc_momentum (dimensionless)",
        "rc_momentum_err (dimensionless)",
    ]
    rows = []
    for k0, v0, has_integral in TABLE1_ROWS:
        packet = _packet(TABLE1_SIGMA, k0)
        cells = [f"{k0:.2f}", f"{v0:.1f}", f"{TABLE1_SIGMA:.1f}"]
        if has_integral:
            cells += _safe_ior(lambda: ior_direct(packet, v0, cfg.params, cfg.settings))
        else:
            # the source table reports no direct-integral value on this row
            cells += [UNAVAILABLE, UNAVAILABLE]
        cells += _safe_ior(lambda: ior_series(packet, v0, cfg.params, cfg.settings))
        cells += _safe_ior(lambda: ior_momentum(packet, v0, cfg.params, cfg.settings))
        rows.append(cells)
    _emit(cfg, header, rows)
    return EXIT_OK


def _safe_ior(thunk) -> list[str]:
    # one failed cell must not abort the table; a value within its err of
    # zero is quadrature noise, whose digits would move with any change to
    # the rule, so it prints as unavailable beside its err
    try:
        res = thunk()
    except (QuadratureError, SeriesDivergenceError):
        return [UNAVAILABLE, UNAVAILABLE]
    value = UNAVAILABLE if abs(res.value) <= res.err else fmt(res.value)
    return [value, fmt(res.err)]


def cmd_table2(cfg: RunConfig, args: argparse.Namespace) -> int:
    header = [
        "k0 (1/length)",
        "v0 (energy)",
        "sigma (length)",
        "rc_integral (dimensionless)",
        "rc_integral_err (dimensionless)",
        "rc_momentum (dimensionless)",
        "rc_momentum_err (dimensionless)",
    ]
    rows = []
    for k0 in TABLE2_K0:
        packet = _packet(TABLE2_SIGMA, k0)
        cells = [f"{k0:.2f}", f"{TABLE2_V0:.1f}", f"{TABLE2_SIGMA:.1f}"]
        cells += _safe_ior(lambda: ior_direct(packet, TABLE2_V0, cfg.params, cfg.settings))
        cells += _safe_ior(lambda: ior_momentum(packet, TABLE2_V0, cfg.params, cfg.settings))
        rows.append(cells)
    _emit(cfg, header, rows)
    return EXIT_OK


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    k0_grid = _grid(
        "scan", "steps", args.steps, "--ko-min", args.ko_min, "--ko-max", args.ko_max
    )
    kc = kappa_c(args.vo, cfg.params)
    sigma_k = 0.5 / args.sigma
    header = [
        "k0 (1/length)",
        "rc_momentum (dimensionless)",
        "rc_momentum_err (dimensionless)",
        "kappa_c (1/length)",
        "kappa_c_minus_sigma_k (1/length)",
        "classification",
    ]
    rows = []
    for k0 in k0_grid:
        packet = _packet(args.sigma, k0)
        res = ior_momentum(packet, args.vo, cfg.params, cfg.settings)
        rows.append([fmt(k0), *map(fmt, res), fmt(kc), fmt(kc - sigma_k),
                     Luminality.of(res.value).value])
    _emit(cfg, header, rows)
    return EXIT_OK


def cmd_density(cfg: RunConfig, args: argparse.Namespace) -> int:
    kc = kappa_c(args.vo, cfg.params)
    packet = _packet(args.sigma, args.ko)
    k_lo = args.k_min if args.k_min is not None else 0.0
    k_hi = args.k_max if args.k_max is not None else max(
        args.ko + 6.0 / (2.0 * args.sigma), 1.2 * kc
    )
    k_grid = _grid("density", "grid", args.grid, "--k-min", k_lo, "--k-max", k_hi)
    header = [
        "k (1/length)",
        "density_plus (length)",
        "density_minus (length)",
        "kappa_c (1/length)",
    ]
    rows = []
    for k in k_grid:
        rows.append(
            [
                fmt(k),
                fmt(momentum_density(packet, k, +1)),
                fmt(momentum_density(packet, k, -1)),
                fmt(kc),
            ]
        )
    _emit(cfg, header, rows)
    return EXIT_OK


def cmd_kernel(cfg: RunConfig, args: argparse.Namespace) -> int:
    zeta_grid = _grid(
        "kernel", "grid", args.grid, "--zeta-min", args.zeta_min, "--zeta-max", args.zeta_max
    )
    header = [
        "zeta (length)",
        "t_free (dimensionless)",
        "t_free_err (dimensionless)",
        "t_barrier_minus (dimensionless)",
        "t_barrier_minus_err (dimensionless)",
        "t_barrier_plus (dimensionless)",
        "t_barrier_plus_err (dimensionless)",
    ]
    rows = []
    for z in zeta_grid:
        tf = free_factor(z, cfg.params)
        tm = barrier_factor(-args.vo, z, cfg.params)
        tp = barrier_factor(+args.vo, z, cfg.params)
        rows.append([fmt(x) for x in (z, *tf, *tm, *tp)])
    _emit(cfg, header, rows)
    return EXIT_OK


def cmd_point(cfg: RunConfig, args: argparse.Namespace) -> int:
    barrier = BarrierSpec(v0=args.vo, a=args.barrier_a, b=args.barrier_b)
    barrier.require_subcritical(cfg.params)
    q0 = args.qo if args.qo is not None else barrier.a - 20.0 * args.sigma
    packet = GaussianPacket(q0=q0, sigma=args.sigma, k0=args.ko)
    # first: it checks that the packet lies left of the barrier
    taus = traversal_time(packet, barrier, cfg.params, cfg.settings)

    header = ["quantity", "method", "value", "err", "unit"]
    rows: list[list[str]] = []

    def put(name: str, method: str, value: float, err: float, unit: str) -> None:
        rows.append([name, method, fmt(value), fmt(err), unit])

    put("t_c", "exact", barrier.length / cfg.params.c, 0.0, "time")
    put("kappa_c", "closed", kappa_c(args.vo, cfg.params), 0.0, "1/length")
    rcs = momentum_split(packet, args.vo, cfg.params, cfg.settings)
    for name, rc in zip(("rc", "rc_plus", "rc_minus"), rcs):
        put(name, "momentum", *rc, "dimensionless")
    rows.append(["rc", "direct"]
                + _safe_ior(lambda: ior_direct(packet, args.vo, cfg.params, cfg.settings))
                + ["dimensionless"])
    rows.append(["rc", "series"]
                + _safe_ior(lambda: ior_series(packet, args.vo, cfg.params, cfg.settings))
                + ["dimensionless"])
    put("qc", "direct", *qc_expectation(packet, cfg.params), "dimensionless")
    for name, tau in zip(("tau_trav", "tau_plus", "tau_minus"), taus):
        put(name, "momentum", *tau, "time")
    rows.append(["toa_difference", "direct"]
                + _safe_ior(lambda: toa_difference(packet, barrier, cfg.params, cfg.settings))
                + ["time"])
    label, margin = superluminal_classify(packet, args.vo, cfg.params, cfg.settings)
    rows.append(["classification", "momentum", label.value, fmt(margin), "margin: 1/length"])
    _emit(cfg, header, rows)
    return EXIT_OK


def limit_checks(params: PhysicalParams):
    """Yield (name, residual, threshold) for every limit/oracle property.

    The one table of the paper's limits: `reltoa limits` prints it, and the
    acceptance gate (tests/test_acceptance.py) reads its rows in natural
    units.  Each row is stated in natural units and scaled to params:
    energies by mu c^2, lengths by hbar/(mu c), momenta by mu c,
    wavenumbers by mu c/hbar, and time residuals are divided by
    hbar/(mu c^2).  So every residual is dimensionless, every row holds in
    any unit system, and in natural units every scale factor is 1.0.  The
    nonrelativistic limit raises c from the configured c, keeping the
    scaled v0 and zeta, toward 0F1(;1; -mu v0 zeta^2/(2 hbar^2)).  No row
    reads a quadrature setting: every kernel, the branch transform and Q_c
    take none, so each row passes whatever tolerances a config sets.
    """
    energy = params.rest_energy
    length = params.hbar / (params.mu * params.c)
    momentum = params.mu * params.c
    wavenumber = momentum / params.hbar
    time = length / params.c

    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        # int_1^inf sqrt(z^2-1)/z x/(z^2 + x) dz, x = (a/b)^2, by the
        # branch rule at G_B = 1, which carries a factor 2/pi
        val = 0.5 * math.pi * lorentzian_transform(0.0, (a / b) ** 2).value
        ref = 0.5 * math.pi * (-1.0 + math.sqrt(1.0 + (a / b) ** 2))
        yield f"residue identity (a={a}, b={b})", abs(val - ref), 1e-8

    for v0 in (0.1, 0.3, 0.99):
        kc = kappa_c(v0 * energy, params)
        lhs = (params.hbar * kc * params.c) ** 2 + energy**2
        rhs = (energy + v0 * energy) ** 2
        yield f"kappa_c threshold identity (v0={v0})", abs(lhs - rhs) / rhs, 1e-14

    for zeta in (0.1, 1.0, 10.0):
        tb = barrier_factor(0.0, zeta * length, params).value
        tf = free_factor(zeta * length, params).value
        yield f"zero-height kernel (zeta={zeta})", abs(tb - tf) / abs(tf), 1e-9

    for zeta in (0.1, 1.0, 10.0):
        combo = (momentum_kernel_f(0, 0, zeta * length, params)
                 + momentum_kernel_g(0, 0, zeta * length, params))
        tf = free_factor(zeta * length, params).value
        yield f"f00+g00 vs free factor (zeta={zeta})", abs(combo - tf) / abs(tf), 1e-9

    for v0, zeta in ((0.3, 1.0), (0.5, 0.5)):
        vo, z = v0 * energy, zeta * length
        ref = hyp0f1_one(-params.mu * vo * z * z / (2.0 * params.hbar**2))
        errs = []
        for c_val in (1e2, 1e3, 1e4):
            pp = PhysicalParams(mu=params.mu, c=c_val * params.c, hbar=params.hbar)
            errs.append(abs(barrier_factor(-vo, z, pp).value - ref))
        monotone = 0.0 if errs[0] > errs[1] > errs[2] else 1.0
        yield f"nonrelativistic kernel limit (v0={v0}, zeta={zeta})", monotone, 0.5
        yield f"free factor -> 1 (zeta={zeta}, c=1e4)", abs(free_factor(z, pp).value - 1.0), 1e-8

    target = rc_asymptotic(2.0 * momentum, 0.3 * energy, params)
    val = rc_series_resummation(2.0 * momentum, 0.3 * energy, 12, params)
    yield "refraction-index resummation (p0=2, v0=0.3, j_max=12)", abs(val - target), 1e-6

    barrier = BarrierSpec(v0=0.3 * energy, a=-2.0 * length, b=-1.0 * length)
    for region, q0, p0 in (("I", -0.5, 1.0), ("II", -1.5, 1.0), ("III", -5.0, 2.0)):
        quad = crtoa_quadrature(q0 * length, p0 * momentum, barrier, params)
        closed = classical_toa_closed(region, q0 * length, p0 * momentum, barrier, params)
        yield f"classical arrival time region {region}", abs(quad - closed) / time, 1e-8

    packet = GaussianPacket(q0=-3.0 * length, sigma=0.5 * length, k0=2.0 * wavenumber)
    amp = (0.5 * math.sqrt(2.0 * math.pi)) ** -0.5
    h = 32.0 / 400
    nodes = [i * h - 16.0 for i in range(401)]
    for zeta in (0.5, 1.0, 5.0):
        # trapezoid rule on [-16, 16] in natural units: the Gaussian product
        # decays far inside both ends, so the rule's error is its
        # summation's rounding
        vals = [
            amp * math.exp(-((z + 3.0 - 0.5 * zeta) ** 2) / (4.0 * 0.25))
            * amp * math.exp(-((z + 3.0 + 0.5 * zeta) ** 2) / (4.0 * 0.25))
            for z in nodes
        ]
        overlap = h * (math.fsum(vals) - 0.5 * (vals[0] + vals[-1]))
        yield (
            f"overlap closed form vs quadrature (zeta={zeta})",
            abs(phi_overlap(packet, zeta * length) - overlap),
            1e-10,
        )

    wide = GaussianPacket(q0=-300.0 * length, sigma=6.0 * length, k0=2.0 * wavenumber)
    qc = qc_expectation(wide, params).value
    asymptote = qc_asymptotic(2.0 * momentum, params)
    yield "free-flight factor vs asymptote (sigma=6, k0=2)", abs(qc - asymptote) / asymptote, 1e-2


def cmd_limits(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Print each row of limit_checks in the configured units, PASS where its
    residual is within its threshold; exit 3 if any row fails."""
    failures = 0
    for name, residual, threshold in limit_checks(cfg.params):
        ok = residual <= threshold
        if not ok:
            failures += 1
        print(
            f"{'PASS' if ok else 'FAIL'}  {name}: residual={residual:.3e} "
            f"(threshold {threshold:.1e})"
        )
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reltoa",
        description=(
            "Relativistic arrival-time kernels and barrier traversal times "
            "for spin-0 Gaussian wavepackets"
        ),
    )
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", help="output CSV path (default stdout)")
    parser.add_argument("--tol", type=float, help="relative quadrature tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="narrow-packet refraction index by all three methods")
    sub.add_parser("table2", help="wide-packet (instantaneous tunneling) values")

    p_scan = sub.add_parser("scan", help="refraction index over a k0 grid")
    p_scan.add_argument("--vo", type=float, required=True)
    p_scan.add_argument("--sigma", type=float, required=True)
    p_scan.add_argument("--ko-min", type=float, default=0.1)
    p_scan.add_argument("--ko-max", type=float, default=6.0)
    p_scan.add_argument("--steps", type=int, default=60)

    p_dens = sub.add_parser("density", help="momentum density with the kappa_c marker")
    p_dens.add_argument("--vo", type=float, required=True)
    p_dens.add_argument("--sigma", type=float, required=True)
    p_dens.add_argument("--ko", type=float, required=True)
    p_dens.add_argument("--grid", type=int, default=200)
    p_dens.add_argument("--k-min", type=float)
    p_dens.add_argument("--k-max", type=float)

    p_kern = sub.add_parser("kernel", help="tabulate T_F and T_B(+-v0)")
    p_kern.add_argument("--vo", type=float, required=True)
    p_kern.add_argument("--zeta-min", type=float, default=0.1)
    p_kern.add_argument("--zeta-max", type=float, default=10.0)
    p_kern.add_argument("--grid", type=int, default=100)

    sub.add_parser("limits", help="run the limit/oracle property suite")

    p_point = sub.add_parser("point", help="all payload quantities for one setup")
    p_point.add_argument("--vo", type=float, required=True)
    p_point.add_argument("--sigma", type=float, required=True)
    p_point.add_argument("--ko", type=float, required=True)
    p_point.add_argument("--qo", type=float)
    p_point.add_argument("--barrier-a", type=float, default=-2.0)
    p_point.add_argument("--barrier-b", type=float, default=-1.0)

    return parser


_COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "scan": cmd_scan,
    "density": cmd_density,
    "kernel": cmd_kernel,
    "limits": cmd_limits,
    "point": cmd_point,
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args)
    except (ValueError, ClassicallyForbiddenError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, SeriesDivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
