"""Quadrature engines and special functions used by the physics modules.

Everything here is deterministic and pure: identical inputs and settings
produce bit-identical outputs.  The semi-infinite integrators map onto a
finite interval with z = lower + t/(1-t) and refine adaptively with an
embedded Gauss-Kronrod (G7, K15) pair; the oscillatory sine transform sums
panels between successive zeros of sin(k*zeta) with Euler acceleration for
slowly decaying envelopes.

Every pass forms its weighted G7/K15 sums in _gk_sum, in one order.  A
HalfLineTable holds g(z) for the Laplace integrals int_1^inf g(z)
exp(-decay z) dz, and each bisected segment's 15 nodes; integrate_half_line
runs _adaptive_gk with a rule that reads them, so it returns
integrate_semiinf_exp(g, 1.0, decay) bit for bit while computing only the
exponentials per integral.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

# mpmath's working precision is process-global state; every arbitrary-
# precision block in the package takes this lock so concurrent callers
# cannot corrupt one another's precision context
MP_LOCK = threading.RLock()

__all__ = [
    "Estimate",
    "QuadratureSettings",
    "DEFAULT_SETTINGS",
    "QuadratureError",
    "SeriesDivergenceError",
    "hyp0f1_one",
    "hyp2f1_integral",
    "csgn",
    "gen_binomial",
    "faddeeva",
    "FADDEEVA_IM_REL_ERR",
    "integrate_semiinf_exp",
    "HalfLineTable",
    "integrate_half_line",
    "sine_transform_decaying",
    "integrate_sqrt_endpoint",
]


class QuadratureError(RuntimeError):
    """Requested tolerance could not be met (subdivision/panel cap hit)."""


class SeriesDivergenceError(RuntimeError):
    """A series evaluation left its convergence regime."""


@dataclass(frozen=True)
class Estimate:
    """A computed number and its error estimate: every kernel and R_c result."""

    value: float
    err: float


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and resource caps shared by all numerical operations.

    rel_tol / abs_tol are the target relative tolerance and absolute floor;
    max_subdivisions caps adaptive refinement per integral (the oscillatory
    transform may use up to 16x that many half-period panels);
    max_series_terms caps every power-series summation.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    max_series_terms: int = 600

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.max_series_terms < 1:
            raise ValueError("max_series_terms must be >= 1")


DEFAULT_SETTINGS = QuadratureSettings()

# below this exponent exp() underflows: the half-line map's nodes give 0.0
_LOG_TINY = math.log(2.2e-308)


# 15-point Kronrod extension of 7-point Gauss-Legendre (QUADPACK constants).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


_WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = _WGK
_WG2, _WG4, _WG6 = _WG
_X1, _X2, _X3, _X4, _X5, _X6, _X7 = _XGK


def _gk_sum(fv, half: float) -> tuple[float, float]:
    """The weighted G7/K15 sums of one pass: (kronrod_value, error_estimate).

    fv holds the 15 integrand values in node order: the center, then the
    pair center -/+ half * _XGK[i] for i = 0..6.  Every pass, generic or
    tabulated, goes through this one summation order.
    """
    fc, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7 = fv
    p2 = l2 + r2
    p4 = l4 + r4
    p6 = l6 + r6
    res_k = (
        _WGK_CENTER * fc + _WK1 * (l1 + r1) + _WK2 * p2 + _WK3 * (l3 + r3)
        + _WK4 * p4 + _WK5 * (l5 + r5) + _WK6 * p6 + _WK7 * (l7 + r7)
    )
    res_g = _WG_CENTER * fc + _WG2 * p2 + _WG4 * p4 + _WG6 * p6
    return res_k * half, abs(res_k - res_g) * abs(half)


def _gk_nodes(a: float, b: float) -> tuple[float, ...]:
    """The 15 nodes of a pass over [a, b], in _gk_sum's order."""
    c = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = [c]
    for x in _XGK:
        dx = half * x
        nodes += (c - dx, c + dx)
    return tuple(nodes)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod (7, 15) pass over [a, b].

    Returns (kronrod_value, error_estimate, max_abs_integrand).
    """
    # the nodes are written out: this is the innermost loop of every
    # generic integral
    c = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d1, d2, d3, d4 = half * _X1, half * _X2, half * _X3, half * _X4
    d5, d6, d7 = half * _X5, half * _X6, half * _X7
    fv = (
        f(c), f(c - d1), f(c + d1), f(c - d2), f(c + d2), f(c - d3), f(c + d3),
        f(c - d4), f(c + d4), f(c - d5), f(c + d5), f(c - d6), f(c + d6),
        f(c - d7), f(c + d7),
    )
    val, err = _gk_sum(fv, half)
    return val, err, max(map(abs, fv))


def _adaptive_gk(
    f,
    a: float,
    b: float,
    settings: QuadratureSettings,
    seeds: tuple[float, ...] = (),
    rule=_gk15,
) -> tuple[float, float, float]:
    """Globally adaptive bisection on [a, b] with the embedded G7/K15 pair.

    `seeds` lists interior breakpoints that receive their own initial
    segments; callers use them to mark narrow features (sharp peaks) the
    15-point opening pass would otherwise step over.  `rule(f, a, b)` makes
    one pass over a segment: _gk15 calls the integrand f at its nodes, and a
    HalfLineTable's rule reads tabulated nodes, with f the negated decay.
    Returns (value, error_estimate, max_abs_integrand); raises
    QuadratureError when max_subdivisions segments cannot reach
    max(abs_tol, rel_tol * |value|).
    """
    points = [a, b]
    for s_pt in seeds:
        if a < s_pt < b:
            points.append(s_pt)
    points = sorted(set(points))
    heap = []
    total_val = 0.0
    total_err = 0.0
    fmax = 0.0
    counter = 0
    # heap entries: (-err, insertion_id, a, b, val, err); id breaks ties
    for sa, sb in zip(points, points[1:]):
        val, err, fm = rule(f, sa, sb)
        heap.append((-err, counter, sa, sb, val, err))
        counter += 1
        total_val += val
        total_err += err
        fmax = max(fmax, fm)
    heapq.heapify(heap)
    width_floor = 0.5 ** 45 * max(abs(a), abs(b), 1.0)
    while total_err > max(settings.abs_tol, settings.rel_tol * abs(total_val)):
        if counter >= settings.max_subdivisions:
            raise QuadratureError(
                f"tolerance not met within {settings.max_subdivisions} subdivisions "
                f"(err={total_err:.3e}, value={total_val:.6e})"
            )
        neg_err, _, sa, sb, sval, serr = heapq.heappop(heap)
        if -neg_err <= 0.0 or (sb - sa) < width_floor:
            # worst segment is unimprovable; accept the current estimate
            heapq.heappush(heap, (0.0, counter, sa, sb, sval, serr))
            break
        mid = 0.5 * (sa + sb)
        v1, e1, m1 = rule(f, sa, mid)
        v2, e2, m2 = rule(f, mid, sb)
        fmax = max(fmax, m1, m2)
        total_val += (v1 + v2) - sval
        total_err += (e1 + e2) - serr
        heapq.heappush(heap, (-e1, counter, sa, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, sb, v2, e2))
        counter += 1
    return total_val, total_err, fmax


def hyp0f1_one(x: float, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Confluent limit function 0F1(;1;x) = sum_m x^m / (m!)^2.

    Converges for every finite x; for x < 0 it oscillates like a Bessel
    function of the first kind, which costs cancellation.  When the largest
    partial term exceeds what double precision can cancel, the sum is
    repeated in arbitrary precision so the contract relative error
    <= rel_tol holds on |x| <= 100 and beyond.
    """
    if not math.isfinite(x):
        raise ValueError("hyp0f1_one requires finite x")
    value, max_term, converged = _hyp0f1_float(x, settings)
    if converged and max_term <= 1e4 * max(abs(value), 1e-30):
        return value
    # cancellation ate the float result: redo with enough guard digits
    digits = int(math.log10(max_term + 1.0)) + 25
    with MP_LOCK, mp.workdps(max(digits, 30)):
        term = mp.mpf(1)
        total = mp.mpf(1)
        xm = mp.mpf(x)
        small = 0
        for m in range(1, settings.max_series_terms + 1):
            term = term * xm / (m * m)
            total += term
            if abs(term) <= settings.rel_tol * abs(total):
                small += 1
                if small >= 3:
                    return float(total)
            else:
                small = 0
    raise SeriesDivergenceError("hyp0f1_one did not converge within max_series_terms")


def _hyp0f1_float(x: float, settings: QuadratureSettings) -> tuple[float, float, bool]:
    # Kahan-compensated partial summation; reports the peak term magnitude
    # so the caller can judge cancellation.
    total = 1.0
    comp = 0.0
    term = 1.0
    max_term = 1.0
    small = 0
    for m in range(1, settings.max_series_terms + 1):
        term = term * x / (m * m)
        t = abs(term)
        if t > max_term:
            max_term = t
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if t <= settings.rel_tol * abs(total) + settings.abs_tol:
            small += 1
            if small >= 3:
                return total, max_term, True
        else:
            small = 0
    return total, max_term, False


def hyp2f1_integral(
    a: float,
    b: float,
    c: float,
    z: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Gauss hypergeometric 2F1(a,b;c;z) by its real-line integral form.

    Uses Gamma(c)/(Gamma(b) Gamma(c-b)) * int_0^inf t^(c-b-1) (1+t)^(a-c)
    (t + 1 - z)^(-a) dt, valid for c > b > 0; only z <= 0 is accepted, which
    is the regime the resummation of the effective refraction index needs.
    """
    if not (c > b > 0.0):
        raise ValueError("hyp2f1_integral requires c > b > 0")
    if z > 0.0:
        raise ValueError("hyp2f1_integral requires z <= 0")
    if z == 0.0:
        return 1.0
    prefac = math.gamma(c) / (math.gamma(b) * math.gamma(c - b))
    one_minus_z = 1.0 - z

    def core(t: float) -> float:
        return t ** (c - b - 1.0) * (1.0 + t) ** (a - c) * (t + one_minus_z) ** (-a)

    # split at t = 1; both endpoint powers (t^(c-b-1) at 0, the s^(b-1)
    # tail after t = 1/s) are flattened by power substitutions so the
    # mapped integrands vanish or stay bounded at the interval ends
    kap0 = 1.0 if c - b >= 1.0 else 2.0 / (c - b)

    def piece_low(w: float) -> float:
        t = w**kap0
        if t <= 0.0:
            return 0.0
        return core(t) * kap0 * w ** (kap0 - 1.0)

    kap1 = 1.0 if b >= 1.0 else 2.0 / b

    def piece_high(w: float) -> float:
        s = w**kap1
        if s <= 0.0:
            return 0.0
        return core(1.0 / s) / (s * s) * kap1 * w ** (kap1 - 1.0)

    v_low, _e0, _ = _adaptive_gk(piece_low, 0.0, 1.0, settings)
    v_high, _e1, _ = _adaptive_gk(piece_high, 0.0, 1.0, settings)
    return prefac * (v_low + v_high)


def csgn(z: complex) -> int:
    """Complex signum: sign of Re z, falling back to sign of Im z on the axis."""
    if z == 0:
        raise ValueError("csgn undefined at 0")
    if z.real > 0.0:
        return 1
    if z.real < 0.0:
        return -1
    return 1 if z.imag > 0.0 else -1


def gen_binomial(alpha: float, n: int) -> float:
    """Generalized binomial coefficient C(alpha, n) = prod_{i<n}(alpha-i)/n!."""
    if n < 0:
        raise ValueError("gen_binomial requires n >= 0")
    out = 1.0
    for i in range(n):
        out *= (alpha - i) / (i + 1)
    return out


def _weideman_coeffs(n: int) -> tuple[float, tuple[float, ...]]:
    # Weideman (1994), SIAM J. Numer. Anal. 31:1497: the coefficients a_1..a_n
    # of w in powers of Z = (L + iz)/(L - iz) are the discrete cosine
    # transform of f(t) = exp(-t^2) (L^2 + t^2), sampled at t = L tan(theta/2)
    # on theta = pi k / 2n, |k| < 2n; f is even in k
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    f = []
    for k in range(m):
        t = scale * math.tan(0.5 * math.pi * k / m)
        f.append(math.exp(-t * t) * (scale * scale + t * t))
    coeffs = [
        (f[0] + 2.0 * math.fsum(f[k] * math.cos(math.pi * k * j / m) for k in range(1, m)))
        / (2 * m)
        for j in range(1, n + 1)
    ]
    return scale, tuple(reversed(coeffs))  # a_n first, for Horner


_W_SCALE, _W_COEFFS = _weideman_coeffs(36)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# relative error bound of faddeeva(z).imag on the arguments the package
# forms, checked against mpmath at 30 digits in tests/test_numerics.py
FADDEEVA_IM_REL_ERR = 1e-12


def faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's rational expansion with 36 terms: w = 2 p(Z)/(L - iz)^2
    + 1/(sqrt(pi) (L - iz)), p a polynomial in Z = (L + iz)/(L - iz).
    """
    if not z.imag >= 0.0:
        raise ValueError(f"faddeeva requires Im z >= 0, got {z}")
    lz = _W_SCALE - 1j * z
    big_z = (_W_SCALE + 1j * z) / lz
    p = 0j
    for a in _W_COEFFS:
        p = p * big_z + a
    return 2.0 * p / (lz * lz) + _INV_SQRT_PI / lz


def integrate_semiinf_exp(
    f: Callable[[float], float],
    lower: float,
    decay: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    seeds: tuple[float, ...] = (),
) -> tuple[float, float]:
    """Integral of f(z) * exp(-decay * z) over [lower, inf).

    The substitution z = lower + t/(1-t) maps the half line onto [0, 1);
    the exponential envelope keeps the mapped integrand bounded.  decay = 0
    is accepted for integrands that decay at least like z^-2 on their own
    (the residue-identity check needs this), in which case the same map
    handles the algebraic tail directly.  `seeds` marks z-locations of
    narrow features so the opening adaptive pass cannot miss them.
    """
    if decay < 0.0:
        raise ValueError("decay must be >= 0")

    def mapped(t: float) -> float:
        onemt = 1.0 - t
        z = lower + t / onemt
        expo = -decay * z
        if expo < _LOG_TINY:
            return 0.0
        return f(z) * math.exp(expo) / (onemt * onemt)

    t_seeds = tuple(
        (z - lower) / (1.0 + (z - lower)) for z in seeds if z > lower
    )
    val, err, _ = _adaptive_gk(mapped, 0.0, 1.0, settings, t_seeds)
    return val, err


class HalfLineTable(dict):
    """g(z) at the nodes of the half-line Laplace integrals over z >= 1.

    Indexing computes and stores g on a miss; a hit is a plain dict lookup,
    so ``table.__getitem__`` serves as an integrand.  Every such integral
    bisects [0, 1] in t = (z - 1)/z along the same dyadic tree, so
    ``segments`` also keeps, per G7/K15 segment (a, b) in t, its 15 nodes as
    (z, g(z), (1 - t)^2) in pass order; integrate_half_line then computes
    only exp(-decay * z) and the sums.  Entries are pure functions of z, so
    threads that fill a table in any order store the same floats.
    """

    __slots__ = ("g", "segments")

    def __init__(self, g: Callable[[float], float]) -> None:
        super().__init__()
        self.g = g
        self.segments: dict[tuple[float, float], tuple] = {}

    def __missing__(self, z: float) -> float:
        value = self.g(z)
        self[z] = value
        return value

    def _segment(self, a: float, b: float) -> tuple:
        nodes = []
        for t in _gk_nodes(a, b):
            # integrate_semiinf_exp's map at lower = 1, in its operations
            onemt = 1.0 - t
            z = 1.0 + t / onemt
            nodes.append((z, self[z], onemt * onemt))
        seg = self.segments[(a, b)] = tuple(nodes)
        return seg

    def _laplace_pass(self, neg_decay: float, a: float, b: float) -> tuple[float, float, float]:
        # one G7/K15 pass of mapped() at the tabulated nodes, with mapped's
        # operations and underflow cut; the max integrand is left at 0.0
        # because integrate_half_line discards it
        seg = self.segments.get((a, b)) or self._segment(a, b)
        fv = [
            0.0 if (expo := neg_decay * z) < _LOG_TINY else g * math.exp(expo) / w
            for z, g, w in seg
        ]
        val, err = _gk_sum(fv, 0.5 * (b - a))
        return val, err, 0.0


def integrate_half_line(
    table: HalfLineTable,
    decay: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[float, float]:
    """Integral of table.g(z) * exp(-decay * z) over [1, inf), from the table.

    Bit for bit integrate_semiinf_exp(table.g, 1.0, decay, settings):
    _adaptive_gk bisects the same segments with the same per-node operations
    and the same summation, but each segment's nodes and g values are
    computed once per table instead of once per integral.
    """
    if decay < 0.0:
        raise ValueError("decay must be >= 0")
    val, err, _ = _adaptive_gk(-decay, 0.0, 1.0, settings, rule=table._laplace_pass)
    return val, err


def sine_transform_decaying(
    f: Callable[[float], float],
    k: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[float, float]:
    """Integral of sin(k*zeta) * f(zeta) over [0, inf) for decaying f.

    Integrates panel by panel between the zeros of sin(k*zeta), stopping
    once the envelope stays below abs_tol.  f may behave like C/zeta at the
    origin (the sine factor regularizes the product) but must decay overall;
    panels whose magnitudes stop shrinking raise QuadratureError.  When the
    panel series decays slowly, Euler averaging of the alternating partial
    sums supplies the tail.
    """
    if k <= 0.0:
        raise ValueError("sine_transform_decaying requires k > 0")
    period = math.pi / k
    max_panels = max(64, 16 * settings.max_subdivisions)
    panel_tol = 0.1 * settings.abs_tol

    def integrand(z: float) -> float:
        s = math.sin(k * z)
        if s == 0.0:
            return 0.0
        return s * f(z)

    total = 0.0
    err = 0.0
    panels: list[float] = []
    partials: list[float] = []
    small = 0
    peak_mag = 0.0
    peak_at = 0
    for n in range(max_panels):
        a = n * period
        b = (n + 1) * period
        v, e, fmax = _adaptive_gk(integrand, a, b, settings)
        total += v
        err += e
        panels.append(v)
        partials.append(total)
        if abs(v) > peak_mag:
            peak_mag = abs(v)
            peak_at = n
        if fmax * period < panel_tol and abs(v) < panel_tol:
            small += 1
            if small >= 3:
                return total, err
        else:
            small = 0
        if n >= 64 and n % 16 == 0:
            window = [abs(p) for p in panels[-48:]]
            w_hi, w_lo = max(window), min(window)
            # flat magnitudes long after their peak mean the envelope is not
            # decaying (legitimate humps keep their maximum recent)
            if (
                n - peak_at >= 96
                and w_lo > 1e3 * panel_tol
                and w_hi < 1.1 * w_lo
            ):
                raise QuadratureError(
                    "sine transform: panel magnitudes are not shrinking "
                    f"(|panel|~{w_hi:.3e} after {n + 1} panels)"
                )
            # alternating, slowly decaying tails are summed by Euler
            # acceleration once enough panels establish the pattern
            if n >= 512 and w_hi < max(abs(p) for p in panels[-96:-48]):
                if _alternating(panels):
                    acc = _euler_accelerate(partials)
                    tail = abs(acc - total) + 1e-3 * abs(panels[-1])
                    if tail < 1e3 * max(settings.abs_tol, settings.rel_tol * abs(acc)):
                        return acc, err + tail
    if _alternating(panels):
        acc = _euler_accelerate(partials)
        tail = abs(acc - total) + abs(panels[-1])
        if tail < max(settings.abs_tol, settings.rel_tol * abs(acc)) * 1e3:
            return acc, err + tail
    raise QuadratureError(f"sine transform did not converge within {max_panels} panels")


def _alternating(panels: list[float]) -> bool:
    tail = [p for p in panels[-10:] if p != 0.0]
    if len(tail) < 4:
        return False
    return all(tail[i] * tail[i + 1] < 0.0 for i in range(len(tail) - 1))


def _euler_accelerate(partials: list[float]) -> float:
    # repeated pairwise averaging of the partial-sum sequence; for an
    # alternating tail each sweep roughly squares the convergence rate
    seq = list(partials[-12:])
    while len(seq) > 1:
        seq = [0.5 * (seq[i] + seq[i + 1]) for i in range(len(seq) - 1)]
    return seq[0]


def integrate_sqrt_endpoint(
    f: Callable[[float], float],
    a: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    seeds: tuple[float, ...] = (),
) -> tuple[float, float]:
    """Integral over [a, inf) of an f with a 1/sqrt(k-a) endpoint singularity.

    The substitution k = a + u^2 removes the singularity exactly; the
    remaining semi-infinite u-integral rides on f's own decay (a Gaussian
    weight in every use here).  `seeds` marks k-locations of narrow
    features away from the endpoint (a tight momentum density, say), which
    the substitution squeezes into regions an unseeded opening pass can
    miss.  A stronger-than-inverse-square-root blowup is detected by
    probing the substituted integrand toward u = 0.
    """

    def g(u: float) -> float:
        return 2.0 * u * f(a + u * u)

    probe_big = abs(g(1e-3))
    probe_small = abs(g(1e-7))
    if probe_small > 100.0 * probe_big + 1.0:
        raise QuadratureError(
            "integrand singularity at the lower endpoint is stronger than 1/sqrt"
        )
    u_seeds = tuple(math.sqrt(k - a) for k in seeds if k > a)
    return integrate_semiinf_exp(g, 0.0, 0.0, settings, u_seeds)
