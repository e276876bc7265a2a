"""Quadrature engines and special functions used by the physics modules.

Everything here is deterministic and pure: identical inputs and settings
produce bit-identical outputs, from the standard library alone.
Every value returned with its err, here and in the physics modules, is an
Estimate; only the hot private _gk21 and _adaptive_gk hand on bare pairs.
hyp0f1_one is one trapezoid rule on Bessel's integral.  Every adaptive
integral is one run of _adaptive_gk, globally adaptive bisection on the
nested Gauss-Kronrod (G10, K21) pair (QUADPACK's qk21), which returns
(value, err) and keeps nothing else about its nodes.  The semi-infinite
integrator maps onto a finite interval with z = lower + t/(1-t) and raises
QuadratureError when a tail that does not decay drives bisection to t = 1
or the width floor.
integrate_sqrt_endpoint is not adaptive: it takes a Gaussian-weighted
integral over k >= a against dk/sqrt(k^2 - a^2) in k = a cosh(tau), where
that measure is dtau, on one trapezoid rule over a closed-form window, its
step sized a priori from a closed-form bound on the integrand in a strip.
The oscillatory sine transform is one _adaptive_gk run over a window
[0, end] its caller closes in closed form, taken in u under zeta = w u^3
over the first period w of the faster of sin(k*zeta) and the kernel,
which flattens the kernel's 1/zeta start, and affine beyond, seeded at
each period.

The branch-cut Laplace integrals and the series route's branch transform
are not taken here: reltoa.kernels sums them on trapezoid rules of its own.
No Gauss hypergeometric function is needed either: the R_c resummation's
brackets are binomial partial sums, formed in reltoa.classical;
gen_binomial serves the momentum kernel's residue sums.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "Estimate",
    "QuadratureSettings",
    "DEFAULT_SETTINGS",
    "QuadratureError",
    "SeriesDivergenceError",
    "hyp0f1_one",
    "gen_binomial",
    "faddeeva",
    "FADDEEVA_IM_REL_ERR",
    "integrate_semiinf_exp",
    "sine_transform_decaying",
    "integrate_sqrt_endpoint",
]


class QuadratureError(RuntimeError):
    """Requested tolerance could not be met, or the result is not finite."""


class SeriesDivergenceError(RuntimeError):
    """A series evaluation left its convergence regime."""


class Estimate(NamedTuple):
    """A computed number and its error estimate, a tuple that unpacks as value, err."""

    value: float
    err: float


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and resource caps of the adaptive integrals, the sine
    transform and the momentum route's weights.

    rel_tol / abs_tol are the target relative tolerance and absolute floor.
    The routes run in natural units, so on every route that reads abs_tol
    (direct, series, and the Delta tau gap transform) it bounds an err of
    R_c itself, a dimensionless number, whatever mu, c and hbar are.
    max_subdivisions caps the bisected segments of each adaptive integral,
    on top of its opening segments (one, plus one per interior seed, which
    it does not limit), and the sine transform's periods at 16 times
    max_subdivisions.  The momentum route's weights (integrate_sqrt_endpoint)
    read rel_tol alone, so a weight of 1e-80 is judged relative to itself,
    and the tau rule's node cap stands in for max_subdivisions.  No kernel
    entry in reltoa.kernels takes them: the kernel factors' trapezoid rules
    (T_F, F_B, the branch-cut term, T_B, the T_F - T_B gap and the branch
    transform) are sized a priori and capped there, and momentum_kernel_g's
    adaptive integral runs at DEFAULT_SETTINGS.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SETTINGS = QuadratureSettings()

# hyp0f1_one's node cap: 2 ceil(sqrt|x|) + 24 nodes reach |x| = 4e6
_HYP0F1_MAX_NODES = 4096

# below this exponent exp() underflows: the half-line map's nodes give 0.0
_LOG_TINY = math.log(2.2e-308)


# 21-point Kronrod extension of 10-point Gauss-Legendre (QUADPACK's qk21):
# the nodes _Y2, _Y4, ..., _Y10 are G10's
_XGK21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK21 = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK21_CENTER = 0.149445554002916905664936468389821
_WG10 = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_VK1, _VK2, _VK3, _VK4, _VK5, _VK6, _VK7, _VK8, _VK9, _VK10 = _WGK21
_VG2, _VG4, _VG6, _VG8, _VG10 = _WG10
_Y1, _Y2, _Y3, _Y4, _Y5, _Y6, _Y7, _Y8, _Y9, _Y10 = _XGK21


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod (10, 21) pass over [a, b].

    Returns (kronrod_value, error_estimate), the error being |K21 - G10|.
    """
    # the nodes are written out: this is the innermost loop of every
    # adaptive integral
    c = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d1, d2, d3, d4, d5 = half * _Y1, half * _Y2, half * _Y3, half * _Y4, half * _Y5
    d6, d7, d8, d9, d10 = half * _Y6, half * _Y7, half * _Y8, half * _Y9, half * _Y10
    (fc, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7, l8, r8, l9, r9,
     l10, r10) = (
        f(c), f(c - d1), f(c + d1), f(c - d2), f(c + d2), f(c - d3), f(c + d3),
        f(c - d4), f(c + d4), f(c - d5), f(c + d5), f(c - d6), f(c + d6),
        f(c - d7), f(c + d7), f(c - d8), f(c + d8), f(c - d9), f(c + d9),
        f(c - d10), f(c + d10),
    )
    p2 = l2 + r2
    p4 = l4 + r4
    p6 = l6 + r6
    p8 = l8 + r8
    p10 = l10 + r10
    res_k = (
        _WGK21_CENTER * fc + _VK1 * (l1 + r1) + _VK2 * p2 + _VK3 * (l3 + r3)
        + _VK4 * p4 + _VK5 * (l5 + r5) + _VK6 * p6 + _VK7 * (l7 + r7)
        + _VK8 * p8 + _VK9 * (l9 + r9) + _VK10 * p10
    )
    res_g = _VG2 * p2 + _VG4 * p4 + _VG6 * p6 + _VG8 * p8 + _VG10 * p10
    return res_k * half, abs(res_k - res_g) * abs(half)


# the subnormal range, where floats round on an absolute grid
_MIN_NORMAL = 2.0 ** -1022
_MIN_SUBNORMAL = 2.0 ** -1074
_UNIT_ROUNDOFF = 2.0 ** -53


def _adaptive_gk(
    f: Callable[[float], float],
    a: float,
    b: float,
    settings: QuadratureSettings,
    seeds: tuple[float, ...] = (),
) -> tuple[float, float]:
    """Globally adaptive bisection on [a, b] with the G10/K21 pair.

    `seeds` lists interior breakpoints that receive their own opening
    segments; callers use them to mark narrow features (sharp peaks) or
    periods the opening pass would otherwise step over.  Returns
    (value, error_estimate), the sums over the final segments; raises
    QuadratureError when max_subdivisions bisected segments, on top of the
    openings, cannot reach max(abs_tol, rel_tol * |value|), or a segment
    with error hits width_floor.  A subnormal value is summed on the
    absolute grid 2^-1074, where every node's product and sum rounds and
    the pair's difference can underflow to 0.0, so its err is at least one
    step of that grid per node.
    """
    points = sorted({a, b, *(s for s in seeds if a < s < b)})
    heap = []
    total_val = 0.0
    total_err = 0.0
    counter = 0
    # heap entries: (-err, insertion_id, a, b, val, err); id breaks ties
    for sa, sb in zip(points, points[1:]):
        val, err = _gk21(f, sa, sb)
        heap.append((-err, counter, sa, sb, val, err))
        counter += 1
        total_val += val
        total_err += err
    heapq.heapify(heap)
    # counter counts the openings and two segments per bisection
    cap = settings.max_subdivisions + len(points) - 2
    width_floor = 0.5 ** 45 * max(abs(a), abs(b), 1.0)
    while total_err > max(settings.abs_tol, settings.rel_tol * abs(total_val)):
        if counter >= cap:
            raise QuadratureError(
                f"tolerance not met within {cap} subdivisions "
                f"(err={total_err:.3e}, value={total_val:.6e})"
            )
        _, _, sa, sb, sval, serr = heapq.heappop(heap)
        if serr <= 0.0:
            break  # the worst segment reports no error; accept the estimate
        if (sb - sa) < width_floor:
            raise QuadratureError(
                f"bisection reached the width floor at [{sa:.17g}, {sb:.17g}] "
                f"(err={total_err:.3e}, value={total_val:.6e})"
            )
        mid = 0.5 * (sa + sb)
        v1, e1 = _gk21(f, sa, mid)
        v2, e2 = _gk21(f, mid, sb)
        total_val += (v1 + v2) - sval
        total_err += (e1 + e2) - serr
        heapq.heappush(heap, (-e1, counter, sa, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, sb, v2, e2))
        counter += 1
    if 0.0 < abs(total_val) < _MIN_NORMAL:
        total_err = max(total_err, 21 * counter * _MIN_SUBNORMAL)
    return total_val, total_err


def hyp0f1_one(x: float) -> float:
    """Confluent limit function 0F1(;1;x) = sum_m x^m / (m!)^2.

    Taken from 0F1(;1;x) = (1/pi) int_0^pi C(2 sqrt|x| cos(theta)) dtheta,
    C = cos for x < 0 (J0(2 sqrt(-x))) and cosh for x >= 0 (I0(2 sqrt(x))),
    on the trapezoid rule over theta_k = pi k/N, k < N.  The integrand is
    entire and pi-periodic, so the rule converges geometrically (Trefethen
    & Weideman 2014); N = max(16, 2 ceil(sqrt|x|) + 24) puts its error at
    rounding, which math.fsum keeps to one rounding per node.  For x < 0
    that is an absolute error of a few eps: near J0's zeros it is not a
    relative one.  For x >= 0 no term cancels and the error is relative,
    about eps * 2 sqrt(x) from the rounding of cosh's argument.
    Raises SeriesDivergenceError where cosh overflows a float (x above
    about 1.26e5) and QuadratureError where x < 0 needs more than
    _HYP0F1_MAX_NODES nodes (x below about -4e6).  The rule has no
    tolerance to meet, so it takes no settings.
    """
    if not math.isfinite(x):
        raise ValueError("hyp0f1_one requires finite x")
    root = math.sqrt(abs(x))
    nodes = max(16, 2 * math.ceil(root) + 24)
    if x < 0.0 and nodes > _HYP0F1_MAX_NODES:
        raise QuadratureError(
            f"0F1(;1;{x!r}) needs more than the rule's {_HYP0F1_MAX_NODES} nodes"
        )
    kernel = math.cos if x < 0.0 else math.cosh
    two_root = 2.0 * root
    try:
        # near the limit cosh overflows at the k = 0 node, or fsum on the total
        terms = [kernel(two_root * math.cos(math.pi * k / nodes)) for k in range(nodes)]
        return math.fsum(terms) / nodes
    except OverflowError:
        raise SeriesDivergenceError(f"0F1(;1;{x!r}) overflows a float") from None


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


# the half-line maps' t = 1 node, which bisection reaches only on a tail
# that does not decay
_NON_DECAYING = "integrand does not decay: bisection reached the end of the half line"


def integrate_semiinf_exp(
    f: Callable[[float], float],
    lower: float,
    decay: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    seeds: tuple[float, ...] = (),
) -> Estimate:
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
        try:
            z = lower + t / onemt
        except ZeroDivisionError:
            raise QuadratureError(_NON_DECAYING) from None
        expo = -decay * z
        if expo < _LOG_TINY:
            return 0.0
        return f(z) * math.exp(expo) / (onemt * onemt)

    t_seeds = tuple(
        (z - lower) / (1.0 + (z - lower)) for z in seeds if z > lower
    )
    return Estimate(*_adaptive_gk(mapped, 0.0, 1.0, settings, t_seeds))


def sine_transform_decaying(
    f: Callable[[float], float],
    k: float,
    end: float,
    bandwidth: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """Integral of sin(k*zeta) * f(zeta) over [0, end], f a decaying kernel.

    f is a kernel as reltoa.ior transforms them: C/zeta at the origin (the
    sine factor regularizes the product), oscillating at wavenumbers up to
    bandwidth (0 for none), and negligible past end, which the caller knows
    in closed form.  With w = 2 pi/max(k, bandwidth), the integral is taken
    in u under zeta = w u^3 for u <= 1 and zeta = w (1 + 3 (u - 1)) beyond,
    whose value and slope meet at u = 1: the cube flattens the kernel's
    start, 2/(pi zeta) + c + O(zeta log zeta) for T_B, into a product
    smooth to a u^8 log u term, which one segment resolves.  The window is
    one run of _adaptive_gk in u, seeded at u = 1/2 and at the image
    1 + (n - 1)/3 of every period edge n w below end; where end <= w it
    ends at u = (end/w)^(1/3).  f is called once per node, at zeta(u).
    These openings come on top of max_subdivisions bisected segments, and
    a window of more than 16 x max_subdivisions periods raises
    QuadratureError before any node is taken.  Its err is judged once,
    against the total: max(abs_tol, rel_tol * |value|).  A result that is
    not finite (a NaN node, say) raises QuadratureError.
    """
    if k <= 0.0:
        raise ValueError("sine_transform_decaying requires k > 0")
    width = 2.0 * math.pi / max(k, bandwidth)
    periods = math.ceil(end / width)
    if periods > 16 * settings.max_subdivisions:
        raise QuadratureError(
            f"sine transform at k = {k!r}: {periods:.6g} periods exceed 16 x max_subdivisions"
        )
    slope = 3.0 * width
    sin = math.sin

    def mapped(u: float) -> float:
        if u <= 1.0:
            zeta = width * u * u * u
            return sin(k * zeta) * f(zeta) * (slope * u * u)
        zeta = width * (1.0 + 3.0 * (u - 1.0))
        return sin(k * zeta) * f(zeta) * slope

    ratio = end / width
    u_end = ratio ** (1.0 / 3.0) if ratio <= 1.0 else 1.0 + (ratio - 1.0) / 3.0
    seeds = (0.5, *(1.0 + (n - 1) / 3.0 for n in range(1, periods)))
    val, err = _adaptive_gk(mapped, 0.0, u_end, settings, seeds)
    if not (math.isfinite(val) and math.isfinite(err)):
        raise QuadratureError(
            f"sine transform at k = {k!r} is not finite (value={val!r}, err={err!r})"
        )
    return Estimate(val, err)


# the tau rule's window: a node whose Gaussian exponent lies more than this
# above its least value on k >= a is dropped (cf. kernels._BRANCH_CUT)
_TAU_CUT = 40.0
# the greatest half-width of the strip |Im tau| < d that the tau rule's
# truncation bound is taken on, below pi/4, where the Gaussian stays bounded
_TAU_D_CAP = 0.75
# nodes allowed to one tau rule
_TAU_MAX_NODES = 1 << 14
# the least window in k and step in tau, relative to their ends: the
# nodes resolve k, and their indexes stay below 2^45, so every j h is exact
_TAU_MIN_STEP = 2.0 ** -30
# from this least exponent on, the integral is exactly 0.0 in floats: below
# e^-800 times a tau-integral of w under e^54, under half of 2^-1074
_TAU_ZERO = 800.0
# the contract's bound on |w| in the strip over w on the real axis (see
# integrate_sqrt_endpoint): 1 for w = 1 and w = k, under sqrt((2 + vn)/(2 - vn))
# for the momentum route's w at strength vn < 1
_TAU_W_BOUND = math.sqrt(3.0)
_GAMMA_5_4 = math.gamma(1.25)
_SQRT_PI = math.sqrt(math.pi)


def _scaled(x: float, shift: float) -> float:
    """x e^-shift for x >= 0, formed under one exp so that only its last
    rounding is subnormal."""
    return math.exp(math.log(x) - shift) if x > 0.0 else 0.0


def _strip_width(a: float, centre: float, lam: float, rel_tol: float) -> float:
    """The strip half-width d that integrate_sqrt_endpoint sizes its step on.

    The step that meets the bound 2M/(e^(2 pi d/h) - 1) <= (rel_tol/4) I is
    h ~ 2 pi d/(L + phi(d)), L = ln(8/rel_tol), where phi(d) = ln(M/I) grows
    as the strip Gaussian's peak (_strip_bound).  In t = sin(d)^2, phi is
    exactly Q t + P t^2/(1 - 2t) with Q = lam (centre^2 - a^2) and P =
    2 lam centre^2 for centre >= a; below, Q = lam a (a - centre) is its
    first order and P = 2 lam max(centre, 0)^2 a model.  sqrt(t)/(L + phi)
    is greatest where L = Q t + P t^2 (3 - 2t)/(1 - 2t)^2, which in r =
    t/(1 - 2t) is the cubic 4 P r^3 + 3 P r^2 + (Q - 2L) r = L: two Newton
    steps from the root of its quadratic part, from above.  d is at most
    _TAU_D_CAP, and is _TAU_D_CAP, its limit as P -> 0, where P is so
    small (a centre near 0) that r is not finite.
    """
    big = math.log(8.0 / rel_tol)
    if centre >= a:
        q = lam * (centre - a) * (centre + a)
    else:
        q = lam * a * (a - centre)
    p = 2.0 * lam * max(centre, 0.0) ** 2
    slope = q - 2.0 * big
    if p > 0.0:
        root = math.sqrt(slope * slope + 12.0 * p * big)
        r = 2.0 * big / (slope + root) if slope > 0.0 else (root - slope) / (6.0 * p)
        for _ in range(2):
            excess = ((4.0 * p * r + 3.0 * p) * r + slope) * r - big
            r -= excess / ((12.0 * p * r + 6.0 * p) * r + slope)
    elif slope > 0.0:
        r = big / slope
    else:
        return _TAU_D_CAP
    if not math.isfinite(r):
        # a P so small that the start overflows: d's limit as P -> 0
        return _TAU_D_CAP
    return min(math.asin(math.sqrt(r / (1.0 + 2.0 * r))), _TAU_D_CAP)


def _strip_bound(a: float, centre: float, lam: float, d: float) -> tuple[float, float, float]:
    """(ln B, width, k_ref): for every k_r >= k_ref, int_0^inf |f(tau + i y)|
    dtau <= S w(k_r) B on the lines y = +-d, for integrate_sqrt_endpoint's
    f = exp(-lam (k - centre)^2) w(k), k = a cosh(tau), and a w within its
    contract, |w(k_y)| <= S w(k) in the strip; width, under sqrt(cos 2d) of
    the strip Gaussian's width in tau, estimates the width int_0^inf
    exp(x_min - x) dtau of f's own.

    With s = sin d, c2 = cos 2d, mu = lam c2 and b = centre cos(d)/c2, at
    k_d = a cosh(tau + i d)

      |exp(-lam (k_d - centre)^2)| = exp(lam s^2 (centre^2/c2 - a^2) - mu (k - b)^2)

    exactly, and |w(k_d)| <= S w(k) <= S w(k_r) max(1, k/k_r).  The
    peak k_m = max(a, b) gives the factor exp(lam s^2 (centre^2/c2 - a^2) -
    mu T_m^2), T_m = k_m - b, and leaves int_0^inf exp(-mu (T^2 - T_m^2))
    dtau, T = k - b, plus the tail past k_r.  Right of tau_m (cosh tau_m =
    k_m/a), in t = tau - tau_m, T - T_m >= sqrt(k_m^2 - a^2) t + k_m t^2/2
    and T - T_m >= k_m (e^t/2 - 1), with T + T_m >= 2 T_m, so that part is
    at most each of (1/2) sqrt(pi/(mu (k_m^2 - a^2 + T_m k_m))), Gamma(5/4)
    (mu k_m^2/4)^(-1/4) and ln(2 + 2/(sqrt(mu) k_m)) + 1/(2e).  Left of it
    (b > a), in u = tau_m - tau, |T| = 2a sinh(tau_m - u/2) sinh(u/2) >= s u
    up to u0 = min(1, tau_m), s = a sinh(tau_m - u0/2), and |T| rises with
    u, so that part is at most min(u0, (1/2) sqrt(pi/mu)/s) + (tau_m - u0)
    exp(-mu (s u0)^2).  k_ref = k_m + delta, delta the least of 1/sqrt(mu),
    1/(mu sqrt(k_m^2 - a^2)) and (1/(mu T_m)^2 - k_m^2 + a^2)/(2 k_m),
    makes D = 2 mu T_r sqrt(k_r^2 - a^2) >= 2 at every k_r >= k_ref, T_r =
    k_r - b; past k_r, k/k_r <= e^(tau - tau_r) and T >= T_r + sqrt(k_r^2 -
    a^2) (tau - tau_r), so the tail is at most exp(-mu (T_r^2 - T_m^2))/(D - 1).
    """
    s, co = math.sin(d), math.cos(d)
    c2 = (co - s) * (co + s)
    mu = lam * c2
    b = centre * co / c2
    k_m = max(a, b)
    t_m = k_m - b
    alpha2 = (k_m - a) * (k_m + a)
    width = 1.0 / math.sqrt(mu)
    core = _GAMMA_5_4 * math.sqrt(2.0 * width / k_m)
    rise = alpha2 + t_m * k_m
    if rise > 0.0:
        core = min(core, 0.5 * _SQRT_PI * width / math.sqrt(rise))
    if core > 0.8:
        # the growth form is at least ln 2 + 1/(2e) > 0.8
        core = min(core, math.log(2.0 + 2.0 * width / k_m) + 0.5 / math.e)
    if b > a:
        tau_m = math.acosh(k_m / a)
        u0 = min(1.0, tau_m)
        slope = a * math.sinh(tau_m - 0.5 * u0)
        core += min(u0, 0.5 * _SQRT_PI * width / slope) + (tau_m - u0) * math.exp(
            -mu * (slope * u0) ** 2
        )
    delta = width
    if alpha2 > 0.0:
        delta = min(delta, width * width / math.sqrt(alpha2))
    if t_m > 0.0:
        delta = min(delta, max((width ** 4 / (t_m * t_m) - alpha2) / (2.0 * k_m), 0.0))
    k_ref = k_m + delta
    t_r = k_ref - b
    rate = 2.0 * mu * t_r * math.sqrt((k_ref - a) * (k_ref + a))
    tail = math.exp(-mu * (t_r - t_m) * (t_r + t_m)) / (rate - 1.0)
    peak = lam * s * s * (centre * centre / c2 - a * a) - mu * t_m * t_m
    return peak + math.log(core + tail), core * math.sqrt(c2), k_ref


def integrate_sqrt_endpoint(
    w: Callable[[float], float],
    a: float,
    centre: float,
    lam: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """int_a^inf exp(-lam (k - centre)^2) w(k) dk / sqrt(k^2 - a^2), a, lam > 0.

    Under k = a cosh(tau), dk/sqrt(k^2 - a^2) = dtau exactly, so the
    integral is int_0^inf f(tau) dtau with f = exp(-lam (k - centre)^2) w(k),
    even in tau.  The nodes are tau = j h, j >= 0, the j = 0 node at half
    weight.  w is called once per node, at k, and not where the Gaussian is
    0.0, and once more, at _strip_bound's k_ref.

    The contract on w: positive and nondecreasing on k >= a, w(k)/k
    nonincreasing (w grows at most like k), and analytic in the strip
    |Im tau| < pi/4 with |w(a cosh(tau + i y))| <= _TAU_W_BOUND w(a cosh
    tau) there, _TAU_W_BOUND = sqrt(3).  w = 1 and w = k hold it within 1,
    since |cosh(tau + i y)| <= cosh tau, and the momentum route's w within
    sqrt((2 + vn)/(2 - vn)) (ior._crossing_integrand).  In the strip the
    Gaussian's modulus is exactly exp(-lam (k - centre)^2 + lam E_y(k)),
    E_y(k) = (2k^2 - a^2) sin^2 y - 2 centre k (1 - cos y), which stays
    bounded while cos 2y > 0.  So f is analytic there, and on the lines
    Im tau = +-d _strip_bound bounds M = int |f(tau +- i d)| dtau in closed
    form from w(k_ref).  The trapezoid rule of step h then errs by at most
    2M/(e^(2 pi d/h) - 1) (Trefethen & Weideman, SIAM Rev. 56 (2014) 385,
    Thm 5.1) on the line, and so on the half line, where M is the half
    line's.  The step is sized before any node is summed: d from
    _strip_width, at most _TAU_D_CAP = 0.75, and h where that bound is
    rel_tol/4 of an estimate of the integral, w(k_ref) min(1, k_peak/k_ref)
    e^-x_min times _strip_bound's width, k_peak = max(a, centre).  h is
    rounded down to eight significant bits, so that every node j h is
    exact.

    Window: the tau where the exponent x = lam (k - centre)^2 is at most
    _TAU_CUT = 40 above x_min, its least value on k >= a, widened to an
    even number of whole steps.  Past its end k_hi = centre + r, x >= x_min
    + 40 + 2 lam r (k - k_hi), and k grows by at least s_hi = sqrt(k_hi^2 -
    a^2) per unit tau, so for a w within its contract the dropped nodes sum
    to at most e^(-x_min - 40) w(k_hi) (h + 1/(2 lam r s_hi)) (1 + 1/(2 lam
    r k_hi)); below a start tau_lo > 0, to at most e^(-x_min - 40) w(k_lo)
    tau_lo.  The contract bounds w(k_hi) by w(k_ref) max(1, k_hi/k_ref), and
    w(k_lo) by w(k_ref).  That is about e^-40 ~ 4e-18 of the integral.

    The err is the truncation bound plus the window bound plus a rounding
    bound; abs_tol is not read: f > 0, so its integral is judged relative
    to itself down to the subnormal range.  Per unit of a node's value the
    rounding bound allows 16 roundoffs for the node (w, exp and the level
    sums), 4 per unit of its exponent x (exp amplifies the rounding of its
    argument) and 8 per unit of lam |k - centre| k (the rounding of
    k = a cosh(tau), which the exponent magnifies away from the centre),
    with cosh and exp taken as correct to one ulp.  A node whose value is
    below the smallest normal float rounds on the absolute grid 2^-1074 and
    adds 1 + w(k) steps of it to the err, and to the tolerance, as
    _adaptive_gk's floor does.
    The even nodes are the rule of step 2h, bounded the same way: where
    |T_h - T_2h| exceeds both bounds, three rounding bounds and two window
    bounds, w breaks its contract (a jump, a NaN), and |T_h - T_2h| stands
    in for the truncation bound.  The step halves, each level adding the
    odd nodes, while the err exceeds rel_tol |T_h| and the truncation term
    exceeds the rounding bound, which no smaller step can improve.
    Where exp(-x_min) underflows, the nodes take exp(x_min - x) and the
    result and err are scaled back by e^-x_min, the err by one more step of
    2^-1074 for the final rounding.  From x_min = _TAU_ZERO = 800 on, the
    integral is below e^-800 times a tau-integral of w, which for a w
    under e^50 is below half of 2^-1074: the result is exactly
    Estimate(0.0, 0.0), with no call of w.
    QuadratureError is raised past _TAU_MAX_NODES nodes, where the sum is
    not finite, and where the window spans under 2^-30 of its end in k, or
    the step under 2^-30 of it in tau (packets some 1e8 times wider than
    1/k0).
    """
    # the tau = 0 node's exponent, in the nodes' own operations
    x_min = lam * (a - centre) * (a - centre) if centre < a else 0.0
    if x_min >= _TAU_ZERO:
        return Estimate(0.0, 0.0)
    # where exp(-x_min) underflows, the nodes take exp(shift - x) instead
    shift = x_min if math.exp(-x_min) == 0.0 else 0.0
    reach = math.sqrt((x_min + _TAU_CUT) / lam)
    k_hi, k_lo = centre + reach, centre - reach
    k_start = max(a, k_lo)
    # 0.0 where the window in k is too narrow, which raises below
    tau_hi = math.acosh(k_hi / a) if k_hi - k_start > _TAU_MIN_STEP * k_hi else 0.0
    tau_lo = math.acosh(k_lo / a) if k_lo > a else 0.0
    if not tau_hi > 0.0:
        raise QuadratureError(f"window [{k_start!r}, {k_hi!r}] is too narrow for exact nodes")
    d = _strip_width(a, centre, lam, settings.rel_tol)
    log_mass, width, k_ref = _strip_bound(a, centre, lam, d)
    # M over the estimate w(k_ref) min(1, k_peak/k_ref) e^-x_min width of the integral
    ratio = _TAU_W_BOUND * math.exp(log_mass + x_min) / width * max(k_ref / max(a, centre), 1.0)
    mant, expo = math.frexp(2.0 * math.pi * d / math.log1p(8.0 * ratio / settings.rel_tol))
    step = math.ldexp(math.floor(256.0 * mant), expo - 8)
    if not step > _TAU_MIN_STEP * tau_hi:
        raise QuadratureError(f"window [{k_start!r}, {k_hi!r}] is too narrow for exact nodes")
    j_lo = 2 * math.floor(0.5 * tau_lo / step)
    # an even count of steps, so that the even nodes span the same window
    count = 2 * math.ceil(0.5 * (tau_hi / step - j_lo))
    cosh, exp, two_lam, tiny_v = math.cosh, math.exp, 2.0 * lam, _MIN_NORMAL

    def level(first: float, spacing: float, n: int) -> tuple[list[float], float, float]:
        # the n nodes first + i spacing: their values (0.0 where the
        # Gaussian is), and the sums of their charges (x + 2 lam |d| k) v
        # and of their steps of 2^-1074
        values, charge, tiny = [], 0.0, 0.0
        append = values.append
        for i in range(n):
            k = a * cosh(first + i * spacing)
            d = k - centre
            x = lam * d * d
            g = exp(shift - x)
            if g:
                wk = w(k)
                v = g * wk
                charge += v * (x + two_lam * abs(d) * k)
                if v < tiny_v:
                    tiny += 1.0 + wk
            else:
                v = 0.0
            append(v)
        return values, charge, tiny

    values, charge, tiny = level(j_lo * step, step, count + 1)
    if j_lo == 0:
        # tau = 0 takes half weight: the rule covers the even extension
        values[0] *= 0.5
    # the even nodes are the rule of step 2h
    even = math.fsum(values[::2])
    total = even + math.fsum(values[1::2])
    prev, value = 2.0 * step * even, step * total
    w_ref = w(k_ref)
    # 2M, from _strip_bound
    mass = 2.0 * _TAU_W_BOUND * w_ref * math.exp(shift + log_mass)
    # the dropped nodes' bound, with w(k_hi) and w(k_lo) under the contract
    s_hi = math.sqrt((k_hi - a) * (k_hi + a))
    beyond = max(k_hi / k_ref, 1.0) * (1.0 + 1.0 / (two_lam * reach * k_hi))
    scale = w_ref * exp(shift - x_min - _TAU_CUT)
    while True:
        gap = abs(value - prev)
        rounding = step * (16.0 * total + 4.0 * charge) * _UNIT_ROUNDOFF
        grid = tiny * _MIN_SUBNORMAL
        # e^(2 pi d/h) capped below overflow, which only loosens the bound
        spread = math.expm1(min(math.pi * d / step, 350.0))
        trunc = mass / (spread * (spread + 2.0))
        window = scale * (beyond * (step + 1.0 / (two_lam * reach * s_hi)) + tau_lo)
        if not (math.isfinite(value) and math.isfinite(rounding) and math.isfinite(trunc)):
            raise QuadratureError(
                f"tau rule over [{tau_lo!r}, {tau_hi!r}] is not finite (value={value!r})"
            )
        if gap > trunc + mass / spread + 3.0 * rounding + 2.0 * window + grid:
            # w breaks its contract: the levels' difference stands in for the bound
            trunc = gap
        err = trunc + rounding + window
        if err <= settings.rel_tol * abs(value) + grid or trunc <= rounding:
            if shift:
                # the scaled sum back on the grid 2^-1074: one more step
                return Estimate(_scaled(value, shift), _scaled(err, shift) + _MIN_SUBNORMAL)
            return Estimate(value, err + grid)
        if 2 * count > _TAU_MAX_NODES:
            raise QuadratureError(
                f"tau rule needs more than {_TAU_MAX_NODES} nodes "
                f"(err={err:.3e}, value={value:.6e})"
            )
        step *= 0.5
        j_lo *= 2
        new, more, more_tiny = level((j_lo + 1) * step, 2.0 * step, count)
        count *= 2
        total += math.fsum(new)
        charge += more
        tiny += more_tiny
        prev, value = value, step * total
