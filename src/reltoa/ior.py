"""Effective refraction index, traversal times and the arrival-time difference.

The barrier's effect on a packet is summarized by the dimensionless factor
R_c (an effective index of refraction): the expected crossing time of the
barrier region is t_c * R_c with t_c = L/c the photon crossing time.  R_c is
computed by three independent routes that must agree,

  * direct   - oscillatory sine transform of T_B(-V_o, zeta) Phi(zeta),
               with T_B's value at each node from the strength's T_B
               core (kernels._tb_core), bound once per cell,
  * series   - term-by-term Gaussian sine moments of the residue series
               plus the sine transform of the kernel's branch-cut term,
               taken as one z-integral (kernels.branch_transform, one
               trapezoid rule sized from the strength alone) of the sine
               transform J(z) of Phi(zeta) exp(-z zeta) in closed form:
               the Faddeeva function at small z (_laplace_sine) and, from
               a per-packet far point up, J's Laplace expansion in inverse
               powers of z, whose remainder bounds keep it exact to
               rounding (_laplace_far), summed over the rule's far nodes
               from per-strength inverse-power sums; it runs no
               oscillatory quadrature,
  * momentum - the closed half-line momentum integrals above kappa_c, in
               k = kappa_c cosh(tau), where the crossing weight's threshold
               root cancels exactly, each on one trapezoid rule whose step
               and err come a priori from a bound on the integrand in a
               strip about the real tau axis (momentum_split).  The value
               path ior_momentum skips the -k integral where a closed-form
               bound shows it cannot move a bit of the result.

Only imaginary parts (sine transforms) are ever formed; the real parts
carry a logarithmic divergence and no physics.

Every route runs in natural units: each public entry checks its arguments
and converts them once, v0 to its strength v0/(mu c^2) and the packet to
sigma mu c/hbar and k0 hbar/(mu c) (_natural_packet).  R_c, its weights and
Q_c are dimensionless; the times are t_c = L/c times a natural number.
Each is a numerics.Estimate, its value with its err, and traversal_time
scales the momentum route's three by t_c, errs included.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from typing import Callable, Iterator

from reltoa.classical import kappa_c
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    _FAR_TERMS,
    _tb_core,
    branch_transform,
    fb_moments,
)
from reltoa.numerics import (
    DEFAULT_SETTINGS,
    FADDEEVA_IM_REL_ERR,
    Estimate,
    QuadratureSettings,
    SeriesDivergenceError,
    faddeeva,
    integrate_sqrt_endpoint,
    sine_transform_decaying,
)
from reltoa.wavepacket import GaussianPacket

__all__ = [
    "Luminality",
    "ior_direct",
    "ior_series",
    "ior_momentum",
    "momentum_split",
    "qc_expectation",
    "traversal_time",
    "toa_difference",
    "superluminal_classify",
]

# terms allowed to ior_series' sine-moment sum
MAX_SERIES_TERMS = 600


def _require_subcritical(v0: float, params: PhysicalParams) -> float:
    """The strength v0/(mu c^2), once 0 <= v0 < mu c^2."""
    if not 0.0 <= v0 < params.rest_energy:
        raise ValueError(
            f"barrier height {v0} must lie in [0, mu c^2) = [0, {params.rest_energy})"
        )
    return v0 / params.rest_energy


def _natural_packet(packet: GaussianPacket, params: PhysicalParams) -> GaussianPacket:
    """packet in natural units, sigma mu c/hbar and k0 hbar/(mu c); no route reads q0.
    ValueError where no route can form its Gaussians: the natural sigma^2
    underflows to 0 (below ~1.6e-162) or 8 sigma^2 overflows (~4.7e153)."""
    wavenumber = params.mu * params.c / params.hbar
    sigma = packet.sigma * wavenumber
    if not (sigma * sigma > 0.0 and 8.0 * sigma * sigma < math.inf):
        raise ValueError(f"sigma {packet.sigma!r} is {sigma!r} in natural units, where "
                         f"sigma^2 underflows to 0 or 8 sigma^2 overflows")
    return GaussianPacket(q0=0.0, sigma=sigma, k0=packet.k0 / wavenumber)


# Phi(zeta) = exp(-zeta^2/(8 sigma^2)) is below the smallest float past
# this exponent
_PHI_UNDERFLOW = 745.0


def _phi_reach(sigma: float, bound: float, cut: float) -> float:
    """The zeta where bound * Phi(zeta) = cut, or where Phi underflows."""
    log_ratio = min(math.log(bound / cut), _PHI_UNDERFLOW) if cut > 0.0 else _PHI_UNDERFLOW
    return sigma * math.sqrt(8.0 * log_ratio)


def _phi_transform(
    kernel: Callable[[float], float],
    packet: GaussianPacket,
    settings: QuadratureSettings,
    bandwidth: float,
) -> Estimate:
    """int_0^inf sin(k0 zeta) kernel(zeta) Phi(zeta) dzeta and its error, for
    a natural packet and a kernel of natural zeta.

    The integrand is one closure, kernel(zeta) * phi_overlap(packet, zeta)
    bit for bit, with Phi formed in phi_overlap's own operations.

    Every kernel transformed here is bounded by a small multiple of
    1 + 1/zeta, so the product is dropped past the window's end, taken in
    closed form where Phi(zeta) (4 + 1/zeta) meets cut = 1e-3 abs_tol:
    zeta_4 where 4 Phi meets the cut, then end where (4 + 1/zeta_4) Phi
    does, which lies past the crossing because the factor falls with zeta.
    At abs_tol = 0 the window ends where Phi underflows; from abs_tol =
    4000 on, where 4 Phi <= 4 never meets the cut, ValueError is raised.
    bandwidth is the kernel's own largest wavenumber: kappa_c at the
    strength for T_B(-v0) and the gap T_F - T_B(-v0), whose residue terms
    go as cos(kappa_c zeta), and 0 for T_F.
    sine_transform_decaying takes [0, end] in one adaptive G10/K21 run,
    seeded at each period of the faster of sin(k0 zeta) and the kernel,
    with the first period under zeta = w u^3, which flattens the kernel's
    1/zeta start.
    """
    sigma, exp = packet.sigma, math.exp
    cut = 1e-3 * settings.abs_tol
    if not cut < 4.0:
        raise ValueError(
            f"abs_tol must be below 4000 for the sine transform's window, got "
            f"{settings.abs_tol!r}: it closes where 4 Phi meets 1e-3 abs_tol, and 4 Phi <= 4"
        )
    zeta_4 = _phi_reach(sigma, 4.0, cut)
    end = _phi_reach(sigma, 4.0 + 1.0 / zeta_4, cut)

    def integrand(zeta: float) -> float:
        u = zeta / sigma  # Phi in phi_overlap's operations
        return kernel(zeta) * exp(-0.125 * u * u)

    return sine_transform_decaying(integrand, packet.k0, end, bandwidth, settings)


def ior_direct(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """R_c by direct sine transform of the barrier kernel against the packet.

    R_c = (mu c / hbar) * int_0^inf sin(k0 zeta) T_B(-v0, zeta) Phi(zeta) dzeta,
    which in natural units is the transform itself.  The cell is checked
    and converted once and binds the T_B core of strength -v0 once; each
    node takes its value, barrier_factor's natural-unit value bit for bit
    without the errs.  Past zeta ~ 34-39 it drops the branch-cut sum
    wherever the sum cannot move the value, as barrier_factor does.
    The sine transform is one adaptive G10/K21 run over Phi's closed-form
    window, seeded at each period of the faster of sin(k0 zeta) and T_B's
    cos(kappa_c zeta) terms (at v0 = 0, T_B = T_F has none, so its
    bandwidth is 0), with the first period under zeta = w u^3, which
    flattens T_B's 2/(pi zeta) start; its err is judged against the total.
    """
    vn = _require_subcritical(v0, params)
    packet = _natural_packet(packet, params)
    return _phi_transform(
        _tb_core(-vn).value, packet, settings, kappa_c(vn) if vn > 0.0 else 0.0,
    )


# J's Laplace expansion past its switch point takes the terms m < 8
_LAPLACE_TERMS = 8
# the packet-free parts of _laplace_switch at M = _LAPLACE_TERMS:
# lgamma(2M + 1), lgamma(M + 1) and ln(2M + 1)
_SWITCH_LOGS = (math.lgamma(17), math.lgamma(9), math.log(17))
_LOG_2_55 = 55.0 * math.log(2.0)
# per p = 1 .. _FAR_TERMS + 1, C(2p - 1, 2m) (2m)!/m! for m < min(p, 8):
# e_p = (-1)^(p-1) k0^(2p-1) sum_m of them times y^m, y = a/k0^2 (_laplace_far)
_WATSON_ROWS = tuple(
    tuple(float(math.comb(2 * p - 1, 2 * m) * math.factorial(2 * m) // math.factorial(m))
          for m in range(min(p, _LAPLACE_TERMS)))
    for p in range(1, _FAR_TERMS + 2)
)
# per p, (2p + 1) 2p/((2p - 13)(2p - 14)): times kappa^2 = k0^2/z^2 it bounds
# |e_(p+1)|/(|e_p| z^2) once p >= 8 (0 below, where no remainder is taken)
_WATSON_RATIOS = tuple(
    (2 * p + 1) * 2 * p / ((2 * p - 13) * (2 * p - 14)) if p >= 8 else 0.0
    for p in range(1, _FAR_TERMS + 2)
)
_LOG_2_58 = 58.0 * math.log(2.0)
# the least k0 of a far form: k0^33 >= 2^-990 stays a normal float
_FAR_LEAST_K0 = 2.0 ** -30


def _exp_or_inf(x: float) -> float:
    """e^x, or +inf where it is past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _laplace_switch(a: float, k0: float) -> float:
    """z_8: from here up the 8-term Laplace expansion of J is exact to
    rounding, at a = 1/(8 sigma^2) and k0 of a natural packet.

    E_8 <= (a^8/8!) 16!/z^17 meets 2^-55 k0/z^2 from
    z^15 = 2^55 a^8 16!/(8! k0) up, and the bound
    (a^8/8!) k0 17!/z^18 meets it from z^16 = 2^55 a^8 17!/8! up; z_8 is
    the lesser, but no less than sqrt(2 (k0^2 + 6 a)), where
    J >= k0/(2 z^2).  It is raised by 2^-40 of itself against the rounding
    of the logs.  A bound past the float range (k0 below ~1e-292 at
    sigma 0.5) is taken as +inf, which z never reaches.  The log-gammas and
    ln 17 are module constants (_SWITCH_LOGS), in their places in the sums
    that use them, so that z_8 keeps its bits.
    """
    floor = math.sqrt(2.0 * (k0 * k0 + 6.0 * a))
    log_2m_fact, log_m_fact, log_2m1 = _SWITCH_LOGS
    log_c = _LOG_2_55 + _LAPLACE_TERMS * math.log(a) + log_2m_fact - log_m_fact
    z_m = min(_exp_or_inf((log_c - math.log(k0)) / (2 * _LAPLACE_TERMS - 1)),
              _exp_or_inf((log_c + log_2m1) / (2 * _LAPLACE_TERMS)))
    return max(z_m, floor) * (1.0 + 2.0 ** -40)


def _laplace_sine(packet: GaussianPacket) -> Callable[[float], float]:
    """J(z) = int_0^inf sin(k0 zeta) Phi(zeta) exp(-z zeta) dzeta, for a
    natural packet.

    With Phi = exp(-a zeta^2), a = 1/(8 sigma^2), this closes to
    Im[(1/2) sqrt(pi/a) w((k0 + i z) / (2 sqrt(a)))], w the Faddeeva
    function, which J sums at every z, within FADDEEVA_IM_REL_ERR of J.
    J > 0 for every z >= 0: a decreasing weight under sin(k0 zeta) leaves
    each positive half-period ahead of the next.  The series route and Q_c
    call it at z = 0 and below the packet's far point (_laplace_far), past
    which the branch transform sums J's far form instead.
    """
    sigma, k0 = packet.sigma, packet.k0
    root = math.sqrt(2.0) * sigma  # 1/(2 sqrt(a))
    pref = math.sqrt(2.0 * math.pi) * sigma  # (1/2) sqrt(pi/a)
    re_arg = k0 * root

    def j(z: float) -> float:
        return pref * faddeeva(complex(re_arg, root * z)).imag

    return j


def _laplace_far(packet: GaussianPacket) -> tuple[float, tuple[float, ...]]:
    """J's far form for kernels.branch_transform, for a natural packet:
    (z0, (e_1, .., e_P)), with J(z) = sum_p e_p z^-2p from z0 up to within
    (2^-54 + 2^-56) of J's lower bound k0/(2 z^2).

    Past z_8 (_laplace_switch) J is its Laplace (Watson) expansion,

      J = sum_{m<8} (-a)^m (2m)!/m! Im (z - i k0)^-(2m+1) + E_8,

    the Taylor series of exp(-a zeta^2) integrated term by term:
    e^-x's alternating Taylor remainder is at most x^8/8!, and
    |sin(k0 zeta)| <= min(1, k0 zeta), so |E_8| <= (a^8/8!) min(16!/z^17,
    k0 17!/z^18), at most 2^-54 of k0/(2 z^2) from z_8 up; and
    J >= k0/(z^2 + k0^2) - 6 a k0/z^4 >= k0/(2 z^2) wherever
    z^2 >= 2 (k0^2 + 6 a), which z_8 keeps.  Each term, expanded
    binomially in kappa = k0/z <= 1/sqrt(2), gives

      e_p = (-1)^(p-1) k0^(2p-1) sum_{m < min(p, 8)} C(2p - 1, 2m) (2m)!/m! y^m,

    y = a/k0^2: the Watson coefficients of sin(k0 zeta) times the 8 terms of
    exp(-a zeta^2), all of one sign, which alternates with p.  Once p >= 8
    each |e_(p+1)|/(|e_p| z^2) is at most q_p = (2p + 1) 2p/((2p - 13)(2p -
    14)) kappa^2, so the terms past P sum to at most |e_(P+1)| z^-2(P+1)/(1
    - q_(P+1)).  P is the least from 8 up at which that is at most 2^-56 of
    k0/(2 z^2) at z0 = max(z_8, 1), the least z of a branch node; where 16
    terms do not get there, z0 is raised to where they do, with q_17 <= 1/2.
    Both bounds fall with z faster than k0/(2 z^2), so they hold past z0.
    Each e_p is k0^(2p-1), a normal float for k0 from 2^-30 (~9.3e-10) up,
    times a sum of positive products from 1 up, within a few units of
    roundoff of it where y^7 <= 2^960 (sigma k0 above ~1e-21): a power of y
    that underflows moves the sum by under 2^-1000.  Elsewhere, and where
    z0 or a coefficient passes the float range, z0 is +inf, with e_1 = k0
    alone, which bounds J by k0/z^2, and J is summed at every node.
    """
    sigma, k0 = packet.sigma, packet.k0
    a = 1.0 / (8.0 * sigma * sigma)
    start = max(_laplace_switch(a, k0), 1.0)
    if not (start < math.inf and k0 >= _FAR_LEAST_K0):
        return math.inf, (k0,)
    y_powers = list(itertools.accumulate(itertools.repeat(a / (k0 * k0), _LAPLACE_TERMS - 1),
                                         operator.mul, initial=1.0))
    if not y_powers[-1] <= 2.0 ** 960:
        return math.inf, (k0,)
    odd = list(itertools.accumulate(itertools.repeat(k0 * k0, _FAR_TERMS), operator.mul,
                                    initial=k0))
    kappa2 = (k0 / start) ** 2
    inverse_square = 1.0 / (start * start)
    coeffs = []
    scale = 1.0  # z0^-2(p-1)
    for p, (row, ratio, power) in enumerate(zip(_WATSON_ROWS, _WATSON_RATIOS, odd), start=1):
        e_p = power * sum(map(operator.mul, row, y_powers))
        q = ratio * kappa2
        if p > _LAPLACE_TERMS and q < 1.0 and e_p * scale <= 2.0 ** -57 * k0 * (1.0 - q):
            break
        coeffs.append(e_p if p % 2 else -e_p)
        scale *= inverse_square
    else:  # 16 terms: z0 is raised to where q_17 <= 1/2 and the remainder holds
        e_p = abs(coeffs.pop())
        start = max(start, k0 * math.sqrt(2.0 * _WATSON_RATIOS[-1]), _exp_or_inf(
            (math.log(e_p) - math.log(k0) + _LOG_2_58) / (2 * _FAR_TERMS))) * (1.0 + 2.0 ** -40)
    # only a k0 above 1 can overflow a coefficient, and then the last is the largest
    if not (start < math.inf and abs(coeffs[-1]) < math.inf):
        return math.inf, (k0,)
    return start, tuple(coeffs)


def _branch_transform(j: Callable[[float], float], packet: GaussianPacket, vn: float) -> Estimate:
    """The sine transform of the branch-cut term of T_B(-v0, zeta) times Phi
    at strength vn, which the series route adds to its residue moments,
    with the zeta integral taken first in closed form: (2/pi) int_1^inf
    h(z) J(z) dz for a natural packet, with J = j (_laplace_sine) below
    its far point and J's far form (_laplace_far) from there.

    |sin(k0 zeta)| <= k0 zeta and Phi <= 1 give J(z) <= k0/z^2, k0 the
    far form's e_1.  h >= 0 and J > 0, so J's error, w's within
    FADDEEVA_IM_REL_ERR of J or the far form's within 2^-54 + 2^-56 of it,
    is at most FADDEEVA_IM_REL_ERR |val|, which the err adds to the branch
    transform's.
    """
    val, err = branch_transform(vn, j, _laplace_far(packet))
    return Estimate(val, err + FADDEEVA_IM_REL_ERR * abs(val))


def _gaussian_sine_moments(k: float, sigma: float, m: float) -> Iterator[float]:
    """Moments M_2p = int_0^inf sin(k z) z^(2p) exp(-z^2/(8 sigma^2)) dz.

    Yields M_0, M_2, ... as the caller walks p upward.  The base moment
    M_0 = m is given (J(0) of _laplace_sine, in closed form); higher moments
    follow the two-term recurrence obtained by integrating the Gaussian
    factor by parts (interleaving the odd cosine moments).
    """
    alpha = 1.0 / (8.0 * sigma * sigma)
    yield m
    c_odd = (1.0 - k * m) / (2.0 * alpha)  # C_1
    for p in itertools.count(1):
        s = 2 * p
        m = ((s - 1) * m + k * c_odd) / (2.0 * alpha)
        yield m
        c_odd = (s * c_odd - k * m) / (2.0 * alpha)


def ior_series(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """R_c by term-by-term sine moments of the residue series plus the
    branch transform.

    Converges for packets dominated by above-barrier components; for wide
    packets (narrow momentum spread below the threshold) the moment series
    blows up and SeriesDivergenceError is raised, mirroring the regime
    where this representation stops converging.  M_0 is J(0); the branch
    transform calls J at the ~18 nodes of its rule below the packet's far
    point z0, about z_8 (~32 at sigma 0.5), and sums the rest from J's far
    form (_branch_transform).
    """
    vn = _require_subcritical(v0, params)
    packet = _natural_packet(packet, params)

    j = _laplace_sine(packet)
    moments = _gaussian_sine_moments(packet.k0, packet.sigma, j(0.0))
    coeffs = fb_moments(-vn)

    total = 0.0
    comp = 0.0
    max_term = 0.0
    small = 0
    grow = 0
    grow_start = 0.0
    prev_mag = None
    converged = False
    inv_fact = 1.0  # 1/(2p)!
    for p, moment, d_p in zip(range(MAX_SERIES_TERMS + 1), moments, coeffs):
        term = d_p * moment * inv_fact
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        mag = abs(term)
        if mag > max_term:
            max_term = mag
        if mag <= settings.abs_tol * (1.0 + abs(total)):
            small += 1
            if small >= 3:
                converged = True
                break
        else:
            small = 0
        if prev_mag is not None and mag > prev_mag:
            if grow == 0:
                grow_start = prev_mag
            grow += 1
            if grow >= 5 and mag > 1e3 * max(grow_start, 1e-300):
                raise SeriesDivergenceError(
                    "sine-moment series diverges: packet is dominated by "
                    "below-threshold momentum components"
                )
        else:
            grow = 0
        prev_mag = mag
        inv_fact /= (2 * p + 1) * (2 * p + 2)
    if not converged:
        raise SeriesDivergenceError(
            f"sine-moment series did not converge within {MAX_SERIES_TERMS} terms"
        )
    if max_term > 1e12 * max(abs(total), 1e-30):
        raise SeriesDivergenceError(
            "sine-moment series lost all precision to cancellation"
        )
    br, br_err = _branch_transform(j, packet, vn)
    return Estimate(total + br, br_err + max_term * 1e-15 + settings.abs_tol)


# the least -k bound ior_momentum compares with ulps: below the smallest
# normal float, 2^-1022, the tau rule sums on the absolute grid 2^-1074 and
# adds steps of it to its err, which no bound on the integral covers;
# 2^-1000 is 2^22 times that float
_SKIP_FLOOR = 2.0 ** -1000


# the least natural sigma of the momentum route: below ~7.3e-77 the tau
# rule's strip bound forms width^4 = (2 sigma^2 cos 2d)^-2, d <= 0.75, past
# the float range (numerics._strip_bound)
_MOMENTUM_MIN_SIGMA = 1e-76


def _momentum_cell(
    packet: GaussianPacket, v0: float, params: PhysicalParams,
) -> tuple[GaussianPacket, float, float]:
    """The natural packet, strength and natural kappa_c of a checked
    momentum-route cell: 0 < v0 < mu c^2, and the packet's natural sigma
    at least _MOMENTUM_MIN_SIGMA (ValueError below)."""
    vn = _require_subcritical(v0, params)
    if vn == 0.0:
        # no barrier: the threshold collapses and R_c degenerates to the
        # free-flight weight; treat via a vanishing-height limit instead
        raise ValueError("ior_momentum requires v0 > 0; use qc_expectation for v0 = 0")
    natural = _natural_packet(packet, params)
    if natural.sigma < _MOMENTUM_MIN_SIGMA:
        raise ValueError(f"sigma {packet.sigma!r} is {natural.sigma!r} in natural units, below "
                         f"{_MOMENTUM_MIN_SIGMA!r}, where the momentum route's tau rule "
                         f"leaves the float range")
    return natural, vn, kappa_c(vn)


def ior_momentum(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """R_c by the closed momentum-space form (see momentum_split), cheaper.

    The result is momentum_split's R_c bit for bit.  The -k integral is
    skipped where its closed-form bound (_minus_bound) is at most a quarter
    ulp of plus and of plus's err, so that neither R_c's value nor its err
    can change by a bit.  A bound under 2^-1000 counts as 2^-1000
    (_SKIP_FLOOR), where the tau rule's subnormal sums cannot reach.
    """
    packet, vn, kc = _momentum_cell(packet, v0, params)
    plus = _weight(packet, vn, settings, kc, +1)
    bound = max(_minus_bound(packet, vn, kc), _SKIP_FLOOR)
    if bound <= 0.25 * math.ulp(plus.value) and bound <= 0.25 * math.ulp(plus.err):
        return plus
    minus = _weight(packet, vn, settings, kc, -1)
    return Estimate(plus.value - minus.value, plus.err + minus.err)


def _minus_bound(packet: GaussianPacket, vn: float, kc: float) -> float:
    """A closed-form upper bound on the -k weight int_kc^inf rho_-(k) w(k) dk,
    for a natural packet, strength vn and natural kappa_c.

    With s = k - kappa_c, d = kappa_c + k0 and lam = 4 sigma^2 d,
    (k + k0)^2 >= d^2 + 2 d s gives rho_-(k) <= rho_-(kappa_c) e^(-lam s).
    In w = E sqrt((E + 1 + vn)/((k + kappa_c)(E - vn + 1)(k - kappa_c))):
    E <= E(kappa_c) + s = 1 + vn + s, the ratio (E + 1 + vn)/(E - vn + 1)
    falls with E from 1 + vn, and k + kappa_c >= 2 kappa_c.  So

      minus <= rho_-(kappa_c) sqrt((1 + vn)/(2 kappa_c))
               [(1 + vn) Gamma(1/2) lam^(-1/2) + Gamma(3/2) lam^(-3/2)],

    formed under one exp, so that only the last rounding can underflow.
    Where lam^(3/2) underflows to 0 (k0 and kappa_c near 1e-150 and below)
    there is no bound: it is +inf, and ior_momentum sums the -k weight.
    Dropping e^(-2 sigma^2 s^2) alone keeps it well above the integral:
    over 3,282 cells in three unit systems whose -k weight is a normal
    float, the weight was at most 0.99953 of it and its err 6e-5 of it.
    """
    s2 = packet.sigma * packet.sigma
    d = kc + packet.k0
    lam = 4.0 * s2 * d
    top = 1.0 + vn
    try:
        factor = math.sqrt(2.0 * s2 / math.pi) * math.sqrt(top / (2.0 * kc)) * (
            top * math.sqrt(math.pi / lam)
            + 0.5 * math.sqrt(math.pi) / (lam * math.sqrt(lam))
        )
    except ZeroDivisionError:  # lam^(3/2) underflows to 0: no bound, the weight is summed
        return math.inf
    return math.exp(math.log(factor) - 2.0 * s2 * d * d)


def _crossing_integrand(packet: GaussianPacket, vn: float) -> Callable[[float], float]:
    """k -> sqrt(2 sigma^2/pi) E sqrt((E + 1 + vn)/(E - vn + 1)), for a
    natural packet and strength vn.

    This is the tau-integrand of both weights over their Gaussian: at
    k = kappa_c cosh(tau), rho(k) w(k) dk = exp(-2 sigma^2 (k -+ k0)^2)
    times it, dtau.  Here rho = momentum_density(packet, k, sign),
    w = sqrt(E^2/((E - vn)^2 - 1)) and E = sqrt(k^2 + 1).  kappa_c's
    identity kappa_c^2 + 1 = (1 + vn)^2 factors the denominator:

      (E - vn)^2 - 1 = (E - 1 - vn)(E - vn + 1)
          = (k - kappa_c)(k + kappa_c)(E - vn + 1)/(E + 1 + vn),

    and dk/sqrt(k^2 - kappa_c^2) = dtau takes both threshold roots, so
    what is left is smooth and positive down to k = kappa_c, with no
    below-threshold branch.

    It holds numerics.integrate_sqrt_endpoint's contract, within
    sqrt((2 + vn)/(2 - vn)) < sqrt(3) in the strip.  With r(E) = (E + 1 +
    vn)/(E + 1 - vn), which falls from 1 + vn toward 1, w = pref E
    sqrt(r(E)) rises with k while w/k falls.  At k_y = kappa_c cosh(tau +
    i y), |y| <= pi/4, with k = kappa_c cosh(tau): |k_y^2 + 1| <= k^2 + 1,
    since |cosh(2tau + 2iy)| <= cosh 2tau, so |E_y| <= E; Re(k_y^2) >= 0,
    so Re E_y >= 1, where E_y is analytic; and then |r(E_y)| <= 1 + 2
    vn/(2 - vn) while r(E) >= 1.  So
    |w(k_y)| <= sqrt((2 + vn)/(2 - vn)) w(k).
    """
    pref = packet.sigma * math.sqrt(2.0 / math.pi)
    e_sum = 1.0 + vn
    e_diff = 1.0 - vn
    hypot, sqrt = math.hypot, math.sqrt

    def w(k: float) -> float:
        e_k = hypot(k, 1.0)
        return pref * e_k * sqrt((e_k + e_sum) / (e_k + e_diff))

    return w


def _weight(
    packet: GaussianPacket, vn: float, settings: QuadratureSettings, kc: float, sign: int,
) -> Estimate:
    """The +k (sign 1) or -k (sign -1) weight of a natural packet, on the tau rule."""
    return integrate_sqrt_endpoint(
        _crossing_integrand(packet, vn), kc, sign * packet.k0,
        2.0 * packet.sigma * packet.sigma, settings,
    )


def momentum_split(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[Estimate, Estimate, Estimate]:
    """R_c by the closed momentum-space form, with its +k and -k weights.

    Both half-line integrals run from kappa_c upward with the crossing-time
    weight sqrt(E_k^2/((E_k - v0)^2 - mu^2 c^4)); below-threshold momentum
    components contribute nothing (they cross instantaneously).  Each is
    taken in k = kappa_c cosh(tau), where the weight's inverse-square-root
    start cancels exactly against dk (see _crossing_integrand), on
    numerics.integrate_sqrt_endpoint's trapezoid rule, over a window closed
    from each weight's own Gaussian, with a step and an err sized a priori
    from the integrand's bound in a strip.  Where kappa_c lies far below
    the packet (v0 = 1e-12 mu c^2) the window runs ~15 wide in tau and a
    cell takes a few hundred evaluations.
    Returns (R_c, plus, minus), where plus and minus are the
    above-threshold weights of the +k and -k components, each the tau
    rule's Estimate, with its own integral's err, relative to it: abs_tol
    is not read.  R_c.value == plus.value - minus.value exactly and
    R_c.err == plus.err + minus.err.

    This is the momentum route's reference form: ior_momentum returns its
    first element bit for bit.

    Where the -k exponent 2 sigma^2 (kappa_c + k0)^2 is 800 or more, minus
    is Estimate(0.0, 0.0) with no integrand evaluation: the weight lies
    below half the smallest subnormal float.  Between exp's underflow
    (~745) and 800 the rule scales its Gaussian by e^(exponent), so that a
    weight of a few steps of 2^-1074 keeps its value and an err of at
    least one step.
    """
    packet, vn, kc = _momentum_cell(packet, v0, params)
    plus = _weight(packet, vn, settings, kc, +1)
    minus = _weight(packet, vn, settings, kc, -1)
    return Estimate(plus.value - minus.value, plus.err + minus.err), plus, minus


def qc_expectation(
    packet: GaussianPacket,
    params: PhysicalParams = NATURAL_UNITS,
) -> Estimate:
    """Free-flight relativistic correction factor for the packet.

    Q_c = k0 * int_0^inf sin(k0 zeta) T_F(zeta) Phi(zeta) dzeta; tends to
    sqrt(1 + (hbar k0)^2/(mu c)^2) for packets wide in position.  There is
    no barrier dependence by construction.  With T_F's branch integral
    taken outermost this is k0 [J(0) + (2/pi) int_1^inf sqrt(z^2-1)/z J(z) dz],
    J from _laplace_sine below its far point and from its far form
    (_laplace_far) past it: the series route's branch transform at
    G_B = 1.  J(0) is closed and the branch transform one rule sized a
    priori from the strength (h = 2^-3 at zero height), so it takes no
    settings.  The err is k0 times the branch transform's err plus the
    Faddeeva bound on J(0).
    """
    packet = _natural_packet(packet, params)
    j = _laplace_sine(packet)
    branch, branch_err = _branch_transform(j, packet, 0.0)
    j0 = j(0.0)
    return Estimate(
        packet.k0 * (j0 + branch),
        packet.k0 * (branch_err + FADDEEVA_IM_REL_ERR * abs(j0)),
    )


def _crossing_time(packet: GaussianPacket, barrier: BarrierSpec, params: PhysicalParams) -> float:
    """t_c = L/c, once the barrier is below the rest energy and the packet left
    of it; the one line that warns of leakage, so the default filter shows it once."""
    barrier.require_subcritical(params)
    packet.check_support(barrier.a)
    return barrier.length / params.c


def traversal_time(
    packet: GaussianPacket,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[Estimate, Estimate, Estimate]:
    """Expected barrier crossing time (tau_trav, tau_plus, tau_minus).

    tau_trav = t_c * R_c from the momentum route; the +/- parts are the
    crossing-time averages of tau_top over the corresponding momentum
    components above threshold.  Each is momentum_split's Estimate, value
    and err, times t_c.
    """
    t_c = _crossing_time(packet, barrier, params)
    return tuple(
        Estimate(t_c * value, t_c * err)
        for value, err in momentum_split(packet, barrier.v0, params, settings)
    )


def toa_difference(
    packet: GaussianPacket,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """Difference of mean arrival times without and with the barrier.

    Delta tau = (mu L / p0) Q_c - t_c R_c, p0 = hbar k0 and t_c = L/c,
    which is t_c times the natural-unit sine transform of the single
    difference kernel [T_F - T_B(-V_o)] Phi: Q_c/k0 - R_c in natural
    units.  Taking the difference inside one transform lets the
    barrier-free limit cancel exactly, since the kernel vanishes
    identically at V_o = 0.  The cell binds the T_B core of strength -V_o
    once, and each node takes its gap, barrier_free_gap's value bit for
    bit.  The err is the sine transform's, times t_c.
    """
    t_c = _crossing_time(packet, barrier, params)
    vn = barrier.v0 / params.rest_energy
    gap, err = _phi_transform(
        _tb_core(-vn).gap, _natural_packet(packet, params), settings, kappa_c(vn),
    )
    return Estimate(t_c * gap, t_c * err)


class Luminality(enum.Enum):
    SUPERLUMINAL = "superluminal"
    SUBLUMINAL = "subluminal"

    @classmethod
    def of(cls, rc: float) -> Luminality:
        """R_c < 1: the barrier is crossed faster than light would cross it."""
        return cls.SUPERLUMINAL if rc < 1.0 else cls.SUBLUMINAL


def superluminal_classify(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[Luminality, float]:
    """Classify the crossing as super- or subluminal, with a heuristic margin.

    The label is Luminality.of(R_c) on the momentum route.  The margin
    k0 - (kappa_c - sigma_k) is the packet's distance from the rule-of-thumb
    boundary: packets with k0 below kappa_c - sigma_k carry almost no
    above-threshold weight and cross superluminally.
    """
    res = ior_momentum(packet, v0, params, settings)
    margin = packet.k0 - (kappa_c(v0, params) - packet.sigma_k)
    return Luminality.of(res.value), margin

