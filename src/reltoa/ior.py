"""Effective refraction index, traversal times and the arrival-time difference.

The barrier's effect on a packet is summarized by the dimensionless factor
R_c (an effective index of refraction): the expected crossing time of the
barrier region is t_c * R_c with t_c = L/c the photon crossing time.  R_c is
computed by three independent routes that must agree,

  * direct   - oscillatory sine transform of T_B(-V_o, zeta) Phi(zeta),
               with T_B's value from barrier_factor's unchecked value-only
               core (kernels._barrier_value) at each node,
  * series   - term-by-term Gaussian sine moments of the residue series
               plus the sine transform of the kernel's branch-cut term,
               taken as one z-integral (kernels.branch_transform) of the
               closed-form (Faddeeva) sine transform of
               Phi(zeta) exp(-mu c z zeta / hbar); it runs no oscillatory
               quadrature,
  * momentum - the closed half-line momentum integrals above kappa_c, in
               u = sqrt(k - kappa_c) with the crossing weight's threshold
               root cancelled in closed form (momentum_split).  The value
               path ior_momentum takes the +k integral on a Gauss-Hermite
               pair in k where k0 sits 12 sigma_k above kappa_c, and skips
               the -k integral where a closed-form bound shows it cannot
               move a bit of the result.

Only imaginary parts (sine transforms) are ever formed; the real parts
carry a logarithmic divergence and no physics.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable, Iterator

from reltoa.classical import kappa_c
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    _barrier_value,
    barrier_free_gap,
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
from reltoa.wavepacket import GaussianPacket, phi_overlap

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


def _require_subcritical(v0: float, params: PhysicalParams) -> None:
    if not 0.0 <= v0 < params.rest_energy:
        raise ValueError(
            f"barrier height {v0} must lie in [0, mu c^2) = [0, {params.rest_energy})"
        )


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
    params: PhysicalParams,
    settings: QuadratureSettings,
    bandwidth: float,
) -> tuple[float, float]:
    """int_0^inf sin(k0 zeta) kernel(zeta) Phi(zeta) dzeta and its error.

    Every kernel transformed here is bounded by a small multiple of
    1 + 1/(scale*zeta), so the product is dropped past the window's end,
    taken in closed form where Phi(zeta) (4 + 1/(scale*zeta)) meets
    cut = 1e-3 abs_tol: zeta_4 where 4 Phi meets the cut, then end where
    (4 + 1/(scale*zeta_4)) Phi does, which lies past the crossing because
    the factor falls with zeta.  At abs_tol = 0 the window ends where Phi
    underflows.  bandwidth is the kernel's own largest wavenumber:
    kappa_c(v0, params) for T_B(-v0) and the gap T_F - T_B(-v0), whose
    residue terms go as cos(kappa_c zeta), and 0 for T_F.
    sine_transform_decaying takes [0, end] in one adaptive G10/K21 run,
    seeded at each period of the faster of sin(k0 zeta) and the kernel and
    graded toward the kernel's 1/zeta start.
    """
    scale = params.mu * params.c / params.hbar
    cut = 1e-3 * settings.abs_tol
    zeta_4 = _phi_reach(packet.sigma, 4.0, cut)
    end = _phi_reach(packet.sigma, 4.0 + 1.0 / (scale * zeta_4), cut)
    return sine_transform_decaying(
        lambda zeta: kernel(zeta) * phi_overlap(packet, zeta),
        packet.k0, end, bandwidth, settings,
    )


def ior_direct(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """R_c by direct sine transform of the barrier kernel against the packet.

    R_c = (mu c / hbar) * int_0^inf sin(k0 zeta) T_B(-v0, zeta) Phi(zeta) dzeta.
    The cell is checked once; each node takes barrier_factor's value, bit
    for bit, from kernels._barrier_value at the natural zeta barrier_factor
    forms.  That core forms no err, so past natural zeta ~ 36-38 it drops
    the branch-cut sum wherever the sum cannot move the value, where
    barrier_factor keeps it up to ~ 65 for its err's bits, and below that
    it accepts the branch-cut rule without forming its rounding bound.
    The sine transform is one adaptive G10/K21 run over Phi's closed-form
    window, seeded at each period of the faster of sin(k0 zeta) and T_B's
    cos(kappa_c zeta) terms (at v0 = 0, T_B = T_F has none, so its
    bandwidth is 0) and graded toward T_B's 1/zeta start; its err is judged
    against the total.  A Table 1 cell takes ~220 T_B values.
    """
    _require_subcritical(v0, params)
    scale = params.mu * params.c / params.hbar
    vn = -v0 / params.rest_energy
    mu_c, hbar = params.mu * params.c, params.hbar
    val, err = _phi_transform(
        lambda zeta: _barrier_value(vn, mu_c * zeta / hbar, settings),
        packet, params, settings, kappa_c(v0, params) if v0 > 0.0 else 0.0,
    )
    return Estimate(scale * val, scale * err)


def _laplace_sine(
    packet: GaussianPacket,
    params: PhysicalParams,
) -> Callable[[float], float]:
    """J(z) = int_0^inf sin(k0 zeta) Phi(zeta) exp(-mu c z zeta / hbar) dzeta.

    With Phi = exp(-a zeta^2), a = 1/(8 sigma^2), this closes to
    Im[(1/2) sqrt(pi/a) w((k0 + i mu c z / hbar) / (2 sqrt(a)))], w the
    Faddeeva function.  J > 0 for every z >= 0: a decreasing weight under
    sin(k0 zeta) leaves each positive half-period ahead of the next.
    """
    root = math.sqrt(2.0) * packet.sigma  # 1/(2 sqrt(a))
    pref = math.sqrt(2.0 * math.pi) * packet.sigma  # (1/2) sqrt(pi/a)
    re_arg = packet.k0 * root
    im_scale = params.mu * params.c / params.hbar * root

    def j(z: float) -> float:
        return pref * faddeeva(complex(re_arg, im_scale * z)).imag

    return j


def _branch_transform(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams,
) -> tuple[float, float]:
    # sine transform of the branch-cut term of T_B(-v0, zeta) times Phi,
    # which the series route adds to its residue moments, with the zeta
    # integral taken first in closed form: (2/pi) int_1^inf h(z) J(z) dz.
    # |sin(k0 zeta)| <= k0 zeta and Phi <= 1 give J(z) <= k0/(mu c z/hbar)^2.
    # h >= 0 and J > 0, so the Faddeeva error is at most its relative bound
    # times |val|.
    scale = params.mu * params.c / params.hbar
    val, err = branch_transform(v0, _laplace_sine(packet, params), packet.k0 / scale**2, params)
    return val, err + FADDEEVA_IM_REL_ERR * abs(val)


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
    where this representation stops converging.
    """
    _require_subcritical(v0, params)
    scale = params.mu * params.c / params.hbar

    m0 = _laplace_sine(packet, params)(0.0)
    moments = _gaussian_sine_moments(packet.k0, packet.sigma, m0)
    coeffs = fb_moments(-v0, params)

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
    br, br_err = _branch_transform(packet, v0, params)
    value = scale * (total + br)
    err = scale * (br_err + max_term * 1e-15 + settings.abs_tol)
    return Estimate(value, err)


def _density_seeds(packet: GaussianPacket, kc: float) -> tuple[float, ...]:
    # bracket the +k density core so the substitution engine resolves it
    # even when it sits far from the kappa_c endpoint
    offsets = (-12.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 12.0)
    return tuple(
        k
        for k in (packet.k0 + j * packet.sigma_k for j in offsets)
        if k > kc
    )


def _minus_seeds(packet: GaussianPacket, kc: float) -> tuple[float, float]:
    # the -k density exp(-2 sigma^2 (k + k0)^2) peaks at the kappa_c endpoint
    # and falls by a factor e per step in k there: mark one step and eight
    step = 1.0 / (4.0 * packet.sigma * packet.sigma * (kc + packet.k0))
    return kc + step, kc + 8.0 * step


# Gauss-Hermite rules for int e^(-x^2) f(x) dx: the positive roots of H_8 and
# H_16 and their weights 2^(n-1) n! sqrt(pi)/(n^2 H_(n-1)(x)^2) (Golub and
# Welsch, Math. Comp. 23 (1969) 221); each rule is symmetric about x = 0
_XGH8 = (
    0.381186990207322116854718885583691,
    1.157193712446780194720765779063100,
    1.981656756695842925854630639769310,
    2.930637420257244019223502705243600,
)
_WGH8 = (
    0.661147012558241291030415974495882,
    0.207802325814891879543258620285701,
    0.017077983007413475456203056436446,
    0.000199604072211367619206090452544,
)
_XGH16 = (
    0.273481046138152452158280401965015,
    0.822951449144655892582454496733943,
    1.380258539198880796372089669694580,
    1.951787990916253977434655414959890,
    2.546202157847481362159328705445890,
    3.176999161979956026813994559263700,
    3.869447904860122698719424098014810,
    4.688738939305818364688498648745610,
)
_WGH16 = (
    0.507929479016613741913517341790521,
    0.280647458528533675369463335379653,
    0.083810041398985829415420734900116,
    0.012880311535509973683464299931172,
    0.000932284008624180529914277305537,
    0.000027118600925378815120189143224,
    0.000000232098084486521065338749423,
    0.000000000265480747401118224470926,
)
# the +k core goes on the Gauss-Hermite pair where k0 - kappa_c is at least
# this many sigma_k: the weight is analytic in a disk of that radius about
# k0, the largest node sits 6.6 sigma_k from k0, and below kappa_c the
# density is under e^(-72) of its peak
_HERMITE_MARGIN = 12.0
# 32 eps: a bound on the rounding of the pair's 16-point sum
_HERMITE_ROUNDING = 2.0 ** -47
# the least -k bound ior_momentum compares with ulps: below the smallest
# normal float, 2^-1022, the engine sums on the absolute grid 2^-1074 and
# floors its err at one step of it per node, which no bound on the integral
# covers; 2^-1000 is 2^22 times that float
_SKIP_FLOOR = 2.0 ** -1000


def _momentum_threshold(v0: float, params: PhysicalParams) -> float:
    """kappa_c of a momentum-route barrier, after checking its height."""
    _require_subcritical(v0, params)
    if v0 == 0.0:
        # no barrier: the threshold collapses and R_c degenerates to the
        # free-flight weight; treat via a vanishing-height limit instead
        raise ValueError("ior_momentum requires v0 > 0; use qc_expectation for v0 = 0")
    return kappa_c(v0, params)


def ior_momentum(
    packet: GaussianPacket,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """R_c by the closed momentum-space form (see momentum_split), cheaper.

    Off the Gauss-Hermite path below, the result is momentum_split's R_c
    bit for bit.  Two integrals are run only where they can matter:

      * Where k0 - kappa_c >= 12 sigma_k, the +k weight is taken on the
        8- and 16-point Gauss-Hermite pair centred at k0 (_hermite_plus):
        24 evaluations instead of the adaptive integral's ~200.  Its value
        is G16 and its err |G8 - G16| plus G16's rounding; it is accepted
        where that err is within max(abs_tol, rel_tol |G16|), and elsewhere
        the adaptive integral runs as in momentum_split.
      * The -k integral is skipped where its closed-form bound
        (_minus_bound) is at most a quarter ulp of plus and of plus's err,
        so that neither R_c's value nor its err can change by a bit.  On a
        Gauss-Hermite cell, whose err is the pair's own, a bound within a
        quarter ulp of plus is skipped too and added to the err.

    A bound under 2^-1000 counts as 2^-1000 (_SKIP_FLOOR), where the
    engine's subnormal sums cannot reach.
    """
    kc = _momentum_threshold(v0, params)
    hermite = packet.k0 - kc >= _HERMITE_MARGIN * packet.sigma_k
    if hermite:
        plus, err_p = _hermite_plus(packet, v0, params, kc)
        hermite = err_p <= max(settings.abs_tol, settings.rel_tol * abs(plus))
    if not hermite:
        plus, err_p = _plus_integral(packet, v0, params, settings, kc)
    bound = max(_minus_bound(packet, v0, params, kc), _SKIP_FLOOR)
    if bound <= 0.25 * math.ulp(plus):
        if hermite:
            return Estimate(plus, err_p + bound)
        if bound <= 0.25 * math.ulp(err_p):
            return Estimate(plus, err_p)
    minus, err_m = _minus_integral(packet, v0, params, settings, kc)
    return Estimate(plus - minus, err_p + err_m)


def _crossing_weight(
    v0: float, params: PhysicalParams, kc: float, k0: float
) -> Callable[[float], float]:
    """dk -> w(k0 + dk) / sqrt(pi), w the crossing weight of _crossing_integrand in k.

    w(k) = E sqrt((E + R + v0)/((k + kc)(E - v0 + R)(k - kc))) / (hbar c), the
    weight sqrt(E^2/((E - v0)^2 - R^2)) factored as in _crossing_integrand;
    above kappa_c only.  k - kappa_c is formed as (k0 - kappa_c) + dk, so
    that it carries no cancellation where kappa_c is large.
    """
    hbar_c = params.hbar * params.c
    rest = params.rest_energy
    pref = 1.0 / (math.sqrt(math.pi) * hbar_c)
    e_sum = rest + v0
    e_diff = rest - v0
    gap = k0 - kc
    hypot, sqrt = math.hypot, math.sqrt

    def w(dk: float) -> float:
        k = k0 + dk
        e_k = hypot(hbar_c * k, rest)
        return pref * e_k * sqrt((e_k + e_sum) / ((k + kc) * (e_k + e_diff) * (gap + dk)))

    return w


def _hermite_plus(
    packet: GaussianPacket, v0: float, params: PhysicalParams, kc: float
) -> tuple[float, float]:
    """The +k weight on the Gauss-Hermite pair: (G16, |G8 - G16| + 32 eps G16).

    In x = sqrt(2) sigma (k - k0) the +k density times dk is
    e^(-x^2) dx/sqrt(pi), so the weight is int e^(-x^2) w(k) dx/sqrt(pi)
    with w from _crossing_weight, taken over the whole line.  That needs
    every node above kappa_c, which k0 - kappa_c >= 12 sigma_k gives.  Far
    above the margin G8 and G16 agree to their last bits, so the err adds
    32 eps of G16 for the rounding of its 16 positive terms, about 8 eps
    each and the sum's 15 additions.
    """
    w = _crossing_weight(v0, params, kc, packet.k0)
    step = math.sqrt(2.0) * packet.sigma_k  # dk/dx

    def rule(nodes: tuple[float, ...], weights: tuple[float, ...]) -> float:
        return sum(a * (w(-x * step) + w(x * step)) for x, a in zip(nodes, weights))

    g8 = rule(_XGH8, _WGH8)
    g16 = rule(_XGH16, _WGH16)
    return g16, abs(g8 - g16) + _HERMITE_ROUNDING * g16


def _minus_bound(packet: GaussianPacket, v0: float, params: PhysicalParams, kc: float) -> float:
    """A closed-form upper bound on the -k weight int_kc^inf rho_-(k) w(k) dk.

    With s = k - kappa_c, d = kappa_c + k0 and lam = 4 sigma^2 d,
    (k + k0)^2 >= d^2 + 2 d s gives rho_-(k) <= rho_-(kappa_c) e^(-lam s).
    In w = E sqrt((E + R + v0)/((k + kappa_c)(E - v0 + R)(k - kappa_c)))
    / (hbar c): E <= E(kappa_c) + hbar c s = R + v0 + hbar c s, the ratio
    (E + R + v0)/(E - v0 + R) falls with E from (R + v0)/R, and
    k + kappa_c >= 2 kappa_c.  So

      minus <= rho_-(kappa_c) sqrt((R + v0)/(2 R kappa_c))
               [(R + v0)/(hbar c) Gamma(1/2) lam^(-1/2) + Gamma(3/2) lam^(-3/2)],

    formed under one exp, so that only the last rounding can underflow.
    Dropping e^(-2 sigma^2 s^2) alone keeps it well above the integral:
    over 3,282 cells in three unit systems whose -k weight is a normal
    float, the weight was at most 0.99953 of it and its err 6e-5 of it.
    """
    s2 = packet.sigma * packet.sigma
    d = kc + packet.k0
    lam = 4.0 * s2 * d
    rest = params.rest_energy
    top = rest + v0
    factor = math.sqrt(2.0 * s2 / math.pi) * math.sqrt(top / (2.0 * rest * kc)) * (
        top / (params.hbar * params.c) * math.sqrt(math.pi / lam)
        + 0.5 * math.sqrt(math.pi) / (lam * math.sqrt(lam))
    )
    return math.exp(math.log(factor) - 2.0 * s2 * d * d)


def _crossing_integrand(
    packet: GaussianPacket, v0: float, params: PhysicalParams, sign: int, kc: float
) -> Callable[[float], float]:
    """t -> 2u rho(k) w(k) / (1 - t)^2 at u = t/(1 - t), k = kc + u^2.

    rho = momentum_density(packet, k, sign), w = sqrt(E^2/((E - v0)^2 - R^2)),
    E = sqrt((hbar k c)^2 + R^2), R = mu c^2.  kappa_c's identity
    (hbar kappa_c c)^2 + R^2 = (R + v0)^2 factors the denominator:

      (E - v0)^2 - R^2 = (E - R - v0)(E - v0 + R)
          = (hbar c)^2 (k - kappa_c)(k + kappa_c)(E - v0 + R)/(E + R + v0),

    so sqrt(k - kappa_c) = u cancels against dk = 2u du, leaving

      (2/(hbar c)) rho E sqrt((E + R + v0)/((k + kappa_c)(E - v0 + R))),

    smooth and positive down to u = 0, with no below-threshold branch.
    It divides by the map's (1 - t)^2 last, and returns 0.0 before forming
    E where rho's Gaussian underflows.
    """
    s2 = packet.sigma * packet.sigma
    neg_two_s2 = -2.0 * s2
    centre = sign * packet.k0
    hbar_c = params.hbar * params.c
    rest = params.rest_energy
    pref = 2.0 * math.sqrt(2.0 * s2 / math.pi) / hbar_c
    e_sum = rest + v0
    e_diff = rest - v0
    exp, hypot, sqrt = math.exp, math.hypot, math.sqrt

    def h(t: float) -> float:
        onemt = 1.0 - t
        u = t / onemt
        k = kc + u * u
        d = k - centre
        g = exp(neg_two_s2 * d * d)
        if g == 0.0:
            return 0.0  # every other factor is finite and positive
        e_k = hypot(hbar_c * k, rest)
        return pref * g * e_k * sqrt(
            (e_k + e_sum) / ((k + kc) * (e_k + e_diff))
        ) / (onemt * onemt)

    return h


def _plus_integral(
    packet: GaussianPacket, v0: float, params: PhysicalParams,
    settings: QuadratureSettings, kc: float,
) -> tuple[float, float]:
    """The +k weight on the seeded adaptive integral of momentum_split."""
    return integrate_sqrt_endpoint(
        _crossing_integrand(packet, v0, params, +1, kc), kc, settings,
        _density_seeds(packet, kc),
    )


def _minus_integral(
    packet: GaussianPacket, v0: float, params: PhysicalParams,
    settings: QuadratureSettings, kc: float,
) -> tuple[float, float]:
    """The -k weight of momentum_split: exactly (0.0, 0.0) where the
    closure's Gaussian is 0.0 at kappa_c, else its seeded adaptive integral."""
    s2 = packet.sigma * packet.sigma
    d = kc + packet.k0  # the closure's k - centre at k = kc, centre = -k0
    if math.exp(-2.0 * s2 * d * d) == 0.0:
        return 0.0, 0.0
    return integrate_sqrt_endpoint(
        _crossing_integrand(packet, v0, params, -1, kc), kc, settings,
        _minus_seeds(packet, kc),
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
    taken in u = sqrt(k - kappa_c), where the weight's inverse-square-root
    start cancels in closed form (see _crossing_integrand).  Returns
    (R_c, plus, minus), where plus and minus are the above-threshold
    weights of the +k and -k components, each with its own integral's
    error estimate; R_c.value == plus.value - minus.value exactly and
    R_c.err == plus.err + minus.err.

    This is the momentum route's reference form: ior_momentum returns its
    first element bit for bit, except where it takes the +k integral on the
    Gauss-Hermite pair.

    Each integral is seeded at its own density's scale.  The +k density
    peaks at k0, and its integral is seeded at k0 + j sigma_k for j from
    -12 to 12 (those above kappa_c; see _density_seeds).  The -k density
    exp(-2 sigma^2 (k + k0)^2) peaks at the endpoint kappa_c and falls by a
    factor e per step = 1/(4 sigma^2 (kappa_c + k0)) in k there, so its
    integral is seeded at kappa_c + step and kappa_c + 8 step
    (_minus_seeds).

    When the -k Gaussian exp(-2 sigma^2 (kappa_c + k0)^2), formed in the
    closure's operations, is 0.0 at the endpoint, minus is Estimate(0.0,
    0.0) without an integral.  That is exact, not a cut-off: every node has
    k >= kappa_c, and the rounded k + k0, the exponent and exp are monotone
    in k, so each node would return 0.0 and the engine would sum zeros.
    """
    kc = _momentum_threshold(v0, params)
    plus, err_p = _plus_integral(packet, v0, params, settings, kc)
    minus, err_m = _minus_integral(packet, v0, params, settings, kc)
    return Estimate(plus - minus, err_p + err_m), Estimate(plus, err_p), Estimate(minus, err_m)


def qc_expectation(
    packet: GaussianPacket,
    params: PhysicalParams = NATURAL_UNITS,
) -> Estimate:
    """Free-flight relativistic correction factor for the packet.

    Q_c = k0 * int_0^inf sin(k0 zeta) T_F(zeta) Phi(zeta) dzeta; tends to
    sqrt(1 + (hbar k0)^2/(mu c)^2) for packets wide in position.  There is
    no barrier dependence by construction.  With T_F's branch integral
    taken outermost this is k0 [J(0) + (2/pi) int_1^inf sqrt(z^2-1)/z J(z) dz],
    J from _laplace_sine: the series route's branch transform at G_B = 1.
    J(0) is closed and the branch transform a fixed rule, so it takes no
    settings.  The err is k0 times the branch transform's err plus the
    Faddeeva bound on J(0).
    """
    branch, branch_err = _branch_transform(packet, 0.0, params)
    j0 = _laplace_sine(packet, params)(0.0)
    return Estimate(
        packet.k0 * (j0 + branch),
        packet.k0 * (branch_err + FADDEEVA_IM_REL_ERR * abs(j0)),
    )


def traversal_time(
    packet: GaussianPacket,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[float, float, float]:
    """Expected barrier crossing time (tau_trav, tau_plus, tau_minus).

    tau_trav = t_c * R_c from the momentum route; the +/- parts are the
    crossing-time averages of tau_top over the corresponding momentum
    components above threshold.
    """
    barrier.require_subcritical(params)
    packet.check_support(barrier.a)
    res, plus, minus = momentum_split(packet, barrier.v0, params, settings)
    t_c = barrier.length / params.c
    return t_c * res.value, t_c * plus.value, t_c * minus.value


def toa_difference(
    packet: GaussianPacket,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Difference of mean arrival times without and with the barrier.

    Delta tau = (mu L / p0) (Q_c - R_c), with both factors taken from the
    same sine-transform machinery so the barrier-free limit cancels
    exactly: the integrand is the single difference kernel
    [T_F - T_B(-V_o)] Phi, which vanishes identically at V_o = 0.
    """
    barrier.require_subcritical(params)
    packet.check_support(barrier.a)
    gap, _err = _phi_transform(
        lambda zeta: barrier_free_gap(barrier.v0, zeta, params, settings),
        packet, params, settings, kappa_c(barrier.v0, params),
    )
    # (mu L / p0) * k0 * gap = (mu L / hbar) * gap
    return params.mu * barrier.length / params.hbar * gap


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

