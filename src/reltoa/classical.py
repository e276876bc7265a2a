"""Classical relativistic arrival-time oracles and asymptotic formulas.

These serve double duty: physics outputs in their own right, and
independent cross-checks for the quantum kernels.  The flight-time
integrand used here carries the launch kinetic energy in its numerator,

    rate(q') = (H - V(q_start)) / (c * sqrt((H - V(q'))^2 - mu^2 c^4)),

with H the conserved total energy.  That convention is what the closed
per-region formulas and the above-barrier crossing time tau_top realize,
and it is what the quantized kernels reproduce in their classical limit.
Nothing here runs a quadrature engine: the potential is piecewise
constant, the resummation of R_c's double series is finite arithmetic, and
its branch-cut term is kernels.lorentzian_transform's, on the branch
transform's one rule, sized a priori from the barrier strength.
"""

from __future__ import annotations

import math
import operator

from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    lorentzian_transform,
)
from reltoa.numerics import SeriesDivergenceError

__all__ = [
    "ClassicallyForbiddenError",
    "crtoa_quadrature",
    "classical_toa_closed",
    "tau_top",
    "kappa_c",
    "rc_asymptotic",
    "qc_asymptotic",
    "rc_series_resummation",
]


class ClassicallyForbiddenError(ValueError):
    """The classical path hits a turning point (below-barrier input)."""


def _gamma_p(p: float, params: PhysicalParams) -> float:
    r = p / (params.mu * params.c)
    return math.sqrt(1.0 + r * r)


def crtoa_quadrature(
    q: float,
    p: float,
    barrier: BarrierSpec | None,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Arrival time at the origin by quadrature of the flight-time integrand
    over [q, 0], split at the barrier edges.

    The potential is piecewise constant, so the rate is one float on each
    section and its integral is rate * (right - left) in closed form; a
    section with (H - V)^2 <= (mu c^2)^2 raises ClassicallyForbiddenError.
    """
    if p == 0.0:
        raise ValueError("crtoa_quadrature requires p != 0")
    rest = params.rest_energy
    e_p = math.hypot(p * params.c, rest)

    def v_at(x: float) -> float:
        if barrier is not None and barrier.a < x < barrier.b:
            return barrier.v0
        return 0.0

    h_total = e_p + v_at(q)
    e_launch = e_p  # kinetic part at the start; H - V(q_start)

    lo, hi = (q, 0.0) if q < 0.0 else (0.0, q)
    cuts = [lo]
    if barrier is not None:
        for edge in (barrier.a, barrier.b):
            if lo < edge < hi:
                cuts.append(edge)
    cuts.append(hi)

    total = 0.0
    for left, right in zip(cuts, cuts[1:]):
        v_here = v_at(0.5 * (left + right))
        kin = h_total - v_here
        if kin * kin <= rest * rest:
            raise ClassicallyForbiddenError(
                f"turning point: (H - V)^2 <= (mu c^2)^2 on [{left}, {right}]"
            )

        # V is constant on the section, so the rate is one float
        rate = e_launch / (params.c * math.sqrt(kin * kin - rest * rest))
        total += rate * (right - left)
    # t = -sgn(p) * int_0^q ... = sgn(p) * int_q^0 ...; for q > 0 the
    # orientation flip and the sgn factor combine the same way
    return math.copysign(1.0, p) * (total if q < 0.0 else -total)


def classical_toa_closed(
    region: str,
    q0: float,
    p0: float,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Closed arrival-time expressions for starts in region I, II or III.

        I   (b < q0 < 0):  -mu q0 gamma / p0
        II  (a < q0 < b):  -mu (q0 - b) gamma / p0
                           - (b/c) sqrt(gamma^2 / ((gamma + vt)^2 - 1))
        III (q0 < a)    :  -mu (q0 + L) gamma / p0
                           + (L/c) sqrt(gamma^2 / ((gamma - vt)^2 - 1))

    with gamma = sqrt(1 + p0^2/(mu c)^2) and vt = V_o/(mu c^2).  Region III
    requires gamma - vt > 1 (above-barrier energy); region II is
    unconditional since gamma + vt > 1 always.
    """
    if p0 == 0.0:
        raise ValueError("classical_toa_closed requires p0 != 0")
    gamma = _gamma_p(p0, params)
    vt = barrier.v0 / params.rest_energy
    mu_over_p = params.mu / p0
    if region == "I":
        return -mu_over_p * q0 * gamma
    if region == "II":
        arg = (gamma + vt) ** 2 - 1.0
        return -mu_over_p * (q0 - barrier.b) * gamma - (
            barrier.b / params.c
        ) * math.sqrt(gamma * gamma / arg)
    if region == "III":
        arg = (gamma - vt) ** 2 - 1.0
        if arg <= 0.0:
            raise ClassicallyForbiddenError(
                "below-barrier classical input: (gamma - vt)^2 <= 1"
            )
        length = barrier.length
        return -mu_over_p * (q0 + length) * gamma + (
            length / params.c
        ) * math.sqrt(gamma * gamma / arg)
    raise ValueError("region must be 'I', 'II' or 'III'")


def kappa_c(
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Critical wavenumber sqrt(2 mu v0 (1 + v0/(2 mu c^2))) / hbar.

    Components with |k| below kappa_c cross instantaneously; above it the
    square root in the momentum-space refraction index is real.  Satisfies
    (hbar kappa_c c)^2 + (mu c^2)^2 = (mu c^2 + v0)^2 exactly.
    """
    if not 0.0 < v0 < params.rest_energy:
        raise ValueError("kappa_c requires 0 < v0 < mu c^2")
    return math.sqrt(
        2.0 * params.mu * v0 * (1.0 + v0 / (2.0 * params.rest_energy))
    ) / params.hbar


def tau_top(
    k: float,
    v0: float,
    length: float,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Above-barrier crossing time t_c sqrt(E_k^2 / ((E_k - v0)^2 - mu^2 c^4)).

    E_k = sqrt(hbar^2 k^2 c^2 + mu^2 c^4) and t_c = length/c.  Diverges as
    k -> kappa_c from above and tends to t_c as k -> inf.
    """
    rest = params.rest_energy
    e_k = math.hypot(params.hbar * k * params.c, rest)
    denom = (e_k - v0) ** 2 - rest * rest
    if denom <= 0.0:
        raise ClassicallyForbiddenError("tau_top requires k > kappa_c")
    t_c = length / params.c
    return t_c * math.sqrt(e_k * e_k / denom)


def rc_asymptotic(
    p0: float,
    v0: float,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """High-energy refraction index (p0/mu c) sqrt(E_p^2/((E_p-v0)^2 - mu^2 c^4))."""
    rest = params.rest_energy
    e_p = math.hypot(p0 * params.c, rest)
    denom = (e_p - v0) ** 2 - rest * rest
    if denom <= 0.0:
        raise ClassicallyForbiddenError("rc_asymptotic requires above-barrier p0")
    return p0 / (params.mu * params.c) * math.sqrt(e_p * e_p / denom)


def qc_asymptotic(p0: float, params: PhysicalParams = NATURAL_UNITS) -> float:
    """Relativistic correction sqrt(1 + p0^2/(mu c)^2) to the free arrival time."""
    return _gamma_p(p0, params)


def rc_series_resummation(
    p0: float,
    v0: float,
    j_max: int,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Partial resummation of the refraction-index double series.

    Each (j, k) term pairs gamma^(k+1) = (1 + x)^alpha, alpha = (k+1)/2 and
    x = (p0/mu c)^2, against x^(j+1) C(alpha, j+1) 2F1(1, j+1-alpha; j+2; -x),
    its binomial Taylor remainder after x^j.  Their difference is the
    partial sum sum_{n<=j} C(alpha, n) x^n, so each k's bracket grows by one
    term per j and the whole call is O(j_max^2) arithmetic.  Each bracket
    carries the outer factor (2j)!/(j!)^2 step^j, step x = v0/(2 mu c^2),
    in its own recurrence, so its terms stay in the float range where x^j
    alone would overflow.  The branch-cut term,
    (2/pi) int_1^inf sqrt(z^2-1)/z G_B(v0, z) x/(z^2 + x) dz, is
    kernels.lorentzian_transform's.  As j_max grows the result approaches
    rc_asymptotic whenever p0 sits well above the barrier threshold.  A
    term or sum that leaves the float range raises SeriesDivergenceError.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if p0 == 0.0:
        raise ValueError("rc_series_resummation requires p0 != 0")
    x = (p0 / (params.mu * params.c)) ** 2
    ratio = -v0 / (2.0 * params.rest_energy)
    step = params.mu * v0 / (2.0 * p0 * p0)
    alphas = [(k + 1) / 2.0 for k in range(j_max + 1)]
    # powers and brackets both carry the outer factor (2j)!/(j!)^2 step^j
    powers = [1.0] * (j_max + 1)  # C(alpha_k, j) x^j
    brackets = [1.0] * (j_max + 1)  # sum_{n<=j} C(alpha_k, n) x^n
    weights = [1.0]  # C(j, k) ratio^(j-k), k = 0 to j
    series = 0.0
    for j in range(j_max + 1):
        if j:
            growth = 2.0 * (2 * j - 1) / j * step  # the outer factor's ratio
            weights = [a + ratio * b for a, b in zip([0.0, *weights], [*weights, 0.0])]
            for k, alpha in enumerate(alphas):
                powers[k] *= (alpha - (j - 1)) / j * x * growth
                brackets[k] = growth * brackets[k] + powers[k]
        series += sum(map(operator.mul, weights, brackets))
        if not math.isfinite(series):
            raise SeriesDivergenceError(
                f"R_c resummation leaves the float range at j = {j} "
                f"(p0={p0!r}, v0={v0!r}, j_max={j_max})"
            )
    br, _err = lorentzian_transform(v0 / params.rest_energy, x)
    return series + br
