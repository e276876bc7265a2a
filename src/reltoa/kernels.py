"""Time-kernel factors for the free and square-barrier arrival-time operators.

The free factor T_F is 1 plus a branch-cut quadrature; the barrier factor
T_B is the residue factor F_B plus the branch-cut term.  F_B is a moment
integral of the below-threshold crossing weight.  In natural units (v in
units of mu c^2, zeta in units of hbar/(mu c); in others F_B(v, zeta) is
F_B(v/(mu c^2), zeta mu c/hbar)) and with a = |v|,

    v < 0:  F_B = (2/pi) int_0^kappa_c W(s) cos(zeta s) ds,
            W = E/sqrt(1 - (E - a)^2),  E = sqrt(1 + s^2),  kappa_c = sqrt(2a + a^2)
    v > 0:  F_B = (2/pi) int_0^x* W(x) cosh(zeta x) dx,
            W = E/sqrt((E + a)^2 - 1),  E = sqrt(1 - x^2),  x* = sqrt(2a - a^2).

W is the momentum route's crossing weight continued below the threshold.
Its inverse square root at the end cancels exactly under s = kappa_c
sin(theta) (x = x* sin(theta)), which leaves
F_B = (2/pi) int_0^(pi/2) g(theta) C(zeta s) dtheta
with g = E sqrt((E + 1 + a)/(E + 1 - a)) for v < 0 and
E sqrt((E + 1 - a)/(E + 1 + a)) for v > 0, smooth and positive, and C = cos
or cosh.  The theta-integrand is even and periodic, so the trapezoid rule
converges spectrally (Trefethen and Weideman, SIAM Rev. 56 (2014) 385).
Its size is set a priori from zeta and from each strength's reach and
analytic strip (_TbCore.fb_size), and its node pairs (w_k g_k, s_k) are
cached per (v, n), all in the standard library.  Every value is a pure function
of its arguments, whichever calls or threads came first.

The series route keeps the power series F_B = sum_p D_p zeta^(2p)/(2p)!
termwise.  Its coefficients are the moments
D_p = (-1)^p (2/pi) int_0^kappa_c s^(2p) W(s) ds of the same weight (no
sign change for v > 0), summed over one fixed 512-interval rule and cached
per strength as the series walks p upward.  Each D_p is one math.fsum of
the nodes' products, largest s first: fsum is correctly rounded, so its
bits do not depend on the order, which only sets its cost (_more_moments).

The branch-cut integrals int_1^inf sqrt(z^2-1)/z G(z) e^(-x z) dz (G = 1
for T_F, G_B for T_B, 1 - G_B for the gap T_F - T_B) and the series route's
branch transform run on one nested trapezoid rule per strength.  Under
z = hypot(1, s), s = delta sinh(u), delta = 1 - |v|/(mu c^2), the integrand
is even in u, analytic in |Im u| < pi/2 at every strength and decays doubly
exponentially, so the rule at u_k = k 2^-m converges exponentially.  Its
nodes are cached per (|v|/(mu c^2), m) and extended lazily; m is sized a
priori, from the strength and zeta for the Laplace integrals
(_TbCore.branch_size) and from the strength alone for the branch
transform (branch_transform).  A value sums only the nodes its arguments select,
however far the lists were extended.  The branch transform calls its j
only below the point where j's far form, a sum of inverse powers
e_p z^-2p, takes over, and sums the nodes past it as sum_p e_p S_p from
the rule's inverse-power sums S_p, built once per strength (_far_sums).

Each err is a closed form of the value pieces: F_B's is its rule's
rounding bound, a few operations on the rule's cached weight sums; the
branch term's is a fixed multiple of its value, the rule's rounding bound
at the Laplace mean of x (z - 1), which stays below 3/2
(_TbCore.branch_term); where T_B skips the branch-cut sum it is B (below); and the branch
transform's is its sum's rounding bound, with the far sum's own, plus a
bound on the tail past its last node.  That rounding bound bounds the error because of the a-priori
sizing: each rule is exact to rounding, its sum within its own rounding
bound of the rule with twice the nodes, which the tests check over |v| < 1
and zeta up to 750 (assert_rules_settled in the kernel tests), and the
branch transform's within its err of the rule with eight or sixteen times
its nodes.
No level test runs: fb_size and branch_size pick each rule's one size,
and raise QuadratureError past the cap, more than 32,768 F_B intervals or
4,096 branch-cut nodes in the rule of twice the nodes, or where that
rule's last node would overflow s^2 (natural zeta below 2.6e-153 to
3.0e-153, by strength).

T_F is T_B at v = 0: there F_B = 1 and G_B = 1 exactly, so free_factor
is the T_B core at zero height.  Past natural zeta x = 32 that core skips
the branch-cut sum where it cannot change the value's bits.  Since
sqrt(z^2-1)/z <= 1 and 0 < G_B <= G_max = (1 - v^2)^(-1/2), the integral is
at most G_max e^-x/x; twice that, times 2/pi, is a bound B on the scaled
branch value and on its err.  Where B is below a quarter-ulp of F_B's
value, adding the term rounds back to F_B's value, which is returned, and
B joins the err in place of the branch term's (_branch_negligible).  The
skip first fires near x = 34 at v = 0, 35-39 for v < 0 up to -0.999 and
at x = 32 for v > 0.

The kernel-factor entries check each argument once (_strength,
_natural_zeta) and hand the zeta, in natural units, to the T_B core of the
strength (_TbCore), the one place F_B and the branch cut are summed; the
direct route and toa_difference bind it once per cell and call its value
(gap) at every node of their sine transform.  No kernel factor reads a
quadrature setting.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from reltoa.numerics import (
    DEFAULT_SETTINGS,
    Estimate,
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
    gen_binomial,
    integrate_semiinf_exp,
)

__all__ = [
    "PhysicalParams",
    "NATURAL_UNITS",
    "BarrierSpec",
    "free_factor",
    "gb_factor",
    "fb_series",
    "barrier_factor",
    "branch_transform",
    "lorentzian_far",
    "barrier_free_gap",
    "region_kernel",
    "momentum_kernel_f",
    "momentum_kernel_g",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Rest mass, light speed and reduced action defining the unit system."""

    mu: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mu", "c", "hbar"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def rest_energy(self) -> float:
        return self.mu * self.c * self.c


NATURAL_UNITS = PhysicalParams()


@dataclass(frozen=True)
class BarrierSpec:
    """Square barrier of height v0 on (a, b) with a < b < 0.

    The length is b - a > 0.  (The source convention "L = a - b" together
    with a < b would make the length negative; every formula downstream
    treats L as positive, so |b - a| is what this class exposes.)
    """

    v0: float
    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("v0", "a", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.a < self.b < 0.0:
            raise ValueError("barrier edges must satisfy a < b < 0")
        if not self.v0 > 0.0:
            raise ValueError("barrier height v0 must be positive")

    @property
    def length(self) -> float:
        return self.b - self.a

    def is_subcritical(self, params: PhysicalParams) -> bool:
        """True when v0 sits below the rest-mass energy (the validity regime)."""
        return self.v0 < params.rest_energy

    def require_subcritical(self, params: PhysicalParams) -> None:
        if not self.is_subcritical(params):
            raise ValueError(
                f"barrier height {self.v0} is not below the rest-mass energy "
                f"{params.rest_energy}; outside the validity regime"
            )


def free_factor(zeta: float, params: PhysicalParams = NATURAL_UNITS) -> Estimate:
    """Free time-kernel factor T_F(zeta) = 1 + (2/pi) * branch-cut integral.

    Strictly decreasing in zeta, -> 1 as zeta -> inf, and diverging like
    2*hbar/(pi*mu*c*zeta) as zeta -> 0+.  It is T_B(0, zeta), bit for bit:
    the T_B core's estimate at zero height, where F_B = (1.0, 0.0) and
    G_B = 1, so it skips the branch-cut sum from natural zeta x ~ 34 on.
    """
    return _tb_core(0.0).estimate(_natural_zeta(zeta, params, "free_factor"))


def _strength(v0: float, params: PhysicalParams, name: str) -> float:
    """v0/(mu c^2), once v0 is finite and |v0| below the rest energy."""
    # before any F_B rule or branch nodes: a NaN key matches nothing
    if not math.isfinite(v0):
        raise ValueError(f"{name} requires a finite v0, got {v0}")
    if not abs(v0) < params.rest_energy:
        raise ValueError(
            f"{name} requires |v0| below the rest energy {params.rest_energy}, got {v0}"
        )
    return v0 / params.rest_energy


def _natural_zeta(zeta: float, params: PhysicalParams, name: str) -> float:
    """mu c zeta/hbar, once 0 < zeta < inf and that product is > 0: it
    underflows to 0 where zeta is below the smallest float times
    hbar/(mu c), and the kernels diverge at zeta = 0."""
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"{name} requires zeta > 0, got {zeta}")
    x = params.mu * params.c * zeta / params.hbar
    if not x > 0.0:
        raise ValueError(f"{name} requires mu c zeta/hbar > 0, got {zeta} in {params}")
    return x


def gb_factor(
    v0: float,
    z: float,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Branch-cut factor G_B(v0, z): the half-sum with its i -> -i partner.

    Equals Re[1 - (v0/mu c^2)^2/z^2 + 2i sqrt(z^2-1) (v0/mu c^2)/z^2]^(-1/2);
    real, finite, and even in v0 for |v0| below the rest-mass energy.  It
    is the branch-cut nodes' form (_gb) at s = sqrt((z - 1)(z + 1)), which
    keeps its digits as z -> 1 and |v0| -> mu c^2.
    """
    a = abs(_strength(v0, params, "gb_factor"))
    if not 1.0 <= z < math.inf:
        raise ValueError(f"gb_factor requires 1 <= z < inf, got {z}")
    return _gb(a, (1.0 - a) * (1.0 + a), math.sqrt((z - 1.0) * (z + 1.0)), z)


def _gb(a: float, one_minus_a2: float, s: float, z: float) -> float:
    """G_B at strength a = |v|/(mu c^2) and z = hypot(1, s), given
    one_minus_a2 = (1 - a)(1 + a): z Re[(1 - a^2 + s^2 + 2i a s)^(-1/2)],
    gb_factor's bracket times z^2 with z^2 - 1 written as s^2, so that
    nothing cancels near z = 1 or the rest energy; 1.0 at a = 0."""
    return z * (complex(one_minus_a2 + s * s, 2.0 * a * s) ** -0.5).real if a else 1.0


# --- residue factor F_B ------------------------------------------------------

_UNIT_ROUNDOFF = 2.0 ** -53
_TWO_OVER_PI = 2.0 / math.pi
# below the normal range floats round on the absolute grid 2^-1074
_MIN_NORMAL = 2.0 ** -1022
_MIN_SUBNORMAL = 2.0 ** -1074
# the rule sizes and the moment rule, in intervals of [0, pi/2]
_FB_MIN_INTERVALS = 32
_FB_MAX_INTERVALS = 1 << 15
_MOMENT_INTERVALS = 512
_MOMENT_CHUNK = 32  # moments added per extension of a cached entry


def _fb_reach(v: float) -> float:
    """End of the crossing-weight integral, in natural units: kappa_c for
    v < 0, x* for v > 0."""
    a = abs(v)
    return math.sqrt(a * (2.0 + a)) if v < 0.0 else math.sqrt(a * (2.0 - a))


def _fb_nodes(v: float, n: int) -> list[tuple[float, float, float]]:
    """(s_k, ln g_k, w_k) at theta_k = k pi/(2n), k = 0..n, in natural units.

    s = reach * sin(theta); w_k = 1/n, halved at both ends, is the
    trapezoid weight times 2/pi.  E = sqrt(1 -+ s^2) is formed without
    cancellation: for v > 0, 1 - s^2 = (1 - a)^2 + (x* cos(theta))^2.
    """
    a = abs(v)
    reach = _fb_reach(v)
    sign = 1.0 if v < 0.0 else -1.0
    nodes = []
    for k in range(n + 1):
        s = reach * math.sin(math.pi * k / (2 * n))
        if v < 0.0:
            e = math.hypot(1.0, s)
            ln_e = 0.5 * math.log1p(s * s)
        else:
            e = math.hypot(1.0 - a, reach * math.sin(math.pi * (n - k) / (2 * n)))
            ln_e = math.log(e)
        weight = (0.5 if k in (0, n) else 1.0) / n
        nodes.append((s, ln_e + sign * math.atanh(a / (1.0 + e)), weight))
    return nodes


class _FbRule:
    """The n-interval trapezoid rule for F_B(v, .), v in units of mu c^2:
    F_B sums its (w_k g_k, s_k) pairs, F_B - 1 (the gap's) its columns s, m, w2."""

    __slots__ = ("v", "cosine", "fn", "reach", "pairs", "s", "m", "w2", "c_sum", "cs_sum")

    def __init__(self, v: float, n: int) -> None:
        nodes = _fb_nodes(v, n)
        s = tuple(node[0] for node in nodes)
        c = [w * math.exp(ln_g) for _s, ln_g, w in nodes]  # w g
        self.v, self.cosine, self.reach = v, v < 0.0, s[-1]
        self.fn = math.cos if self.cosine else math.cosh  # C
        self.pairs = tuple(zip(c, s))
        self.s = s
        self.m = tuple(w * math.expm1(ln_g) for _s, ln_g, w in nodes)  # w (g - 1)
        self.w2 = tuple(2.0 * w for _s, _ln_g, w in nodes)
        self.c_sum = math.fsum(c)
        self.cs_sum = math.fsum(map(operator.mul, c, s))

    def total(self, x: float, drop_unity: bool = False) -> float:
        """The rule's sum at natural zeta x.

        C is cos for v < 0 and cosh for v > 0.  With drop_unity the terms
        are those of F_B - 1, summed as (g - 1) C(x s) -+ 2 S(x s / 2)^2
        (S = sin or sinh), since the weights sum to one.  A sum that leaves
        the float range raises SeriesDivergenceError; past it no cosh(x
        reach) overflows, since the last node is s = reach.
        """
        fn = self.fn
        try:
            if drop_unity:
                scaled = math.fsum(map(operator.mul, self.m, map(fn, map(x.__mul__, self.s))))
                half_fn = math.sin if self.cosine else math.sinh
                halves = [t * t for t in map(half_fn, map((0.5 * x).__mul__, self.s))]
                unity = math.fsum(map(operator.mul, self.w2, halves))
                total = scaled - unity if self.cosine else scaled + unity
            else:
                total = math.fsum([c * fn(x * s) for c, s in self.pairs])
        except OverflowError:
            total = math.inf
        if math.isinf(total):
            raise SeriesDivergenceError(f"F_B({self.v}, {x}) overflows a float")
        return total

    def evaluate(self, x: float) -> tuple[float, float]:
        """F_B's sum at natural zeta x (total) and its rounding bound.

        The bound allows 6 units of roundoff per node value and 6 per unit
        of x * s in C's argument, whose rounding C amplifies.
        """
        total = self.total(x)
        if self.cosine:
            return total, _UNIT_ROUNDOFF * (6.0 * self.c_sum + 6.0 * x * self.cs_sum)
        # positive terms: scaled by 2^-53 first, so that the bound stays
        # finite where the sum does
        return total, (6.0 + 6.0 * (x * self.reach)) * (_UNIT_ROUNDOFF * total)


_FB_RULES: dict[tuple[float, int], _FbRule] = {}


def _fb_rule(v: float, n: int) -> _FbRule:
    """The cached n-interval rule of strength v (natural units)."""
    rule = _FB_RULES.get((v, n))
    if rule is None:
        # setdefault: threads racing here end up sharing one rule
        rule = _FB_RULES.setdefault((v, n), _FbRule(v, n))
    return rule


# D_p per strength v (in units of mu c^2): the D_p so far, the weights
# times s^(2p) that continue them, and the nodes' s^2, largest s first
_FB_MOMENTS: dict[float, tuple[tuple[float, ...], ...]] = {}


def _more_moments(vn: float) -> tuple[tuple[float, ...], ...]:
    """The cached moments of strength vn, extended by _MOMENT_CHUNK coefficients.

    D_p is the same sum of the same products whichever call extends the
    entry, so an entry is a pure function of vn and its length, and
    threads racing here store equal entries.  The nodes are summed largest
    s first.  fsum is correctly rounded in any order, so the order moves
    no bit of D_p, but over the ~500-bit spread of s^(2p) at p ~ 30 an
    ascending walk grows fsum's list of partials at every node and takes
    ~15 times as long.  A D_p that overflows a float ends the extension
    before it, and a call that can add no D_p raises SeriesDivergenceError,
    so a walk yields every finite D_p first.
    """
    entry = _FB_MOMENTS.get(vn)
    if entry is None:
        nodes = _fb_nodes(vn, _MOMENT_INTERVALS)[::-1]
        coeffs: tuple[float, ...] = ()
        powers = tuple(w * math.exp(ln_g) for _s, ln_g, w in nodes)
        squares = tuple(s**2 for s, _ln_g, _w in nodes)
    else:
        coeffs, powers, squares = entry
    sign = -1.0 if vn < 0.0 else 1.0
    new = []
    for p in range(len(coeffs), len(coeffs) + _MOMENT_CHUNK):
        try:
            total = math.fsum(powers)
        except OverflowError:
            total = math.inf
        if math.isinf(total):
            if not new:
                raise SeriesDivergenceError(f"moment D_{p} of F_B({vn}, .) overflows a float")
            break
        new.append(sign**p * total)
        powers = tuple(map(operator.mul, powers, squares))
    entry = (coeffs + tuple(new), powers, squares)
    _FB_MOMENTS[vn] = entry
    return entry


def fb_moments(v: float) -> Iterator[float]:
    """Power-series coefficients D_p of F_B(v, zeta) = sum_p D_p zeta^(2p)/(2p)!,
    at strength v in units of mu c^2 and natural zeta.

    Yields D_0, D_1, ... as the caller walks p upward.  D_p is the moment
    (-1)^p (2/pi) int_0^kappa_c s^(2p) W(s) ds of the crossing weight (no
    sign change for v > 0), from the fixed 512-interval theta rule and
    cached per strength.  |v| must lie below 1; that is checked here,
    before the first D_p.  The walk raises SeriesDivergenceError at the
    first D_p that overflows a float (D_649 at v = -0.999999, D_743 at
    v = -0.9); ior_series takes at most 601.
    """
    return _walk_moments(_strength(v, NATURAL_UNITS, "fb_moments"))


def _walk_moments(vn: float) -> Iterator[float]:
    """D_0, D_1, ... of strength vn, extending its cache entry as p walks past it."""
    for p in itertools.count():
        entry = _FB_MOMENTS.get(vn)
        while entry is None or p >= len(entry[0]):
            entry = _more_moments(vn)
        yield entry[0][p]


def fb_series(v0: float, zeta: float, params: PhysicalParams = NATURAL_UNITS) -> Estimate:
    """Residue factor F_B(v0, zeta) as its moment integral, with signed v0.

    The physics callers pass v0 = -V_o for a barrier of height V_o (the
    kernel is stated for T_B(-V_o, zeta)); passing +V_o yields the F_B
    entering T_B(+V_o, zeta).  |v0| must lie below the rest energy.  F_B
    is finite at zeta = 0, so zeta = 0, and a zeta whose natural value
    underflows to 0, give F_B(v0, 0).  The err is the theta rule's
    rounding bound (see _TbCore.fb_size).
    """
    vn = _strength(v0, params, "fb_series")
    if not 0.0 <= zeta < math.inf:
        raise ValueError(f"fb_series requires zeta >= 0, got {zeta}")
    return Estimate(*_tb_core(vn).fb(params.mu * params.c * zeta / params.hbar))


# --- branch-cut integrals --------------------------------------------------

_BRANCH_CUT = 40.0  # nodes past x (z - 1) = 40 carry < e^-40 of the integral
_BRANCH_MAX_NODES = 1 << 12  # per Laplace integral


# the branch-cut sum is skipped only past this natural zeta, a little below
# where a skip first fires for |F_B| < 2 (x ~ 34); below it the check costs
# one comparison
_SKIP_MIN_X = 32.0


def _branch_bound(a: float, x: float) -> float:
    """B = (2/pi) 2 e^-x G_max/x, G_max = (1 - a^2)^(-1/2), at strength
    a = |v|/(mu c^2) and natural zeta x > 0: a bound on branch_integral's
    value and on its err.

    int_1^inf sqrt(z^2-1)/z G_B e^(-x z) dz <= G_max e^-x/x, since
    sqrt(z^2-1)/z <= 1 and G_B <= G_max; the factor 2 covers the rule's
    e^-37 error, its err (~1e-12 of the value) and the rounding of each.
    A subnormal B gains the branch err's two steps of 2^-1074
    (_TbCore.branch_term), so that it still bounds that err where its own
    rounding on that grid is coarse.
    """
    bound = _TWO_OVER_PI * 2.0 * math.exp(-x) / (x * math.sqrt((1.0 - a) * (1.0 + a)))
    return bound + 2.0 * _MIN_SUBNORMAL if bound < _MIN_NORMAL else bound


def _branch_negligible(a: float, x: float, fb_val: float) -> bool:
    """True past x = _SKIP_MIN_X where B = _branch_bound(a, x) is below a
    quarter-ulp of fb_val: then fb_val plus the scaled branch value rounds
    back to fb_val, since the gap to fb_val's neighbours is at least
    ulp(fb_val)/2.  The skip test of the T_B core's estimate and value."""
    return x > _SKIP_MIN_X and _branch_bound(a, x) < 0.25 * math.ulp(fb_val)


# the branch rule's step changes form at x = 8*37/pi^2 (~30); see branch_size
_PI_SQUARED = math.pi**2
_STEP_SWITCH = 8.0 * 37.0 / _PI_SQUARED
# the level of the step h/2 at x -> 0 (h -> pi^2/37), and the last level
# whose breakpoint _level_breaks finds; past e^-x's underflow (x ~ 745),
# where every branch-cut sum is 0, the level is 7
_LEAST_LEVEL = 3
_LAST_LEVEL = 8
# from here up the branch rule's last s^2 is finite (see branch_size)
_FINITE_S2_X = 1e-140


def _step_level(x: float) -> int:
    """The level of the step h/2 of the branch-cut rule at natural zeta x,
    from h itself (_TbCore.branch_size)."""
    step = (_PI_SQUARED / (37.0 + x * _PI_SQUARED / 8) if x <= _STEP_SWITCH
            else 0.73 / math.sqrt(x))
    return math.ceil(-math.log2(0.5 * step))


@functools.cache
def _level_breaks() -> tuple[float, ...]:
    """The least float x at which _step_level reaches each level from
    _LEAST_LEVEL + 1 to _LAST_LEVEL, found on first use.

    _step_level does not fall as x grows, so its level at x is
    _LEAST_LEVEL plus the breakpoints at or below x.  Each is walked, a
    float at a time, from its closed form: h = 2^(2 - L), at
    x = 8 (4 pi^2 - 37)/pi^2 for L = 4 and x = (0.73 2^(L-2))^2 beyond.
    """
    breaks = []
    for level in range(_LEAST_LEVEL + 1, _LAST_LEVEL + 1):
        x = 8.0 * (4.0 * _PI_SQUARED - 37.0) / _PI_SQUARED if level == 4 else (
            0.73 * 2.0 ** (level - 2)) ** 2
        while _step_level(x) >= level:
            x = math.nextafter(x, 0.0)
        while _step_level(x) < level:
            x = math.nextafter(x, math.inf)
        breaks.append(x)
    return tuple(breaks)


# per (vn, level): the node columns (w, c, d) over k = 1, 2, ...
_BRANCH_NODES: dict[tuple[float, int], tuple[tuple[float, ...], ...]] = {}


def _branch_nodes(vn: float, level: int, count: int) -> tuple[tuple[float, ...], ...]:
    """The nodes u_k = k 2^-level of strength vn = |v|/(mu c^2), k = 1 to at
    least count (at most _BRANCH_MAX_NODES, and u_count <= 512): w = z - 1
    (as s^2/(1 + z)) and the weight h (s/z)^2 delta cosh(u) times G_B (c)
    and times 1 - G_B (d).

    Node k has the same floats whichever call computed it, and an extension
    replaces the entry at once, so threads need no lock.
    """
    nodes = _BRANCH_NODES.get((vn, level), ((), (), ()))
    if len(nodes[0]) >= count:
        return nodes
    h = 0.5**level
    delta = 1.0 - vn
    one_minus_v2 = delta * (1.0 + vn)
    # an extension doubles the list but stops at the node cap and at
    # u = 512, where sinh and cosh stay finite
    end = min(max(count, 2 * len(nodes[0])), _BRANCH_MAX_NODES, 512 << level)
    new = []
    for k in range(len(nodes[0]) + 1, end + 1):
        s = delta * math.sinh(k * h)
        z = math.hypot(1.0, s)
        base = h * (s / z) ** 2 * delta * math.cosh(k * h)
        g = _gb(vn, one_minus_v2, s, z)
        new.append((s * s / (1.0 + z), base * g, base * (1.0 - g)))
    nodes = _BRANCH_NODES[(vn, level)] = tuple(map(operator.add, nodes, zip(*new)))
    return nodes


def branch_integral(v0: float, zeta: float, params: PhysicalParams) -> Estimate:
    """Branch-cut term of T_B(v0, zeta), with its error estimate:

        (2/pi) * int_1^inf exp(-mu c |zeta| z / hbar) sqrt(z^2-1)/z G_B(v0, z) dz

    The err is a fixed multiple of the value, at least two steps of 2^-1074
    where the value is subnormal (the core's branch_term).
    """
    vn = _strength(v0, params, "branch_integral")
    if not 0.0 < abs(zeta) < math.inf:
        raise ValueError(f"branch_integral requires 0 < |zeta| < inf, got {zeta}")
    x = _natural_zeta(abs(zeta), params, "branch_integral")
    return Estimate(*_tb_core(vn).branch_term(x))


# the most inverse-power terms of a far form that branch_transform sums
_FAR_TERMS = 16


# per (vn, level): the branch transform's rule over its count nodes as
# (z, c, sums, spread), z_k = 1 + w_k, the weights c_k, and per node K the
# row of S_p(K) = sum_{K <= k < count} c_k z_k^-2p, p = 1 .. _FAR_TERMS,
# and the ratio B_1(K)/S_1(K) that bounds their rounding (_far_sums)
_FAR_SUMS: dict[tuple[float, int], tuple[tuple, tuple, tuple, tuple]] = {}
# per p, the units of roundoff per unit of |e_p| S_p(K) besides the spread:
# 3p for c_k z_k^-2p, one for the product with e_p and one for all second-order terms
_FAR_UNITS = tuple(3.0 * p + 2.0 for p in range(1, _FAR_TERMS + 1))


def _transform_size(vn: float) -> tuple[int, int]:
    """(level, count) of branch_transform's rule at strength vn = |v|/(mu c^2):
    h = 2^-2 from vn = 0.1 up and 2^-3 below, out to u = 40 + ln(1/delta)."""
    level = 2 if vn >= 0.1 else 3
    return level, int((40.0 - math.log(1.0 - vn)) * (1 << level))


def _far_sums(vn: float, level: int, count: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The cached inverse-power sums of the branch transform's rule of
    strength vn at level, count nodes: a pure function of (vn, level),
    since count is one, built once and shared through setdefault.

    Each c_k z_k^-2p is c_k times 1/(z_k z_k) p times, within 3p units of
    roundoff, and each S_p(K) is summed from the last node down, so its
    rounding is at most 2^-53 times the sum B_p(K) of the partial sums it
    passed.  B_p(K)/S_p(K) is the mean of k - K + 1 under the terms of
    S_p(K), which z_k^-2 weights further toward K at each p, so the
    spread B_1(K)/S_1(K) bounds it at every p.
    """
    entry = _FAR_SUMS.get((vn, level))
    if entry is None:
        w, c, _d = _branch_nodes(vn, level, count)
        zs = tuple(map((1.0).__add__, w[:count]))
        inverse_squares = [1.0 / (z * z) for z in reversed(zs)]
        terms = c[count - 1::-1]
        sums = []
        for _p in range(_FAR_TERMS):
            terms = list(map(operator.mul, terms, inverse_squares))
            sums.append(list(itertools.accumulate(terms)))
        spread = map(operator.truediv, itertools.accumulate(sums[0]), sums[0])
        entry = _FAR_SUMS.setdefault((vn, level), (
            zs, c[:count], tuple(zip(*sums))[::-1], tuple(spread)[::-1]))
    return entry


def lorentzian_far(x: float) -> tuple[float, tuple[float, ...]]:
    """The far form of x/(z^2 + x), x > 0, for branch_transform: from
    z0 = max(4 sqrt(x), 1) up it is sum_p x (-x)^(p-1) z^-2p, p = 1 .. 16,
    to within q^16 (1 + q)/(1 - q) < 2^-63 of itself, q = x/z^2 <= 1/16.
    Where x^16 passes the float range (x ~ 1e19, z0 past 1e10) no node
    takes it: z0 is inf."""
    coeffs = list(itertools.accumulate(itertools.repeat(-x, _FAR_TERMS - 1), operator.mul,
                                       initial=x))
    if not math.isfinite(coeffs[-1]):
        return math.inf, ()
    return max(4.0 * math.sqrt(x), 1.0), tuple(coeffs)


def branch_transform(
    v: float,
    j: Callable[[float], float],
    j_bound: float,
    far: tuple[float, tuple[float, ...]],
) -> Estimate:
    """(2/pi) int_1^inf sqrt(z^2-1)/z G_B(v, z) j(z) dz, with its error estimate,
    for 0 <= j(z) <= j_bound/z^2 and a strength v in units of mu c^2.

    far = (z0, (e_1, .., e_P)), P <= 16, is j's far form: from z0 up j(z)
    is sum_p e_p z^-2p, to within j's own error.  j is called only below z0.

    One pass of the branch-cut rule at u_k = k h out to u = 40 + ln(1/delta),
    where z ~ e^40/2 whatever the strength, with h sized a priori from the
    strength alone: h = 2^-2 from |v| = 0.1 up and 2^-3 below.  The nodes
    z_k >= z0 are summed as sum_p e_p S_p(K), S_p(K) = sum_{k >= K} c_k
    z_k^-2p, from a table built once per strength (_far_sums), and the
    nodes below z0 as c_k j(z_k).
    The integrand's singularities sit on Im u = pi/2; as v -> 0 the pole of
    (s/z)^2 and G_B's branch point merge at u = i pi/2 into a double pole.
    Against the h = 2^-6 rule, over the Laplace-sine J of the series route
    (sigma 0.25 to 3000, k0 0.01 to 10) and x/(z^2 + x) (x 1e-6 to 1e6),
    the h = 2^-2 rule departs by up to 163 units of roundoff of the value
    at v = 0, 21 at v = 0.01 and 8.6 at v = 0.05, but by at most 5.8 from
    v = 0.1 on, where it is exact to rounding; the h = 2^-3 rule departs by
    at most 3.1 at every strength.  The err is the sum's rounding bound,
    12 units of roundoff per unit of the value (8 for a node, as in
    _TbCore.branch_term, and 4 for its product with j, the sum and the
    factor 2/pi), plus the far sum's own rounding bound,
    2^-53 sum_p (3p + 2 + B_1(K)/S_1(K)) |e_p| S_p(K) (_far_sums), since
    the e_p may alternate in sign, plus the tail past the last node,
    int_Z^inf G_B j dz <= j_bound/(Z sqrt(1 - v^2)) since
    G_B <= (1 - v^2)^(-1/2); j's own error is the caller's.
    """
    vn = abs(_strength(v, NATURAL_UNITS, "branch_transform"))
    start, coeffs = far
    if len(coeffs) > _FAR_TERMS:
        raise ValueError(f"branch_transform takes at most {_FAR_TERMS} far-form terms, "
                         f"got {len(coeffs)}")
    delta = 1.0 - vn
    zs, c, sums, spread = _far_sums(vn, *_transform_size(vn))
    near = bisect.bisect_left(zs, start)
    terms = list(map(operator.mul, c, map(j, zs[:near])))
    rounding = 0.0
    if near < len(zs) and coeffs:
        row = sums[near]
        terms.extend(map(operator.mul, coeffs, row))
        sizes = list(map(abs, coeffs))
        # count (P + 2) steps of 2^-1074 for the terms c_k z_k^-2p that
        # leave the normal range
        rounding = _UNIT_ROUNDOFF * (
            sum(map(operator.mul, sizes, map(operator.mul, _FAR_UNITS, row)))
            + spread[near] * sum(map(operator.mul, sizes, row))
        ) + len(zs) * (len(coeffs) + 2) * _MIN_SUBNORMAL * sum(sizes)
    value = math.fsum(terms)
    tail = j_bound / (zs[-1] * math.sqrt(delta * (1.0 + vn)))
    err = 12.0 * _UNIT_ROUNDOFF * value + rounding + tail
    return Estimate(_TWO_OVER_PI * value, _TWO_OVER_PI * err)


# --- the T_B core ------------------------------------------------------------


class _TbCore:
    """T_B's sums at one strength vn = v/(mu c^2), with what each would
    otherwise derive again bound once: T_F and T_B take its estimate,
    fb_series its fb, branch_integral its branch_term, barrier_free_gap its
    gap, and the direct route its value at every node.

    It holds F_B's reach, least = max(20/eta, 32) and the rule of the
    least size, and delta = 1 - |vn| and the level breakpoints
    (_level_breaks), which size the branch-cut rule.
    Wherever 1.2 x reach + 16 <= least, fb_size gives the least size, so
    one comparison picks the held rule (rule); elsewhere the rule of
    fb_size's size comes from _FB_RULES.  Its sums, F_B (F_B - 1 for
    the gap) and the branch-cut Laplace sum (branch), are each one pass of
    their rule at the size fb_size or branch_size states, and nothing else
    states a size.  A core is a pure function of its strength, cached in
    _TB_CORES as the rules are in _FB_RULES: shared through setdefault,
    with no lock.  The branch nodes are cached per |vn| in _BRANCH_NODES,
    since G_B is even in v.
    """

    __slots__ = ("vn", "a", "delta", "breaks", "reach", "least", "least_rule")

    def __init__(self, vn: float) -> None:
        self.vn, self.a = vn, abs(vn)
        self.delta = 1.0 - self.a
        self.breaks = _level_breaks()
        self.least_rule = None
        if not vn:  # F_B is 1 exactly, with no rule
            self.reach, self.least = 0.0, math.inf
            return
        self.reach = reach = _fb_reach(vn)
        eta = math.asinh(1.0 / reach) if vn < 0.0 else math.acosh(1.0 / reach)
        least = 20.0 / eta if eta else math.inf  # x* rounds to 1 near v = 1
        self.least = max(least, _FB_MIN_INTERVALS)
        with contextlib.suppress(QuadratureError):  # past the cap every size raises
            self.least_rule = _fb_rule(vn, self.fb_size(0.0))

    def fb_size(self, x: float) -> int:
        """The a-priori F_B rule size at natural zeta x (vn != 0), or
        QuadratureError where n passes _FB_MAX_INTERVALS.

        The rule has n/2 intervals, n the least power of two >= 1.2 * y_max
        + 16 and >= 20 / eta, at least 32.  y_max = x * reach counts the
        oscillations (growth, for v > 0) of C(x s) over the rule.  eta is
        the half-width of the strip about the real theta-axis in which g is
        analytic, set by the branch point of E: sinh(eta) = 1/kappa_c for
        v < 0 and cosh(eta) = 1/x* for v > 0, which narrows as v -> +1.
        The trapezoid error falls geometrically in n at a rate set by eta,
        so at that size the n/2-interval rule is exact to rounding: it
        differs from the n-interval rule by less than its own rounding
        bound, which the tests check over |v| < 1 and zeta up to 750, and
        its sum is F_B with that bound as the err.  The cap is passed for
        v > 0 from v ~ 0.9994 and for v < 0 from zeta kappa_c ~ 27,300.
        """
        # capped before the log, so that an infinite size raises as the cap does
        need = min(max(1.2 * (x * self.reach) + 16.0, self.least), 2.0 * _FB_MAX_INTERVALS)
        n = 1 << math.ceil(math.log2(need))
        if n > _FB_MAX_INTERVALS:
            raise QuadratureError(
                f"F_B({self.vn}, {x}) needs more than {_FB_MAX_INTERVALS} rule intervals"
            )
        return n >> 1

    def rule(self, x: float) -> _FbRule:
        """The F_B rule of size fb_size(x), vn != 0."""
        if 1.2 * (x * self.reach) + 16.0 <= self.least and self.least_rule:
            return self.least_rule
        return _fb_rule(self.vn, self.fb_size(x))

    def fb(self, x: float) -> tuple[float, float]:
        """F_B at natural zeta x and its err, the rule's rounding bound;
        exactly (1.0, 0.0) at vn = 0."""
        return self.rule(x).evaluate(x) if self.vn else (1.0, 0.0)

    def branch_size(self, x: float) -> tuple[int, int]:
        """(m, n): the a-priori level of the branch-cut rule at natural
        zeta x > 0, and its node count, the nodes u_k = k 2^-m below the u
        at which x (z - 1) reaches _BRANCH_CUT.

        The step h = 2^-m is the least at most pi^2/(37 + pi^2 x/8) for
        x <= 8*37/pi^2 (~30), and 0.73/sqrt(x) beyond.  The trapezoid error
        is about the integrand's size on Im u = b times e^(-2 pi b/h), for
        b below pi/2, where G_B's branch points and the pole of (s/z)^2
        sit.  There e^(-x (z - 1)) grows by at most e^(x (1 - cos b)) <=
        e^(x b^2/2), so the error is e^(-pi^2/h + pi^2 x/8) at b = pi/2 and
        e^(-2 pi^2/(x h^2)) at b = 2 pi/(x h) (< pi/2 for x h > 4): below
        e^-37 in each bracket.  So the rule is exact to rounding: it
        differs from the step-h/2 rule by less than its own rounding bound,
        e^-x times 2^-53 times (12 + 2x) T + 8x sum_k t_k w_k (branch_term),
        which the tests check over |v| < 1 and zeta up to 750.  The level
        of the step h/2 depends on x alone and does not fall as x grows,
        so it is read off the exact float breakpoints of _level_breaks: 3
        below x ~ 2.0, then 4 to 7 below x ~ 2183, where e^-x has long
        underflowed and every branch-cut sum is 0, and _step_level's
        formula from there.

        QuadratureError is raised where that step-h/2 rule could not be
        built: where its nodes pass _BRANCH_MAX_NODES, for x below
        ~4e-221, and where its last node's s = delta sinh(u) passes the
        square root of the largest float, so that w = s^2/(1 + z) would be
        inf.  So the rule reaches down to x between 2.6e-153 and 3.0e-153,
        by strength (2.87e-153 at v = 0).  That last node lies at or below
        u_cut, where delta sinh(u) = sqrt(w (w + 2)) < w + 1, w = 40/x, so
        the check runs only below x = _FINITE_S2_X.
        """
        w_cut = _BRANCH_CUT / x
        u_cut = math.asinh(math.sqrt(w_cut) * math.sqrt(w_cut + 2.0) / self.delta)
        fine = bisect.bisect_right(self.breaks, x)  # the level of step h/2
        fine = fine + _LEAST_LEVEL if fine < len(self.breaks) else _step_level(x)
        count = math.ldexp(u_cut, fine)
        if not count <= _BRANCH_MAX_NODES:
            raise QuadratureError(
                f"branch-cut integral at x = {x} needs more than {_BRANCH_MAX_NODES} rule nodes"
            )
        n = int(count)
        if x < _FINITE_S2_X:
            last = self.delta * math.sinh(n * 0.5**fine)  # as _branch_nodes forms s
            if math.isinf(last * last):
                raise QuadratureError(
                    f"branch-cut integral at x = {x} needs rule nodes whose s^2 overflows a float"
                )
        return fine - 1, n >> 1

    def branch(self, x: float, gap: bool = False) -> float:
        """int_1^inf sqrt(z^2-1)/z G(z) e^(-x z) dz, G = G_B or, with gap,
        1 - G_B, at natural zeta x > 0: the one branch-cut Laplace sum.

        One pass of the a-priori rule (branch_size): e^-x T, with
        T = sum_k c_k e^(-x w_k) over x w_k <= _BRANCH_CUT (the gap weights
        d_k with gap).  The err of the branch term (branch_term) is taken
        from this value alone.
        """
        envelope = math.exp(-x)
        if envelope == 0.0:
            return 0.0
        level, n = self.branch_size(x)
        w, c, d = _branch_nodes(self.a, level, n)
        exp, neg_x = math.exp, -x
        terms = [b * exp(neg_x * w_k) for w_k, b in zip(w[:n], d if gap else c)]
        return envelope * math.fsum(terms)

    def branch_term(self, x: float) -> tuple[float, float]:
        """(2/pi) branch(x), the branch term of T_B, and its err:
        (2/pi) 2^-53 (24 + 2x) times the value, plus 2^-53 twice the term
        for the factor 2/pi and its product.

        The value is e^-x T, T = sum_k t_k, t_k = c_k e^(-x w_k) > 0, and
        the err is e^-x times T's rounding bound.  Per unit of t_k that
        allows 12 roundoffs, 8 for a node (6.02 seen against mpmath) and 4
        for the sum and e^-x, and 2 per unit of x (the rounding of x in
        e^-x); and 8 per unit of x w_k (4.5 seen, and 1.5 for the rounding
        of x), which is at most 12 T, since x sum_k t_k w_k <= (3/2) T.
        That is the Laplace mean of x (z - 1) under the weight
        sqrt(z^2-1)/z G_B, which starts as sqrt(2 (z - 1)) G_B(1) at z = 1:
        by Watson's lemma (Olver, Asymptotics and Special Functions, 1974,
        ch. 3) it tends to Gamma(5/2)/Gamma(3/2) = 3/2 as x grows, from
        below (1.4985 at v = 0, x = 740, the most seen), which the tests
        check on the rule's own nodes over |v| < 1 and x up to 760.  Where
        the term is subnormal, it, e^-x and their product round on the
        grid 2^-1074, less than a step in all, and the err gains two steps.
        """
        value = self.branch(x)
        val = value * _TWO_OVER_PI
        err = (_TWO_OVER_PI * (_UNIT_ROUNDOFF * (24.0 + 2.0 * x) * value)
               + 2.0 * _UNIT_ROUNDOFF * val)
        return val, err + 2.0 * _MIN_SUBNORMAL if val < _MIN_NORMAL else err

    def estimate(self, x: float) -> Estimate:
        """T_B and its err at natural zeta x > 0.

        F_B and the branch term are each their rule's sum, with that rule's
        rounding bound as the err (fb, branch_term), plus 2^-53 of the total
        for their addition.  Where the branch-cut sum is skipped
        (_branch_negligible, past x = 32), its bound B (_branch_bound) takes
        the place of its err, so the err is at least B + 2^-53 |fb_val|,
        also at vn = 0.  F_B runs first, so its typed errors come first; the
        branch rule raises only at x below ~3e-153, far below the skip.
        """
        fb_val, fb_err = self.fb(x)
        if _branch_negligible(self.a, x, fb_val):
            return Estimate(fb_val, fb_err + _branch_bound(self.a, x) + _UNIT_ROUNDOFF * abs(fb_val))
        br_val, br_err = self.branch_term(x)
        value = fb_val + br_val
        return Estimate(value, fb_err + br_err + _UNIT_ROUNDOFF * abs(value))

    def value(self, x: float) -> float:
        """estimate(x)[0], bit for bit, in its operations and on its skip
        test, without the errs; typed errors come as from estimate."""
        fb_val = self.rule(x).total(x) if self.vn else 1.0
        if _branch_negligible(self.a, x, fb_val):
            return fb_val
        return fb_val + self.branch(x) * _TWO_OVER_PI

    def gap(self, x: float) -> float:
        """T_F - T_B(vn) at natural zeta x > 0, from its small differences:
        -(F_B - 1) plus 2/pi times the 1 - G_B Laplace sum, each its rule's
        sum at the a-priori size, F_B's first."""
        residue_part = self.rule(x).total(x, True) if self.vn else 0.0
        return -residue_part + _TWO_OVER_PI * self.branch(x, True)


# per strength vn (in units of mu c^2): its T_B core
_TB_CORES: dict[float, _TbCore] = {}


def _tb_core(vn: float) -> _TbCore:
    """The cached T_B core of strength vn, a pure function of vn."""
    core = _TB_CORES.get(vn)
    if core is None:
        # setdefault: threads racing here end up sharing one core
        core = _TB_CORES.setdefault(vn, _TbCore(vn))
    return core


def barrier_factor(v0: float, zeta: float, params: PhysicalParams = NATURAL_UNITS) -> Estimate:
    """Barrier time-kernel factor T_B(v0, zeta) = F_B + branch-cut term.

    v0 is signed exactly as in fb_series; T_B(0, zeta) is the free factor,
    bit for bit.
    """
    vn = _strength(v0, params, "barrier_factor")
    return _tb_core(vn).estimate(_natural_zeta(zeta, params, "barrier_factor"))


def barrier_free_gap(v0: float, zeta: float, params: PhysicalParams = NATURAL_UNITS) -> float:
    """Difference T_F(zeta) - T_B(-v0, zeta) without forming either side.

    Both the residue part (1 - F_B) and the branch part (quadrature of
    1 - G_B) are assembled from small differences, so the result stays
    accurate down to O(v0) and vanishes identically at v0 = 0.  This is
    what the arrival-time difference integrates against.  Each part is its
    rule's sum at the a-priori size, taken by the core of -v0 (its gap),
    which toa_difference binds once per cell instead.
    """
    vn = _strength(v0, params, "barrier_free_gap")
    x = _natural_zeta(zeta, params, "barrier_free_gap")
    return _tb_core(-vn).gap(x)


_REGIONS = ("I", "II", "III")


def region_kernel(
    region: str,
    eta: float,
    zeta: float,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
) -> Estimate:
    """Region kernels of the barrier arrival-time operator.

        I   : (eta/2) T_F(zeta)
        II  : ((eta+b)/2) T_F(zeta) - (b/2) T_B(+V_o, zeta)
        III : ((eta+L)/2) T_F(zeta) - (L/2) T_B(-V_o, zeta)

    Region I is the barrier-free strip b < eta < 0, II the barrier interior,
    III the incident side eta < a.  The tag is the caller's duty and is not
    validated against eta.
    """
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}")
    x = _natural_zeta(zeta, params, "region_kernel")
    tf_val, tf_err = _tb_core(0.0).estimate(x)
    if region == "I":
        return Estimate(0.5 * eta * tf_val, 0.5 * abs(eta) * tf_err)
    d, v0 = (barrier.b, barrier.v0) if region == "II" else (barrier.length, -barrier.v0)
    tb = barrier_factor(v0, zeta, params)
    val = 0.5 * (eta + d) * tf_val - 0.5 * d * tb.value
    err = 0.5 * abs(eta + d) * tf_err + 0.5 * abs(d) * tb.err
    return Estimate(val, err)


def momentum_kernel_f(
    j: int,
    k: int,
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Residue building block f_{j,k}(zeta) of the momentum kernel.

    The pole contribution at zero momentum reduces to a finite sum: the
    z^0 coefficient of (1 + z^2/(mu c)^2)^((k+1)/2) (1 - i hbar y/(zeta z))^(2j)
    pairs even powers, and each y-moment integrates to (2a)!, which cancels
    against C(2j, 2a)/(2j)! to leave 1/(2(j-a))!:

        f_{j,k} = (-1)^j sum_a C((k+1)/2, a) (-1)^a (mu c)^(-2a)
                  * (zeta/hbar)^(2(j-a)) / (2(j-a))!

    Each power is carried by its own recurrence, so no factor leaves the
    float range where the value does not; a sum that leaves it raises
    SeriesDivergenceError.  Exact up to floating-point rounding.
    """
    if j < 0 or k < 0:
        raise ValueError("momentum_kernel_f requires j >= 0 and k >= 0")
    if j and zeta == 0.0:
        raise ValueError("momentum_kernel_f requires zeta != 0 when j > 0")
    x2 = (zeta / params.hbar) ** 2
    damp = -1.0 / (params.mu * params.c) ** 2
    alpha = (k + 1) / 2.0
    tails = [1.0]  # (zeta/hbar)^(2m) / (2m)!, m = 0 to j
    for m in range(1, j + 1):
        tails.append(tails[-1] * x2 / ((2 * m - 1) * 2 * m))
    acc = 0.0
    power = 1.0  # (-1)^a (mu c)^(-2a)
    for a in range(j + 1):
        acc += gen_binomial(alpha, a) * power * tails[j - a]
        power *= damp
    if not math.isfinite(acc):
        raise SeriesDivergenceError(f"f_({j},{k})({zeta!r}) overflows a float")
    return (-1.0) ** j * acc


def momentum_kernel_g(
    j: int,
    k: int,
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Branch-cut building block g_{j,k}(zeta) of the momentum kernel.

    Vanishes for odd k; for even k it is the damped half-line integral of
    (y^2-1)^((k+1)/2) / y^(2j+1) e^(-zeta y) (natural zeta) times
    (-1)^j i^k (mu c)^(-2j) (2/pi).  The integrand is formed under one exp
    with its damping, so no factor leaves the float range where the
    product does not; where the product or the value (~Gamma(k - 2j + 1)
    at zeta = 1) does, SeriesDivergenceError is raised.
    """
    if j < 0 or k < 0:
        raise ValueError("momentum_kernel_g requires j >= 0 and k >= 0")
    decay = _natural_zeta(zeta, params, "momentum_kernel_g")
    if k % 2 == 1:
        return 0.0
    half_k = (k + 1) / 2.0

    def integrand(y: float) -> float:
        if y <= 1.0:
            return 0.0
        return math.exp(half_k * math.log(y * y - 1.0) - (2 * j + 1) * math.log(y) - decay * y)

    try:
        val, _err = integrate_semiinf_exp(integrand, 1.0, 0.0, settings)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise SeriesDivergenceError(f"g_({j},{k})({zeta!r}) overflows a float")
    sign = (-1.0) ** j * (-1.0) ** (k // 2)
    return sign * _TWO_OVER_PI * val / (params.mu * params.c) ** (2 * j)
