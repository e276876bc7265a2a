"""Time-kernel factors for the free and square-barrier arrival-time operators.

The free factor T_F and barrier factors F_B, G_B, T_B are assembled from a
branch-cut quadrature plus the residue power series.  The residue series is
reorganized as a single power series in zeta^2,

    F_B(v, zeta) = sum_p D_p(v) * zeta^(2p) / (2p)!,

whose coefficients D_p collect the triple sum over (l, m, n) with p = l - n
held fixed.  The coefficients depend only on (v, mu, c, hbar), so they are
computed once per barrier strength in arbitrary precision and cached.  The
build runs l-major: the binomial row C(l, m) b^(l-m) depends only on l, so it
is built once and every p whose l-sum reaches it adds its term l from it.
Each D_p gets the same mpf operations in the same order as in a loop over p,
so its bits do not depend on the sweep.  p = 0 is summed first, on its own,
because near the rest energy it is the one that fails; only one row is kept
alive, to hold the build's peak memory.

The zeta series itself cancels like a Bessel function (partial terms reach
exp(~kappa*zeta) before collapsing to O(1)), so the evaluation escalates to
arbitrary precision whenever double precision cannot absorb it.

The branch-cut integral of T_B runs an adaptive Laplace quadrature at every
node of the direct route's sine transform, and every one of them bisects
[0, 1] along the same dyadic tree, so only ~1,000 distinct nodes z occur per
barrier strength.  The zeta-independent factor h(z) = sqrt(z^2-1)/z *
G_B(v0, z) is therefore kept in a numerics.HalfLineTable per (v0, params),
filled on first use of each node, together with each G7/K15 segment's nodes
as (z, h(z), (1-t)^2); integrate_half_line then computes only
exp(-decay * z) and the weighted sums per integral.  T_F's envelope
sqrt(z^2-1)/z has one such table, and the T_F - T_B gap's envelope times
(1 - G_B) one per (v0, params).  The series route reads the profile table
(branch_profile) by z at the nodes of its single outer z-integral, whose
decay-0 map bisects the same tree.  Every entry is a pure function of
(v0, params, z), so a table entry is the float the integrand would compute
anyway: values, error estimates and adaptive decisions do not depend on
which call or thread filled it, and the tables need neither a lock nor the
quadrature settings in their keys.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath as mp

from reltoa.numerics import (
    DEFAULT_SETTINGS,
    MP_LOCK,
    Estimate,
    HalfLineTable,
    QuadratureSettings,
    SeriesDivergenceError,
    gen_binomial,
    integrate_half_line,
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


def free_factor(
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """Free time-kernel factor T_F(zeta) = 1 + (2/pi) * branch-cut integral.

    Strictly decreasing in zeta, -> 1 as zeta -> inf, and diverging like
    2*hbar/(pi*mu*c*zeta) as zeta -> 0+.
    """
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"free_factor requires zeta > 0, got {zeta}")
    decay = params.mu * params.c * zeta / params.hbar
    val, err = integrate_half_line(_FREE_TABLE, decay, settings)
    return Estimate(1.0 + (2.0 / math.pi) * val, (2.0 / math.pi) * err)


def _branch_envelope(z: float) -> float:
    return math.sqrt(z * z - 1.0) / z if z > 1.0 else 0.0


# the units enter T_F only through the decay, so one table serves them all
_FREE_TABLE = HalfLineTable(_branch_envelope)


def _require_finite_v0(v0: float, name: str) -> None:
    # before any coefficient build or profile table: a NaN key matches nothing
    if not math.isfinite(v0):
        raise ValueError(f"{name} requires a finite v0, got {v0}")


def gb_factor(
    v0: float,
    z: float,
    params: PhysicalParams = NATURAL_UNITS,
) -> float:
    """Branch-cut factor G_B(v0, z): the half-sum with its i -> -i partner.

    Equals Re[1 - (v0/mu c^2)^2/z^2 + 2i sqrt(z^2-1) (v0/mu c^2)/z^2]^(-1/2);
    real, finite, and even in v0 for |v0| below the rest-mass energy.
    """
    if z < 1.0:
        raise ValueError("gb_factor requires z >= 1")
    vt = v0 / params.rest_energy
    z2 = z * z
    w = complex(1.0 - vt * vt / z2, 2.0 * vt * math.sqrt(z2 - 1.0) / z2)
    return (w ** -0.5).real


# --- residue-series coefficients -------------------------------------------

_FB_CACHE: dict[tuple[float, float, float, float], "_FbCoeffs"] = {}


@dataclass
class _FbCoeffs:
    dps: int
    coeffs: list  # mpf values of D_p, valid at self.dps
    log10: list[float]  # log10 |D_p| (for fast magnitude scans); -inf for 0
    errs: list[float]  # truncation floor per coefficient (0 for clean exits)
    floats: list[float]  # float(D_p), converted once for the double-precision sums


def _fb_coeffs_at(
    v: float,
    params: PhysicalParams,
    n_needed: int,
    dps_needed: int,
    settings: QuadratureSettings,
) -> _FbCoeffs:
    key = (v, params.mu, params.c, params.hbar)
    with MP_LOCK:
        entry = _FB_CACHE.get(key)
        if entry is not None and entry.dps >= dps_needed and len(entry.coeffs) >= n_needed:
            return entry
        # rebuilding is a from-scratch job, so overshoot both axes and make
        # successive rebuilds geometric rather than per-request
        dps = max(dps_needed + 15, int(1.25 * dps_needed), entry.dps if entry else 0, 30)
        count = max(n_needed + 64, len(entry.coeffs) if entry else 0)
        entry = _build_fb_coeffs(v, params, count, dps, settings)
        _FB_CACHE[key] = entry
        return entry


def fb_coeffs(
    v: float,
    params: PhysicalParams,
    settings: QuadratureSettings,
    outgrown: _FbCoeffs | None = None,
) -> _FbCoeffs:
    """Cached residue coefficients D_p(v) for a caller walking p upward.

    The first request asks for 48 terms at 30 digits; passing the entry the
    caller has outgrown asks for 48 more at that entry's precision.  The
    digits of a cached entry depend on the requests that built it, so the
    kernel evaluation and the series route share this one request pattern.
    """
    if outgrown is None:
        return _fb_coeffs_at(v, params, 48, 30, settings)
    return _fb_coeffs_at(v, params, len(outgrown.coeffs) + 48, outgrown.dps, settings)


class _LSum:
    """Running l-sum of one coefficient, D_p = sum_{l >= p} term_l.

    term_l = comb(2l, l) A^l C^(l-p) S(l, l-p), where S(l, n) is the m-sum
    of C(l, m) b^(l-m) C((m+1)/2, n).  The sum humps (the peak drifts out
    like ~p/3), decays, and for strong barriers eventually regrows: it is
    asymptotic in that regime, so the state keeps the deepest post-peak
    minimum (optimal truncation) and its floor as the error.
    """

    __slots__ = ("p", "acc", "running", "central", "small", "peak_mag",
                 "best_mag", "best_acc", "best_idx", "trunc_err")

    def __init__(self, p: int, a_fac) -> None:
        self.p = p
        self.acc = mp.mpf(0)
        self.running = a_fac**p  # A^l * C^(l-p) at l = p
        self.central = mp.mpf(math.comb(2 * p, p))
        self.small = 0
        self.peak_mag = mp.mpf(0)
        self.best_mag = None
        self.best_acc = None
        self.best_idx = p
        self.trunc_err = 0.0


def _build_fb_coeffs(
    v: float,
    params: PhysicalParams,
    count: int,
    dps: int,
    settings: QuadratureSettings,
) -> _FbCoeffs:
    with MP_LOCK, mp.workdps(dps):
        a_fac = mp.mpf(params.mu) * mp.mpf(v) / (2 * mp.mpf(params.hbar) ** 2)
        b_fac = mp.mpf(v) / (2 * mp.mpf(params.mu) * mp.mpf(params.c) ** 2)
        c_fac = -(mp.mpf(params.hbar) ** 2) / (mp.mpf(params.mu) * mp.mpf(params.c)) ** 2
        ac_fac = a_fac * c_fac
        eps = mp.mpf(10) ** (-(dps - 8))
        b_pow = [mp.mpf(1)]
        gb_rows: list[list] = []  # gb_rows[m][n] = C((m+1)/2, n)
        gb_alpha: list = []  # (m+1)/2, exact

        def binom_row(l: int) -> list:
            # C(l, m) b^(l-m) for m = 0..l, the binomials by Pascal recurrence
            while len(b_pow) <= l:
                b_pow.append(b_pow[-1] * b_fac)
            row = []
            binom_lm = mp.mpf(1)
            for m in range(l + 1):
                if m > 0:
                    binom_lm = binom_lm * (l - m + 1) / m
                row.append(binom_lm * b_pow[l - m])
            return row

        def m_sum(row: list, n: int):
            # sum over m of row[m] * C((m+1)/2, n), the binomials grown by
            # recurrence as far as they are used
            while len(gb_rows) < len(row):
                gb_alpha.append(mp.mpf(len(gb_rows) + 1) / 2)
                gb_rows.append([mp.mpf(1)])
            # odd m give an integer upper argument (m+1)/2 that truncates,
            # so the odd m below 2n - 1 contribute nothing
            cut = max(2 * n - 1, 0)
            s = mp.mpf(0)
            for m in itertools.chain(range(0, min(cut, len(row)), 2), range(cut, len(row))):
                gbin = gb_rows[m]
                while len(gbin) <= n:
                    k = len(gbin)
                    gbin.append(gbin[-1] * (gb_alpha[m] - (k - 1)) / k)
                s += row[m] * gbin[n]
            return s

        def add_term(st: _LSum, l: int, s) -> bool:
            # add term l of D_p; True once D_p is settled
            term = st.central * st.running * s
            st.acc += term
            mag = abs(term)
            if mag > st.peak_mag:
                st.peak_mag = mag
                st.best_mag = None
                st.best_acc = None
                st.best_idx = l
            elif st.best_mag is None or mag < st.best_mag:
                st.best_mag = mag
                st.best_acc = st.acc
                st.best_idx = l
            elif l - st.best_idx >= 20 and mag > 1e4 * st.best_mag:
                # risen far above the post-peak floor: the sum is
                # asymptotic here, so truncate at the floor
                floor = float(st.best_mag)
                if floor > 1e-9 * (1 + abs(float(st.best_acc))):
                    raise SeriesDivergenceError(
                        f"residue-series coefficient p={st.p} floors at "
                        f"{floor:.1e} for v={v}: barrier strength too "
                        "close to the rest-mass energy"
                    )
                st.acc = st.best_acc
                st.trunc_err = floor
                return True
            if mag <= eps * (1 + abs(st.acc)):
                st.small += 1
                if st.small >= 3:
                    return True
            else:
                st.small = 0
            if l - st.p >= 4 * settings.max_series_terms:
                raise SeriesDivergenceError(
                    f"residue-series coefficient p={st.p} did not converge for v={v}"
                )
            st.central = st.central * 2 * (2 * l + 1) / (l + 1)  # comb(2l, l) update
            st.running *= ac_fac
            return False

        # p = 0 first, on its own: near the rest energy it is the coefficient
        # that fails, and in the sweep below every p <= l would run along
        # until it did
        sums = [_LSum(0, a_fac)]
        l = 0
        while not add_term(sums[0], l, m_sum(binom_row(l), l)):
            l += 1
        # Then one sweep over l for p >= 1.  Row l depends only on (l, m), so
        # it is built once and every unfinished p adds its term l from it, in
        # ascending p: each D_p sees the same mpf operations in the same
        # order as in a loop over p that rebuilds the row, so its bits are the
        # same.  Only row l is alive: caching every row, or looping p-major
        # over a window of rows, raises the build's peak memory.
        failure = None
        limit = count
        active: list[_LSum] = []
        l = 1
        while l < limit or active:
            if l < limit:
                sums.append(_LSum(l, a_fac))
                active.append(sums[-1])
            row = binom_row(l)
            unfinished = []
            for st in active:
                try:
                    if not add_term(st, l, m_sum(row, l - st.p)):
                        unfinished.append(st)
                except SeriesDivergenceError as exc:
                    # the build reports its smallest failing p: drop the
                    # larger p, and let only a smaller one replace this error
                    failure, limit = exc, st.p
                    break
            active = unfinished
            l += 1
        if failure is not None:
            raise failure
        coeffs = [st.acc for st in sums]
        errs = [st.trunc_err for st in sums]
        logs = [float(mp.log10(abs(cf))) if cf != 0 else -math.inf for cf in coeffs]
        floats = [float(cf) for cf in coeffs]
    return _FbCoeffs(dps=dps, coeffs=coeffs, log10=logs, errs=errs, floats=floats)


def _fb_eval(
    v: float,
    zeta: float,
    params: PhysicalParams,
    settings: QuadratureSettings,
    drop_unity: bool = False,
) -> tuple[float, float]:
    """Evaluate the residue series at zeta; with drop_unity, return F_B - 1.

    Returns (value, rounding_error_estimate).  Scans term
    magnitudes in log space first, then sums in float or, when the peak
    term towers over the result by more than ~12 digits, in arbitrary
    precision with enough guard digits.
    """
    z2 = zeta * zeta
    log_z2 = math.log10(z2) if z2 > 0.0 else -math.inf
    floor_log = math.log10(settings.abs_tol) - 6.0

    entry = fb_coeffs(v, params, settings)
    log10_fact = _log10_even_factorials(settings.max_series_terms + 1)
    max_log = -math.inf
    p = 0
    small = 0
    while True:
        if p >= len(entry.coeffs):
            if p >= settings.max_series_terms:
                raise SeriesDivergenceError(
                    f"residue series needs more than {settings.max_series_terms} terms"
                )
            entry = fb_coeffs(v, params, settings, entry)
        log_term = entry.log10[p] + p * log_z2 - log10_fact[p]
        if log_term > max_log:
            max_log = log_term
        if log_term < floor_log and (p > 0 and p * log_z2 < log10_fact[p]):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        p += 1
        if p > settings.max_series_terms:
            raise SeriesDivergenceError(
                f"residue series did not converge within {settings.max_series_terms} terms"
            )
    p_stop = p + 1

    # float pass first; escalate when cancellation eats more than ~6 digits
    total = 0.0
    comp = 0.0
    ratio = 1.0
    max_term = 0.0
    trunc = 0.0
    used = 0
    small = 0
    for q in range(p_stop):
        d_q = entry.floats[q]
        if drop_unity and q == 0:
            d_q -= 1.0
        term = d_q * ratio
        if entry.errs[q]:
            trunc += entry.errs[q] * abs(ratio)
        if abs(term) > max_term:
            max_term = abs(term)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        used = q + 1
        if abs(term) <= settings.abs_tol * (1 + abs(total)):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        ratio = ratio * z2 / ((2 * q + 1) * (2 * q + 2))
    if math.isfinite(total) and max_term <= 1e6 * max(abs(total), 1e-300):
        err = max_term * 1e-15 * math.sqrt(used) + trunc
        return total, err

    dps = int(max(max_log, 1.0)) + 25
    entry = _fb_coeffs_at(v, params, p_stop, dps, settings)
    with MP_LOCK, mp.workdps(dps):
        total_mp = mp.mpf(0)
        ratio_mp = mp.mpf(1)  # zeta^(2p) / (2p)!
        z2_mp = mp.mpf(zeta) ** 2
        small = 0
        trunc = 0.0
        for q in range(p_stop):
            d_q = entry.coeffs[q]
            if drop_unity and q == 0:
                d_q = d_q - 1
            term = d_q * ratio_mp
            if entry.errs[q]:
                trunc += entry.errs[q] * float(ratio_mp)
            total_mp += term
            if abs(term) <= settings.abs_tol * (1 + abs(total_mp)):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            ratio_mp = ratio_mp * z2_mp / ((2 * q + 1) * (2 * q + 2))
        value = float(total_mp)
    err = 10.0 ** (max_log - dps + 2) + trunc
    return value, err


@functools.cache
def _log10_even_factorials(n: int) -> tuple[float, ...]:
    """log10((2p)!) for p < n, built once per term cap."""
    return tuple(math.lgamma(2 * p + 1) / math.log(10.0) for p in range(n))


def fb_series(
    v0: float,
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """Residue factor F_B(v0, zeta) as its power series, with signed v0.

    The physics callers pass v0 = -V_o for a barrier of height V_o (the
    series is stated for T_B(-V_o, zeta)); passing +V_o flips both sign
    factors and yields the F_B entering T_B(+V_o, zeta).
    """
    _require_finite_v0(v0, "fb_series")
    if not 0.0 <= zeta < math.inf:
        raise ValueError(f"fb_series requires zeta >= 0, got {zeta}")
    return Estimate(*_fb_eval(v0, zeta, params, settings))


def _branch_h(v0: float, params: PhysicalParams, z: float) -> float:
    # z >= 1 on every node of the half-line map
    return math.sqrt(z * z - 1.0) / z * gb_factor(v0, z, params)


def _gap_integrand(v0: float, params: PhysicalParams, z: float) -> float:
    return _branch_envelope(z) * (1.0 - gb_factor(v0, z, params))


_BRANCH_PROFILES: dict[tuple[float, PhysicalParams], HalfLineTable] = {}
_GAP_TABLES: dict[tuple[float, PhysicalParams], HalfLineTable] = {}


def _strength_table(
    tables: dict, integrand, v0: float, params: PhysicalParams
) -> HalfLineTable:
    """The shared table of integrand(v0, params, z) for one barrier strength."""
    key = (v0, params)
    table = tables.get(key)
    if table is None:
        # setdefault: threads racing here end up sharing one table
        table = tables.setdefault(
            key, HalfLineTable(functools.partial(integrand, v0, params))
        )
    return table


def branch_profile(v0: float, params: PhysicalParams) -> HalfLineTable:
    """The shared table of h(z) = sqrt(z^2-1)/z * G_B(v0, z); index it by z >= 1."""
    _require_finite_v0(v0, "branch_profile")
    return _strength_table(_BRANCH_PROFILES, _branch_h, v0, params)


def branch_integral(
    v0: float,
    zeta: float,
    params: PhysicalParams,
    settings: QuadratureSettings,
) -> tuple[float, float]:
    """Branch-cut term of T_B(v0, zeta), with its error estimate:

        (2/pi) * int_1^inf exp(-mu c |zeta| z / hbar) sqrt(z^2-1)/z G_B(v0, z) dz
    """
    _require_finite_v0(v0, "branch_integral")
    decay = params.mu * params.c * abs(zeta) / params.hbar
    val, err = integrate_half_line(branch_profile(v0, params), decay, settings)
    return (2.0 / math.pi) * val, (2.0 / math.pi) * err


def barrier_factor(
    v0: float,
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> Estimate:
    """Barrier time-kernel factor T_B(v0, zeta) = F_B + branch-cut term.

    v0 is signed exactly as in fb_series; T_B(0, zeta) reduces to the free
    factor.
    """
    _require_finite_v0(v0, "barrier_factor")
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"barrier_factor requires zeta > 0, got {zeta}")
    fb_val, fb_err = _fb_eval(v0, zeta, params, settings)
    br_val, br_err = branch_integral(v0, zeta, params, settings)
    return Estimate(fb_val + br_val, fb_err + br_err)


def barrier_free_gap(
    v0: float,
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Difference T_F(zeta) - T_B(-v0, zeta) without forming either side.

    Both the series part (1 - F_B) and the branch part (quadrature of
    1 - G_B) are assembled from small differences, so the result stays
    accurate down to O(v0) and vanishes identically at v0 = 0.  This is
    what the arrival-time difference integrates against.
    """
    _require_finite_v0(v0, "barrier_free_gap")
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"barrier_free_gap requires zeta > 0, got {zeta}")
    series_part, _err = _fb_eval(-v0, zeta, params, settings, drop_unity=True)
    decay = params.mu * params.c * zeta / params.hbar
    table = _strength_table(_GAP_TABLES, _gap_integrand, v0, params)
    br_val, _br_err = integrate_half_line(table, decay, settings)
    return -series_part + (2.0 / math.pi) * br_val


_REGIONS = ("I", "II", "III")


def region_kernel(
    region: str,
    eta: float,
    zeta: float,
    barrier: BarrierSpec,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
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
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"region_kernel requires zeta > 0, got {zeta}")
    tf = free_factor(zeta, params, settings)
    if region == "I":
        return Estimate(0.5 * eta * tf.value, 0.5 * abs(eta) * tf.err)
    if region == "II":
        tb = barrier_factor(barrier.v0, zeta, params, settings)
        val = 0.5 * (eta + barrier.b) * tf.value - 0.5 * barrier.b * tb.value
        err = 0.5 * abs(eta + barrier.b) * tf.err + 0.5 * abs(barrier.b) * tb.err
        return Estimate(val, err)
    length = barrier.length
    tb = barrier_factor(-barrier.v0, zeta, params, settings)
    val = 0.5 * (eta + length) * tf.value - 0.5 * length * tb.value
    err = 0.5 * abs(eta + length) * tf.err + 0.5 * length * tb.err
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
    pairs even powers, and each y-moment integrates to (2a)!:

        f_{j,k} = (-1)^j zeta^(2j) / (hbar^(2j) (2j)!)
                  * sum_a C((k+1)/2, a) C(2j, 2a) (2a)! (-1)^a (hbar/(mu c zeta))^(2a)

    Exact up to floating-point rounding.
    """
    if j < 0 or k < 0:
        raise ValueError("momentum_kernel_f requires j >= 0 and k >= 0")
    if j == 0:
        return 1.0
    if zeta == 0.0:
        raise ValueError("momentum_kernel_f requires zeta != 0 when j > 0")
    scale = params.hbar / (params.mu * params.c * zeta)
    acc = 0.0
    for a in range(j + 1):
        acc += (
            gen_binomial((k + 1) / 2.0, a)
            * math.comb(2 * j, 2 * a)
            * math.factorial(2 * a)
            * (-1.0) ** a
            * scale ** (2 * a)
        )
    pref = (-1.0) ** j * zeta ** (2 * j) / (params.hbar ** (2 * j) * math.factorial(2 * j))
    return pref * acc


def momentum_kernel_g(
    j: int,
    k: int,
    zeta: float,
    params: PhysicalParams = NATURAL_UNITS,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Branch-cut building block g_{j,k}(zeta) of the momentum kernel.

    Vanishes for odd k; for even k it is the damped half-line integral of
    (y^2-1)^((k+1)/2) / y^(2j+1) times (-1)^j i^k (mu c)^(-2j) (2/pi).
    """
    if j < 0 or k < 0:
        raise ValueError("momentum_kernel_g requires j >= 0 and k >= 0")
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"momentum_kernel_g requires zeta > 0, got {zeta}")
    if k % 2 == 1:
        return 0.0
    decay = params.mu * params.c * zeta / params.hbar
    half_k = (k + 1) / 2.0

    def integrand(y: float) -> float:
        if y <= 1.0:
            return 0.0
        return (y * y - 1.0) ** half_k / y ** (2 * j + 1)

    val, _err = integrate_semiinf_exp(integrand, 1.0, decay, settings)
    sign = (-1.0) ** j * (-1.0) ** (k // 2)
    return sign * (2.0 / math.pi) * val / (params.mu * params.c) ** (2 * j)
