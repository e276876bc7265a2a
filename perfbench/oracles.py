"""Independent reference evaluations used to build and test refs.json.

None of these calls the library's quadrature engines or its residue-series
code.  They need scipy (a test extra of the package) and mpmath, and work in
natural units (mu = c = hbar = 1) only, which is what every workload uses.

* ``spectral_kernel(v0, zeta)`` -- the momentum-space identity behind the
  agreement of the direct and momentum routes,

      T(v0, zeta) = (2/pi) int_{kappa_c}^inf w(k) sin(k zeta) dk,
      w(k) = E / sqrt((E - v0)^2 - 1),  E = sqrt(k^2 + 1),

  which gives T_B(-v0, zeta) for v0 > 0 and T_F(zeta) for v0 = 0.  The
  integral is taken as (w - 1 - v0/k) by quadrature plus the two pieces
  whose sine transforms are known in closed form (1 and v0/k).
* ``free_factor_bessel(zeta)`` -- T_F(zeta) = 1 + (2/pi) int_zeta^inf
  K_1(t)/t dt, a second, unrelated form of the free factor.
* ``residue_coeffs`` / ``barrier_factor_highdigit`` -- the barrier factor
  from the residue power series summed at ~100 digits, with coefficients
  built from the plain (l, m, n) triple sum, plus the branch-cut integral.
  This is the reference for T_B(+v0), for which no spectral form is derived.
* ``momentum_rc(v0, sigma, k0)`` -- R_c from the closed momentum-space form
  by scipy quadrature.
* ``classical_region3(q0, p0, v0, a, b)`` -- the region-III closed
  arrival time at 50 digits.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate, special

# the spectral integrals' finite part ends at k = K_SPLIT, where the
# oscillatory (QAWF) tail takes over
K_SPLIT = 20.0


def kappa(v0: float) -> float:
    """Threshold wavenumber kappa_c (0 for v0 = 0)."""
    return math.sqrt(2.0 * v0 * (1.0 + 0.5 * v0))


def _weight_minus_asymptote(k: float, v0: float) -> float:
    # w(k) - 1 - v0/k; the subtracted pieces decay too slowly for QAWF
    e = math.hypot(k, 1.0)
    return e / math.sqrt((e - v0) ** 2 - 1.0) - 1.0 - v0 / k


def spectral_kernel(v0: float, zeta: float) -> float:
    """T_B(-v0, zeta) (v0 > 0) or T_F(zeta) (v0 = 0) by the spectral identity."""
    kc = kappa(v0)
    # finite part: k = kc + u^2 removes the 1/sqrt(k - kc) start; pieces of
    # about one oscillation each keep every scipy call easy
    u_max = math.sqrt(K_SPLIT - kc)

    def g(u: float) -> float:
        if u == 0.0 and v0 == 0.0:
            return 0.0  # 2u (w - 1) ~ 2/u there, but sin(k zeta) ~ u^2 zeta
        return (_two_u_weight(u, v0) - 2.0 * u) * math.sin((kc + u * u) * zeta)

    n_pieces = max(8, int(K_SPLIT * zeta / math.pi) + 1)
    edges = [math.sqrt(i / n_pieces) * u_max for i in range(n_pieces + 1)]
    parts = [
        integrate.quad(g, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    ]
    finite = math.fsum(parts)
    # tail: (w - 1 - v0/k) by QAWF, v0/k by the sine integral
    tail, _ = integrate.quad(
        _weight_minus_asymptote, K_SPLIT, np.inf, args=(v0,),
        weight="sin", wvar=zeta, epsabs=1e-15, limlst=200,
    )
    si, _ci = special.sici(K_SPLIT * zeta)
    tail += v0 * (0.5 * math.pi - si)
    # int_kc^inf sin(k zeta) dk = cos(kc zeta)/zeta in the Abel sense
    return (2.0 / math.pi) * (finite + tail + math.cos(kc * zeta) / zeta)


def _two_u_weight(u: float, v0: float) -> float:
    """2u * w(kc + u^2) without the 0/0 at the threshold.

    (E - v0)^2 - 1 = (E - v0 + 1)(E - E_c) with E_c = 1 + v0, and
    E - E_c = u^2 (k + kc) / (E + E_c) exactly.
    """
    kc = kappa(v0)
    k = kc + u * u
    e = math.hypot(k, 1.0)
    e_c = 1.0 + v0
    return 2.0 * e / math.sqrt((e - v0 + 1.0) * (k + kc) / (e + e_c))


def free_factor_bessel(zeta: float) -> float:
    """T_F(zeta) = 1 + (2/pi) int_zeta^inf K_1(t)/t dt."""
    val, _ = integrate.quad(
        lambda t: special.k1(t) / t, zeta, np.inf, epsabs=1e-16, epsrel=1e-14, limit=200
    )
    return 1.0 + (2.0 / math.pi) * val


def residue_coeffs(v: float, count: int, dps: int) -> list:
    """D_p(v), p < count, by the plain triple sum at `dps` digits.

    D_p = sum_{l >= p} C(2l, l) A^l C^(l-p)
          * sum_m C(l, m) b^(l-m) C((m+1)/2, l-p),
    with A = v/2, b = v/2, C = -1 in natural units.
    """
    with mp.workdps(dps):
        a_fac = mp.mpf(v) / 2
        b_fac = mp.mpf(v) / 2
        eps = mp.mpf(10) ** (-dps + 5)
        half_rows: dict[int, list] = {}

        def half_binom(m: int, n: int):
            row = half_rows.setdefault(m, [mp.mpf(1)])
            alpha = mp.mpf(m + 1) / 2
            while len(row) <= n:
                j = len(row)
                row.append(row[-1] * (alpha - (j - 1)) / j)
            return row[n]

        out = []
        for p in range(count):
            acc = mp.mpf(0)
            small = 0
            l = p
            while small < 3:
                n = l - p
                inner = mp.fsum(
                    math.comb(l, m) * b_fac ** (l - m) * half_binom(m, n) for m in range(l + 1)
                )
                term = math.comb(2 * l, l) * a_fac**l * (-1) ** n * inner
                acc += term
                small = small + 1 if abs(term) <= eps * (1 + abs(acc)) else 0
                l += 1
            out.append(acc)
        return out


def gb_factor(v0: float, z: float) -> float:
    z2 = z * z
    w = complex(1.0 - v0 * v0 / z2, 2.0 * v0 * math.sqrt(z2 - 1.0) / z2)
    return (w ** -0.5).real


def branch_integral(v0: float, zeta: float) -> float:
    """(2/pi) int_1^inf exp(-zeta z) sqrt(z^2-1)/z G_B(v0, z) dz, with z = 1 + u^2."""

    def f(u: float) -> float:
        z = 1.0 + u * u
        return math.exp(-zeta * u * u) * math.sqrt(z * z - 1.0) / z * gb_factor(v0, z) * 2.0 * u

    u_end = math.sqrt(800.0 / zeta)
    val, _ = integrate.quad(f, 0.0, u_end, epsabs=1e-17, epsrel=1e-13, limit=400)
    return (2.0 / math.pi) * math.exp(-zeta) * val


def barrier_factor_highdigit(v: float, zetas, coeffs: list, dps: int) -> list[float]:
    """T_B(v, zeta) for each zeta from precomputed residue_coeffs(v, ...)."""
    out = []
    with mp.workdps(dps):
        for zeta in zetas:
            z2 = mp.mpf(zeta) ** 2
            ratio = mp.mpf(1)
            total = mp.mpf(0)
            for p, d_p in enumerate(coeffs):
                total += d_p * ratio
                ratio = ratio * z2 / ((2 * p + 1) * (2 * p + 2))
            last = abs(coeffs[-1] * ratio)
            if last > mp.mpf(10) ** -20 * (1 + abs(total)):
                raise ValueError(f"residue series not converged at zeta={zeta}")
            out.append(float(total) + branch_integral(v, zeta))
    return out


def momentum_rc(v0: float, sigma: float, k0: float) -> float:
    """R_c = int_kc^inf (|psi(+k)|^2 - |psi(-k)|^2) w(k) dk by scipy quadrature."""
    kc = kappa(v0)
    norm = math.sqrt(2.0 * sigma * sigma / math.pi)

    def g(u: float) -> float:
        k = kc + u * u
        dens = norm * (
            math.exp(-2.0 * sigma * sigma * (k - k0) ** 2)
            - math.exp(-2.0 * sigma * sigma * (k + k0) ** 2)
        )
        return dens * _two_u_weight(u, v0)

    # the density core sits at k0 with width 1/(2 sigma); mark it in u
    width = 0.5 / sigma
    marks = sorted(
        math.sqrt(k - kc) for k in (k0 + j * width for j in range(-12, 13)) if k > kc
    )
    u_hi = math.sqrt(max(k0, kc) + 40.0 * width + 1.0 - kc)
    edges = [0.0] + [m for m in marks if m < u_hi] + [u_hi]
    return math.fsum(
        integrate.quad(g, lo, hi, epsabs=1e-17, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges, edges[1:])
        if hi > lo
    )


def classical_region3(q0: float, p0: float, v0: float, a: float, b: float) -> float:
    """-q0' gamma / p0 + L sqrt(gamma^2 / ((gamma - v0)^2 - 1)) at 50 digits."""
    with mp.workdps(50):
        p = mp.mpf(p0)
        gamma = mp.sqrt(1 + p * p)
        length = mp.mpf(b) - mp.mpf(a)
        val = -(mp.mpf(q0) + length) * gamma / p + length * mp.sqrt(
            gamma * gamma / ((gamma - mp.mpf(v0)) ** 2 - 1)
        )
        return float(val)
