"""Shared brute-force oracles, independent of the library's own quadrature."""

from __future__ import annotations

import cmath
import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import hypothesis

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_by_path(relative: str, name: str):
    """A module from a file of this checkout that is not on the import path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_fresh(code: str) -> str:
    """stdout of `code` in a fresh interpreter, with scripts/kernel_pins.py
    as `bench`."""
    prelude = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('kernel_pins', sys.argv[1])\n"
        "bench = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench)\n"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", prelude + code, str(ROOT / "scripts" / "kernel_pins.py")],
        capture_output=True, check=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return out.stdout


def crossing_weight(k: float, v0: float, params) -> float:
    """The momentum route's crossing weight sqrt(E^2/((E - v0)^2 - mu^2 c^4)),
    0.0 at and below threshold, in the operations of its two-call form."""
    rest = params.rest_energy
    e_k = math.hypot(params.hbar * k * params.c, rest)
    denom = (e_k - v0) ** 2 - rest * rest
    return math.sqrt(e_k * e_k / denom) if denom > 0.0 else 0.0


def momentum_weight_reference(v0: float, sigma: float, k0: float, sign: int,
                              params) -> tuple[float, float]:
    """The +k (sign 1) or -k (sign -1) momentum weight
    int_kc^inf |psi(+-k)|^2 sqrt(E^2/((E - v0)^2 - R^2)) dk and its error,
    by mpmath's tanh-sinh quadrature at 40 digits, in u = sqrt(k - kappa_c).

    The weight's threshold root is cancelled analytically, in mpmath:
    (E - v0)^2 - R^2 = (hbar c)^2 (k - kc)(k + kc)(E - v0 + R)/(E + R + v0),
    so 2u dk/du leaves 2 rho E sqrt((E + R + v0)/((k + kc)(E - v0 + R)))/(hbar c).
    The Gaussian's least value on k >= kappa_c is scaled out while
    integrating, so that mpmath's error estimate is relative to the weight
    even where it is 1e-300.  The pieces break at half sigma_k steps about
    the centre, and at the e-folds of the Gaussian at kappa_c where the
    centre lies below it.
    """
    with mp.workdps(40):
        v0, sigma, k0 = mp.mpf(v0), mp.mpf(sigma), mp.mpf(k0)
        rest = mp.mpf(params.mu) * mp.mpf(params.c) ** 2
        hbar_c = mp.mpf(params.hbar) * mp.mpf(params.c)
        kc = mp.sqrt((rest + v0) ** 2 - rest * rest) / hbar_c
        s2 = sigma * sigma
        centre = sign * k0
        least = 2 * s2 * max(kc - centre, 0) ** 2
        norm = 2 * mp.sqrt(2 * s2 / mp.pi) / hbar_c

        def f(u):
            k = kc + u * u
            e_k = mp.sqrt((hbar_c * k) ** 2 + rest * rest)
            return norm * mp.exp(least - 2 * s2 * (k - centre) ** 2) * e_k * mp.sqrt(
                (e_k + rest + v0) / ((k + kc) * (e_k - v0 + rest))
            )

        sigma_k = 1 / (2 * sigma)
        ks = [centre + j * sigma_k / 2 for j in range(-30, 31)]
        if centre < kc + sigma_k:
            step = 1 / (4 * s2 * max(kc - centre, sigma_k))
            ks += [kc + j * step for j in (0.25, 0.5, 1, 2, 4, 8, 16, 40, 100)]
        edges = [mp.mpf(0)] + sorted(mp.sqrt(k - kc) for k in ks if k > kc) + [mp.inf]
        value, err = mp.quad(f, edges, error=True, maxdegree=12)
        scale = mp.exp(-least)
        return float(value * scale), float(err * scale)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    # composite Simpson on an odd-length uniform grid
    n = len(x)
    assert n % 2 == 1
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def branch_integral_oracle(decay: float, sqrt_pow: int = 1, y_pow: int = 1,
                           umax: float = 9.0, n: int = 2_000_001) -> float:
    """int_1^inf exp(-decay*y) (y^2-1)^(sqrt_pow/2) / y^y_pow dy.

    Substitutes y = 1 + u^2 so the endpoint derivative singularity
    disappears, then applies fine-grid composite Simpson.
    """
    u = np.linspace(0.0, umax / math.sqrt(max(decay, 0.02)), n)
    y = 1.0 + u * u
    f = (y * y - 1.0) ** (0.5 * sqrt_pow) / y**y_pow * np.exp(-decay * y) * 2.0 * u
    return simpson(f, u)


def sine_integral_oracle(f, k: float, zmax: float, n: int = 2_000_001) -> float:
    """Fine-grid Simpson for int_0^inf sin(k z) f(z) dz, truncated at zmax."""
    z = np.linspace(0.0, zmax, n)
    z[0] = 1e-300  # keep 1/z-type integrands finite; sin regularizes anyway
    vals = np.sin(k * z) * f(z)
    return simpson(vals, z)


def contour_kernel_oracle(j: int, k: int, zeta: float, params) -> float:
    """Brute-force evaluation of the residue building block f_{j,k}:
    Gauss-Laguerre in y (exact for the polynomial y-dependence), trapezoid
    around the circle |z| = mu c / 2 (spectrally accurate)."""
    mu_c = params.mu * params.c
    radius = 0.5 * mu_c
    n_theta = 512
    y_nodes, y_weights = np.polynomial.laguerre.laggauss(80)
    acc = 0.0 + 0.0j
    for y, w in zip(y_nodes, y_weights):
        ring = 0.0 + 0.0j
        for i in range(n_theta):
            z = radius * cmath.exp(2j * math.pi * i / n_theta)
            val = (1.0 + (z / mu_c) ** 2) ** ((k + 1) / 2.0)
            val *= (1.0 - 1j * params.hbar * y / (zeta * z)) ** (2 * j)
            ring += val
        acc += w * ring / n_theta
    pref = (1j * zeta / params.hbar) ** (2 * j) / math.factorial(2 * j)
    out = pref * acc
    assert abs(out.imag) < 1e-10
    return out.real
