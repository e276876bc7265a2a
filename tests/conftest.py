"""Shared brute-force oracles, independent of the library's own quadrature."""

from __future__ import annotations

import cmath
import importlib.util
import math
import pathlib

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


def crossing_weight(k: float, v0: float, params) -> float:
    """The momentum route's crossing weight sqrt(E^2/((E - v0)^2 - mu^2 c^4)),
    0.0 at and below threshold, in the operations of its two-call form."""
    rest = params.rest_energy
    e_k = math.hypot(params.hbar * k * params.c, rest)
    denom = (e_k - v0) ** 2 - rest * rest
    return math.sqrt(e_k * e_k / denom) if denom > 0.0 else 0.0


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
