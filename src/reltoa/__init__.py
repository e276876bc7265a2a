"""Relativistic time-of-arrival kernels and barrier traversal times.

Evaluates the time-kernel factors of the quantized relativistic
time-of-arrival operator for a spin-0 particle at a square barrier, and the
expected traversal time of Gaussian wavepackets through three independent
routes (direct oscillatory quadrature, hypergeometric series resummation,
and the closed momentum-space form).
"""

from reltoa.numerics import (
    DEFAULT_SETTINGS,
    Estimate,
    QuadratureError,
    QuadratureSettings,
    SeriesDivergenceError,
)
from reltoa.kernels import (
    NATURAL_UNITS,
    BarrierSpec,
    PhysicalParams,
    barrier_factor,
    fb_series,
    free_factor,
    gb_factor,
    momentum_kernel_f,
    momentum_kernel_g,
    region_kernel,
)
from reltoa.wavepacket import GaussianPacket, momentum_density, phi_overlap
from reltoa.classical import (
    ClassicallyForbiddenError,
    classical_toa_closed,
    crtoa_quadrature,
    kappa_c,
    qc_asymptotic,
    rc_asymptotic,
    rc_series_resummation,
    tau_top,
)
from reltoa.ior import (
    Luminality,
    ior_direct,
    ior_momentum,
    ior_series,
    momentum_split,
    qc_expectation,
    superluminal_classify,
    toa_difference,
    traversal_time,
)

__all__ = [
    "DEFAULT_SETTINGS",
    "NATURAL_UNITS",
    "BarrierSpec",
    "ClassicallyForbiddenError",
    "Estimate",
    "GaussianPacket",
    "Luminality",
    "PhysicalParams",
    "QuadratureError",
    "QuadratureSettings",
    "SeriesDivergenceError",
    "barrier_factor",
    "classical_toa_closed",
    "crtoa_quadrature",
    "fb_series",
    "free_factor",
    "gb_factor",
    "ior_direct",
    "ior_momentum",
    "ior_series",
    "kappa_c",
    "momentum_density",
    "momentum_kernel_f",
    "momentum_kernel_g",
    "momentum_split",
    "phi_overlap",
    "qc_asymptotic",
    "qc_expectation",
    "rc_asymptotic",
    "rc_series_resummation",
    "region_kernel",
    "superluminal_classify",
    "tau_top",
    "toa_difference",
    "traversal_time",
]

__version__ = "0.1.0"
