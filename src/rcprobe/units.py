"""Unit conversion between lab units (GHz, mK) and dimensionless model units.

Ordinary frequencies nu (GHz) become angular frequencies 2*pi*nu; a
temperature T becomes the thermal angular frequency k_B T / hbar.  All
model-level computations then run with omega scaled to 1.

Physical constants are the 2019 SI exact values.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError

K_B = 1.380649e-23  # J / K (exact)
H_PLANCK = 6.62607015e-34  # J s (exact)
KB_OVER_H_GHZ_PER_K = K_B / H_PLANCK / 1e9  # = 20.836619... GHz/K


@dataclass(frozen=True)
class ReducedUnits:
    """Dimensionless parameters with omega = 1."""

    epsilon: float
    omega: float  # always 1.0
    g: float
    beta_omega: float
    beta_epsilon: float


def thermal_frequency_GHz(temp_mK):
    """k_B T / h as an ordinary frequency in GHz."""
    if temp_mK <= 0:
        raise ParameterError(f"temperature must be positive, got {temp_mK} mK")
    return KB_OVER_H_GHZ_PER_K * temp_mK * 1e-3


def convert_units(eps_GHz, omega_GHz, g_GHz, temp_mK) -> ReducedUnits:
    """Reduce lab parameters (ordinary frequencies over 2*pi) to omega = 1 units.

    The 2*pi factors cancel in every ratio, so beta*omega = omega_GHz / nu_T
    with nu_T = k_B T / h in GHz.
    """
    if min(eps_GHz, omega_GHz, g_GHz) <= 0:
        raise ParameterError("frequencies must be positive")
    nu_t = thermal_frequency_GHz(temp_mK)
    return ReducedUnits(
        epsilon=eps_GHz / omega_GHz,
        omega=1.0,
        g=g_GHz / omega_GHz,
        beta_omega=omega_GHz / nu_t,
        beta_epsilon=eps_GHz / nu_t,
    )
