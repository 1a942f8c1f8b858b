"""Equilibrium-probe SNR engine for spins strongly coupled to a bosonic bath.

Modules: operators (matrices), baseline (weak-coupling closed forms), rcmap
(spectral densities and the mode-extraction mapping), thermal (exact
diagonalization), grwa (generalized rotating-wave approximation), dicke
(large-N thermodynamics), sweep/cli (reproducible parameter sweeps).
"""

from .baseline import WeakResult, weak_lowT_asymptote, weak_snr
from .dicke import DickeParams, DickeSolution, critical_temperature, dicke_snr
from .errors import (
    BracketError,
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    NumericalDomainError,
    ParameterError,
    QuadratureError,
    RcprobeError,
)
from .grwa import (
    GroundEnergyDerivs,
    asymptotic_snr,
    build_grwa_blocks,
    ground_energy_derivs,
    lambda_closed_form,
    solve_lambda,
)
from .operators import OperatorMatrix, ProbeParams, build_mapped_hamiltonian
from .rcmap import LorentzianOriginal, OhmicResidual, cauchy_transform, verify_equivalence
from .sweep import ScalingFit, SweepConfig, fit_scaling, run_sweep
from .thermal import SnrPoint, ThermalObservables, snr_exact, thermal_observables
from .units import convert_units

__version__ = "0.1.0"

__all__ = [
    "BracketError", "ConfigError", "ConsistencyError", "ConvergenceError",
    "DickeParams", "DickeSolution", "GroundEnergyDerivs", "LorentzianOriginal",
    "NumericalDomainError", "OhmicResidual", "OperatorMatrix", "ParameterError",
    "ProbeParams",
    "QuadratureError", "RcprobeError", "ScalingFit", "SnrPoint", "SweepConfig",
    "ThermalObservables", "WeakResult", "asymptotic_snr", "build_grwa_blocks",
    "build_mapped_hamiltonian", "cauchy_transform", "convert_units",
    "critical_temperature", "dicke_snr", "fit_scaling", "ground_energy_derivs",
    "lambda_closed_form", "run_sweep", "snr_exact", "solve_lambda",
    "thermal_observables", "verify_equivalence", "weak_lowT_asymptote",
    "weak_snr",
]
