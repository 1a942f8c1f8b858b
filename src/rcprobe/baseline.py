"""Weak-coupling (canonical Gibbs) observables and signal-to-noise ratio.

For N independent spins thermalized against H = eps*Jz the closed forms are

    <Jz>   = -(N/2) tanh(beta*eps/2)
    Var Jz = (N/4) sech^2(beta*eps/2)
    S_weak = N beta^2 / (2 + 2 cosh(beta*eps)) = N beta^2 / (4 cosh^2(beta*eps/2))

Everything is evaluated in log space so that beta*eps of order 10^3 neither
overflows nor underflows prematurely.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class WeakResult:
    beta: float
    mean_Jz: float
    var_Jz: float
    snr: float


def _log_cosh(y):
    # log cosh(y) = |y| + log1p(exp(-2|y|)) - log 2, overflow-free
    y = abs(y)
    return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)


def weak_snr(N, epsilon, beta):
    """Closed-form Gibbs-state observables and SNR for the bare probe."""
    if not 0 < beta < math.inf:
        raise ParameterError(f"beta must be positive and finite, got {beta}")
    half = 0.5 * beta * epsilon
    mean = -0.5 * N * math.tanh(half)
    var = 0.25 * N * math.exp(-2.0 * _log_cosh(half))  # sech^2(half) without overflow
    return WeakResult(beta=beta, mean_Jz=mean, var_Jz=var,
                      snr=math.exp(weak_log_snr(N, epsilon, beta)))


def weak_log_snr(N, epsilon, beta):
    """log S_weak, usable where S_weak itself underflows."""
    half = 0.5 * beta * epsilon
    return math.log(N) + 2.0 * math.log(beta) - math.log(4.0) - 2.0 * _log_cosh(half)


def weak_lowT_asymptote(epsilon, T, N):
    """Leading low-temperature term N beta^2 exp(-beta*eps).

    Valid only for beta*eps >> 1; the ratio to weak_snr tends to 1 as T -> 0.
    """
    if T <= 0 or epsilon <= 0:
        raise ParameterError("requires T > 0 and epsilon > 0")
    beta = 1.0 / T
    return N * beta**2 * math.exp(-beta * epsilon)
