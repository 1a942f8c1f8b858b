"""Large-N (Dicke) thermodynamics by Laplace's method.

Integrating out the mode with a coherent-state resolution leaves
Z ~ int dz e^{N Phi(z)} with the intensive free-energy functional

    Phi(z) = -beta*omega*z^2 + ln[2 cosh( (beta/2) sqrt(eps^2 + 16 gbar^2 z^2) )]

where gbar = sqrt(N) g / 2 is the intensive coupling.  With
mu = eps*omega/(4 gbar^2), the superradiant phase exists for mu < 1 below

    Tc = eps / (2 arctanh(mu)),

where the order parameter eta in [1, 1/mu] solves eta*mu = tanh(beta*eps*eta/2)
and the saddle sits at z0 = eps*sqrt(eta^2 - 1)/(4 gbar) (eta = 1, z0 = 0 in
the normal phase); every observable at one (p, beta > 0) reads that one saddle.
Laplace's method gives lnZ = N Phi(z0) + (1/2) ln[2 / (beta omega |Phi''(z0)|)],
with Phi'' in closed form.  The per-spin SNR is

    normal        beta^2 / (2 + 2 cosh(beta*eps))       (weak-coupling form)
    superradiant  omega^2 / (16 gbar^4 - eps^2 omega^2)  (temperature-independent)
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .baseline import _root, weak_snr
from .errors import NumericalDomainError, ParameterError
from .thermal import SnrPoint, ThermalObservables

NORMAL = "normal"
SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class DickeParams:
    epsilon: float
    omega: float
    gbar: float
    N: int = 1

    def __post_init__(self):
        e, w, gb = self.epsilon, self.omega, self.gbar
        if not (0 < e < math.inf and 0 < w < math.inf and 0 < gb < math.inf) or self.N < 1:
            raise ParameterError("epsilon, omega, gbar must be positive and finite; N >= 1")
        try:
            mu = self.mu
        except (OverflowError, ZeroDivisionError):  # gbar**2 overflows or underflows to 0
            mu = math.nan
        if not mu >= sys.float_info.min:  # 1/mu bounds eta, so it must be finite
            raise ParameterError(f"mu = epsilon*omega/(4 gbar^2) leaves the float range at "
                                 f"epsilon = {e}, omega = {w}, gbar = {gb}")

    @property
    def mu(self):
        return self.epsilon * self.omega / (4.0 * self.gbar**2)


@dataclass(frozen=True)
class DickeSolution:
    phase: str
    Tc: float | None  # None when mu >= 1: no transition
    eta: float  # 1 in the normal phase
    z0: float
    lnZ: float
    snr: float  # total S, as dicke_snr returns it
    snr_weak: float
    snr_per_N: float


def critical_temperature(p: DickeParams):
    """Tc of the normal/superradiant transition; None when mu >= 1."""
    if p.mu >= 1.0:
        return None
    return p.epsilon / (2.0 * math.atanh(p.mu))


def solve_eta(p: DickeParams, beta):
    """Order parameter eta in [1, 1/mu] from eta*mu = tanh(beta*eps*eta/2)."""
    mu = p.mu
    tc = critical_temperature(p)
    # tolerate rounding of beta*tc right at the boundary (eta -> 1 there)
    if tc is None or beta * tc < 1.0 - 1e-9:
        raise NumericalDomainError("solve_eta called in the normal phase")

    def f(eta):
        return eta * mu - math.tanh(0.5 * beta * p.epsilon * eta)

    hi = 1.0 / mu
    f1 = f(1.0)
    if f1 >= 0.0:  # at or within root tolerance of Tc
        return 1.0
    if f(hi) <= 0.0:  # tanh rounds to 1 and hi*mu below it: the root is hi to rounding
        return hi
    return _root(f, 1.0, hi)


def phi(p: DickeParams, beta, z):
    r = np.sqrt(p.epsilon**2 + 16.0 * p.gbar**2 * np.asarray(z) ** 2)
    y = 0.5 * beta * r
    # ln 2cosh(y), overflow-free
    return -beta * p.omega * np.asarray(z) ** 2 + y + np.log1p(np.exp(-2.0 * y))


def phi_curvature(p: DickeParams, beta, z):
    """Phi''(z) = -2 beta omega + (beta/2) [(beta/2) sech^2(y) r'^2 + tanh(y) r''],
    the closed form, with r = sqrt(eps^2 + 16 gbar^2 z^2), y = beta r / 2,
    r' = 16 gbar^2 z / r and r'' = 16 gbar^2 eps^2 / r^3.
    """
    k = 16.0 * p.gbar**2
    r = math.sqrt(p.epsilon**2 + k * z * z)
    y = 0.5 * beta * r
    e = math.exp(-2.0 * y)  # sech^2(y) = 4e / (1 + e)^2, overflow-free
    r1 = k * z / r
    r2 = k * p.epsilon**2 / r**3
    return -2.0 * beta * p.omega + 0.5 * beta * (
        0.5 * beta * (4.0 * e / (1.0 + e) ** 2) * r1 * r1 + math.tanh(y) * r2
    )


@lru_cache(maxsize=1)
def _saddle(p: DickeParams, beta):
    """(phase, Tc or None, eta, z0) at one point, the phase decided and eta solved once;
    kept for the last point, so dicke_solution and the dicke_snr it calls share it."""
    if not 0 < beta < math.inf:
        raise NumericalDomainError(f"beta must be positive and finite, got {beta}")
    tc = critical_temperature(p)
    if tc is None or 1.0 / beta >= tc:
        phase, eta, z0 = NORMAL, 1.0, 0.0
    else:
        phase, eta = SUPERRADIANT, solve_eta(p, beta)  # eta >= 1
        z0 = p.epsilon * math.sqrt(eta * eta - 1.0) / (4.0 * p.gbar)
    # N Phi and Phi'' grow as N beta times energies of order omega (1 + z0^2) + r;
    # refuse a saddle whose energy, or a beta at which that product (doubled, for
    # margin), leaves the float range
    energy = p.omega * (1.0 + z0 * z0) + math.sqrt(p.epsilon**2 + 16.0 * p.gbar**2 * z0 * z0)
    if not math.isfinite(energy):
        raise NumericalDomainError(f"the saddle's energy overflows a float: z0 = {z0:.6g}, "
                                  f"eta = {eta:.6g}")
    if not math.isfinite(2.0 * p.N * beta * energy):
        raise NumericalDomainError(f"beta = {beta} too large: lnZ overflows a float")
    return phase, tc, eta, z0


def laplace_partition(p: DickeParams, beta):
    """(lnZ, z0): saddle-point lnZ including the Gaussian prefactor."""
    z0 = _saddle(p, beta)[3]
    dd = phi_curvature(p, beta, z0)
    if abs(dd) < 1e-14:
        raise NumericalDomainError("flat saddle direction: exactly at the Tc boundary")
    # the log taken term by term: beta * omega * |Phi''| overflows from beta ~ 1e155
    log_pref = math.log(2.0) - math.log(beta) - math.log(p.omega) - math.log(abs(dd))
    lnz = p.N * float(phi(p, beta, z0)) + 0.5 * log_pref
    return lnz, z0


def dicke_observables(p: DickeParams, beta) -> ThermalObservables:
    """Phase-resolved <Jz> and <Jz^2> in the thermodynamic limit.

    The moments are continuous across Tc; lnZ is reported as nan right at
    the boundary where the saddle goes flat and the Gaussian prefactor of
    the Laplace approximation diverges.
    """
    eta = _saddle(p, beta)[2]
    N = p.N
    t = math.tanh(0.5 * beta * p.epsilon * eta) / eta  # eta = 1 in the normal phase
    m1 = -0.5 * N * t
    m2 = 0.25 * N + 0.25 * N * (N - 1) * t * t
    try:
        lnz, _ = laplace_partition(p, beta)
    except NumericalDomainError:
        lnz = math.nan
    var = max(m2 - m1 * m1, 0.0)
    return ThermalObservables(
        beta=beta, lnZ=lnz, mean_Jz=m1, mean_Jz2=m2, var_Jz=var, var_Jz_kubo=var,
    )


def dicke_snr(p: DickeParams, beta) -> SnrPoint:
    """Total SNR S (N times the per-spin closed form of either branch) and S_weak."""
    phase = _saddle(p, beta)[0]
    sw = weak_snr(p.N, p.epsilon, beta).snr
    if phase == NORMAL:
        s = p.N * weak_snr(1, p.epsilon, beta).snr
    else:
        den = 16.0 * p.gbar**4 - p.epsilon**2 * p.omega**2
        if den <= 0:
            raise NumericalDomainError("superradiant branch requires 16 gbar^4 > eps^2 omega^2")
        s = p.N * p.omega**2 / den
    return SnrPoint(beta=beta, snr=s, snr_weak=sw)


def dicke_solution(p: DickeParams, beta) -> DickeSolution:
    """Phase, order parameter, saddle, lnZ and SNR of one point, from one saddle."""
    try:
        phase, tc, eta, z0 = _saddle(p, beta)
        s = dicke_snr(p, beta)
        lnz = laplace_partition(p, beta)[0]
    except (OverflowError, ZeroDivisionError) as exc:  # where numpy would give inf or nan
        raise NumericalDomainError(f"{p} at beta = {beta} leaves the float range: "
                                  f"{type(exc).__name__}") from None
    return DickeSolution(phase=phase, Tc=tc, eta=eta, z0=z0, lnZ=lnz, snr=s.snr,
                         snr_weak=s.snr_weak, snr_per_N=s.snr / p.N)


def hp_excitations(p: DickeParams):
    """Holstein-Primakoff/Bogoliubov excitation energies of both phases.

    Returns ((em_n, ep_n), (em_s, ep_s)); a negative normal-branch (em)^2
    (instability beyond the T=0 critical coupling) is reported as nan.
    """
    try:
        e2, w2 = p.epsilon**2, p.omega**2
        disc_n = math.sqrt((e2 - w2) ** 2 + 16.0 * p.gbar**2 * p.epsilon * p.omega)
        em2 = 0.5 * (e2 + w2 - disc_n)
        ep2 = 0.5 * (e2 + w2 + disc_n)
        normal = (math.sqrt(em2) if em2 >= 0 else math.nan, math.sqrt(ep2))
        if p.mu < 1.0:
            ee = e2 / p.mu**2
            disc_s = math.sqrt((ee - w2) ** 2 + 4.0 * e2 * w2)
            sm2 = 0.5 * (ee + w2 - disc_s)
            sp2 = 0.5 * (ee + w2 + disc_s)
            sup = (math.sqrt(max(sm2, 0.0)), math.sqrt(sp2))
        else:
            sup = (math.nan, math.nan)
    except (OverflowError, ZeroDivisionError) as exc:  # as in dicke_solution
        raise NumericalDomainError(f"{p} leaves the float range: {type(exc).__name__}") from None
    return normal, sup
