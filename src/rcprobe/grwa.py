"""Generalized rotating-wave approximation for the probe + mode Hamiltonian.

A polaron displacement exp[lambda*(a^dag - a)*2Jx/..] with variational
amplitude lambda, followed by dropping the generalized counter-rotating
terms, leaves a Hamiltonian that conserves C = (Jz + J) + a^dag a.  Each
value of C yields a small tridiagonal block in the maximal-spin sector
(J = N/2), basis states |m, n = C - (m + J)> ordered by ascending m:

  diagonal      omega*n + (Delta/2)*(J(J+1) - m^2) + eps*m*F_0(n)
  off-diagonal  <m,n|H|m-1,n+1> = (1/2) sqrt(J(J+1) - m(m-1)) sqrt(n+1)
                                  * [g - omega*lambda + eps*F_1(n)]

with Delta = omega*lambda^2 - 2*g*lambda and Franck-Condon factors
F_n(m) = lambda^n e^{-lambda^2/2} (m!/(m+n)!) L_m^n(lambda^2).  The C = 0
block is the 1x1 variational ground energy
E_g = (N/4)*Delta - (N/2)*eps*e^{-lambda^2/2}.

lambda minimizes E_g:  lambda - g/omega + (eps*lambda/omega) e^{-lambda^2/2} = 0.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import BracketError, ConsistencyError, NumericalDomainError


@dataclass(frozen=True)
class LambdaSolution:
    lam: float
    residual: float


@dataclass(frozen=True)
class GrwaBlock:
    """One conserved-excitation block; excitation_index = C - 1, ground = -1."""

    excitation_index: int
    matrix: np.ndarray


@dataclass(frozen=True)
class GroundEnergyDerivs:
    E_g: float
    dE_deps: float
    d2E_deps2: float


def _lambda_eq(lam, epsilon, omega, g):
    return lam - g / omega + (epsilon * lam / omega) * math.exp(-0.5 * lam * lam)


def solve_lambda(epsilon, omega, g) -> LambdaSolution:
    """Bracketed root of the variational lambda equation."""
    if omega <= 0:
        raise NumericalDomainError("requires omega > 0")
    if g == 0:
        return LambdaSolution(0.0, 0.0)
    hi = (g / omega) * (1.0 + epsilon / omega) + 1.0
    f0 = _lambda_eq(0.0, epsilon, omega, g)
    f1 = _lambda_eq(hi, epsilon, omega, g)
    if f0 * f1 > 0:
        raise BracketError(
            f"no sign change on [0, {hi}]: f(0)={f0:.3e}, f(hi)={f1:.3e}"
        )
    lam = scipy.optimize.brentq(_lambda_eq, 0.0, hi, args=(epsilon, omega, g),
                                xtol=1e-12, rtol=8.9e-16)
    return LambdaSolution(lam, _lambda_eq(lam, epsilon, omega, g))


def lambda_closed_form(epsilon, omega, g):
    """One-step approximation lambda = g/(omega + eps*exp(-lambda_0^2/2))."""
    lam0 = g / (epsilon + omega)
    return g / (omega + epsilon * math.exp(-0.5 * lam0 * lam0))


def dlambda_deps(epsilon, omega, g, lam=None):
    """d lambda / d eps by implicit differentiation of the root equation."""
    if lam is None:
        lam = solve_lambda(epsilon, omega, g).lam
    e = math.exp(-0.5 * lam * lam)
    f_eps = lam * e / omega
    f_lam = 1.0 + (epsilon / omega) * e * (1.0 - lam * lam)
    return -f_eps / f_lam


def _F_table(n, m_max, lam):
    """F_n(m) for m = 0 .. m_max from one upward recurrence pass of L_m^n(lam^2) in m."""
    x = lam * lam
    L = np.ones(m_max + 1)
    lk1, lk = 0.0, 1.0  # L_{-1}^n = 0, L_0^n = 1
    for k in range(1, m_max + 1):
        lk1, lk = lk, ((2 * k - 1 + n - x) * lk - (k - 1 + n) * lk1) / k
        L[k] = lk
    ratio, m = np.ones(m_max + 1), np.arange(m_max + 1)
    for j in range(1, n + 1):  # m!/(m+n)!
        ratio /= m + j
    return lam**n * math.exp(-0.5 * x) * ratio * L


def coefficient_F(n, m, lam):
    """F_n(m) = lam^n e^{-lam^2/2} (m!/(m+n)!) L_m^n(lam^2), stable recurrence."""
    if n < 0 or m < 0:
        raise NumericalDomainError("F_n(m) requires n, m >= 0")
    return float(_F_table(n, m, lam)[m])


def ground_entry(N, epsilon, omega, g, lam):
    delta = omega * lam * lam - 2.0 * g * lam
    return 0.25 * N * delta - 0.5 * N * epsilon * math.exp(-0.5 * lam * lam)


def build_grwa_blocks(N, epsilon, omega, g, lam, n_max):
    """All conserved-excitation blocks with Fock index capped at n_max."""
    if N < 1 or n_max < 1:
        raise NumericalDomainError("N and n_max must be >= 1")
    J = N / 2.0
    delta = omega * lam * lam - 2.0 * g * lam
    gt = g - omega * lam
    jj = J * (J + 1.0)
    # every state |m, n> once (k = m + J), ordered by C = k + n, then by ascending m
    k, n = np.divmod(np.arange((N + 1) * (n_max + 1)), n_max + 1)
    order = np.lexsort((k, k + n))
    k, n = k[order], n[order]
    m = k - J
    diag = omega * n + 0.5 * delta * (jj - m * m) + epsilon * m * _F_table(0, n_max, lam)[n]
    # <m,n|H|m-1,n+1>: the coupling of each state to the one before it in its block
    off = (0.5 * np.sqrt(jj - m * (m - 1.0)) * np.sqrt(n + 1.0)
           * (gt + epsilon * _F_table(1, n_max, lam)[n]))
    ends = np.searchsorted(k + n, np.arange(N + n_max + 2))
    blocks = []
    for C, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        B, i = np.diag(diag[a:b]), np.arange(1, b - a)
        B[i, i - 1] = B[i - 1, i] = off[a + 1 : b]
        blocks.append(GrwaBlock(C - 1, B))
    return blocks


def grwa_spectrum(blocks):
    """All eigenvalues across blocks, ascending."""
    evs = [np.linalg.eigvalsh(b.matrix) for b in blocks]
    return np.sort(np.concatenate(evs))


def grwa_partition(blocks, beta):
    """Shift-stabilized lnZ over every block eigenvalue."""
    if not 0 < beta < math.inf:
        raise NumericalDomainError(f"beta must be positive and finite, got {beta}")
    ev = grwa_spectrum(blocks)
    return scipy.special.logsumexp(-beta * ev)


def grwa_mean_jz(N, epsilon, omega, g, beta, n_max):
    """<Jz> = -(1/beta) d lnZ / d eps, with lambda re-solved at each eps."""
    h = 1e-5 * omega

    def lnz(eps):
        lam = solve_lambda(eps, omega, g).lam
        return grwa_partition(build_grwa_blocks(N, eps, omega, g, lam, n_max), beta)

    return -(lnz(epsilon + h) - lnz(epsilon - h)) / (2.0 * beta * h)


def ground_energy_derivs(N, epsilon, omega, g) -> GroundEnergyDerivs:
    """E_g and its first two eps-derivatives at the variational optimum.

    dE/deps follows from the Hellmann-Feynman theorem (the d lambda/d eps
    contribution vanishes at the optimum); d2E/deps2 combines it with the
    implicit derivative of lambda.  Both are cross-checked against central
    finite differences of E_g(eps) to 1e-3 relative (ConsistencyError).
    """
    lam = solve_lambda(epsilon, omega, g).lam
    e = math.exp(-0.5 * lam * lam)
    E = ground_entry(N, epsilon, omega, g, lam)
    dE = -0.5 * N * e
    d2E = 0.5 * N * lam * e * dlambda_deps(epsilon, omega, g, lam)

    # h ~ eps_mach^{1/4}: small enough for O(h^2) truncation, large enough
    # that the second difference is not dominated by rounding of E ~ O(N)
    h = 1e-3 * max(omega, epsilon)

    def Eg(eps):
        l2 = solve_lambda(eps, omega, g).lam
        return ground_entry(N, eps, omega, g, l2)

    up, dn = Eg(epsilon + h), Eg(epsilon - h)
    fd1 = (up - dn) / (2.0 * h)
    fd2 = (up - 2.0 * E + dn) / (h * h)
    if abs(fd1 - dE) > 1e-3 * max(abs(dE), 1e-12):
        raise ConsistencyError(f"dE/deps analytic {dE} vs FD {fd1}")
    if g > 0 and abs(fd2 - d2E) > 1e-3 * max(abs(d2E), 1e-12):
        raise ConsistencyError(f"d2E/deps2 analytic {d2E} vs FD {fd2}")
    return GroundEnergyDerivs(E_g=E, dE_deps=dE, d2E_deps2=d2E)


def asymptotic_snr(N, derivs: GroundEnergyDerivs, beta):
    """Low-temperature SNR asymptote with unit proportionality constants.

    N = 1: ground-state quantum variance gives the temperature-independent
    4 (d2E)^2 / (1 - 4 (dE)^2); N >= 2: thermal susceptibility gives
    -beta * d2E (grows as 1/T).
    """
    if not 0 < beta < math.inf:
        raise NumericalDomainError(f"beta must be positive and finite, got {beta}")
    if N == 1:
        den = 1.0 - 4.0 * derivs.dE_deps**2
        if den <= 0:
            raise NumericalDomainError(
                f"1 - 4(dE)^2 = {den:.3e} <= 0: asymptote invalid in this regime"
            )
        return 4.0 * derivs.d2E_deps2**2 / den
    return -beta * derivs.d2E_deps2
