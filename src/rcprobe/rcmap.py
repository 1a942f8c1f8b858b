"""Spectral densities, the Cauchy transform, and the mode-extraction mapping.

The residual bath seen by the extracted mode is Ohmic with an exponential
cutoff, J1(w) = gamma * w * exp(-w/omega_c).  In the limit omega_c -> inf
the original probe-bath spectral density implied by the mapping is the
Lorentzian

    J0(w) = Gamma * varsigma * w / ((w^2 - omega0^2)^2 + Gamma^2 w^2),

with peak width Gamma = gamma * omega0 and overall strength
varsigma = 4 * omega0 * g^2.

The two Hamiltonians are dynamically equivalent when

    -1/2 W0(z) = 2 g^2 omega0 / (z^2 - omega0^2 + omega0 * [W1(z) - W1(0)])

where Wn is the Cauchy transform of Jn (odd-extended).  The subtraction of
W1(0) is the static frequency renormalization cancelled by the quadratic
counterterm of the mapped Hamiltonian; without it the finite-cutoff real
part (2 gamma omega_c / pi) would shift the resonance by an amount that
grows with the cutoff.  `verify_equivalence` checks the relation
numerically instead of assuming it; both transforms, W and W - W(0), are
one integrator, `_transform`, with two kernels.  varsigma and Gamma do not
depend on omega_c, so the left side is computed once per (Lorentzian, grid,
tol) and shared by every cutoff mapped to that Lorentzian.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy

from .errors import ParameterError, QuadratureError


@dataclass(frozen=True)
class OhmicResidual:
    """J(w) = gamma * w * exp(-w / omega_c)."""

    gamma: float
    omega_c: float

    def __post_init__(self):
        if not (0 < self.gamma < math.inf and 0 < self.omega_c < math.inf):
            raise ParameterError("gamma and omega_c must be positive and finite")

    def __call__(self, w):
        # quad calls it on one float at a time, where math.exp is ten times faster
        exp = math.exp if isinstance(w, float) else np.exp
        return self.gamma * w * exp(-w / self.omega_c)


@dataclass(frozen=True)
class LorentzianOriginal:
    """J(w) = Gamma * varsigma * w / ((w^2 - omega0^2)^2 + Gamma^2 w^2)."""

    varsigma: float
    Gamma_width: float
    omega0: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.varsigma, self.Gamma_width, self.omega0)):
            raise ParameterError("all Lorentzian parameters must be positive and finite")

    def __call__(self, w):
        return (
            self.Gamma_width
            * self.varsigma
            * w
            / ((w**2 - self.omega0**2) ** 2 + self.Gamma_width**2 * w**2)
        )


def map_residual_to_original(res: OhmicResidual, omega0, g):
    """Lorentzian original-bath density implied by an Ohmic residual bath."""
    if not (0 < omega0 < math.inf and 0 < g < math.inf):
        raise ParameterError("omega0 and g must be positive and finite")
    try:
        varsigma = 4.0 * omega0 * g**2
    except OverflowError:  # a Python float's ** raises where * would give inf
        raise ParameterError(f"g = {g} too large: the Lorentzian strength overflows") from None
    if varsigma == 0.0:  # g**2 underflows
        raise ParameterError(f"g = {g} too small: the Lorentzian strength underflows to 0")
    return LorentzianOriginal(
        varsigma=varsigma,
        Gamma_width=res.gamma * omega0,
        omega0=omega0,
    )


def _quad_checked(f, a, b, tol, **kw):
    if not tol > 0:
        raise ParameterError(f"quadrature_tol must be > 0, got {tol}")
    try:
        val, err = scipy.integrate.quad(f, a, b, limit=400, epsabs=tol, epsrel=tol, **kw)
    except OverflowError as exc:  # from a Python float's ** in the density
        raise QuadratureError(f"the integrand overflows on [{a}, {b}]: {exc}") from None
    if err > 1e-5 * max(abs(val), 1.0):
        raise QuadratureError(f"quadrature error {err:.2e} on [{a}, {b}]")
    return val


def _quad_decades(f, a, b, tol):
    """Adaptive quadrature over [a, b] split into log-spaced panels.

    Wide smooth ranges (cutoff tails spanning many decades) defeat a single
    adaptive call's subdivision budget; per-decade panels do not.
    """
    n = max(1, int(math.log10(b / a)) + 1)
    edges = [a * (b / a) ** (k / n) for k in range(n)] + [b]
    return sum(_quad_checked(f, lo, hi, tol) for lo, hi in zip(edges[:-1], edges[1:]))


def _transform(J, z, f, tol, upper):
    """(2/pi) * int_0^inf f(J, w, z) / (w^2 - z^2) dw, f(J, w, s) being J(w) times a kernel.

    Near the positive real axis (|Im z| <= 1e-4 Re z) this is the delta -> 0+
    limit, with an O(delta) error: a principal value by the Cauchy-weight rule
    on [0, 2x], per-decade panels from 2x up to 10 * upper (none where that is
    below 2x), and Im = J(x) exactly.
    Elsewhere, z = 0 included, both parts are direct adaptive quadratures.
    """
    z = complex(z)
    x, d = z.real, z.imag
    if not (math.isfinite(x) and math.isfinite(d)):
        raise ParameterError(f"z = {z} is not finite")
    if d == 0 and x < 0:
        raise QuadratureError("z on the real axis: use a finite imaginary shift or |Im z| << Re z")
    if upper is None:
        upper = 50.0 * max(abs(x), 1.0)
    elif not 0 < upper < math.inf:  # nan included
        raise ParameterError(f"upper must be positive and finite, got {upper}")
    with warnings.catch_warnings():
        # each quadrature's error estimate is checked in _quad_checked; roundoff
        # chatter from underflowing tails is not actionable
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        if x > 0 and abs(d) <= 1e-4 * x:
            pv = _quad_checked(lambda w: f(J, w, x) / (w + x), 0.0, 2.0 * x, tol,
                               weight="cauchy", wvar=x)
            reg = _quad_decades(lambda w: f(J, w, x) / (w * w - x * x), 2.0 * x,
                                max(2.0 * x, 10.0 * upper), tol)
            return complex((2.0 / math.pi) * (pv + reg), math.copysign(1.0, d) * J(x))
        z2 = z * z

        def fre(w):
            return (f(J, w, z) / (w * w - z2)).real

        def fim(w):
            return (f(J, w, z) / (w * w - z2)).imag

        re = _quad_checked(fre, 0.0, upper, tol) + _quad_checked(fre, upper, 10.0 * upper, tol)
        im = _quad_checked(fim, 0.0, upper, tol) + _quad_checked(fim, upper, 10.0 * upper, tol)
        return (2.0 / math.pi) * complex(re, im)


def _kernel_w(J, w, s):
    return J(w) * w


def _kernel_z2_over_w(J, w, s):
    if w == 0.0:
        w = 1e-300  # J(w)/w has a finite limit; dodge the 0/0
    return J(w) * s * s / w


def cauchy_transform(J, z, quadrature_tol=1e-10, upper=None):
    """W(z) = (2/pi) * int_0^inf J(w) w / (w^2 - z^2) dw for complex z (see _transform).

    J is assumed odd-extended (J(-w) = -J(w)).  z = 0 is allowed: the
    integrand J(w)/w is regular there for Ohmic-like densities.
    """
    return _transform(J, z, _kernel_w, quadrature_tol, upper)


def cauchy_transform_subtracted(J, z, quadrature_tol=1e-10, upper=None):
    """W(z) - W(0) = (2/pi) * int_0^inf J(w) z^2 / (w (w^2 - z^2)) dw.

    One integral sign avoids the catastrophic cancellation of two cutoff-sized
    real parts, and its integrand decays one power faster, so the tail matters less.
    """
    return _transform(J, z, _kernel_z2_over_w, quadrature_tol, upper)


@lru_cache(maxsize=1)
def _original_side(lor, grid, tol):
    """-W0(w + i delta)/2, delta = 1e-6 omega0, over a grid tuple; see verify_equivalence."""
    return tuple(-0.5 * cauchy_transform(lor, w + 1j * (1e-6 * lor.omega0), tol,
                                         upper=50.0 * max(lor.omega0, w))
                 for w in grid)


def verify_equivalence(res: OhmicResidual, omega0, g, grid, quadrature_tol=1e-10):
    """Max residual of the dynamical-equivalence relation over a frequency grid.

    Compares -W0(w + i delta)/2, delta = 1e-6 omega0, against
    2 g^2 omega0 / ((w + i delta)^2 - omega0^2 + omega0 (W1 - W1(0))),
    with W0 taken over the mapped Lorentzian and W1 over the Ohmic residual
    by quadrature.  Returns the max relative difference (absolute when both
    sides vanish, e.g. g -> 0).  The W0 side is cached for the last
    (Lorentzian, grid, tol), so a sweep over cutoffs computes it once.
    """
    if len(grid) == 0:
        raise ParameterError("the frequency grid is empty")
    for w in grid:
        if not math.isfinite(w):
            raise ParameterError(f"the frequency grid holds a non-finite value w = {w}")
    lor = map_residual_to_original(res, omega0, g)
    upper1 = 60.0 * res.omega_c
    worst = 0.0
    for w, lhs in zip(grid, _original_side(lor, tuple(grid), quadrature_tol)):
        z = w + 1j * (1e-6 * omega0)
        # counterterm-subtracted W1, computed cancellation-free
        dw1 = cauchy_transform_subtracted(res, z, quadrature_tol, upper=upper1)
        rhs = 2.0 * g**2 * omega0 / (z * z - omega0**2 + omega0 * dw1)
        denom = max(abs(lhs), abs(rhs))
        diff = abs(lhs - rhs)
        r = diff / denom if denom > 1e-12 else diff
        if not r < math.inf:  # an overflow inside a transform; max() would drop a nan
            raise QuadratureError(f"non-finite residual {r} at w = {w}")
        worst = max(worst, r)
    return worst
