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
tol) and shared by every cutoff mapped to that Lorentzian.  The quadrature is
NumPy's: an adaptive Gauss-Kronrod rule over all grid points at once, with the
principal value in a symmetric form and the tail in a logarithmic variable.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        return self.gamma * w * np.exp(-w / self.omega_c)


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


# QUADPACK's Gauss-Kronrod 7-15 pair on [-1, 1] (Piessens et al., QUADPACK, 1983): the 15
# Kronrod nodes and weights, and the Gauss weights of the 7 nodes _NODES[1::2]
_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993945,
    -0.5860872354676911, -0.4058451513773972, -0.20778495500789848, 0.0, 0.20778495500789848,
    0.4058451513773972, 0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126])
_KRONROD = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782,
    0.20443294007529889, 0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
_GAUSS = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                   0.4179591836734694, 0.3818300505051189, 0.27970539148927664,
                   0.1294849661688697])
_LIMIT = 400  # intervals per integral


def _gk15(f, a, b, s, tol):
    """int_a^b f(w, s) dw for each (a, b, s) of three broadcast arrays, in their shape.

    f maps an (m, 15) array of nodes and the (m, 1) parameters of their integrals to
    values; each round evaluates every new interval of every integral in one call.  An
    integral is done when its summed |K - G| <= tol * max(1, |I|) or I is not finite
    (for the caller to refuse); until then its intervals whose |K - G| exceeds their
    share of that bound are halved, up to _LIMIT intervals (then a QuadratureError).
    """
    a, b, s = np.broadcast_arrays(np.asarray(a), b, s)
    shape, n, (a, b, s) = a.shape, a.size, (v.ravel() for v in (a, b, s))
    new, lo, hi = np.arange(n), a, b  # the intervals to evaluate and their integrals
    own, L, H, K, E = np.empty(0, int), *np.empty((4, 0))
    while True:
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = f(c[:, None] + h[:, None] * _NODES, s[new, None])
        k = (v @ _KRONROD) * h
        own, L, H = np.concatenate((own, new)), np.concatenate((L, lo)), np.concatenate((H, hi))
        K, E = np.concatenate((K, k)), np.concatenate((E, abs(k - (v[:, 1::2] @ _GAUSS) * h)))
        total = np.zeros(n, K.dtype)
        np.add.at(total, own, K)
        err, bound = np.bincount(own, E, n), tol * np.maximum(1.0, abs(total))
        if not (err > bound).any():  # a nan or inf compares False: done
            return total.reshape(shape)
        count = np.bincount(own, minlength=n)
        split = (err > bound)[own] & (E > (bound / count)[own])
        if (over := count + np.bincount(own[split], minlength=n) > _LIMIT).any():
            i = over.argmax()
            raise QuadratureError(f"quadrature error {err[i]:.2e} past {_LIMIT} intervals on "
                                  f"[{a[i]}, {b[i]}] of the integration variable")
        mid = 0.5 * (L[split] + H[split])
        new, lo, hi = np.tile(own[split], 2), np.append(L[split], mid), np.append(mid, H[split])
        own, L, H, K, E = own[~split], L[~split], H[~split], K[~split], E[~split]


def _logmap(J, kernel, s, r, edges, tol):
    """int kernel(J, w, s) / (w^2 - s^2) dw across the edges, at each s of an array, in
    u = ln(1 + w/r): linear in w below r and logarithmic above it."""
    def f(u, i):
        w = r[i] * np.expm1(u)
        return kernel(J, w, s[i]) * (w + r[i]) / (w * w - s[i] * s[i])

    ends = np.log1p(np.array(edges) / r)
    return _gk15(f, ends[:-1], ends[1:], np.arange(len(s)), tol).sum(0)


def _principal_part(J, kernel, x, upper, tol):
    """PV int_0^inf kernel(J, w, x) / (w^2 - x^2) dw at each x > 0 of an array.

    Over [0, 2x]: int_0^x [g(x + t) - g(x - t)] / t dt, g(w) = kernel / (w + x), split
    at w = min(upper, x/2) to resolve a density below x; t = x - w resolves w only to
    the float spacing below x, and where upper is finer, spacing * |integrand(t = x)|
    bounds the loss.  The tail from 2x to 10 upper (if above 2x) is a _logmap integral.
    """
    def pv(t, x):
        return (kernel(J, x + t, x) / (2 * x + t) - kernel(J, x - t, x) / (2 * x - t)) / t

    cut = x - np.minimum(upper, 0.5 * x)
    lost = np.where(cut == x, abs(pv(x, x)) * (x - np.nextafter(x, 0)), 0.0)
    pvs = _gk15(pv, [0 * x, cut], [cut, x], x, tol).sum(0)
    if (bad := lost > tol * np.maximum(1.0, abs(pvs))).any():  # a nan is for the caller
        i = bad.argmax()
        raise QuadratureError(f"quadrature error {lost[i]:.2e}: the density below upper = "
                              f"{upper[i]} is finer than the float spacing at x = {x[i]}")
    return pvs + _logmap(J, kernel, x, x, [2 * x, np.maximum(2 * x, 10 * upper)], tol)


def _transform(J, z, kernel, tol, upper=None):
    """(2/pi) * int_0^inf kernel(J, w, z) / (w^2 - z^2) dw at each z of an array, at once.

    kernel(J, w, s) is J(w) times a kernel, on arrays; upper defaults to 50 max(|x|, 1).
    Near the positive real axis (|Im z| <= 1e-4 Re z = x) this is the delta -> 0+ limit,
    with an O(delta) error: Re is _principal_part and Im = J(x) exactly.  Elsewhere,
    z = 0 included, a _logmap integral over [0, upper] and [upper, 10 upper] on the
    pole's scale |z| resolves a pole near w = 0.
    """
    if not tol > 0:  # nan included
        raise ParameterError(f"quadrature_tol must be > 0, got {tol}")
    tol = max(tol, 50 * np.finfo(float).eps)  # QUADPACK's least; |K - G| rounds near it
    z = np.asarray(z, complex).reshape(-1)
    x, d = z.real, z.imag
    if not np.isfinite(z).all():
        raise ParameterError(f"z = {z[~np.isfinite(z)][0]} is not finite")
    if ((d == 0) & (x < 0)).any():
        raise QuadratureError("z on the real axis: use a finite imaginary shift or |Im z| << Re z")
    upper = np.broadcast_to(50.0 * np.maximum(abs(x), 1.0) if upper is None else upper, z.shape)
    if (bad := ~((0 < upper) & (upper < math.inf))).any():  # nan included
        raise ParameterError(f"upper must be positive and finite, got {upper[bad][0]}")
    out, near = np.empty(len(z), complex), (x > 0) & (abs(d) <= 1e-4 * x)
    far, up = z[~near], upper[~near]
    try:
        with np.errstate(all="ignore"):  # an overflow in J shows as a non-finite transform
            if near.any():
                out[near] = (2 / math.pi * _principal_part(J, kernel, x[near], upper[near], tol)
                             + 1j * np.copysign(1.0, d[near]) * J(x[near]))
            if len(far):
                r = np.where(far == 0, up, abs(far))  # the pole's scale; upper at z = 0
                out[~near] = 2 / math.pi * _logmap(J, kernel, far, r, [0 * up, up, 10 * up], tol)
    except OverflowError as exc:  # from a Python float's ** in the density
        raise QuadratureError(f"the integrand overflows: {exc}") from None
    return out


def _kernel_w(J, w, s):
    return J(w) * w


def _kernel_z2_over_w(J, w, s):
    w = np.where(w == 0.0, 1e-300, w)  # J(w)/w has a finite limit; dodge the 0/0
    return J(w) * s * s / w


def _finite(w, z):
    """w, a transform at z; a QuadratureError where it is not finite (the density overflows)."""
    if not np.isfinite(w):
        raise QuadratureError(f"the transform at z = {z} is not finite: {w}")
    return w


def cauchy_transform(J, z, quadrature_tol=1e-10, upper=None):
    """W(z) = (2/pi) * int_0^inf J(w) w / (w^2 - z^2) dw for complex z (see _transform).

    J is assumed odd-extended (J(-w) = -J(w)) and must take arrays.  z = 0 is allowed:
    the integrand J(w)/w is regular there for Ohmic-like densities.  A transform that
    is not finite, as where J overflows, is a QuadratureError.
    """
    return _finite(complex(_transform(J, z, _kernel_w, quadrature_tol, upper)[0]), z)


def cauchy_transform_subtracted(J, z, quadrature_tol=1e-10, upper=None):
    """W(z) - W(0) = (2/pi) * int_0^inf J(w) z^2 / (w (w^2 - z^2)) dw.

    One integral sign avoids the catastrophic cancellation of two cutoff-sized
    real parts, and its integrand decays one power faster, so the tail matters less.
    A transform that is not finite is a QuadratureError, as for cauchy_transform.
    """
    return _finite(complex(_transform(J, z, _kernel_z2_over_w, quadrature_tol, upper)[0]), z)


@lru_cache(maxsize=1)
def _original_side(lor, grid, tol):
    """W0(w + i delta), delta = 1e-6 omega0, over a grid tuple; see verify_equivalence."""
    w = np.array(grid, float)
    return _transform(lor, w + 1j * (1e-6 * lor.omega0), _kernel_w, tol,
                      50.0 * np.maximum(lor.omega0, w))


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
    w = np.asarray(grid, float)
    if not np.isfinite(w).all():
        raise ParameterError(f"the frequency grid holds a non-finite value w = "
                             f"{w[~np.isfinite(w)][0]}")
    lor = map_residual_to_original(res, omega0, g)
    w0 = _original_side(lor, tuple(grid), quadrature_tol)
    z = w + 1j * (1e-6 * omega0)
    # counterterm-subtracted W1, computed cancellation-free
    dw1 = _transform(res, z, _kernel_z2_over_w, quadrature_tol, 60.0 * res.omega_c)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite residual below
        lhs = -0.5 * w0
        rhs = 2.0 * g**2 * omega0 / (z * z - omega0**2 + omega0 * dw1)
        denom, diff = np.maximum(abs(lhs), abs(rhs)), abs(lhs - rhs)
        r = np.where(denom > 1e-12, diff / denom, diff)
    if (bad := ~(r < math.inf)).any():  # an overflow inside a transform; max() drops a nan
        i = bad.argmax()
        raise QuadratureError(f"non-finite residual {r[i]} at w = {w[i]}")
    return float(r.max())
