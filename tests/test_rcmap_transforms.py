"""Closed-form oracles for the two Cauchy transforms of rcmap, and the grid check.

The Lorentzian's transform is a rational function and the Ohmic residual's
subtracted transform is an exponential integral, so both real parts, which
the quadrature produces, are checked against exact values.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from rcprobe import rcmap
from rcprobe.errors import ParameterError
from rcprobe.rcmap import (
    LorentzianOriginal,
    OhmicResidual,
    cauchy_transform,
    cauchy_transform_subtracted,
    map_residual_to_original,
    verify_equivalence,
)

NEAR_AXIS = [x + 1e-7j for x in (0.3, 1.0, 2.5)]
OFF_AXIS = 0.7 + 0.4j


def _assert_close(w, ref):
    # the floor of 1e-11 |W| matters only where Re W vanishes (the Lorentzian peak)
    assert w.real == pytest.approx(ref.real, rel=1e-9, abs=1e-11 * abs(ref))
    assert w.imag == pytest.approx(ref.imag, rel=1e-9)


@pytest.mark.parametrize("z", NEAR_AXIS + [OFF_AXIS])
def test_lorentzian_transform_matches_closed_form(z):
    # W0(z) = -varsigma / (z^2 - omega0^2 + i Gamma z) for Im z > 0; near the
    # axis the transform returns the delta -> 0+ limit, so compare at x + i0
    lor = LorentzianOriginal(varsigma=1.0, Gamma_width=0.05, omega0=1.0)
    s = complex(z.real, 0.0) if z in NEAR_AXIS else z
    ref = -lor.varsigma / (s * s - lor.omega0**2 + 1j * lor.Gamma_width * s)
    _assert_close(cauchy_transform(lor, z, upper=50.0 * max(1.0, z.real)), ref)


@pytest.mark.parametrize("omega_c", [1e2, 1e4])
@pytest.mark.parametrize("z", NEAR_AXIS + [OFF_AXIS])
def test_ohmic_subtracted_transform_matches_exponential_integral(omega_c, z):
    # W(z) - W(0) = (gamma/pi) z (I(z) - I(-z)), I(a) = exp(-a/c) E1(-a/c);
    # an imaginary part of 1e-300 selects the delta -> 0+ branch of E1
    res = OhmicResidual(gamma=0.05, omega_c=omega_c)
    s = complex(z.real, 1e-300) if z in NEAR_AXIS else z

    def i_of(a):
        return np.exp(-a / omega_c) * exp1(-a / omega_c)

    ref = res.gamma / np.pi * s * (i_of(s) - i_of(-s))
    _assert_close(cauchy_transform_subtracted(res, z, upper=60.0 * omega_c), ref)


def test_grid_call_equals_per_point_transforms():
    # verify_equivalence integrates each side for the whole grid at once; each point's
    # integrals are refined by their own errors, so they equal one-point calls: w <= 0
    # is off the axis, w > 0 near it
    grid = (-1.2, 0.0, 0.3, 1.0, 2.5)
    res = OhmicResidual(gamma=0.05, omega_c=1e3)
    lor = map_residual_to_original(res, 1.0, 0.5)
    z = np.array(grid) + 1e-6j
    rcmap._original_side.cache_clear()
    verify_equivalence(res, 1.0, 0.5, grid)
    sides = (rcmap._original_side(lor, grid, 1e-10),
             rcmap._transform(res, z, rcmap._kernel_z2_over_w, 1e-10, 6e4))
    points = ([cauchy_transform(lor, s, upper=50.0 * max(1.0, s.real)) for s in z],
              [cauchy_transform_subtracted(res, s, upper=6e4) for s in z])
    assert rcmap._original_side.cache_info().hits == 1  # the grid call's own left side
    for side, point in zip(sides, points):
        assert (np.abs(side - np.array(point)) <= 1e-14 * np.abs(point)).all()


def test_empty_grid_rejected():
    # an empty grid has no residual; 0.0 would read as a perfect equivalence
    with pytest.raises(ParameterError, match="empty"):
        verify_equivalence(OhmicResidual(gamma=0.05, omega_c=1e2), 1.0, 0.5, np.array([]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_frequency_rejected(bad):
    # not scipy's ValueError for an infinite interval, nor a QuadratureError for nan
    res = OhmicResidual(gamma=0.05, omega_c=1e2)
    lor = LorentzianOriginal(varsigma=1.0, Gamma_width=0.05, omega0=1.0)
    with pytest.raises(ParameterError, match="non-finite value w = "):
        verify_equivalence(res, 1.0, 0.5, [0.5, bad])
    for z in (complex(bad, 0.0), complex(1.0, bad)):
        with pytest.raises(ParameterError, match="not finite"):
            cauchy_transform(lor, z)
        with pytest.raises(ParameterError, match="not finite"):
            cauchy_transform_subtracted(res, z)


def test_zero_frequency_in_grid_allowed():
    # w = 0 is finite: the off-axis branch at z = i delta, where both sides agree
    r = verify_equivalence(OhmicResidual(gamma=0.05, omega_c=1e2), 1.0, 0.5, [0.0])
    assert 0.0 <= r < 1e-9


@pytest.mark.parametrize("upper", [math.nan, -1.0, 0.0, math.inf])
def test_upper_must_be_positive_and_finite(upper):
    # nan gave nan + nan i, -1 a flipped sign and 0 a zero transform at z = 0.7 + 0.4i;
    # inf escaped near the axis as a bare OverflowError
    res = OhmicResidual(gamma=0.05, omega_c=1e2)
    lor = LorentzianOriginal(varsigma=1.0, Gamma_width=0.05, omega0=1.0)
    for z in (OFF_AXIS, 1.0 + 1e-7j):
        with pytest.raises(ParameterError, match="upper must be positive and finite"):
            cauchy_transform(lor, z, upper=upper)
        with pytest.raises(ParameterError, match="upper must be positive and finite"):
            cauchy_transform_subtracted(res, z, upper=upper)
