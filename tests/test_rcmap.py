import json
import math
import pathlib
import time

import numpy as np
import pytest

from rcprobe.errors import ParameterError, QuadratureError
from rcprobe.rcmap import (
    LorentzianOriginal,
    _original_side,
    OhmicResidual,
    cauchy_transform,
    cauchy_transform_subtracted,
    map_residual_to_original,
    verify_equivalence,
)

GRID = np.linspace(0.1, 3.0, 12)
REFERENCE = (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference"
             / "analytic_limits.json")


def test_mapping_constants():
    res = OhmicResidual(gamma=0.1, omega_c=100.0)
    lor = map_residual_to_original(res, omega0=1.0, g=0.5)
    assert lor.Gamma_width == pytest.approx(0.1)
    assert lor.varsigma == pytest.approx(1.0)


def test_lorentzian_peak_value():
    lor = LorentzianOriginal(varsigma=1.0, Gamma_width=0.1, omega0=1.0)
    assert lor(1.0) == pytest.approx(lor.varsigma / (lor.Gamma_width * lor.omega0))


def test_narrow_lorentzian_area_fixed():
    # Gamma -> 0 at fixed varsigma: area -> pi*varsigma/(2*omega0^2)
    from scipy.integrate import quad
    for gw in (0.1, 0.01):
        lor = LorentzianOriginal(varsigma=1.0, Gamma_width=gw, omega0=1.0)
        area, _ = quad(lor, 0, 50, limit=400, points=[1.0])
        assert area == pytest.approx(math.pi / 2, rel=5e-2 * gw / 0.1 + 1e-3)


def test_narrow_peak_cauchy_limit():
    # delta-like peak at omega0 with area A: W(z) -> (2/pi) A omega0/(omega0^2 - z^2)
    from scipy.integrate import quad
    z = 0.5 + 1e-3j
    prev_err = None
    for gw in (1e-2, 1e-3):
        lor = LorentzianOriginal(varsigma=1.0, Gamma_width=gw, omega0=1.0)
        area, _ = quad(lor, 0, 50, limit=400, points=[1.0])
        w = cauchy_transform(lor, z, upper=60.0)
        limit = (2 / math.pi) * area * 1.0 / (1.0 - z * z)
        err = abs(w - limit) / abs(limit)
        if prev_err is not None:
            assert err < prev_err  # converges as the peak narrows
        prev_err = err
    assert prev_err < 1e-2


def test_imaginary_part_recovers_density():
    res = OhmicResidual(gamma=0.05, omega_c=50.0)
    for x in (0.3, 1.0, 2.5):
        w = cauchy_transform(res, x + 1e-7j, upper=3000.0)
        assert w.imag == pytest.approx(res(x), rel=1e-6)


def test_pure_imaginary_argument_real():
    res = OhmicResidual(gamma=0.05, omega_c=50.0)
    w = cauchy_transform(res, 0.7j, upper=3000.0)
    assert abs(w.imag) < 1e-10


def test_subtracted_consistent_with_difference():
    res = OhmicResidual(gamma=0.05, omega_c=100.0)
    z = 0.8 + 1e-7j
    w0 = cauchy_transform(res, 0.0, upper=6000.0)
    wz = cauchy_transform(res, z, upper=6000.0)
    dw = cauchy_transform_subtracted(res, z, upper=6000.0)
    assert dw.real == pytest.approx((wz - w0).real, abs=1e-5)
    assert dw.imag == pytest.approx(wz.imag, rel=1e-8)


def test_subtracted_pure_ohmic_limit():
    # omega_c -> inf: W(z) - W(0) -> i*gamma*z for Im z > 0
    res = OhmicResidual(gamma=0.05, omega_c=1e5)
    z = 1.3 + 1e-7j
    dw = cauchy_transform_subtracted(res, z, upper=6e6)
    assert dw.imag == pytest.approx(res.gamma * z.real, rel=1e-3)
    assert abs(dw.real) < 5e-5


def test_real_axis_rejected():
    res = OhmicResidual(gamma=0.05, omega_c=50.0)
    with pytest.raises(QuadratureError):
        cauchy_transform(lambda w: res(w), -2.0 + 0.0j)


def test_equivalence_residual_small_and_monotone():
    residuals = []
    for ratio in (1e2, 1e3, 1e4):
        res = OhmicResidual(gamma=0.05, omega_c=ratio)
        residuals.append(verify_equivalence(res, 1.0, 0.5, GRID))
    assert residuals[1] < 1e-3
    assert residuals[0] > residuals[1] > residuals[2]


def test_default_residuals_match_the_recorded_reference():
    # map-spectral's defaults against the residuals recorded from QUADPACK (read only)
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["rcmap"]
    got = [verify_equivalence(OhmicResidual(gamma=0.05, omega_c=r), 1.0, 0.5, GRID)
           for r in (1e2, 1e3, 1e4)]
    assert got == pytest.approx(ref, rel=1e-9, abs=0)


@pytest.mark.parametrize("z", [1.0 + 1e-7j, 1.0 + 1.0j])
def test_non_integrable_density_stops_at_the_interval_cap(z):
    # a double pole at w = 0.3 near and off the axis: each round halves the intervals
    # around it until one integral would pass 400, which is refused, not grown further
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="past 400 intervals"):
        cauchy_transform(lambda w: 1.0 / (w - 0.3) ** 2, z, upper=5.0)
    assert time.perf_counter() - start < 1.0


def test_tolerance_below_rounding_is_raised_to_quadpacks_least():
    # |K - G| rounds near 50 eps, so a finer tolerance could never be met: it is
    # raised to that least tolerance, not refused at the interval cap
    res = OhmicResidual(gamma=0.05, omega_c=1e2)
    ref = verify_equivalence(res, 1.0, 0.5, GRID[:4], quadrature_tol=1e-14)
    for tol in (1e-17, 1e-300):
        assert verify_equivalence(res, 1.0, 0.5, GRID[:4], quadrature_tol=tol) == ref


def test_equivalence_g_small():
    res = OhmicResidual(gamma=0.05, omega_c=1e3)
    r = verify_equivalence(res, 1.0, 1e-7, GRID[:4])
    assert r < 1e-2  # both sides tiny; relative residual still bounded


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        OhmicResidual(gamma=-0.1, omega_c=10.0)
    with pytest.raises(ValueError):
        LorentzianOriginal(varsigma=1.0, Gamma_width=0.0, omega0=1.0)
    with pytest.raises(ValueError):
        map_residual_to_original(OhmicResidual(0.1, 10.0), omega0=1.0, g=0.0)
    # nan passes every `<= 0` check, and inf reaches the quadrature
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            OhmicResidual(gamma=bad, omega_c=10.0)
        with pytest.raises(ParameterError, match="finite"):
            OhmicResidual(gamma=0.1, omega_c=bad)
        with pytest.raises(ParameterError, match="finite"):
            LorentzianOriginal(varsigma=1.0, Gamma_width=bad, omega0=1.0)
        with pytest.raises(ParameterError, match="finite"):
            map_residual_to_original(OhmicResidual(0.1, 10.0), omega0=1.0, g=bad)
    # finite but overflowing inside a transform: a nan residual, never a max of 0
    with pytest.raises(QuadratureError, match="non-finite residual"):
        verify_equivalence(OhmicResidual(gamma=1e150, omega_c=1e2), 1.0, 1e100, GRID[:1])
    # a cutoff so far below x that 10 * upper < 2x: an empty regular panel, not a
    # backward one that samples the pole w = x
    with pytest.raises(QuadratureError, match="quadrature error"):
        verify_equivalence(OhmicResidual(gamma=1e150, omega_c=1e-300), 1.0, 1e50, GRID)
    # a quadrature tolerance that is not positive, before scipy sees it
    res = OhmicResidual(gamma=0.05, omega_c=1e2)
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ParameterError, match="quadrature_tol"):
            verify_equivalence(res, 1.0, 0.5, GRID[:2], quadrature_tol=tol)
        for transform in (cauchy_transform, cauchy_transform_subtracted):
            with pytest.raises(ParameterError, match="quadrature_tol"):
                transform(res, 1.0 + 0.5j, quadrature_tol=tol)


@pytest.mark.parametrize("z", [1.0 + 1e-7j, 1.0 + 0.5j])
def test_transform_of_an_overflowing_density_is_refused(z):
    # Gamma * varsigma = 4e350 overflows in NumPy arithmetic: without the check the
    # transforms returned nan + inf i near the axis and nan + nan i off it
    lor = map_residual_to_original(OhmicResidual(gamma=1e150, omega_c=1e2), 1.0, 1e100)
    for transform in (cauchy_transform, cauchy_transform_subtracted):
        with pytest.raises(QuadratureError, match="is not finite"):
            transform(lor, z)


def _cold(*args, **kw):
    _original_side.cache_clear()
    return verify_equivalence(*args, **kw)


@pytest.mark.parametrize("ratios", [(1e2, 1e4), (1e4, 1e2)])
def test_original_side_shared_across_cutoffs_bitwise(ratios):
    # -W0/2 depends on the Lorentzian alone: computed for the first cutoff, reused after
    cold = [_cold(OhmicResidual(gamma=0.05, omega_c=r), 1.0, 0.5, GRID) for r in ratios]
    _original_side.cache_clear()
    warm = [verify_equivalence(OhmicResidual(gamma=0.05, omega_c=r), 1.0, 0.5, GRID)
            for r in ratios]
    assert warm == cold
    info = _original_side.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("change", [
    {"g": 0.3}, {"gamma": 0.07}, {"omega0": 1.2}, {"tol": 1e-7}, {"grid": GRID[::-1] * 1.1},
])
def test_original_side_not_served_stale(change):
    base = {"gamma": 0.05, "omega0": 1.0, "g": 0.5, "grid": GRID[:6], "tol": 1e-10}

    def run(c):
        return verify_equivalence(OhmicResidual(gamma=c["gamma"], omega_c=1e3), c["omega0"],
                                  c["g"], c["grid"], quadrature_tol=c["tol"])

    ref = _cold(OhmicResidual(gamma=0.05, omega_c=1e3), 1.0, 0.5, GRID[:6])
    assert run(base) == ref  # warm on the base inputs
    warm = run(base | change)
    assert _original_side.cache_info().misses == 2  # the changed input missed
    _original_side.cache_clear()
    assert warm == run(base | change) != ref


def test_original_side_not_cached_for_a_call_that_raises():
    res = OhmicResidual(gamma=0.05, omega_c=1e2)
    _original_side.cache_clear()
    for _ in range(2):
        with pytest.raises(ParameterError, match="quadrature_tol"):
            verify_equivalence(res, 1.0, 0.5, GRID[:2], quadrature_tol=0.0)
        assert _original_side.cache_info().currsize == 0
