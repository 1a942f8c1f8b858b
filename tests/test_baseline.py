import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcprobe.baseline import _root, weak_log_snr, weak_lowT_asymptote, weak_snr
from rcprobe.dicke import DickeParams, critical_temperature, solve_eta
from rcprobe.grwa import _lambda_eq, solve_lambda


def brute_force_gibbs(N, epsilon, beta):
    """2^N product-space Gibbs reference for the bare probe."""
    sz = np.array([-0.5, 0.5])
    # product state Jz eigenvalues: sum over bit patterns
    levels = np.zeros(1)
    for _ in range(N):
        levels = (levels[:, None] + sz[None, :]).ravel()
    w = np.exp(-beta * epsilon * (levels - levels.min()))
    z = w.sum()
    m1 = (w * levels).sum() / z
    # centered second moment avoids the m2 - m1^2 cancellation
    var = (w * (levels - m1) ** 2).sum() / z
    # d<Jz>/d eps for the diagonal ensemble is -beta*Var, so S = beta^2*Var
    return m1, var, beta**2 * var


def test_zero_field_quarter():
    assert weak_snr(1, 0.0, 1.0).snr == pytest.approx(0.25, rel=1e-14)


def test_linear_in_N():
    a = weak_snr(1, 0.7, 2.3).snr
    b = weak_snr(4, 0.7, 2.3).snr
    assert b == pytest.approx(4 * a, rel=1e-14)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.05, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_matches_brute_force(N, epsilon, beta):
    m1, var, snr = brute_force_gibbs(N, epsilon, beta)
    res = weak_snr(N, epsilon, beta)
    assert res.mean_Jz == pytest.approx(m1, rel=1e-10, abs=1e-12)
    assert res.var_Jz == pytest.approx(var, rel=1e-10)
    assert res.snr == pytest.approx(snr, rel=1e-10)


def test_no_overflow_at_huge_beta():
    res = weak_snr(1, 1.0, 2000.0)
    assert res.snr >= 0.0 and math.isfinite(res.snr)
    assert math.isfinite(weak_log_snr(1, 1.0, 2000.0))


def test_lowT_asymptote_ratio():
    beta, eps = 50.0, 1.0
    ratio = weak_lowT_asymptote(eps, 1 / beta, 1) / weak_snr(1, eps, beta).snr
    # computed ratio is limited by double rounding of the two factors;
    # the exact deviation ratio - 1 = 2e^{-be} + e^{-2be} is below 1e-20
    assert abs(ratio - 1.0) < 1e-12
    be = beta * eps
    assert 2 * math.exp(-be) + math.exp(-2 * be) < 1e-20


def test_closed_form_equals_fd_ratio():
    # snr == |d<Jz>/d eps|^2 / var by central differences on the closed mean
    for be in (0.01, 0.5, 5.0, 50.0):
        beta, eps = 2.0, be / 2.0
        h = 1e-6 * max(eps, 1.0)
        up = weak_snr(1, eps + h, beta).mean_Jz
        dn = weak_snr(1, eps - h, beta).mean_Jz
        slope = (up - dn) / (2 * h)
        res = weak_snr(1, eps, beta)
        assert slope**2 / res.var_Jz == pytest.approx(res.snr, rel=1e-8)


def test_log_slope_is_minus_eps():
    # the beta^2 prefactor biases a naive linear fit of log S by 2/beta_mean
    # (~5% on this window), so the exponential decay rate is extracted after
    # removing it: log(S/beta^2) is linear in beta with slope -eps
    eps = 0.8
    betas = np.linspace(20 / eps, 60 / eps, 30)
    logs = [weak_log_snr(1, eps, b) - 2 * math.log(b) for b in betas]
    slope = np.polyfit(betas, logs, 1)[0]
    assert slope == pytest.approx(-eps, rel=0.01)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        weak_snr(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        weak_lowT_asymptote(1.0, -1.0, 1)


def _is_a_root(f, r, lo, hi):
    """r is an end of [lo, hi], or f changes sign between r and a neighbouring float."""
    return r in (lo, hi) or any(f(r) * f(math.nextafter(r, end)) <= 0 for end in (lo, hi))


def test_root_is_exact_to_adjacent_floats():
    r2 = math.sqrt(2.0)
    assert _root(lambda x: x * x - 2.0, 0.0, 2.0) in (math.nextafter(r2, 0), r2,
                                                      math.nextafter(r2, 2))
    assert _root(lambda x: 1.0 - x, 0.0, 1.0) == 1.0  # f(hi) = 0: the end itself


def test_eta_is_a_root_to_adjacent_floats():
    # seeded superradiant points, from just below Tc (eta -> 1) to where tanh rounds
    # to 1 (eta -> 1/mu)
    rng = np.random.default_rng(28)
    inside = 0
    for _ in range(100):
        p = DickeParams(epsilon=rng.uniform(0.1, 3.0), omega=1.0, gbar=rng.uniform(0.5, 4.0))
        tc = critical_temperature(p)
        if tc is None:
            continue
        for beta in ((1 + 1e-12) / tc, (1 + 1e-6) / tc, rng.uniform(1.0, 20.0) / tc, 1e3 / tc):
            eta, hi = solve_eta(p, beta), 1.0 / p.mu
            assert 1.0 <= eta <= hi
            assert _is_a_root(lambda e: e * p.mu - math.tanh(0.5 * beta * p.epsilon * e),
                              eta, 1.0, hi)
            inside += eta not in (1.0, hi)
    assert inside > 100


def test_lambda_is_a_root_to_adjacent_floats():
    # seeded couplings over nine decades, and g = 1e-300, where lambda = 5e-301 lies far
    # below the top of its bracket [0, ~1]
    rng = np.random.default_rng(28)
    for g in [*10 ** rng.uniform(-8.0, 1.0, 200), 1e-300]:
        eps, om = rng.uniform(0.0, 5.0), rng.uniform(0.2, 5.0)
        lam, hi = solve_lambda(eps, om, g).lam, (g / om) * (1.0 + eps / om) + 1.0
        assert 0.0 < lam < hi
        assert _is_a_root(lambda x: _lambda_eq(x, eps, om, g), lam, 0.0, hi)
