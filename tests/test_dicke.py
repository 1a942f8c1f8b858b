import math

import numpy as np
import pytest

from rcprobe.baseline import weak_snr
from rcprobe.dicke import (
    DickeParams,
    critical_temperature,
    dicke_observables,
    dicke_snr,
    dicke_solution,
    hp_excitations,
    laplace_partition,
    phi,
    phi_curvature,
    solve_eta,
)
from rcprobe.errors import NumericalDomainError, ParameterError
from rcprobe.operators import ProbeParams
from rcprobe.thermal import thermal_observables


def test_tc_boundary_none():
    # 4 gbar^2 == eps*omega: mu = 1, no transition
    p = DickeParams(epsilon=1.0, omega=1.0, gbar=0.5)
    assert critical_temperature(p) is None
    weak = DickeParams(epsilon=1.0, omega=1.0, gbar=0.3)
    assert critical_temperature(weak) is None
    # no transition reads None throughout, not an inf Tc ("superradiant at every T")
    for q in (p, weak):
        assert dicke_solution(q, 2.0).Tc is None


def test_tc_strong_coupling_asymptote():
    # mu -> 0: Tc -> 2 gbar^2/omega
    p = DickeParams(epsilon=1.0, omega=1.0, gbar=20.0)
    assert critical_temperature(p) == pytest.approx(2 * p.gbar**2 / p.omega, rel=1e-3)


def test_eta_limits():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98)
    tc = critical_temperature(p)
    assert solve_eta(p, 1.0 / tc) == pytest.approx(1.0, abs=1e-9)
    assert solve_eta(p, 1e4) == pytest.approx(1.0 / p.mu, rel=1e-6)


def test_eta_monotone_in_beta():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98)
    tc = critical_temperature(p)
    # eta saturates at 1/mu exponentially fast, so strict increase is only
    # resolvable in double precision on a moderate beta window
    betas = np.linspace(1.0 / tc + 0.1, 6.0, 20)
    etas = [solve_eta(p, b) for b in betas]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert solve_eta(p, 30.0) >= etas[-1]


def test_eta_saturated_where_its_bracket_end_rounds_below_the_root():
    # at mu = 0.694.. and beta*omega = 50, tanh(beta eps / (2 mu)) rounds to 1 and
    # (1/mu)*mu to 1 - 2^-53, so f(1/mu) < 0: the root is 1/mu to rounding
    p = DickeParams(epsilon=1.0, omega=1.0, gbar=0.6)
    assert (1.0 / p.mu) * p.mu < 1.0
    assert solve_eta(p, 50.0) == 1.0 / p.mu
    assert dicke_solution(p, 50.0).eta == 1.0 / p.mu


def test_eta_normal_phase_rejected():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98)
    with pytest.raises(NumericalDomainError):
        solve_eta(p, 0.1)


def test_z0_is_global_maximizer():
    p = DickeParams(epsilon=0.5, omega=1.0, gbar=0.9, N=1)
    beta = 5.0
    _, z0 = laplace_partition(p, beta)
    zs = np.linspace(0, 2 / p.mu * p.epsilon / (4 * p.gbar), 400)
    assert phi(p, beta, z0) >= np.max(phi(p, beta, zs)) - 1e-10


@pytest.mark.parametrize("eps, gbar, beta", [
    (0.5, 0.9, 5.0), (3.0, 0.98, 2.0), (3.0, 0.98, 0.3), (1.0, 0.3, 5.0),
    (1.0, 2.0, 8.4), (3.0, 0.98, 10.0),
])
def test_phi_curvature_matches_a_five_point_difference(eps, gbar, beta):
    p = DickeParams(epsilon=eps, omega=1.0, gbar=gbar)
    _, z0 = laplace_partition(p, beta)
    for z in (z0, z0 + 0.3, 1.7):
        h = 1e-3 * max(1.0, z)
        f = [float(phi(p, beta, z + k * h)) for k in (-2, -1, 0, 1, 2)]
        fd = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        assert phi_curvature(p, beta, z) == pytest.approx(fd, rel=1e-7)


def test_lnz_finite_just_below_tc():
    # Phi'' ~ 1e-6 here: a second difference of Phi returns rounding noise
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98)
    beta = (1 + 1e-6) / critical_temperature(p)
    lnz, z0 = laplace_partition(p, beta)
    assert math.isfinite(lnz)
    assert z0 > 0
    assert 0 < -phi_curvature(p, beta, z0) < 1e-4


def test_normal_z0_zero():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98)
    _, z0 = laplace_partition(p, 0.2)
    assert z0 == 0.0


def test_gbar_small_decoupled_lnZ():
    p = DickeParams(epsilon=1.0, omega=1.0, gbar=1e-4, N=6)
    beta = 2.0
    lnz, z0 = laplace_partition(p, beta)
    spins = p.N * math.log(2 * math.cosh(beta * p.epsilon / 2))
    dd = -2 * beta * p.omega  # Phi''(0) at gbar -> 0 (cosh term negligible)
    prefac = 0.5 * math.log(2 / (beta * p.omega * abs(dd)))
    assert z0 == 0.0
    assert lnz == pytest.approx(spins + prefac, rel=1e-4)


def test_observables_continuous_at_tc():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98, N=4)
    tc = critical_temperature(p)
    below = dicke_observables(p, 1.0 / tc * (1 + 1e-9))
    above = dicke_observables(p, 1.0 / tc * (1 - 1e-9))
    assert below.mean_Jz == pytest.approx(above.mean_Jz, abs=1e-9)


def test_mean_jz_deep_superradiant():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98, N=2)
    obs = dicke_observables(p, 1e4)
    assert obs.mean_Jz == pytest.approx(-p.N * p.mu / 2, rel=1e-6)


def test_snr_normal_equals_weak():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98, N=5)
    beta = 0.2  # T > Tc
    pt = dicke_snr(p, beta)
    assert pt.snr / p.N == pytest.approx(weak_snr(1, p.epsilon, beta).snr, rel=1e-12)


def test_snr_superradiant_temperature_independent():
    p = DickeParams(epsilon=0.5, omega=1.0, gbar=0.9, N=3)
    tc = critical_temperature(p)
    vals = [dicke_snr(p, b).snr for b in np.linspace(1.2 / tc, 30.0, 7)]
    assert max(vals) - min(vals) < 1e-12
    expect = p.N * p.omega**2 / (16 * p.gbar**4 - p.epsilon**2 * p.omega**2)
    assert vals[0] == pytest.approx(expect, rel=1e-12)


def test_snr_discontinuous_at_tc():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98, N=1)
    tc = critical_temperature(p)
    lo = dicke_snr(p, (1 + 1e-9) / tc).snr
    hi = dicke_snr(p, (1 - 1e-9) / tc).snr
    assert abs(lo - hi) > 1e-3 * max(lo, hi)
    assert hi == pytest.approx(weak_snr(p.N, p.epsilon, (1 - 1e-9) / tc).snr, rel=1e-9)


def test_hp_gap_closes_at_critical_coupling():
    # for eps = omega = 1 the normal lower branch is exactly em^2 = 1 - 2 gbar,
    # vanishing as gbar -> gc = 1/2
    eps = 1.0
    gc = math.sqrt(eps * 1.0) / 2
    (em, _), _ = hp_excitations(DickeParams(epsilon=eps, omega=1.0, gbar=0.999 * gc))
    assert em == pytest.approx(math.sqrt(1.0 - 2 * 0.999 * gc), rel=1e-10)
    (em2, _), _ = hp_excitations(DickeParams(epsilon=eps, omega=1.0, gbar=0.9 * gc))
    assert em2 > em
    (em3, _), _ = hp_excitations(DickeParams(epsilon=eps, omega=1.0, gbar=0.99999 * gc))
    assert em3 < em


def test_hp_decoupled_limit():
    p = DickeParams(epsilon=0.4, omega=1.0, gbar=1e-9)
    (em, ep), _ = hp_excitations(p)
    assert em == pytest.approx(0.4, rel=1e-6)
    assert ep == pytest.approx(1.0, rel=1e-6)


def test_hp_branches_continuous_at_mu1():
    # at mu = 1 both branch formulas coincide
    eps, om = 1.3, 0.9
    gbar = math.sqrt(eps * om) / 2
    p_lo = DickeParams(epsilon=eps, omega=om, gbar=gbar * (1 - 1e-7))
    p_hi = DickeParams(epsilon=eps, omega=om, gbar=gbar * (1 + 1e-7))
    (_, ep_n), _ = hp_excitations(p_lo)
    _, (_, ep_s) = hp_excitations(p_hi)
    assert ep_n == pytest.approx(ep_s, rel=1e-4)


def test_finite_N_convergence_toward_dicke():
    # exact diagonalization <Jz>/N approaches the large-N value as N grows
    gbar, eps, beta = 0.9, 0.5, 5.0
    p_inf = DickeParams(epsilon=eps, omega=1.0, gbar=gbar, N=1)
    target = dicke_observables(p_inf, beta).mean_Jz / p_inf.N
    gaps = []
    for N in (8, 12, 16):
        g = 2 * gbar / math.sqrt(N)
        p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
        obs = thermal_observables(p, beta, n_max=48, sector="maximal")
        gaps.append(abs(obs.mean_Jz / N - target))
    assert gaps[2] < gaps[0]


def test_solution_bundle():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98, N=2)
    sol = dicke_solution(p, 5.0)
    assert sol.phase == "superradiant"
    assert 1.0 < sol.eta < 1.0 / p.mu
    assert sol.z0 > 0
    assert sol.snr_per_N > 0
    pt = dicke_snr(p, 5.0)
    assert (sol.snr, sol.snr_weak, sol.snr_per_N) == (pt.snr, pt.snr_weak, pt.snr / p.N)
    assert sol.lnZ == laplace_partition(p, 5.0)[0]


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_nonpositive_beta_rejected(beta):
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98)
    for f in (laplace_partition, dicke_observables, dicke_snr, dicke_solution):
        with pytest.raises(NumericalDomainError, match="beta must be positive"):
            f(p, beta)


@pytest.mark.parametrize("field", ["epsilon", "omega", "gbar"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_bad_params_rejected(field, value):
    # a nan fails no <= 0 test, and an inf reaches the saddle solve
    kwargs = {"epsilon": 0.5, "omega": 1.0, "gbar": 0.9, field: value}
    with pytest.raises(ParameterError, match="positive and finite"):
        DickeParams(**kwargs)


@pytest.mark.parametrize("eps, gbar", [(1.0, 1e-300), (1.0, 1e300), (1e-300, 1e10)])
def test_mu_beyond_a_float_rejected(eps, gbar):
    # gbar^2 underflows or overflows, or mu is subnormal and 1/mu, eta's bound, is inf
    with pytest.raises(ParameterError, match="leaves the float range"):
        DickeParams(epsilon=eps, omega=1.0, gbar=gbar)


def test_closed_forms_beyond_a_float_are_domain_errors():
    # eps^2 overflows at the saddle, (eps^2 - omega^2)^2 in the excitation spectrum,
    # and r = sqrt(eps^2 + 16 gbar^2 z^2) underflows to 0 in Phi''
    with pytest.raises(NumericalDomainError, match="leaves the float range"):
        dicke_solution(DickeParams(epsilon=1e300, omega=1.0, gbar=0.5), 5.0)
    with pytest.raises(NumericalDomainError, match="leaves the float range"):
        hp_excitations(DickeParams(epsilon=1e100, omega=1.0, gbar=0.5))
    with pytest.raises(NumericalDomainError, match="leaves the float range"):
        dicke_solution(DickeParams(epsilon=1e-200, omega=1.0, gbar=1e-100), 5.0)


def test_gaussian_prefactor_survives_huge_beta():
    # beta * omega * |Phi''| overflows at beta = 1e200 although Phi(z0) and
    # Phi''(z0) are both finite; lnZ takes the log of each factor apart
    p = DickeParams(epsilon=0.5, omega=1.0, gbar=0.9)
    lnz, z0 = laplace_partition(p, 1e200)
    assert math.isfinite(phi_curvature(p, 1e200, z0))
    assert lnz == pytest.approx(float(phi(p, 1e200, z0)), rel=1e-12)
    # at moderate beta it is the one-log form
    lnz, z0 = laplace_partition(p, 5.0)
    pref = 2.0 / (5.0 * abs(phi_curvature(p, 5.0, z0)))
    assert lnz == pytest.approx(float(phi(p, 5.0, z0)) + 0.5 * math.log(pref), rel=1e-14)
