import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from rcprobe.baseline import weak_snr
from rcprobe.errors import ConsistencyError, NumericalDomainError, ParameterError
from rcprobe.grwa import (
    asymptotic_snr,
    build_grwa_blocks,
    coefficient_F,
    dlambda_deps,
    ground_energy_derivs,
    ground_entry,
    grwa_mean_jz,
    grwa_partition,
    grwa_spectrum,
    lambda_closed_form,
    solve_lambda,
)
from rcprobe.operators import ProbeParams, build_mapped_hamiltonian
from rcprobe.thermal import thermal_observables

# -- reference blocks as published for N = 1, 2, 3 --------------------------


def _F(n, m, lam):
    return (
        lam**n
        * math.exp(-0.5 * lam**2)
        * math.factorial(m)
        / math.factorial(m + n)
        * eval_genlaguerre(m, n, lam**2)
    )


def ref_block_N1(n, eps, om, g, lam):
    """2x2 block (descending-m basis {|e,n>, |g,n+1>})."""
    d = om * lam**2 - 2 * g * lam
    xi = lambda k, s: om * k + 0.25 * d + s * 0.5 * eps * _F(0, k, lam)
    R = 0.5 * math.sqrt(n + 1) * (g - om * lam + eps * _F(1, n, lam))
    return np.array([[xi(n, +1), R], [R, xi(n + 1, -1)]])


def ref_block_N2(n, eps, om, g, lam):
    """3x3 (n>=1) or 2x2 (n=0) block, basis {|-1,n+1>,|0,n>,|1,n-1>}."""
    d = om * lam**2 - 2 * g * lam
    xi = lambda k, s: om * k + 0.5 * d + s * eps * _F(0, k, lam)
    xi0 = lambda k: om * k + d
    R0 = math.sqrt(2 * (n + 1)) / 2 * (g - lam * om + eps * _F(1, n, lam))
    if n == 0:
        return np.array([[xi(1, -1), R0], [R0, xi0(0)]])
    R1 = math.sqrt(2 * n) / 2 * (g - lam * om + eps * _F(1, n - 1, lam))
    return np.array([
        [xi(n + 1, -1), R0, 0],
        [R0, xi0(n), R1],
        [0, R1, xi(n - 1, +1)],
    ])


def ref_block_N3(n, eps, om, g, lam):
    """4x4 (n>=1), 3x3 (n=0 of the 4x4 family) or 2x2 block for N=3.

    Published bases: {|-3/2,n+2>,|-1/2,n+1>,|1/2,n>,|3/2,n-1>} (4x4, n>=1),
    {|-3/2,2>,|-1/2,1>,|1/2,0>} (3x3), {|-3/2,1>,|-1/2,0>} (2x2).
    """
    d = om * lam**2 - 2 * g * lam
    xi = lambda k, s: om * k + 0.75 * d + s * 1.5 * eps * _F(0, k, lam)
    ze = lambda k, s: om * k + 1.75 * d + s * 0.5 * eps * _F(0, k, lam)
    gt = g - lam * om
    R0 = lambda k: math.sqrt(3 * (k + 2)) / 2 * (gt + eps * _F(1, k + 1, lam))
    R1 = lambda k: math.sqrt(k + 1) * (gt + eps * _F(1, k, lam))
    R2 = lambda k: math.sqrt(3 * k) / 2 * (gt + eps * _F(1, k - 1, lam))
    if n == -1:  # 2x2, excitation C = 1
        return np.array([[xi(1, -1), R0(-1)], [R0(-1), ze(0, -1)]])
    if n == 0:  # 3x3, excitation C = 2
        return np.array([
            [xi(2, -1), R0(0), 0],
            [R0(0), ze(1, -1), R1(0)],
            [0, R1(0), ze(0, +1)],
        ])
    return np.array([
        [xi(n + 2, -1), R0(n), 0, 0],
        [R0(n), ze(n + 1, -1), R1(n), 0],
        [0, R1(n), ze(n, +1), R2(n)],
        [0, 0, R2(n), xi(n - 1, +1)],
    ])


param_st = st.tuples(
    st.floats(min_value=0.1, max_value=3.0),   # eps
    st.floats(min_value=0.5, max_value=2.0),   # omega
    st.floats(min_value=0.01, max_value=1.0),  # g
    st.floats(min_value=0.01, max_value=1.0),  # lambda
)


def _block_by_index(blocks, idx):
    return next(b for b in blocks if b.excitation_index == idx)


@given(param_st, st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_blocks_match_published_N1(params, n):
    eps, om, g, lam = params
    blocks = build_grwa_blocks(1, eps, om, g, lam, 12)
    mine = _block_by_index(blocks, n).matrix
    ref = ref_block_N1(n, eps, om, g, lam)
    # published basis is descending in m; ours ascending
    assert np.max(np.abs(mine - ref[::-1, ::-1])) < 1e-12


@given(param_st, st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_blocks_match_published_N2(params, n):
    eps, om, g, lam = params
    blocks = build_grwa_blocks(2, eps, om, g, lam, 12)
    mine = _block_by_index(blocks, n).matrix
    ref = ref_block_N2(n, eps, om, g, lam)
    assert np.max(np.abs(mine - ref)) < 1e-12


@given(param_st, st.integers(min_value=-1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_blocks_match_published_N3(params, n):
    eps, om, g, lam = params
    blocks = build_grwa_blocks(3, eps, om, g, lam, 12)
    mine = _block_by_index(blocks, n + 1).matrix
    ref = ref_block_N3(n, eps, om, g, lam)
    assert np.max(np.abs(mine - ref)) < 1e-12


def _ref_F(n, m, lam):
    """F_n(m) by one scalar Laguerre recurrence per call."""
    x = lam * lam
    lk1, lk = 0.0, 1.0
    for k in range(1, m + 1):
        lk1, lk = lk, ((2 * k - 1 + n - x) * lk - (k - 1 + n) * lk1) / k
    ratio = 1.0
    for j in range(m + 1, m + n + 1):
        ratio /= j
    return lam**n * math.exp(-0.5 * x) * ratio * lk


def _ref_blocks(N, epsilon, omega, g, lam, n_max):
    """The blocks built state by state, two _ref_F calls per state."""
    J = N / 2.0
    delta = omega * lam * lam - 2.0 * g * lam
    gt = g - omega * lam
    jj = J * (J + 1.0)
    blocks = []
    for C in range(0, n_max + N + 1):
        states = [(-J + k, C - k) for k in range(N + 1) if 0 <= C - k <= n_max]
        B = np.zeros((len(states), len(states)))
        for i, (m, n) in enumerate(states):
            B[i, i] = omega * n + 0.5 * delta * (jj - m * m) + epsilon * m * _ref_F(0, n, lam)
        for i in range(1, len(states)):
            m, n = states[i]
            assert states[i - 1] == (m - 1, n + 1)
            B[i, i - 1] = B[i - 1, i] = (
                0.5 * math.sqrt(jj - m * (m - 1.0)) * math.sqrt(n + 1.0)
                * (gt + epsilon * _ref_F(1, n, lam)))
        blocks.append((C - 1, B))
    return blocks


def _seeded_block_params(count, seed=17):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        g = 0.0 if t % 5 == 0 else float(rng.uniform(0.0, 1.5))
        eps = 0.0 if t % 5 == 1 else float(rng.uniform(0.0, 3.0))
        out.append((int(rng.integers(1, 9)), eps, float(rng.uniform(0.3, 2.0)), g,
                    0.0 if g == 0.0 else float(rng.uniform(0.0, 2.0)), int(rng.integers(1, 61))))
    return out


def test_blocks_bitwise_equal_to_state_by_state_build():
    # seeded N = 1-8, n_max = 1-60, with g = 0 and eps = 0 among them
    for args in [(1, 1.0, 1.0, 0.4, 0.35, 1), (8, 1.0, 1.0, 0.4, 0.35, 60),
                 *_seeded_block_params(60)]:
        mine = build_grwa_blocks(*args)
        ref = _ref_blocks(*args)
        assert [b.excitation_index for b in mine] == [c for c, _ in ref], args
        for b, (_, B) in zip(mine, ref):
            assert b.matrix.shape == B.shape and b.matrix.tobytes() == B.tobytes(), args
        for n in range(4):
            for m in (0, 1, args[-1]):
                assert coefficient_F(n, m, args[4]) == _ref_F(n, m, args[4]), args


def test_ground_entry_matches_block():
    eps, om, g = 1.0, 1.0, 0.4
    lam = solve_lambda(eps, om, g).lam
    blocks = build_grwa_blocks(1, eps, om, g, lam, 10)
    b0 = _block_by_index(blocks, -1)
    assert b0.matrix.shape == (1, 1)
    assert b0.matrix[0, 0] == pytest.approx(ground_entry(1, eps, om, g, lam))


# -- lambda solver -----------------------------------------------------------


def test_lambda_trivial_limits():
    assert solve_lambda(1.0, 1.0, 0.0).lam == 0.0
    assert solve_lambda(0.0, 1.0, 0.5).lam == pytest.approx(0.5, abs=1e-12)
    assert lambda_closed_form(1.0, 1.0, 0.0) == 0.0
    assert lambda_closed_form(0.0, 1.0, 0.5) == pytest.approx(0.5)


def test_lambda_closed_form_hand_value():
    lam0 = 0.5 / (1 + 1)
    expect = 0.5 / (1 + math.exp(-0.5 * lam0**2))
    assert lambda_closed_form(1.0, 1.0, 0.5) == pytest.approx(expect, rel=1e-14)


def test_lambda_root_vs_closed_form():
    for g in np.linspace(0.0, 1.0, 21):
        sol = solve_lambda(1.0, 1.0, g)
        assert abs(sol.residual) < 1e-12
        assert abs(sol.lam - lambda_closed_form(1.0, 1.0, g)) < 0.02


def test_lambda_variational_property():
    eps, om, g = 1.0, 1.0, 0.6
    lam = solve_lambda(eps, om, g).lam
    e0 = ground_entry(1, eps, om, g, lam)
    for dl in np.linspace(-0.1, 0.1, 11):
        if abs(dl) > 1e-12:
            assert ground_entry(1, eps, om, g, lam + dl) >= e0


def test_dlambda_deps_negative():
    for g in (0.05, 0.3, 0.8):
        assert dlambda_deps(1.0, 1.0, g) < 0


# -- F coefficients ----------------------------------------------------------


def test_F_trivial():
    lam = 0.7
    assert coefficient_F(0, 0, lam) == pytest.approx(math.exp(-0.5 * lam**2))
    assert coefficient_F(1, 0, lam) == pytest.approx(lam * math.exp(-0.5 * lam**2))
    assert coefficient_F(0, 1, 1.0) == pytest.approx(0.0, abs=1e-15)  # L1(1) = 0


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_F_matches_scipy(n, m, lam):
    assert coefficient_F(n, m, lam) == pytest.approx(_F(n, m, lam), abs=1e-12)


# -- spectra and partition ---------------------------------------------------


def test_decoupled_blocks_diagonalize_exactly():
    eps, om = 0.9, 1.0
    blocks = build_grwa_blocks(2, eps, om, 0.0, 0.0, 8)
    ev = grwa_spectrum(blocks)
    expect = np.sort([eps * m + om * n for m in (-1, 0, 1) for n in range(9)])
    assert np.allclose(np.sort(ev), expect, atol=1e-12)


@pytest.mark.parametrize("N,gmax", [(1, 0.5), (2, 0.5), (3, 0.4)])
def test_levels_vs_exact_small_g(N, gmax):
    # lowest 6 levels agree within 5% at moderate coupling, improving as g->0
    eps = om = 1.0
    prev = None
    for g in (gmax, gmax / 2, gmax / 4):
        lam = solve_lambda(eps, om, g).lam
        ev_g = grwa_spectrum(build_grwa_blocks(N, eps, om, g, lam, 40))[:6]
        p = ProbeParams(N=N, epsilon=eps, omega=om, g=g)
        H = build_mapped_hamiltonian(p, N / 2, 60)
        ev_e = np.sort(np.linalg.eigvalsh(H.entries))[:6]
        scale = np.maximum(np.abs(ev_e), 0.1 * om)
        worst = np.max(np.abs(ev_g - ev_e) / scale)
        if prev is not None:
            assert worst < prev + 1e-9
        prev = worst
    assert prev < 0.05  # smallest-g case


def test_partition_ground_dominance():
    eps, om, g = 1.0, 1.0, 0.4
    lam = solve_lambda(eps, om, g).lam
    blocks = build_grwa_blocks(1, eps, om, g, lam, 40)
    lnz = grwa_partition(blocks, 200.0)
    assert -lnz / 200.0 == pytest.approx(ground_entry(1, eps, om, g, lam), abs=1e-8)


def test_grwa_mean_jz_matches_exact():
    # quantitative gate 2% relative against exact diagonalization
    eps, om, g, beta = 1.0, 1.0, 0.3, 10.0
    approx = grwa_mean_jz(1, eps, om, g, beta, 40)
    p = ProbeParams(N=1, epsilon=eps, omega=om, g=g)
    exact = thermal_observables(p, beta, 60).mean_Jz
    assert approx == pytest.approx(exact, rel=0.02)


# -- ground-state derivatives ------------------------------------------------


def test_derivs_g0():
    d = ground_energy_derivs(2, 1.0, 1.0, 0.0)
    assert d.dE_deps == pytest.approx(-1.0)
    assert d.d2E_deps2 == pytest.approx(0.0, abs=1e-12)


def test_concavity_grid():
    for N in (4, 5, 6):
        for eps in np.linspace(0.1, 3.0, 50):
            d = ground_energy_derivs(N, eps, 1.0, 0.05)
            assert d.d2E_deps2 < 0


def test_derivs_fd_consistency_builtin():
    # ground_energy_derivs raises ConsistencyError itself on FD mismatch;
    # reaching here without an exception is the check
    for g in (0.1, 0.5, 1.0):
        ground_energy_derivs(3, 1.3, 1.0, g)


def test_asymptotic_snr_shapes():
    d = ground_energy_derivs(1, 1.0, 1.0, 0.4)
    assert asymptotic_snr(1, d, 10.0) == asymptotic_snr(1, d, 50.0)
    d2 = ground_energy_derivs(2, 1.0, 1.0, 0.3)
    assert asymptotic_snr(2, d2, 20.0) == pytest.approx(
        2 * asymptotic_snr(2, d2, 10.0)
    )
    assert asymptotic_snr(2, d2, 10.0) > 0


def test_asymptotic_snr_matches_exact_N1():
    d = ground_energy_derivs(1, 1.0, 1.0, 0.4)
    approx = asymptotic_snr(1, d, 50.0)
    from rcprobe.thermal import snr_exact
    exact = snr_exact(
        ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.4), 50.0, n_max=48
    ).snr
    assert approx == pytest.approx(exact, rel=0.10)


def test_bad_inputs():
    with pytest.raises(NumericalDomainError):
        coefficient_F(-1, 0, 0.5)
    with pytest.raises(NumericalDomainError):
        grwa_partition([], 0.0)


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_closed_forms_refuse_a_nonfinite_beta(beta):
    # refused by name, each in its own error class, not a nan or inf result; weak_snr's
    # ParameterError is a ValueError
    with pytest.raises(ParameterError, match="beta must be positive and finite"):
        weak_snr(2, 1.0, beta)
    d = ground_energy_derivs(2, 1.0, 1.0, 0.3)
    blocks = build_grwa_blocks(1, 1.0, 1.0, 0.3, solve_lambda(1.0, 1.0, 0.3).lam, 4)
    for solve in (lambda: asymptotic_snr(1, d, beta), lambda: asymptotic_snr(2, d, beta),
                  lambda: grwa_partition(blocks, beta)):
        with pytest.raises(NumericalDomainError, match="beta must be positive and finite"):
            solve()
