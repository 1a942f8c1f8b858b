import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import eigvals_banded

from rcprobe import operators, thermal
from rcprobe.baseline import weak_snr
from rcprobe.errors import ConvergenceError, NumericalDomainError, ParameterError
from rcprobe.operators import ProbeParams, build_mapped_hamiltonian, sector_multiplicities
from rcprobe.thermal import (
    SnrPoint,
    _combine,
    _parity_blocks,
    _point,
    _sector_data,
    converge_nmax,
    cutoff_converged,
    djz_deps,
    eigendecompose,
    reduced_probe_state,
    snr_exact,
    thermal_observables,
)


def test_eigendecompose_trivial():
    w, _ = eigendecompose(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])
    w2, _ = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w2, [-1, 1])


def test_eigendecompose_properties():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(30, 30))
    A = A + A.T
    w, V = eigendecompose(A)
    assert np.max(np.abs(V.T @ V - np.eye(30))) < 1e-10
    D = V.T @ A @ V
    assert np.max(np.abs(D - np.diag(w))) < 1e-8 * np.abs(A).max()


def test_eigendecompose_requires_exact_symmetry():
    # mapped Hamiltonians are symmetric bit for bit, so the check can be exact
    for N in (1, 2, 3):
        p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=0.3)
        A = build_mapped_hamiltonian(p, N / 2, 12).entries
        assert np.array_equal(A, A.T)
    i, j = np.argwhere(np.triu(A, 1))[0]
    B = A.copy()
    B[i, j] *= 1.0 + 1e-6
    with pytest.raises(NumericalDomainError):
        eigendecompose(B)


def test_eigendecompose_polaron_oracle():
    p = ProbeParams(N=1, epsilon=0.0, omega=1.0, g=0.5)
    w, _ = eigendecompose(build_mapped_hamiltonian(p, 0.5, 60).entries)
    assert abs(w[0] + p.g**2 / (4 * p.omega)) < 1e-8


def test_parity_blocks_split_every_sector():
    # the two blocks of a sector are its rows with (m + J) + n even and odd
    for N in range(1, 11):
        p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=0.4)
        for n_max in (1, 2, 5):
            blocks = list(_parity_blocks(p, n_max))
            assert len(blocks) == 2 * len(sector_multiplicities(N).sectors)
            for even, odd in zip(blocks[::2], blocks[1::2]):
                J, nb = even[0], n_max + 1
                assert odd[0] == J
                for parity, (_, _, rows, E, _) in enumerate((even, odd)):
                    assert np.all((rows // nb + rows % nb) % 2 == parity)
                    assert len(E) == len(rows)
                both = np.sort(np.r_[even[2], odd[2]])
                assert np.array_equal(both, np.arange((2 * J + 1) * nb))


def test_parity_blocks_hold_the_sector_spectrum():
    p = ProbeParams(N=3, epsilon=0.9, omega=1.0, g=0.7)
    blocks = list(_parity_blocks(p, 20))
    for J, _ in sector_multiplicities(3).sectors:
        H = build_mapped_hamiltonian(p, J, 20).entries
        both = np.sort(np.concatenate([E for J1, _, _, E, _ in blocks if J1 == J]))
        assert np.allclose(both, np.linalg.eigvalsh(H), rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_g_zero_matches_weak(N):
    p = ProbeParams(N=N, epsilon=0.8, omega=1.0, g=0.0)
    beta = 3.0
    obs = thermal_observables(p, beta, n_max=16)
    ref = weak_snr(N, p.epsilon, beta)
    assert obs.mean_Jz == pytest.approx(ref.mean_Jz, abs=1e-12)
    assert obs.var_Jz == pytest.approx(ref.var_Jz, rel=1e-10)


def test_eps_zero_symmetry():
    p = ProbeParams(N=2, epsilon=0.0, omega=1.0, g=0.6)
    obs = thermal_observables(p, 5.0, n_max=40)
    assert abs(obs.mean_Jz) < 1e-10


def test_sector_sum_consistency_at_g0():
    # full sector-weighted Z equals (2cosh(beta eps/2))^N * Z_boson
    N, beta, eps, n_max = 3, 2.0, 0.7, 30
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=0.0)
    obs = thermal_observables(p, beta, n_max=n_max)
    z_boson = np.sum(np.exp(-beta * np.arange(n_max + 1.0)))
    expected = N * math.log(2 * math.cosh(beta * eps / 2)) + math.log(z_boson)
    assert obs.lnZ == pytest.approx(expected, rel=1e-12)


def test_hellmann_feynman_grid():
    # -(1/beta) d lnZ/d eps == mean_Jz across the parameter grid
    h = 1e-5
    for N in (1, 2, 3):
        for g in (0.1, 0.4):
            for beta in (1.0, 10.0, 40.0):
                p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
                up = thermal_observables(replace(p, epsilon=1.0 + h), beta, 32).lnZ
                dn = thermal_observables(replace(p, epsilon=1.0 - h), beta, 32).lnZ
                fd = -(up - dn) / (2 * h * beta)
                obs = thermal_observables(p, beta, 32)
                assert fd == pytest.approx(obs.mean_Jz, rel=1e-6), (N, g, beta)


def test_kubo_moment_is_lnz_curvature():
    # the susceptibility-channel second moment equals (1/(Z beta^2)) d2Z/deps2
    h = 1e-4
    for N, g, beta in ((1, 0.4, 8.0), (2, 0.3, 5.0)):
        p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
        lnz = [
            thermal_observables(replace(p, epsilon=1.0 + k * h), beta, 40).lnZ
            for k in (-1, 0, 1)
        ]
        # d2Z/(Z deps2) = d2 lnZ + (d lnZ)^2
        d1 = (lnz[2] - lnz[0]) / (2 * h)
        d2 = (lnz[2] - 2 * lnz[1] + lnz[0]) / h**2
        expect = (d2 + d1 * d1) / beta**2
        obs = thermal_observables(p, beta, 40)
        assert obs.mean_Jz2_kubo == pytest.approx(expect, rel=1e-5)
        # static linear response: d<Jz>/deps = -(1/beta) d2 lnZ/deps2
        assert djz_deps(p, beta, 40) == pytest.approx(-d2 / beta, rel=1e-5)


def test_channels_coincide_at_g0():
    p = ProbeParams(N=2, epsilon=0.9, omega=1.0, g=0.0)
    obs = thermal_observables(p, 4.0, n_max=20)
    assert obs.mean_Jz2 == pytest.approx(obs.mean_Jz2_kubo, rel=1e-10)


def test_channels_differ_at_strong_g():
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.4)
    obs = thermal_observables(p, 40.0, n_max=48)
    assert abs(obs.mean_Jz2 - obs.mean_Jz2_kubo) > 1e-3 * abs(obs.mean_Jz2)


def test_snr_continuity_in_g():
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=1e-4)
    pt = snr_exact(p, 5.0, n_max=24)
    assert pt.snr / pt.snr_weak == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("N, n_max, ref", [
    (1, 32, 6.25000335620458e-10),
    (2, 12, 5.00000146572511e-8),
])
def test_snr_matches_40_digit_reference(N, n_max, ref):
    # eps = omega = 1, g = 1e-4, beta*omega = 40; ref from the same truncated
    # Hamiltonian diagonalized in 40-digit arithmetic (mpmath.eigsy)
    p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=1e-4)
    assert snr_exact(p, 40.0, n_max=n_max).snr == pytest.approx(ref, rel=1e-10, abs=0)


def test_truncation_cauchy_convergence():
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.5)
    beta = 10.0
    vals = [snr_exact(p, beta, n_max=n).snr for n in (16, 32, 64)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 1e-12
    assert vals[2] == pytest.approx(vals[1], rel=1e-6)


def test_converge_nmax_behaviour():
    p0 = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.0)
    assert converge_nmax(p0, 5.0).n_max == 16
    # larger coupling needs a bigger cutoff (monotone)
    ns = [
        converge_nmax(ProbeParams(N=1, epsilon=1.0, omega=1.0, g=g), 5.0).n_max
        for g in (0.1, 0.5, 1.0)
    ]
    assert ns[0] <= ns[1] <= ns[2]
    # higher temperature needs a bigger cutoff
    ms = [
        converge_nmax(ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.3), b).n_max
        for b in (10.0, 1.0, 0.1)
    ]
    assert ms[0] <= ms[1] <= ms[2]


@pytest.mark.parametrize("N, beta", [(1, 0.5), (2, 3.0), (3, 40.0)])
def test_top_level_population_at_g0(N, beta):
    # at g = 0 the mode is a free oscillator: p_top = e^{-beta n} / sum_{k <= n} e^{-beta k}
    n = 12
    p = ProbeParams(N=N, epsilon=0.8, omega=1.0, g=0.0)
    want = math.exp(-beta * n) / np.sum(np.exp(-beta * np.arange(n + 1.0)))
    assert thermal_observables(p, beta, n).p_top == pytest.approx(want, rel=1e-12)


def test_top_level_population_is_the_reduced_weight_of_level_n_max():
    # p_top against the Fock-level populations of the full Gibbs state
    p = ProbeParams(N=3, epsilon=0.9, omega=1.0, g=0.7)
    beta, n = 0.7, 10
    raw = list(_parity_blocks(p, n))
    e0 = min(E[0] for *_, E, _ in raw)
    pops = np.zeros(n + 1)
    for J, mult, rows, E, V in raw:
        np.add.at(pops, rows % (n + 1), mult * (V**2) @ np.exp(-beta * (E - e0)))
    got = thermal_observables(p, beta, n).p_top
    assert got == pytest.approx(pops[n] / pops.sum(), rel=1e-12)
    assert 1e-6 < got < 1e-2


def test_cutoff_rule_holds_on_a_seeded_grid():
    # wherever the fitted estimate TOP_C * p_top(n) is below 1e-6, the cutoff n
    # must give S and <Jz> within 1e-6 of n' = 2n, and lnZ within 1e-8: the
    # tolerances of the former doubling loop, which compared n with 2n
    gs = np.sort(np.random.default_rng(11).uniform(0.1, 0.7, 6))
    ns = (8, 16, 24, 32, 40, 48)
    accepted = 0
    for N in (1, 2, 3, 4):
        for g in gs:
            p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=float(g))
            data = {n: _sector_data(p, n) for n in sorted({*ns, *(2 * n for n in ns)})}
            for beta in (0.5, 2.0, 10.0, 60.0):
                for n in ns:
                    obs, ref = _combine(data[n], beta), _combine(data[2 * n], beta)
                    if thermal.TOP_C * obs.p_top >= 1e-6:
                        continue
                    accepted += 1
                    s = _point(p, data[n], beta, "auto").snr
                    s_ref = _point(p, data[2 * n], beta, "auto").snr
                    assert abs(s - s_ref) <= 1e-6 * abs(s_ref), (N, g, beta, n)
                    assert abs(obs.mean_Jz - ref.mean_Jz) <= 1e-6 * abs(ref.mean_Jz)
                    assert abs(obs.lnZ - ref.lnZ) <= 1e-8 * max(abs(ref.lnZ), 1.0)
    # the rule both accepts and refuses cutoffs on this grid
    assert 300 < accepted < 4 * 6 * 4 * 6


@pytest.mark.parametrize("seed", range(4))
def test_converge_nmax_returns_the_snr_exact_point_at_its_cutoff(seed):
    # the loop's record is the one solve at the accepted cutoff, field for field
    rng = np.random.default_rng(seed)
    N, g = int(rng.integers(1, 5)), float(rng.uniform(0.3, 1.2))
    beta = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))  # cutoffs 16 to 256
    p = ProbeParams(N=N, epsilon=float(rng.uniform(0.5, 1.5)), omega=1.0, g=g)
    pt = converge_nmax(p, beta)
    assert pt.converged and pt.n_max >= thermal.NMAX_START
    assert pt == snr_exact(p, beta, n_max=pt.n_max)


def test_converge_nmax_at_strong_coupling_and_large_n():
    # gbar = sqrt(N) g / 2 = 0.8 at beta*omega = 20: the loop stops at 32, where
    # test_top_c_holds_at_strong_coupling checks the snr against n_max = 128
    p = ProbeParams(N=16, epsilon=1.0, omega=1.0, g=0.4)
    pt = converge_nmax(p, 20.0)
    assert pt.n_max == 32
    assert pt.solver["window"] > 0 and pt == snr_exact(p, 20.0, n_max=32)
    assert pt.converged


@pytest.mark.parametrize("N, eps, g, beta, sector, n_max, ref", [
    (16, 1.0, 0.3, 20.0, "full", 24, 128),  # measured margin 1.38x
    (4, 1.0, 0.6, 20.0, "full", 16, 192),  # 2.96x
    (16, 1.0, 0.4, 20.0, "full", 32, 128),  # 3.11x
    (16, 1.0, 0.5, 20.0, "full", 32, 128),  # 16x
    (8, 0.5, 0.636, 5.0, "maximal", 16, 128),  # 34x
])
def test_top_c_holds_at_strong_coupling(N, eps, g, beta, sector, n_max, ref):
    # TOP_C * p_top is fitted, not a bound: at the strong-coupling points closest to
    # breaking it, it must still exceed the relative error of S against a far larger cutoff
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
    pt = snr_exact(p, beta, n_max=n_max, sector=sector)
    want = snr_exact(p, beta, n_max=ref, sector=sector).snr
    assert abs(pt.snr - want) / want <= thermal.TOP_C * pt.p_top


def test_converge_nmax_cap(monkeypatch):
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.5)
    monkeypatch.setattr(thermal, "NMAX_CAP", 32)
    monkeypatch.setattr(thermal, "REL_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match="not converged by 32"):
        converge_nmax(p, 1.0)


def test_converge_nmax_stops_at_the_dimension_cap(monkeypatch):
    # N = 4: the largest sector at n_max = 32 has 5 * 33 = 165 rows, at 64 it
    # would have 325; the ladder must stop there instead of building past the cap
    p = ProbeParams(N=4, epsilon=1.0, omega=1.0, g=0.2)
    monkeypatch.setattr(operators, "DIM_CAP", 165)
    monkeypatch.setattr(thermal, "REL_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match="not converged by 32"):
        converge_nmax(p, 1.0)
    for sector in ("full", "maximal"):
        with pytest.raises(NumericalDomainError, match="exceeds cap 165"):
            thermal_observables(p, 1.0, 64, sector)


def test_converge_nmax_refuses_a_first_cutoff_over_the_cap(solve_calls):
    # the first cutoff reaches the solve and is refused as snr_exact refuses it, before
    # any block: a NumericalDomainError (CLI exit 4), not a cutoff that was never tried
    p = ProbeParams(N=1200, epsilon=1.0, omega=1.0, g=0.1)
    for solve in (lambda: converge_nmax(p, 1.0, sector="maximal"),
                  lambda: snr_exact(p, 1.0, thermal.NMAX_START, sector="maximal")):
        with pytest.raises(NumericalDomainError,
                           match="composite dimension 20417 exceeds cap 20000"):
            solve()
    assert solve_calls == []


def test_reduced_state_g0_gibbs():
    p = ProbeParams(N=2, epsilon=0.8, omega=1.0, g=1e-9)
    beta = 3.0
    rho, labels = reduced_probe_state(p, beta, n_max=20)
    assert rho.shape == (4, 4)
    # coupled-basis Gibbs reference: block-diag of e^{-beta eps m}
    ms = np.concatenate([
        np.arange(-J, J + 1) for J, _ in ((1.0, 1), (0.0, 1))
    ])
    ref = np.exp(-beta * p.epsilon * ms)
    ref /= ref.sum()
    assert np.allclose(rho, np.diag(ref), atol=1e-8)


def test_reduced_state_properties():
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.8)
    rho, labels = reduced_probe_state(p, 4.0, n_max=40)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.T)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert labels == [(1.0, 0), (0.0, 0)]


@pytest.mark.parametrize("N, g", [(1, 0.6), (2, 0.8), (3, 0.4), (4, 1.1)])
def test_reduced_state_conserves_parity(N, g):
    # within a J block, rho_ab couples m values of equal parity only
    p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
    rho, _ = reduced_probe_state(p, 3.0, n_max=24)
    a, b = np.indices(rho.shape)
    assert np.all(rho[(a - b) % 2 == 1] == 0.0)
    assert np.abs(rho[(a - b) % 2 == 0]).max() > 0


def test_reduced_state_non_gibbsian_at_strong_g():
    # a Gibbs state of eps*Jz has geometric populations in the J=1 block;
    # strong coupling breaks p0^2 == p(-1)*p(+1)
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.8)
    rho, _ = reduced_probe_state(p, 4.0, n_max=40)
    pops = np.diag(rho)[:3]
    assert abs(pops[1] ** 2 - pops[0] * pops[2]) > 1e-4 * pops[1] ** 2


@pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf, 1e-320])
def test_reduced_state_refuses_beta_before_any_block(solve_calls, beta):
    # it was a trace-1 "Gibbs" state at beta = -1, all nan at nan and a RuntimeWarning
    # at inf; now the rule of the exact solve refuses each before a block is solved
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.3)
    with pytest.raises(NumericalDomainError, match="beta"):
        reduced_probe_state(p, beta, n_max=8)
    assert solve_calls == []


def test_degenerate_variance_guard():
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.0)
    with pytest.raises(NumericalDomainError):
        snr_exact(p, 2000.0, n_max=8)


def test_maximal_sector_flag():
    p = ProbeParams(N=3, epsilon=1.0, omega=1.0, g=0.3)
    full = thermal_observables(p, 2.0, 24, sector="full")
    maximal = thermal_observables(p, 2.0, 24, sector="maximal")
    assert full.lnZ > maximal.lnZ  # sub-maximal sectors add weight


@pytest.mark.parametrize("solve, kwargs", [
    (snr_exact, {"n_max": 128, "sector": "bogus"}),
    (snr_exact, {"n_max": 128, "noise": "bogus"}),
    (converge_nmax, {"sector": "bogus"}),
    (converge_nmax, {"noise": "bogus"}),
    (thermal_observables, {"n_max": 128, "sector": "bogus"}),
], ids=("snr_exact-sector", "snr_exact-noise", "converge_nmax-sector", "converge_nmax-noise",
        "thermal_observables-sector"))
def test_unknown_sector_or_noise_refused_before_any_block(solve_calls, solve, kwargs):
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.2)
    choice = "sector" if "sector" in kwargs else "noise"
    with pytest.raises(ParameterError, match=f"{choice} must be one of"):
        solve(p, 20.0, **kwargs)
    assert solve_calls == []


def test_snr_point_verdict_is_read_from_p_top():
    assert [f.name for f in fields(SnrPoint)] == [
        "beta", "snr", "snr_weak", "n_max", "p_top", "solver"]
    assert SnrPoint(1.0, 2.0, 2.0).converged is True  # no cutoff: p_top = 0
    assert SnrPoint(1.0, np.nan, np.nan, 8, np.nan).converged is False  # a failed row
    with pytest.raises(TypeError):
        SnrPoint(1.0, 2.0, 2.0, converged=False)  # the verdict is not settable
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.5)
    for n_max, want in ((6, False), (64, True)):
        pt = snr_exact(p, 1.0, n_max=n_max)
        assert pt.converged is cutoff_converged(pt.p_top) is want


def _direct(p, beta, n_max):
    """(lnZ, <Jz>, Var_proj, Var_Kubo) with the Kubo pairs summed directly.

    The d x d reference: every ordered pair (i, j) of a block enters with
    weight e^{-beta (min(E_i, E_j) - e0)} (1 - e^{-x}) / x, x = beta |E_i - E_j|.
    lnZ, <Jz> and Var_proj are formed with the same arithmetic as thermal:
    one dot product each over the states of every block.
    """
    blocks = []
    for J, mult, rows, E, V in _parity_blocks(p, n_max):
        M = V.T @ ((rows // (n_max + 1) - J)[:, None] * V)
        d1 = np.diag(M).copy()
        np.fill_diagonal(M, 0.0)
        M *= M
        blocks.append((np.full(len(E), mult), E, d1, M.sum(axis=1), M))
    mult, E, d1, r = (np.concatenate(a) for a in list(zip(*blocks))[:4])
    e0 = E.min()
    w = mult * np.exp(-beta * (E - e0))
    zt = w.sum()
    m1 = w @ d1 / zt
    diag = w @ (d1 - m1) ** 2
    vark = diag
    for m, Eb, _, _, M2 in blocks:
        x = beta * np.abs(np.subtract.outer(Eb, Eb))
        xs = np.where(x == 0, 1.0, x)
        phi = np.where(x == 0, 1.0, -np.expm1(-xs) / xs)
        kw = np.exp(-beta * (np.minimum.outer(Eb, Eb) - e0)) * phi
        vark += m[0] * np.sum(M2 * kw)
    return np.log(zt) - beta * e0, m1, (diag + w @ r) / zt, vark / zt


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(1, 5),
    g=st.one_of(st.just(0.0), st.floats(1e-4, 1.5)),
    eps=st.one_of(st.just(1.0), st.floats(0.0, 2.5)),
    log_beta=st.floats(-3.0, 3.0),
    n_max=st.integers(2, 14),
)
def test_kubo_second_order_form_matches_the_pair_sum(N, g, eps, log_beta, n_max):
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
    beta = 10.0**log_beta
    obs = thermal_observables(p, beta, n_max)
    lnz, m1, var, vark = _direct(p, beta, n_max)
    assert (obs.lnZ, obs.mean_Jz, obs.var_Jz) == (lnz, m1, var)
    assert obs.var_Jz_kubo == pytest.approx(vark, rel=1e-10, abs=0)


@pytest.mark.parametrize("g", [0.0, 1e-8])
def test_degenerate_pairs_are_summed_exactly(g):
    # g = 0 with eps = omega: E = eps*m + omega*n repeats, so a block holds
    # exactly degenerate pairs, which the second-order sum cannot take; g = 1e-8
    # splits them by ~1e-8, where it would lose ~7 digits at beta*omega = 1e-3
    p = ProbeParams(N=3, epsilon=1.0, omega=1.0, g=g)
    gaps = _sector_data(p, 10).near[1]
    assert gaps.size and np.all(gaps < thermal.NEAR * p.omega)
    assert np.any(gaps == 0.0) == (g == 0.0)
    for beta in (1e-3, 1.0, 1e3):
        assert thermal_observables(p, beta, 10).var_Jz_kubo == pytest.approx(
            _direct(p, beta, 10)[3], rel=1e-12, abs=0)


def test_block_records_are_one_dimensional():
    # the record is O(states): no d x d array is kept across beta
    p = ProbeParams(N=3, epsilon=1.0, omega=1.0, g=0.7)
    s = _sector_data(p, 20)
    assert all(np.asarray(a).ndim <= 1 for a in (*s[:6], *s.near))


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
def test_nonfinite_or_nonpositive_beta_rejected(solve_calls, beta):
    # refused before any block is built or solved, at every entry point and at the
    # one door they share; the all-dense record is asked for with beta = None, not 0
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.3)
    for solve in (lambda: thermal_observables(p, beta, 8), lambda: snr_exact(p, beta, 8),
                  lambda: converge_nmax(p, beta), lambda: _sector_data(p, 8, beta=beta)):
        with pytest.raises(NumericalDomainError, match="beta must be positive and finite"):
            solve()
    assert solve_calls == []


@pytest.mark.parametrize("N, g, beta", [(1, 0.3, 1e-50), (2, 0.5, 1e-20),
                                        (1, 0.3, np.float64(1e-307))])
def test_kubo_sum_without_precision_rejected(N, g, beta):
    # (2/beta) sum_i w_i R_i cancels as beta -> 0: +2.6e32 relative at N = 1,
    # negative at N = 2, and overflows a float at beta = 1e-307, where 2/beta is finite
    p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
    with pytest.raises(NumericalDomainError, match="rounding bound"):
        thermal_observables(p, beta, 32)


@pytest.mark.parametrize("g", [0.0, 1e-9, 0.3])
@pytest.mark.parametrize("beta", [1e-320, np.float64(1e-310)])
def test_beta_whose_kubo_prefactor_overflows_rejected(solve_calls, g, beta):
    # 2/beta overflows below beta ~ 1.1e-308; at g = 0 every R_i is 0, and inf * 0
    # would leave Var_Kubo nan with a RuntimeWarning, an error under the suite's filter
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=g)
    with pytest.raises(NumericalDomainError, match=f"beta = {beta} too small"):
        snr_exact(p, beta, n_max=8)
    assert solve_calls == []


def test_multiplicities_fit_a_float_below_n_float():
    # _blocks refuses N >= N_FLOAT from N alone; the largest multiplicity first
    # leaves the float range there
    def largest(N):
        return max(mult for _, mult in sector_multiplicities(N).sectors)

    assert math.isfinite(float(largest(thermal.N_FLOAT - 1)))
    with pytest.raises(OverflowError):
        float(largest(thermal.N_FLOAT))
    # adding a spin carries mult(J) into J + 1/2, so the largest one never falls
    for N in range(1, 40):
        assert largest(N + 1) >= largest(N)
    # maximal takes J = N/2 alone, of multiplicity 1, and proceeds at any N
    big = ProbeParams(N=thermal.N_FLOAT, epsilon=1.0, omega=1.0, g=0.2)
    with pytest.raises(NumericalDomainError, match="does not fit a float"):
        next(thermal._blocks(big, 1, "full"))
    assert next(thermal._blocks(big, 1, "maximal"))[1] == 1.0
    # and takes J = N/2 directly, without the binomials, which take seconds at this N
    huge = ProbeParams(N=9999, epsilon=1.0, omega=1.0, g=0.2)
    start = time.perf_counter()
    assert next(thermal._blocks(huge, 1, "maximal"))[:2] == (4999.5, 1.0)
    assert time.perf_counter() - start < 1.0


def _seeded_window_points(count, seed=2026):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(9, 11)), float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.05, 0.6)),
             float(rng.uniform(15.0, 40.0)), 64) for _ in range(count)]


# Window points: (N, eps, g, beta*omega, n_max).  The large point skips five
# blocks; g = 0.002 and 0.001 at eps = omega keep near pairs (< NEAR*omega)
# inside a window; g = 0.9 at n_max = 46 has a dense p_top of ~8e-8; N = 9 has
# half-integer J.  Then four seeded points.
WINDOW_POINTS = [
    (10, 1.0, 0.2, 20.0, 128),
    (10, 1.0, 0.002, 20.0, 64),
    (10, 1.0, 0.001, 30.0, 64),
    (10, 1.0, 0.9, 20.0, 46),
    (9, 1.0, 0.3, 20.0, 64),
    *_seeded_window_points(4),
]
# (dense, window, skipped, states) of each window point, recorded with the whole
# band's eigenvalues: a window block that falls back to dense changes them
WINDOW_TALLIES = [(0, 7, 5, 12), (3, 4, 5, 627), (1, 4, 7, 234), (0, 2, 10, 6),
                  (2, 4, 4, 400), (1, 4, 7, 235), (0, 4, 6, 6), (0, 4, 8, 4),
                  (0, 4, 6, 6)]


@pytest.mark.parametrize("N, eps, g, beta, n_max", WINDOW_POINTS)
def test_window_records_match_dense(N, eps, g, beta, n_max):
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
    window = _sector_data(p, n_max, beta=beta)
    dense = _sector_data(p, n_max)  # beta = None: every block dense, valid at every beta
    tally = WINDOW_TALLIES[WINDOW_POINTS.index((N, eps, g, beta, n_max))]
    assert tuple(window.solver.values()) == tally
    sectors = sector_multiplicities(N).sectors
    assert dense.solver == {"dense": 2 * len(sectors), "window": 0, "skipped": 0,
                            "states": sum(int(2 * J + 1) for J, _ in sectors) * (n_max + 1)}
    got, ref = _combine(window, beta), _combine(dense, beta)
    for name in ("lnZ", "mean_Jz", "var_Jz", "var_Jz_kubo"):
        assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-10), name
    assert _point(p, window, beta, "auto").snr == pytest.approx(
        _point(p, dense, beta, "auto").snr, rel=1e-10)
    if ref.p_top >= 1e-12:
        assert got.p_top == pytest.approx(ref.p_top, rel=1e-8)
    else:  # it reads the window vectors' rounding, ~1e-29 per entry at the top level
        assert abs(got.p_top - ref.p_top) <= 1e-20
    # a record made for beta serves every larger beta
    for colder in (2 * beta, 10 * beta):
        assert _combine(window, colder).var_Jz_kubo == pytest.approx(
            _combine(dense, colder).var_Jz_kubo, rel=1e-10)


def test_kubo_variance_never_exceeds_projective():
    # each pair enters Var_Kubo with 2 tanh(x/2)/x <= 1 of its Var_proj weight
    rng = np.random.default_rng(31)
    cases = [(int(rng.integers(1, 6)), float(rng.uniform(0.0, 2.5)), float(rng.uniform(0.0, 1.5)),
              10.0 ** rng.uniform(-3.0, 2.0), int(rng.integers(2, 17))) for _ in range(40)]
    cases += _seeded_window_points(4)
    for N, eps, g, beta, n_max in cases:
        s = _sector_data(ProbeParams(N=N, epsilon=eps, omega=1.0, g=g), n_max, beta=beta)
        for b in (beta, 3 * beta):
            obs = _combine(s, b)
            assert obs.var_Jz_kubo <= obs.var_Jz * (1 + 1e-12), (N, eps, g, b, n_max)


def test_window_cases_cover_near_pairs_and_skipped_blocks(monkeypatch):
    near = []  # the near pairs of every window record
    window = thermal._window

    def counted(*args):
        rec = window(*args)
        if rec is not None:
            near.append(len(rec[-1][0]))
        return rec

    monkeypatch.setattr(thermal, "_window", counted)
    skipped = 0
    for N, eps, g, beta, n_max in WINDOW_POINTS:
        p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
        skipped += _sector_data(p, n_max, beta=beta).solver["skipped"]
    assert sum(near) > 0 and skipped > 0


@pytest.mark.parametrize("N, eps, g, beta, n_max", _seeded_window_points(4))
def test_solver_counts_add_up(N, eps, g, beta, n_max):
    # every parity block is counted once, as dense, window or skipped, and
    # `states` is the length of the record
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
    for b in (beta, None):
        s = _sector_data(p, n_max, beta=b)
        c = s.solver
        assert c["dense"] + c["window"] + c["skipped"] == 2 * len(sector_multiplicities(N).sectors)
        assert c["states"] == len(s.E)
        assert all(len(a) == len(s.E) for a in s[:6])
        assert (c["window"] > 0) == (b is not None)


def test_window_slope_is_minus_beta_var_kubo():
    # d<Jz>/d eps = -beta Var_Kubo on a window point, by central differences
    h, beta = 1e-5, 20.0
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.3)
    up = thermal_observables(replace(p, epsilon=1.0 + h), beta, 64).mean_Jz
    dn = thermal_observables(replace(p, epsilon=1.0 - h), beta, 64).mean_Jz
    assert _sector_data(p, 64, beta=beta).solver["window"] > 0
    assert (up - dn) / (2 * h) == pytest.approx(djz_deps(p, beta, 64), rel=1e-6)



@pytest.mark.parametrize("N, g, beta", [
    (1, 0.2, 200.0), (1, 0.5, 200.0), (2, 0.8 / math.sqrt(2), 160.0), (4, 0.6, 160.0),
])
def test_snr_at_t_to_zero_reads_the_ground_state(N, g, beta):
    # T -> 0 twin of d<Jz>/d eps = -beta Var_Kubo: with the ground state alone populated,
    # Var_Kubo = 2 R_0 / beta and Var_proj = r_0, so S = 4 R_0^2 / r_0 on the projective
    # channel (N = 1) and S / beta = 2 R_0 on the susceptibility one (N >= 2).  The excited
    # weight is below exp(-31) here; 1e-10 relative bounds the rounding of the Gibbs sums.
    p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
    s = _sector_data(p, 48, "full", beta)
    i0 = np.argmin(s.E)
    assert beta * (np.partition(s.E, 1)[1] - s.E[i0]) >= 31
    R0, r0 = s.R[i0], s.r[i0]
    S = snr_exact(p, beta, 48).snr
    if N == 1:
        assert S == pytest.approx(4 * R0**2 / r0, rel=1e-10)
    else:
        assert S / beta == pytest.approx(2 * R0, rel=1e-10)

def test_large_point_solves_only_small_blocks_densely(monkeypatch):
    # a silent fallback to the dense solve at the large point would show in the eigh count
    dims = []
    eigh = np.linalg.eigh

    def counted(A):
        dims.append(A.shape[0])
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.2)
    got = snr_exact(p, 20.0, n_max=128)
    assert dims == []
    monkeypatch.undo()
    # the blocks of J = 5 .. 3 and one of J = 2 windowed, the rest skipped: none dense
    assert (got.solver["dense"], got.solver["window"], got.solver["skipped"]) == (0, 7, 5)
    ref = _point(p, _sector_data(p, 128), 20.0, "auto").snr
    assert got.snr == pytest.approx(ref, rel=1e-12)


def _window_bands(monkeypatch, p, n_max, beta):
    """(ab, |W|) of every window block of one solve."""
    bands = []
    window = thermal._window

    def kept(ab, *args):
        rec = window(ab, *args)
        if rec is not None:
            bands.append((ab, len(rec[0])))
        return rec

    monkeypatch.setattr(thermal, "_window", kept)
    _sector_data(p, n_max, beta=beta)
    monkeypatch.undo()
    return bands


@pytest.mark.parametrize("N, eps, g, beta, n_max", WINDOW_POINTS)
def test_inertia_count_matches_dense(monkeypatch, N, eps, g, beta, n_max):
    # shifts on both sides of each kept eigenvalue and of the first one left out,
    # half way to the nearer neighbour, so inside every near pair among them; split
    # after d/20 rows (where the Schur correction decides the count), after each of
    # the two leading blocks, and 32 rows from the end, the count is exact where the
    # trailing rows are positive definite at the shift, and None where they are not
    near = 0
    for ab, w in _window_bands(monkeypatch, ProbeParams(N, eps, 1.0, g), n_max, beta):
        b, d = len(ab) - 1, ab.shape[1]
        H = np.diag(ab[0])
        for q in range(1, b + 1):
            H += np.diag(ab[q, : d - q], -q) + np.diag(ab[q, : d - q], q)
        lam = np.linalg.eigvalsh(H)
        gaps = np.diff(lam[: w + 2])
        half = np.minimum(np.r_[np.inf, gaps[:-1]], gaps) / 2
        near += np.sum(gaps[:w] < thermal.NEAR)
        for k in (d // 20, 8 * (b + 1), 4 * (d // 20) + 4, d - 32):
            tail = np.linalg.eigvalsh(H[k:, k:])[0]
            for sigma in np.r_[lam[: w + 1] - half, lam[: w + 1] + half]:
                got = thermal._count_below(ab, k, sigma)
                assert got == (np.sum(lam < sigma) if tail > sigma else None), (d, k, sigma)
    assert near > 0 or g != 0.002


def test_inertia_count_with_a_band_wider_than_the_leading_block():
    # at n_max = 1 a block's bandwidth is about J, above its leading block's
    # 4*(d/20) + 4 columns (N = 1100: b = 550 against k = 224); then every
    # leading column couples to the trailing rows
    ab = operators._parity_band(ProbeParams(80, 1.0, 1.0, 0.2), 40.0, 1, 0)[0]
    b, d = len(ab) - 1, ab.shape[1]
    lam = eigvals_banded(ab, lower=True)
    counted = 0
    for k in (4, 4 * (d // 20) + 4, b - 1):
        assert k < b
        tail = eigvals_banded(ab[:, k:], lower=True)[0]
        for sigma in (lam[:4] + lam[1:5]) / 2:
            got = thermal._count_below(ab, k, sigma)
            assert got == (np.sum(lam < sigma) if tail > sigma else None), (k, sigma)
            counted += got is not None
    assert counted >= 3


def test_window_sizes_collapse_on_a_band_wider_than_its_leading_blocks(monkeypatch):
    # at n_max = 1, 8*(b + 1) = 336 columns exceed both 4*(d/20) + 4 = 20 and d = 81:
    # the sizes tried are 20 and d alone, and the states kept are the band's lowest
    ab, bm, bn = operators._parity_band(ProbeParams(80, 1.0, 1.0, 0.2), 40.0, 1, 0)
    b, d = len(ab) - 1, ab.shape[1]
    assert 8 * (b + 1) > d > 4 * (d // 20) + 4
    sizes = []

    def banded(a, *args, **kw):
        sizes.append(a.shape[1])
        return eigvals_banded(a, *args, **kw)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", banded)
    rec = thermal._window(ab, bm, bn == 1, 1.0, 20.0, np.inf, -100.0, 1.0)
    assert sizes[0] == 4 * (d // 20) + 4 and set(sizes) <= {4 * (d // 20) + 4, d}
    lam = eigvals_banded(ab, lower=True)
    assert rec is not None and np.allclose(rec[0], lam[: len(rec[0])], rtol=0, atol=1e-12)


def test_window_with_a_first_block_below_most_states():
    # N = 2, n_max = 400: the J = 1 blocks (d = 601, b = 2) have a first leading block
    # of 24 columns, fewer eigenvalues than the d/20 + 1 = 31 the early exit reads
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.3)
    window, dense = _sector_data(p, 400, beta=20.0), _sector_data(p, 400)
    assert tuple(window.solver.values()) == (2, 2, 0, 406)
    assert _point(p, window, 20.0, "auto").snr == pytest.approx(
        _point(p, dense, 20.0, "auto").snr, rel=1e-10)


def test_large_point_solves_no_whole_band(monkeypatch):
    # every window block is certified at its first leading block of 8*(b + 1) columns:
    # one banded eigenvalue solve of that block and one of _count_below's Schur complement
    # (thermal calls scipy.linalg.eigvals_banded by its module path, _count_below's call too)
    cols = []
    window = thermal._window

    def windowed(ab, *args):
        cols.append((8 * len(ab), []))
        return window(ab, *args)

    def banded(ab, *args, **kw):
        cols[-1][1].append(ab.shape[1])
        return eigvals_banded(ab, *args, **kw)

    monkeypatch.setattr(thermal, "_window", windowed)
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", banded)
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.2)
    assert snr_exact(p, 20.0, n_max=128).solver["window"] == len(cols) == 7
    assert all(len(seen) == 2 and max(seen) <= k0 for k0, seen in cols), cols


def test_large_point_never_builds_a_skipped_sector(monkeypatch):
    # the window blocks of J = 5 .. 3 and the first of J = 2 are read from their bands,
    # and the other five blocks are skipped: no sector is built
    built = []
    build = thermal.build_mapped_hamiltonian

    def counted(p, J, n_max):
        built.append(J)
        return build(p, J, n_max)

    monkeypatch.setattr(thermal, "build_mapped_hamiltonian", counted)
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.2)
    assert snr_exact(p, 20.0, n_max=128).solver["skipped"] == 5
    assert built == []


def test_strong_coupling_window_grows_to_the_whole_band():
    # at N = 16, g = 0.5 the low states spread over many Fock levels: three of the four
    # window blocks grow to the whole band.  The even J = 7 block counts right at 100
    # columns, but its lowest bound lies nearer the second state, so its polish fails
    # there.  Every window block is still kept, and S is the recorded window value, 3e-15
    # from the all-dense solve's 40.58197456979029 (which takes seconds).
    start = time.perf_counter()
    got = snr_exact(ProbeParams(N=16, epsilon=1.0, omega=1.0, g=0.5), 20.0, n_max=64)
    assert time.perf_counter() - start < 1.0
    assert tuple(got.solver.values()) == (0, 4, 14, 8)
    assert got.snr == pytest.approx(40.5819745697904, rel=1e-12)


@pytest.mark.parametrize("N, g, window, dense", [(16, 0.5, 4, 0), (10, 0.002, 4, 3)])
def test_only_sectors_with_a_dense_block_are_built(monkeypatch, N, g, window, dense):
    built, solved, current = [], [], []  # current: the J of the block being solved
    blocks, build, solve = thermal._blocks, thermal.build_mapped_hamiltonian, thermal.eigendecompose

    def tracked(*args):
        for block in blocks(*args):
            current.append(block[0])
            yield block

    def counted_build(p, J, n_max):
        built.append(J)
        return build(p, J, n_max)

    def counted_solve(A):
        solved.append(current[-1])
        return solve(A)

    monkeypatch.setattr(thermal, "_blocks", tracked)
    monkeypatch.setattr(thermal, "build_mapped_hamiltonian", counted_build)
    monkeypatch.setattr(thermal, "eigendecompose", counted_solve)
    s = _sector_data(ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g), 64, beta=20.0)
    assert (s.solver["window"], s.solver["dense"]) == (window, dense)
    assert built == sorted(set(solved), reverse=True)


def _seeded_skip_points(count, seed=24):
    # N = 1-8, g = 0 or log-uniform in [1e-4, 1], beta*omega log-uniform in [1, 200];
    # n_max <= 24 keeps every block below D_WINDOW, so only the skip rule differs from dense
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(1, 9)), float(rng.uniform(0.3, 1.5)),
             0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-4.0, 0.0)),
             float(10.0 ** rng.uniform(0.0, np.log10(200.0))), int(rng.integers(4, 25)))
            for _ in range(count)]


@pytest.mark.parametrize("N", range(1, 9))
def test_skipped_blocks_leave_every_observable_within_1e_10(N):
    # a record made at beta skips blocks by their share of both variances; it matches
    # the dense record at beta and at every colder temperature it is read at
    skipped = 0
    for n, eps, g, beta, n_max in _seeded_skip_points(212):
        if n != N:
            continue
        p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
        rec, dense = _sector_data(p, n_max, beta=beta), _sector_data(p, n_max)
        skipped += rec.solver["skipped"]
        assert rec.solver["window"] == 0
        for b in (beta, 2 * beta, 10 * beta):
            got, ref = _combine(rec, b), _combine(dense, b)
            for name in ("lnZ", "mean_Jz", "var_Jz", "var_Jz_kubo"):
                assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-10), (
                    name, p, b, n_max)
            try:
                want = _point(p, dense, b, "auto").snr
            except NumericalDomainError:  # a degenerate variance, as at g = 0
                with pytest.raises(NumericalDomainError, match="degenerate"):
                    _point(p, rec, b, "auto")
                continue
            assert _point(p, rec, b, "auto").snr == pytest.approx(want, rel=1e-10), (p, b, n_max)
    assert skipped > 0


def test_nearly_jz_eigenstate_ground_state_skips_without_moving_s():
    # N = 2, g = 1e-4, beta*omega = 40, n_max = 12: states of Gibbs weight 4e-18 carry
    # 2.7e-7 of Var_Kubo, and a weight bound (mult*d*e^{-beta (lb - e0)} < CUT) skips
    # three blocks and moves S by 2.7e-7; the variance bound skips one, S within 1e-12
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=1e-4)
    rec = _sector_data(p, 12, beta=40.0)
    assert rec.solver["skipped"] == 1
    assert _point(p, rec, 40.0, "auto").snr == pytest.approx(
        _point(p, _sector_data(p, 12), 40.0, "auto").snr, rel=1e-12)


@pytest.mark.parametrize("n_max", [64, 128])
def test_zero_coupling_bands_keep_their_exact_diagonal(n_max):
    # at g = 0 a band has no off-diagonal, and its sorted diagonal is the exact record:
    # r0 = R0 = 0, so no block is skipped.  A window read them as rounding noise and
    # skipped the blocks that carry the variance: var_Jz 2.4e-52 for 1.4e-86 at 200
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.0)
    dense = _sector_data(p, n_max)
    for beta in (20.0, 60.0, 200.0):
        rec = _sector_data(p, n_max, beta=beta)
        assert rec.solver["skipped"] == 0 and rec.solver["window"] > 0
        got, ref = _combine(rec, beta), _combine(dense, beta)
        for name in ("var_Jz", "var_Jz_kubo"):
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-10, abs=0)


@pytest.mark.parametrize("N", [1, 4, 10])
def test_zero_coupling_skips_nothing(N):
    # at g = 0 every eigenstate is a Jz eigenstate: r0 = R0 = 0, so the floor is 0
    s = _sector_data(ProbeParams(N=N, epsilon=1.0, omega=1.0, g=0.0), 16, beta=200.0)
    assert s.solver["skipped"] == 0
