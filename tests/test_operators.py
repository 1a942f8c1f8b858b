import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcprobe import operators
from rcprobe.errors import NumericalDomainError, ParameterError
from rcprobe.operators import (
    ProbeParams,
    boson_operators,
    build_mapped_hamiltonian,
    sector_multiplicities,
    spin_operators,
)


def test_spin_half_matrices():
    Jx, B, Jz = spin_operators(0.5)
    assert np.allclose(Jz.entries, np.diag([-0.5, 0.5]))
    assert np.allclose(Jx.entries, [[0, 0.5], [0.5, 0]])
    assert np.allclose(B.entries, [[0, -0.5], [0.5, 0]])


def test_spin_one_ladder_elements():
    Jx, _, _ = spin_operators(1)
    off = np.diag(Jx.entries, 1)
    assert np.allclose(off, [1 / math.sqrt(2), 1 / math.sqrt(2)])


@pytest.mark.parametrize("twoJ", range(1, 9))
def test_commutator_identity(twoJ):
    # Jx B - B Jx = -Jz with Jy = -iB
    Jx, B, Jz = spin_operators(twoJ / 2)
    comm = Jx.entries @ B.entries - B.entries @ Jx.entries
    assert np.max(np.abs(comm + Jz.entries)) < 1e-13


def test_casimir():
    for twoJ in (1, 2, 3, 5):
        J = twoJ / 2
        Jx, B, Jz = spin_operators(J)
        # Jy^2 = (-iB)^2 = -B^2
        J2 = Jx.entries @ Jx.entries - B.entries @ B.entries + Jz.entries @ Jz.entries
        assert np.allclose(J2, J * (J + 1) * np.eye(twoJ + 1))


def test_non_half_integer_rejected():
    with pytest.raises(NumericalDomainError):
        spin_operators(0.7)


def test_sector_multiplicities_small():
    assert sector_multiplicities(1).sectors == ((0.5, 1),)
    assert sector_multiplicities(2).sectors == ((1.0, 1), (0.0, 1))
    assert sector_multiplicities(3).sectors == ((1.5, 1), (0.5, 2))


def test_sector_multiplicities_vs_brute_force():
    # diagonalize J^2 on the product space for N = 2, 3, 4
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy_b = np.array([[0, -1], [1, 0]]) / 2  # Jy = -iB convention
    sz = np.array([[-1, 0], [0, 1]]) / 2
    for N in (2, 3, 4):
        dim = 2**N
        Jx = np.zeros((dim, dim))
        B = np.zeros((dim, dim))
        Jz = np.zeros((dim, dim))
        for i in range(N):
            ops = [np.eye(2)] * N
            for total, single in ((Jx, sx), (B, sy_b), (Jz, sz)):
                ops[i] = single
                term = ops[0]
                for o in ops[1:]:
                    term = np.kron(term, o)
                total += term
                ops[i] = np.eye(2)
        J2 = Jx @ Jx - B @ B + Jz @ Jz
        evs = np.sort(np.linalg.eigvalsh(J2))
        expected = np.sort(np.concatenate([
            np.full(int(round(2 * J + 1)) * m, J * (J + 1))
            for J, m in sector_multiplicities(N).sectors
        ]))
        assert np.allclose(evs, expected, atol=1e-9)


@given(st.integers(min_value=1, max_value=12))
def test_total_dimension_identity(N):
    assert sector_multiplicities(N).total_dimension() == 2**N


def test_boson_operators():
    x, num = boson_operators(2)
    assert np.allclose(num.entries, np.diag([0, 1, 2]))
    assert np.allclose(np.diag(x.entries, 1), [1, math.sqrt(2)])
    x1, _ = boson_operators(1)
    assert np.allclose(x1.entries, [[0, 1], [1, 0]])


def test_commutation_a_adag_below_cutoff():
    n_max = 6
    nb = n_max + 1
    off = np.sqrt(np.arange(1, nb))
    a = np.diag(off, 1)
    comm = a @ a.T - a.T @ a
    assert np.allclose(comm[:n_max, :n_max], np.eye(nb)[:n_max, :n_max])


def test_hamiltonian_symmetric_and_decoupled_limit():
    p = ProbeParams(N=1, epsilon=0.7, omega=1.0, g=0.0)
    H = build_mapped_hamiltonian(p, 0.5, 1)
    assert np.array_equal(H.entries, H.entries.T)
    evs = np.sort(np.linalg.eigvalsh(H.entries))
    assert np.allclose(evs, sorted([-0.35, 0.35, 1 - 0.35, 1 + 0.35]))


def test_polaron_ground_energy():
    # eps = 0: H decouples into displaced oscillators, E0 = -g^2/(4 omega)
    # (Jx eigenvalue +-1/2 squared times g^2/omega)
    p = ProbeParams(N=1, epsilon=0.0, omega=1.0, g=0.5)
    H = build_mapped_hamiltonian(p, 0.5, 60)
    e0 = np.linalg.eigvalsh(H.entries)[0]
    assert abs(e0 - (-p.g**2 / (4 * p.omega))) < 1e-10


def test_dimension_cap(monkeypatch):
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.1)
    monkeypatch.setattr(operators, "DIM_CAP", 100)
    with pytest.raises(NumericalDomainError, match="exceeds cap 100$"):
        build_mapped_hamiltonian(p, 0.5, 60)
    with pytest.raises(NumericalDomainError, match="exceeds cap 100$"):
        operators._parity_band(p, 0.5, 60, 0)


@pytest.mark.parametrize("n_max", [0, -1, -2, 2.5])
def test_cutoff_must_be_a_positive_integer(n_max):
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.3)
    with pytest.raises(NumericalDomainError, match="n_max must be a positive integer"):
        build_mapped_hamiltonian(p, 1.0, n_max)


def _kronecker_hamiltonian(p, J, n_max):
    # reference: the defining formula eps*Jz x 1 + omega*1 x n + g*Jx x (a^dag + a)
    Jx, _, Jz = spin_operators(J)
    x, num = boson_operators(n_max)
    ds, nb = int(round(2 * J)) + 1, n_max + 1
    return (
        p.epsilon * np.kron(Jz.entries, np.eye(nb))
        + p.omega * np.kron(np.eye(ds), num.entries)
        + p.g * np.kron(Jx.entries, x.entries)
    )


def test_band_filled_hamiltonian_matches_kronecker_formula():
    for N in range(1, 11):
        for g in (0.0, 0.1, 0.37, 1.3):
            for eps in (0.0, 0.7, 1.0, 2.3):
                p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
                for J, _ in sector_multiplicities(N).sectors:
                    for n_max in (1, 2, 24):
                        H = build_mapped_hamiltonian(p, J, n_max).entries
                        ref = _kronecker_hamiltonian(p, J, n_max)
                        assert H.tobytes() == ref.tobytes(), (N, g, eps, J, n_max)


def _parity(J, n_max):
    # (m + J) + n mod 2 of each row of the composite basis
    i = np.arange(int(round(2 * J + 1)) * (n_max + 1))
    return (i // (n_max + 1) + i % (n_max + 1)) % 2


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_hamiltonian_conserves_parity(N, eps, g, n_max):
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
    for J, _ in sector_multiplicities(N).sectors:
        H = build_mapped_hamiltonian(p, J, n_max).entries
        par = _parity(J, n_max)
        assert np.all(H[np.ix_(par == 0, par == 1)] == 0.0)


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_hamiltonian_always_symmetric(N, eps, g):
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
    H = build_mapped_hamiltonian(p, N / 2, 8)
    assert np.array_equal(H.entries, H.entries.T)


def _gathered_band(p, J, n_max, k):
    """Parity block k of the dense sector in Fock-slow lower band storage, gathered row by row:
    (ab, m, n) as operators._parity_band returns them, trailing zero diagonals dropped."""
    H = build_mapped_hamiltonian(p, J, n_max).entries
    nb, ds = n_max + 1, int(round(2 * J)) + 1
    rows = np.flatnonzero(_parity(J, n_max) == k)
    order = rows[np.argsort(rows % nb * ds + rows // nb)]
    d = len(order)
    ab = np.zeros((min(ds + 2, d), d))
    for q in range(len(ab)):
        ab[q, : d - q] = H[order[q:], order[: d - q]]
    b = len(ab) - 1
    while b and not ab[b].any():
        b -= 1
    return ab[: b + 1], order // nb - J, order % nb


def test_parity_band_is_the_gathered_sector_block_bitwise():
    rng = np.random.default_rng(18)
    for case in range(100):
        N, n_max = int(rng.integers(1, 13)), int(rng.integers(1, 71))
        g = 0.0 if case % 6 == 0 else float(rng.uniform(0.0, 2.0))
        eps = 0.0 if case % 5 == 0 else float(rng.uniform(0.0, 2.0))
        p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
        for J, _ in sector_multiplicities(N).sectors:
            for k in (0, 1):
                got, ref = operators._parity_band(p, J, n_max, k), _gathered_band(p, J, n_max, k)
                assert got[0].shape == ref[0].shape, (N, eps, g, J, n_max, k)
                for a, b in zip(got, ref):
                    assert a.tobytes() == b.tobytes(), (N, eps, g, J, n_max, k)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        ProbeParams(N=0, epsilon=1.0, omega=1.0, g=0.1)
    with pytest.raises(ValueError):
        ProbeParams(N=1, epsilon=1.0, omega=0.0, g=0.1)
    with pytest.raises(ValueError):
        ProbeParams(N=1, epsilon=-1.0, omega=1.0, g=0.1)
    with pytest.raises(ValueError):
        ProbeParams(N=1, epsilon=1.0, omega=1.0, g=-0.1)


@pytest.mark.parametrize("field", ["epsilon", "omega", "g"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected(field, value):
    # nan passes every < 0 test, and inf reaches the eigensolver
    kwargs = {"N": 1, "epsilon": 1.0, "omega": 1.0, "g": 0.1, field: value}
    with pytest.raises(ParameterError, match="finite"):
        ProbeParams(**kwargs)
