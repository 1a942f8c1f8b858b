"""Exact-diagonalization thermodynamics of the probe + extracted-mode system.

The 2^N product space is decomposed into total-spin sectors J with known
multiplicities.  The parity (-1)^{(m+J)+n} commutes with H and with Jz, so
each sector Hamiltonian, (2J+1)(n_max+1)-dimensional, splits into two
parity blocks of half its size; each block is diagonalized densely, and
partition sums are combined across blocks with the sector multiplicities.
All Boltzmann factors are taken relative to the global ground energy so
that beta*omega ~ 10^3 neither under- nor overflows.

Two noise channels are provided for the SNR denominator:

  "projective"      Var Jz of the reduced state, i.e. the eigenbasis trace
                    of Jz^2 minus <Jz>^2 — the statistics of repeated
                    projective Jz measurements.
  "susceptibility"  the generalized (Kubo/Duhamel) second moment
                    (1/(Z beta^2)) d^2 Z / d eps^2, evaluated spectrally.
                    For [H, Jz] != 0 this differs from the projective
                    second moment; it is the curvature of lnZ and sets the
                    thermal-response noise floor.
  "auto"            projective for N=1, susceptibility for N >= 2.

Both are centred on <Jz>.  The Kubo pair sum equals (2/beta) sum_i w_i R_i, with
w_i the Boltzmann weights and R_i = sum_{j != i} M_ij^2 / (E_j - E_i) (M = V^T Jz V)
independent of beta, so each beta costs O(d) per block; pairs closer than
NEAR*omega, degeneracies included, keep the direct (1 - e^{-x})/x weight.

The Fock cutoff is judged from the same solve: p_top, the Gibbs population
of the top level n_max, is sum_k w_k t_k / Z with the beta-independent
t_k = sum_m V[(m, n_max), k]^2, O(d) per beta.  TOP_C * p_top estimates the
relative truncation error of S; TOP_C = 300 is fitted, not a bound (over
N = 1-4, g = 0.1-0.7, beta*omega = 0.5-60 and n_max = 8-48 the error against
n_max = 192 stayed below 235 p_top).

The "auto" split reproduces the published low-temperature scaling laws:
the single-spin SNR saturates (T^0) with the projective denominator while
the N >= 2 SNR grows as 1/T with the susceptibility denominator.
"""

from dataclasses import dataclass

import numpy as np

from . import operators
from .baseline import weak_snr
from .errors import ConvergenceError, NumericalDomainError
from .operators import ProbeParams, build_mapped_hamiltonian, sector_multiplicities

NOISE_CHANNELS = ("projective", "susceptibility", "auto")

# converge_nmax: first cutoff and largest cutoff
NMAX_START, NMAX_CAP = 16, 4096
# a cutoff is accepted when the fitted truncation estimate TOP_C * p_top < REL_TOL
TOP_C, REL_TOL = 300.0, 1e-6
NEAR = 1e-2  # Kubo pairs closer than NEAR*omega are summed directly at each beta


@dataclass(frozen=True)
class ThermalObservables:
    beta: float
    lnZ: float
    mean_Jz: float
    mean_Jz2: float
    var_Jz: float
    # generalized (Kubo) variance; equals var_Jz only when [H, Jz] = 0
    var_Jz_kubo: float = 0.0
    # Gibbs population of the top Fock level n_max; 0 where there is no cutoff
    p_top: float = 0.0

    @property
    def mean_Jz2_kubo(self):
        return self.var_Jz_kubo + self.mean_Jz**2


@dataclass(frozen=True)
class SnrPoint:
    beta: float
    snr: float
    snr_weak: float
    p_top: float = 0.0  # as ThermalObservables.p_top, from the same solve


def cutoff_converged(p_top):
    """True when the fitted truncation estimate TOP_C * p_top is below REL_TOL."""
    return bool(TOP_C * p_top < REL_TOL)


def eigendecompose(A):
    """(w, V): ascending eigenvalues and orthonormal eigenvectors of a real
    symmetric matrix, as np.linalg.eigh returns them.

    The eigenvector signs are left as LAPACK returns them: every observable
    reads M^2, diag M or V w V^T, none of which a column sign flip changes.
    """
    if not np.array_equal(A, A.T):
        raise NumericalDomainError("eigendecompose requires an exactly symmetric matrix")
    return np.linalg.eigh(A)


def _phi(x):
    # (1 - e^{-x}) / x for an array x >= 0, stable at x -> 0
    small = x < 1e-8
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 - 0.5 * x, -np.expm1(-xs) / xs)


def _parity_blocks(p: ProbeParams, n_max, sector="full"):
    """(J, mult, rows, E, V) per parity block of each total-spin sector.

    No element of H or Jz couples rows of unequal (m+J)+n parity, so each
    sector is solved as two blocks: `rows` are a block's rows in the sector
    basis (even, then odd), E and V its spectrum.  sector="maximal" keeps
    J = N/2 only.
    """
    dec = sector_multiplicities(p.N)
    nb = n_max + 1
    for J, mult in dec.sectors if sector == "full" else dec.sectors[:1]:
        H = build_mapped_hamiltonian(p, J, n_max).entries
        i = np.arange(H.shape[0])
        parity = (i // nb + i % nb) % 2
        for k in (0, 1):
            rows = np.flatnonzero(parity == k)
            yield (J, mult, rows, *eigendecompose(H[np.ix_(rows, rows)]))


def _sector_data(p: ProbeParams, n_max, sector="full"):
    """Beta-independent record per parity block: (mult, E, diag M, M2 row sums, R, t, near).

    M = V^T Jz V, M2 its off-diagonal squares; t_k is eigenvector k's weight on
    the top Fock level n_max; near = (i, E_j - E_i, M2_ij), pairs i < j.
    """
    out = []
    for J, mult, rows, E, V in _parity_blocks(p, n_max, sector):
        # M = V^T Jz V; Jz is diagonal with entry m = (m + J) - J, so scale rows
        M = V.T @ ((rows // (n_max + 1) - J)[:, None] * V)
        d1 = np.diag(M).copy()
        np.fill_diagonal(M, 0.0)
        M *= M
        # E ascends, so the near partners of row i are the `after[i]` rows right after it
        after = np.searchsorted(E, E + NEAR * p.omega) - np.arange(1, len(E) + 1)
        i = np.repeat(np.arange(len(E)), after)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(after) - after, after)
        gap = E - E[:, None]
        gap[i, j] = gap[j, i] = np.inf
        np.fill_diagonal(gap, np.inf)
        t = np.square(V[rows % (n_max + 1) == n_max]).sum(axis=0)
        out.append((mult, E, d1, M.sum(axis=1), (M / gap).sum(axis=1), t,
                    (i, E[j] - E[i], M[i, j])))
    return out


def _combine(data, beta):
    """Gibbs state at one beta from the block records, in O(d) per block."""
    if not 0 < beta < np.inf:
        raise NumericalDomainError(f"beta must be positive and finite, got {beta}")
    e0 = min(E[0] for _, E, *_ in data)
    with np.errstate(over="ignore"):  # beta (E - e0) beyond the float range: weight 0
        ws = [mult * np.exp(-beta * (E - e0)) for mult, E, *_ in data]
    zt = sum(w.sum() for w in ws)
    m1 = sum(w @ d1 for w, (_, _, d1, *_) in zip(ws, data)) / zt
    varp = vark = top = 0.0
    for w, (_, _, d1, r, R, t, (i, gap, m2)) in zip(ws, data):
        top += w @ t
        diag = w @ (d1 - m1) ** 2
        varp += diag + w @ r
        vark += diag + (2 / beta) * (w @ R)
        if len(i):  # most blocks have no near pair
            vark += 2 * m2 @ (w[i] * _phi(beta * gap))
    return ThermalObservables(
        beta=beta, lnZ=np.log(zt) - beta * e0, mean_Jz=m1, mean_Jz2=varp / zt + m1 * m1,
        var_Jz=varp / zt, var_Jz_kubo=vark / zt, p_top=top / zt,
    )


def thermal_observables(p: ProbeParams, beta, n_max, sector="full"):
    """Partition function and Jz moments of the composite Gibbs state."""
    return _combine(_sector_data(p, n_max, sector), beta)


def djz_deps(p: ProbeParams, beta, n_max, sector="full"):
    """d<Jz>/d eps = -beta Var_Kubo(Jz), exact static linear response."""
    return -beta * thermal_observables(p, beta, n_max, sector).var_Jz_kubo


def _snr(p: ProbeParams, obs: ThermalObservables, noise):
    """S = |d<Jz>/d eps|^2 / Var(Jz) from one point's thermal observables."""
    if noise not in NOISE_CHANNELS:
        raise NumericalDomainError(f"unknown noise channel {noise!r}")
    if noise == "auto":
        noise = "projective" if p.N == 1 else "susceptibility"
    var = obs.var_Jz if noise == "projective" else obs.var_Jz_kubo
    if var < 1e-14 * p.N**2:
        raise NumericalDomainError(
            f"variance {var:.3e} degenerate (T -> 0 with a pure Jz eigenstate)"
        )
    slope = -obs.beta * obs.var_Jz_kubo
    return slope * slope / var


def snr_exact(p: ProbeParams, beta, n_max=128, noise="auto", sector="full"):
    """Exact SNR S = |d<Jz>/d eps|^2 / noise at one parameter point.

    `noise` selects the variance channel (see module docstring).  Returns
    SnrPoint(beta, snr, snr_weak, p_top); snr_weak is the closed-form g = 0
    value, p_top the top Fock level's population.
    """
    obs = thermal_observables(p, beta, n_max, sector)
    return SnrPoint(beta=beta, snr=_snr(p, obs, noise),
                    snr_weak=weak_snr(p.N, p.epsilon, beta).snr, p_top=obs.p_top)


def converge_nmax(p: ProbeParams, beta, noise="auto", sector="full"):
    """First accepted n_max in a doubling sequence, and the snr there.

    Returns (n_max, snr): the first cutoff from NMAX_START at which the fitted
    truncation estimate TOP_C * p_top is below REL_TOL (cutoff_converged), and
    the snr of that one solve.  The doubling stops at NMAX_CAP, or where the
    next cutoff's largest sector would exceed operators.DIM_CAP, with a
    ConvergenceError.
    """
    n = NMAX_START
    while n <= NMAX_CAP and (p.N + 1) * (n + 1) <= operators.DIM_CAP:
        obs = thermal_observables(p, beta, n, sector)
        if cutoff_converged(obs.p_top):
            return n, _snr(p, obs, noise)
        n *= 2
    raise ConvergenceError(f"n_max not converged by {n // 2} at beta={beta}, g={p.g}")


def reduced_probe_state(p: ProbeParams, beta, n_max, sector="full"):
    """Reduced probe density matrix, block-diagonal over total-spin sectors.

    Returns (rho, labels): rho is the 2^N x 2^N (sector="full") matrix in
    the direct-sum coupled basis, with each J block repeated per its
    multiplicity; labels lists (J, copy_index) per block.  Trace 1,
    symmetric, positive semidefinite.
    """
    raw = list(_parity_blocks(p, n_max, sector))
    e0 = min(E[0] for _, _, _, E, _ in raw)
    blocks = {}  # J -> (mult, rho), in sector order
    for J, mult, rows, E, V in raw:
        # the block's eigenvectors at their rows, then the partial trace over
        # the Fock index (fast axis)
        U = np.zeros((int(round(2 * J + 1)) * (n_max + 1), V.shape[1]))
        U[rows] = V
        U = U.reshape(-1, n_max + 1, V.shape[1])
        rho = np.einsum("ank,bnk,k->ab", U, U, np.exp(-beta * (E - e0)))
        blocks[J] = (mult, blocks[J][1] + rho if J in blocks else rho)
    total = sum(mult * np.trace(rho) for mult, rho in blocks.values())
    dim = sum(mult * rho.shape[0] for mult, rho in blocks.values())
    out = np.zeros((dim, dim))
    labels = []
    pos = 0
    for J, (mult, rho) in blocks.items():
        ds = rho.shape[0]
        for c in range(mult):
            out[pos : pos + ds, pos : pos + ds] = rho / total
            labels.append((J, c))
            pos += ds
    return out, labels
