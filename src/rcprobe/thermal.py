"""Exact-diagonalization thermodynamics of the probe + extracted-mode system.

The 2^N product space is decomposed into total-spin sectors J with known
multiplicities.  The parity (-1)^{(m+J)+n} commutes with H and with Jz, so
each sector Hamiltonian, (2J+1)(n_max+1)-dimensional, splits into two
parity blocks of half its size.  One solve keeps every block's states in
one flat record (Spectra), which one vectorised pass reads at each beta
(_combine).  All Boltzmann factors are taken relative to the global ground
energy so that beta*omega ~ 10^3 neither under- nor overflows.

A record is made for the least beta it must serve, and one rule picks each
block's solver.  Sectors run from J = N/2 down, e0 is the least energy kept
so far, and mult0, r0 and R0 belong to its state.  At a finite beta > 0, a
block is
  skipped   when beta (lb - e0) > 1 and mult*d*e^{-beta (lb - e0)} N^2 < CUT*floor,
            lb the least Gershgorin bound of its rows, CUT = 1e-16 and
            floor = mult0 min(r0, (2/beta)(1 - e^{-beta NEAR omega}) R0);
  windowed  when d >= D_WINDOW = 256 and its lowest |W| <= d/20 states leave
            out a Gibbs weight mult*(d - |W|)*e^{-beta (E_cut - e0)} < CUT, the
            cut in a gap of at least NEAR*omega: W is read from a leading block
            of the band in Fock-slow order (bandwidth <= J + 1), certified by an
            inertia count of the whole band, and only W is solved (_window);
            a band with no off-diagonal (g = 0) keeps its whole sorted diagonal;
  dense     otherwise, a failed certificate included.
Relative to e^{-beta e0}, floor bounds Var_proj Z and Var_Kubo Z from below:
the state of e0 adds mult0 r0 to the first, and each of its far pairs, all
above it, at least (1 - e^{-beta NEAR omega}) of its M^2/gap to the second.
Dropping a state of weight w moves sum w (d1 - m1)^2 by at most w (d1 - m1)^2,
and sum w r and the Kubo pair sum (in-block, each pair at most its projective
term) by at most w r: both by at most w <(Jz - m1)^2> <= w N^2, so C_N = N^2.
The skip's ratio to CUT falls with beta once beta (lb - e0) > 1, as
beta e^{-beta x} / (1 - e^{-beta a}) does (x = lb - e0, a = NEAR*omega), so a
record serves every beta' >= beta.  floor = 0, as at g = 0, skips nothing.
Bands come from operators._parity_band, built where d >= D_WINDOW or where
the block's least diagonal entry, an upper bound on lb, passes the skip
test; only a dense block's sector is built.

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
independent of beta, so each beta costs O(1) per kept state; pairs closer than
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
from functools import cache
from typing import NamedTuple

import numpy as np
import scipy

from . import operators
from .baseline import weak_snr
from .errors import ConvergenceError, NumericalDomainError, ParameterError
from .operators import ProbeParams, build_mapped_hamiltonian, sector_multiplicities

# the spin sectors summed and the noise channels of the module docstring; each default first
SECTORS = ("full", "maximal")
NOISE_CHANNELS = ("auto", "projective", "susceptibility")

# converge_nmax: first cutoff and largest cutoff
NMAX_START, NMAX_CAP = 16, 4096
# a cutoff is accepted when the fitted truncation estimate TOP_C * p_top < REL_TOL
TOP_C, REL_TOL = 300.0, 1e-6
NEAR = 1e-2  # Kubo pairs closer than NEAR*omega are summed directly at each beta
# a block of at least D_WINDOW rows may be solved by window, dropping Gibbs weight below CUT
# relative to the ground state's; a block of any size is skipped below CUT of the variances
D_WINDOW, CUT = 256, 1e-16
# the least N with a sector multiplicity beyond the float range; the largest multiplicity
# never falls as N grows, since adding a spin carries mult(J) into J + 1/2
N_FLOAT = 1035


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
    n_max: int = 0  # the Fock cutoff of the solve; 0 where there is none, as for dicke points
    p_top: float = 0.0  # as ThermalObservables.p_top, from the same solve
    solver: dict | None = None  # how the solve was split: see Spectra

    @property
    def converged(self):
        """cutoff_converged(p_top); true with no cutoff (p_top = 0), as for dicke points."""
        return cutoff_converged(self.p_top)


def cutoff_converged(p_top):
    """True when the fitted truncation estimate TOP_C * p_top is below REL_TOL."""
    return bool(TOP_C * p_top < REL_TOL)


def _check_choice(value, allowed, name):
    if value not in allowed:
        raise ParameterError(f"{name} must be one of {allowed}, got {value!r}")


def _kubo_prefactor(beta):
    """2/beta, for a finite beta > 0 whose 2/beta is finite too; a NumericalDomainError else."""
    if not 0 < beta < np.inf:
        raise NumericalDomainError(f"beta must be positive and finite, got {beta}")
    kubo = 2 / float(beta)  # a Python float: inf on overflow, with no warning
    if kubo == np.inf:  # beta below ~1.1e-308, where inf * 0 would make Var_Kubo nan
        raise NumericalDomainError(f"beta = {beta} too small: 2/beta overflows a float")
    return kubo


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


def _blocks(p: ProbeParams, n_max, sector):
    """(J, mult, k, rows, H) per parity block k: rows the block's rows in its sector, and
    H() the sector Hamiltonian, built at its first call, so a sector none calls is never built.

    The total-spin sectors taken are all, or J = N/2 only for "maximal".  No
    element of H or Jz couples rows of unequal (m+J)+n parity, so each
    sector is solved as two blocks, even rows then odd.
    """
    _check_choice(sector, SECTORS, "sector")
    operators._check_sector(p, p.N / 2, n_max)  # the largest sector, before any multiplicity
    if sector == "full" and p.N >= N_FLOAT:  # every product with a multiplicity is in floats
        raise NumericalDomainError(f"N = {p.N}: a multiplicity does not fit a float")
    sectors = ([(J, float(mult)) for J, mult in sector_multiplicities(p.N).sectors]
               if sector == "full" else [(p.N / 2, 1.0)])
    nb = n_max + 1
    for J, mult in sectors:
        H = cache(lambda J=J: build_mapped_hamiltonian(p, J, n_max).entries)
        i = np.arange(int(round(2 * J + 1)) * nb)
        parity = (i // nb + i % nb) % 2
        for k in (0, 1):
            yield J, mult, k, np.flatnonzero(parity == k), H


def _parity_blocks(p: ProbeParams, n_max, sector="full"):
    """(J, mult, rows, E, V) per parity block of each total-spin sector, solved densely.

    `rows` are a block's rows in the sector basis, E and V its spectrum.
    """
    for J, mult, _, rows, H in _blocks(p, n_max, sector):
        yield (J, mult, rows, *eigendecompose(H()[np.ix_(rows, rows)]))


def _pairs(E, V, jz, omega):
    """(diag M, M2, R, near) over the eigenvectors V (columns, energies E) of one block.

    M = V^T Jz V with jz the diagonal of Jz, M2 its off-diagonal squares,
    R_i = sum_j M2_ij / (E_j - E_i) over the pairs that are not near, and
    near = (i, E_j - E_i, M2_ij) for the pairs i < j closer than NEAR*omega.
    """
    M = V.T @ (jz[:, None] * V)
    d1 = np.diag(M).copy()
    np.fill_diagonal(M, 0.0)
    M *= M
    gap = E - E[:, None]
    i, j = np.nonzero(np.triu(gap < NEAR * omega, 1))
    near = (i, gap[i, j], M[i, j])
    gap[i, j] = gap[j, i] = np.inf
    np.fill_diagonal(gap, np.inf)
    return d1, M, (M / gap).sum(axis=1), near


def _count_below(ab, k, sigma):
    """The number of eigenvalues below sigma of a banded block, or None.

    By Haynsworth inertia it is the negative count of the Schur complement of
    A, the block's rows from k on less sigma, where A is positive definite (None
    where its Cholesky factorization fails).  That complement is banded too.
    """
    b = len(ab) - 1
    c = min(b, k)  # the columns of the leading rows that couple to the trailing ones
    A = ab[:, k:].copy()
    A[0] -= sigma
    chol, info = scipy.linalg.lapack.dpbtrf(A, lower=1, overwrite_ab=1)
    if info:
        return None
    C = np.zeros((A.shape[1], c))  # H[k:, k-c:k], nonzero in its first b rows
    i, j = np.nonzero(np.subtract.outer(np.arange(b), np.arange(c)) <= b - c)
    C[i, j] = ab[c + i - j, k - c + j]
    corner = C[:b].T @ scipy.linalg.lapack.dpbtrs(chol, C, lower=1)[0][:b]
    schur = ab[:, :k].copy()
    schur[0] -= sigma
    for q in range(c):
        schur[q, k - c : k - q] -= np.diagonal(corner, -q)
    return int((scipy.linalg.eigvals_banded(schur, lower=True, check_finite=False) < 0).sum())


def _states(ab, jz, top, mu, sigma, omega):
    """(E, d1, r, R, t, near) of the len(mu) lowest states of a banded block, or None.

    mu estimates their energies, all below sigma.  Each vector comes from
    inverse iteration on the band, orthogonalized against the vectors below
    it, and its energy E_i from the Rayleigh quotient, re-factoring at it
    until it settles; None where it does not within four factorizations, a
    residual ||H v - E v|| exceeds 64 delta, or E does not ascend below sigma.
    R_i adds to its in-window sum <u|Q (H - E_i)^{-1} Q|u>, u = Jz v_i and
    Q the projection off the kept states, from the same factorization.
    """
    (b, d), w = (len(ab) - 1, ab.shape[1]), len(mu)
    # the full band with room for the LU fill-in, as dgbtrf takes it
    full = np.zeros((3 * b + 1, d))
    for q in range(b + 1):
        full[2 * b - q, q:] = full[2 * b + q, : d - q] = ab[q, : d - q]
    # each factorization is shifted below its eigenvalue so that it stays regular
    delta = 4 * np.spacing(np.abs(ab[0]).max() + omega)
    start = np.random.default_rng(0).standard_normal((d, w))  # fixed: same bits every run
    E, V, factors = np.empty(w), np.empty((d, w)), []
    for i in range(w):
        e, x = mu[i], start[:, i]
        for _ in range(4):
            shifted = full.copy()
            shifted[2 * b] -= e - delta
            lu, piv, info = scipy.linalg.lapack.dgbtrf(shifted, b, b, overwrite_ab=True)
            if info:
                return None
            for _ in range(2):
                x = scipy.linalg.lapack.dgbtrs(lu, b, b, x, piv)[0]
                x -= V[:, :i] @ (V[:, :i].T @ x)
                x /= np.linalg.norm(x)
            hx = scipy.linalg.blas.dsbmv(b, 1.0, ab, x, lower=1)
            E[i], V[:, i] = x @ hx, x
            if abs(E[i] - e) <= delta:
                break
            e = E[i]
        else:
            return None
        if np.linalg.norm(hx - E[i] * x) > 64 * delta:
            return None
        factors.append((lu, piv, E[i] - e + delta))  # factorized at E_i - eta
    if E[-1] >= sigma or np.any(np.diff(E) < -delta):
        return None
    U = jz[:, None] * V
    U -= V @ (V.T @ U)  # Q Jz v_i
    R = np.empty(w)
    for i, (lu, piv, eta) in enumerate(factors):
        x = scipy.linalg.lapack.dgbtrs(lu, b, b, U[:, i], piv)[0]
        x -= V @ (V.T @ x)
        # <u|x> is the resolvent at E_i - eta; eta <x|x> restores it to first order
        R[i] = U[:, i] @ x + eta * (x @ x)
    d1, _, R_in, near = _pairs(E, V, jz, omega)
    # sum_{j != i} M_ij^2 = ||(Jz - M_ii) v_i||^2, a sum of non-negative terms
    r = (np.square(jz[:, None] - d1) * np.square(V)).sum(axis=0)
    return E, d1, r, R_in + R, np.square(V[top]).sum(axis=0), near


def _window(ab, jz, top, mult, beta, e0, lb, omega):
    """(E, d1, r, R, t, near) of a banded block from its populated states W alone, or None.

    W is the least number of lowest states, at most d/20, whose cut leaves
    mult*(d - |W|)*e^{-beta (E_cut - e0)} < CUT, with E_cut at least NEAR*omega
    above W's top; None where no such W exists.  e0 may exceed the ground
    energy, which only widens W; lb bounds the block's spectrum from below.
    W is read from the eigenvalues mu of the leading block of 4*(d/20) + 4
    columns, upper bounds on the block's own (Cauchy interlacing), and
    certified by _count_below: the whole band has |W| eigenvalues below
    sigma, the least energy the cut allows.  Where that or _states fails,
    mu is too loose (strong coupling spreads the low states over many Fock
    levels), and mu is taken from the whole band once instead.
    """
    d, most = ab.shape[1], ab.shape[1] // 20
    for k in (4 * most + 4, d):
        mu = scipy.linalg.eigvals_banded(ab[:, :k], lower=True, check_finite=False)[: most + 1]
        # the least energy of state j = 1 .. most for a cut below it to drop less than CUT
        floor = np.log(mult * (d - np.arange(1, most + 1)) / CUT) / beta
        if mu[most] <= min(e0, lb) + floor[-1]:
            return None  # even the bound on state `most` keeps weight, so |W| > most
        floor += min(e0, mu[0])
        cut = (mu[1:] > floor) & (mu[1:] >= mu[:-1] + NEAR * omega)
        w = np.argmax(cut) + 1
        sigma = max(floor[w - 1], mu[w - 1] + NEAR * omega)
        if (cut.any() and (k == d or _count_below(ab, k, sigma) == w)
                and (rec := _states(ab, jz, top, mu[:w], sigma, omega)) is not None):
            return rec
    return None


class Spectra(NamedTuple):
    """One solve's kept eigenstates: every parity block's, in one set of flat arrays."""

    mult: np.ndarray  # the sector multiplicity of each state
    E: np.ndarray  # energies, ascending within each block
    d1: np.ndarray  # diag M, M = V^T Jz V within the state's block
    r: np.ndarray  # sum_{j != i} M_ij^2
    R: np.ndarray  # sum_j M_ij^2 / (E_j - E_i) over the pairs j that are not near i
    t: np.ndarray  # the eigenvector's weight on the top Fock level n_max
    near: tuple  # (i, E_j - E_i, M_ij^2) of the pairs i < j of a block closer than NEAR*omega
    solver: dict  # parity blocks solved dense, by window and skipped, and states kept
    n_max: int  # the Fock cutoff solved at


def _sector_data(p: ProbeParams, n_max, sector="full", beta=None) -> Spectra:
    """The Spectra of every parity block, valid at every inverse temperature >= beta.

    The one entry into the solve: a beta that _kubo_prefactor refuses (0, nan, inf, or
    below ~1.1e-308, where 2/beta overflows), as a sector, cutoff or N that _blocks
    refuses, is refused before any block.  Each block is skipped, windowed or dense by
    the rule of the module docstring; at beta = None, the default, every block is dense.
    """
    kubo = None if beta is None else _kubo_prefactor(beta) * -np.expm1(-beta * NEAR * p.omega)
    nb = n_max + 1
    recs = []
    solver = dict.fromkeys(("dense", "window", "skipped", "states"), 0)
    e0, floor = np.inf, 0.0  # the least energy kept so far, >= the ground energy, and its floor
    for J, mult, k, rows, H in _blocks(p, n_max, sector):
        d, rec = len(rows), None
        m, n = rows // nb - J, rows % nb
        if beta is not None:
            with np.errstate(divide="ignore", over="ignore"):  # inf where floor = 0 or e0 = inf
                lb_skip = e0 + max(1.0, np.log(mult * d * p.N**2 / CUT) - np.log(floor)) / beta
            if d >= D_WINDOW or (p.epsilon * m + p.omega * n).min() > lb_skip:  # min H_ii >= lb
                ab, bm, bn = operators._parity_band(p, J, n_max, k)
                # Gershgorin: min_i H_ii - sum_{j != i} H_ij, as no H_ij < 0; ab[q, j] = H_{j+q, j}
                lb = (ab[0] - sum(ab[q] + np.r_[np.zeros(q), ab[q, : d - q]]
                                  for q in range(1, len(ab)))).min()
                if lb > lb_skip:
                    solver["skipped"] += 1
                    continue
                if len(ab) == 1:  # g = 0: H and Jz are diagonal, so r = R = 0 and no pair is near
                    o, z = np.argsort(ab[0], kind="stable"), np.zeros(d)
                    rec = (ab[0][o], bm[o], z, z, 1.0 * (bn[o] == n_max), (o[:0], z[:0], z[:0]))
                elif d >= D_WINDOW:
                    rec = _window(ab, bm, bn == n_max, mult, beta, e0, lb, p.omega)
        solver["dense" if rec is None else "window"] += 1
        if rec is None:
            E, V = eigendecompose(H()[np.ix_(rows, rows)])
            d1, M2, R, near = _pairs(E, V, m, p.omega)
            rec = (E, d1, M2.sum(axis=1), R, np.square(V[n == n_max]).sum(axis=0), near)
        E, d1, r, R, t, (i, gap, m2) = rec
        recs.append((np.full(len(E), mult), E, d1, r, R, t, i + solver["states"], gap, m2))
        solver["states"] += len(E)
        if beta is not None and E[0] < e0:  # kubo: (2/beta)(1 - e^{-beta NEAR omega})
            e0, floor = E[0], mult * max(0.0, min(r[0], kubo * R[0]))  # a window's R0 rounds
    mult, E, d1, r, R, t, i, gap, m2 = (np.concatenate(a) for a in zip(*recs))
    return Spectra(mult, E, d1, r, R, t, (i, gap, m2), solver, n_max)


def _combine(s: Spectra, beta):
    """Gibbs state at one beta from a solve's record, in O(states)."""
    kubo = _kubo_prefactor(beta)
    e0 = s.E.min()
    with np.errstate(over="ignore"):  # beta (E - e0) beyond the float range: weight 0
        w = s.mult * np.exp(-beta * (s.E - e0))
        zt = w.sum()
        lnz = np.log(zt) - beta * e0
    if not np.isfinite(lnz):
        raise NumericalDomainError(f"beta = {beta} too large: lnZ overflows a float")
    m1 = w @ s.d1 / zt
    diag = w @ (s.d1 - m1) ** 2
    varp = diag + w @ s.r
    with np.errstate(over="ignore"):  # at a tiny beta; an infinite Var_Kubo is refused below
        vark = diag + kubo * (w @ s.R)
        lost = np.finfo(float).eps * kubo * (w @ np.abs(s.R))  # a bound on its rounding
    i, gap, m2 = s.near
    if len(i):
        vark += 2 * m2 @ (w[i] * _phi(beta * gap))
    if not lost <= 1e-8 * vark < np.inf:  # the second-order sum cancels as beta -> 0
        raise NumericalDomainError(
            f"beta = {beta}: the Kubo sum's rounding bound {lost / zt:.2e} exceeds "
            f"1e-8 of Var_Kubo = {vark / zt:.2e}")
    return ThermalObservables(
        beta=beta, lnZ=lnz, mean_Jz=m1, mean_Jz2=varp / zt + m1 * m1,
        var_Jz=varp / zt, var_Jz_kubo=vark / zt, p_top=w @ s.t / zt,
    )


def thermal_observables(p: ProbeParams, beta, n_max, sector="full"):
    """Partition function and Jz moments of the composite Gibbs state."""
    return _combine(_sector_data(p, n_max, sector, beta), beta)


def djz_deps(p: ProbeParams, beta, n_max, sector="full"):
    """d<Jz>/d eps = -beta Var_Kubo(Jz), exact static linear response."""
    return -beta * thermal_observables(p, beta, n_max, sector).var_Jz_kubo


def _point(p: ProbeParams, spectra: Spectra, beta, noise) -> SnrPoint:
    """SnrPoint at one beta from a solve's record, with the cutoff verdict of that solve:
    S = |d<Jz>/d eps|^2 / Var(Jz), d<Jz>/d eps = -beta Var_Kubo."""
    obs = _combine(spectra, beta)
    projective = noise == "projective" or (noise == "auto" and p.N == 1)
    var = obs.var_Jz if projective else obs.var_Jz_kubo
    if var < 1e-14 * p.N**2:
        raise NumericalDomainError(
            f"variance {var:.3e} degenerate (T -> 0 with a pure Jz eigenstate)"
        )
    slope = -beta * obs.var_Jz_kubo
    return SnrPoint(beta=beta, snr=slope * slope / var,
                    snr_weak=weak_snr(p.N, p.epsilon, beta).snr, n_max=spectra.n_max,
                    p_top=obs.p_top, solver=spectra.solver)


def snr_exact(p: ProbeParams, beta, n_max=128, noise="auto", sector="full"):
    """Exact SNR S = |d<Jz>/d eps|^2 / noise at one parameter point.

    `noise` selects the variance channel and `sector` the spin sectors summed (see
    module docstring); any other value is a ParameterError.  Returns SnrPoint(beta,
    snr, snr_weak, n_max, p_top, solver): snr_weak is the closed-form g = 0 value,
    p_top the top Fock level's population and solver how the blocks were solved.
    """
    _check_choice(noise, NOISE_CHANNELS, "noise")
    return _point(p, _sector_data(p, n_max, sector, beta), beta, noise)


def converge_nmax(p: ProbeParams, beta, noise="auto", sector="full") -> SnrPoint:
    """The SnrPoint of the first accepted n_max in a doubling sequence.

    That is the first cutoff from NMAX_START at which the fitted truncation
    estimate TOP_C * p_top is below REL_TOL (cutoff_converged); S is formed
    at it alone.  The first cutoff is refused as any solve at it would be; the
    doubling stops at NMAX_CAP, or at a later cutoff the solve refuses (its
    largest sector over operators.DIM_CAP), with a ConvergenceError.
    """
    _check_choice(noise, NOISE_CHANNELS, "noise")
    n = NMAX_START
    while n <= NMAX_CAP:
        try:
            spectra = _sector_data(p, n, sector, beta)
        except NumericalDomainError:
            if n == NMAX_START:
                raise
            break
        if cutoff_converged(_combine(spectra, beta).p_top):  # O(states), beside the solve
            return _point(p, spectra, beta, noise)
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
    copies = [(J, int(mult), rho / total) for J, (mult, rho) in blocks.items()]
    labels = [(J, c) for J, mult, _ in copies for c in range(mult)]
    return scipy.linalg.block_diag(*(rho for _, mult, rho in copies for _ in range(mult))), labels
