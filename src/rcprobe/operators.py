"""Collective-spin and truncated-boson operators, and the probe+mode Hamiltonian.

All matrices are real, and dense but for the Fock-slow band of one parity
block (_parity_band).  In the chosen basis the Hamiltonian H = eps*Jz +
omega*n + g*Jx*(a^dag + a) is real symmetric, so complex arithmetic is
never needed; Jy is only ever handed out through its real antisymmetric
representation.

Composite basis ordering: spin index slow, Fock index fast, i.e. the
composite state |m, n> sits at row (m + J)*(n_max + 1) + n.
"""

from dataclasses import dataclass, field
from math import comb, isfinite

import numpy as np

from .errors import NumericalDomainError, ParameterError

# largest composite sector dimension a dense solve is allowed to build
DIM_CAP = 20000


@dataclass(frozen=True)
class ProbeParams:
    """Physical parameters of the probe coupled to the extracted bath mode.

    N        number of spin-1/2 constituents
    epsilon  probe level splitting (angular-frequency units, finite, >= 0)
    omega    frequency of the extracted collective mode (finite, > 0)
    g        probe-mode coupling (finite, >= 0)
    """

    N: int
    epsilon: float
    omega: float
    g: float

    def __post_init__(self):
        if self.N < 1 or int(self.N) != self.N:
            raise ParameterError(f"N must be a positive integer, got {self.N}")
        if not (isfinite(self.epsilon) and isfinite(self.omega) and isfinite(self.g)):
            raise ParameterError(f"epsilon, omega and g must be finite, got "
                                 f"{self.epsilon}, {self.omega}, {self.g}")
        if self.omega <= 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if self.epsilon < 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.g < 0:
            raise ParameterError(f"g must be >= 0, got {self.g}")


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense real operator."""

    entries: np.ndarray

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class SectorDecomposition:
    """Total-spin sectors (J, multiplicity) of N spin-1/2 particles."""

    N: int
    sectors: tuple = field(default_factory=tuple)  # ((J, multiplicity), ...)

    def total_dimension(self):
        return sum(m * int(round(2 * J + 1)) for J, m in self.sectors)


def _check_half_integer(J):
    twoJ = 2 * J
    if twoJ < 0 or abs(twoJ - round(twoJ)) > 1e-12:
        raise NumericalDomainError(f"J must be a nonnegative half-integer, got {J}")
    return int(round(twoJ))


def _spin_ladder(J):
    """m = -J ... J ascending, and the ladder amplitudes <m+1| J+ |m>."""
    m = -J + np.arange(_check_half_integer(J) + 1)
    return m, np.sqrt(J * (J + 1) - m[:-1] * (m[:-1] + 1))


def spin_operators(J):
    """Return (Jx, B, Jz) in the |J, m> basis, m = -J ... J.

    Jz is diagonal, Jx real symmetric with the standard ladder elements.
    B is the real antisymmetric matrix representing Jy through Jy = -iB,
    so that Jx @ B - B @ Jx = -Jz.
    """
    m, c = _spin_ladder(J)
    Jz = np.diag(m)
    Jx = 0.5 * (np.diag(c, -1) + np.diag(c, 1))
    B = 0.5 * (np.diag(c, -1) - np.diag(c, 1))
    return OperatorMatrix(Jx), OperatorMatrix(B), OperatorMatrix(Jz)


def sector_multiplicities(N):
    """Decompose the 2^N product space into total-spin sectors.

    multiplicity(J) = C(N, N/2 - J) - C(N, N/2 - J - 1); the identity
    sum_J mult(J) * (2J + 1) == 2^N holds exactly.
    """
    if N < 1 or int(N) != N:
        raise NumericalDomainError(f"N must be a positive integer, got {N}")
    N = int(N)
    sectors = []
    twoJ = N
    while twoJ >= 0:
        k = (N - twoJ) // 2
        mult = comb(N, k) - (comb(N, k - 1) if k >= 1 else 0)
        sectors.append((twoJ / 2, mult))
        twoJ -= 2
    dec = SectorDecomposition(N, tuple(sectors))
    assert dec.total_dimension() == 2**N
    return dec


def boson_operators(n_max):
    """Return (a^dag + a, a^dag a) truncated at Fock occupation n_max."""
    if n_max < 1 or int(n_max) != n_max:
        raise NumericalDomainError(f"n_max must be a positive integer, got {n_max}")
    nb = int(n_max) + 1
    off = np.sqrt(np.arange(1, nb))
    x = np.diag(off, 1) + np.diag(off, -1)
    num = np.diag(np.arange(nb, dtype=float))
    return OperatorMatrix(x), OperatorMatrix(num)


def _check_sector(p: ProbeParams, J, n_max):
    """(2J + 1, n_max + 1) of sector J, checked against N, the cutoff and DIM_CAP."""
    twoJ = _check_half_integer(J)
    if J > p.N / 2 + 1e-12:
        raise NumericalDomainError(f"J={J} exceeds N/2={p.N / 2}")
    if n_max < 1 or int(n_max) != n_max:
        raise NumericalDomainError(f"n_max must be a positive integer, got {n_max}")
    ds, nb = twoJ + 1, int(n_max) + 1
    if ds * nb > DIM_CAP:
        raise NumericalDomainError(f"composite dimension {ds * nb} exceeds cap {DIM_CAP}")
    return ds, nb


def build_mapped_hamiltonian(p: ProbeParams, J, n_max):
    """H = eps*Jz x 1 + omega*1 x n + g*Jx x (a^dag + a), real symmetric.

    Filled band by band: the diagonal eps*m + omega*n, and the coupling
    g*(c_m/2)*sqrt(n+1) between |m, n> and |m+1, n+-1> (c_m the ladder
    amplitude), plus its transpose.  Every coupling moves m and n by one
    each, so the parity (-1)^{(m+J)+n} is conserved.
    """
    ds, nb = _check_sector(p, J, n_max)
    dim = ds * nb
    m, c = _spin_ladder(J)
    H = np.zeros((dim, dim))
    H.flat[:: dim + 1] = np.add.outer(p.epsilon * m, p.omega * np.arange(nb)).ravel()
    # |m, n> sits at row (m + J)*nb + n; `lo` is that row for m < J and n < n_max
    lo = (np.arange(ds - 1)[:, None] * nb + np.arange(nb - 1)).ravel()
    band = p.g * np.outer(0.5 * c, np.sqrt(np.arange(1, nb))).ravel()
    for r, k in ((lo + nb + 1, lo), (lo + nb, lo + 1)):  # <m+1, n+1|, <m+1, n|
        H[r, k] = H[k, r] = band
    return OperatorMatrix(H)


def _parity_band(p: ProbeParams, J, n_max, k):
    """(ab, m, n): parity block k of sector J, its states |m, n> of (m + J) + n = k mod 2
    ordered by n*(2J + 1) + m + J, in LAPACK lower band storage with trailing zero diagonals
    dropped (b <= J + 1, 0 at g = 0); each entry is build_mapped_hamiltonian's expression."""
    ds, nb = _check_sector(p, J, n_max)
    m, c = _spin_ladder(J)
    n, i = np.divmod(np.arange(ds * nb), ds)  # state n*ds + i is |m, n>, i = m + J
    keep = (i + n) % 2 == k
    col = np.cumsum(keep) - 1  # each kept state's column in the block
    lo = np.flatnonzero((i < ds - 1) & (n < nb - 1))  # m < J and n < n_max
    band = np.tile(p.g * (0.5 * c[i[lo]] * np.sqrt(n[lo] + 1)), 2)
    # <m+1, n+1|H|m, n> and <m, n+1|H|m+1, n>, each bra after its ket in this order
    ket, bra = np.r_[lo, lo + 1], np.r_[lo + ds + 1, lo + ds]
    on = keep[ket] & (band != 0)
    q = col[bra[on]] - col[ket[on]]
    ab = np.zeros((q.max(initial=0) + 1, keep.sum()))
    ab[0] = (p.epsilon * m[i] + p.omega * n)[keep]
    ab[q, col[ket[on]]] = band[on]
    return ab, m[i[keep]], n[keep]
