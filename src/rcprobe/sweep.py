"""Config-driven parameter sweeps with deterministic CSV/JSON emission.

Config files are flat `key = value` text with `#` comments and a mandatory
`schema_version`.  Unknown keys warn; missing or ill-typed required keys
raise ConfigError with the offending field.  Exactly one grid axis is swept
per config; all energies are interpreted in units of omega = 1.

Recognized keys:

  schema_version   must be 1
  model            rabi_exact | grwa | dicke | weak
  N                spin count, a positive integer (rabi_exact/grwa/weak)
  epsilon, g       probe splitting and coupling, units of omega (g: not dicke)
  gbar             intensive Dicke coupling, units of omega (dicke, which
                   rejects g and the g_over_omega axis)
  grid_axis        beta_omega | g_over_omega | epsilon_over_omega | gbar_over_omega | N
  grid_values      comma list, or grid_start/grid_stop/grid_points (+ grid_scale),
                   grid_points at most MAX_GRID_POINTS
  beta_omega       fixed inverse temperature when another axis is swept;
                   it and every beta_omega grid value must be finite, > 0
  sector           full | maximal
  noise            auto | projective | susceptibility
  n_max            Fock cutoff (rabi_exact/grwa); "auto" converges per point.
                   converged: the fitted truncation estimate TOP_C * p_top
                   at the row's n_max is below 1e-6 (p_top the Gibbs
                   population of the top Fock level); an auto row takes the
                   first cutoff in 16, 32, 64, ... that passes this test

A fixed-cutoff rabi_exact sweep along beta_omega has one Hamiltonian: it is
solved once, at the cutoff and the grid's least beta_omega (a block record
made for one beta serves every larger one), before the rows are evaluated,
and every row's temperature and verdict are read from those spectra.
Along any other axis each row solves its own Hamiltonian, so under
jobs > 1 the solves run concurrently; n_max = "auto" rows run the doubling
loop per point.

Output rows carry the fixed column set
grid_value, beta_omega, snr, snr_weak, delta_snr, n_max, converged, phase, eta
(phase/eta blank outside the dicke model).
"""

import csv
import io
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baseline import weak_snr
from .dicke import DickeParams, dicke_solution
from .errors import ConfigError, NumericalDomainError, ParameterError, RcprobeError
from .grwa import asymptotic_snr, ground_energy_derivs
from .operators import ProbeParams
from .thermal import NOISE_CHANNELS, SECTORS, SnrPoint, _point, _sector_data, converge_nmax

COLUMNS = (
    "grid_value",
    "beta_omega",
    "snr",
    "snr_weak",
    "delta_snr",
    "n_max",
    "converged",
    "phase",
    "eta",
)

# the most points a grid_start/grid_stop/grid_points grid may ask for; the shipped
# figures use at most 120
MAX_GRID_POINTS = 100_000

# grid axis -> the SweepConfig number it sets; those numbers are also config keys
_AXES = {"beta_omega": "beta_omega", "g_over_omega": "g", "epsilon_over_omega": "epsilon",
         "gbar_over_omega": "gbar", "N": "N"}
# keys with a fixed set of values; sector and noise default to their first
_CHOICES = {
    "model": ("rabi_exact", "grwa", "dicke", "weak"),
    "grid_axis": tuple(_AXES),
    "sector": SECTORS,
    "noise": NOISE_CHANNELS,
}
_KNOWN_KEYS = {
    "schema_version", "grid_values", "grid_start", "grid_stop", "grid_points", "grid_scale",
    "n_max", *_CHOICES, *_AXES.values(),
}


@dataclass(frozen=True)
class SweepConfig:
    model: str
    grid_axis: str
    grid: tuple
    N: int = 1
    epsilon: float = 1.0
    g: float = 0.0
    gbar: float = 0.0
    beta_omega: float = 10.0
    sector: str = SECTORS[0]
    noise: str = NOISE_CHANNELS[0]
    n_max: int | str = 64


def _positive_int(v, field, key=None):
    """v as an int; a ConfigError on `field` (naming `key` if given) unless v >= 1 is whole."""
    if not (v >= 1 and v.is_integer()):  # false for nan and inf too
        name = f"{key} " if key else ""
        raise ConfigError(f"{name}must be a positive integer, got {v!r}", field=field)
    return int(v)


def parse_config_text(text) -> SweepConfig:
    """Parse the flat key-value config format into a validated SweepConfig."""
    kv = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if k in kv:
            raise ConfigError("duplicate key", field=k)
        kv[k] = v
    for k in kv:
        if k not in _KNOWN_KEYS:
            warnings.warn(f"unknown config key {k!r} ignored", stacklevel=2)

    def req(key):
        if key not in kv:
            raise ConfigError("required key missing", field=key)
        return kv[key]

    def fnum(key):
        try:
            return float(kv[key])
        except ValueError as exc:
            raise ConfigError(f"not a number: {kv[key]!r}", field=key) from exc

    if req("schema_version") != "1":
        raise ConfigError(f"unsupported schema_version {kv['schema_version']!r}",
                          field="schema_version")
    choice = {}
    for key, allowed in _CHOICES.items():
        choice[key] = kv.get(key, allowed[0]) if key in ("sector", "noise") else req(key)
        if choice[key] not in allowed:
            raise ConfigError(f"must be one of {allowed}, got {choice[key]!r}", field=key)
    axis = choice["grid_axis"]

    if "grid_values" in kv:
        try:
            grid = tuple(float(s) for s in kv["grid_values"].split(","))
        except ValueError as exc:
            raise ConfigError("bad number in list", field="grid_values") from exc
    else:
        if not {"grid_start", "grid_stop", "grid_points"} <= kv.keys():
            raise ConfigError("need grid_values or grid_start/grid_stop/grid_points",
                              field="grid_values")
        # grid_points, like grid_values, defines the grid: its errors carry that field
        a, b = fnum("grid_start"), fnum("grid_stop")
        npts = _positive_int(fnum("grid_points"), "grid_values", "grid_points")
        if npts > MAX_GRID_POINTS:
            raise ConfigError(f"grid_points must be <= {MAX_GRID_POINTS}, got {npts}",
                              field="grid_values")
        scale = kv.get("grid_scale", "linear")
        spacing = {"linear": np.linspace, "log": np.geomspace}.get(scale)
        if spacing is None:
            raise ConfigError(f"must be linear|log, got {scale!r}", field="grid_scale")
        try:
            grid = tuple(float(v) for v in spacing(a, b, npts))
        except ValueError as exc:  # a log scale through 0
            raise ConfigError(str(exc), field="grid_values") from exc
    if not grid:
        raise ConfigError("grid is empty", field="grid_values")
    if axis == "beta_omega" and not all(0 < v < np.inf for v in grid):
        raise ConfigError("beta_omega values must be finite and > 0", field="grid_values")
    if axis == "N":
        for v in grid:
            _positive_int(v, "grid_values")

    if choice["model"] == "dicke":
        # the Dicke limit reads only the intensive gbar; a g would be silently ignored
        if "g" in kv:
            raise ConfigError("the dicke model takes the intensive gbar, not g", field="g")
        if axis == "g_over_omega":
            raise ConfigError("the dicke model sweeps gbar_over_omega, not g_over_omega",
                              field="grid_axis")
        if "gbar" not in kv and axis != "gbar_over_omega":
            raise ConfigError("required for the dicke model", field="gbar")

    n_max = kv.get("n_max", "64")
    if n_max != "auto":
        try:
            n_max = int(n_max)
        except ValueError as exc:
            raise ConfigError(f"must be an integer or 'auto', got {n_max!r}",
                              field="n_max") from exc
        if n_max < 1:
            raise ConfigError("must be >= 1", field="n_max")

    nums = {key: fnum(key) for key in _AXES.values() if key in kv}
    if "N" in nums:
        nums["N"] = _positive_int(nums["N"], "N")
    cfg = SweepConfig(grid=grid, n_max=n_max, **choice, **nums)
    if not 0 < cfg.beta_omega < np.inf:
        raise ConfigError(f"must be finite and > 0, got {cfg.beta_omega}", field="beta_omega")
    return cfg


def _point_params(cfg: SweepConfig, x):
    """(ProbeParams-or-DickeParams, beta) at one grid value."""
    v = vars(cfg) | {_AXES[cfg.grid_axis]: x}
    if cfg.model == "dicke":
        p = DickeParams(epsilon=v["epsilon"], omega=1.0, gbar=v["gbar"], N=int(v["N"]))
    else:
        p = ProbeParams(N=int(v["N"]), epsilon=v["epsilon"], omega=1.0, g=v["g"])
    return p, v["beta_omega"]


def _row(cfg: SweepConfig, x, spectra=None):
    """One output row, read from one SnrPoint.  `spectra` is the shared solve of a fixed-cutoff
    beta sweep; a point that raises RcprobeError gives NaN values and p_top, so converged false."""
    p, beta = _point_params(cfg, x)
    phase = eta = ""
    fixed = cfg.model == "rabi_exact" and cfg.n_max != "auto"
    try:
        if cfg.model == "weak":
            sw = weak_snr(p.N, p.epsilon, beta).snr
            pt = SnrPoint(beta, sw, sw)
        elif cfg.model == "dicke":
            sol = dicke_solution(p, beta)
            pt, phase, eta = SnrPoint(beta, sol.snr, sol.snr_weak), sol.phase, sol.eta
        elif cfg.model == "grwa":
            s = asymptotic_snr(p.N, ground_energy_derivs(p.N, p.epsilon, 1.0, p.g), beta)
            pt = SnrPoint(beta, s, weak_snr(p.N, p.epsilon, beta).snr)
        else:  # a fixed cutoff, or the first converged one of the doubling loop
            pt = (_point(p, spectra or _sector_data(p, cfg.n_max, cfg.sector, beta), beta,
                         cfg.noise) if fixed else converge_nmax(p, beta, cfg.noise, cfg.sector))
    except RcprobeError:  # a fixed-cutoff row keeps its cutoff
        pt = SnrPoint(beta, np.nan, np.nan, cfg.n_max if fixed else 0, np.nan)
    return {
        "grid_value": x, "beta_omega": beta, "snr": pt.snr, "snr_weak": pt.snr_weak,
        "delta_snr": pt.snr - pt.snr_weak, "n_max": pt.n_max, "converged": pt.converged,
        "phase": phase, "eta": eta,
    }


def run_sweep(cfg: SweepConfig, jobs=1):
    """Evaluate every grid point on `jobs` >= 1 threads; rows sorted by grid value."""
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    xs = sorted(cfg.grid)
    spectra = None
    if cfg.model == "rabi_exact" and cfg.n_max != "auto" and cfg.grid_axis == "beta_omega":
        # a fixed-cutoff beta sweep: one Hamiltonian for every row, solved for the
        # least beta, so that it serves every row
        try:
            p, beta = _point_params(cfg, xs[0])
            spectra = _sector_data(p, cfg.n_max, cfg.sector, beta)
        except RcprobeError:
            pass  # each row repeats the solve and fails on its own
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda x: _row(cfg, x, spectra), xs))
    return [_row(cfg, x, spectra) for x in xs]


@dataclass(frozen=True)
class ScalingFit:
    theta: float
    stderr: float
    window: tuple
    r_squared: float


def fit_scaling(rows, window) -> ScalingFit:
    """Least-squares exponent theta of S ~ T^theta over a beta*omega window.

    Since T = 1/(beta*omega) in model units, theta = -d ln S / d ln(beta*omega).
    """
    lo, hi = window
    pts = [
        r for r in rows
        if lo <= r["beta_omega"] <= hi and r["converged"]
        and np.isfinite(r["snr"]) and r["snr"] > 0
    ]
    if len(pts) < 5:
        raise NumericalDomainError(
            f"need >= 5 converged points in window {window}, found {len(pts)}"
        )
    x = -np.log([r["beta_omega"] for r in pts])  # = ln T + const
    y = np.log([r["snr"] for r in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    theta = coef[0]
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    dof = len(pts) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(ss_res / dof / sxx)) if dof > 0 and sxx > 0 else float("nan")
    return ScalingFit(theta=float(theta), stderr=stderr, window=(lo, hi), r_squared=r2)


def emit_csv(rows):
    """The CSV text of rows, with the fixed column set."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        out = dict(r)
        out["converged"] = "true" if r["converged"] else "false"
        w.writerow({k: _fmt(out[k]) for k in COLUMNS})
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def parse_csv(text):
    """Inverse of emit_csv: round-trips all row values."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append({
            "grid_value": float(rec["grid_value"]),
            "beta_omega": float(rec["beta_omega"]),
            "snr": float(rec["snr"]),
            "snr_weak": float(rec["snr_weak"]),
            "delta_snr": float(rec["delta_snr"]),
            "n_max": int(rec["n_max"]),
            "converged": rec["converged"] == "true",
            "phase": rec["phase"],
            "eta": float(rec["eta"]) if rec["eta"] else "",
        })
    return rows
