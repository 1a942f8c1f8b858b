"""Config-driven parameter sweeps with deterministic CSV/JSON emission.

Config files are flat `key = value` text with `#` comments and a mandatory
`schema_version`.  Unknown keys warn; missing or ill-typed required keys
raise ConfigError with the offending field.  Exactly one grid axis is swept
per config; all energies are interpreted in units of omega = 1.

Recognized keys:

  schema_version   must be 1
  model            rabi_exact | grwa | dicke | weak
  N                spin count (rabi_exact/grwa/weak)
  epsilon, g       probe splitting and coupling, units of omega
  gbar             intensive Dicke coupling, units of omega (dicke)
  grid_axis        beta_omega | g_over_omega | epsilon_over_omega | gbar_over_omega | N
  grid_values      comma list, or grid_start/grid_stop/grid_points (+ grid_scale)
  beta_omega       fixed inverse temperature when another axis is swept;
                   it and every beta_omega grid value must be finite, > 0
  convention       difference | per_spin   (delta_snr convention)
  sector           full | maximal
  noise            auto | projective | susceptibility
  n_max            Fock cutoff (rabi_exact/grwa); "auto" converges per point.
                   converged: the fitted truncation estimate TOP_C * p_top
                   at the row's n_max is below 1e-6 (p_top the Gibbs
                   population of the top Fock level); an auto row takes the
                   first cutoff in 16, 32, 64, ... that passes this test

A fixed-cutoff rabi_exact sweep diagonalizes each distinct Hamiltonian once,
at its cutoff, and evaluates every row's temperature and verdict from those
spectra; n_max = "auto" rows run the doubling loop per point.

Output rows carry the fixed column set
grid_value, beta_omega, snr, snr_weak, delta_snr, n_max, converged, phase, eta
(phase/eta blank outside the dicke model).
"""

import csv
import io
import json
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baseline import weak_snr
from .dicke import DickeParams, dicke_solution
from .errors import ConfigError, NumericalDomainError, RcprobeError
from .grwa import asymptotic_snr, ground_energy_derivs
from .operators import ProbeParams
from .thermal import _combine, _sector_data, _snr, converge_nmax, cutoff_converged

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

_MODELS = ("rabi_exact", "grwa", "dicke", "weak")
_AXES = ("beta_omega", "g_over_omega", "epsilon_over_omega", "gbar_over_omega", "N")

_KNOWN_KEYS = {
    "schema_version", "model", "N", "epsilon", "g", "gbar", "grid_axis",
    "grid_values", "grid_start", "grid_stop", "grid_points", "grid_scale",
    "beta_omega", "convention", "sector", "noise", "n_max",
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
    convention: str = "difference"
    sector: str = "full"
    noise: str = "auto"
    n_max: int | str = 64


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

    def fnum(key, default=None):
        if key not in kv:
            return default
        try:
            return float(kv[key])
        except ValueError as exc:
            raise ConfigError(f"not a number: {kv[key]!r}", field=key) from exc

    if req("schema_version") != "1":
        raise ConfigError(f"unsupported schema_version {kv['schema_version']!r}",
                          field="schema_version")
    model = req("model")
    if model not in _MODELS:
        raise ConfigError(f"must be one of {_MODELS}, got {model!r}", field="model")
    axis = req("grid_axis")
    if axis not in _AXES:
        raise ConfigError(f"must be one of {_AXES}, got {axis!r}", field="grid_axis")

    if "grid_values" in kv:
        try:
            grid = tuple(float(s) for s in kv["grid_values"].split(","))
        except ValueError as exc:
            raise ConfigError("bad number in list", field="grid_values") from exc
    else:
        a, b = fnum("grid_start"), fnum("grid_stop")
        npts = fnum("grid_points")
        if a is None or b is None or npts is None:
            raise ConfigError("need grid_values or grid_start/grid_stop/grid_points",
                              field="grid_values")
        scale = kv.get("grid_scale", "linear")
        spacing = {"linear": np.linspace, "log": np.geomspace}.get(scale)
        if spacing is None:
            raise ConfigError(f"must be linear|log, got {scale!r}", field="grid_scale")
        try:
            grid = tuple(float(v) for v in spacing(a, b, int(npts)))
        except ValueError as exc:  # grid_points < 0, or a log scale through 0
            raise ConfigError(str(exc), field="grid_values") from exc
    if not grid:
        raise ConfigError("grid is empty", field="grid_values")
    if axis == "beta_omega" and not all(0 < v < np.inf for v in grid):
        raise ConfigError("beta_omega values must be finite and > 0", field="grid_values")

    if model == "dicke":
        if "g" in kv and "N" not in kv:
            raise ConfigError("dicke model takes gbar (intensive); "
                              "a per-spin g requires N", field="g")
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

    cfg = SweepConfig(
        model=model,
        grid_axis=axis,
        grid=grid,
        N=int(fnum("N", 1)),
        epsilon=fnum("epsilon", 1.0),
        g=fnum("g", 0.0),
        gbar=fnum("gbar", 0.0),
        beta_omega=fnum("beta_omega", 10.0),
        convention=kv.get("convention", "difference"),
        sector=kv.get("sector", "full"),
        noise=kv.get("noise", "auto"),
        n_max=n_max,
    )
    for field, val, allowed in (
        ("convention", cfg.convention, ("difference", "per_spin")),
        ("sector", cfg.sector, ("full", "maximal")),
        ("noise", cfg.noise, ("auto", "projective", "susceptibility")),
    ):
        if val not in allowed:
            raise ConfigError(f"must be one of {allowed}, got {val!r}", field=field)
    if cfg.N < 1:
        raise ConfigError("must be >= 1", field="N")
    if not 0 < cfg.beta_omega < np.inf:
        raise ConfigError(f"must be finite and > 0, got {cfg.beta_omega}", field="beta_omega")
    return cfg


def load_config(path) -> SweepConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _point_params(cfg: SweepConfig, x):
    """(ProbeParams-or-DickeParams, beta) at one grid value."""
    axis = cfg.grid_axis
    beta = x if axis == "beta_omega" else cfg.beta_omega
    if cfg.model == "dicke":
        p = DickeParams(
            epsilon=x if axis == "epsilon_over_omega" else cfg.epsilon,
            omega=1.0,
            gbar=x if axis == "gbar_over_omega" else cfg.gbar,
            N=int(x) if axis == "N" else cfg.N,
        )
    else:
        p = ProbeParams(
            N=int(x) if axis == "N" else cfg.N,
            epsilon=x if axis == "epsilon_over_omega" else cfg.epsilon,
            omega=1.0,
            g=x if axis == "g_over_omega" else cfg.g,
        )
    return p, beta


def _row(cfg: SweepConfig, x, spectra):
    p, beta = _point_params(cfg, x)
    phase = eta = ""
    n_used = 0
    converged = True
    try:
        if cfg.model == "weak":
            wr = weak_snr(p.N, p.epsilon, beta)
            snr = sw = wr.snr
        elif cfg.model == "dicke":
            sol = dicke_solution(p, beta)
            snr, sw = sol.snr, sol.snr_weak
            phase, eta = sol.phase, sol.eta
        elif cfg.model == "grwa":
            derivs = ground_energy_derivs(p.N, p.epsilon, 1.0, p.g)
            snr = asymptotic_snr(p.N, derivs, beta)
            sw = weak_snr(p.N, p.epsilon, beta).snr
        elif cfg.n_max == "auto":  # rabi_exact; the loop accepts only a converged cutoff
            n_used, snr = converge_nmax(p, beta, noise=cfg.noise, sector=cfg.sector)
            sw = weak_snr(p.N, p.epsilon, beta).snr
        else:  # rabi_exact at a fixed cutoff, judged by its top level's population
            n_used = cfg.n_max
            obs = _combine(spectra(p), beta)
            snr = _snr(p, obs, cfg.noise)
            converged = cutoff_converged(obs.p_top)
            sw = weak_snr(p.N, p.epsilon, beta).snr
    except RcprobeError:
        return {
            "grid_value": x, "beta_omega": beta, "snr": float("nan"),
            "snr_weak": float("nan"), "delta_snr": float("nan"),
            "n_max": n_used, "converged": False, "phase": phase, "eta": eta,
        }
    delta = snr - sw
    if cfg.convention == "per_spin":
        delta /= p.N
    return {
        "grid_value": x, "beta_omega": beta, "snr": snr, "snr_weak": sw,
        "delta_snr": delta, "n_max": n_used, "converged": converged,
        "phase": phase, "eta": eta,
    }


def run_sweep(cfg: SweepConfig, jobs=1):
    """Evaluate every grid point; rows sorted by grid value."""
    xs = sorted(cfg.grid)
    # spectra of the last ProbeParams at the config's cutoff, kept for this call only
    cache, lock = {}, threading.Lock()

    def spectra(p):
        with lock:  # one solve per ProbeParams, also under jobs > 1
            if p not in cache:
                data = _sector_data(p, cfg.n_max, cfg.sector)  # an RcprobeError stores nothing
                cache.clear()
                cache[p] = data
            return cache[p]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda x: _row(cfg, x, spectra), xs))
    else:
        rows = [_row(cfg, x, spectra) for x in xs]
    return rows


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


def emit_csv(rows, stream=None):
    """Write rows with the fixed column set; returns the CSV text."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        out = dict(r)
        out["converged"] = "true" if r["converged"] else "false"
        w.writerow({k: _fmt(out[k]) for k in COLUMNS})
    text = buf.getvalue()
    if stream is not None:
        stream.write(text)
    return text


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


def emit_json(rows):
    return json.dumps(rows, indent=2)
