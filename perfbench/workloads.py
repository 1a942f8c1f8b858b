"""The benchmark's four workloads: seeded inputs, one pass, and the correctness gate.

Each workload is built once per process from the seed (`setup`), then runs
any number of passes.  A pass gets `rc`, a namespace of freshly imported
rcprobe modules, and calls only rcprobe's public functions.  `check` runs
outside the timed region and returns one failure record per failed point;
a point fails if it raised, if its result is not finite, or if it is
outside the tolerance of the reference values in `reference/`, which
`record_reference.py` wrote at the seed commit.  No point is ever
redrawn, dropped or resized because it fails.
"""

import json
import math
import pathlib
import random

import numpy as np

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"

EXACT_FIGURES = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "figS0")
ANALYTIC_FIGURES = ("fig3a", "fig3b", "figS1", "figS2")

# Relative tolerances of the gate.  Replacing the finite-difference slope by
# the exact identity d<Jz>/deps = -beta Var_Kubo moves S by about 1e-8
# (5e-9 on the slope at the large point), well inside RTOL_FIXED, while a
# wrong answer moves it by far more.  With n_max = "auto", converge_nmax
# stops at a 1e-6 relative change, so such a perturbation can settle one
# doubling away and shift S by up to that much: hence RTOL_AUTO.  The
# closed-form limits do not depend on the exact engine.
RTOL_FIXED = 1e-6
RTOL_AUTO = 1e-5
RTOL_ANALYTIC = 1e-9
RTOL_RCMAP = 1e-6
RTOL_IDENTITY = 1e-6

# Lab constants (2019 SI, exact), for an independent check of convert_units.
K_B = 1.380649e-23
H_PLANCK = 6.62607015e-34

# `rcprobe map-spectral` defaults: gamma, g, omega0, cutoff ratios, grid, tol.
RCMAP_GAMMA, RCMAP_G, RCMAP_OMEGA0 = 0.05, 0.5, 1.0
RCMAP_RATIOS = (1e2, 1e3, 1e4)
RCMAP_GRID = np.linspace(0.1, 3.0, 12)
RCMAP_TOL = 1e-10

LARGE_POINT = {"N": 10, "epsilon": 1.0, "omega": 1.0, "g": 0.2, "beta_omega": 20.0,
               "n_max": 128, "noise": "auto", "sector": "full"}


def load_reference(name):
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def plain_row(row):
    """A sweep row with numpy scalars turned into JSON-safe Python values."""
    out = {}
    for k, v in row.items():
        if k == "converged":
            out[k] = bool(v)
        elif k == "n_max":
            out[k] = int(v)
        elif k == "phase":
            out[k] = str(v)
        elif k == "eta" and v == "":
            out[k] = ""
        else:
            out[k] = float(v)
    return out


def _close(value, ref, rtol, scale=0.0):
    return math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), scale)


def _row_failure(row, ref, rtol):
    """Why `row` disagrees with its reference row, or None."""
    for key in ("grid_value", "beta_omega"):
        if row[key] != ref[key]:
            return f"{key} {row[key]!r} != reference {ref[key]!r}"
    if not _close(row["snr"], ref["snr"], rtol):
        return f"snr {row['snr']!r} vs reference {ref['snr']!r}"
    if not _close(row["snr_weak"], ref["snr_weak"], RTOL_ANALYTIC):
        return f"snr_weak {row['snr_weak']!r} vs reference {ref['snr_weak']!r}"
    # delta_snr = snr - snr_weak inherits the absolute error of snr
    if not _close(row["delta_snr"], ref["delta_snr"], rtol, abs(ref["snr"])):
        return f"delta_snr {row['delta_snr']!r} vs reference {ref['delta_snr']!r}"
    if row["phase"] != ref["phase"]:
        return f"phase {row['phase']!r} != reference {ref['phase']!r}"
    if ref["eta"] != "" and not _close(row["eta"], ref["eta"], RTOL_ANALYTIC):
        return f"eta {row['eta']!r} vs reference {ref['eta']!r}"
    return None


def compare_rows(label, rows, ref_rows, rtol, inputs=None):
    """Failure records for one config's rows (or the exception it raised)."""
    def fail(x, reason):
        rec = {"config": label, "grid_value": x, "reason": reason}
        if inputs:
            rec["inputs"] = inputs
        return rec

    if isinstance(rows, BaseException):
        return [fail(r["grid_value"], f"raised {rows!r}") for r in ref_rows]
    failures = []
    for k, ref in enumerate(ref_rows):
        if k >= len(rows):
            failures.append(fail(ref["grid_value"], "row missing"))
            continue
        reason = _row_failure(plain_row(rows[k]), ref, rtol)
        if reason:
            failures.append(fail(ref["grid_value"], reason))
    failures += [fail(float(r["grid_value"]), "unexpected extra row") for r in rows[len(ref_rows):]]
    return failures


def _sweep_text(rc, text, jobs):
    """One config as `rcprobe sweep` runs it: parse, evaluate, emit CSV."""
    cfg = rc.sweep.parse_config_text(text)
    rows = rc.sweep.run_sweep(cfg, jobs=jobs)
    rc.sweep.emit_csv(rows)
    return rows


def sweep_all(rc, texts, jobs):
    out = {}
    for label, text in texts.items():
        try:
            out[label] = _sweep_text(rc, text, jobs)
        except Exception as exc:  # counted as failed points by check()
            out[label] = exc
    return out


def _unconverged(result):
    """Rows of one pass reported with converged=false."""
    return sum(1 for rows in result.values() if not isinstance(rows, BaseException)
               for r in rows if not r["converged"])


class FigSweeps:
    """The seven shipped exact-diagonalization configs (fig2a-fig2f, figS0).

    168 beta-sweep points at n_max 40/48 and N = 1-3, run serially the way
    `rcprobe reproduce` runs them.  Every point of a config shares its
    Hamiltonians across beta and blocks stay small (d <= 164), so per-call
    Python overhead and repeated solves dominate: spectrum reuse and the
    eigenvector sign-fix rewrite act here.  It bypasses large-block LAPACK
    cost, the n_max convergence loop and the threaded sweep path.  The
    inputs are the shipped configs; the seed does not change them.
    """

    points = 168

    def __init__(self, rc, cli, seed):
        self.texts = {f: cli.figure_config_text(f) for f in EXACT_FIGURES}
        for text in self.texts.values():
            rc.sweep.parse_config_text(text)
        self.reference = load_reference("fig_sweeps")

    def run_pass(self, rc):
        return sweep_all(rc, self.texts, jobs=1)

    def check(self, rc, results):
        failures = []
        for res in results:
            for fig in EXACT_FIGURES:
                failures += compare_rows(fig, res[fig], self.reference[fig], RTOL_FIXED)
        return failures

    unconverged = staticmethod(_unconverged)


class LargeNPoint:
    """One snr_exact at N = 10, eps = 1, g = 0.2, beta*omega = 20, n_max = 128.

    Full sectors and noise=auto, the ROADMAP's large point.  Blocks reach
    d = 1419, so LAPACK and the O(d^2) Kubo sum dominate and no Hamiltonian
    repeats: the parity split shows here, while a beta-reuse cache has
    nothing to reuse.  The input is fixed; the seed does not change it.
    """

    points = 1

    def __init__(self, rc, cli, seed):
        self.reference = load_reference("large_n_point")

    def _params(self, rc):
        q = LARGE_POINT
        return rc.pkg.ProbeParams(q["N"], q["epsilon"], q["omega"], q["g"])

    def run_pass(self, rc):
        q = LARGE_POINT
        try:
            return rc.thermal.snr_exact(self._params(rc), q["beta_omega"], n_max=q["n_max"],
                                        noise=q["noise"], sector=q["sector"])
        except Exception as exc:  # counted as a failed point by check()
            return exc

    def check(self, rc, results):
        ref = self.reference["snr"]
        failures = []
        for pt in results:
            if isinstance(pt, BaseException):
                failures.append({"inputs": LARGE_POINT, "reason": f"raised {pt!r}"})
            elif not _close(float(pt.snr), ref, RTOL_FIXED):
                failures.append({"inputs": LARGE_POINT,
                                 "reason": f"snr {float(pt.snr)!r} vs reference {ref!r}"})
        if failures:
            return failures
        # The identity d<Jz>/deps = -beta Var_Kubo makes the susceptibility-
        # channel SNR (N >= 2 under noise=auto) equal to beta^2 Var_Kubo.
        q = LARGE_POINT
        obs = rc.thermal.thermal_observables(self._params(rc), q["beta_omega"], q["n_max"])
        ident = q["beta_omega"] ** 2 * obs.var_Jz_kubo
        snr = float(results[0].snr)
        if not _close(snr, ident, RTOL_IDENTITY):
            return [{"inputs": LARGE_POINT,
                     "reason": f"snr {snr!r} vs beta^2 Var_Kubo {ident!r}"} for _ in results]
        return []

    @staticmethod
    def unconverged(result):
        return 0


def scatter_config_text(cfg):
    """Render one scatter pool entry as a sweep config file."""
    return "\n".join([
        "schema_version = 1",
        "model = rabi_exact",
        f"N = {cfg['N']}",
        f"epsilon = {cfg['epsilon']!r}",
        f"beta_omega = {cfg['beta_omega']!r}",
        "grid_axis = g_over_omega",
        "grid_values = " + ", ".join(repr(g) for g in cfg["g"]),
        "n_max = auto",
        "",
    ])


class ScatterAuto:
    """Seeded g_over_omega configs with n_max = "auto", run through run_sweep(jobs=2).

    Six configs per pass, N = 1..6, each with eps uniform in [0.3, 2], 8
    uniform g in [0.05, 0.5] and beta*omega log-uniform in the N-th sixth
    of [1, 60] (log scale).  The seed picks one config per N from the pool
    in reference/scatter_pool.json, drawn from those distributions by
    record_reference.py, so every input has a recorded reference.  N and
    the temperature band are stratified, not drawn freely, because they set
    the cost of a config (sector count, and n_max = 64 solves above
    T ~ omega): a free draw swung the pass time by 15% between seeds.
    Every point is a distinct Hamiltonian, so the work is in the
    n_max convergence loop, the half-cutoff check and the threaded sweep
    path: the same thermal layer used differently from fig_sweeps, with no
    beta sweep to reuse spectra across.  jobs=2 is the core count of the
    2-core machine the workload was sized on.
    """

    points = 48
    jobs = 2

    def __init__(self, rc, cli, seed):
        pool = load_reference("scatter_pool")["pool"]
        rng = random.Random(seed)
        self.entries = {}
        for N in range(1, 7):
            stratum = [e for e in pool if e["N"] == N]
            entry = stratum[rng.randrange(len(stratum))]
            self.entries[entry["id"]] = entry
        self.texts = {k: scatter_config_text(e) for k, e in self.entries.items()}
        for text in self.texts.values():
            rc.sweep.parse_config_text(text)

    def run_pass(self, rc):
        return sweep_all(rc, self.texts, jobs=self.jobs)

    def check(self, rc, results):
        # README promises bitwise-identical rows under --jobs > 1.
        serial = sweep_all(rc, self.texts, jobs=1)
        failures = []
        for res in results:
            for label, entry in self.entries.items():
                inputs = {k: entry[k] for k in ("N", "epsilon", "beta_omega")}
                fails = compare_rows(label, res[label], entry["rows"], RTOL_AUTO, inputs)
                failures += fails
                bad = {f["grid_value"] for f in fails}
                rows, ser = res[label], serial[label]
                if isinstance(rows, BaseException):
                    continue
                for k, r in enumerate(rows):
                    same = (not isinstance(ser, BaseException) and k < len(ser)
                            and _exact(r) == _exact(ser[k]))
                    if not same and float(r["grid_value"]) not in bad:
                        failures.append({"config": label, "grid_value": float(r["grid_value"]),
                                         "inputs": inputs,
                                         "reason": f"jobs={self.jobs} row differs from serial"})
        return failures

    unconverged = staticmethod(_unconverged)


def _exact(row):
    """A row as reprs: equal exactly when every value is bitwise equal."""
    return tuple(repr(row[k]) for k in sorted(row))


class AnalyticLimits:
    """Closed-form limits: fig3a/fig3b (dicke), figS1/figS2 (grwa), the rcmap
    equivalence check at the `map-spectral` defaults, and convert_units.

    309 sweep rows, 3 cutoff ratios and 8 seeded lab-unit conversions.  It
    bypasses operators and thermal entirely, so for every exact-engine
    change the prediction here is no change; it is the only workload that
    measures baseline, grwa, dicke, rcmap and units.  A pass takes tens of
    milliseconds, so a run repeats it many times.
    """

    n_units = 8
    points = 309 + len(RCMAP_RATIOS) + n_units

    def __init__(self, rc, cli, seed):
        self.texts = {f: cli.figure_config_text(f) for f in ANALYTIC_FIGURES}
        for text in self.texts.values():
            rc.sweep.parse_config_text(text)
        rng = random.Random(seed)
        # (eps_GHz, omega_GHz, g_GHz, T_mK) over typical circuit-QED values
        self.lab = [(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                     rng.uniform(0.01, 1.0), rng.uniform(5.0, 100.0))
                    for _ in range(self.n_units)]
        self.reference = load_reference("analytic_limits")

    def run_pass(self, rc):
        out = {"sweeps": sweep_all(rc, self.texts, jobs=1), "rcmap": [], "units": []}
        for ratio in RCMAP_RATIOS:
            try:
                res = rc.rcmap.OhmicResidual(gamma=RCMAP_GAMMA, omega_c=ratio)
                out["rcmap"].append(rc.rcmap.verify_equivalence(
                    res, RCMAP_OMEGA0, RCMAP_G, RCMAP_GRID, quadrature_tol=RCMAP_TOL))
            except Exception as exc:  # counted as a failed point by check()
                out["rcmap"].append(exc)
        for lab in self.lab:
            try:
                out["units"].append(rc.units.convert_units(*lab))
            except Exception as exc:  # counted as a failed point by check()
                out["units"].append(exc)
        return out

    def check(self, rc, results):
        failures = []
        for res in results:
            for fig in ANALYTIC_FIGURES:
                failures += compare_rows(fig, res["sweeps"][fig], self.reference[fig],
                                         RTOL_ANALYTIC)
            for ratio, val, ref in zip(RCMAP_RATIOS, res["rcmap"], self.reference["rcmap"]):
                if isinstance(val, BaseException) or not _close(float(val), ref, RTOL_RCMAP):
                    failures.append({"config": "rcmap", "inputs": {"omega_c": ratio},
                                     "reason": f"residual {val!r} vs reference {ref!r}"})
            for lab, ru in zip(self.lab, res["units"]):
                reason = _units_failure(lab, ru)
                if reason:
                    failures.append({"config": "units", "inputs": lab, "reason": reason})
        return failures

    @staticmethod
    def unconverged(result):
        return _unconverged(result["sweeps"])


def _units_failure(lab, ru):
    if isinstance(ru, BaseException):
        return f"raised {ru!r}"
    eps, om, g, t_mk = lab
    nu_t = K_B * t_mk * 1e-3 / H_PLANCK / 1e9
    want = {"epsilon": eps / om, "omega": 1.0, "g": g / om,
            "beta_omega": om / nu_t, "beta_epsilon": eps / nu_t}
    for key, val in want.items():
        if not _close(getattr(ru, key), val, 1e-12):
            return f"{key} {getattr(ru, key)!r} vs {val!r}"
    return None


WORKLOADS = {
    "fig_sweeps": FigSweeps,
    "large_n_point": LargeNPoint,
    "scatter_auto": ScatterAuto,
    "analytic_limits": AnalyticLimits,
}
