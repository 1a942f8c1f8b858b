"""Command-line interface: single points, sweeps, phase diagrams, fits.

Subcommands
  snr           one exact-diagonalization SNR point (model units, omega = 1)
  sweep         run a config-driven grid -> CSV/JSON
  dicke         large-N phase diagnosis at one (epsilon, gbar, beta*omega)
  map-spectral  numerical check of the bath-mapping equivalence relation
  fit           scaling exponent theta of S ~ T^theta from a sweep CSV
  reproduce     run a shipped figure config by id (e.g. fig2a)

Exit codes: 0 success, 2 config error (including a parameter out of its
range and a malformed fit input), 3 convergence failure, 4 numerical
domain error (including a composite dimension over the cap, a fit window
with too few points and a failed eigensolve).  Any other exception is a
program fault and propagates with its traceback.
"""

import argparse
import json
import sys
from importlib import resources

import numpy as np

from . import sweep as sweepmod
from .dicke import DickeParams, dicke_solution, hp_excitations
from .errors import ConfigError, ConvergenceError, ParameterError, RcprobeError
from .operators import ProbeParams
from .rcmap import OhmicResidual, verify_equivalence
from .thermal import NOISE_CHANNELS, SECTORS, snr_exact
from .units import convert_units

EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DOMAIN = 4


def _add_common(sp):
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--jobs", type=int, default=1)


def build_parser():
    ap = argparse.ArgumentParser(prog="rcprobe", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snr", help="single exact SNR point")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--epsilon", type=float, help="default 1; not with --ghz")
    p.add_argument("--beta-omega", type=float, required=True)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--noise", choices=NOISE_CHANNELS, default=NOISE_CHANNELS[0])
    p.add_argument("--sector", choices=SECTORS, default=SECTORS[0])
    coupling = p.add_mutually_exclusive_group(required=True)
    coupling.add_argument("--g", type=float)
    coupling.add_argument("--ghz", nargs=3, type=float, metavar=("EPS", "OMEGA", "G"),
                          help="physical frequencies in GHz in place of --epsilon and --g; "
                               "--beta-omega is then read as a temperature in mK")

    p = sub.add_parser("sweep", help="run a config-driven sweep")
    p.add_argument("--config", required=True)
    _add_common(p)

    p = sub.add_parser("dicke", help="Dicke phase diagnosis at one point")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gbar", type=float, required=True)
    p.add_argument("--beta-omega", type=float, required=True)
    p.add_argument("--N", type=int, default=1)

    p = sub.add_parser("map-spectral", help="bath-mapping equivalence report")
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--g", type=float, default=0.5)
    p.add_argument("--cutoff-ratios", type=float, nargs="+",
                   default=[1e2, 1e3, 1e4])
    p.add_argument("--grid-points", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("fit", help="fit theta of S ~ T^theta from a sweep CSV")
    p.add_argument("--input", required=True, help="CSV produced by `sweep`")
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("BW_MIN", "BW_MAX"))

    p = sub.add_parser("reproduce", help="run a shipped figure config")
    p.add_argument("figure_id", help="e.g. fig2a, fig3b, figS0")
    _add_common(p)
    return ap


def _cmd_snr(args):
    if args.ghz:
        if args.epsilon is not None:
            raise ParameterError("--epsilon is not allowed with --ghz, whose EPS sets it")
        ru = convert_units(*args.ghz, args.beta_omega)
        p, beta = ProbeParams(args.N, ru.epsilon, 1.0, ru.g), ru.beta_omega
    else:
        eps = 1.0 if args.epsilon is None else args.epsilon
        p, beta = ProbeParams(args.N, eps, 1.0, args.g), args.beta_omega
    pt = snr_exact(p, beta, n_max=args.n_max, noise=args.noise, sector=args.sector)
    print(json.dumps({
        "beta_omega": beta, "snr": pt.snr, "snr_weak": pt.snr_weak,
        "delta_snr": pt.snr - pt.snr_weak,
        # snr_weak underflows to 0 at extreme temperatures; JSON has no Infinity
        "ratio": pt.snr / pt.snr_weak if pt.snr_weak > 0 else None,
        "n_max": pt.n_max, "p_top": pt.p_top, "converged": pt.converged,
        # parity blocks solved dense, by window or skipped, and eigenstates kept
        "solver": pt.solver,
    }, indent=2))
    return 0


def _cmd_dicke(args):
    p = DickeParams(epsilon=args.epsilon, omega=1.0, gbar=args.gbar, N=args.N)
    sol = dicke_solution(p, args.beta_omega)
    normal, sup = hp_excitations(p)
    print(json.dumps({
        "phase": sol.phase,
        "Tc": sol.Tc if np.isfinite(sol.Tc) else None,
        "eta": sol.eta, "z0": sol.z0, "lnZ_per_N": sol.lnZ / p.N,
        "snr_per_N": sol.snr_per_N,
        "hp_normal": [None if np.isnan(v) else v for v in normal],
        "hp_superradiant": [None if np.isnan(v) else v for v in sup],
    }, indent=2))
    return 0


def _cmd_map_spectral(args):
    if args.grid_points < 1:
        raise ParameterError(f"--grid-points must be >= 1, got {args.grid_points}")
    grid = np.linspace(0.1, 3.0, args.grid_points)
    report = []
    for ratio in args.cutoff_ratios:
        res = OhmicResidual(gamma=args.gamma, omega_c=ratio)
        worst = verify_equivalence(res, 1.0, args.g, grid,
                                   quadrature_tol=args.tol)
        report.append({"omega_c_over_omega0": ratio, "max_residual": worst})
    print(json.dumps(report, indent=2))
    return 0


def _cmd_fit(args):
    with open(args.input, encoding="utf-8") as fh:
        try:
            rows = sweepmod.parse_csv(fh.read())
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{args.input} is not a sweep CSV: {exc!r}") from exc
    fit = sweepmod.fit_scaling(rows, tuple(args.window))
    print(json.dumps({
        "theta": fit.theta, "stderr": fit.stderr,
        "window": list(fit.window), "r_squared": fit.r_squared,
    }, indent=2))
    return 0


def figure_ids():
    """The ids of the shipped figure configs, figures/<id>.cfg, sorted."""
    return sorted(p.name[:-4] for p in (resources.files("rcprobe") / "figures").iterdir()
                  if p.name.endswith(".cfg"))


def figure_config_text(figure_id):
    ref = resources.files("rcprobe") / "figures" / f"{figure_id}.cfg"
    if not ref.is_file():
        raise ConfigError(f"unknown figure id {figure_id!r}; available: {figure_ids()}")
    return ref.read_text(encoding="utf-8")


def _cmd_sweep(args):
    """sweep and reproduce: run the config text of --config or of a shipped figure id."""
    if args.command == "sweep":
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = figure_config_text(args.figure_id)
    rows = sweepmod.run_sweep(sweepmod.parse_config_text(text), jobs=args.jobs)
    text = sweepmod.emit_csv(rows) if args.format == "csv" else json.dumps(rows, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


_DISPATCH = {
    "snr": _cmd_snr,
    "sweep": _cmd_sweep,
    "dicke": _cmd_dicke,
    "map-spectral": _cmd_map_spectral,
    "fit": _cmd_fit,
    "reproduce": _cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ParameterError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (RcprobeError, np.linalg.LinAlgError) as exc:  # numerical failures
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
