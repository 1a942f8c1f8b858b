import json
import math
import pathlib
import threading
import time

import numpy as np
import pytest

from rcprobe import dicke, thermal
from rcprobe.cli import EXIT_CONFIG, EXIT_DOMAIN, figure_config_text, main
from rcprobe.dicke import DickeParams, critical_temperature
from rcprobe.errors import ConfigError, NumericalDomainError
from rcprobe.operators import ProbeParams
from rcprobe.sweep import (
    COLUMNS,
    MAX_GRID_POINTS,
    emit_csv,
    fit_scaling,
    parse_config_text,
    parse_csv,
    run_sweep,
)
from rcprobe.thermal import converge_nmax, cutoff_converged, snr_exact
from rcprobe.units import convert_units

MINIMAL = """
schema_version = 1
model = weak
N = 2
epsilon = 0.8
grid_axis = beta_omega
grid_values = 1, 2, 5
"""


def test_parse_minimal():
    cfg = parse_config_text(MINIMAL)
    assert cfg.model == "weak"
    assert cfg.N == 2
    assert cfg.grid == (1.0, 2.0, 5.0)


def test_parse_comments_and_range():
    cfg = parse_config_text(
        "schema_version = 1  # pinned\n"
        "model = weak\n"
        "grid_axis = beta_omega\n"
        "grid_start = 1\ngrid_stop = 100\ngrid_points = 5\ngrid_scale = log\n"
    )
    assert cfg.grid == pytest.approx(tuple(np.geomspace(1, 100, 5)))


@pytest.mark.parametrize(
    "text,field",
    [
        ("model = weak\ngrid_axis = beta_omega\ngrid_values = 1", "schema_version"),
        ("schema_version = 2\nmodel = weak\ngrid_axis = beta_omega\ngrid_values = 1",
         "schema_version"),
        ("schema_version = 1\nmodel = bogus\ngrid_axis = beta_omega\ngrid_values = 1",
         "model"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = sideways\ngrid_values = 1",
         "grid_axis"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_values = 1, banana", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_values = 1\nn_max = 2.5", "n_max"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_values = 1\nsector = left", "sector"),
        ("schema_version = 1\nmodel = dicke\ngrid_axis = beta_omega\n"
         "grid_values = 1", "gbar"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_values = 1, 0", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_start = -1\ngrid_stop = 1\ngrid_points = 3", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = g_over_omega\n"
         "grid_values = 1\nbeta_omega = nan", "beta_omega"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\ngrid_start = 0\n"
         "grid_stop = 5\ngrid_points = 4\ngrid_scale = log", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\ngrid_start = 1\n"
         "grid_stop = 5\ngrid_points = -2", "grid_values"),
        ("schema_version = 1\nmodel = rabi_exact\ngrid_axis = g_over_omega\n"
         "grid_values = 0.1\nbeta_omega = inf", "beta_omega"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_values = 1, inf", "grid_values"),
        *((f"schema_version = 1\nmodel = weak\nN = {n}\ngrid_axis = beta_omega\n"
           "grid_values = 1", "N") for n in ("nan", "inf", "2.7", "0")),
        ("schema_version = 1\nmodel = rabi_exact\ngrid_axis = N\n"
         "grid_values = 1.5, 2.5", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = N\n"
         "grid_values = 1, nan", "grid_values"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\ngrid_start = 1\n"
         "grid_stop = 5\ngrid_points = 2.5", "grid_values"),
        ("schema_version = 1\nmodel = dicke\ngbar = 0.9\ng = 0.5\nN = 4\n"
         "grid_axis = beta_omega\ngrid_values = 1", "g"),
        ("schema_version = 1\nmodel = dicke\ngbar = 0.9\n"
         "grid_axis = g_over_omega\ngrid_values = 0.1", "grid_axis"),
        ("schema_version = 1\nmodel weak\ngrid_axis = beta_omega\ngrid_values = 1", None),
        ("schema_version = 1\nmodel = weak\nepsilon = abc\ngrid_axis = beta_omega\n"
         "grid_values = 1", "epsilon"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\ngrid_start = 1\n"
         "grid_stop = 5\ngrid_points = 3\ngrid_scale = cubic", "grid_scale"),
        ("schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\n"
         "grid_values = 1\nn_max = 0", "n_max"),
    ],
)
def test_parse_errors_carry_field(tmp_path, capsys, text, field):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.field == field
    # and `rcprobe sweep` reports the same error as a config error
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {exc.value}\n"


def test_parse_caps_grid_points_before_allocating():
    # refused as a config error before numpy is asked for the grid (1e15: 7 PiB)
    body = "schema_version = 1\nmodel = weak\ngrid_axis = beta_omega\ngrid_start = 1\n"
    body += "grid_stop = 2\ngrid_points = "
    assert len(parse_config_text(body + str(MAX_GRID_POINTS)).grid) == MAX_GRID_POINTS
    for points in (str(MAX_GRID_POINTS + 1), "1e15"):
        with pytest.raises(ConfigError, match="grid_points") as exc:
            parse_config_text(body + points)
        assert exc.value.field == "grid_values"


def test_parse_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "model = weak\n")


def test_parse_unknown_key_warns():
    with pytest.warns(UserWarning, match="colour"):
        parse_config_text(MINIMAL + "colour = blue\n")
    # delta_snr is always snr - snr_weak: the former per-spin option is an unknown key
    with pytest.warns(UserWarning, match="'convention' ignored"):
        assert parse_config_text(MINIMAL + "convention = per_spin\n") == parse_config_text(MINIMAL)


def test_sweep_deterministic_and_thread_safe():
    cfg = parse_config_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 1\nepsilon = 1.0\n"
        "g = 0.4\ngrid_axis = beta_omega\ngrid_values = 2, 5, 9, 14\nn_max = 24\n"
    )
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    c = run_sweep(cfg, jobs=3)
    assert a == b == c
    assert emit_csv(a) == emit_csv(c)


def test_csv_round_trip():
    cfg = parse_config_text(
        "schema_version = 1\nmodel = dicke\nepsilon = 0.5\ngbar = 0.9\n"
        "grid_axis = beta_omega\ngrid_values = 0.5, 3, 8\n"
    )
    rows = run_sweep(cfg)
    text = emit_csv(rows)
    assert text.splitlines()[0] == ",".join(COLUMNS)
    assert parse_csv(text) == rows


def test_small_g_delta_vanishes():
    cfg = parse_config_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 1\nepsilon = 1.0\n"
        "g = 1e-4\ngrid_axis = beta_omega\ngrid_values = 1, 4, 8\nn_max = 24\n"
    )
    for r in run_sweep(cfg):
        assert abs(r["delta_snr"]) < 1e-4 * r["snr_weak"]


def test_fit_scaling_synthetic():
    rows = [
        {"beta_omega": b, "snr": 3.7 * b, "converged": True}
        for b in np.geomspace(10, 100, 12)
    ]
    fit = fit_scaling(rows, (10, 100))
    assert fit.theta == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_needs_points():
    rows = [{"beta_omega": b, "snr": b, "converged": True} for b in (1.0, 2.0)]
    with pytest.raises(NumericalDomainError):
        fit_scaling(rows, (0.5, 3.0))


def test_fit_scaling_skips_unconverged():
    rows = [
        {"beta_omega": b, "snr": 2.0 * b**2, "converged": True}
        for b in np.geomspace(5, 50, 8)
    ]
    rows.append({"beta_omega": 20.0, "snr": 1e6, "converged": False})
    fit = fit_scaling(rows, (1, 100))
    assert fit.theta == pytest.approx(-2.0, abs=1e-10)


def test_cli_snr_runs(capsys):
    assert main(["snr", "--g", "0.3", "--beta-omega", "5", "--n-max", "24"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["snr"] > 0 and out["snr_weak"] > 0
    assert out["delta_snr"] == out["snr"] - out["snr_weak"]
    assert out["converged"] is cutoff_converged(out["p_top"]) is True


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_cli_map_spectral_default_residuals_pinned(capsys):
    # a tighter hold than the benchmark's 1e-6: a changed integrator or panel split
    # moves these residuals by far more than 1e-12 relative
    assert main(["map-spectral"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert [r["omega_c_over_omega0"] for r in report] == [1e2, 1e3, 1e4]
    assert [r["max_residual"] for r in report] == pytest.approx(
        [0.006436300143437127, 0.0009221771968792063, 0.00011983824718861483], rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", ["1e308", "5"])
def test_cli_snr_prints_strict_json_from_one_solve(monkeypatch, capsys, beta):
    # snr_weak underflows to 0 at low temperature: the ratio is null, not Infinity,
    # and p_top and the verdict come from the solve that gave the snr
    solves = []
    solve = thermal.eigendecompose

    def counted(A):
        solves.append(A.shape[0])
        return solve(A)

    monkeypatch.setattr(thermal, "eigendecompose", counted)
    assert main(["snr", "--g", "0.3", "--beta-omega", beta, "--n-max", "24"]) == 0
    out = _strict_json(capsys.readouterr().out)
    # N = 1: one sector, two parity blocks, at n_max = 24 only; at beta*omega = 1e308
    # the upper block carries no share of the variances and is skipped
    dense = 1 if beta == "1e308" else 2
    assert solves == [25] * dense
    assert out["solver"] == {"dense": dense, "window": 0, "skipped": 2 - dense,
                             "states": 25 * dense}
    assert (out["ratio"] is None) == (out["snr_weak"] == 0.0) == (beta != "5")
    p = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.3)
    assert out["p_top"] == thermal.thermal_observables(p, float(beta), 24).p_top
    assert out["converged"] is cutoff_converged(out["p_top"])


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a usage error itself
        return exc.code


def test_cli_snr_ghz_is_the_reduced_unit_point(capsys):
    ghz = ["snr", "--ghz", "3.84", "5.588", "5.63", "--beta-omega", "45", "--n-max", "24"]
    assert main(ghz) == 0
    out = _strict_json(capsys.readouterr().out)
    ru = convert_units(3.84, 5.588, 5.63, 45.0)
    pt = snr_exact(ProbeParams(N=1, epsilon=ru.epsilon, omega=1.0, g=ru.g), ru.beta_omega, 24)
    assert (out["beta_omega"], out["snr"], out["p_top"]) == (ru.beta_omega, pt.snr, pt.p_top)
    # EPS and G take the place of --epsilon and --g, which --ghz refuses; without it,
    # --g is required
    for argv in (ghz + ["--g", "0"], ghz + ["--epsilon", "1"], ["snr", "--beta-omega", "5"]):
        assert _exit_code(argv) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_cli_sweep_and_fit_files(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "schema_version = 1\nmodel = weak\nN = 1\nepsilon = 1.0\n"
        "grid_axis = beta_omega\ngrid_start = 20\ngrid_stop = 60\n"
        "grid_points = 10\ngrid_scale = log\n"
    )
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--input", str(out), "--window", "20", "60"]) == 0
    fit = json.loads(capsys.readouterr().out)
    # weak model: S ~ beta^2 e^{-beta eps}; on this window the local exponent
    # theta = beta*eps - 2 is dominated by the exponential decay
    assert 20 < fit["theta"] < 60


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version = 1\nmodel = nothing\n")
    assert main(["sweep", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert main(["reproduce", "no_such_figure"]) == EXIT_CONFIG
    # degenerate variance at frozen probe -> domain error
    assert main(["snr", "--g", "0.0", "--beta-omega", "2000", "--n-max", "8"]) \
        == EXIT_DOMAIN
    # a composite dimension over the cap
    assert main(["snr", "--N", "10", "--n-max", "3000", "--g", "0.2",
                 "--beta-omega", "5"]) == EXIT_DOMAIN
    assert "dim_cap" not in capsys.readouterr().err
    # ... found before the multiplicities of 10^5 spins are built
    t0 = time.perf_counter()
    assert main(["snr", "--N", "100000", "--g", "0.2", "--beta-omega", "5"]) == EXIT_DOMAIN
    assert time.perf_counter() - t0 < 1.0
    assert "composite dimension 6500065 exceeds cap" in capsys.readouterr().err
    # a sector multiplicity beyond a float, decided from N before any binomial is built
    for N in ("1100", "9999"):
        t0 = time.perf_counter()
        assert main(["snr", "--N", N, "--n-max", "1", "--g", "0.2",
                     "--beta-omega", "5"]) == EXIT_DOMAIN
        assert time.perf_counter() - t0 < 1.0
        assert "does not fit a float" in capsys.readouterr().err
    # a Fock cutoff below 1
    assert main(["snr", "--n-max", "0", "--g", "0.3", "--beta-omega", "5"]) \
        == EXIT_DOMAIN
    # parameters out of their range
    for flag, value in (("--N", "0"), ("--g", "-1"), ("--epsilon", "-1")):
        argv = ["snr", "--g", "0.3", "--beta-omega", "5", "--n-max", "8", flag, value]
        assert main(argv) == EXIT_CONFIG
    # a fit window holding fewer than 5 converged points
    few = tmp_path / "few.cfg"
    few.write_text(MINIMAL)
    rows = tmp_path / "few.csv"
    assert main(["sweep", "--config", str(few), "--out", str(rows)]) == 0
    assert main(["fit", "--input", str(rows), "--window", "1", "5"]) == EXIT_DOMAIN
    # a fit input that is not a sweep CSV
    junk = tmp_path / "junk.csv"
    junk.write_text("grid_value,beta_omega\n1.0,abc\n")
    assert main(["fit", "--input", str(junk), "--window", "1", "5"]) == EXIT_CONFIG
    # non-positive temperatures: a domain error at one point, a config error in a sweep
    capsys.readouterr()
    point = ["dicke", "--epsilon", "0.5", "--gbar", "0.9", "--beta-omega"]
    assert main(point + ["0"]) == EXIT_DOMAIN
    assert main(point + ["-1"]) == EXIT_DOMAIN
    assert "beta must be positive" in capsys.readouterr().err
    cold = tmp_path / "cold.cfg"
    cold.write_text("schema_version = 1\nmodel = dicke\nepsilon = 0.5\ngbar = 0.9\n"
                    "grid_axis = beta_omega\ngrid_values = 0, 1\n")
    assert main(["sweep", "--config", str(cold)]) == EXIT_CONFIG
    cold.write_text("schema_version = 1\nmodel = rabi_exact\nN = 1\ng = 0.3\n"
                    "beta_omega = -1\ngrid_axis = g_over_omega\ngrid_values = 0.1\n")
    assert main(["sweep", "--config", str(cold)]) == EXIT_CONFIG
    # infinite or undefined temperatures: a domain error at one point
    capsys.readouterr()
    for beta in ("inf", "nan"):
        assert main(["snr", "--N", "2", "--g", "0.3", "--beta-omega", beta]) == EXIT_DOMAIN
        assert main(point + [beta]) == EXIT_DOMAIN
    assert "positive and finite" in capsys.readouterr().err
    # a temperature so high that the Kubo sum has lost its precision
    for beta in ("1e-50", "1e-300", "1e-310"):
        assert main(["snr", "--g", "0.3", "--beta-omega", beta]) == EXIT_DOMAIN
    assert capsys.readouterr().out == ""
    # a beta whose 2/beta overflows, also where every R_i is 0 and where a block is large
    # enough for the window route: refused by name, no warning
    for g, N, n_max in (("0", "1", "8"), ("1e-9", "1", "8"), ("0.2", "10", "128")):
        assert main(["snr", "--g", g, "--N", N, "--beta-omega", "1e-320", "--n-max", n_max]) \
            == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == "" and "Warning" not in out.err
    assert out.err.count("beta = 1e-320 too small: 2/beta overflows a float") == 3
    # a beta sweep through such a beta: that row fails on its own, the run succeeds
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(TINY_BETA_SWEEP)
    assert main(["sweep", "--config", str(tiny)]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[1].startswith("1e-320,1e-320,nan,") and out.err == ""
    # a quadrature tolerance that is not positive
    assert main(["map-spectral", "--tol", "0"]) == EXIT_CONFIG
    assert "quadrature_tol" in capsys.readouterr().err
    # an empty or negative map-spectral grid, not a perfect residual of 0
    for points in ("0", "-1"):
        assert main(["map-spectral", "--grid-points", points]) == EXIT_CONFIG
    # a non-finite map-spectral parameter, not a traceback or a residual of 0
    for flag in ("--gamma", "--g", "--cutoff-ratios"):
        for value in ("nan", "inf"):
            assert main(["map-spectral", flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    # a finite map-spectral parameter beyond a float: g^2 overflows the Lorentzian's
    # strength, Gamma^2 overflows inside a transform, and a cutoff far below every grid
    # frequency leaves the transform's regular panel empty
    assert main(["map-spectral", "--g", "1e200"]) == EXIT_CONFIG
    assert main(["map-spectral", "--gamma", "1e300"]) == EXIT_DOMAIN
    assert "overflows" in capsys.readouterr().err
    # and a g whose square underflows leaves no Lorentzian strength
    assert main(["map-spectral", "--g", "1e-200"]) == EXIT_CONFIG
    assert "g = 1e-200 too small" in capsys.readouterr().err
    assert main(["map-spectral", "--cutoff-ratios", "1e-300", "--grid-points", "3"]) == 0
    assert math.isfinite(_strict_json(capsys.readouterr().out)[0]["max_residual"])
    # fewer than one worker thread
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", str(few), "--jobs", jobs]) == EXIT_CONFIG
        assert main(["reproduce", "fig2a", "--jobs", jobs]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    # a beta at which the exact lnZ overflows a float: a domain error, not a warning
    assert main(["snr", "--N", "10", "--g", "0.2", "--beta-omega", "1e308",
                 "--n-max", "128"]) == EXIT_DOMAIN
    assert "lnZ overflows" in capsys.readouterr().err
    # a beta at which lnZ overflows a float: a domain error, not -Infinity
    assert main(point + ["1e308"]) == EXIT_DOMAIN
    assert "too large" in capsys.readouterr().err
    # Dicke parameters beyond a float: mu = eps/(4 gbar^2) out of range is a config
    # error, a closed form that overflows a domain error
    for eps, gbar, code in (("1", "1e-300", EXIT_CONFIG), ("1", "1e300", EXIT_CONFIG),
                            ("1e300", "0.5", EXIT_DOMAIN)):
        assert main(["dicke", "--epsilon", eps, "--gbar", gbar, "--beta-omega", "5"]) == code
    assert capsys.readouterr().err.count("leaves the float range") == 3
    # a saddle beyond a float: eta ~ 1/mu = 4e300 squared, at any beta
    assert main(["dicke", "--epsilon", "1e-300", "--gbar", "1", "--beta-omega", "5"]) \
        == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "the saddle's energy overflows a float" in err and "beta" not in err
    # Dicke parameters out of their range are config errors, as for snr
    for flag, value in (("--N", "0"), ("--gbar", "0"), ("--epsilon", "-1")):
        assert main(point + ["5", flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    # non-finite parameters are config errors, at a point and in a sweep
    snr = ["snr", "--g", "0.3", "--beta-omega", "5", "--n-max", "8"]
    for value in ("nan", "inf"):
        for flag in ("--g", "--epsilon"):
            assert main(snr + [flag, value]) == EXIT_CONFIG
        for flag in ("--gbar", "--epsilon"):
            assert main(point + ["5", flag, value]) == EXIT_CONFIG
    assert all(ln.startswith("config error:") and "finite" in ln
               for ln in capsys.readouterr().err.splitlines())
    sweeps = (
        "model = weak\nepsilon = nan\ngrid_axis = beta_omega\ngrid_values = 1, 2",
        "model = rabi_exact\nn_max = 8\ngrid_axis = g_over_omega\ngrid_values = 0.1, nan",
        "model = rabi_exact\nn_max = 8\nepsilon = inf\ngrid_axis = beta_omega\n"
        "grid_values = 1, 2",
        "model = dicke\ngbar = nan\ngrid_axis = beta_omega\ngrid_values = 1, 2",
        "model = weak\nN = nan\ngrid_axis = beta_omega\ngrid_values = 1",
        "model = weak\nN = 2.7\ngrid_axis = beta_omega\ngrid_values = 1",
        "model = weak\ngrid_axis = N\ngrid_values = 1.5, 2.5",
        "model = weak\ngrid_axis = beta_omega\ngrid_start = 1\ngrid_stop = 2\n"
        "grid_points = 2.5",
        "model = dicke\ngbar = 0.9\ng = 0.5\nN = 4\ngrid_axis = beta_omega\n"
        "grid_values = 1, 2",
        "model = weak\ngrid_axis = beta_omega\ngrid_start = 1\ngrid_stop = 2\n"
        "grid_points = 1e15",
    )
    for body in sweeps:
        bad.write_text("schema_version = 1\n" + body + "\n")
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", str(bad), "--jobs", jobs]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_cli_reports_a_failed_eigensolve_as_numerical(monkeypatch, capsys):
    # LinAlgError subclasses ValueError; a failed eigensolve is not a config error
    def fail(A):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(thermal, "eigendecompose", fail)
    assert main(["snr", "--g", "0.3", "--beta-omega", "5", "--n-max", "8"]) \
        == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("numerical domain error:")


def test_cli_lets_a_program_fault_raise(monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("not a parameter check")

    monkeypatch.setattr("rcprobe.cli.snr_exact", fault)
    with pytest.raises(ValueError, match="not a parameter check"):
        main(["snr", "--g", "0.3", "--beta-omega", "5", "--n-max", "8"])


def test_cli_sweep_json_rabi_exact(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 1\nepsilon = 1.0\n"
        "g = 0.3\ngrid_axis = beta_omega\ngrid_values = 2, 5\nn_max = 16\n"
    )
    assert main(["sweep", "--config", str(cfg), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["grid_value"] for r in rows] == [2.0, 5.0]
    assert all(isinstance(r["converged"], bool) for r in rows)


def test_auto_rows_keep_the_convergence_loop_verdict():
    cfg = parse_config_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 1\nepsilon = 1.5\n"
        "beta_omega = 1.5\ngrid_axis = g_over_omega\ngrid_values = 0.3, 0.4\n"
        "n_max = auto\n"
    )
    for row in run_sweep(cfg):
        p = ProbeParams(N=1, epsilon=1.5, omega=1.0, g=row["grid_value"])
        assert row["converged"] is True
        pt = converge_nmax(p, 1.5)
        assert (row["n_max"], row["snr"], row["snr_weak"]) == (pt.n_max, pt.snr, pt.snr_weak)
        assert row["snr"] == snr_exact(p, 1.5, n_max=row["n_max"]).snr


@pytest.mark.parametrize("n_max, want", [("8", 8), ("auto", 0)])
def test_failing_exact_rows_keep_their_cutoff(n_max, want):
    # a fixed-cutoff row that fails keeps the configured cutoff; an auto row, which
    # never accepted one, keeps 0
    cfg = parse_config_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 2\nepsilon = 1\ng = 0.3\n"
        f"grid_axis = beta_omega\ngrid_values = 1e-300, 2, 1e300\nn_max = {n_max}\n"
    )
    rows = run_sweep(cfg)
    for row in (rows[0], rows[2]):
        assert math.isnan(row["snr"]) and row["converged"] is False
        assert row["n_max"] == want
    assert math.isfinite(rows[1]["snr"]) and rows[1]["n_max"] == (8 if want else 16)


@pytest.mark.parametrize("model, keys", [("weak", ""), ("dicke", "gbar = 0.9\n"),
                                         ("grwa", "g = 0.3\n")])
def test_rows_without_a_cutoff_read_converged(model, keys):
    # their points carry p_top = 0, and the verdict is cutoff_converged(p_top)
    cfg = parse_config_text(f"schema_version = 1\nmodel = {model}\nN = 2\nepsilon = 0.8\n"
                            f"{keys}grid_axis = beta_omega\ngrid_values = 1, 5\n")
    assert [row["converged"] for row in run_sweep(cfg)] == [True, True]


def _fixed_cutoff_config(axis, values, N=2, n_max=16):
    return parse_config_text(
        f"schema_version = 1\nmodel = rabi_exact\nN = {N}\nepsilon = 1.1\n"
        f"g = 0.35\nbeta_omega = 6\ngrid_axis = {axis}\n"
        f"grid_values = {', '.join(map(str, values))}\nn_max = {n_max}\n"
    )


def _reference_row(cfg, x):
    # the same row from one per-point snr_exact, judged by its top level's population
    axis = cfg.grid_axis
    beta = x if axis == "beta_omega" else cfg.beta_omega
    N = int(x) if axis == "N" else cfg.N
    eps = x if axis == "epsilon_over_omega" else cfg.epsilon
    p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=x if axis == "g_over_omega" else cfg.g)
    pt = snr_exact(p, beta, n_max=cfg.n_max)
    return {
        "grid_value": x, "beta_omega": beta, "snr": pt.snr, "snr_weak": pt.snr_weak,
        "delta_snr": pt.snr - pt.snr_weak, "n_max": cfg.n_max,
        "converged": thermal.TOP_C * pt.p_top < 1e-6, "phase": "", "eta": "",
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_beta_sweep_solves_each_sector_once_per_cutoff(monkeypatch, jobs):
    builds, solves = [], []
    build, solve = thermal.build_mapped_hamiltonian, thermal.eigendecompose

    def counted_build(p, J, n_max):
        builds.append((J, n_max))
        return build(p, J, n_max)

    def counted_solve(A):
        solves.append(A.shape[0])
        return solve(A)

    cfg = _fixed_cutoff_config("beta_omega", [0.5, 2, 5, 9, 14, 30])
    monkeypatch.setattr(thermal, "build_mapped_hamiltonian", counted_build)
    monkeypatch.setattr(thermal, "eigendecompose", counted_solve)
    rows = run_sweep(cfg, jobs=jobs)
    # N = 2 has two sectors (J = 1, 0), each built at n_max = 16 only
    # and solved as its two parity blocks
    assert sorted(builds) == [(0.0, 16), (1.0, 16)]
    assert len(solves) == 2 * 2
    assert sum(solves) == (3 + 1) * 17  # the blocks cover every row
    monkeypatch.undo()
    assert rows == [_reference_row(cfg, x) for x in cfg.grid]


def test_dicke_sweep_solves_eta_once_per_superradiant_row(monkeypatch):
    calls = []
    solve = dicke.solve_eta

    def counted(p, beta):
        calls.append(beta)
        return solve(p, beta)

    cfg = parse_config_text(
        "schema_version = 1\nmodel = dicke\nepsilon = 0.7\ngbar = 0.83\n"
        "grid_axis = beta_omega\ngrid_start = 0.2\ngrid_stop = 20\n"
        "grid_points = 30\ngrid_scale = log\n"
    )
    monkeypatch.setattr(dicke, "solve_eta", counted)
    rows = run_sweep(cfg)
    superradiant = [r["beta_omega"] for r in rows if r["phase"] == "superradiant"]
    assert 0 < len(superradiant) < len(rows)
    assert calls == superradiant


@pytest.mark.parametrize("axis, values", [
    ("g_over_omega", [0.1, 0.35, 0.6]),
    ("epsilon_over_omega", [0.4, 1.1, 1.8]),
    ("N", [1, 2, 3]),
])
def test_cached_rows_match_per_point_solves(axis, values):
    # each row solves its own Hamiltonian: every grid axis must reach its field
    cfg = _fixed_cutoff_config(axis, values)
    assert run_sweep(cfg, jobs=2) == [_reference_row(cfg, x) for x in values]


def test_distinct_hamiltonians_solve_concurrently(monkeypatch):
    # two rows of a g sweep at jobs = 2 each solve their own Hamiltonian; the
    # barrier lets a solve through only while the other row's is in flight too
    barrier = threading.Barrier(2, timeout=5)
    solve = thermal.eigendecompose

    def paired(A):
        barrier.wait()
        return solve(A)

    cfg = _fixed_cutoff_config("g_over_omega", [0.2, 0.4], N=1)
    monkeypatch.setattr(thermal, "eigendecompose", paired)
    rows = run_sweep(cfg, jobs=2)
    monkeypatch.undo()
    assert rows == [_reference_row(cfg, x) for x in cfg.grid]


TINY_BETA_SWEEP = """
schema_version = 1
model = rabi_exact
N = 10
g = 0.2
n_max = 128
grid_axis = beta_omega
grid_values = 1e-320, 20
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jobs", [1, 2])
def test_beta_sweep_shares_the_least_accepted_beta_solve(solve_calls, jobs):
    # 2/beta overflows at beta*omega = 1e-320: the solve refuses that beta before any
    # block, and the shared record is made at beta*omega = 20, the least one it accepts
    p = ProbeParams(N=10, epsilon=1.0, omega=1.0, g=0.2)
    ref = snr_exact(p, 20.0, n_max=128)
    expected, solve_calls[:] = list(solve_calls), []
    tiny, cold = run_sweep(parse_config_text(TINY_BETA_SWEEP), jobs=jobs)
    assert solve_calls == expected
    assert math.isnan(tiny["snr"]) and tiny["converged"] is False and tiny["n_max"] == 128
    assert cold["snr"] == ref.snr and cold["converged"] is True


@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_over_the_dimension_cap_fail_one_by_one(jobs):
    cfg = _fixed_cutoff_config("beta_omega", [2, 5, 9], N=10, n_max=3000)
    rows = run_sweep(cfg, jobs=jobs)
    assert [r["grid_value"] for r in rows] == [2.0, 5.0, 9.0]
    for r in rows:
        assert r["converged"] is False
        assert all(math.isnan(r[k]) for k in ("snr", "snr_weak", "delta_snr"))


def test_cli_dicke_json(capsys):
    assert main(["dicke", "--epsilon", "0.5", "--gbar", "0.9",
                 "--beta-omega", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["phase"] == "superradiant"
    assert out["eta"] > 1
    # Phi and Phi'' are finite at beta*omega = 1e200, and so is lnZ
    assert main(["dicke", "--epsilon", "0.5", "--gbar", "0.9", "--beta-omega", "1e200"]) == 0
    assert math.isfinite(_strict_json(capsys.readouterr().out)["lnZ_per_N"])
    # at 1e308 lnZ would overflow: the point is refused and prints nothing
    assert main(["dicke", "--epsilon", "0.5", "--gbar", "0.9", "--beta-omega", "1e308"]) \
        == EXIT_DOMAIN
    assert capsys.readouterr().out == ""


def test_figure_configs_all_parse():
    for fid in ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f",
                "fig3a", "fig3b", "figS0", "figS1", "figS2"):
        cfg = parse_config_text(figure_config_text(fid))
        assert len(cfg.grid) >= 2


def test_cli_reproduce_runs(tmp_path):
    out = tmp_path / "figS1.csv"
    assert main(["reproduce", "figS1", "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert len(rows) >= 10
    assert all(np.isfinite(r["snr"]) for r in rows)


def test_fig3b_transition_matches_tc():
    # the sweep's phase flip along the gbar axis must sit within one grid
    # step of the closed-form critical coupling at that temperature
    cfg = parse_config_text(figure_config_text("fig3b"))
    rows = run_sweep(cfg)
    flips = [
        (a, b) for a, b in zip(rows, rows[1:])
        if a["phase"] != b["phase"] and a["phase"] and b["phase"]
    ]
    assert len(flips) == 1
    beta = cfg.beta_omega
    mu_c = math.tanh(0.5 * beta * cfg.epsilon)
    g_c = math.sqrt(cfg.epsilon / (4.0 * mu_c))
    lo, hi = flips[0][0]["grid_value"], flips[0][1]["grid_value"]
    assert lo <= g_c <= hi
    # sanity: the closed form really is the boundary of Tc
    p = DickeParams(epsilon=cfg.epsilon, omega=1.0, gbar=g_c * (1 + 1e-6))
    assert critical_temperature(p) == pytest.approx(1.0 / beta, rel=1e-4)


FIG_REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("fig", ["fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "figS0"])
def test_exact_figures_match_the_recorded_reference(fig):
    # the shipped exact sweeps against the rows recorded in the benchmark's
    # reference file (read only): S to 1e-8, the same cutoff, and the same verdict
    # except at figS0, beta*omega = 0.5, recorded unconverged by the former
    # half-cutoff check although S(48) and S(96) agree to 4e-11
    ref = json.loads((FIG_REFERENCE / "fig_sweeps.json").read_text(encoding="utf-8"))[fig]
    rows = run_sweep(parse_config_text(figure_config_text(fig)))
    assert [r["grid_value"] for r in rows] == [r["grid_value"] for r in ref]
    for row, want in zip(rows, ref):
        assert row["snr"] == pytest.approx(want["snr"], rel=1e-8, abs=0)
        flipped = (fig, row["grid_value"]) == ("figS0", 0.5)
        assert want["converged"] is not flipped
        assert (row["n_max"], row["converged"]) == (want["n_max"], True if flipped
                                                    else want["converged"])


@pytest.mark.parametrize("fig", ["fig3a", "fig3b", "figS1", "figS2"])
def test_closed_form_figures_match_the_recorded_reference(fig):
    # the closed-form sweeps against the benchmark's recorded rows (read only): their
    # roots are exact to adjacent floats, so every number moves by rounding alone
    ref = json.loads((FIG_REFERENCE / "analytic_limits.json").read_text(encoding="utf-8"))[fig]
    rows = run_sweep(parse_config_text(figure_config_text(fig)))
    assert [r.keys() for r in rows] == [r.keys() for r in ref]
    for row, want in zip(rows, ref):
        for key, value in want.items():
            if isinstance(value, float):
                assert row[key] == pytest.approx(value, rel=1e-11, abs=0), key
            else:  # n_max, converged, phase, and eta outside the dicke model
                assert row[key] == value, key


def test_cli_snr_reports_the_window_solve(capsys):
    argv = ["snr", "--N", "10", "--g", "0.2", "--beta-omega", "20", "--n-max", "128"]
    assert main(argv) == 0
    solver = _strict_json(capsys.readouterr().out)["solver"]
    # the blocks of J = 5 .. 3 and one of J = 2 windowed, the other five skipped
    assert (solver["dense"], solver["window"], solver["skipped"]) == (0, 7, 5)
    assert solver["states"] == 12  # of at most 188, d/20 per window


@pytest.mark.parametrize("axis, values", [
    ("beta_omega", [10, 20, 40]),
    ("g_over_omega", [0.1, 0.2]),
])
def test_window_rows_are_bitwise_equal_under_jobs(axis, values):
    cfg = parse_config_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 10\nepsilon = 1.0\ng = 0.2\n"
        f"beta_omega = 20\ngrid_axis = {axis}\n"
        f"grid_values = {', '.join(map(str, values))}\nn_max = 128\n"
    )
    rows = run_sweep(cfg, jobs=2)
    assert rows == run_sweep(cfg, jobs=1)
    # a beta sweep reads every row from one record made for its least beta
    for row in rows:
        ref = _reference_row(cfg, row["grid_value"])
        assert row["snr"] == pytest.approx(ref["snr"], rel=1e-10)
        assert row["converged"] is True and ref["converged"]
