"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see every line; under
plain `pytest -v` the line for a failing criterion appears in its captured
output.  Criteria that the implementation cannot honestly meet are left
failing rather than loosened; the measured values are printed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import test_grwa as grwa_ref
from rcprobe.baseline import weak_log_snr, weak_snr
from rcprobe.dicke import (
    DickeParams,
    critical_temperature,
    dicke_observables,
    dicke_snr,
    hp_excitations,
)
from rcprobe.grwa import (
    asymptotic_snr,
    build_grwa_blocks,
    grwa_spectrum,
    ground_energy_derivs,
    lambda_closed_form,
    solve_lambda,
    _lambda_eq,
)
from rcprobe.operators import (
    ProbeParams,
    boson_operators,
    build_mapped_hamiltonian,
    sector_multiplicities,
    spin_operators,
)
from rcprobe.rcmap import OhmicResidual, verify_equivalence
from rcprobe.sweep import emit_csv, fit_scaling, parse_config_text, parse_csv, run_sweep
from rcprobe.thermal import converge_nmax, snr_exact, thermal_observables
from rcprobe.cli import figure_config_text
from rcprobe.units import convert_units


def _report(k, ok, detail):
    print(f"ACCEPTANCE {k:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _brute_force(N, epsilon, beta):
    sz = np.array([-0.5, 0.5])
    levels = np.zeros(1)
    for _ in range(N):
        levels = (levels[:, None] + sz[None, :]).ravel()
    w = np.exp(-beta * epsilon * (levels - levels.min()))
    z = w.sum()
    m1 = (w * levels).sum() / z
    var = (w * (levels - m1) ** 2).sum() / z
    return beta**2 * var


def test_criterion_01_weak_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(1, 7))
        eps = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.1, 10.0))
        ref = _brute_force(N, eps, beta)
        got = weak_snr(N, eps, beta).snr
        worst = max(worst, abs(got - ref) / ref)
    dt = time.monotonic() - t0
    _report(1, worst < 1e-10 and dt < 1.0,
            f"weak vs brute force, worst rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_02_g_to_zero():
    t0 = time.monotonic()
    devs = {}
    for bw in (1.0, 10.0, 40.0):
        devs[bw] = max(
            abs(
                snr_exact(
                    ProbeParams(N=N, epsilon=1.0, omega=1.0, g=1e-4), bw, n_max=32
                ).snr
                / weak_snr(N, 1.0, bw).snr
                - 1.0
            )
            for N in (1, 2, 3)
        )
    dt = time.monotonic() - t0
    msg = ", ".join(f"beta*omega={b}: {d:.2e}" for b, d in devs.items())
    _report(2, max(devs.values()) < 1e-3 and dt < 30.0,
            f"max |snr_exact(g=1e-4)/weak - 1| per temperature: {msg}, {dt:.1f}s")


def test_criterion_03_circuit_enhancement():
    t0 = time.monotonic()
    ru = convert_units(3.84, 5.588, 5.63, 45.0)
    p = ProbeParams(N=1, epsilon=ru.epsilon, omega=1.0, g=ru.g)
    n = converge_nmax(p, ru.beta_omega).n_max
    pt = snr_exact(p, ru.beta_omega, n_max=n)
    ratio = pt.snr / pt.snr_weak
    dt = time.monotonic() - t0
    _report(3, abs(ratio - 936.0) / 936.0 <= 0.05 and dt < 120.0,
            f"S/S_weak at the circuit point = {ratio:.3f} (target 936 +/- 5%), "
            f"n_max={n}, {dt:.1f}s")


def test_criterion_04_scaling_exponents():
    t0 = time.monotonic()
    betas = np.geomspace(20.0, 60.0, 12)
    results = {}
    for N, g, target in ((1, 0.4, 0.0), (2, 0.3, -1.0), (3, 0.3, -1.0)):
        p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
        rows = [
            {"beta_omega": b, "snr": snr_exact(p, b, n_max=48).snr, "converged": True}
            for b in betas
        ]
        fit = fit_scaling(rows, (20.0, 60.0))
        results[(N, g)] = (fit.theta, target)
    dt = time.monotonic() - t0
    ok = all(abs(th - tg) <= 0.05 for th, tg in results.values()) and dt < 300.0
    msg = ", ".join(
        f"(N={N}, g={g}) theta={th:+.4f} (target {tg:+.2f})"
        for (N, g), (th, tg) in results.items()
    )
    _report(4, ok, f"{msg}, {dt:.1f}s")


def test_criterion_05_asymptote_overlays():
    curves = [
        (1, 1.0, 0.3), (1, 1.0, 0.4), (1, 1.0, 0.5), (1, 0.8, 0.4), (1, 0.6, 0.4),
        (2, 1.0, 0.2), (2, 1.0, 0.3), (2, 1.0, 0.4),
        (3, 1.0, 0.2), (3, 1.0, 0.3),
    ]
    betas = (40.0, 50.0, 60.0)
    notes, ok = [], True
    for N, eps, g in curves:
        p = ProbeParams(N=N, epsilon=eps, omega=1.0, g=g)
        derivs = ground_energy_derivs(N, eps, 1.0, g)
        exact = np.array([snr_exact(p, b, n_max=64).snr for b in betas])
        asym = np.array([asymptotic_snr(N, derivs, b) for b in betas])
        dev_unit = np.max(np.abs(exact / asym - 1.0))
        if dev_unit <= 0.10:
            notes.append(f"(N={N},eps={eps},g={g}) unit-constant dev {dev_unit:.3f}")
            continue
        c = float(np.exp(np.mean(np.log(exact / asym))))  # single global rescale
        dev = np.max(np.abs(exact / (c * asym) - 1.0))
        ok = ok and dev <= 0.10
        notes.append(f"(N={N},eps={eps},g={g}) fitted constant {c:.3f}, dev {dev:.3f}")
    _report(5, ok, "; ".join(notes))


def test_criterion_06_grwa_fidelity():
    worst, where = 0.0, None
    for N in (1, 2, 3):
        for g in (0.1, 0.2, 0.3, 0.4, 0.5):
            lam = solve_lambda(1.0, 1.0, g).lam
            approx = grwa_spectrum(build_grwa_blocks(N, 1.0, 1.0, g, lam, 40))[:6]
            p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
            H = build_mapped_hamiltonian(p, N / 2.0, 60)
            exact = np.sort(np.linalg.eigvalsh(H.entries))[:6]
            dev = float(np.max(np.abs(approx - exact) / np.abs(exact)))
            if dev > worst:
                worst, where = dev, (N, g)
    # supplement fixtures on random parameters
    rng = np.random.default_rng(3)
    fix = 0.0
    for _ in range(5):
        eps, om, g = rng.uniform(0.2, 2.0, size=3)
        lam = solve_lambda(eps, om, g).lam
        b1 = grwa_ref._block_by_index(
            build_grwa_blocks(1, eps, om, g, lam, 12), 2).matrix
        fix = max(fix, float(np.max(np.abs(
            b1 - grwa_ref.ref_block_N1(2, eps, om, g, lam)[::-1, ::-1]))))
        b2 = grwa_ref._block_by_index(
            build_grwa_blocks(2, eps, om, g, lam, 12), 2).matrix
        fix = max(fix, float(np.max(np.abs(
            b2 - grwa_ref.ref_block_N2(2, eps, om, g, lam)))))
        b3 = grwa_ref._block_by_index(
            build_grwa_blocks(3, eps, om, g, lam, 12), 2).matrix
        fix = max(fix, float(np.max(np.abs(
            b3 - grwa_ref.ref_block_N3(1, eps, om, g, lam)))))
    _report(6, worst <= 0.05 and fix < 1e-12,
            f"lowest-6 worst rel dev {worst:.4f} at (N,g)={where} (gate 5%), "
            f"fixture max abs dev {fix:.2e}")


def test_criterion_07_lambda_solver():
    worst_gap = worst_res = 0.0
    for g in np.linspace(0.0, 1.0, 41):
        sol = solve_lambda(1.0, 1.0, g)
        worst_gap = max(worst_gap, abs(sol.lam - lambda_closed_form(1.0, 1.0, g)))
        worst_res = max(worst_res, abs(_lambda_eq(sol.lam, 1.0, 1.0, g)))
    _report(7, worst_gap < 0.02 and worst_res < 1e-12,
            f"|root - closed form| <= {worst_gap:.4f}, residual <= {worst_res:.1e}")


def test_criterion_08_concavity():
    worst = -math.inf
    for N in (4, 5, 6):
        for eps in np.linspace(0.1, 3.0, 50):
            # ground_energy_derivs cross-checks analytic vs FD at 1e-3 internally
            d = ground_energy_derivs(N, eps, 1.0, 0.05)
            worst = max(worst, d.d2E_deps2)
    _report(8, worst < 0.0, f"max d2E/deps2 = {worst:.3e} (< 0 required), "
            "analytic/FD agreement enforced at 1e-3")


def test_criterion_09_dicke_branches():
    p = DickeParams(epsilon=3.0, omega=1.0, gbar=0.98, N=4)
    tc = critical_temperature(p)
    bc = 1.0 / tc
    # normal branch equals weak per-spin
    norm = abs(dicke_snr(p, 0.8 * bc).snr / p.N
               - weak_snr(1, p.epsilon, 0.8 * bc).snr)
    # superradiant branch beta-independent
    vals = [dicke_snr(p, b).snr for b in np.linspace(1.5 * bc, 20.0, 6)]
    spread = max(vals) - min(vals)
    lo = dicke_snr(p, (1 + 1e-9) * bc).snr / p.N
    hi = dicke_snr(p, (1 - 1e-9) * bc).snr / p.N
    jump = abs(lo - hi)
    cont = abs(dicke_observables(p, (1 + 1e-9) * bc).mean_Jz
               - dicke_observables(p, (1 - 1e-9) * bc).mean_Jz)
    ok = norm < 1e-12 and spread < 1e-12 and jump > 1e-6 and cont < 1e-9
    _report(9, ok, f"normal-weak gap {norm:.1e}, SR spread {spread:.1e}, "
            f"Tc jump {jump:.3f}, <Jz> continuity {cont:.1e}")


def test_criterion_10_critical_boundary():
    cfg = parse_config_text(figure_config_text("fig3a"))
    rows = run_sweep(cfg)
    jumps = np.abs(np.diff([r["delta_snr"] for r in rows]))
    i = int(np.argmax(jumps))
    lo, hi = rows[i]["grid_value"], rows[i + 1]["grid_value"]
    p = DickeParams(epsilon=cfg.epsilon, omega=1.0, gbar=cfg.gbar)
    bc = 1.0 / critical_temperature(p)
    _report(10, lo <= bc <= hi,
            f"delta-SNR jump bracketed in beta*omega [{lo:.4f}, {hi:.4f}], "
            f"closed-form 1/Tc = {bc:.4f}")


def test_criterion_11_mapping_equivalence():
    grid = np.linspace(0.1, 3.0, 12)
    res = [
        verify_equivalence(OhmicResidual(gamma=0.05, omega_c=r), 1.0, 0.5, grid)
        for r in (1e2, 1e3, 1e4)
    ]
    ok = res[1] < 1e-3 and res[0] > res[1] > res[2]
    _report(11, ok, "residuals at omega_c/omega0 = 1e2/1e3/1e4: "
            + "/".join(f"{r:.2e}" for r in res))


def test_criterion_12_hp_gap():
    gc = 0.5  # sqrt(eps*omega)/2 at eps = omega = 1
    (em, _), _ = hp_excitations(DickeParams(epsilon=1.0, omega=1.0, gbar=0.999 * gc))
    gaps = [
        hp_excitations(DickeParams(epsilon=1.0, omega=1.0, gbar=f * gc))[0][0]
        for f in (0.9, 0.99, 0.999, 0.9999)
    ]
    closing = all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(12, em < 0.01 and closing,
            f"eps_- at 0.999*gc = {em:.4f} (gate 0.01; exact value is "
            f"sqrt(1 - 2*gbar) = {math.sqrt(1 - 0.999):.4f}), "
            f"monotone closing: {closing}")


def test_criterion_13_property_suites():
    checks = []

    # Hellmann-Feynman consistency
    h, worst = 1e-5, 0.0
    for N, g, bw in ((1, 0.4, 10.0), (2, 0.1, 1.0), (2, 0.4, 40.0)):
        p = ProbeParams(N=N, epsilon=1.0, omega=1.0, g=g)
        up = thermal_observables(replace(p, epsilon=1.0 + h), bw, 32).lnZ
        dn = thermal_observables(replace(p, epsilon=1.0 - h), bw, 32).lnZ
        fd = -(up - dn) / (2 * h * bw)
        m = thermal_observables(p, bw, 32).mean_Jz
        worst = max(worst, abs(fd / m - 1.0))
    checks.append(("hellmann-feynman 1e-6", worst < 1e-6, f"{worst:.1e}"))

    # algebra identities
    alg = 0.0
    for twoJ in range(1, 9):
        Jx, B, Jz = spin_operators(twoJ / 2.0)
        alg = max(alg, float(np.max(np.abs(
            Jx.entries @ B.entries - B.entries @ Jx.entries + Jz.entries))))
    x, _ = boson_operators(30)
    a = np.triu(x.entries)  # annihilator: superdiagonal of a + a^dag
    comm = a @ a.T - a.T @ a
    alg = max(alg, float(np.max(np.abs(comm[:30, :30] - np.eye(30)))))
    mult_ok = all(
        sector_multiplicities(N).total_dimension() == 2**N for N in range(1, 13)
    )
    checks.append(("algebra identities", alg < 1e-13 and mult_ok, f"{alg:.1e}"))

    # <Jz^2> eigentrace vs (1/(Z beta^2)) d2Z/deps2 at strong coupling
    p = ProbeParams(N=2, epsilon=1.0, omega=1.0, g=0.4)
    hh, bw = 1e-4, 10.0
    lnz = [thermal_observables(replace(p, epsilon=1.0 + k * hh), bw, 48).lnZ
           for k in (-1, 0, 1)]
    d1 = (lnz[2] - lnz[0]) / (2 * hh)
    d2 = (lnz[2] - 2 * lnz[1] + lnz[0]) / hh**2
    curved = (d2 + d1 * d1) / bw**2
    trace = thermal_observables(p, bw, 48).mean_Jz2
    dev = abs(trace / curved - 1.0)
    checks.append(("Jz^2 trace == d2Z curvature 1e-4", dev < 1e-4, f"{dev:.2e}"))

    # truncation convergence
    pr = ProbeParams(N=1, epsilon=1.0, omega=1.0, g=0.5)
    s = [snr_exact(pr, 10.0, n_max=n).snr for n in (16, 32, 64)]
    conv = abs(s[2] - s[1]) < abs(s[1] - s[0]) + 1e-12
    checks.append(("truncation Cauchy convergence", conv, f"{abs(s[2]-s[1]):.1e}"))

    # determinism and round-trip I/O
    cfg = parse_config_text(
        "schema_version = 1\nmodel = rabi_exact\nN = 1\nepsilon = 1\ng = 0.3\n"
        "grid_axis = beta_omega\ngrid_values = 2, 6, 12\nn_max = 24\n"
    )
    r1, r2, r3 = run_sweep(cfg), run_sweep(cfg), run_sweep(cfg, jobs=2)
    det = emit_csv(r1) == emit_csv(r2) == emit_csv(r3)
    rt = parse_csv(emit_csv(r1)) == r1
    checks.append(("determinism (incl. parallel)", det, ""))
    checks.append(("round-trip I/O", rt, ""))

    # weak closed form vs finite differences; differentiate the mean through
    # its saturation-free shift m + 1/2 = 1/(1 + e^{beta*eps}) so the central
    # difference keeps relative accuracy up to beta*eps = 50
    fd_dev = 0.0
    for be in (0.01, 0.5, 5.0, 50.0):
        beta, eps = 2.0, be / 2.0
        step = 1e-6 * max(eps, 1.0)
        shifted = lambda x: 1.0 / (1.0 + math.exp(beta * x))
        slope = (shifted(eps + step) - shifted(eps - step)) / (2 * step)
        r = weak_snr(1, eps, beta)
        fd_dev = max(fd_dev, abs(slope**2 / r.var_Jz / r.snr - 1.0))
    checks.append(("weak closed form vs FD 1e-8", fd_dev < 1e-8, f"{fd_dev:.1e}"))

    # weak log-slope within 1% of -eps over beta*eps in [20, 60]
    eps = 0.8
    betas = np.linspace(20 / eps, 60 / eps, 30)
    slope = np.polyfit(betas, [weak_log_snr(1, eps, b) for b in betas], 1)[0]
    sdev = abs(slope / -eps - 1.0)
    checks.append(("weak log-slope == -eps within 1%", sdev < 0.01, f"{sdev:.3f}"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(
        f"{name} {'ok' if good else 'FAILED'}" + (f" ({val})" if val else "")
        for name, good, val in checks
    )
    _report(13, ok, detail)
