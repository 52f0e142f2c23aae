"""Acceptance suite: one pass/fail line per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Each test collects its sub-checks, prints every line, then asserts,
so a single red sub-check still reports the rest.
"""

import math

import numpy as np

from ridgecav import (
    AtomParams,
    CavitySpec,
    GapConfig,
    brute_force_gap_scattering,
    field_enhancement,
    finesse_from_round_trip,
    fit_losses,
    free_spectral_range_ghz,
    fresnel_interface,
    full_budget,
    gap_scattering,
    linewidth_ghz,
    loss_spectrum,
    overlap,
    propagate_free_space,
    quarter_wave_stack,
    round_trip_amplitude,
    round_trip_phase_scan,
    stack_reflectivity,
    TrapConfig,
    trap_analysis,
)
from ridgecav.cli import main
from conftest import make_gaussian
from test_waveguide import slab_n_eff_analytic

WL_UM = 0.780


def check(results, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")
    results.append((label, bool(ok)))


def finish(results):
    failed = [label for label, ok in results if not ok]
    assert not failed, f"failed sub-checks: {failed}"


def test_criterion_1_finesse_fsr_linewidth_chain():
    results = []
    g = round_trip_amplitude(CavitySpec(length_um=330.0, n_group=3.50, alpha_per_cm=1.03))
    fin = finesse_from_round_trip(g)
    check(results, "C1 intrinsic finesse 92 +- 1", abs(fin - 92.0) <= 1.0, f"F={fin:.2f}")
    fsr = free_spectral_range_ghz(330.0, 3.50)
    check(results, "C1 FSR 129 +- 1 GHz", abs(fsr - 129.0) <= 1.0, f"FSR={fsr:.2f} GHz")
    width = linewidth_ghz(fin, fsr)
    check(results, "C1 linewidth 1.4 +- 0.1 GHz", abs(width - 1.4) <= 0.1, f"2k/2pi={width:.3f} GHz")
    finish(results)


def test_criterion_2_fit_recovery():
    results = []
    big_r, alpha = 0.89, 1.07
    data = []
    for length in (260.0, 650.0, 1300.0):
        g = big_r * math.exp(-alpha * length * 1e-4)
        data.append((length, math.pi * math.sqrt(g) / (1.0 - g)))
    res = fit_losses(data)
    check(
        results, "C2 |dR| < 1e-3", abs(res.R_fit - big_r) < 1e-3,
        f"R_fit={res.R_fit:.6f}",
    )
    check(
        results, "C2 |dalpha| < 1e-3 /cm", abs(res.alpha_fit_per_cm - alpha) < 1e-3,
        f"alpha_fit={res.alpha_fit_per_cm:.6f} /cm",
    )
    finish(results)


def test_criterion_3_mirror_stacks():
    results = []
    r3 = 100.0 * stack_reflectivity(quarter_wave_stack(3), 780.0)
    r6 = 100.0 * stack_reflectivity(quarter_wave_stack(6), 780.0)
    check(results, "C3 R3 = 91.3 +- 1.5 pts", abs(r3 - 91.3) <= 1.5, f"R3={r3:.2f}%")
    check(results, "C3 R6 = 99.4 +- 0.3 pts", abs(r6 - 99.4) <= 0.3, f"R6={r6:.2f}%")
    finish(results)


def test_criterion_4_fresnel_interface():
    results = []
    r, _ = fresnel_interface(3.155)
    check(
        results, "C4 interface reflection 26.9 +- 0.1 pts",
        abs(100.0 * r * r - 26.9) <= 0.1, f"r^2={100.0 * r * r:.2f}%",
    )
    finish(results)


def test_criterion_5_gap_loss_model(ridge_mode):
    results = []
    # lambda/20 sampling: ten points per half-wave fringe
    steps = 71
    rows = loss_spectrum(ridge_mode, 0.3, 3.0, steps)
    d = np.array([r[0] for r in rows])
    loss = np.array([r[3] for r in rows])
    step = d[1] - d[0]
    peaks = [
        i for i in range(1, steps - 1)
        if loss[i] >= loss[i - 1] and loss[i] >= loss[i + 1]
    ]
    ok = len(peaks) >= 5
    worst = 0.0
    for i in peaks:
        # quadratic refinement of the sampled maximum
        denom = loss[i - 1] - 2 * loss[i] + loss[i + 1]
        d_peak = d[i] + 0.5 * step * (loss[i - 1] - loss[i + 1]) / denom
        m = round(d_peak / (WL_UM / 2.0))
        err = abs(d_peak - m * WL_UM / 2.0)
        worst = max(worst, err)
        ok = ok and m >= 1 and err <= step
    check(
        results, "C5 loss maxima at m*lambda/2 within one scan step", ok,
        f"{len(peaks)} maxima, worst offset {worst:.3f} um vs step {step:.3f} um",
    )
    worst_gap = 0.0
    for d_test in (0.78, 1.17, 1.96, 2.73):
        cfg = GapConfig(d_um=d_test)
        semi = gap_scattering(ridge_mode, cfg)
        brute = brute_force_gap_scattering(ridge_mode, cfg, n_bounces=48)
        worst_gap = max(worst_gap, abs(semi.loss - brute.loss))
    check(
        results, "C5 series vs explicit bounce simulation within 1e-4",
        worst_gap < 1e-4, f"max |delta loss| = {worst_gap:.2e}",
    )
    finish(results)


def test_criterion_6_composite_round_trip(ridge_mode):
    results = []
    cfg = GapConfig(d_um=1.96)
    phases, rrt = round_trip_phase_scan(ridge_mode, cfg, 720)
    constructive = float(rrt.min())
    destructive = float(rrt.max())
    # Known shortfall: the coherent series applied to a mode whose single-pass
    # gap loss is ~6% returns ~0.89 at the constructive phase, not the quoted
    # 0.93 (which equals the gap's own transmission, i.e. an incoherent
    # two-crossing estimate).  Asserted as stated rather than re-tuned.
    check(
        results, "C6 constructive r_rt = 0.93 +- 0.02",
        abs(constructive - 0.93) <= 0.02, f"min r_rt = {constructive:.4f}",
    )
    check(
        results, "C6 destructive r_rt >= 0.99",
        destructive >= 0.99, f"max r_rt = {destructive:.4f}",
    )
    implied = finesse_from_round_trip(0.93)
    check(
        results, "C6 finesse at r_rt 0.93 = 43 +- 4 (vs quoted 40)",
        abs(implied - 43.0) <= 4.0 and abs(implied - 40.0) <= 4.0,
        f"F(0.93)={implied:.1f}",
    )
    g = round_trip_amplitude(
        CavitySpec(length_um=300.0, n_group=3.50, alpha_per_cm=1.03,
                   gap_round_trip_amplitude=0.93)
    )
    fin = finesse_from_round_trip(g)
    check(
        results, "C6 gapped finesse over 300 um = 30 +- 3",
        abs(fin - 30.0) <= 3.0, f"F={fin:.1f}",
    )
    finish(results)


def test_criterion_7_field_enhancement(ridge_mode):
    results = []
    cfg = GapConfig(d_um=1.96)
    phases, rrt = round_trip_phase_scan(ridge_mode, cfg, 720)
    ratio = field_enhancement(ridge_mode, cfg, float(phases[np.argmin(rrt)]))
    check(
        results, "C7 constructive enhancement = n_interface +- 10%",
        abs(ratio - cfg.n_interface) <= 0.10 * cfg.n_interface,
        f"ratio={ratio:.3f} vs n={cfg.n_interface}",
    )
    finish(results)


def test_criterion_8_cqed_budget():
    results = []
    atom = AtomParams()
    spec = CavitySpec(length_um=300.0, n_group=3.50, alpha_per_cm=1.03)
    budget = full_budget(9.9, spec, 0.93, atom)
    g = budget.g_over_2pi_MHz
    check(results, "C8 g/2pi = 120 MHz +- 10%", abs(g - 120.0) <= 12.0, f"g={g:.1f} MHz")
    kappa = budget.kappa_total_over_2pi_GHz
    check(
        results, "C8 kappa/2pi = 4.8 +- 0.3 GHz after kappa_T = kappa_intr",
        abs(kappa - 4.8) <= 0.3 and budget.kappa_T_over_2pi_GHz == budget.kappa_intr_over_2pi_GHz,
        f"kappa={kappa:.2f} GHz",
    )
    check(
        results, "C8 cooperativity = 1.0 +- 0.2",
        abs(budget.cooperativity - 1.0) <= 0.2, f"C={budget.cooperativity:.3f}",
    )
    finish(results)


def test_criterion_9_mode_solver(ridge_mode):
    results = []
    area = ridge_mode.mode_area_um2
    check(
        results, "C9 mode area 9.9 um^2 +- 20%",
        abs(area - 9.9) <= 0.2 * 9.9, f"A={area:.2f} um^2",
    )
    from ridgecav import GridSpec, WaveguideGeometry, solve_fundamental_mode

    geo = WaveguideGeometry(
        ridge_width_um=24.0, ridge_height_um=10.0, core_thickness_um=4.0,
        n_core=3.155, n_clad=3.145, wavelength_nm=780.0,
    )
    grid = GridSpec(nx=256, ny=128, window_x_um=32.0, window_y_um=28.0)
    n_eff = solve_fundamental_mode(geo, grid).n_eff
    analytic = slab_n_eff_analytic(3.155, 3.145, 4.0, 0.780)
    check(
        results, "C9 slab-limit n_eff matches analytic dispersion to 1e-4",
        abs(n_eff - analytic) <= 1e-4,
        f"n_eff={n_eff:.6f} vs {analytic:.6f}",
    )
    finish(results)


def test_criterion_10_property_suites(ridge_mode, tmp_path, capsys):
    results = []
    f = make_gaussian(2.0)
    power_ok = all(
        abs(propagate_free_space(f, d).power() - f.power()) < 1e-9
        for d in (0.7, 5.0, 30.0)
    )
    check(results, "C10 power conservation to 1e-9", power_ok)
    one_hop = propagate_free_space(f, 7.3)
    two_hops = propagate_free_space(propagate_free_space(f, 3.1), 4.2)
    semigroup = float(np.max(np.abs(one_hop.amplitudes - two_hops.amplitudes)))
    check(results, "C10 semigroup property to 1e-9", semigroup < 1e-9, f"max diff {semigroup:.1e}")
    g = propagate_free_space(f, 3.0)
    check(
        results, "C10 |overlap| <= 1",
        abs(overlap(f, g)) <= 1.0 + 1e-12 and abs(overlap(f, f)) <= 1.0 + 1e-12,
    )
    res = gap_scattering(ridge_mode, GapConfig(d_um=1.3))
    check(
        results, "C10 R + T + loss = 1 and loss >= 0",
        abs(res.R + res.T + res.loss - 1.0) < 1e-12 and res.loss >= -1e-6,
    )
    data = [(260.0, 21.74), (650.0, 16.86), (1300.0, 12.26)]
    fit_a, fit_b = fit_losses(data), fit_losses(data)
    check(
        results, "C10 fit determinism",
        fit_a.R_fit == fit_b.R_fit and fit_a.alpha_fit_per_cm == fit_b.alpha_fit_per_cm,
    )
    cfg_text = (
        "[waveguide]\nridge_width_um = 4.0\nridge_height_um = 4.0\n"
        "core_thickness_um = 4.0\nn_core = 3.155\nn_clad = 3.145\n"
        "wavelength_nm = 780.0\n\n[budget]\nmode_area_um2 = 9.9\n"
        "gap_amplitude = 0.93\n"
    )
    cfg_path = tmp_path / "acceptance.cfg"
    cfg_path.write_text(cfg_text)
    capsys.readouterr()  # flush the check lines printed so far
    assert main(["budget", str(cfg_path), "--out", str(tmp_path)]) == 0
    out1 = capsys.readouterr().out
    assert main(["budget", str(cfg_path), "--out", str(tmp_path)]) == 0
    out2 = capsys.readouterr().out
    check(results, "C10 CLI byte-identical reruns", out1 == out2)
    finish(results)


def test_criterion_11_trap():
    results = []
    rb_mass = 1.44316e-25
    harmonic = TrapConfig(
        omega_trap_2pi_kHz=9.0, atom_mass_kg=rb_mass, c4_J_m4=0.0,
        gap_width_um=2.0, z_samples=401,
    )
    res = trap_analysis(harmonic)
    step = harmonic.gap_width_um / harmonic.z_samples
    check(
        results, "C11 pure-harmonic recovery",
        res["has_minimum"] and abs(res["min_position_um"]) <= step,
        f"min at {res['min_position_um']:.4f} um",
    )
    exists = [
        trap_analysis(
            TrapConfig(
                omega_trap_2pi_kHz=9.0, atom_mass_kg=rb_mass, c4_J_m4=1.2e-55,
                gap_width_um=w, z_samples=401,
            )
        )["has_minimum"]
        for w in np.linspace(0.2, 4.0, 16)
    ]
    first_true = exists.index(True) if True in exists else len(exists)
    monotone = (
        not exists[0] and exists[-1]
        and all(exists[first_true:]) and not any(exists[:first_true])
    )
    check(results, "C11 trap existence monotone in gap width", monotone)
    reference = trap_analysis(
        TrapConfig(
            omega_trap_2pi_kHz=9.0, atom_mass_kg=rb_mass, c4_J_m4=1.2e-55,
            gap_width_um=2.0, z_samples=401,
        )
    )
    check(
        results, "C11 reference 2 um gap holds a bounded well",
        reference["has_minimum"] and reference["barrier_height_uK"] > 0.0,
        f"barrier {reference['barrier_height_uK']:.2f} uK",
    )
    finish(results)
