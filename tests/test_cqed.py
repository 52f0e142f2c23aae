import math

import pytest

from ridgecav import (
    AtomParams,
    CavitySpec,
    cooperativity,
    coupling_g_MHz,
    finesse_from_round_trip,
    free_spectral_range_ghz,
    full_budget,
    linewidth_ghz,
    round_trip_amplitude,
)

RB = AtomParams()  # D2-line defaults


def test_coupling_reference_value():
    g = coupling_g_MHz(9.9, 300.0, RB)
    assert g == pytest.approx(120.0, rel=0.10)


def test_coupling_independent_formula():
    # direct evaluation of d/hbar sqrt(hbar w / 2 eps0 V) with the same constants
    hbar, eps0, c = 1.05457e-34, 8.85419e-12, 2.99792e8
    vol = 9.9e-12 * 300e-6
    omega = 2 * math.pi * c / 780e-9
    g_expected = RB.dipole_Cm * math.sqrt(hbar * omega / (2 * eps0 * vol)) / hbar
    assert coupling_g_MHz(9.9, 300.0, RB) == pytest.approx(
        g_expected / (2 * math.pi) / 1e6, rel=1e-9
    )


def test_coupling_volume_scaling():
    g1 = coupling_g_MHz(9.9, 300.0, RB)
    assert coupling_g_MHz(4 * 9.9, 300.0, RB) == pytest.approx(g1 / 2.0, rel=1e-12)
    assert coupling_g_MHz(9.9, 4 * 300.0, RB) == pytest.approx(g1 / 2.0, rel=1e-12)
    assert coupling_g_MHz(9.9, 330.0, RB) == pytest.approx(
        g1 * math.sqrt(300.0 / 330.0), rel=1e-12
    )


def test_cooperativity_reference_value():
    assert cooperativity(120.0, 4.8, 3.0) == pytest.approx(1.0, rel=1e-9)


def test_cooperativity_linearity_and_enhancement():
    base = cooperativity(120.0, 4.8, 3.0)
    assert cooperativity(120.0, 9.6, 3.0) == pytest.approx(base / 2.0, rel=1e-12)
    enh = 3.155**2
    assert cooperativity(120.0, 4.8, 3.0, enhancement=enh) == pytest.approx(
        base * enh, rel=1e-12
    )
    assert enh == pytest.approx(10.0, abs=0.1)


def test_cooperativity_unit_discipline():
    # C is a rate ratio: expressing every rate in Hz or in rad/s must agree
    g_hz, kappa_hz, gamma_hz = 120e6, 4.8e9, 3e6
    c_hz = g_hz**2 / (kappa_hz * gamma_hz)
    two_pi = 2 * math.pi
    c_rad = (two_pi * g_hz) ** 2 / ((two_pi * kappa_hz) * (two_pi * gamma_hz))
    assert c_hz == pytest.approx(c_rad, rel=1e-12)
    assert cooperativity(120.0, 4.8, 3.0) == pytest.approx(c_hz, rel=1e-12)


def test_cooperativity_invariant_under_g_kappa_scaling():
    s = 1.7
    base = cooperativity(100.0, 2.0, 3.0)
    assert cooperativity(s * 100.0, s * s * 2.0, 3.0) == pytest.approx(base, rel=1e-12)


def test_full_budget_reference_pipeline():
    spec = CavitySpec(length_um=300.0, n_group=3.50, alpha_per_cm=1.03)
    budget = full_budget(9.9, spec, 0.93, RB)
    assert budget.finesse == pytest.approx(30.0, abs=3.0)
    assert 2.0 * budget.kappa_intr_over_2pi_GHz == pytest.approx(4.8, abs=0.3)
    assert budget.kappa_total_over_2pi_GHz == pytest.approx(4.8, abs=0.3)
    assert budget.cooperativity == pytest.approx(1.0, abs=0.2)
    assert not budget.divergent


def test_full_budget_matches_manual_composition():
    spec = CavitySpec(
        length_um=300.0, n_group=3.50, alpha_per_cm=1.03,
        gap_round_trip_amplitude=0.93,
    )
    budget = full_budget(9.9, spec, None, RB, enhancement=1.0)
    g_rt = round_trip_amplitude(spec)
    fin = finesse_from_round_trip(g_rt)
    fsr = free_spectral_range_ghz(300.0, 3.50)
    kappa_intr = linewidth_ghz(fin, fsr) / 2.0
    # mirror transmission rate chosen equal to the intrinsic rate
    kappa_t, kappa_total = kappa_intr, 2.0 * kappa_intr
    g_mhz = coupling_g_MHz(9.9, 300.0, RB)
    coop = cooperativity(g_mhz, kappa_total, RB.gamma_half_MHz)
    assert budget.finesse == fin
    assert budget.fsr_GHz == fsr
    assert budget.kappa_intr_over_2pi_GHz == kappa_intr
    assert budget.kappa_T_over_2pi_GHz == kappa_t
    assert budget.kappa_total_over_2pi_GHz == kappa_total
    assert budget.g_over_2pi_MHz == g_mhz
    assert budget.cooperativity == coop


def test_full_budget_divergence_guard():
    spec = CavitySpec(length_um=300.0, n_group=3.50, alpha_per_cm=0.0)
    budget = full_budget(9.9, spec, 1.0, RB)
    assert budget.divergent
    assert budget.kappa_total_over_2pi_GHz == 0.0
    assert math.isinf(budget.cooperativity)


def test_full_budget_scaling_with_length():
    spec1 = CavitySpec(length_um=300.0, n_group=3.50, alpha_per_cm=0.0,
                       gap_round_trip_amplitude=0.93)
    spec4 = CavitySpec(length_um=1200.0, n_group=3.50, alpha_per_cm=0.0,
                       gap_round_trip_amplitude=0.93)
    b1 = full_budget(9.9, spec1, None, RB)
    b4 = full_budget(9.9, spec4, None, RB)
    assert b4.g_over_2pi_MHz == pytest.approx(b1.g_over_2pi_MHz / 2.0, rel=1e-12)
    assert b4.fsr_GHz == pytest.approx(b1.fsr_GHz / 4.0, rel=1e-12)


def test_full_budget_accepts_solved_mode(ridge_mode):
    spec = CavitySpec(length_um=300.0, n_group=3.50, alpha_per_cm=1.03)
    budget = full_budget(ridge_mode.mode_area_um2, spec, 0.93, RB)
    expected_g = coupling_g_MHz(ridge_mode.mode_area_um2, 300.0, RB)
    assert budget.g_over_2pi_MHz == pytest.approx(expected_g, rel=1e-12)


def test_atom_params_validation():
    with pytest.raises(ValueError):
        AtomParams(dipole_Cm=-1.0)
    with pytest.raises(ValueError):
        AtomParams(gamma_half_MHz=0.0)


def test_cooperativity_argument_guards():
    with pytest.raises(ValueError):
        cooperativity(120.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        cooperativity(120.0, 4.8, 3.0, enhancement=0.5)
