import numpy as np
import pytest
from hypothesis import given, strategies as st

from ridgecav import (
    CavitySpec,
    MirrorStack,
    alpha_from_linewidth,
    finesse_from_round_trip,
    fit_losses,
    free_spectral_range_ghz,
    linewidth_ghz,
    quarter_wave_stack,
    round_trip_amplitude,
    stack_reflectivity,
)

C_M_S = 2.99792e8


def finesse_direct(g):
    return np.pi * np.sqrt(g) / (1.0 - g)


def g_direct(big_r, alpha_per_cm, length_um):
    return big_r * np.exp(-alpha_per_cm * length_um * 1e-4)


# --- finesse / round trip -------------------------------------------------

def test_finesse_reference_values():
    assert finesse_from_round_trip(g_direct(0.89, 1.07, 260.0)) == pytest.approx(21.7, abs=0.1)
    assert finesse_from_round_trip(g_direct(1.0, 1.03, 330.0)) == pytest.approx(92.4, abs=0.1)
    assert finesse_from_round_trip(0.93) == pytest.approx(43.3, abs=0.1)


def test_finesse_domain():
    for bad in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            finesse_from_round_trip(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, np.float32(np.inf)],
                         ids=["nan", "inf", "float32-inf"])
@pytest.mark.parametrize("name, call", [
    pytest.param("g_rt", finesse_from_round_trip, id="finesse-g_rt"),
    pytest.param("length_um", lambda x: free_spectral_range_ghz(x, 3.5), id="fsr-length"),
    pytest.param("n_group", lambda x: free_spectral_range_ghz(330.0, x), id="fsr-n_group"),
    pytest.param("finesse", lambda x: linewidth_ghz(x, 129.0), id="linewidth-finesse"),
    pytest.param("fsr_ghz", lambda x: linewidth_ghz(30.0, x), id="linewidth-fsr"),
    pytest.param("width_2kappa_ghz", lambda x: alpha_from_linewidth(x, 330.0, 3.5, 0.994),
                 id="alpha-width"),
    pytest.param("length_um", lambda x: alpha_from_linewidth(1.4, x, 3.5, 0.994),
                 id="alpha-length"),
    pytest.param("n_group", lambda x: alpha_from_linewidth(1.4, 330.0, x, 0.994),
                 id="alpha-n_group"),
    pytest.param("mirror_R", lambda x: alpha_from_linewidth(1.4, 330.0, 3.5, x),
                 id="alpha-mirror_R"),
    pytest.param("pairs", quarter_wave_stack, id="stack-pairs"),
])
def test_scalar_arguments_reject_non_finite(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
        call(bad)


def test_finesse_monotone_and_divergent():
    gs = np.linspace(0.05, 0.999, 40)
    fs = [finesse_from_round_trip(g) for g in gs]
    assert all(b > a for a, b in zip(fs, fs[1:]))
    assert finesse_from_round_trip(0.999999) > 1e6


def test_round_trip_amplitude_components():
    assert round_trip_amplitude(
        CavitySpec(length_um=100.0, n_group=3.5, alpha_per_cm=0.0,
                   mirror_R_left=0.89, mirror_R_right=0.89)
    ) == pytest.approx(0.89)
    spec = CavitySpec(length_um=300.0, n_group=3.5, alpha_per_cm=1.03,
                      gap_round_trip_amplitude=0.93)
    g = round_trip_amplitude(spec)
    assert g == pytest.approx(0.93 * np.exp(-1.03 * 300e-4), rel=1e-12)
    assert finesse_from_round_trip(g) == pytest.approx(30.3, abs=0.1)


def test_unit_round_trip_is_rejected_by_finesse():
    g = round_trip_amplitude(CavitySpec(length_um=100.0, n_group=3.5))
    assert g == 1.0
    with pytest.raises(ValueError):
        finesse_from_round_trip(g)


# --- FSR / linewidth ------------------------------------------------------

def test_fsr_reference_values():
    assert free_spectral_range_ghz(330.0, 3.50) == pytest.approx(
        C_M_S / (2 * 3.5 * 330e-6) / 1e9, rel=1e-12
    )
    assert free_spectral_range_ghz(330.0, 3.50) == pytest.approx(129.0, abs=1.0)
    assert free_spectral_range_ghz(300.0, 3.50) == pytest.approx(142.8, abs=0.2)


def test_fsr_definition_check():
    length_um = C_M_S / 2.0 * 1e-9 * 1e6  # c/2 * (1 GHz)^-1 expressed in um
    assert free_spectral_range_ghz(length_um, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_linewidth_reference_values():
    fsr = free_spectral_range_ghz(330.0, 3.50)
    fin = finesse_from_round_trip(g_direct(1.0, 1.03, 330.0))
    assert linewidth_ghz(fin, fsr) == pytest.approx(1.4, abs=0.1)
    fsr300 = free_spectral_range_ghz(300.0, 3.50)
    assert linewidth_ghz(30.0, fsr300) == pytest.approx(4.76, abs=0.02)
    assert linewidth_ghz(fsr, fsr) == pytest.approx(1.0, rel=1e-12)


# --- alpha from linewidth ---------------------------------------------------

def test_alpha_from_linewidth_round_trip_identity():
    big_r, alpha, length, n_g = 0.994, 0.9, 330.0, 3.50
    g = g_direct(big_r, alpha, length)
    width = linewidth_ghz(finesse_from_round_trip(g), free_spectral_range_ghz(length, n_g))
    back = alpha_from_linewidth(width, length, n_g, big_r)
    assert back == pytest.approx(alpha, abs=1e-9)


def test_alpha_from_measured_linewidth_with_ideal_mirrors():
    # mirror transmission neglected against the single-trip propagation loss
    alpha = alpha_from_linewidth(1.4, 330.0, 3.50, 1.0)
    assert alpha == pytest.approx(1.03, abs=0.06)


def test_alpha_no_solution_when_width_vanishes():
    with pytest.raises(ValueError):
        alpha_from_linewidth(1e-12, 330.0, 3.50, 0.994)
    with pytest.raises(ValueError):
        alpha_from_linewidth(0.0, 330.0, 3.50, 0.994)


# --- mirror stacks ----------------------------------------------------------

def admittance_reflectivity(n_in, n_out, layer_indices):
    """Quarter-wave admittance recursion, independent of the matrix code."""
    y = n_out
    for n in reversed(layer_indices):
        y = n * n / y
    r = (n_in - y) / (n_in + y)
    return r * r


def test_empty_stack_reduces_to_fresnel():
    stack = MirrorStack(layers=(), n_incident=3.155, n_exit=1.0)
    assert stack_reflectivity(stack, 780.0) == pytest.approx(0.269, abs=1e-3)


@pytest.mark.parametrize("pairs,expected_pct,tol_pts", [(3, 91.3, 1.5), (6, 99.4, 0.3)])
def test_quarter_wave_stack_reference(pairs, expected_pct, tol_pts):
    stack = quarter_wave_stack(pairs)
    refl = 100.0 * stack_reflectivity(stack, 780.0)
    assert refl == pytest.approx(expected_pct, abs=tol_pts)
    indices = [n for n, _ in stack.layers]
    oracle = 100.0 * admittance_reflectivity(3.155, 1.0, indices)
    assert refl == pytest.approx(oracle, abs=1e-9)


def test_stack_reflectivity_monotone_in_pairs():
    vals = [stack_reflectivity(quarter_wave_stack(p), 780.0) for p in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_stack_validation():
    with pytest.raises(ValueError):
        MirrorStack(layers=((0.9, 100.0),), n_incident=3.155, n_exit=1.0)
    with pytest.raises(ValueError):
        MirrorStack(layers=((1.5, -5.0),), n_incident=3.155, n_exit=1.0)
    for layer in ((np.nan, 100.0), (np.inf, 100.0), (1.5, np.nan), (1.5, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            MirrorStack(layers=(layer,), n_incident=3.155, n_exit=1.0)
    with pytest.raises(ValueError, match="n_exit must be >= 1, got 0.5"):
        MirrorStack(layers=(), n_incident=3.155, n_exit=0.5)


# --- loss fit ---------------------------------------------------------------

REF_LENGTHS = (260.0, 650.0, 1300.0)


def synth_data(big_r, alpha, lengths=REF_LENGTHS):
    return [(l, finesse_direct(g_direct(big_r, alpha, l))) for l in lengths]


def test_fit_recovers_noiseless_parameters():
    result = fit_losses(synth_data(0.89, 1.07))
    assert result.R_fit == pytest.approx(0.89, abs=1e-6)
    assert result.alpha_fit_per_cm == pytest.approx(1.07, abs=1e-6)
    assert result.residual_norm < 1e-8
    assert not result.rank_deficient


@pytest.mark.parametrize("big_r", [0.5, 0.9, 0.999])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_fit_recovery_across_parameter_box(big_r, alpha):
    result = fit_losses(synth_data(big_r, alpha))
    assert result.R_fit == pytest.approx(big_r, rel=1e-6, abs=1e-8)
    assert result.alpha_fit_per_cm == pytest.approx(alpha, rel=1e-6, abs=1e-8)


@given(
    big_r=st.floats(0.6, 0.95),
    alpha=st.floats(0.5, 3.0),
    lengths=st.lists(st.floats(100.0, 2000.0), min_size=3, max_size=7, unique=True),
)
def test_fit_recovers_any_noiseless_parameters(big_r, alpha, lengths):
    result = fit_losses(synth_data(big_r, alpha, lengths))
    assert abs(result.R_fit - big_r) < 1e-8
    assert abs(result.alpha_fit_per_cm - alpha) < 1e-8


def test_fit_covariance_tracks_monte_carlo_scatter():
    rng = np.random.default_rng(42)
    truth_alpha = 1.07
    base = synth_data(0.89, truth_alpha)
    alphas, sigmas = [], []
    for _ in range(200):
        noisy = [(l, f * (1.0 + 0.03 * rng.standard_normal())) for l, f in base]
        res = fit_losses(noisy)
        alphas.append(res.alpha_fit_per_cm)
        sigmas.append(res.sigma_alpha)
    alphas = np.array(alphas)
    sigmas = np.array(sigmas)
    scatter = alphas.std(ddof=1)
    assert abs(alphas.mean() - truth_alpha) < scatter
    reported = np.sqrt(np.mean(sigmas**2))
    assert reported == pytest.approx(scatter, rel=0.30)


def test_fit_weighted_branch_uses_sigmas():
    data = [(l, f, 0.05 * f) for l, f in synth_data(0.89, 1.07)]
    result = fit_losses(data)
    assert result.R_fit == pytest.approx(0.89, abs=1e-6)
    assert result.alpha_fit_per_cm == pytest.approx(1.07, abs=1e-6)


def test_fit_requires_enough_data():
    with pytest.raises(ValueError):
        fit_losses(synth_data(0.89, 1.07)[:2])
    with pytest.raises(ValueError):
        fit_losses([(260.0, 21.7), (260.0, 21.8), (260.0, 21.6)])


def test_fit_is_deterministic():
    data = synth_data(0.9, 1.3)
    a = fit_losses(data)
    b = fit_losses(data)
    assert a.R_fit == b.R_fit
    assert a.alpha_fit_per_cm == b.alpha_fit_per_cm
    assert a.sigma_R == b.sigma_R
    assert a.sigma_alpha == b.sigma_alpha


def test_fit_covariance_is_symmetric_psd():
    res = fit_losses(synth_data(0.89, 1.07))
    cov = res.covariance
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) >= -1e-20)


def test_cavity_spec_validation():
    with pytest.raises(ValueError):
        CavitySpec(length_um=-1.0, n_group=3.5)
    with pytest.raises(ValueError):
        CavitySpec(length_um=100.0, n_group=3.5, mirror_R_left=1.2)
    with pytest.raises(ValueError):
        CavitySpec(length_um=100.0, n_group=3.5, gap_round_trip_amplitude=0.0)
