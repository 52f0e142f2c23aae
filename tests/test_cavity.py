import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import least_squares

from ridgecav import (
    CavitySpec,
    FitDiverged,
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
from ridgecav import cavity

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


@pytest.mark.parametrize("width, got", [
    pytest.param(1e10, "inf", id="g-cancels-to-0"),
    pytest.param(1e300, "inf", id="finesse-underflows"),
    pytest.param(1e-300, "-inf", id="finesse-squared-overflows"),
    pytest.param(1e-320, "nan", id="finesse-overflows"),
])
def test_alpha_rejects_a_width_outside_the_closed_form(width, got):
    # at 300 um, n_g 3.5 and R 0.9 these gave inf or NaN, or raised
    # OverflowError from F^2; each now names the width, with no warning
    message = rf"^alpha at width_2kappa_ghz = \S+ must be finite, got {got}$"
    with pytest.raises(ValueError, match=message):
        alpha_from_linewidth(width, 300.0, 3.5, 0.9)


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


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_high=1e308), "> 0, got 0.0: wavelength_nm / (4 n_high) at wavelength_nm = 780, "
                         "n_high = 1e+308"),
    (dict(n_low=1e308), "> 0, got 0.0: wavelength_nm / (4 n_low) at wavelength_nm = 780, "
                        "n_low = 1e+308"),
    (dict(wavelength_nm=np.inf), "finite, got inf: wavelength_nm / (4 n_low) at "
                                 "wavelength_nm = inf, n_low = 1.5"),
], ids=["n_high", "n_low", "wavelength"])
def test_quarter_wave_stack_names_what_breaks_a_layer(kwargs, message):
    # 4 n overflows to inf, so lambda / (4 n) is 0: the error names the index and wavelength
    with pytest.raises(ValueError, match=f"^layer thickness_nm must be {re.escape(message)}$"):
        quarter_wave_stack(3, **kwargs)
    assert quarter_wave_stack(0, **kwargs).layers == ()  # no layer, nothing to break


def test_stack_reflectivity_monotone_in_pairs():
    vals = [stack_reflectivity(quarter_wave_stack(p), 780.0) for p in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("wavelength_nm, message", [
    (0.0, "must be > 0, got 0.0"), (-780.0, "must be > 0, got -780.0"),
    (np.nan, "must be finite, got nan"), (np.inf, "must be finite, got inf"),
])
def test_stack_reflectivity_rejects_a_bad_wavelength(wavelength_nm, message):
    with pytest.raises(ValueError, match=rf"^wavelength_nm {message}$"):
        stack_reflectivity(quarter_wave_stack(3), wavelength_nm)


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
    # an incidence medium of any index from 1 up is accepted; a bare 1.5 -> 1 facet reflects 4%
    for n_incident in (1.0, 1.5, 1.999):
        assert MirrorStack(layers=(), n_incident=n_incident, n_exit=1.0).n_incident == n_incident
    bare = MirrorStack(layers=(), n_incident=1.5, n_exit=1.0)
    assert stack_reflectivity(bare, 780.0) == pytest.approx(0.04, rel=1e-12)


# --- loss fit ---------------------------------------------------------------

REF_LENGTHS = (260.0, 650.0, 1300.0)
# fit_losses against SciPy's least_squares on noisy data, about 4x the largest
# gaps over 2,000 seeded examples: R and alpha 5.4e-7 of their sigmas (2.7e-8
# relative on R, 1.6e-7 /cm on alpha), the sigmas 7.8e-7 relative, the
# residual norm 1.4e-12 relative.  least_squares stops less close to the
# minimum on ill-conditioned data, and differentiates by finite differences.
TOL_PARAM_IN_SIGMAS = 2e-6
TOL_SIGMA = 3e-6
TOL_RESIDUAL = 1e-11


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


def least_squares_fit(data):
    """Reference: the loss fit as scipy.optimize.least_squares solved it.

    Same start values, bounds and tolerances; the Jacobian is SciPy's
    finite-difference one.  Returns (R, alpha, sigma_R, sigma_alpha,
    residual_norm).
    """
    rows = np.array(data, dtype=float)
    lengths, finesses = rows[:, 0], rows[:, 1]
    sigmas = rows[:, 2] if rows.shape[1] == 3 else None

    def g_of(f):
        x = (-np.pi + np.sqrt(np.pi**2 + 4.0 * f**2)) / (2.0 * f)
        return x * x

    r0 = float(np.clip(g_of(finesses.max()), 0.05, 0.9999))
    i_lo, i_hi = int(np.argmin(lengths)), int(np.argmax(lengths))
    alpha0 = np.log(max(g_of(finesses[i_lo]), 1e-12) / max(g_of(finesses[i_hi]), 1e-12)) / (
        (lengths[i_hi] - lengths[i_lo]) * 1e-4)
    alpha0 = float(np.clip(alpha0, 1e-6, 1e3))

    def residuals(params):
        g = np.clip(params[0] * np.exp(-params[1] * 1e-4 * lengths), 1e-12, 1.0 - 1e-12)
        res = np.pi * np.sqrt(g) / (1.0 - g) - finesses
        return res / sigmas if sigmas is not None else res

    sol = least_squares(residuals, x0=[r0, alpha0], bounds=([1e-9, 0.0], [1.0 - 1e-12, np.inf]),
                        xtol=1e-10, ftol=1e-12, gtol=1e-12, max_nfev=600)
    assert sol.success
    cov = np.linalg.inv(sol.jac.T @ sol.jac)
    if sigmas is None:
        cov = cov * (2.0 * sol.cost / max(len(rows) - 2, 1))
    return (*sol.x, *np.sqrt(np.diag(cov)), np.sqrt(2.0 * sol.cost))


@given(
    big_r=st.floats(0.6, 0.95),
    # a negative alpha makes the finesse rise with length: the fit lands on alpha = 0
    alpha=st.floats(-0.2, 3.0),
    lengths=st.lists(st.integers(1, 20), min_size=3, max_size=7, unique=True),
    # seeded 0.1-3% noise of either sign: on data the model fits exactly (equal
    # noise at every length, say) least_squares stops early at its own floor
    seed=st.integers(0, 2**32 - 1),
    weighted=st.booleans(),
)
@example(big_r=0.89, alpha=-0.2, lengths=[2, 6, 13], seed=0, weighted=False)  # alpha = 0
@example(big_r=0.89, alpha=1.07, lengths=[2, 6, 13], seed=0, weighted=True)
def test_fit_matches_least_squares(big_r, alpha, lengths, seed, weighted):
    rng = np.random.default_rng(seed)
    data = []
    for k in lengths:
        f = finesse_direct(g_direct(big_r, alpha, 100.0 * k))
        f *= 1.0 + rng.uniform(0.001, 0.03) * rng.choice((-1.0, 1.0))
        data.append((100.0 * k, f, 0.02 * f) if weighted else (100.0 * k, f))
    want = least_squares_fit(data)
    got = fit_losses(data)
    assert abs(got.R_fit - want[0]) <= TOL_PARAM_IN_SIGMAS * want[2]
    assert abs(got.alpha_fit_per_cm - want[1]) <= TOL_PARAM_IN_SIGMAS * want[3]
    assert got.sigma_R == pytest.approx(want[2], rel=TOL_SIGMA)
    assert got.sigma_alpha == pytest.approx(want[3], rel=TOL_SIGMA)
    assert got.residual_norm == pytest.approx(want[4], rel=TOL_RESIDUAL)
    if want[1] < 1e-12:
        assert got.alpha_fit_per_cm == 0.0


@pytest.mark.parametrize("data, row", [
    ([(260.0, 21.7, 0.5), (650.0, 16.9), (1300.0, 12.3, 0.5)], 1),
    ([(260.0, 21.7), (650.0, 16.9), (1300.0, 12.3, 0.5, 0.1)], 2),
    ([(260.0, 21.7), (650.0,), (1300.0, 12.3)], 1),
], ids=["missing-sigma", "four-entries", "one-entry"])
def test_fit_rejects_malformed_rows(data, row):
    with pytest.raises(ValueError, match=f"^data row {row} "):
        fit_losses(data)


@pytest.mark.parametrize("data, message", [
    ([(0.0, 21.7), (650.0, 16.9), (1300.0, 12.3)], "lengths and finesses must be positive"),
    ([(260.0, 21.7), (650.0, -16.9), (1300.0, 12.3)], "lengths and finesses must be positive"),
    ([(260.0, 21.7), (650.0, 0.0), (1300.0, 12.3)], "lengths and finesses must be positive"),
    ([(260.0, 21.7, 0.5), (650.0, 16.9, 0.0), (1300.0, 12.3, 0.5)],
     "finesse sigmas must be positive"),
], ids=["zero-length", "negative-finesse", "zero-finesse", "zero-sigma"])
def test_fit_rejects_non_positive_data(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_losses(data)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_fit_rejects_sigmas_that_overflow_the_residuals():
    with pytest.raises(ValueError, match="start values must be finite, got inf"):
        fit_losses([(260.0, 21.7, 1e-320), (650.0, 16.9, 0.5), (1300.0, 12.3, 0.5)])


def test_fit_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(cavity, "_MAX_STEPS", 1)
    with pytest.raises(FitDiverged, match="step limit 1"):
        fit_losses(synth_data(0.89, 1.07))


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
