from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from ridgecav import (
    AtomParams,
    CavitySpec,
    GapConfig,
    GapResult,
    GridSpec,
    ModeSolution,
    SeriesNotConverged,
    brute_force_gap_scattering,
    composite_round_trip,
    field_enhancement,
    fresnel_interface,
    full_budget,
    gap_scattering,
    loss_spectrum,
    propagate_free_space,
    round_trip_phase_scan,
    solve_fundamental_mode,
)
from ridgecav import gap as gap_module, propagation, waveguide
from ridgecav.fields import SampledField
from ridgecav.gap import _bounce_sums, _interface, _num_terms, _series
from ridgecav.propagation import _band, _spectrum
from conftest import GRID, RIDGE, make_gaussian, q_factors

# the default GapConfig's interface fields, as _interface takes them
_INTERFACE = (GapConfig().n_interface, GapConfig().series_tolerance, GapConfig().p_max)

WL_UM = 0.780


@pytest.mark.parametrize("R, T", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.0)])
def test_gap_result_rejects_non_finite_intensities(R, T):
    # every comparison in the check is False for NaN, so each is written to fail on it
    with pytest.raises(ValueError):
        GapResult(R=R, T=T, loss=1.0 - R - T, r_amplitude=0j, t_amplitude=0j)


def test_gap_result_rejects_a_negative_loss():
    with pytest.raises(ValueError, match=r"^loss = -0.1 is negative$"):
        GapResult(R=0.5, T=0.5, loss=-0.1, r_amplitude=0j, t_amplitude=0j)


def test_zero_field_has_no_projection():
    f = SampledField(np.zeros((64, 64)), 0.25, 0.25, 780.0)
    with pytest.raises(ValueError, match=r"^projection of a zero field is undefined$"):
        gap_scattering(f, GapConfig())


def test_fresnel_index_matched():
    r, t = fresnel_interface(1.0)
    assert r == 0.0
    assert t == 1.0


def test_fresnel_reference_indices():
    r, _ = fresnel_interface(3.155)
    assert r**2 == pytest.approx(0.269, abs=5e-4)
    r, _ = fresnel_interface(3.50)
    assert r == pytest.approx(0.5556, abs=1e-4)
    assert r**2 == pytest.approx(0.3086, abs=1e-4)


def test_fresnel_intensity_conserved():
    n = 2.7
    r, t = fresnel_interface(n)
    t_back = 2.0 / (n + 1.0)
    assert t * t_back == pytest.approx(1.0 - r**2, abs=1e-12)


def test_fresnel_rejects_sub_unity_index():
    with pytest.raises(ValueError):
        fresnel_interface(0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fresnel_rejects_non_finite_index(bad):
    with pytest.raises(ValueError, match=rf"^n must be finite, got {bad}$"):
        fresnel_interface(bad)


@pytest.mark.parametrize("scatter", [
    pytest.param(gap_scattering, id="series"),
    pytest.param(lambda f, cfg: brute_force_gap_scattering(f, cfg, n_bounces=4), id="brute-force"),
])
def test_gap_width_near_the_float_limit_is_one_error(scatter):
    # k0 d overflows: both models name the width before any arithmetic, so no
    # RuntimeWarning (an error under this suite's filter) comes ahead of it
    f = make_gaussian(2.0, nx=64, window_um=16.0)
    with pytest.raises(ValueError, match=r"^k0 d at gap width 1.7e\+308 um must be finite, got inf$"):
        scatter(f, GapConfig(d_um=1.7e308))


@pytest.mark.parametrize("scatter", [
    pytest.param(gap_scattering, id="series"),
    pytest.param(lambda f, cfg: loss_spectrum(f, 0.3, 3.0, 4, base_cfg=cfg), id="scan"),
])
def test_overflowing_spectral_power_is_one_error(scatter):
    # |F|^2 of 1e160 amplitudes overflows: the spectrum is rejected where it
    # is built, instead of NaN weights reaching the series (a scan would
    # return rows of NaN)
    g = make_gaussian(2.0, nx=64, window_um=16.0)
    f = SampledField(g.amplitudes * 1e160, g.dx_um, g.dy_um, g.wavelength_nm)
    message = r"^spectral power of the field must be finite, got inf$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
        scatter(f, GapConfig())  # the warnings off, as the CLI runs


@pytest.mark.parametrize("solved", [False, True], ids=["field", "mode"])
def test_overflowing_band_transform_is_one_error(solved):
    # F of 1e306 amplitudes on 64^2 overflows in the band transform; that
    # raises no RuntimeWarning (an error in this suite) ahead of the power check
    f = SampledField(np.full((64, 64), 1e306 + 0j), 0.25, 0.25, 780.0)
    mode = ModeSolution(f, 3.15, 1.0) if solved else f
    with pytest.raises(ValueError, match=r"^spectral power of the field must be finite, got inf$"):
        gap_scattering(mode, GapConfig())


def test_brute_force_rejects_an_overflowing_field_power():
    # normalizing by sqrt(inf) would zero the field and report R = r^2, T = 0;
    # the power is rejected without a RuntimeWarning (an error in this suite)
    g = make_gaussian(2.0, nx=64, window_um=16.0)
    f = SampledField(g.amplitudes * 1e160, g.dx_um, g.dy_um, g.wavelength_nm)
    with pytest.raises(ValueError, match=r"^field power must be finite, got inf$"):
        brute_force_gap_scattering(f, GapConfig(), n_bounces=4)


@pytest.mark.parametrize("scale", [1e3, 1e-3])
def test_brute_force_normalizes_the_field_on_its_band(ridge_mode, scale):
    # the field's power is divided out of its band spectrum, not out of a
    # normalized copy of the grid: a scaled field bounces as the mode does
    f = ridge_mode.field
    cfg = GapConfig(d_um=1.96)
    want = brute_force_gap_scattering(f, cfg, n_bounces=48)
    got = brute_force_gap_scattering(replace(f, amplitudes=scale * f.amplitudes), cfg, n_bounces=48)
    assert abs(got.R - want.R) <= 1e-15
    assert abs(got.T - want.T) <= 1e-15


def test_brute_force_rejects_a_zero_field():
    f = SampledField(np.zeros((16, 16)), dx_um=0.75, dy_um=0.75)
    with pytest.raises(ValueError, match=r"^cannot normalize a zero field$"):
        brute_force_gap_scattering(f, GapConfig(d_um=1.0), n_bounces=4)


@pytest.mark.parametrize("n_bounces", [0, -3])
def test_brute_force_needs_a_bounce(n_bounces):
    # no bounce would report R = r^2, T = 0 and the rest as loss
    f = make_gaussian(2.0, nx=64, window_um=16.0)
    with pytest.raises(ValueError, match=rf"^n_bounces must be >= 1, got {n_bounces}$"):
        brute_force_gap_scattering(f, GapConfig(d_um=1.0), n_bounces)


@pytest.mark.parametrize("n_phases", [0, -1])
def test_phase_scan_needs_a_phase(n_phases):
    f = make_gaussian(2.0, nx=64, window_um=16.0)
    with pytest.raises(ValueError, match=rf"^n_phases must be >= 1, got {n_phases}$"):
        round_trip_phase_scan(f, GapConfig(), n_phases)


def test_zero_gap_is_transparent():
    f = make_gaussian(2.0)
    res = gap_scattering(f, GapConfig(d_um=0.0))
    assert res.T == pytest.approx(1.0, abs=1e-6)
    assert res.R == pytest.approx(0.0, abs=1e-6)
    assert abs(res.loss) < 1e-6


def test_loss_vanishes_with_shrinking_gap():
    f = make_gaussian(2.0)
    losses = [gap_scattering(f, GapConfig(d_um=d)).loss for d in (0.4, 0.1, 0.02)]
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-4


def test_energy_bookkeeping(ridge_mode):
    for d in (0.5, 1.0, 1.96, 2.7):
        res = gap_scattering(ridge_mode, GapConfig(d_um=d))
        assert res.R + res.T + res.loss == pytest.approx(1.0, abs=1e-12)
        assert res.loss >= -1e-6


def test_loss_maxima_at_half_wavelength_spacing(ridge_mode):
    # scan at lambda/20 resolution: ten samples per interference fringe
    steps = 71
    rows = loss_spectrum(ridge_mode, 0.3, 3.0, steps)
    d = np.array([r[0] for r in rows])
    loss = np.array([r[3] for r in rows])
    step = d[1] - d[0]
    peaks = [
        i
        for i in range(1, steps - 1)
        if loss[i] >= loss[i - 1] and loss[i] >= loss[i + 1]
    ]
    assert len(peaks) >= 5
    for i in peaks:
        denom = loss[i - 1] - 2 * loss[i] + loss[i + 1]
        d_peak = d[i] + 0.5 * step * (loss[i - 1] - loss[i + 1]) / denom
        m = round(d_peak / (WL_UM / 2.0))
        assert abs(d_peak - m * WL_UM / 2.0) <= step


def test_loss_peak_envelope_grows_with_gap_width(ridge_mode):
    rows = loss_spectrum(ridge_mode, 0.5, 3.0, 126)  # 0.02 um steps
    loss = np.array([r[3] for r in rows])
    d = np.array([r[0] for r in rows])
    half = WL_UM / 2.0
    peak_per_period = []
    for m in range(2, 8):
        sel = (d >= (m - 0.5) * half) & (d < (m + 0.5) * half)
        if np.any(sel):
            peak_per_period.append(loss[sel].max())
    assert all(b >= a for a, b in zip(peak_per_period, peak_per_period[1:]))


def test_wider_mode_diffracts_less():
    narrow = make_gaussian(1.5)
    wide = make_gaussian(4.0)
    cfg = GapConfig(d_um=1.96)
    assert gap_scattering(wide, cfg).loss < gap_scattering(narrow, cfg).loss


def test_loss_spectrum_rows_match_gap_scattering(ridge_mode):
    # the batched width scan must give bit for bit what one call per width
    # gives: on the CLI's default 271 widths, and on 4,001 widths, which take
    # 101 blocks (the last one short) and where squaring |r_gap| with numpy's
    # square in place of pow would change 6 rows
    for d_min, d_max, steps in ((0.3, 3.0, 271), (0.0, 7.0, 4001)):
        rows = loss_spectrum(ridge_mode, d_min, d_max, steps)
        assert [row[1:] for row in rows] == [
            (res.R, res.T, res.loss)
            for res in (gap_scattering(ridge_mode, GapConfig(d_um=d)) for d, *_ in rows)
        ]


def _rows_or_error(fn):
    try:
        return fn()
    except SeriesNotConverged as exc:
        return str(exc)


@given(
    w0_um=st.floats(1.0, 4.0),
    d_min_um=st.floats(0.0, 2.5),
    span_um=st.floats(0.01, 2.0),
    steps=st.integers(2, 90),
    n_interface=st.floats(1.0, 4.0),
    log_tolerance=st.floats(-12.0, -1.0),
)
def test_random_scans_equal_per_width_series(w0_um, d_min_um, span_um, steps, n_interface,
                                             log_tolerance):
    # the scan is the per-width series bit for bit, including the first
    # width whose loose tolerance overshoots R + T = 1; above 40 widths the
    # 64^2 Gaussian's scan takes more than one block
    f = make_gaussian(w0_um, nx=64)
    cfg = GapConfig(n_interface=n_interface, series_tolerance=10.0**log_tolerance)
    d_max_um = d_min_um + span_um

    def per_width():
        rows = []
        for d in np.linspace(d_min_um, d_max_um, steps):
            res = gap_scattering(f, replace(cfg, d_um=float(d)))
            rows.append((float(d), res.R, res.T, res.loss))
        return rows

    assert _rows_or_error(lambda: loss_spectrum(f, d_min_um, d_max_um, steps, cfg)) == \
        _rows_or_error(per_width)


def test_degenerate_scan_range_rejected(ridge_mode):
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 0.5, 1.0, 1)
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 0.5, np.inf, 10)


@pytest.mark.parametrize("steps", [2.5, 3.0])
def test_non_integer_step_count_rejected(ridge_mode, steps):
    with pytest.raises(ValueError, match=rf"^steps must be an integer, got {steps}$"):
        loss_spectrum(ridge_mode, 0.5, 1.0, steps)


def test_series_truncation_guard(ridge_mode):
    with pytest.raises(SeriesNotConverged):
        gap_scattering(ridge_mode, GapConfig(d_um=1.0, p_max=3, series_tolerance=1e-10))


def test_loose_tolerance_overshooting_unity_is_not_converged(ridge_mode):
    # four terms leave a truncation error that pushes R + T above 1 in a
    # narrow gap, where the etalon is close to resonance
    with pytest.raises(SeriesNotConverged, match="series_tolerance"):
        gap_scattering(ridge_mode, GapConfig(d_um=0.35, series_tolerance=0.01))
    # a scan makes one check over all its widths, and names N too
    with pytest.raises(SeriesNotConverged,
                       match=r"exceeds 1 after 4 terms: series_tolerance = 0.01 is too loose$"):
        loss_spectrum(ridge_mode, 0.3, 3.0, 271, GapConfig(series_tolerance=0.01))


@given(
    w0_um=st.floats(1.0, 4.0),
    d_um=st.floats(0.0, 3.0),
    n_interface=st.floats(1.0, 4.0),
    log_tolerance=st.floats(-12.0, -6.0),
    arm_phase=st.floats(0.0, 2.0 * np.pi),
)
def test_closed_form_equals_literal_ladder_sum(w0_um, d_um, n_interface, log_tolerance,
                                               arm_phase):
    # the per-plane-wave closed form must reproduce the truncated series
    # summed term by term over the projection factors Q(k d), k = 0..2N
    f = make_gaussian(w0_um, nx=64)
    cfg = GapConfig(d_um=d_um, n_interface=n_interface, series_tolerance=10.0**log_tolerance)
    r, _ = fresnel_interface(n_interface)
    n_terms = _num_terms(r, cfg.series_tolerance, cfg.p_max)
    q = q_factors(f, d_um * np.arange(2 * n_terms + 1))
    weights = r ** (2 * np.arange(n_terms))
    s0, s1, s2 = (np.sum(weights * q[j:j + 2 * n_terms:2]) for j in range(3))
    t_gap = (1 - r * r) * s1
    r_gap = r - (1 - r * r) * r * s2
    res = gap_scattering(f, cfg)
    assert abs(res.t_amplitude - t_gap) < 1e-12
    assert abs(res.r_amplitude - r_gap) < 1e-12

    phase = np.exp(1j * arm_phase)
    b = phase * t_gap / (1 - r_gap * phase)
    r_rt = abs(r_gap + t_gap * b)
    s = np.sqrt(1 - r * r)
    g_fwd = s * (s0 - r * b * s1)
    g_bwd = s * (-r * s2 + b * s1)
    ratio = np.sqrt(n_interface) * (abs(g_fwd) + abs(g_bwd)) / (1 + r_rt)
    assert abs(field_enhancement(f, cfg, arm_phase) - ratio) < 1e-12


def _elliptic_gaussian(w_x_um, w_y_um):
    """A Gaussian of 1/e^2 intensity radii (w_x, w_y) on the reference grid, with
    its analytic lattice weights exp(-(k_x^2 w_x^2 + k_y^2 w_y^2) / 2), normalized
    over the whole lattice, and k_x^2 + k_y^2 on it."""
    axes = ((GRID.nx, GRID.window_x_um), (GRID.ny, GRID.window_y_um))
    x, y = ((np.arange(n) - n / 2 + 0.5) * (window / n) for n, window in axes)
    amps = np.exp(-(x[:, None] ** 2 / w_x_um**2 + y[None, :] ** 2 / w_y_um**2))
    f = SampledField(amps.astype(complex), dx_um=x[1] - x[0], dy_um=y[1] - y[0],
                     wavelength_nm=1e3 * WL_UM)
    kx2, ky2 = ((2.0 * np.pi * np.fft.fftfreq(n, window / n)) ** 2 for n, window in axes)
    w = np.exp(-(kx2[:, None] * w_x_um**2 + ky2[None, :] * w_y_um**2) / 2)
    return f, w / w.sum(), kx2[:, None] + ky2[None, :]


# the paper's analytical estimate of the gap loss.  From w = 1.5 um, below
# which the lattice's aliasing of the spreading beam grows, up to 3 um, where
# the 24 um window still holds the sampled beam to 1e-7 in amplitude
@given(w_x_um=st.floats(1.5, 3.0), w_y_um=st.floats(1.5, 3.0), d_um=st.floats(0.0, 3.0))
def test_bounce_sums_of_gaussian_weights_equal_the_paraxial_closed_form(w_x_um, w_y_um, d_um):
    # with paraxial k_z = k - (k_x^2 + k_y^2) / 2k, the lattice sum of the
    # weights is Q(L) = exp(i k L) / sqrt((1 + i L / k w_x^2) (1 + i L / k w_y^2));
    # the worst seen was 2.1e-10, at w_x = w_y = 1.5 um (6 x 6 widths, 31 gaps)
    f, w, kt2 = _elliptic_gaussian(w_x_um, w_y_um)
    k = f.wavenumber_per_um
    r, _, n_terms = _interface(*_INTERFACE)
    sums = _bounce_sums(((k - kt2 / (2.0 * k)).ravel(), w.ravel()), r, n_terms, d_um)
    r_gap, t_gap = _series(sums, r)

    def q(length_um):
        return np.exp(1j * k * length_um) / np.sqrt((1 + 1j * length_um / (k * w_x_um**2))
                                                    * (1 + 1j * length_um / (k * w_y_um**2)))

    p = np.arange(n_terms)
    assert abs(t_gap - (1 - r * r) * np.sum(r ** (2 * p) * q((2 * p + 1) * d_um))) < 1e-9
    assert abs(r_gap - (r - (1 - r * r) * np.sum(r ** (2 * p + 1) * q((2 * p + 2) * d_um)))) < 1e-9


@given(w_x_um=st.floats(1.5, 3.0), w_y_um=st.floats(1.5, 3.0), d_um=st.floats(0.0, 3.0))
def test_sampled_gaussian_scatters_as_its_analytic_weights(w_x_um, w_y_um, d_um):
    # gap_scattering's spectrum of the sampled beam against the analytic
    # weights with exact k_z, evanescent waves dropped from both; the worst
    # seen was 7.8e-14, at w = 3 um where the window's truncation shows
    f, w, kt2 = _elliptic_gaussian(w_x_um, w_y_um)
    cfg = GapConfig(d_um=d_um)
    k2 = f.wavenumber_per_um**2
    propagating = k2 - kt2 > 0.0
    r, _, n_terms = _interface(cfg.n_interface, cfg.series_tolerance, cfg.p_max)
    r_gap, t_gap = _series(_bounce_sums((np.sqrt(k2 - kt2[propagating]), w[propagating]),
                                        r, n_terms, d_um), r)
    res = gap_scattering(f, cfg)
    assert abs(res.r_amplitude - r_gap) < 1e-12
    assert abs(res.t_amplitude - t_gap) < 1e-12


def _paraxial_and_exact_t(w_um, d_um):
    """t_gap of a round Gaussian's analytic weights with paraxial k_z, and with exact
    k_z (evanescent waves dropped), on the reference lattice."""
    f, w, kt2 = _elliptic_gaussian(w_um, w_um)
    k = f.wavenumber_per_um
    propagating = k * k - kt2 > 0.0
    r, _, n_terms = _interface(*_INTERFACE)
    paraxial = _bounce_sums(((k - kt2 / (2.0 * k)).ravel(), w.ravel()), r, n_terms, d_um)
    exact = _bounce_sums((np.sqrt(k * k - kt2[propagating]), w[propagating]), r, n_terms, d_um)
    return _series(paraxial, r)[1], _series(exact, r)[1]


@pytest.mark.parametrize("d_um", [0.5, 1.0, 1.96, 3.0])
def test_paraxial_error_of_the_analytical_estimate_falls_as_the_fourth_power_of_k_w(d_um):
    # the paraxial k_z drops k_t^4 / 8k^3, so its phase error over L is about
    # L / (k^3 w^4): |dt| ~ (k w)^-4.  Measured from w = 1.5 to 3 um: 4.16,
    # 3.98, 3.71 and 3.74 at the four widths
    dt = [abs(np.subtract(*_paraxial_and_exact_t(w_um, d_um))) for w_um in (1.5, 3.0)]
    assert 3.5 <= np.log2(dt[0] / dt[1]) <= 4.5


def test_paraxial_closed_form_reads_the_gap_loss_low_by_two_percent():
    # a sampled Gaussian with the reference mode's second-moment widths at
    # d = 1.96 um: the numerical model against the N-term series of the
    # paraxial Q(L) = exp(i k L) / sqrt((1 + i L / k w_x^2) (1 + i L / k w_y^2))
    w_x_um, w_y_um, d_um = 1.475, 1.671, 1.96
    f, _, _ = _elliptic_gaussian(w_x_um, w_y_um)
    k = f.wavenumber_per_um

    def q(length_um):
        return np.exp(1j * k * length_um) / np.sqrt((1 + 1j * length_um / (k * w_x_um**2))
                                                    * (1 + 1j * length_um / (k * w_y_um**2)))

    r, _, n_terms = _interface(*_INTERFACE)
    p = np.arange(n_terms)
    t_gap = (1 - r * r) * np.sum(r ** (2 * p) * q((2 * p + 1) * d_um))
    r_gap = r - (1 - r * r) * np.sum(r ** (2 * p + 1) * q((2 * p + 2) * d_um))
    closed_form = 1 - abs(r_gap) ** 2 - abs(t_gap) ** 2
    numerical = gap_scattering(f, GapConfig(d_um=d_um)).loss
    assert numerical == pytest.approx(0.04281, abs=1e-5)
    assert closed_form == pytest.approx(0.04201, abs=1e-5)
    assert (numerical - closed_form) / closed_form == pytest.approx(0.019, abs=1e-3)


def _constructive_figures(mode):
    """Loss at d = 1.96 um and the constructive r_rt (budget's minimum over 360 phases)."""
    cfg = GapConfig(d_um=1.96)
    return gap_scattering(mode, cfg).loss, round_trip_phase_scan(mode, cfg, 360)[1].min()


def test_measured_grid_convergence_of_the_gap_outputs(ridge_mode):
    # the printed outputs carry 6 digits but the grid error is far larger
    # than n_eff's (about 1e-5): from 256^2 to 512^2 to 1024^2 the mode area
    # moves 0.11% then 0.37% (not monotone: the ridge edge cuts a cell at a
    # grid-dependent fraction), the loss 0.23% then 0.50%, r_rt 1.9e-4 then 5.5e-4;
    # the reference budget's finesse 0.14% then 0.42%, and C 0.26% then 0.06%
    measured = [(8.31709, 0.0573882, 0.889699, 21.24035, 0.8363239),
                (8.30754, 0.0572540, 0.889884, 21.27039, 0.8384692),
                (8.33788, 0.0569681, 0.890438, 21.36056, 0.8389597)]
    for n, (area, loss, r_rt, finesse, c) in zip((256, 512, 1024), measured):
        mode = ridge_mode if n == 256 else solve_fundamental_mode(
            RIDGE, GridSpec(nx=n, ny=n, window_x_um=24.0, window_y_um=24.0))
        assert mode.mode_area_um2 == pytest.approx(area, rel=1e-6)
        figures = _constructive_figures(mode)
        assert figures == pytest.approx((loss, r_rt), rel=1e-6)
        b = full_budget(mode.mode_area_um2, CavitySpec(300.0, 3.5, 1.03), float(figures[1]),
                        AtomParams())
        assert (b.finesse, b.cooperativity) == pytest.approx((finesse, c), rel=1e-6)


def _zero_padded(f, k):
    """f centred in a window k times as wide on each axis, zero outside the original one."""
    amplitudes = np.zeros((k * f.nx, k * f.ny), complex)
    ox, oy = (k - 1) * f.nx // 2, (k - 1) * f.ny // 2
    amplitudes[ox:ox + f.nx, oy:oy + f.ny] = f.amplitudes
    return replace(f, amplitudes=amplitudes)


def test_measured_window_convergence_of_the_gap_model(ridge_mode):
    # the solved mode is zero outside its window, so padding it is exact for
    # that mode and leaves only the gap model's window error: at 2x and 4x
    # the loss moves by 1.2e-5 and 1.3e-5 (converged to 2e-6, an order below
    # the grid error), r_rt by -2.6e-5, and the evanescent power dropped
    # from 1.501e-4 of the mode to about 1.47e-4
    measured = [(0.0573882, 0.889699, 1.501e-4),
                (0.0574000, 0.889673, 1.469e-4),
                (0.0574016, 0.889673, 1.475e-4)]
    for k, (loss, r_rt, dropped) in zip((1, 2, 4), measured):
        f = _zero_padded(ridge_mode.field, k)
        assert _constructive_figures(f) == pytest.approx((loss, r_rt), rel=1e-6)
        assert 1.0 - _spectrum(f, _band(f))[1].sum() == pytest.approx(dropped, abs=1e-7)


def test_brute_force_bounce_agreement(ridge_mode):
    # the series built from single long-haul propagations must match the
    # literal bounce-by-bounce simulation of the same field
    for d in (0.5, 0.78, 1.17, 1.5, 1.96, 2.34, 2.73):
        cfg = GapConfig(d_um=d)
        semi = gap_scattering(ridge_mode, cfg)
        brute = brute_force_gap_scattering(ridge_mode, cfg, n_bounces=48)
        assert abs(semi.loss - brute.loss) < 1e-4
        assert abs(semi.R - brute.R) < 1e-4
        assert abs(semi.T - brute.T) < 1e-4


@given(
    w0_um=st.floats(1.0, 4.0),
    d_um=st.floats(0.0, 3.0),
    n_interface=st.floats(1.0, 4.0),
    log_tolerance=st.floats(-12.0, -8.0),
)
def test_series_matches_bounce_model(w0_um, d_um, n_interface, log_tolerance):
    # on random Gaussians the series conserves energy and agrees with the
    # real-space bounce model, whose 48 hits leave a tail of r^48 <= 0.6^48 ~ 2e-11
    f = make_gaussian(w0_um, nx=64)
    cfg = GapConfig(d_um=d_um, n_interface=n_interface, series_tolerance=10.0**log_tolerance)
    res = gap_scattering(f, cfg)
    assert res.R >= 0 and res.T >= 0
    assert res.R + res.T <= 1 + 1e-12
    brute = brute_force_gap_scattering(f, cfg, n_bounces=48)
    assert abs(res.r_amplitude - brute.r_amplitude) < 1e-7
    assert abs(res.t_amplitude - brute.t_amplitude) < 1e-7


def _kz_and_mask(f):
    """The full-grid k_z (zero where evanescent) and propagating mask, built as before the band box."""
    kx = 2.0 * np.pi * np.fft.fftfreq(f.nx, f.dx_um)
    ky = 2.0 * np.pi * np.fft.fftfreq(f.ny, f.dy_um)
    kx, ky = np.meshgrid(kx, ky, indexing="ij")
    k = f.wavenumber_per_um
    kz2 = k * k - kx * kx - ky * ky
    mask = kz2 > 0.0
    return np.sqrt(np.where(mask, kz2, 0.0)), mask


def _fine_grid_bounces(f, cfg, n_bounces):
    """(r, t) of the literal bounce loop on f's own grid, with no crop."""
    f = f.normalized()
    r, _ = fresnel_interface(cfg.n_interface)
    s = np.sqrt(1.0 - r * r)
    kz, mask = _kz_and_mask(f)
    transfer = np.where(mask, np.exp(1j * kz * cfg.d_um), 0.0)

    def crossing(amps):
        return np.fft.ifft2(np.fft.fft2(amps) * transfer)

    t_amp, r_amp = 0j, complex(r)
    current = crossing(s * f.amplitudes)
    for bounce in range(n_bounces):
        coupled = complex(np.vdot(f.amplitudes, current) * f.cell_area_um2)
        if bounce % 2 == 0:
            t_amp += s * coupled
        else:
            r_amp += s * coupled
        current = crossing(-r * current)
    return r_amp, t_amp


@pytest.mark.parametrize("d_um", [0.0, 0.5, 1.96, 3.0])
def test_band_limited_bounces_equal_the_fine_grid_loop(ridge_mode, d_um):
    # the reference mode bounces on 64^2 instead of 256^2; the overlaps are
    # the fine-grid ones by Parseval, so only rounding separates the results
    cfg = GapConfig(d_um=d_um)
    brute = brute_force_gap_scattering(ridge_mode, cfg, n_bounces=48)
    r_amp, t_amp = _fine_grid_bounces(ridge_mode.field, cfg, 48)
    assert abs(brute.r_amplitude - r_amp) < 1e-13
    assert abs(brute.t_amplitude - t_amp) < 1e-13


def _offset_gaussian(grid, w0_um, offset_um, wavelength_nm):
    nx, ny, wx, wy = grid
    x = (np.arange(nx) - nx / 2 + 0.5) * (wx / nx) - offset_um[0]
    y = (np.arange(ny) - ny / 2 + 0.5) * (wy / ny) - offset_um[1]
    amps = np.exp(-(x[:, None] ** 2 + y[None, :] ** 2) / w0_um**2)  # no x mirror symmetry
    return SampledField(amps.astype(complex), dx_um=wx / nx, dy_um=wy / ny,
                        wavelength_nm=wavelength_nm)


@pytest.mark.parametrize("d_um", [0.4, 1.96])
def test_bounces_on_a_band_grid_that_does_not_divide_the_field_grid(d_um):
    # 80 samples over 24 um at 780 nm: the 61-wide band box sits on a 64
    # band grid, and 2n = 160 is no multiple of 64, so the negative
    # frequencies land in their place (index i - n) only if placed right
    f = _offset_gaussian((80, 80, 24.0, 24.0), 2.0, (0.7, -0.4), 780.0)
    (ix, iy), *_ = _band(f)
    assert ix.size == iy.size == 61
    cfg = GapConfig(d_um=d_um)
    brute = brute_force_gap_scattering(f, cfg, n_bounces=24)
    r_amp, t_amp = _fine_grid_bounces(f, cfg, 24)
    assert abs(brute.r_amplitude - r_amp) < 1e-12
    assert abs(brute.t_amplitude - t_amp) < 1e-12


# (nx, ny, window_x_um, window_y_um): crops to 64^2; already 64^2 (nothing
# cropped); non-square with dx != dy (crops to 64 x 32); a 32^2 grid whose
# propagating disc reaches the Nyquist frequency (nothing cropped)
BOUNCE_GRIDS = [(128, 128, 24.0, 24.0), (64, 64, 24.0, 24.0), (128, 96, 24.0, 12.0),
                (32, 32, 24.0, 24.0)]


@given(
    grid=st.sampled_from(BOUNCE_GRIDS),
    w0_um=st.floats(1.0, 4.0),
    offset_x_um=st.floats(-3.0, 3.0),
    offset_y_um=st.floats(-2.0, 2.0),
    wavelength_nm=st.floats(700.0, 900.0),
    d_um=st.floats(0.0, 3.0),
    n_interface=st.floats(1.0, 4.0),
)
def test_band_limited_bounces_equal_the_fine_grid_loop_on_gaussians(
        grid, w0_um, offset_x_um, offset_y_um, wavelength_nm, d_um, n_interface):
    f = _offset_gaussian(grid, w0_um, (offset_x_um, offset_y_um), wavelength_nm)
    cfg = GapConfig(d_um=d_um, n_interface=n_interface)
    brute = brute_force_gap_scattering(f, cfg, n_bounces=24)
    r_amp, t_amp = _fine_grid_bounces(f, cfg, 24)
    assert abs(brute.r_amplitude - r_amp) < 1e-12
    assert abs(brute.t_amplitude - t_amp) < 1e-12


def _spy_on_ffts(monkeypatch):
    """A list that records (name, input shape, axis) of every fft, fft2 and ifft2 call."""
    calls = []

    def spying(name, transform):
        def spy(a, *args, **kwargs):
            calls.append((name, a.shape, kwargs.get("axis")))
            return transform(a, *args, **kwargs)
        return spy

    for name in ("fft", "fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, spying(name, getattr(np.fft, name)))
    return calls


def test_spectrum_takes_one_1d_pass_per_axis_and_no_full_grid_transform(ridge_mode,
                                                                         monkeypatch):
    # the band transform along y (all 256 columns), then along x on the 61
    # band columns; the total comes from Parseval's theorem, not from an fft2
    calls = _spy_on_ffts(monkeypatch)
    _spectrum(ridge_mode.field, _band(ridge_mode.field))
    assert calls == [("fft", (256, 256), 1), ("fft", (256, 61), 0)]


def test_reference_mode_bounces_on_a_64_grid(ridge_mode, monkeypatch):
    # the mode is transformed onto its band box by one 1-D pass per axis at
    # 256; every field is then formed once from the 64^2 band spectrum by an
    # inverse transform: the b = 7 baby fields in one stack and the 7 giant
    # fields one each, 14 in all, with no forward 2-D transform and none at 256^2
    calls = _spy_on_ffts(monkeypatch)
    brute_force_gap_scattering(_unsolved_copy(ridge_mode), GapConfig(d_um=1.96), n_bounces=48)
    one_d = [(shape, axis) for name, shape, axis in calls if name == "fft"]
    two_d = [(name, shape) for name, shape, _ in calls if name != "fft"]
    assert one_d == [((256, 256), 1), ((256, 61), 0)]
    assert two_d == [("ifft2", (7, 64, 64))] + [("ifft2", (64, 64))] * 7


@pytest.mark.parametrize("grid", [None, *BOUNCE_GRIDS])
def test_band_box_spectrum_and_transfer_equal_the_full_grid_construction(ridge_mode, grid):
    # k_z and F are built on the propagating box alone; F, the spectrum and the
    # propagated field equal the full-grid construction bit for bit, so no
    # propagating wave lies outside the box.  The weights divide by Parseval's total
    fields = ([ridge_mode.field] if grid is None else
              [_offset_gaussian(grid, 2.0, (0.7, -0.4), wl) for wl in (700.0, 780.0, 900.0)])
    for f in fields:
        kz, mask = _kz_and_mask(f)
        full = np.fft.fft2(f.amplitudes)
        weights = np.abs(full) ** 2
        total = f.nx * f.ny * np.sum(np.abs(f.amplitudes) ** 2)
        kz_distinct, which = np.unique(kz[mask], return_inverse=True)
        band = (ix, iy), _, _, amplitudes = _band(f)
        assert np.array_equal(amplitudes, full[np.ix_(ix, iy)])
        kz_box, w_box = _spectrum(f, band)
        assert np.array_equal(kz_box, kz_distinct)
        assert np.array_equal(w_box, np.bincount(which, weights=weights[mask]) / total)
        for d_um in (0.0, 1.96, 7.3):
            expected = np.where(mask, np.exp(1j * kz * d_um), 0.0)
            assert np.array_equal(propagate_free_space(f, d_um).amplitudes,
                                  np.fft.ifft2(np.fft.fft2(f.amplitudes) * expected))


@pytest.mark.parametrize("n_bounces", [1, 2, 3, 7, 8, 9, 49, 50])
def test_baby_and_giant_steps_equal_the_fine_grid_loop(n_bounces):
    # b = round(sqrt(n)) baby steps per giant step: b = 1 at 1 and 2 bounces,
    # b = 2 at 3, a partial last block at 3, 8, 49 and 50; every input keeps
    # the truncated sum's R + T <= 1
    f = make_gaussian(2.0, nx=64)
    for d_um in (0.0, 0.4, 1.96):
        for n_interface in (1.5, 3.155, 4.0):
            cfg = GapConfig(d_um=d_um, n_interface=n_interface)
            r_amp, t_amp = _fine_grid_bounces(f, cfg, n_bounces)
            assert abs(r_amp) ** 2 + abs(t_amp) ** 2 <= 1
            brute = brute_force_gap_scattering(f, cfg, n_bounces)
            assert abs(brute.r_amplitude - r_amp) < 1e-12
            assert abs(brute.t_amplitude - t_amp) < 1e-12


def test_too_few_bounces_name_the_count():
    # a truncated bounce sum, like the series' N-term sum, is not bounded by
    # energy: two hits at d = 1 um give R + T = 1.07
    f = make_gaussian(2.0, nx=64)
    message = r"^R \+ T = 1\.06966808 exceeds 1 after 2 bounces: n_bounces = 2 is too few$"
    with pytest.raises(SeriesNotConverged, match=message):
        brute_force_gap_scattering(f, GapConfig(d_um=1.0, n_interface=1.5), n_bounces=2)


@given(
    ridge_width_um=st.floats(3.0, 5.0),
    ridge_height_um=st.floats(4.0, 5.0),
    core_thickness_um=st.floats(3.0, 4.0),
    cladding_thickness_um=st.floats(3.0, 5.0),
    wavelength_nm=st.floats(760.0, 800.0),
    d_um=st.floats(0.3, 3.0),
    length_um=st.floats(100.0, 1000.0),
    scale=st.sampled_from([1.5, 2.0, 3.0]),
)
# each example runs two 64^2 solves: shrinking a failure through them
# would take minutes, so a failure is reported as first found
@settings(phases=[phase for phase in settings.default.phases if phase is not Phase.shrink])
def test_results_are_invariant_under_scaling_every_length(
        ridge_width_um, ridge_height_um, core_thickness_um, cladding_thickness_um,
        wavelength_nm, d_um, length_um, scale):
    # the model has no length of its own: scaling every length and the
    # wavelength by s leaves n_eff, area / s^2, R, T and the brute-force T as
    # they were, so a um/nm slip anywhere in the chain would show.  s = 2 is
    # exact in binary; at 1.5 and 3 the worst seen was 4.6e-15 (2.6e-14
    # relative in the area).  The budget follows with the cavity length, the
    # gap and 1/alpha scaled too and the atom held fixed: the constructive
    # r_rt, the finesse, FSR s, g s^1.5 (V = A L) and C s^2 (kappa ~ FSR / F)
    # stay put, exactly at s = 2 where the arithmetic is exact (r_rt, finesse,
    # FSR); the worst seen over 300 random cases was 5.2e-14 relative, in C
    def solve_and_scatter(s):
        geometry = replace(RIDGE, ridge_width_um=ridge_width_um * s,
                           ridge_height_um=ridge_height_um * s,
                           core_thickness_um=core_thickness_um * s,
                           cladding_thickness_um=cladding_thickness_um * s,
                           wavelength_nm=wavelength_nm * s)
        mode = solve_fundamental_mode(geometry, GridSpec(nx=64, ny=64, window_x_um=24.0 * s,
                                                          window_y_um=24.0 * s))
        cfg = GapConfig(d_um=d_um * s)
        series = gap_scattering(mode, cfg)
        brute = brute_force_gap_scattering(mode, cfg, n_bounces=48)
        r_rt = round_trip_phase_scan(mode, cfg, 360)[1].min()
        spec = CavitySpec(length_um=length_um * s, n_group=3.5, alpha_per_cm=1.03 / s)
        b = full_budget(mode.mode_area_um2, spec, float(r_rt), AtomParams())
        budget = [r_rt, b.finesse, b.fsr_GHz * s, b.g_over_2pi_MHz * s**1.5,
                  b.cooperativity * s**2]
        return (np.array([mode.n_eff, series.R, series.T, brute.T]), mode.mode_area_um2 / s**2,
                np.array(budget))

    values, area, budget = solve_and_scatter(1.0)
    scaled_values, scaled_area, scaled_budget = solve_and_scatter(scale)
    if scale == 2.0:
        assert np.array_equal(scaled_values, values) and scaled_area == area
        assert np.array_equal(scaled_budget[:3], budget[:3])
    else:
        assert np.max(np.abs(scaled_values - values)) < 4e-14
        assert abs(scaled_area - area) < 1e-13 * area
    assert np.max(np.abs(scaled_budget / budget - 1.0)) < 2e-13


@given(
    w0_um=st.floats(1.0, 4.0),
    n_interface=st.floats(1.0, 4.0),
    log_tolerance=st.floats(-14.0, -10.0),
    arm_phase=st.floats(0.0, 2.0 * np.pi),
)
def test_loss_free_gap_returns_everything_at_every_arm_phase(w0_um, n_interface,
                                                             log_tolerance, arm_phase):
    # at d = 0 no plane wave picks up a phase, so the gap is a lossless etalon
    # whose scattering matrix is unitary up to the series tail r^(2N) < tolerance
    f = make_gaussian(w0_um, nx=64)
    cfg = GapConfig(d_um=0.0, n_interface=n_interface, series_tolerance=10.0**log_tolerance)
    _, rrt = round_trip_phase_scan(f, cfg, 64)
    assert np.max(np.abs(rrt - 1.0)) < 1e-9
    assert abs(composite_round_trip(f, cfg, arm_phase) - 1.0) < 1e-9


def test_composite_lossless_gap_is_unitary():
    # a single plane-wave component has unit projection after any distance,
    # so the composite must return everything at every arm phase
    f = SampledField(
        np.ones((64, 64), dtype=complex), dx_um=0.375, dy_um=0.375,
        wavelength_nm=780.0,
    ).normalized()
    cfg = GapConfig(d_um=1.96)
    for phase in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        assert composite_round_trip(f, cfg, phase) == pytest.approx(1.0, abs=1e-6)


def test_composite_no_gap_perfect_mirror():
    f = make_gaussian(2.0)
    cfg = GapConfig(d_um=0.0, n_interface=1.0)
    assert composite_round_trip(f, cfg, 0.7) == pytest.approx(1.0, abs=1e-6)


def test_composite_phase_scan_structure(ridge_mode):
    cfg = GapConfig(d_um=1.96)
    phases, rrt = round_trip_phase_scan(ridge_mode, cfg, 720)
    gap = gap_scattering(ridge_mode, cfg)
    r, t = gap.r_amplitude, gap.t_amplitude
    e = np.exp(1j * phases)
    assert np.max(np.abs(rrt - np.abs(r + t * t * e / (1.0 - r * e)))) < 1e-12
    assert abs(rrt[1] - composite_round_trip(ridge_mode, cfg, phases[1])) < 1e-12
    assert np.all(rrt <= 1.0 + 1e-9)
    assert rrt.max() >= 0.99  # destructive arm phase suppresses the gap field
    assert rrt.min() < rrt.max() - 0.05
    # the low-loss (destructive) and high-loss (constructive) phases sit
    # roughly half a fringe apart
    sep = abs(phases[np.argmax(rrt)] - phases[np.argmin(rrt)])
    assert 0.5 < min(sep, 2.0 * np.pi - sep) < 2.0 * np.pi - 0.5


def test_single_phase_equals_its_scan_entry(ridge_mode):
    # one arm phase goes through the scan's array kernels, so the values agree bit for bit
    for d_um in np.linspace(0.3, 3.0, 10):
        cfg = GapConfig(d_um=float(d_um))
        phases, rrt = round_trip_phase_scan(ridge_mode, cfg, 360)
        single = [composite_round_trip(ridge_mode, cfg, phase) for phase in phases]
        assert single == rrt.tolist()


@pytest.mark.parametrize("d_um", [0.5, 1.96, 2.73])
def test_round_trip_scan_spans_the_closed_form_circle(ridge_mode, d_um):
    # phi -> r + t^2 e^(i phi) / (1 - r e^(i phi)) maps the unit circle onto
    # the circle of centre r + t^2 conj(r) / (1 - |r|^2) and radius
    # |t|^2 / (1 - |r|^2), so r_rt spans [||centre| - radius|, |centre| + radius]
    cfg = GapConfig(d_um=d_um)
    gap = gap_scattering(ridge_mode, cfg)
    r, t = gap.r_amplitude, gap.t_amplitude
    centre = abs(r + t * t * np.conj(r) / (1.0 - abs(r) ** 2))
    radius = abs(t) ** 2 / (1.0 - abs(r) ** 2)
    _, coarse = round_trip_phase_scan(ridge_mode, cfg, 360)
    _, fine = round_trip_phase_scan(ridge_mode, cfg, 200_000)  # resolves the dip at these d
    assert coarse.min() > abs(centre - radius) - 1e-12
    assert coarse.max() < centre + radius + 1e-12
    assert fine.min() - abs(centre - radius) < 1e-11


def test_enhancement_tracks_interface_index(ridge_mode):
    cfg = GapConfig(d_um=1.96)
    phases, rrt = round_trip_phase_scan(ridge_mode, cfg, 720)
    phi_constructive = phases[np.argmin(rrt)]
    phi_destructive = phases[np.argmax(rrt)]
    ratio_c = field_enhancement(ridge_mode, cfg, phi_constructive)
    ratio_d = field_enhancement(ridge_mode, cfg, phi_destructive)
    assert ratio_c == pytest.approx(cfg.n_interface, rel=0.10)
    assert ratio_d < 1.0


def test_enhancement_unity_without_interfaces():
    f = make_gaussian(2.0)
    cfg = GapConfig(d_um=1.96, n_interface=1.0)
    for phase in (0.0, 1.3, np.pi):
        assert field_enhancement(f, cfg, phase) == pytest.approx(1.0, abs=1e-3)


def test_enhancement_lossless_resonant_closed_form():
    # single plane-wave component, gap an exact multiple of lambda/2: the
    # lossless resonant etalon builds the standing field up by exactly n
    f = SampledField(
        np.ones((64, 64), dtype=complex), dx_um=0.375, dy_um=0.375,
        wavelength_nm=780.0,
    ).normalized()
    cfg = GapConfig(d_um=5 * 0.78 / 2.0)
    phases = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    best = max(field_enhancement(f, cfg, p) for p in phases)
    assert best == pytest.approx(cfg.n_interface, abs=1e-3)


def test_gap_config_validation():
    with pytest.raises(ValueError):
        GapConfig(d_um=-1.0)
    for bad in (np.inf, np.nan):
        for key in ("d_um", "n_interface", "series_tolerance"):
            with pytest.raises(ValueError, match="finite"):
                GapConfig(**{key: bad})
    with pytest.raises(ValueError, match="n_interface"):
        GapConfig(n_interface=0.9)
    with pytest.raises(ValueError):
        GapConfig(series_tolerance=2.0)
    with pytest.raises(ValueError):
        GapConfig(p_max=0)


def test_solved_mode_and_its_profile_give_identical_results(ridge_mode):
    # the band and spectrum a solved mode keeps are exactly the ones its profile yields
    cfg = GapConfig(d_um=1.96)

    def results(mode):
        _, rrt = round_trip_phase_scan(mode, cfg, 360)
        return (gap_scattering(mode, cfg), loss_spectrum(mode, 0.3, 3.0, 271, cfg),
                rrt.tolist(), composite_round_trip(mode, cfg, 0.7),
                field_enhancement(mode, cfg, 0.7), brute_force_gap_scattering(mode, cfg, 48))

    assert results(ridge_mode) == results(ridge_mode.field)


@pytest.mark.parametrize("bounce_first", [False, True])
def test_fresh_solved_mode_builds_its_spectrum_once(ridge_mode, monkeypatch, bounce_first):
    # the series and the bounce check share the mode's one band transform,
    # one 1-D pass along y and one along x, whichever of them runs first
    builds = []

    def counting(*args):
        builds.append(args)
        return _spectrum(*args)

    for module in (propagation, waveguide, gap_module):
        monkeypatch.setattr(module, "_spectrum", counting)
    calls = _spy_on_ffts(monkeypatch)
    mode = _unsolved_copy(ridge_mode)
    cfg = GapConfig(d_um=1.96)
    if bounce_first:
        brute_force_gap_scattering(mode, cfg, n_bounces=48)
    loss_spectrum(mode, 0.3, 3.0, 11, cfg)
    round_trip_phase_scan(mode, cfg, 16)
    field_enhancement(mode, cfg, 0.7)
    gap_scattering(mode, cfg)
    brute_force_gap_scattering(mode, cfg, n_bounces=48)
    assert len(builds) == 1
    one_d = [(shape, axis) for name, shape, axis in calls if name == "fft"]
    assert one_d == [((256, 256), 1), ((256, 61), 0)]


def _unsolved_copy(mode):
    """A ModeSolution of the same profile that has kept nothing yet."""
    return ModeSolution(mode.field, mode.n_eff, mode.mode_area_um2)


def test_calls_after_a_phase_scan_equal_cold_calls(ridge_mode):
    # the scan's evaluation is kept on the mode and reused by the calls after it
    for d_um in (0.0, 0.3, 1.96, 2.73):
        cfg = GapConfig(d_um=d_um)
        warm = _unsolved_copy(ridge_mode)
        phases, rrt = round_trip_phase_scan(warm, cfg, 360)
        for phase in (float(phases[np.argmin(rrt)]), float(phases[np.argmax(rrt)]), -2.0):
            assert (repr(field_enhancement(warm, cfg, phase))
                    == repr(field_enhancement(_unsolved_copy(ridge_mode), cfg, phase)))
            assert (repr(composite_round_trip(warm, cfg, phase))
                    == repr(composite_round_trip(_unsolved_copy(ridge_mode), cfg, phase)))
        cold = gap_scattering(_unsolved_copy(ridge_mode), cfg)
        assert repr(gap_scattering(warm, cfg)) == repr(cold)


def test_one_series_evaluation_per_mode_and_config_object(ridge_mode, monkeypatch):
    mode, cfg = _unsolved_copy(ridge_mode), GapConfig(d_um=1.96)
    evaluated = []  # (input, width) of each series evaluation on mode or its bare field
    series_at = gap_module._series_at

    def counting(m, c, d_um):
        if m is mode or m is mode.field:
            evaluated.append(("mode" if m is mode else "field", d_um))
        return series_at(m, c, d_um)

    monkeypatch.setattr(gap_module, "_series_at", counting)
    round_trip_phase_scan(mode, cfg, 360)
    field_enhancement(mode, cfg, 0.7)
    composite_round_trip(mode, cfg, 0.7)
    kept = gap_scattering(mode, cfg)
    assert evaluated == [("mode", 1.96)]
    assert gap_scattering(mode, cfg) is kept
    # an equal but distinct config, another width and a bare field are each
    # evaluated anew, and give what a mode that has kept nothing gives
    evaluated.clear()
    for m, c in ((mode, GapConfig(d_um=1.96)), (mode, GapConfig(d_um=0.7)), (mode, cfg),
                 (mode.field, cfg)):
        assert gap_scattering(m, c) == gap_scattering(_unsolved_copy(ridge_mode), c)
        assert field_enhancement(m, c, 0.7) == field_enhancement(_unsolved_copy(ridge_mode), c, 0.7)
    assert evaluated == [("mode", 1.96), ("mode", 0.7), ("mode", 1.96),
                         ("field", 1.96), ("field", 1.96)]
    assert "_gap_result" not in vars(mode.field)


def test_a_call_that_raises_keeps_nothing(ridge_mode):
    mode, cfg = _unsolved_copy(ridge_mode), GapConfig()
    for _ in range(2):  # a term cap hit is raised on every call, not kept
        with pytest.raises(SeriesNotConverged, match="p_max=3"):
            gap_scattering(mode, GapConfig(d_um=1.0, p_max=3, series_tolerance=1e-10))
    with pytest.raises(ValueError, match="k0 d"):
        gap_scattering(mode, GapConfig(d_um=1e308))
    assert "_gap_result" not in vars(mode)
    kept = gap_scattering(mode, cfg)
    # raised after the bounce sums were formed: the earlier evaluation stays
    with pytest.raises(SeriesNotConverged, match="series_tolerance"):
        gap_scattering(mode, GapConfig(d_um=0.35, series_tolerance=0.01))
    assert gap_scattering(mode, cfg) is kept


def test_phase_grid_is_read_only_and_equals_linspace(ridge_mode):
    # one grid is kept at a time, so alternating sizes rebuilds it each time
    cfg = GapConfig()
    gres = gap_scattering(ridge_mode, cfg)
    for n_phases in (360, 7, 360, 7, np.int64(7)):
        phases, rrt = round_trip_phase_scan(ridge_mode, cfg, n_phases)
        expected = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
        assert phases.tobytes() == expected.tobytes()
        assert not phases.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            phases[0] = 1.0
        closed_form = np.abs(gres.r_amplitude + gres.t_amplitude**2 * np.exp(1j * expected)
                             / (1.0 - gres.r_amplitude * np.exp(1j * expected)))
        assert rrt.tobytes() == closed_form.tobytes()
