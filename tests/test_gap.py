import numpy as np
import pytest
from hypothesis import given, strategies as st

from ridgecav import (
    GapConfig,
    InvalidIndex,
    ModeSolution,
    SeriesNotConverged,
    brute_force_gap_scattering,
    composite_round_trip,
    field_enhancement,
    fresnel_interface,
    gap_scattering,
    loss_spectrum,
    projection_after_propagation,
    round_trip_phase_scan,
)
from ridgecav import gap as gap_module, propagation, waveguide
from ridgecav.fields import SampledField
from ridgecav.gap import _num_terms
from ridgecav.propagation import _spectrum
from conftest import make_gaussian

WL_UM = 0.780


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
    with pytest.raises(InvalidIndex):
        fresnel_interface(0.5)


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
    # the batched width scan must give what one call per width gives
    for d, R, T, loss in loss_spectrum(ridge_mode, 0.3, 3.0, 9):
        res = gap_scattering(ridge_mode, GapConfig(d_um=d))
        assert abs(R - res.R) < 1e-12
        assert abs(T - res.T) < 1e-12
        assert abs(loss - res.loss) < 1e-12


def test_degenerate_scan_range_rejected(ridge_mode):
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 0.5, 1.0, 1)
    with pytest.raises(ValueError):
        loss_spectrum(ridge_mode, 0.5, np.inf, 10)


def test_series_truncation_guard(ridge_mode):
    with pytest.raises(SeriesNotConverged):
        gap_scattering(ridge_mode, GapConfig(d_um=1.0, p_max=3, series_tolerance=1e-10))


def test_loose_tolerance_overshooting_unity_is_not_converged(ridge_mode):
    # four terms leave a truncation error that pushes R + T above 1 in a
    # narrow gap, where the etalon is close to resonance
    with pytest.raises(SeriesNotConverged, match="series_tolerance"):
        gap_scattering(ridge_mode, GapConfig(d_um=0.35, series_tolerance=0.01))


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
    n_terms = _num_terms(cfg)
    q = projection_after_propagation(f, d_um * np.arange(2 * n_terms + 1))
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
    with pytest.raises(InvalidIndex):
        GapConfig(n_interface=0.9)
    with pytest.raises(ValueError):
        GapConfig(series_tolerance=2.0)
    with pytest.raises(ValueError):
        GapConfig(p_max=0)


def test_solved_mode_and_its_profile_give_identical_results(ridge_mode):
    # the spectrum a solved mode keeps is exactly the one its profile yields
    cfg = GapConfig(d_um=1.96)

    def results(mode):
        _, rrt = round_trip_phase_scan(mode, cfg, 360)
        return (gap_scattering(mode, cfg), loss_spectrum(mode, 0.3, 3.0, 271, cfg),
                rrt.tolist(), composite_round_trip(mode, cfg, 0.7),
                field_enhancement(mode, cfg, 0.7))

    assert results(ridge_mode) == results(ridge_mode.field)


def test_fresh_solved_mode_builds_its_spectrum_once(ridge_mode, monkeypatch):
    builds = []

    def counting(f):
        builds.append(f)
        return _spectrum(f)

    for module in (propagation, waveguide, gap_module):
        monkeypatch.setattr(module, "_spectrum", counting)
    mode = ModeSolution(ridge_mode.field, ridge_mode.n_eff, ridge_mode.mode_area_um2)
    cfg = GapConfig(d_um=1.96)
    loss_spectrum(mode, 0.3, 3.0, 11, cfg)
    round_trip_phase_scan(mode, cfg, 16)
    field_enhancement(mode, cfg, 0.7)
    gap_scattering(mode, cfg)
    assert len(builds) == 1
