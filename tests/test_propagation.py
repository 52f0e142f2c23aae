from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ridgecav import (
    GapConfig,
    GridMismatch,
    NegativeDistance,
    ZeroField,
    overlap,
    projection_after_propagation,
    propagate_free_space,
)
from ridgecav.gap import _num_terms
from conftest import make_gaussian

WL_UM = 0.780


def rayleigh_range_um(w0_um):
    return np.pi * w0_um**2 / WL_UM


def second_moment_width(f):
    """2 sqrt(<x^2>): equals the 1/e^2 radius w for a fundamental Gaussian."""
    x = f.x_coords_um()
    intensity = np.abs(f.amplitudes) ** 2
    mean_x2 = np.sum(intensity * x[:, None] ** 2) / intensity.sum()
    return 2.0 * np.sqrt(mean_x2)


def test_zero_distance_is_identity():
    f = make_gaussian(2.0)
    g = propagate_free_space(f, 0.0)
    assert np.max(np.abs(g.amplitudes - f.amplitudes)) < 1e-12


def test_negative_distance_rejected():
    with pytest.raises(NegativeDistance):
        propagate_free_space(make_gaussian(2.0), -1.0)


def test_gaussian_width_follows_diffraction_law():
    w0 = 2.0
    d = 10.0
    f = make_gaussian(w0)
    g = propagate_free_space(f, d)
    expected = w0 * np.sqrt(1.0 + (d / rayleigh_range_um(w0)) ** 2)
    assert second_moment_width(g) == pytest.approx(expected, rel=0.01)


def test_power_conserved_without_evanescent_content():
    f = make_gaussian(2.0)
    for d in (0.5, 5.0, 40.0):
        assert propagate_free_space(f, d).power() == pytest.approx(f.power(), abs=1e-9)


def test_semigroup_property():
    f = make_gaussian(1.5, offset_um=(0.7, -0.4))
    one_hop = propagate_free_space(f, 7.3)
    two_hops = propagate_free_space(propagate_free_space(f, 4.1), 3.2)
    assert np.max(np.abs(one_hop.amplitudes - two_hops.amplitudes)) < 1e-9


@given(
    w0_um=st.floats(0.3, 4.0),
    offset_um=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    a_um=st.floats(0.0, 20.0),
    b_um=st.floats(0.0, 20.0),
)
def test_propagation_keeps_propagating_power_and_is_a_semigroup(w0_um, offset_um, a_um, b_um):
    # the propagated field keeps exactly the power of the input's plane waves
    # with kx^2 + ky^2 < k^2 (Parseval), and two hops land exactly where one
    # hop of the summed length does
    f = make_gaussian(w0_um, nx=64, offset_um=offset_um)
    one_hop = propagate_free_space(f, a_um + b_um)
    two_hops = propagate_free_space(propagate_free_space(f, a_um), b_um)
    kx = 2.0 * np.pi * np.fft.fftfreq(f.nx, f.dx_um)
    ky = 2.0 * np.pi * np.fft.fftfreq(f.ny, f.dy_um)
    propagating = kx[:, None] ** 2 + ky[None, :] ** 2 < f.wavenumber_per_um**2
    power = np.abs(np.fft.fft2(f.amplitudes))[propagating] ** 2
    expected = power.sum() / f.amplitudes.size * f.cell_area_um2
    assert one_hop.power() == pytest.approx(expected, rel=1e-12)
    peak = np.abs(f.amplitudes).max()
    assert np.max(np.abs(two_hops.amplitudes - one_hop.amplitudes)) <= 1e-12 * peak


def test_self_overlap_is_one():
    f = make_gaussian(2.0)
    q = overlap(f, f)
    assert abs(q - 1.0) < 1e-12


def test_orthogonal_hermite_gaussian_modes():
    f00 = make_gaussian(2.0)
    x = f00.x_coords_um()
    hg10 = f00.amplitudes * x[:, None]  # odd in x
    f10 = replace(f00, amplitudes=hg10).normalized()
    assert abs(overlap(f00, f10)) < 1e-6


def test_overlap_of_propagated_gaussian_matches_closed_form():
    # for a beam at its waist vs the same beam propagated by d, the
    # two-Gaussian coupling integral collapses to |Q|^2 = 1/(1 + (d/2zR)^2)
    w0, d = 2.0, 4.0
    f = make_gaussian(w0)
    g = propagate_free_space(f, d)
    expected = 1.0 / (1.0 + (d / (2.0 * rayleigh_range_um(w0))) ** 2)
    assert abs(overlap(f, g)) ** 2 == pytest.approx(expected, rel=0.01)


def test_overlap_conjugate_symmetry_and_bound():
    rng = np.random.default_rng(3)
    base = make_gaussian(2.0)
    noisy = replace(
        base,
        amplitudes=base.amplitudes * (1.0 + 0.1 * rng.normal(size=base.amplitudes.shape))
        * np.exp(1j * 0.2 * rng.normal(size=base.amplitudes.shape)),
    )
    q_ab = overlap(base, noisy)
    q_ba = overlap(noisy, base)
    assert q_ab == pytest.approx(np.conj(q_ba), abs=1e-12)
    assert abs(q_ab) <= 1.0 + 1e-12


def test_overlap_modulus_one_iff_proportional():
    f = make_gaussian(2.0)
    scaled = replace(f, amplitudes=(0.3 - 0.4j) * f.amplitudes)
    assert abs(overlap(f, scaled)) == pytest.approx(1.0, abs=1e-12)


def test_grid_mismatch_rejected():
    a = make_gaussian(2.0, nx=256)
    b = make_gaussian(2.0, nx=128)
    with pytest.raises(GridMismatch):
        overlap(a, b)


def test_zero_field_overlap_rejected():
    f = make_gaussian(2.0)
    z = replace(f, amplitudes=np.zeros_like(f.amplitudes))
    with pytest.raises(ZeroField):
        overlap(f, z)


def test_spectral_projection_equals_propagate_then_project(ridge_mode):
    f = ridge_mode.field
    cell = f.cell_area_um2
    for d in (0.0, 1.96, 7.3):
        direct = projection_after_propagation(f, d)[0]
        propagated = propagate_free_space(f, d)
        literal = np.sum(np.conj(f.amplitudes) * propagated.amplitudes) * cell
        literal /= f.power()
        assert direct == pytest.approx(literal, abs=1e-12)


def test_distance_array_rows_match_one_dimensional_calls(ridge_mode):
    f = ridge_mode.field
    distances = np.array([[0.0, 1.96, 3.92, 5.88], [0.5, 7.3, 2.0, 40.0]])
    batched = projection_after_propagation(f, distances)
    assert batched.shape == distances.shape
    for q_row, d_row in zip(batched, distances):
        assert np.max(np.abs(q_row - projection_after_propagation(f, d_row))) < 1e-12


def test_projection_factors_bounded_by_one(ridge_mode):
    # every Q(k d) the gap series sums is a projection of a unit-power field
    for d in (0.5, 1.0, 1.96, 2.7):
        n_terms = _num_terms(GapConfig(d_um=d))
        q = projection_after_propagation(ridge_mode.field, d * np.arange(2 * n_terms + 1))
        assert np.all(np.abs(q) <= 1 + 1e-9)
