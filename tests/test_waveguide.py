from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ridgecav import (
    GridSpec,
    NoGuidedMode,
    SampledField,
    WaveguideGeometry,
    group_index,
    mode_area,
    solve_fundamental_mode,
)
from ridgecav.waveguide import _helmholtz_matrix, permittivity_map
from conftest import GRID, RIDGE

GRID_128 = GridSpec(nx=128, ny=128, window_x_um=24.0, window_y_um=24.0)
# a ridge much wider than the mode: the vertical structure is a symmetric slab
WIDE_RIDGE = WaveguideGeometry(
    ridge_width_um=24.0,
    ridge_height_um=10.0,
    core_thickness_um=4.0,
    n_core=3.155,
    n_clad=3.145,
    wavelength_nm=780.0,
)
WIDE_GRID = GridSpec(nx=256, ny=128, window_x_um=32.0, window_y_um=28.0)


def slab_n_eff_analytic(n_core, n_clad, thickness_um, wavelength_um):
    """Fundamental even mode of the symmetric slab by bisection.

    Dispersion relation u tan(u) = sqrt(V^2 - u^2) with u = a k_y,
    V = k0 a sqrt(n_core^2 - n_clad^2), a the half thickness.
    """
    k0 = 2.0 * np.pi / wavelength_um
    a = thickness_um / 2.0
    v = k0 * a * np.sqrt(n_core**2 - n_clad**2)

    def f(u):
        return u * np.tan(u) - np.sqrt(v * v - u * u)

    lo, hi = 1e-9, min(v, np.pi / 2.0) - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    k_y = u / a
    return float(np.sqrt(n_core**2 - (k_y / k0) ** 2))


def test_uniform_medium_has_no_guided_mode():
    geo = WaveguideGeometry(
        n_core=3.0, n_clad=3.0, n_exterior=3.0, wavelength_nm=780.0
    )
    with pytest.raises(NoGuidedMode):
        solve_fundamental_mode(geo, GridSpec(nx=64, ny=64))


def test_wide_ridge_matches_analytic_slab_dispersion():
    # residual lateral confinement shifts n_eff from the slab's by < 1e-4
    mode = solve_fundamental_mode(WIDE_RIDGE, WIDE_GRID)
    expected = slab_n_eff_analytic(3.155, 3.145, 4.0, 0.780)
    assert mode.n_eff == pytest.approx(expected, abs=1e-4)


def test_reference_ridge_mode(ridge_mode):
    assert 3.145 < ridge_mode.n_eff < 3.155
    assert ridge_mode.mode_area_um2 == pytest.approx(9.9, rel=0.20)
    assert ridge_mode.field.power() == pytest.approx(1.0, abs=1e-10)


def test_n_eff_monotone_in_ridge_width():
    n_effs = []
    for width in (4.0, 3.0, 2.0):
        geo = WaveguideGeometry(ridge_width_um=width)
        n_effs.append(solve_fundamental_mode(geo, GRID_128).n_eff)
    assert n_effs[0] > n_effs[1] > n_effs[2]
    # narrow enough and the lateral squeeze pushes n_eff below the slab line
    with pytest.raises(NoGuidedMode):
        solve_fundamental_mode(WaveguideGeometry(ridge_width_um=1.0), GRID_128)


@pytest.mark.parametrize("width_um", [4.0, 3.3, 4.03125, 2.71])
def test_permittivity_map_is_mirror_symmetric(width_um):
    # 4.03125 um is 43 cells of the 256^2 grid, so both ridge edges fall
    # mid-cell and those cells are partly covered
    eps = permittivity_map(WaveguideGeometry(ridge_width_um=width_um), GRID)
    assert np.array_equal(eps, eps[::-1])


def test_solved_mode_is_exactly_even(ridge_mode):
    amps = ridge_mode.field.amplitudes
    assert np.array_equal(amps, amps[::-1])


def _full_window_mode(geometry, grid):
    """Top eigenpair of the five-point operator on the whole window, no mirror fold.

    The eigenvector is scaled to unit power with its largest sample positive.
    """
    eps = permittivity_map(geometry, grid)
    nx, ny = eps.shape
    n = nx * ny
    dx, dy, k0 = grid.dx_um, grid.dy_um, geometry.k0_per_um
    off_x = np.full(n - ny, 1.0 / dx**2)
    off_y = np.full(n, 1.0 / dy**2)
    off_y[ny - 1 :: ny] = 0.0
    A = sp.diags(
        [-2.0 / dx**2 - 2.0 / dy**2 + k0**2 * eps.ravel(), off_x, off_x,
         off_y[: n - 1], off_y[: n - 1]],
        [0, ny, -ny, 1, -1],
        format="csc",
    )
    vals, vecs = spla.eigsh(A, k=1, sigma=(k0 * geometry.n_core) ** 2, which="LM",
                            v0=np.ones(n))
    v = vecs[:, 0].reshape(nx, ny)
    v = v * np.sign(v.flat[np.argmax(np.abs(v))])
    return vals[0], v / np.sqrt(np.sum(v**2) * dx * dy)


def test_half_window_solve_matches_full_window_operator():
    mode = solve_fundamental_mode(RIDGE, GRID_128)
    beta_sq, full = _full_window_mode(RIDGE, GRID_128)
    assert (mode.n_eff * RIDGE.k0_per_um) ** 2 == pytest.approx(beta_sq, rel=1e-12)
    amps = mode.field.amplitudes
    assert np.abs(amps.imag).max() == 0.0
    assert np.abs(amps.real - full).max() <= 1e-10 * np.abs(full).max()


@pytest.mark.parametrize("geometry, grid", [
    pytest.param(RIDGE, GRID, id="reference"),
    pytest.param(replace(RIDGE, ridge_width_um=3.2, wavelength_nm=771.0), GRID, id="3.2um-771nm"),
    pytest.param(replace(RIDGE, ridge_width_um=4.1, wavelength_nm=797.0), GRID, id="4.1um-797nm"),
    pytest.param(replace(RIDGE, ridge_width_um=4.8, wavelength_nm=763.0), GRID, id="4.8um-763nm"),
    pytest.param(WIDE_RIDGE, WIDE_GRID, id="wide-ridge"),
    pytest.param(replace(RIDGE, ridge_width_um=2.0), GRID_128, id="2um-ridge"),
])
def test_solved_mode_is_an_eigenpair_of_the_half_window_operator(geometry, grid):
    # the solve measures 1.3e-16 to 3.8e-16 here, so a shorter or looser
    # Lanczos run cannot hide behind the n_eff and area pins
    mode = solve_fundamental_mode(geometry, grid)
    k0 = geometry.k0_per_um
    A = _helmholtz_matrix(permittivity_map(geometry, grid)[grid.nx // 2 :],
                          grid.dx_um, grid.dy_um, k0)
    v = mode.field.amplitudes[grid.nx // 2 :].ravel()
    beta_sq = (mode.n_eff * k0) ** 2
    assert np.linalg.norm(A @ v - beta_sq * v) <= 1e-13 * beta_sq * np.linalg.norm(v)


def test_reference_solve_needs_fewer_shift_invert_solves_than_the_default_basis(monkeypatch):
    # ARPACK's default 20-vector Lanczos basis takes 21 LU solves on the
    # reference mode; the solver's 8-vector basis converges in 17
    solves = []
    factor = spla.splu

    def counting_splu(*args, **kwargs):
        lu = factor(*args, **kwargs)

        def solve(b):
            solves.append(1)
            return lu.solve(b)
        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(spla, "splu", counting_splu)
    solve_fundamental_mode(RIDGE, GRID)
    assert 0 < len(solves) < 21


def test_reference_mode_is_pinned(ridge_mode):
    assert ridge_mode.n_eff == pytest.approx(3.152382061786859, rel=1e-12)
    assert ridge_mode.mode_area_um2 == pytest.approx(8.31708521973378, rel=1e-12)


def test_grid_doubling_convergence(ridge_mode):
    fine = solve_fundamental_mode(
        RIDGE, GridSpec(nx=512, ny=512, window_x_um=24.0, window_y_um=24.0)
    )
    assert fine.n_eff == pytest.approx(3.1523777354910076, rel=1e-12)
    assert abs(fine.n_eff - ridge_mode.n_eff) < 1e-4
    assert abs(fine.mode_area_um2 - ridge_mode.mode_area_um2) < 0.02 * ridge_mode.mode_area_um2


def test_window_too_small_is_rejected():
    with pytest.raises(ValueError):
        solve_fundamental_mode(RIDGE, GridSpec(nx=64, ny=64, window_x_um=10.0, window_y_um=10.0))


def test_mode_area_flat_top():
    nx, window = 128, 16.0
    dx = window / nx
    x = (np.arange(nx) - nx / 2 + 0.5) * dx
    xx, yy = np.meshgrid(x, x, indexing="ij")
    amps = ((np.abs(xx) < 2.0) & (np.abs(yy) < 3.0)).astype(complex)
    f = SampledField(amps, dx_um=dx, dy_um=dx, wavelength_nm=780.0)
    assert mode_area(f) == pytest.approx(4.0 * 6.0, rel=1e-9)


def test_mode_area_gaussian():
    from conftest import make_gaussian

    w0 = 2.0
    f = make_gaussian(w0)
    # I ~ exp(-2 r^2 / w^2): (int I)^2 / int I^2 = pi w^2
    assert mode_area(f) == pytest.approx(np.pi * w0**2, rel=1e-6)


def test_mode_area_scale_invariant(ridge_mode):
    f = ridge_mode.field
    scaled = replace(f, amplitudes=(2.5 - 1.2j) * f.amplitudes)
    assert mode_area(scaled) == pytest.approx(mode_area(f), rel=1e-12)


def test_mode_area_zero_field():
    f = SampledField(np.zeros((16, 16)), dx_um=0.5, dy_um=0.5)
    with pytest.raises(ValueError):
        mode_area(f)


def test_group_index_dispersionless():
    samples = [(779.0, 3.2), (780.0, 3.2), (781.0, 3.2)]
    assert group_index(samples) == pytest.approx(3.2, abs=1e-12)


def test_group_index_linear_model():
    a, b = 5.0, 1.923e-3
    samples = [(wl, a - b * wl) for wl in (779.0, 780.0, 781.0)]
    assert group_index(samples) == pytest.approx(a, abs=1e-9)


def test_group_index_consistent_with_measured_dispersion(ridge_mode):
    # slope chosen so that n - lambda dn/dlambda reproduces the measured
    # group index of 3.50 at the phase index of the solved mode
    n0, ng_target, lam0 = ridge_mode.n_eff, 3.50, 780.0
    slope = (n0 - ng_target) / lam0
    samples = [(lam, n0 + slope * (lam - lam0)) for lam in (779.0, 780.0, 781.0)]
    assert group_index(samples) == pytest.approx(ng_target, abs=0.04)


def test_group_index_two_samples_secant():
    samples = [(779.0, 3.16), (781.0, 3.15)]
    lam_mid, n_mid = 780.0, 3.155
    slope = (3.15 - 3.16) / 2.0
    assert group_index(samples) == pytest.approx(n_mid - lam_mid * slope, abs=1e-12)


def test_group_index_requires_two_distinct_samples():
    with pytest.raises(ValueError):
        group_index([(780.0, 3.2)])
    with pytest.raises(ValueError):
        group_index([(780.0, 3.2), (780.0, 3.3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", [0, 1], ids=["wavelength", "n_eff"])
def test_group_index_rejects_non_finite_sample(column, bad):
    samples = [[779.0, 3.2], [780.0, 3.2], [781.0, 3.2]]
    samples[1][column] = bad
    with pytest.raises(ValueError, match=rf"^n_eff_samples must be finite, got {bad}$"):
        group_index(samples)


def test_geometry_validation():
    with pytest.raises(ValueError):
        WaveguideGeometry(n_core=3.1, n_clad=3.2)  # inverted contrast
    with pytest.raises(ValueError):
        WaveguideGeometry(ridge_width_um=-1.0)
    with pytest.raises(ValueError):
        WaveguideGeometry(core_thickness_um=5.0, ridge_height_um=4.0)
    for name in ("ridge_width_um", "ridge_height_um", "core_thickness_um",
                 "cladding_thickness_um", "n_core", "n_clad", "n_exterior",
                 "wavelength_nm"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                WaveguideGeometry(**{name: bad})


def test_solve_leaves_the_spectrum_unbuilt():
    # Built inside the solve, while the LU factor was still alive, the
    # spectrum raised the gap_design benchmark's peak RSS from about 99 to
    # 111 MiB over five reference solves (2-core Xeon, 1 BLAS thread); built
    # on first use after the solve, it left the peak where it was.
    mode = solve_fundamental_mode(RIDGE, replace(GRID, nx=64, ny=64))
    assert "spectrum" not in vars(mode)


def test_solved_profile_is_read_only(ridge_mode):
    # an in-place write would leave the spectrum the mode keeps stale
    with pytest.raises(ValueError, match="read-only"):
        ridge_mode.field.amplitudes[0, 0] = 0.0
