import itertools
import re
from dataclasses import replace

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
from ridgecav import waveguide
from ridgecav.waveguide import _columns, _permittivity_factors
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
# 0.1 um cells: every index step of the reference ridge lies on a cell face
FACE_GRID = GridSpec(nx=256, ny=256, window_x_um=25.6, window_y_um=25.6)


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
    eps = _columns(*_permittivity_factors(WaveguideGeometry(ridge_width_um=width_um), GRID))
    assert np.array_equal(eps, eps[::-1])


def test_solved_mode_is_exactly_even(ridge_mode):
    amps = ridge_mode.field.amplitudes
    assert np.array_equal(amps, amps[::-1])


def test_solved_profile_is_real_with_no_negative_zero(ridge_mode):
    # the profile is finished in real arithmetic; the sign flip's -0.0 in the
    # dropped rows is turned into 0.0, so mode_field.csv never prints -0
    amps = ridge_mode.field.amplitudes
    assert not np.signbit(amps.imag).any() and not amps.imag.any()
    assert np.count_nonzero(amps.real == 0.0) == 33_792
    assert not np.signbit(amps.real[amps.real == 0.0]).any()
    assert ridge_mode.field.power() == pytest.approx(1.0, abs=1e-14)


def half_window_operator(geometry, grid):
    """Five-point Helmholtz operator on the x >= 0 half-window of an even field, as a sparse matrix.

    For an even field the column just left of x = 0 equals the first
    half-column, so its coupling folds into that column's diagonal as
    +1/dx^2.  Every other edge of the window is a zero (Dirichlet) boundary.
    """
    eps_half = _columns(*_permittivity_factors(geometry, grid))[grid.nx // 2 :]
    nx, ny = eps_half.shape
    n = nx * ny
    dx, dy, k0 = grid.dx_um, grid.dy_um, geometry.k0_per_um
    main = -2.0 / dx**2 - 2.0 / dy**2 + k0**2 * eps_half.ravel()
    main[:ny] += 1.0 / dx**2  # mirror ghost of the first half-column
    off_x = np.full(n - ny, 1.0 / dx**2)
    off_y = np.full(n, 1.0 / dy**2)
    off_y[ny - 1 :: ny] = 0.0  # no coupling across x-rows
    return sp.diags(
        [main, off_x, off_x, off_y[: n - 1], off_y[: n - 1]],
        [0, ny, -ny, 1, -1],
        format="csc",
    )


def _full_window_mode(geometry, grid):
    """Top eigenpair of the five-point operator on the whole window, no mirror fold.

    The eigenvector is scaled to unit power with its largest sample positive.
    """
    eps = _columns(*_permittivity_factors(geometry, grid))
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


@pytest.mark.parametrize("geometry, grid, columns", [
    pytest.param(RIDGE, GRID, 3, id="reference"),
    pytest.param(replace(RIDGE, ridge_width_um=3.2, wavelength_nm=771.0), GRID, 3,
                 id="3.2um-771nm"),
    pytest.param(replace(RIDGE, ridge_width_um=4.1, wavelength_nm=797.0), GRID, 3,
                 id="4.1um-797nm"),
    pytest.param(replace(RIDGE, ridge_width_um=4.8, wavelength_nm=763.0), GRID, 3,
                 id="4.8um-763nm"),
    pytest.param(WIDE_RIDGE, WIDE_GRID, 2, id="wide-ridge"),
    pytest.param(replace(RIDGE, ridge_width_um=2.0), GRID_128, 3, id="2um-ridge"),
    pytest.param(RIDGE, FACE_GRID, 2, id="edges-on-cell-faces"),
])
def test_solved_mode_is_an_eigenpair_of_the_half_window_operator(geometry, grid, columns):
    # the solve measures 2.9e-16 to 6.3e-16 here, so a shorter or looser
    # Lanczos run cannot hide behind the n_eff and area pins
    mode = solve_fundamental_mode(geometry, grid)
    eps = _columns(*_permittivity_factors(geometry, grid))
    # inside and outside the mesa, plus the column a ridge edge cuts, if any
    assert len(np.unique(eps, axis=0)) == columns
    A = half_window_operator(geometry, grid)
    v = mode.field.amplitudes[grid.nx // 2 :].ravel()
    beta_sq = (mode.n_eff * geometry.k0_per_um) ** 2
    assert np.linalg.norm(A @ v - beta_sq * v) <= 1e-13 * beta_sq * np.linalg.norm(v)


@pytest.mark.parametrize("geometry, grid", [
    pytest.param(RIDGE, GRID, id="reference"),
    pytest.param(replace(RIDGE, ridge_width_um=2.0), GRID, id="narrow-ridge"),
    pytest.param(WIDE_RIDGE, WIDE_GRID, id="wide-ridge"),
    pytest.param(RIDGE, FACE_GRID, id="edges-on-cell-faces"),
    pytest.param(RIDGE, replace(GRID, nx=512, ny=512), id="512x512"),
    pytest.param(replace(RIDGE, n_exterior=3.144), replace(GRID, nx=64, ny=64),
                 id="exterior-near-cladding-untrimmed"),
])
def test_solve_matches_sparse_shift_invert_eigsh(geometry, grid):
    # SciPy's sparse LU and ARPACK on the same half-window operator, as an
    # independent reference for the block elimination and the Lanczos loop
    mode = solve_fundamental_mode(geometry, grid)
    A = half_window_operator(geometry, grid)
    sigma = (geometry.k0_per_um * geometry.n_core) ** 2
    n = A.shape[0]
    lu = spla.splu(A - sigma * sp.identity(n, format="csc"))
    vals, vecs = spla.eigsh(A, k=1, sigma=sigma, which="LM", v0=np.ones(n),
                            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float))
    assert mode.n_eff == pytest.approx(np.sqrt(vals[0]) / geometry.k0_per_um, rel=1e-14)
    half = vecs[:, 0].reshape(grid.nx // 2, grid.ny)
    full = np.concatenate([half[::-1], half])
    full *= np.sign(full.flat[np.argmax(np.abs(full))])
    full /= np.sqrt(np.sum(full**2) * grid.dx_um * grid.dy_um)
    amps = mode.field.amplitudes.real
    assert np.abs(amps - full).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("geometry, grid", [
    pytest.param(RIDGE, replace(GRID, nx=64, ny=64), id="reference"),
    # 0.05 um is less than one cell: column 0 is the one the edge cuts
    pytest.param(replace(RIDGE, ridge_width_um=0.05), replace(GRID, nx=64, ny=64),
                 id="edge-in-column-0"),
    pytest.param(RIDGE, GridSpec(nx=64, ny=64, window_x_um=25.6, window_y_um=25.6),
                 id="edge-on-a-cell-face"),
    # 12.5 um cells: the edge cuts the last half-window column, nothing lies outside it
    pytest.param(replace(RIDGE, ridge_width_um=192.0), GridSpec(nx=16, ny=64, window_x_um=200.0),
                 id="edge-in-last-column"),
    pytest.param(WaveguideGeometry(n_core=3.0, n_clad=3.0, n_exterior=3.0),
                 replace(GRID, nx=64, ny=64), id="zero-contrast"),
])
def test_block_elimination_solves_the_shifted_operator(geometry, grid):
    # the solve works in the runs' eigenbasis on the kept y rows: map a
    # right-hand side g and its solution to the grid and check the residual
    # of the half-window operator restricted to those rows, at the shift the
    # solver chose; that shift lies strictly above the operator's spectrum,
    # by at least a quarter of sigma's distance to it
    sigma = (geometry.k0_per_um * geometry.n_core) ** 2
    kept = waveguide._kept_rows(geometry, grid)
    A = _kept_rows_operator(geometry, grid)
    g = np.random.default_rng(7).standard_normal(A.shape[0])
    shift, solve, start, to_grid = waveguide._shift_invert(geometry, grid, sigma)
    top = np.linalg.eigvalsh(A.toarray())[-1]
    assert top < shift < sigma
    assert shift - top >= (sigma - top) / 4
    f, u = to_grid(g)[:, kept].ravel(), to_grid(solve(g))[:, kept].ravel()
    assert np.linalg.norm(f) == pytest.approx(np.linalg.norm(g), rel=1e-14)
    _assert_start_is_the_first_runs_top_mode(geometry, grid, start, to_grid)
    residual = A @ u - shift * u - f
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(f)


def _kept_rows_operator(geometry, grid):
    """half_window_operator restricted to the y rows the solver keeps."""
    kept = waveguide._kept_rows(geometry, grid)
    index = (np.arange(grid.nx // 2)[:, None] * grid.ny + np.arange(grid.ny)[kept]).ravel()
    return half_window_operator(geometry, grid)[index][:, index]


def _assert_start_is_the_first_runs_top_mode(geometry, grid, start, to_grid):
    """start is one coefficient: (l, k) = (0, top) of the mesa run, or of the outside
    run when the edge cuts column 0; on the grid (returned, made nonnegative) a
    single-signed unit vector on that run."""
    fx = _permittivity_factors(geometry, grid)[0][grid.nx // 2 :]
    j = int(np.count_nonzero(fx == 1.0))
    columns = slice(0, j) if j else slice(1, grid.nx // 2)
    rows = start.size // (grid.nx // 2)
    assert np.flatnonzero(start).tolist() == [columns.start * rows + rows - 1]
    assert start.max() == 1.0
    s = to_grid(start)
    s *= np.sign(s.sum())
    assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-14)
    assert s.min() >= -1e-15 * s.max()
    assert np.count_nonzero(np.abs(s).max(axis=1)) == columns.stop - columns.start
    assert np.all(s[columns].max(axis=1) > 0)
    return s


@pytest.mark.parametrize("seed", range(6))
def test_shift_bounds_the_spectrum_and_the_start_overlaps_the_mode(seed):
    # seeded 3-5 um ridges at 760-800 nm, on a grid small enough for a dense
    # eigvalsh: the operator's top eigenvalue lies strictly below the shift,
    # and the start, like the mode, is single-signed, so their overlap is positive
    rng = np.random.default_rng(seed)
    geometry = replace(RIDGE, ridge_width_um=float(rng.uniform(3.0, 5.0)),
                       wavelength_nm=float(rng.uniform(760.0, 800.0)))
    grid = replace(GRID, nx=64, ny=64)
    sigma = (geometry.k0_per_um * geometry.n_core) ** 2
    shift, _, start, to_grid = waveguide._shift_invert(geometry, grid, sigma)
    top = np.linalg.eigvalsh(_kept_rows_operator(geometry, grid).toarray())[-1]
    assert top < shift < sigma
    assert shift - top >= (sigma - top) / 4
    s = _assert_start_is_the_first_runs_top_mode(geometry, grid, start, to_grid)
    mode = solve_fundamental_mode(geometry, grid)
    assert (mode.n_eff * geometry.k0_per_um) ** 2 == pytest.approx(top, rel=1e-14)
    half = mode.field.amplitudes.real[grid.nx // 2 :]
    assert half.min() >= -1e-15 * half.max()
    assert np.vdot(s, half) > 0


@pytest.mark.parametrize("geometry, grid, reached", [
    pytest.param(RIDGE, GRID, 124, id="reference"),
    pytest.param(replace(RIDGE, n_exterior=3.144), replace(GRID, nx=64, ny=64), 64,
                 id="exterior-near-cladding"),
])
def test_mode_is_exactly_zero_beyond_the_decay_pad(geometry, grid, reached):
    # above the mesa and below the slab each x harmonic of a guided mode
    # shrinks by at least r per row, r + 1/r = 2 + dy^2 k0^2 (n_clad^2 -
    # n_exterior^2); the solve keeps the smallest pad of rows with r^pad <=
    # eps beside the cells that touch the stack, and writes 0 beyond it
    mode = solve_fundamental_mode(geometry, grid)
    g = geometry
    s = (grid.dy_um * g.k0_per_um) ** 2 * (g.n_clad**2 - g.n_exterior**2)
    r = (2.0 + s - np.sqrt(s * (4.0 + s))) / 2.0
    pad = next(n for n in itertools.count(1) if r**n <= np.finfo(float).eps)
    y = grid.y_coords_um() + g.core_thickness_um / 2.0  # y = 0 at the slab/mesa interface
    stack = np.flatnonzero((y + grid.dy_um / 2 > -g.cladding_thickness_um)
                           & (y - grid.dy_um / 2 < g.ridge_height_um))
    rows = np.flatnonzero(np.abs(mode.field.amplitudes).max(axis=0))
    assert len(rows) == reached
    assert rows[0] == max(stack[0] - pad, 0)
    assert rows[-1] == min(stack[-1] + pad, grid.ny - 1)
    assert rows[-1] - rows[0] + 1 == len(rows)


def test_unguided_narrow_ridge_stays_unguided_on_the_kept_rows():
    # the kept rows' operator is a principal submatrix of the half-window
    # one, so its top eigenvalue is no larger (Cauchy interlacing); the full
    # half-window solve read the same n_eff
    with pytest.raises(NoGuidedMode, match=r"^largest n_eff 3\.143560 is not above"):
        solve_fundamental_mode(replace(RIDGE, ridge_width_um=0.05), replace(GRID, nx=64, ny=64))


def test_window_edge_error_gives_the_edge_to_peak_ratio():
    geometry = replace(RIDGE, n_clad=3.154, n_exterior=3.154)
    with pytest.raises(ValueError, match="window edge") as err:
        solve_fundamental_mode(geometry, replace(GRID, nx=64, ny=64))
    ratio = float(re.search(r"is (\S+) of the peak", str(err.value)).group(1))
    assert ratio >= waveguide.BOUNDARY_DECAY_LIMIT


@pytest.mark.parametrize("count", [1, 2, 106])
@pytest.mark.parametrize("mirror", [True, False], ids=["mirror-run", "dirichlet-run"])
def test_closed_form_x_basis_diagonalizes_the_second_difference(count, mirror):
    second = -2.0 * np.eye(count) + np.eye(count, k=1) + np.eye(count, k=-1)
    if mirror:
        second[0, 0] += 1.0  # column 0 is its own neighbour across x = 0
    basis, kappa = waveguide._x_basis(count, mirror)
    assert np.abs(basis.T @ basis - np.eye(count)).max() <= 2e-14
    assert np.abs(basis.T @ second @ basis - np.diag(kappa)).max() <= 2e-14
    assert np.abs(np.sort(kappa) - np.linalg.eigh(second)[0]).max() <= 2e-14


def _count_solves(monkeypatch):
    """A list that gets one entry per shift-invert solve, i.e. per Lanczos step."""
    solves = []
    shift_invert = waveguide._shift_invert

    def counting_shift_invert(*args):
        shift, solve, start, to_grid = shift_invert(*args)

        def counted(f):
            solves.append(1)
            return solve(f)
        return shift, counted, start, to_grid

    monkeypatch.setattr(waveguide, "_shift_invert", counting_shift_invert)
    return solves


def test_reference_solve_needs_fewer_shift_invert_solves_than_the_default_basis(monkeypatch):
    # each Lanczos step is one shift-invert solve: the reference mode takes
    # 12, where ARPACK's default 20-vector basis took 21
    solves = _count_solves(monkeypatch)
    solve_fundamental_mode(RIDGE, GRID)
    assert len(solves) == 12


@pytest.mark.parametrize("geometry, grid", [
    pytest.param(replace(RIDGE, ridge_width_um=0.05, n_exterior=3.144),
                 replace(GRID, nx=64, ny=64), id="0.05um-exterior-3.144"),
    pytest.param(replace(RIDGE, ridge_width_um=5e-324), replace(GRID, nx=32, ny=32),
                 id="5e-324um"),
])
def test_sub_cell_ridges_converge_with_one_orthogonalization_pass(monkeypatch, geometry, grid):
    # one Gram-Schmidt pass on the raw product A^-1 v_k loses orthogonality
    # on these and never converges (EigensolveFailed); the three-term
    # recurrence, then one pass against the basis, converges within the cap
    # and finds no guided mode
    solves = _count_solves(monkeypatch)
    with pytest.raises(NoGuidedMode, match="is not above the cladding index"):
        solve_fundamental_mode(geometry, grid)
    assert len(solves) < waveguide._LANCZOS_STEPS


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


@pytest.mark.parametrize("window_um, monotone", [
    pytest.param(25.6, True, id="edges-on-cell-faces"),
    pytest.param(24.0, False, id="edges-inside-cells"),
])
def test_measured_grid_convergence(window_um, monotone):
    # the waveguide docstring's measured behaviour: with every index step on
    # a cell face n_eff converges monotonically at an observed order of 1 to 2
    # (1.37 here), not 2; when the ridge edge cuts a cell at a fraction that
    # changes with the grid, the changes alternate in sign
    n_eff = [
        solve_fundamental_mode(RIDGE, GridSpec(nx=n, ny=n, window_x_um=window_um,
                                               window_y_um=window_um)).n_eff
        for n in (128, 256, 512)
    ]
    coarse, fine = np.diff(n_eff)
    if monotone:
        assert coarse * fine > 0
        assert 1.0 <= np.log2(coarse / fine) <= 2.0
    else:
        assert coarse * fine < 0


def test_window_too_small_is_rejected():
    with pytest.raises(ValueError):
        solve_fundamental_mode(RIDGE, GridSpec(nx=64, ny=64, window_x_um=10.0, window_y_um=10.0))


def test_window_too_short_above_the_ridge_is_rejected():
    # wide enough in x, but the top of an 11 um window is 7.5 um above the
    # slab, 3.5 um above the 4 um ridge
    grid = GridSpec(nx=64, ny=64, window_x_um=24.0, window_y_um=11.0)
    message = r"^window_y_um=11 leaves less than 4 um above or below the ridge$"
    with pytest.raises(ValueError, match=message):
        solve_fundamental_mode(RIDGE, grid)


def test_wavelength_far_beyond_the_window_has_no_propagating_solution():
    # at 100 um the shift-inverted top eigenvalue puts beta^2 below 0
    with pytest.raises(NoGuidedMode, match=r"^no propagating solution found$"):
        solve_fundamental_mode(replace(RIDGE, wavelength_nm=1e5), GRID)


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
