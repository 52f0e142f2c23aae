"""Scalar mode solver for the etched ridge structure.

The cross-section is a mesa of width `ridge_width_um` and height
`ridge_height_um` standing on a lower-index cladding slab of thickness
`cladding_thickness_um`.  Inside the mesa the bottom `core_thickness_um` is
core material and the remainder (if any) is cladding; outside the mesa
everything above the slab is the exterior medium, as is everything below
the slab (the substrate is outside the model, and the mode has decayed to
~1e-3 at the default slab depth).  y = 0 at the slab/mesa interface; the
grid window is centered on the core center (y = core_thickness/2).

The fundamental mode is the largest-eigenvalue pair of the transverse scalar
Helmholtz operator d2/dx2 + d2/dy2 + k0^2 n(x,y)^2, found by a sparse
shift-and-invert eigensolve targeted at k0^2 n_core^2.  Cell permittivities
are area-averaged over the material rectangles.  That does not make the grid
convergence second order.  On the reference ridge and 24 um window, n_eff
changes by -1.5e-4, +8.9e-5, -4.3e-6 and +9.9e-6 from 64^2 to 1024^2: not
monotone, because the ridge edge cuts a cell at a different fraction on each
grid.  With every index step on a cell face (25.6 um window) the changes are
monotone, but their observed order is only 1.1 to 1.7.  So the n_eff printed
at 256^2 carries a grid error of about 1e-5.

The ridge is centred at x = 0 and the cell-centred grid is mirror-symmetric
about it, so the permittivity map is exactly even in x.  The fundamental
mode, the nodeless top eigenvector of this symmetric operator, is then even
too.  The operator is therefore assembled on the x >= 0 half-window only
(half the unknowns), with the mirror image folded into the first
half-column, and the solved half is unfolded into the full-window field.
The shifted operator is factored once with a minimum-degree ordering of
A^T + A, which suits its symmetric pattern and fills in much less than the
column ordering the eigensolver would pick by default.  SuperLU runs with
relax=1 and panel_size=1: the ordering and the fill stay the same (1.6 M
L+U nonzeros at 256^2) and only the supernode partition shrinks.  On a
2-core Xeon that cut the 256^2 factorization from about 0.10 to 0.07 s and,
at 512^2, one solve's peak RSS from 214 to 180 MiB.  The Lanczos basis holds
8 vectors instead of ARPACK's default 20: the reference mode converges in 17
shift-invert solves instead of 21, with the same eigenvalue bit for bit at
256^2 and 512^2.  Against the default settings, rows of `mode_field.csv`
above 1e-6 of the peak are byte-identical and the rest move by at most
2.2e-13 of the peak, ARPACK's noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EigensolveFailed, NoGuidedMode, check_fields, check_value
from .fields import GridSpec, SampledField
from .propagation import _spectrum

BOUNDARY_DECAY_LIMIT = 1e-3
MARGIN_UM = 4.0


@dataclass(frozen=True)
class WaveguideGeometry:
    """Ridge cross-section, layer indices and the operating wavelength."""

    ridge_width_um: float = field(default=4.0, metadata={"gt": 0})
    ridge_height_um: float = field(default=4.0, metadata={"gt": 0})
    core_thickness_um: float = field(default=4.0, metadata={"gt": 0})
    cladding_thickness_um: float = field(default=4.0, metadata={"gt": 0})
    n_core: float = 3.155
    n_clad: float = 3.145
    n_exterior: float = field(default=1.0, metadata={"ge": 1})
    wavelength_nm: float = field(default=780.0, metadata={"gt": 0})

    def __post_init__(self):
        check_fields(self)
        # n_core == n_clad (zero contrast) is constructible; the solver then
        # reports NoGuidedMode instead of rejecting the geometry up front.
        for low, high in (("core_thickness_um", "ridge_height_um"),
                          ("n_clad", "n_core"), ("n_exterior", "n_clad")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must be <= {high} ({getattr(self, high)}), "
                                 f"got {getattr(self, low)}")

    @property
    def k0_per_um(self) -> float:
        return 2.0 * np.pi / (self.wavelength_nm * 1e-3)


@dataclass(frozen=True)
class ModeSolution:
    """Solved fundamental mode: unit-power profile, n_eff and mode area.

    `spectrum` is the profile's angular spectrum, built on first use and kept
    for every later gap call; the solver makes the profile read-only.
    """

    field: SampledField
    n_eff: float
    mode_area_um2: float

    @cached_property
    def spectrum(self):
        return _spectrum(self.field)


def _coverage(low, high, a, b):
    """Per-cell fraction of the interval [low, high] covered by [a, b]."""
    return np.clip(
        (np.minimum(high, b) - np.maximum(low, a)) / (high - low), 0.0, 1.0
    )


def permittivity_map(geometry: WaveguideGeometry, grid: GridSpec) -> np.ndarray:
    """Area-averaged n^2 on the grid, window centered on the core center."""
    g = geometry
    x = grid.x_coords_um()
    y = grid.y_coords_um() + g.core_thickness_um / 2.0
    dx, dy = grid.dx_um, grid.dy_um
    xl, xh = x - dx / 2, x + dx / 2
    yl, yh = y - dy / 2, y + dy / 2
    half_w = g.ridge_width_um / 2.0

    fx_mesa = _coverage(xl, xh, -half_w, half_w)[:, None]
    fy_core = _coverage(yl, yh, 0.0, g.core_thickness_um)[None, :]
    fy_cap = _coverage(yl, yh, g.core_thickness_um, g.ridge_height_um)[None, :]
    fy_slab = _coverage(yl, yh, -g.cladding_thickness_um, 0.0)[None, :]
    fy_outside = 1.0 - fy_slab - fy_core - fy_cap

    eps = (
        g.n_clad**2 * fy_slab
        + fx_mesa * (g.n_core**2 * fy_core + g.n_clad**2 * fy_cap)
        + (1.0 - fx_mesa) * g.n_exterior**2 * (fy_core + fy_cap)
        + g.n_exterior**2 * fy_outside
    )
    return np.broadcast_to(eps, (grid.nx, grid.ny)).copy()


def _check_margins(geometry: WaveguideGeometry, grid: GridSpec) -> None:
    g = geometry
    if grid.window_x_um < g.ridge_width_um + 2 * MARGIN_UM:
        raise ValueError(
            f"window_x_um={grid.window_x_um:g} leaves less than {MARGIN_UM:g} um "
            f"beside the {g.ridge_width_um:g} um ridge"
        )
    y_top = grid.window_y_um / 2.0 + g.core_thickness_um / 2.0
    y_bot = -grid.window_y_um / 2.0 + g.core_thickness_um / 2.0
    if y_top < g.ridge_height_um + MARGIN_UM or y_bot > -MARGIN_UM:
        raise ValueError(
            f"window_y_um={grid.window_y_um:g} leaves less than {MARGIN_UM:g} um "
            "above or below the ridge"
        )


def _helmholtz_matrix(eps_half: np.ndarray, dx: float, dy: float, k0: float):
    """Five-point Helmholtz operator on the x >= 0 half-window of an even field.

    For an even field the column just left of x = 0 equals the first
    half-column, so its coupling folds into that column's diagonal as
    +1/dx^2.  Every other edge of the window is a zero (Dirichlet) boundary.
    """
    import scipy.sparse as sp  # here, not at module level: see solve_fundamental_mode

    nx, ny = eps_half.shape
    n = nx * ny
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


def solve_fundamental_mode(geometry: WaveguideGeometry, grid: GridSpec) -> ModeSolution:
    """Largest-n_eff eigenmode of the scalar Helmholtz operator.

    Raises NoGuidedMode when the top of the spectrum is at or below the
    cladding light line, ValueError when the window clips the ridge or the
    solved mode has not decayed at the window edge, and EigensolveFailed
    when the shifted operator is singular or ARPACK does not converge.
    """
    # imported here, not at module level: scipy.sparse takes about 0.25 s to
    # import (2-core Xeon) and only the commands that solve a mode need it
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    _check_margins(geometry, grid)
    k0 = geometry.k0_per_um
    eps = permittivity_map(geometry, grid)
    A = _helmholtz_matrix(eps[grid.nx // 2 :], grid.dx_um, grid.dy_um, k0)
    sigma = (k0 * geometry.n_core) ** 2
    n = A.shape[0]
    try:
        # small supernodes, same fill: 512^2 splu 0.66-0.86 -> 0.52 s, 214 -> 180 MiB (2-core Xeon)
        lu = spla.splu(A - sigma * sp.identity(n, format="csc"),
                       permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        # fixed start vector keeps the solve deterministic run to run
        # ncv=8: 17 OPinv solves on the reference mode, 21 with the default 20-vector basis
        vals, vecs = spla.eigsh(
            A, k=1, sigma=sigma, which="LM", v0=np.ones(n), ncv=8,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
        )
    except RuntimeError as exc:  # splu's "exactly singular"; ArpackNoConvergence
        raise EigensolveFailed(f"eigensolve failed: {exc}") from exc
    beta_sq = float(vals[0])
    if beta_sq <= 0:
        raise NoGuidedMode("no propagating solution found")
    n_eff = float(np.sqrt(beta_sq) / k0)
    if n_eff <= geometry.n_clad:
        raise NoGuidedMode(
            f"largest n_eff {n_eff:.6f} is not above the cladding index "
            f"{geometry.n_clad:g}"
        )

    half = vecs[:, 0].reshape(grid.nx // 2, grid.ny)
    amps = np.concatenate([half[::-1], half]).astype(complex)
    # deterministic phase: largest-|E| sample real and positive
    peak = amps.flat[np.argmax(np.abs(amps))]
    amps = amps * (np.conj(peak) / abs(peak))
    # the profile is reused as the free-space input of the gap
    profile = SampledField(
        amplitudes=amps,
        dx_um=grid.dx_um,
        dy_um=grid.dy_um,
        wavelength_nm=geometry.wavelength_nm,
    ).normalized()

    edge = max(
        np.abs(profile.amplitudes[0, :]).max(),
        np.abs(profile.amplitudes[-1, :]).max(),
        np.abs(profile.amplitudes[:, 0]).max(),
        np.abs(profile.amplitudes[:, -1]).max(),
    )
    if edge > BOUNDARY_DECAY_LIMIT * np.abs(profile.amplitudes).max():
        raise ValueError(
            f"mode amplitude at the window edge is {edge:.2e} of the peak; "
            f"limit is {BOUNDARY_DECAY_LIMIT:g}"
        )

    profile.amplitudes.setflags(write=False)  # an in-place write would leave `spectrum` stale
    return ModeSolution(
        field=profile,
        n_eff=n_eff,
        mode_area_um2=mode_area(profile),
    )


def mode_area(f: SampledField) -> float:
    """Effective area (integral I)^2 / integral I^2 with I = |E|^2 (um^2)."""
    intensity = np.abs(f.amplitudes) ** 2
    total = intensity.sum() * f.cell_area_um2
    if total == 0.0:
        raise ValueError("mode area of a zero field is undefined")
    return float(total**2 / ((intensity**2).sum() * f.cell_area_um2))


def group_index(n_eff_samples) -> float:
    """n_g = n_eff - lambda * dn_eff/dlambda at the middle sample.

    Input: iterable of (wavelength_nm, n_eff) pairs at distinct wavelengths.
    Three or more samples use a central difference at the middle wavelength;
    exactly two use the secant evaluated at the midpoint.
    """
    samples = np.array(sorted((float(w), float(n)) for w, n in n_eff_samples))
    if len(samples) < 2:
        raise ValueError("need at least 2 (wavelength, n_eff) samples")
    for value in samples.flat:
        check_value("n_eff_samples", value)
    wl, ne = samples.T
    if np.any(np.diff(wl) == 0):
        raise ValueError("wavelengths must be distinct")
    m = len(samples) // 2
    if len(samples) % 2 == 0:
        lam = 0.5 * (wl[m - 1] + wl[m])
        n_mid = 0.5 * (ne[m - 1] + ne[m])
        slope = (ne[m] - ne[m - 1]) / (wl[m] - wl[m - 1])
    else:
        lam = wl[m]
        n_mid = ne[m]
        slope = (ne[m + 1] - ne[m - 1]) / (wl[m + 1] - wl[m - 1])
    return float(n_mid - lam * slope)
