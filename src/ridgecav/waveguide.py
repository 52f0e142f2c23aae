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
Helmholtz operator d2/dx2 + d2/dy2 + k0^2 n(x,y)^2, with cell permittivities
area-averaged over the material rectangles (grid errors: README, "How
accurate the printed numbers are").

The ridge is centred at x = 0 on a mirror-symmetric grid, so the fundamental
mode is even in x.  It is solved on the x >= 0 half-window and the y rows it
reaches (`_kept_rows`), by Lanczos on a shift-invert in the separable
eigenbasis of the runs of equal columns (`_shift_invert`; Buzbee, Golub and
Nielson, SIAM J. Numer. Anal. 7, 627 (1970)); README, "Conventions worth
knowing", walks through the solver, its cost and its accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EigensolveFailed, NoGuidedMode, check_fields, check_value, fed_by
from .fields import GridSpec, SampledField, _wavenumber_per_um

BOUNDARY_DECAY_LIMIT = 1e-3
MARGIN_UM = 4.0
# the shift sigma = k0^2 n_core^2 may round away at most this fraction of the stencil's 1/d^2
_SHIFT_ROUNDING = 1e-6
# Lanczos step cap: 3-5 um ridges take 12-15 steps, a 0.05 um ridge (edge in column 0) 30-32
_LANCZOS_STEPS = 100


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
        return _wavenumber_per_um(self.wavelength_nm)


@dataclass(frozen=True)
class ModeSolution:
    """Solved fundamental mode: its unit-power profile (a read-only SampledField), n_eff, area."""

    field: SampledField
    n_eff: float
    mode_area_um2: float


def _coverage(low, high, a, b):
    """Per-cell fraction of [low, high] covered by [a, b]; at most 1, as rounding is monotone."""
    return np.maximum((np.minimum(high, b) - np.maximum(low, a)) / (high - low), 0.0)


def _y_faces(geometry: WaveguideGeometry, grid: GridSpec):
    """Lower and upper faces of the y cells, with y = 0 at the slab/mesa interface."""
    y = grid.y_coords_um() + geometry.core_thickness_um / 2.0
    return y - grid.dy_um / 2, y + grid.dy_um / 2


def _permittivity_factors(geometry: WaveguideGeometry, grid: GridSpec):
    """Mesa coverage fx of each x cell, and the n^2 profiles in y inside and outside it.

    Neighbouring x cells share one face value, so at most one cell on each
    side of x = 0 is cut by the ridge edge; every other fx is exactly 1 or 0.
    """
    g = geometry
    x_faces = (np.arange(grid.nx + 1) - grid.nx / 2) * grid.dx_um
    half_w = g.ridge_width_um / 2.0
    fx = _coverage(x_faces[:-1], x_faces[1:], -half_w, half_w)

    yl, yh = _y_faces(g, grid)
    fy_core = _coverage(yl, yh, 0.0, g.core_thickness_um)
    fy_cap = _coverage(yl, yh, g.core_thickness_um, g.ridge_height_um)
    fy_slab = _coverage(yl, yh, -g.cladding_thickness_um, 0.0)
    slab = g.n_clad**2 * fy_slab
    outside = g.n_exterior**2 * (1.0 - fy_slab - fy_core - fy_cap)
    eps_mesa = slab + (g.n_core**2 * fy_core + g.n_clad**2 * fy_cap) + outside
    eps_out = slab + g.n_exterior**2 * (fy_core + fy_cap) + outside
    return fx, eps_mesa, eps_out


def _columns(fx, eps_mesa, eps_out) -> np.ndarray:
    """n^2 of the x columns with mesa coverage fx: eps_mesa where fx = 1, eps_out where 0."""
    fx = fx[:, None]
    return fx * eps_mesa + (1.0 - fx) * eps_out


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


def _x_basis(count: int, mirror: bool):
    """Orthonormal eigenvectors (columns) and eigenvalues of a run's second difference in x.

    The run's ends see zero neighbours, but a mirror run's column 0 is its own
    (its even image across x = 0).  Column l is cos((i + 1/2) t_l), t_l = (l +
    1/2) pi / (count + 1/2), for a mirror run, else sin((i + 1) t_l), t_l =
    (l + 1) pi / (count + 1); its eigenvalue is -4 sin^2(t_l / 2).  Phases are
    reduced mod 2 pi in integers, so they keep full precision.
    """
    if mirror:  # every phase is an integer a_i a_l times pi / n, so a table of 2n holds them
        a, n = 2 * np.arange(count) + 1, 4 * count + 2
        table = np.cos(np.arange(2 * n) * (np.pi / n)) * np.sqrt(8.0 / n)
        return table[np.outer(a, a) % (2 * n)], -4.0 * np.sin(a * np.pi / n) ** 2
    a, n = np.arange(count) + 1, count + 1
    table = np.sin(np.arange(2 * n) * (np.pi / n)) * np.sqrt(2.0 / n)
    return table[np.outer(a, a) % (2 * n)], -4.0 * np.sin(a * np.pi / (2 * n)) ** 2


def _kept_rows(geometry: WaveguideGeometry, grid: GridSpec) -> slice:
    """The y rows a guided mode reaches: the stack's rows and `pad` exterior rows on each side.

    `pad` is the smallest N with r^N <= eps, where a guided mode shrinks by at
    least r per exterior row, r + 1/r = 2 + dy^2 k0^2 (n_clad^2 - n_exterior^2)
    (README, "Conventions worth knowing").  A side keeps every row when the
    pad reaches the window edge, and n_exterior = n_clad (r = 1) keeps them all.
    """
    g = geometry
    stack = np.flatnonzero(_coverage(*_y_faces(g, grid), -g.cladding_thickness_um,
                                     g.ridge_height_um))
    s = (grid.dy_um * g.k0_per_um) ** 2 * (g.n_clad**2 - g.n_exterior**2)
    decay = 2.0 * np.arcsinh(np.sqrt(s) / 2.0)  # ln(1 / r), accurate for small s too
    pad = int(np.ceil(-np.log(np.finfo(float).eps) / decay)) if decay > 0 else grid.ny
    return slice(max(int(stack[0]) - pad, 0), min(int(stack[-1]) + pad + 1, grid.ny))


def _shift_invert(geometry: WaveguideGeometry, grid: GridSpec, sigma: float):
    """(shift, solve, start, to_grid): (A - shift I)^-1 on the x >= 0 half-window, in run bases.

    A is the half-window operator on the `_kept_rows`, with the mirror image
    folded into column 0.  Columns 0 .. j-1 are mesa and j+1 .. m-1 outside;
    each run is diagonal, d[l, k] = mu_k + kappa_l / dx^2, in its y
    eigenbasis Q times `_x_basis`, and meets column j through row e of the
    latter, so column j is solved through its Schur complement: its block
    minus Q diag(sum_l e_l^2 / d[l, k]) Q^T / dx^4 per run (README,
    "Conventions worth knowing").  shift = sigma + 3/4 mu_top, mu_top < 0 the
    top eigenvalue of the mesa profile's y block T(eps_mesa) - sigma I, even
    with no mesa column: no column holds more n^2 than the mesa and the x
    second difference is negative definite, so A's spectrum lies below
    sigma + mu_top, and A - shift I keeps at least a quarter of the distance
    to the spectrum that A - sigma I has: no d vanishes, and a wide mesa,
    whose mode nears the bound, conditions it at most 4 times worse.  A
    vector holds each run's coefficients and column j as it is; `start` is
    the first non-empty run's top mode, (l, k) = (0, top), single-signed like
    the fundamental mode; `to_grid` maps a vector back to the half-window,
    with exact zeros in the dropped rows.
    """
    fx, eps_mesa, eps_out = _permittivity_factors(geometry, grid)
    kept = _kept_rows(geometry, grid)
    fx, eps_mesa, eps_out = fx[grid.nx // 2 :], eps_mesa[kept], eps_out[kept]
    m, ny = len(fx), len(eps_mesa)
    c = 1.0 / grid.dx_um**2
    j = int(np.count_nonzero(fx == 1.0))
    k0_sq = geometry.k0_per_um**2
    off_y = np.full(ny - 1, 1.0 / grid.dy_um**2)

    def block(eps, lead):
        """T(eps) - sigma I, plus `lead` on its diagonal."""
        diag = k0_sq * eps - 2.0 / grid.dy_um**2 - sigma + lead
        return np.diag(diag) + np.diag(off_y, 1) + np.diag(off_y, -1)

    inv_d = np.zeros((m, ny))  # row j stays 0: column j is solved through the Schur complement
    start = np.zeros((m, ny))
    runs = []  # (rows, x basis, y basis, c e) of each non-empty run
    # the mesa run starts at the mirror and ends next to j; the outside run starts next to j
    for first, count, eps, mirror in ((0, j, eps_mesa, True), (j + 1, m - j - 1, eps_out, False)):
        if not (count or mirror):
            continue
        mu, y_basis = np.linalg.eigh(block(eps, 0.0))
        if mirror:
            lift = 0.75 * mu[-1]  # shift - sigma
        if count:
            rows = slice(first, first + count)
            x_basis, kappa = _x_basis(count, mirror)
            inv_d[rows] = 1.0 / (mu - lift + c * kappa[:, None])
            coupling = c * x_basis[-1 if mirror else 0]
            runs.append((rows, x_basis, y_basis, coupling))
    start[runs[0][0].start, -1] = 1.0
    # column j's block is built after the eigh calls, whose freed workspace it reuses
    lead = (-1.0 if j == 0 else -2.0) * c - lift
    schur = block(_columns(fx[j : j + 1], eps_mesa, eps_out)[0], lead)
    for rows, _, y_basis, coupling in runs:
        schur -= (y_basis * (coupling**2 @ inv_d[rows])) @ y_basis.T
    schur_inv = np.linalg.inv(schur)

    def solve(f):
        f = f.reshape(m, ny)
        u = f * inv_d
        rhs = f[j] - sum(y_basis @ (coupling @ u[rows]) for rows, _, y_basis, coupling in runs)
        u[j] = schur_inv @ rhs
        for rows, _, y_basis, coupling in runs:
            u[rows] -= np.multiply.outer(coupling, u[j] @ y_basis) * inv_d[rows]
        return u.ravel()

    def to_grid(vec):
        out = np.zeros((m, grid.ny))
        out[:, kept] = vec.reshape(m, ny)
        for rows, x_basis, y_basis, _ in runs:
            out[rows, kept] = x_basis @ out[rows, kept] @ y_basis.T
        return out

    return sigma + lift, solve, start.ravel(), to_grid


def _lanczos(op, v0):
    """Largest-magnitude eigenpair (theta, unit vector) of the symmetric operator op.

    Lanczos from v0: each step subtracts the three-term recurrence, then
    reorthogonalizes once against the whole basis, and stops once the Ritz
    residual |beta_k y_k| is at most machine epsilon times |theta|.  Raises
    EigensolveFailed after _LANCZOS_STEPS.
    """
    basis = np.empty((_LANCZOS_STEPS + 1, v0.size))  # rows are touched only as they are filled
    basis[0] = v0 / np.linalg.norm(v0)
    tri = np.zeros((_LANCZOS_STEPS + 1, _LANCZOS_STEPS + 1))  # the tridiagonal, filled as it grows
    for k in range(_LANCZOS_STEPS):
        w = op(basis[k])
        if k:
            w -= tri[k, k - 1] * basis[k - 1]
        alpha = tri[k, k] = basis[k] @ w
        w -= alpha * basis[k]
        v = basis[: k + 1]
        w -= (v @ w) @ v  # what the recurrence left along the basis, to working precision
        b = float(np.linalg.norm(w))
        thetas, ys = np.linalg.eigh(tri[: k + 1, : k + 1])
        top = int(np.argmax(np.abs(thetas)))
        if abs(b * ys[-1, top]) <= np.finfo(float).eps * abs(thetas[top]):
            return float(thetas[top]), ys[:, top] @ v
        tri[k, k + 1] = tri[k + 1, k] = b
        basis[k + 1] = w / b
    raise EigensolveFailed(
        f"eigensolve failed: no convergence in {_LANCZOS_STEPS} Lanczos steps"
    )


def solve_fundamental_mode(geometry: WaveguideGeometry, grid: GridSpec) -> ModeSolution:
    """Largest-n_eff eigenmode of the scalar Helmholtz operator.

    Raises NoGuidedMode when the top of the spectrum is at or below the
    cladding light line; ValueError when the window clips the ridge, when
    the shift k0^2 n_core^2 rounds away the stencil's 1/d^2 (a wavelength
    far below the grid step) or when the solved mode has not decayed at the
    window edge; and EigensolveFailed when the Lanczos iteration does not
    converge within its step cap or a dense LAPACK step fails.
    """
    _check_margins(geometry, grid)
    k0 = geometry.k0_per_um
    with np.errstate(over="ignore"):  # an out-of-range shift fails below, as inf
        sigma = float(np.float64(k0 * geometry.n_core) ** 2)
    stencil = 1.0 / max(grid.dx_um, grid.dy_um) ** 2
    if not sigma * np.finfo(float).eps <= _SHIFT_ROUNDING * stencil:
        raise ValueError(f"wavelength_nm = {geometry.wavelength_nm:g} is too short for this grid: "
                         f"k0^2 n_core^2 = {sigma:.3g} per um^2 rounds away more than "
                         f"{_SHIFT_ROUNDING:g} of the stencil's 1/d^2 = {stencil:.3g} per um^2"
                         + fed_by(window_x_um=grid.window_x_um, nx=grid.nx,
                                  window_y_um=grid.window_y_um, ny=grid.ny))
    try:
        shift, solve, start, to_grid = _shift_invert(geometry, grid, sigma)
        theta, vec = _lanczos(solve, start)
        half = to_grid(vec)
        del solve, start, to_grid, vec  # frees the solver's matrices before the profile: peak RSS
    except np.linalg.LinAlgError as exc:  # LAPACK's inv or eigh failing
        raise EigensolveFailed(f"eigensolve failed: {exc}") from exc
    beta_sq = shift + 1.0 / theta
    if beta_sq <= 0:
        raise NoGuidedMode("no propagating solution found")
    n_eff = float(np.sqrt(beta_sq) / k0)
    if n_eff <= geometry.n_clad:
        raise NoGuidedMode(
            f"largest n_eff {n_eff:.6f} is not above the cladding index "
            f"{geometry.n_clad:g}"
        )

    # deterministic sign: largest-|E| sample positive
    half *= np.sign(half.flat[np.argmax(np.abs(half))])
    amps = np.concatenate([half[::-1], half])
    # unit power, rounded as SampledField.normalized rounds: (a + 0.0) * (1 / sqrt(p));
    # the + 0.0 turns the sign flip's -0.0 into 0.0
    amps += 0.0
    amps *= 1.0 / np.sqrt(np.sum(amps**2) * (grid.dx_um * grid.dy_um))
    edge = max(np.abs(amps[[0, -1]]).max(), np.abs(amps[:, [0, -1]]).max()) / np.abs(amps).max()
    if edge > BOUNDARY_DECAY_LIMIT:
        raise ValueError(
            f"mode amplitude at the window edge is {edge:.2e} of the peak; "
            f"limit is {BOUNDARY_DECAY_LIMIT:g}"
        )

    profile = SampledField(amplitudes=amps, dx_um=grid.dx_um, dy_um=grid.dy_um,
                           wavelength_nm=geometry.wavelength_nm)
    return ModeSolution(field=profile, n_eff=n_eff, mode_area_um2=mode_area(profile))


def mode_area(f: SampledField) -> float:
    """Effective area (integral I)^2 / integral I^2 with I = |E|^2 (um^2)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below, as inf or NaN
        intensity = np.abs(f.amplitudes) ** 2
        total = intensity.sum() * f.cell_area_um2
        area = total**2 / ((intensity**2).sum() * f.cell_area_um2)
    check_value("field power", total)
    if total == 0.0:
        raise ValueError("mode area of a zero field is undefined")
    check_value("mode area", area)
    return float(area)


def group_index(n_eff_samples) -> float:
    """n_g = n_eff - lambda * dn_eff/dlambda at the middle sample.

    Input: iterable of (wavelength_nm, n_eff) pairs at distinct wavelengths.
    Three or more samples use a central difference at the middle wavelength;
    exactly two use the secant evaluated at the midpoint.
    """
    try:
        samples = np.array(sorted((float(w), float(n)) for w, n in n_eff_samples))
    except (TypeError, ValueError):
        raise ValueError("n_eff_samples must be (wavelength_nm, n_eff) pairs") from None
    if len(samples) < 2:
        raise ValueError("need at least 2 (wavelength, n_eff) samples")
    for value in samples.flat:
        check_value("n_eff_samples", value)
    wl, ne = samples.T
    if np.any(np.diff(wl) == 0):
        raise ValueError("wavelengths must be distinct")
    m = len(samples) // 2
    with np.errstate(all="ignore"):  # a difference out of float range fails below
        if len(samples) % 2 == 0:
            lam = 0.5 * (wl[m - 1] + wl[m])
            n_mid = 0.5 * (ne[m - 1] + ne[m])
            slope = (ne[m] - ne[m - 1]) / (wl[m] - wl[m - 1])
        else:
            lam = wl[m]
            n_mid = ne[m]
            slope = (ne[m + 1] - ne[m - 1]) / (wl[m + 1] - wl[m - 1])
        n_g = float(n_mid - lam * slope)
    check_value("group index", n_g)
    return n_g
