"""Fabry-Perot relations, quarter-wave mirror stacks and the loss fit.

The round-trip amplitude factor g = sqrt(R_left R_right) exp(-alpha l)
(optionally times the gap round-trip amplitude) drives the finesse

    F = pi sqrt(g) / (1 - g),

and finesse times linewidth gives back the free spectral range
c / (2 n_g l).  `fit_losses` inverts measured finesse-vs-length data for
(R, alpha) by damped least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import C_M_PER_S
from .errors import FitDiverged, InsufficientData, NoSolution, OutOfRange, require_finite


@dataclass(frozen=True)
class CavitySpec:
    """Cavity length, group index, propagation loss and mirror reflectivities."""

    length_um: float
    n_group: float
    alpha_per_cm: float = 0.0
    mirror_R_left: float = 1.0
    mirror_R_right: float = 1.0
    gap_round_trip_amplitude: float | None = None

    def __post_init__(self):
        require_finite(self)
        if self.length_um <= 0:
            raise ValueError("length_um must be positive")
        if self.n_group <= 0:
            raise ValueError("n_group must be positive")
        if self.alpha_per_cm < 0:
            raise ValueError("alpha_per_cm must be >= 0")
        for name in ("mirror_R_left", "mirror_R_right"):
            rr = getattr(self, name)
            if not (0.0 <= rr <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        amp = self.gap_round_trip_amplitude
        if amp is not None and not (0.0 < amp <= 1.0):
            raise ValueError("gap_round_trip_amplitude must be in (0, 1]")


@dataclass(frozen=True)
class MirrorStack:
    """Ordered thin-film layers (index, thickness_nm) from the incidence side."""

    layers: tuple
    n_incident: float
    n_exit: float

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple((float(n), float(t)) for n, t in self.layers))
        for n, t in self.layers:
            if n < 1:
                raise ValueError("layer indices must be >= 1")
            if t <= 0:
                raise ValueError("layer thicknesses must be positive")
        if self.n_incident < 1 or self.n_exit < 1:
            raise ValueError("bounding indices must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Fitted (R, alpha) with 1-sigma uncertainties and covariance."""

    R_fit: float
    alpha_fit_per_cm: float
    sigma_R: float
    sigma_alpha: float
    covariance: np.ndarray = field(repr=False)
    residual_norm: float = 0.0
    rank_deficient: bool = False


def finesse_from_round_trip(g_rt: float) -> float:
    """F = pi sqrt(g) / (1 - g) for a round-trip amplitude factor in (0, 1)."""
    if not (0.0 < g_rt < 1.0):
        raise OutOfRange(f"round-trip factor must be in (0, 1), got {g_rt}")
    return float(np.pi * np.sqrt(g_rt) / (1.0 - g_rt))


def _g_from_finesse_closed_form(finesse):
    """Invert F = pi sqrt(g)/(1 - g): sqrt(g) is the positive root of F x^2 + pi x - F."""
    x = (-np.pi + np.sqrt(np.pi**2 + 4.0 * finesse**2)) / (2.0 * finesse)
    return x * x


def round_trip_amplitude(spec: CavitySpec) -> float:
    """g = sqrt(R_left R_right) exp(-alpha l) times the gap factor if present."""
    alpha_per_um = spec.alpha_per_cm * 1e-4
    g = np.sqrt(spec.mirror_R_left * spec.mirror_R_right) * np.exp(
        -alpha_per_um * spec.length_um
    )
    if spec.gap_round_trip_amplitude is not None:
        g *= spec.gap_round_trip_amplitude
    return float(g)


def free_spectral_range_ghz(length_um: float, n_group: float) -> float:
    """FSR = c / (2 n_g L) in GHz."""
    if length_um <= 0 or n_group <= 0:
        raise OutOfRange("length and group index must be positive")
    return C_M_PER_S / (2.0 * n_group * length_um * 1e-6) / 1e9


def linewidth_ghz(finesse: float, fsr_ghz: float) -> float:
    """Resonance full width (2 kappa / 2 pi) = FSR / F in GHz."""
    if finesse <= 0:
        raise OutOfRange("finesse must be positive")
    return fsr_ghz / finesse


def alpha_from_linewidth(width_2kappa_ghz: float, length_um: float,
                         n_group: float, mirror_R: float) -> float:
    """Propagation loss alpha (1/cm) implied by a measured linewidth.

    Inverts linewidth -> finesse -> round-trip factor (closed form) and strips
    the mirror contribution: alpha = -ln(g / R) / l with both facets at
    mirror_R.
    """
    if width_2kappa_ghz <= 0 or length_um <= 0 or n_group <= 0:
        raise OutOfRange("width, length and group index must be positive")
    if not (0.0 < mirror_R <= 1.0):
        raise OutOfRange("mirror_R must be in (0, 1]")
    fsr = free_spectral_range_ghz(length_um, n_group)
    finesse = fsr / width_2kappa_ghz
    g = _g_from_finesse_closed_form(finesse)
    if g >= mirror_R:  # sqrt(R_L R_R) with both facets at mirror_R
        raise NoSolution(
            f"implied round-trip factor {g:.6g} is not below the mirror "
            f"contribution {mirror_R:.6g}; no alpha >= 0 reproduces it"
        )
    alpha_per_um = -np.log(g / mirror_R) / length_um
    return float(alpha_per_um * 1e4)


def quarter_wave_stack(pairs: int, n_high: float = 2.35, n_low: float = 1.50,
                       n_incident: float = 3.155, n_exit: float = 1.0,
                       wavelength_nm: float = 780.0) -> MirrorStack:
    """Alternating quarter-wave pairs, low-index layer at the incidence facet.

    With the guide as the incidence medium, starting from the low-index layer
    walks the admittance down by (n_low/n_high)^2 per pair, which maximizes
    the mismatch and hence the reflectivity.
    """
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    layers = []
    for _ in range(pairs):
        layers.append((n_low, wavelength_nm / (4.0 * n_low)))
        layers.append((n_high, wavelength_nm / (4.0 * n_high)))
    return MirrorStack(layers=tuple(layers), n_incident=n_incident, n_exit=n_exit)


def stack_reflectivity(stack: MirrorStack, wavelength_nm: float) -> float:
    """Normal-incidence intensity reflectivity by the characteristic matrix."""
    m = np.eye(2, dtype=complex)
    for n, t_nm in stack.layers:
        delta = 2.0 * np.pi * n * t_nm / wavelength_nm
        layer = np.array(
            [
                [np.cos(delta), 1j * np.sin(delta) / n],
                [1j * n * np.sin(delta), np.cos(delta)],
            ]
        )
        m = m @ layer
    b, c = m @ np.array([1.0, stack.n_exit], dtype=complex)
    r = (stack.n_incident * b - c) / (stack.n_incident * b + c)
    return float(abs(r) ** 2)


def _finesse_model(params, lengths_um):
    big_r, alpha_per_cm = params
    g = big_r * np.exp(-alpha_per_cm * 1e-4 * lengths_um)
    g = np.clip(g, 1e-12, 1.0 - 1e-12)
    return np.pi * np.sqrt(g) / (1.0 - g)


def fit_losses(data) -> FitResult:
    """Fit finesse-vs-length measurements for (R, alpha).

    data: iterable of (length_um, finesse) or (length_um, finesse, sigma).
    Weighted residuals when sigmas are given, plain residuals otherwise.
    Start values come from the data itself (R from the best point at
    alpha = 0, alpha from the two extreme lengths), then a damped
    least-squares refinement with relative step tolerance 1e-10.
    """
    # imported here, not at module level: scipy.optimize is slow to import
    # and only the fit needs it, so the other commands skip it
    from scipy.optimize import least_squares

    rows = [tuple(map(float, row)) for row in data]
    if len(rows) < 3:
        raise InsufficientData(f"need >= 3 data points, got {len(rows)}")
    if not np.all(np.isfinite([v for row in rows for v in row])):
        raise InsufficientData("lengths, finesses and sigmas must be finite")
    lengths = np.array([r[0] for r in rows])
    finesses = np.array([r[1] for r in rows])
    if len(set(lengths.tolist())) < 2:
        raise InsufficientData("need measurements at >= 2 distinct lengths")
    if np.any(lengths <= 0) or np.any(finesses <= 0):
        raise InsufficientData("lengths and finesses must be positive")
    sigmas = None
    if all(len(r) >= 3 for r in rows):
        sigmas = np.array([r[2] for r in rows])
        if np.any(sigmas <= 0):
            raise InsufficientData("finesse sigmas must be positive")

    g_best = _g_from_finesse_closed_form(finesses.max())
    r0 = float(np.clip(g_best, 0.05, 0.9999))
    i_lo, i_hi = int(np.argmin(lengths)), int(np.argmax(lengths))
    g_lo = _g_from_finesse_closed_form(finesses[i_lo])
    g_hi = _g_from_finesse_closed_form(finesses[i_hi])
    alpha0 = np.log(max(g_lo, 1e-12) / max(g_hi, 1e-12)) / (
        (lengths[i_hi] - lengths[i_lo]) * 1e-4
    )
    alpha0 = float(np.clip(alpha0, 1e-6, 1e3))

    def residuals(params):
        res = _finesse_model(params, lengths) - finesses
        return res / sigmas if sigmas is not None else res

    sol = least_squares(
        residuals,
        x0=[r0, alpha0],
        bounds=([1e-9, 0.0], [1.0 - 1e-12, np.inf]),
        xtol=1e-10,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=200 * 3,
    )
    if not sol.success:
        raise FitDiverged(f"least squares did not converge: {sol.message}")

    jac = sol.jac
    jtj = jac.T @ jac
    rank_deficient = np.linalg.matrix_rank(jtj) < 2
    dof = max(len(rows) - 2, 1)
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        rank_deficient = True
    if sigmas is None:
        cov = cov * (2.0 * sol.cost / dof)  # cost = 0.5 * sum(res^2)
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        R_fit=float(sol.x[0]),
        alpha_fit_per_cm=float(sol.x[1]),
        sigma_R=float(sig[0]),
        sigma_alpha=float(sig[1]),
        covariance=cov,
        residual_norm=float(np.sqrt(2.0 * sol.cost)),
        rank_deficient=bool(rank_deficient),
    )
