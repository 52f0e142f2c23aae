"""Fabry-Perot relations, quarter-wave mirror stacks and the loss fit.

The round-trip amplitude factor g = sqrt(R_left R_right) exp(-alpha l)
(optionally times the gap round-trip amplitude) sets the finesse
(`finesse_from_round_trip`), and finesse times linewidth gives back the free
spectral range c / (2 n_g l).  `fit_losses` inverts measured finesse-vs-length
data for (R, alpha) by a bounded Levenberg-Marquardt fit on the analytic
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import C_M_PER_S
from .errors import FitDiverged, check_fields, check_value, derived


@dataclass(frozen=True)
class CavitySpec:
    """Cavity length, group index, propagation loss and mirror reflectivities."""

    length_um: float = field(metadata={"gt": 0})
    n_group: float = field(metadata={"gt": 0})
    alpha_per_cm: float = field(default=0.0, metadata={"ge": 0})
    mirror_R_left: float = field(default=1.0, metadata={"gt": 0, "le": 1})
    mirror_R_right: float = field(default=1.0, metadata={"gt": 0, "le": 1})
    gap_round_trip_amplitude: float | None = field(default=None, metadata={"gt": 0, "le": 1})

    __post_init__ = check_fields


@dataclass(frozen=True)
class MirrorStack:
    """Ordered thin-film layers (index, thickness_nm) from the incidence side."""

    layers: tuple
    n_incident: float = field(metadata={"ge": 1})
    n_exit: float = field(metadata={"ge": 1})

    def __post_init__(self):
        try:
            layers = tuple((float(n), float(t)) for n, t in self.layers)
        except (TypeError, ValueError):
            raise ValueError(f"layers must be (index, thickness_nm) pairs, "
                             f"got {self.layers!r}") from None
        object.__setattr__(self, "layers", layers)
        check_fields(self)
        for n, t in self.layers:
            check_value("layer index", n, ge=1)
            check_value("layer thickness_nm", t, gt=0)


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
    check_value("g_rt", g_rt, gt=0, lt=1)
    return float(np.pi * np.sqrt(g_rt) / (1.0 - g_rt))


def _g_from_finesse_closed_form(finesse):
    """Invert F = pi sqrt(g)/(1 - g): sqrt(g) is the positive root of F x^2 + pi x - F."""
    x = (-np.pi + np.sqrt(np.pi**2 + 4.0 * finesse**2)) / (2.0 * finesse)
    return x * x


def round_trip_amplitude(spec: CavitySpec) -> float:
    """g = sqrt(R_left R_right) exp(-alpha l) times the gap factor if present."""
    propagation = np.exp(-spec.alpha_per_cm * 1e-4 * spec.length_um)
    if propagation == 0.0:
        raise ValueError(
            f"exp(-alpha l) underflows to 0 at alpha_per_cm = {spec.alpha_per_cm:g}, "
            f"length_um = {spec.length_um:g}"
        )
    g = np.sqrt(spec.mirror_R_left * spec.mirror_R_right) * propagation
    if spec.gap_round_trip_amplitude is not None:
        g *= spec.gap_round_trip_amplitude
    return float(g)


def free_spectral_range_ghz(length_um: float, n_group: float) -> float:
    """FSR = c / (2 n_g L) in GHz."""
    check_value("length_um", length_um, gt=0)
    check_value("n_group", n_group, gt=0)
    return derived("fsr_ghz", lambda: C_M_PER_S / (2.0 * n_group * length_um * 1e-6) / 1e9,
                   length_um=length_um, n_group=n_group)


def linewidth_ghz(finesse: float, fsr_ghz: float) -> float:
    """Resonance full width (2 kappa / 2 pi) = FSR / F in GHz."""
    check_value("finesse", finesse, gt=0)
    check_value("fsr_ghz", fsr_ghz)
    width = fsr_ghz / finesse
    check_value("linewidth_ghz", width)
    return width


def alpha_from_linewidth(width_2kappa_ghz: float, length_um: float,
                         n_group: float, mirror_R: float) -> float:
    """Propagation loss alpha (1/cm) implied by a measured linewidth.

    Inverts linewidth -> finesse -> round-trip factor (closed form) and strips
    the mirror contribution: alpha = -ln(g / R) / l with both facets at
    mirror_R.
    """
    check_value("width_2kappa_ghz", width_2kappa_ghz, gt=0)
    check_value("mirror_R", mirror_R, gt=0, le=1)
    fsr = free_spectral_range_ghz(length_um, n_group)
    # an extreme width (g cancels to 0, or F^2 overflows) fails below, naming it
    with np.errstate(all="ignore"):
        g = _g_from_finesse_closed_form(np.float64(fsr / width_2kappa_ghz))
        alpha_per_um = -np.log(g / mirror_R) / length_um
    check_value(f"alpha at width_2kappa_ghz = {width_2kappa_ghz:g}", alpha_per_um)
    if g >= mirror_R:  # sqrt(R_L R_R) with both facets at mirror_R
        raise ValueError(
            f"implied round-trip factor {g:.6g} is not below the mirror "
            f"contribution {mirror_R:.6g}; no alpha >= 0 reproduces it"
        )
    return float(alpha_per_um * 1e4)


def quarter_wave_stack(pairs: int, n_high: float = 2.35, n_low: float = 1.50,
                       n_incident: float = 3.155, n_exit: float = 1.0,
                       wavelength_nm: float = 780.0) -> MirrorStack:
    """Alternating quarter-wave pairs, low-index layer at the incidence facet.

    With the guide as the incidence medium, starting from the low-index layer
    walks the admittance down by (n_low/n_high)^2 per pair, which maximizes
    the mismatch and hence the reflectivity.
    """
    check_value("pairs", pairs, integer=True, ge=0)
    check_value("n_high", n_high, ge=1)
    check_value("n_low", n_low, ge=1)
    pair = []
    for name, n in (("n_low", n_low), ("n_high", n_high)):
        thickness = wavelength_nm / (4.0 * n)
        if pairs:  # a thickness out of range is named with the inputs it came from
            try:
                check_value("layer thickness_nm", thickness, gt=0)
            except ValueError as exc:
                raise ValueError(f"{exc}: wavelength_nm / (4 {name}) at wavelength_nm = "
                                 f"{wavelength_nm:g}, {name} = {n:g}") from None
        pair.append((n, thickness))
    return MirrorStack(layers=tuple(pair) * pairs, n_incident=n_incident, n_exit=n_exit)


def stack_reflectivity(stack: MirrorStack, wavelength_nm: float) -> float:
    """Normal-incidence intensity reflectivity by the characteristic matrix."""
    check_value("wavelength_nm", wavelength_nm, gt=0)
    m = np.eye(2, dtype=complex)
    with np.errstate(invalid="ignore"):  # a phase out of float range fails below, as NaN
        for n, t_nm in stack.layers:
            delta = 2.0 * np.pi * n * t_nm / wavelength_nm
            cos, sin = np.cos(delta), np.sin(delta)
            m = m @ np.array([[cos, 1j * sin / n], [1j * n * sin, cos]])
        b, c = m @ np.array([1.0, stack.n_exit], dtype=complex)
        r = (stack.n_incident * b - c) / (stack.n_incident * b + c)
    refl = float(abs(r) ** 2)
    try:
        check_value("mirror stack reflectivity", refl)
    except ValueError as exc:
        indices = ", ".join(f"{n:g}" for n in dict.fromkeys(n for n, _ in stack.layers))
        raise ValueError(f"{exc}, from layer indices {indices}, n_incident = "
                         f"{stack.n_incident:g}, n_exit = {stack.n_exit:g}") from None
    return refl


# trial steps allowed before the loss fit gives up with FitDiverged
_MAX_STEPS = 200
_XTOL = 1e-10  # stop once a step is at most this fraction of |(R, alpha)|
_LOWER = np.array([1e-9, 0.0])
_UPPER = np.array([1.0 - 1e-12, np.inf])


def _finesse_model(params, lengths_um):
    """Finesse at each length and its Jacobian in (R, alpha).

    g is clipped to [1e-12, 1 - 1e-12]; where the clip holds, the Jacobian
    row is zero.
    """
    big_r, alpha_per_cm = params
    decay = np.exp(-alpha_per_cm * 1e-4 * lengths_um)
    g_raw = big_r * decay
    g = np.clip(g_raw, 1e-12, 1.0 - 1e-12)
    # dF/dg = pi (1 + g) / (2 sqrt(g) (1 - g)^2)
    dfdg = np.where(g == g_raw, np.pi * (1.0 + g) / (2.0 * np.sqrt(g) * (1.0 - g) ** 2), 0.0)
    jac = np.column_stack([dfdg * decay, dfdg * g_raw * (-1e-4 * lengths_um)])
    return np.pi * np.sqrt(g) / (1.0 - g), jac


def _bounded_trial(x, res, jac, damping):
    """x plus the damped Gauss-Newton step for residuals res and Jacobian jac.

    The step minimises |res + jac step|^2 + |damping step|^2.  A parameter
    the step would push past a bound is put on that bound, and the step of
    the others is solved again with it held there.
    """
    trial = x.copy()
    held = np.zeros(x.shape, bool)
    while True:
        free = ~held
        rhs = -(res + jac[:, held] @ (trial[held] - x[held]))
        a = np.vstack([jac[:, free], np.diag(damping[free])])
        b = np.concatenate([rhs, np.zeros(free.sum())])
        trial[free] = x[free] + np.linalg.lstsq(a, b, rcond=None)[0]
        out = (trial < _LOWER) | (trial > _UPPER)
        if not out.any():
            return trial
        trial = np.clip(trial, _LOWER, _UPPER)
        held |= out


def fit_losses(data) -> FitResult:
    """Fit finesse-vs-length measurements for (R, alpha).

    data: rows that are all (length_um, finesse) or all (length_um, finesse,
    sigma); any other row raises ValueError naming it.  Weighted residuals
    when sigmas are given, plain residuals otherwise.  Start values come from
    the data itself (R from the best point at alpha = 0, alpha from the two
    extreme lengths).  Bounded Levenberg-Marquardt steps (`_bounded_trial`)
    then refine them, with R in [1e-9, 1 - 1e-12] and alpha >= 0, until a
    step is at most _XTOL of |(R, alpha)|, taken only if it lowers the cost;
    FitDiverged is raised if that takes more than _MAX_STEPS steps.
    The covariance is (J^T J)^-1 at the solution (the pseudo-inverse when
    J^T J is singular), scaled by the residual variance when no sigmas are
    given.
    """
    try:
        rows = [tuple(map(float, row)) for row in data]
    except (TypeError, ValueError):
        raise ValueError("data rows must hold numbers: (length_um, finesse[, sigma])") from None
    for i, row in enumerate(rows):
        if len(row) not in (2, 3):
            raise ValueError(f"data row {i} has {len(row)} entries; "
                             "expected (length_um, finesse) or (length_um, finesse, sigma)")
        if len(row) != len(rows[0]):
            raise ValueError(f"data row {i} has {len(row)} entries but row 0 has "
                             f"{len(rows[0])}; give a sigma on every row or on none")
    if len(rows) < 3:
        raise ValueError(f"need >= 3 data points, got {len(rows)}")
    table = np.array(rows)
    if not np.isfinite(table).all():
        raise ValueError("lengths, finesses and sigmas must be finite")
    lengths, finesses = table[:, 0], table[:, 1]
    if len(set(lengths.tolist())) < 2:
        raise ValueError("need measurements at >= 2 distinct lengths")
    if np.any(lengths <= 0) or np.any(finesses <= 0):
        raise ValueError("lengths and finesses must be positive")
    weighted = table.shape[1] == 3
    sigmas = table[:, 2] if weighted else np.ones(len(rows))  # unweighted: plain residuals
    if np.any(sigmas <= 0):
        raise ValueError("finesse sigmas must be positive")

    g_best = _g_from_finesse_closed_form(finesses.max())
    r0 = float(np.clip(g_best, 0.05, 0.9999))
    i_lo, i_hi = int(np.argmin(lengths)), int(np.argmax(lengths))
    g_lo, g_hi = _g_from_finesse_closed_form(finesses[[i_lo, i_hi]])
    alpha0 = np.log(max(g_lo, 1e-12) / max(g_hi, 1e-12)) / (
        (lengths[i_hi] - lengths[i_lo]) * 1e-4
    )
    alpha0 = float(np.clip(alpha0, 1e-6, 1e3))

    def residuals(params):
        model, jac = _finesse_model(params, lengths)
        return (model - finesses) / sigmas, jac / sigmas[:, None]

    x = np.array([r0, alpha0])
    res, jac = residuals(x)
    cost = res @ res
    # tiny sigmas overflow the weighted residuals
    check_value("the sum of squared residuals at the start values", cost)
    lam = 1e-3
    for _ in range(_MAX_STEPS):
        trial = _bounded_trial(x, res, jac, np.sqrt(lam * (jac**2).sum(axis=0)))
        converged = np.linalg.norm(trial - x) <= _XTOL * (_XTOL + np.linalg.norm(x))
        trial_res, trial_jac = residuals(trial)
        trial_cost = trial_res @ trial_res
        if trial_cost < cost:
            x, res, jac, cost = trial, trial_res, trial_jac, trial_cost
            lam *= 0.1
        else:
            lam *= 10.0
        if converged:
            break
    else:
        raise FitDiverged(f"loss fit did not converge: step limit {_MAX_STEPS} reached")

    jtj = jac.T @ jac
    rank_deficient = np.linalg.matrix_rank(jtj) < 2
    dof = max(len(rows) - 2, 1)
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        rank_deficient = True
    if not weighted:
        cov = cov * (cost / dof)
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        R_fit=float(x[0]),
        alpha_fit_per_cm=float(x[1]),
        sigma_R=float(sig[0]),
        sigma_alpha=float(sig[1]),
        covariance=cov,
        residual_norm=float(np.sqrt(cost)),
        rank_deficient=bool(rank_deficient),
    )
