"""Semi-analytical model of the air gap cut into the waveguide.

The gap is an etalon formed by the two guide/air interfaces.  Light entering
it keeps bouncing between them while diffracting, so the multiple-reflection
series is weighted by projection factors Q(L): the fraction of the input
profile recovered after free-space propagation over the accumulated path
length L.  With r the interface amplitude reflection and power-normalized
amplitudes (so a traversal of one interface carries sqrt(1 - r^2) and the
through-product is 1 - r^2):

    t_gap = (1 - r^2) * sum_p r^(2p)   * Q((2p+1) d) ,
    r_gap = r - (1 - r^2) * sum_p r^(2p+1) * Q((2p+2) d) ,

where the sign difference comes from the air-side reflections being -r.
Every gap quantity is built from one ladder Q(k d), k = 0..2N, with N the
number of series terms.  Each public function that needs Q makes exactly
one projection_after_propagation call (one FFT of the mode), whether for
one width or for a whole width scan.  Each Q carries the full propagation
phase exp(i k_z L) with k = 2 pi/lambda (the gap medium is air), so the
etalon resonances fall at gap widths of an integer number of half
wavelengths, slightly shifted by the diffraction (Gouy) phase of the mode.

`brute_force_gap_scattering` is an independent check: it literally bounces
the field back and forth with the angular-spectrum transfer function of
propagate_free_space and accumulates the coupled amplitudes interface by
interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidIndex, SeriesNotConverged
from .fields import SampledField
from .propagation import _transfer_function, projection_after_propagation


@dataclass(frozen=True)
class GapConfig:
    """Gap width, interface index and series truncation controls."""

    d_um: float = 1.96
    n_interface: float = 3.155
    series_tolerance: float = 1e-8
    p_max: int = 64

    def __post_init__(self):
        for name in ("d_um", "n_interface", "series_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.d_um < 0:
            raise ValueError("gap width must be >= 0")
        if self.n_interface < 1:
            raise InvalidIndex("n_interface must be >= 1")
        if not (0 < self.series_tolerance < 1):
            raise ValueError("series_tolerance must be in (0, 1)")
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")


@dataclass(frozen=True)
class GapResult:
    """Intensity reflection/transmission of the gap and the series bookkeeping.

    q_list holds the (Q_p_plus, Q_p_minus) projection factors actually summed;
    r_amplitude/t_amplitude are the complex modal amplitudes, so R = |r|^2 and
    T = |t|^2 and loss = 1 - R - T.
    """

    R: float
    T: float
    loss: float
    r_amplitude: complex
    t_amplitude: complex
    q_list: tuple = field(repr=False, default=())

    def __post_init__(self):
        if self.R < 0 or self.T < 0:
            raise ValueError("R and T must be non-negative")
        if self.R + self.T > 1 + 1e-6:
            raise ValueError(f"R + T = {self.R + self.T} exceeds 1")
        if self.loss < -1e-6:
            raise ValueError(f"loss = {self.loss} is negative")


def fresnel_interface(n: float):
    """Normal-incidence amplitude coefficients at a guide/air step.

    Returns (r, t) for light hitting the interface from the guide side:
    r = (n - 1)/(n + 1) and t = 2n/(n + 1).  The reverse transmission is
    t' = 2/(n + 1), so t * t' = 1 - r^2 and intensity is conserved.
    """
    if n < 1:
        raise InvalidIndex(f"interface index must be >= 1, got {n}")
    r = (n - 1.0) / (n + 1.0)
    t = 2.0 * n / (n + 1.0)
    return r, t


def _as_field(mode) -> SampledField:
    return mode.field if hasattr(mode, "field") else mode


def _num_terms(cfg: GapConfig) -> int:
    """Terms needed before the weight |r|^(2p) drops below the tolerance."""
    r, _ = fresnel_interface(cfg.n_interface)
    if r == 0.0:
        return 1
    p = 0
    while r ** (2 * p) >= cfg.series_tolerance:
        p += 1
        if p > cfg.p_max:
            raise SeriesNotConverged(
                f"term weight |r|^(2p) still {r ** (2 * cfg.p_max):.2e} at "
                f"p_max={cfg.p_max} (tolerance {cfg.series_tolerance:g})"
            )
    return p


def _ladder(mode, cfg: GapConfig, d_um) -> np.ndarray:
    """Q(k d) for k = 0..2N, N series terms; one row per width if d_um is an array."""
    k = np.arange(2 * _num_terms(cfg) + 1)
    return projection_after_propagation(_as_field(mode), np.multiply.outer(d_um, k))


def _series(ladder: np.ndarray, cfg: GapConfig):
    """Sum the multiple-reflection series over one ladder Q(k d), k = 0..2N.

    Returns the GapResult and the bounce sums S_j = sum_p r^(2p) Q((2p+j) d)
    for j = 0, 1, 2 (t_gap uses S_1, r_gap S_2, field_enhancement all three).
    """
    r, _ = fresnel_interface(cfg.n_interface)
    s2 = 1.0 - r * r
    n_terms = len(ladder) // 2
    weights = r ** (2 * np.arange(n_terms))
    sums = [np.sum(weights * ladder[j:j + 2 * n_terms:2]) for j in range(3)]
    t_amp = complex(s2 * sums[1])
    r_amp = complex(r - s2 * r * sums[2])
    R = abs(r_amp) ** 2
    T = abs(t_amp) ** 2
    result = GapResult(
        R=R,
        T=T,
        loss=1.0 - R - T,
        r_amplitude=r_amp,
        t_amplitude=t_amp,
        q_list=tuple(zip(ladder[1::2], ladder[2::2])),
    )
    return result, sums


def gap_scattering(mode, cfg: GapConfig) -> GapResult:
    """Sum the coherent multiple-reflection series for one gap width."""
    return _series(_ladder(mode, cfg, cfg.d_um), cfg)[0]


def loss_spectrum(mode, d_min_um: float, d_max_um: float, steps: int,
                  base_cfg: GapConfig | None = None):
    """gap_scattering on a uniform width grid; rows of (d, R, T, loss)."""
    if not 0 <= d_min_um < d_max_um < math.inf:
        raise ValueError("need 0 <= d_min < d_max < inf")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    cfg = base_cfg if base_cfg is not None else GapConfig()
    widths = np.linspace(d_min_um, d_max_um, steps)
    rows = []
    for d, ladder in zip(widths, _ladder(mode, cfg, widths)):
        res = _series(ladder, cfg)[0]
        rows.append((float(d), res.R, res.T, res.loss))
    return rows


def brute_force_gap_scattering(mode, cfg: GapConfig, n_bounces: int | None = None) -> GapResult:
    """Bounce the actual field across the gap and re-inject it explicitly.

    Cross-check for gap_scattering: the field is propagated segment by
    segment, the mode-coupled amplitude is collected at each interface hit,
    and the remainder re-enters the gap with the air-side reflection -r.
    Every segment has the same length, so one transfer function serves all
    of them; each still takes its own FFT pair and real-space overlap.
    """
    f = _as_field(mode).normalized()
    r, _ = fresnel_interface(cfg.n_interface)
    s = np.sqrt(1.0 - r * r)
    n_bounces = cfg.p_max if n_bounces is None else n_bounces
    transfer = _transfer_function(f, cfg.d_um)

    def crossing(amps: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft2(amps) * transfer)

    t_amp = 0.0 + 0.0j
    r_amp = complex(r)
    current = crossing(s * f.amplitudes)
    for bounce in range(n_bounces):
        coupled = complex(np.vdot(f.amplitudes, current) * f.cell_area_um2)
        if bounce % 2 == 0:  # at the far interface: couples out forward
            t_amp += s * coupled
        else:  # back at the input interface: couples out backward
            r_amp += s * coupled
        current = crossing(-r * current)
    R = abs(r_amp) ** 2
    T = abs(t_amp) ** 2
    return GapResult(
        R=R, T=T, loss=1.0 - R - T, r_amplitude=r_amp, t_amplitude=t_amp
    )


def _round_trip(gap: GapResult, arm_phase_rad):
    """composite_round_trip's r_rt for a scalar or an array of arm phases."""
    phase = np.exp(1j * arm_phase_rad)
    return np.abs(
        gap.r_amplitude + gap.t_amplitude**2 * phase / (1.0 - gap.r_amplitude * phase)
    )


def composite_round_trip(mode, cfg: GapConfig, arm_phase_rad: float,
                         gap: GapResult | None = None) -> float:
    """Round-trip amplitude of gap + guide arm + perfect end mirror.

    The arm returns the guided mode with phase exp(i arm_phase); bounces
    between the mirror and the gap form a geometric series in the gap's
    (mode-projected, hence diffraction-degraded) reflection:

        r_rt = | r_gap + t_gap^2 e^(i phi) / (1 - r_gap e^(i phi)) | .

    With a loss-free gap the scattering matrix is unitary and r_rt = 1 for
    every phase.
    """
    g = gap if gap is not None else gap_scattering(mode, cfg)
    return float(_round_trip(g, arm_phase_rad))


def round_trip_phase_scan(mode, cfg: GapConfig, n_phases: int = 720):
    """(phases, r_rt) arrays over arm_phase in [0, 2 pi)."""
    phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
    return phases, _round_trip(gap_scattering(mode, cfg), phases)


def field_enhancement(mode, cfg: GapConfig, arm_phase_rad: float) -> float:
    """Peak standing field in the gap over the peak standing field in the guide.

    Modal amplitudes of the forward and backward field inside the gap are
    summed with the same projection-factor bookkeeping as the scattering
    series; the electric field per unit power-normalized amplitude is larger
    in air by sqrt(n), which supplies the index factor:

        ratio = sqrt(n) (|G+| + |G-|) / (1 + r_rt).
    """
    gres, (sum0, sum1, sum2) = _series(_ladder(mode, cfg, cfg.d_um), cfg)
    r, _ = fresnel_interface(cfg.n_interface)
    s = np.sqrt(1.0 - r * r)
    phase = np.exp(1j * arm_phase_rad)
    b = phase * gres.t_amplitude / (1.0 - gres.r_amplitude * phase)  # arm-side injection
    r_rt = _round_trip(gres, arm_phase_rad)

    g_fwd = s * (sum0 + b * (-r) * sum1)
    g_bwd = s * (-r * sum2 + b * sum1)

    return float(
        np.sqrt(cfg.n_interface) * (abs(g_fwd) + abs(g_bwd)) / (1.0 + r_rt)
    )
