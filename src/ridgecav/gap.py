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
Q(L) = sum w exp(i k_z L) over the mode's angular spectrum, so each plane
wave crosses the gap as its own Airy etalon, and the N-term series sums in
closed form per component (`_bounce_sums`).  The spectrum (one FFT of the
mode) is built once per solved mode: a ModeSolution keeps it for every later
call, while a bare SampledField pays one per call, for one width or a scan.
The phase uses k = 2 pi/lambda (the gap medium is air), so the etalon
resonances fall at gap widths of an integer number of half wavelengths,
slightly shifted by the diffraction (Gouy) phase of the mode.

`brute_force_gap_scattering` is an independent check: it literally bounces
the field back and forth n_bounces times with the angular-spectrum transfer
function of propagate_free_space and accumulates the coupled amplitudes
interface by interface; p_max caps only the series.  `_check_scan` holds
loss_spectrum's range check, which the CLI also runs before the mode solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidIndex, SeriesNotConverged, require_finite
from .propagation import _spectrum, _transfer_function
from .waveguide import ModeSolution


@dataclass(frozen=True)
class GapConfig:
    """Gap width, interface index and series truncation controls."""

    d_um: float = 1.96
    n_interface: float = 3.155
    series_tolerance: float = 1e-8
    p_max: int = 64

    def __post_init__(self):
        require_finite(self)
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
    """Intensity reflection/transmission of the gap and its modal amplitudes.

    r_amplitude/t_amplitude are the complex modal amplitudes, so R = |r|^2 and
    T = |t|^2 and loss = 1 - R - T.  q_list is always empty: the series is
    summed in closed form for each plane wave, so no projection factors are
    formed; the field stays because the benchmark's traced hook reads it.
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


def _spectrum_of(mode):
    """The angular spectrum: kept on a solved mode, built anew for a bare field."""
    return mode.spectrum if isinstance(mode, ModeSolution) else _spectrum(mode)


def _num_terms(cfg: GapConfig) -> int:
    """Terms needed before the weight |r|^(2p) drops below the tolerance."""
    r, _ = fresnel_interface(cfg.n_interface)
    p = 0
    while r ** (2 * p) >= cfg.series_tolerance:
        p += 1
        if p > cfg.p_max:
            raise SeriesNotConverged(
                f"term weight |r|^(2p) still {r ** (2 * cfg.p_max):.2e} at "
                f"p_max={cfg.p_max} (tolerance {cfg.series_tolerance:g})"
            )
    return p


def _bounce_sums(spectrum, cfg: GapConfig, d_um: float):
    """S_j = sum_p r^(2p) Q((2p+j) d), p < N, for j = 0, 1, 2.

    Each plane wave's share is geometric in rho = r^2 z^2, z = exp(i k_z d),
    with |rho| = r^2 < 1, so it is w z^j (1 - rho^N)/(1 - rho).  t_gap uses
    S_1, r_gap S_2 and field_enhancement all three.
    """
    kz, w = spectrum
    r, _ = fresnel_interface(cfg.n_interface)
    z = np.exp(1j * kz * d_um)
    rho = r * r * z * z
    g = w * (1.0 - rho ** _num_terms(cfg)) / (1.0 - rho)
    return g.sum(), g @ z, g @ (z * z)


def _series(sums, cfg: GapConfig) -> GapResult:
    """The GapResult of the bounce sums (S_0, S_1, S_2) of one width."""
    r, _ = fresnel_interface(cfg.n_interface)
    s2 = 1.0 - r * r
    t_amp = complex(s2 * sums[1])
    r_amp = complex(r - s2 * r * sums[2])
    R = abs(r_amp) ** 2
    T = abs(t_amp) ** 2
    if R + T > 1 + 1e-6:
        raise SeriesNotConverged(
            f"R + T = {R + T:.9g} exceeds 1 after {_num_terms(cfg)} terms: "
            f"series_tolerance = {cfg.series_tolerance:g} is too loose"
        )
    return GapResult(R=R, T=T, loss=1.0 - R - T, r_amplitude=r_amp, t_amplitude=t_amp)


def gap_scattering(mode, cfg: GapConfig) -> GapResult:
    """Sum the coherent multiple-reflection series for one gap width."""
    return _series(_bounce_sums(_spectrum_of(mode), cfg, cfg.d_um), cfg)


def _check_scan(d_min_um: float, d_max_um: float, steps: int) -> None:
    """Reject a width scan loss_spectrum cannot run, before any work is done."""
    if not 0 <= d_min_um < d_max_um < math.inf:
        raise ValueError(f"need 0 <= d_min < d_max < inf, got [{d_min_um}, {d_max_um}]")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")


def loss_spectrum(mode, d_min_um: float, d_max_um: float, steps: int,
                  base_cfg: GapConfig = GapConfig()):
    """gap_scattering on a uniform width grid; rows of (d, R, T, loss)."""
    _check_scan(d_min_um, d_max_um, steps)
    spectrum = _spectrum_of(mode)
    rows = []
    for d in np.linspace(d_min_um, d_max_um, steps):
        res = _series(_bounce_sums(spectrum, base_cfg, d), base_cfg)
        rows.append((float(d), res.R, res.T, res.loss))
    return rows


def brute_force_gap_scattering(mode, cfg: GapConfig, n_bounces: int) -> GapResult:
    """Bounce the actual field across the gap and re-inject it explicitly.

    Cross-check for gap_scattering: the field is propagated segment by
    segment, the mode-coupled amplitude is collected at each of the
    n_bounces interface hits, and the remainder re-enters the gap with the
    air-side reflection -r.
    Every segment has the same length, so one transfer function serves all
    of them; each still takes its own FFT pair and real-space overlap.
    """
    f = (mode.field if isinstance(mode, ModeSolution) else mode).normalized()
    r, _ = fresnel_interface(cfg.n_interface)
    s = np.sqrt(1.0 - r * r)
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


def composite_round_trip(mode, cfg: GapConfig, arm_phase_rad: float) -> float:
    """Round-trip amplitude of gap + guide arm + perfect end mirror.

    The arm returns the guided mode with phase exp(i arm_phase); bounces
    between the mirror and the gap form a geometric series in the gap's
    (mode-projected, hence diffraction-degraded) reflection:

        r_rt = | r_gap + t_gap^2 e^(i phi) / (1 - r_gap e^(i phi)) | .

    With a loss-free gap the scattering matrix is unitary and r_rt = 1 for
    every phase.
    """
    return float(_round_trip(gap_scattering(mode, cfg), arm_phase_rad))


def round_trip_phase_scan(mode, cfg: GapConfig, n_phases: int = 720):
    """(phases, r_rt) arrays over arm_phase in [0, 2 pi)."""
    phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
    return phases, _round_trip(gap_scattering(mode, cfg), phases)


def field_enhancement(mode, cfg: GapConfig, arm_phase_rad: float) -> float:
    """Peak standing field in the gap over the peak standing field in the guide.

    Modal amplitudes of the forward and backward field inside the gap are
    summed from the same bounce sums as the scattering series; the electric
    field per unit power-normalized amplitude is larger in air by sqrt(n),
    which supplies the index factor:

        ratio = sqrt(n) (|G+| + |G-|) / (1 + r_rt).
    """
    sum0, sum1, sum2 = _bounce_sums(_spectrum_of(mode), cfg, cfg.d_um)
    gres = _series((sum0, sum1, sum2), cfg)
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
