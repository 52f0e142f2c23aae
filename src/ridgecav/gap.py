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
closed form per component (`_bounce_sums`).  A ModeSolution keeps its band
spectrum for every later call, while a bare SampledField pays one per call,
for one width or a scan.  The phase uses k = 2 pi/lambda (the gap medium is
air), so the etalon resonances fall at gap widths of an integer number of
half wavelengths, slightly shifted by the diffraction (Gouy) phase of the mode.

One array pass serves a whole width scan, and each scan row equals the
single-width result bit for bit (README, "Conventions worth knowing", says
what keeps it so).  `brute_force_gap_scattering` is an independent check
that bounces the field across the gap; p_max caps only the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SeriesNotConverged, check_fields, check_value
from .propagation import _band, _on_grid, _spectrum, _transfer
from .waveguide import ModeSolution

# widths x k_z per block of a scan: each block's complex arrays (256 KiB each)
# stay cache-sized and bounded whatever the number of widths
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class GapConfig:
    """Gap width, interface index and series truncation controls."""

    d_um: float = field(default=1.96, metadata={"ge": 0})
    n_interface: float = field(default=3.155, metadata={"ge": 1})
    series_tolerance: float = field(default=1e-8, metadata={"gt": 0, "lt": 1})
    p_max: int = field(default=64, metadata={"ge": 1})

    __post_init__ = check_fields


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
        # written so that NaN fails every comparison
        if not (self.R >= 0 and self.T >= 0):
            raise ValueError(f"R and T must be non-negative, got R = {self.R}, T = {self.T}")
        if not self.R + self.T <= 1 + 1e-6:
            raise ValueError(f"R + T = {self.R + self.T} exceeds 1")
        if not self.loss >= -1e-6:
            raise ValueError(f"loss = {self.loss} is negative")


def fresnel_interface(n: float):
    """Normal-incidence amplitude coefficients at a guide/air step.

    Returns (r, t) for light hitting the interface from the guide side:
    r = (n - 1)/(n + 1) and t = 2n/(n + 1).  The reverse transmission is
    t' = 2/(n + 1), so t * t' = 1 - r^2 and intensity is conserved.
    """
    check_value("n", n, ge=1)
    r = (n - 1.0) / (n + 1.0)
    t = 2.0 * (n / (n + 1.0))  # 2n / (n + 1) bit for bit, but 2n overflows near the float limit
    return r, t


def _num_terms(r: float, series_tolerance: float, p_max: int) -> int:
    """Terms needed before the weight |r|^(2p) drops below the tolerance."""
    p = 0
    while r ** (2 * p) >= series_tolerance:
        p += 1
        if p > p_max:
            raise SeriesNotConverged(
                f"term weight |r|^(2p) still {r ** (2 * p_max):.2e} at "
                f"p_max={p_max} (tolerance {series_tolerance:g})"
            )
    return p


@lru_cache
def _interface(n_interface: float, series_tolerance: float, p_max: int):
    """(r, sqrt(1 - r^2), N) of a GapConfig's interface fields; a term cap hit is not kept."""
    r, _ = fresnel_interface(n_interface)
    return r, math.sqrt(1.0 - r * r), _num_terms(r, series_tolerance, p_max)


def _dot(a, b):
    """a . b along the last axis: a 1-D a @ b, or the same kernel row by row."""
    if a.ndim == 1:
        return a @ b
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_sums(z, w, r: float, n_terms: int):
    """(S_0, S_1, S_2) of each row of z, which holds (i k_z) d on entry and is overwritten."""
    np.exp(z, out=z)
    rho = r * r * z * z
    g = w * (1.0 - np.power(rho, n_terms)) / (1.0 - rho)
    sum0, sum1 = g.sum(axis=-1), _dot(g, z)
    z *= z
    return sum0, sum1, _dot(g, z)


def _bounce_sums(spectrum, r: float, n_terms: int, d_um):
    """S_j = sum_p r^(2p) Q((2p+j) d), p < N, for j = 0, 1, 2.

    Each plane wave's share is geometric in rho = r^2 z^2, z = exp(i k_z d),
    with |rho| = r^2 < 1, so it is w z^j (1 - rho^N)/(1 - rho).  t_gap uses
    S_1, r_gap S_2 and field_enhancement all three.  d_um is one width, or a
    1-D array of widths that goes through in blocks of _BLOCK_ELEMENTS
    widths x k_z; then each S_j is an array over the widths.
    """
    kz, w = spectrum
    ikz = 1j * kz
    if not isinstance(d_um, np.ndarray):
        return _row_sums(ikz * d_um, w, r, n_terms)
    rows = max(1, _BLOCK_ELEMENTS // max(1, kz.size))  # a field with no propagating wave has none
    sums = np.empty((3, d_um.size), complex)
    for start in range(0, d_um.size, rows):
        block = d_um[start:start + rows]
        sums[:, start:start + block.size] = _row_sums(np.multiply.outer(block, ikz), w, r, n_terms)
    return sums


def _check_width(f, d_um: float) -> None:
    """Reject, before any arithmetic, a width whose k0 d >= every |k_z| d is not finite."""
    if not math.isfinite(f.wavenumber_per_um * d_um):
        raise ValueError(f"k0 d at gap width {d_um:g} um must be finite, got inf")


def _series(sums, r: float):
    """(r_gap, t_gap) of the bounce sums at one width, or arrays of them for a scan."""
    s2 = 1.0 - r * r
    return r - s2 * r * sums[2], s2 * sums[1]


def _intensities(r_amp: complex, t_amp: complex, n: int, cfg: GapConfig | None = None):
    """(R, T, loss) of the Python complex amplitudes of a truncated sum.

    R + T above 1 raises SeriesNotConverged naming the n series terms, or the
    n bounces of the brute-force check when no cfg is given; NaN passes on to
    GapResult's own check.
    """
    R, T = abs(r_amp) ** 2, abs(t_amp) ** 2
    if R + T > 1 + 1e-6:
        after = (f"{n} terms: series_tolerance = {cfg.series_tolerance:g} is too loose"
                 if cfg else f"{n} bounces: n_bounces = {n} is too few")
        raise SeriesNotConverged(f"R + T = {R + T:.9g} exceeds 1 after {after}")
    return R, T, 1.0 - R - T


def _series_at(mode, cfg: GapConfig, d_um):
    """((r, s, N), bounce sums, (r_gap, t_gap)) at one width, or at an ascending 1-D array of them.

    k0 d is checked at the largest width before any arithmetic.  The spectrum
    is kept on a ModeSolution and built anew for a bare SampledField.
    """
    r, s, n_terms = _interface(cfg.n_interface, cfg.series_tolerance, cfg.p_max)
    solved = isinstance(mode, ModeSolution)
    d_max = d_um[-1] if isinstance(d_um, np.ndarray) else d_um
    _check_width(mode.field if solved else mode, float(d_max))
    sums = _bounce_sums(mode.spectrum if solved else _spectrum(mode, _band(mode)), r, n_terms, d_um)
    return (r, s, n_terms), sums, _series(sums, r)


def _gap_result(mode, cfg: GapConfig):
    """(r, s), the bounce sums at cfg.d_um and the GapResult they give.

    A ModeSolution keeps the last of these beside its spectrum, with the
    config object they came from: a call on that same (frozen) object reuses
    them, and the entry holds it, so its id cannot be reused by another.
    """
    kept = mode.__dict__ if isinstance(mode, ModeSolution) else {}
    last = kept.get("_gap_result")
    if last is not None and last[0] is cfg:
        return last[1]
    (r, s, n_terms), sums, amplitudes = _series_at(mode, cfg, cfg.d_um)
    r_amp, t_amp = (complex(a) for a in amplitudes)
    R, T, loss = _intensities(r_amp, t_amp, n_terms, cfg)
    result = (r, s), sums, GapResult(R=R, T=T, loss=loss, r_amplitude=r_amp, t_amplitude=t_amp)
    kept["_gap_result"] = cfg, result
    return result


def gap_scattering(mode, cfg: GapConfig) -> GapResult:
    """Sum the coherent multiple-reflection series for one gap width."""
    return _gap_result(mode, cfg)[2]


def _check_scan(d_min_um: float, d_max_um: float, steps: int) -> None:
    """Reject a width scan loss_spectrum cannot run, before any work is done."""
    if not 0 <= d_min_um < d_max_um < math.inf:
        raise ValueError(f"need 0 <= d_min < d_max < inf, got [{d_min_um}, {d_max_um}]")
    check_value("steps", steps, integer=True)
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")


def loss_spectrum(mode, d_min_um: float, d_max_um: float, steps: int,
                  base_cfg: GapConfig = GapConfig()):
    """gap_scattering on a uniform width grid; rows of (d, R, T, loss)."""
    _check_scan(d_min_um, d_max_um, steps)
    d = np.linspace(d_min_um, d_max_um, steps)
    (_, _, n_terms), _, (r_gap, t_gap) = _series_at(mode, base_cfg, d)
    return [(d_um, *_intensities(r_amp, t_amp, n_terms, base_cfg))
            for d_um, r_amp, t_amp in zip(d.tolist(), r_gap.tolist(), t_gap.tolist())]


def brute_force_gap_scattering(mode, cfg: GapConfig, n_bounces: int) -> GapResult:
    """Bounce the actual field across the gap and collect what couples out at each hit.

    Cross-check for gap_scattering.  The injected field crosses the gap, and
    at each of the n_bounces interface hits the amplitude coupled into the
    mode is a real-space overlap with it; the remainder re-enters the gap
    with the air-side reflection -r, so hit n carries (-r)^n and the field
    crossed n + 1 times.  A crossing multiplies the band spectrum F by
    `_transfer`'s T; on the smallest power-of-two grid per axis that holds the
    `_band` box, hit q b + i overlaps the giant field F T^(-q b) with the baby
    field s F T^(i+1), b = round(sqrt(n_bounces)) (README, "Conventions worth
    knowing").  The check never forms |F|^2 weights, merges k_z or sums in
    closed form, so it does not become the model it checks.

    Raises SeriesNotConverged when the truncated bounce sum gives R + T
    above 1, as too few bounces can.
    """
    check_value("n_bounces", n_bounces, integer=True, ge=1)
    solved = isinstance(mode, ModeSolution)
    f = mode.field if solved else mode
    _check_width(f, cfg.d_um)
    p = f._normalizing_power()  # the field is normalized on its band spectrum, below
    r, _ = fresnel_interface(cfg.n_interface)
    s = math.sqrt(1.0 - r * r)  # a float, so the amplitudes below stay Python complex
    (ix, iy), kz, mask, amplitudes = mode.band if solved else _band(f)
    places = []  # each box index's place on the band grid, and the grid's size m
    for i, n in ((ix, f.nx), (iy, f.ny)):
        m = min(n, 1 << (i.size - 1).bit_length())  # a power of two >= the box, or n
        places.append((np.where(i > n // 2, i - n, i) % m, m))
    (cx, mx), (cy, my) = places
    band = (cx, cy), (mx, my)
    b = round(math.sqrt(n_bounces))

    spectrum = _on_grid(amplitudes / np.sqrt(p), *band)
    forward = _on_grid(_transfer(kz, mask, cfg.d_um), *band)
    baby = np.cumprod(np.broadcast_to(forward, (b, mx, my)), axis=0)  # T^1 .. T^b
    baby *= s * spectrum
    baby = np.fft.ifft2(baby)  # the injected field crossed 1 .. b times
    back = _on_grid(np.conj(_transfer(kz, mask, b * cfg.d_um)), *band)
    scale = (mx * my) / (f.nx * f.ny) * f.cell_area_um2
    t_amp, r_amp = 0j, complex(r)
    for n in range(n_bounces):
        if n % b == 0:  # the giant field F T^(-n) of the next b hits
            giant = np.fft.ifft2(spectrum)
            spectrum *= back
        coupled = complex((-r) ** n * np.vdot(giant, baby[n % b]) * scale)
        if n % 2 == 0:  # at the far interface: couples out forward
            t_amp += s * coupled
        else:  # back at the input interface: couples out backward
            r_amp += s * coupled
    R, T, loss = _intensities(r_amp, t_amp, n_bounces)
    return GapResult(R=R, T=T, loss=loss, r_amplitude=r_amp, t_amplitude=t_amp)


@lru_cache(maxsize=1)
def _phase_grid(n_phases: int):
    """The read-only arm phases linspace(0, 2 pi, n_phases, endpoint=False) and their exp(i phi)."""
    phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
    phasors = np.exp(1j * phases)
    phases.flags.writeable = phasors.flags.writeable = False
    return phases, phasors


def _phasor(arm_phase_rad: float):
    """exp(i arm_phase) as a 1-element array: the scan's kernel, so r_rt equals its entry."""
    return np.exp(1j * np.atleast_1d(arm_phase_rad))


def _round_trip(gap: GapResult, phasors):
    """composite_round_trip's r_rt at each unit phasor exp(i arm_phase) of an array."""
    return np.abs(
        gap.r_amplitude + gap.t_amplitude**2 * phasors / (1.0 - gap.r_amplitude * phasors)
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
    check_value("arm_phase_rad", arm_phase_rad)
    return float(_round_trip(gap_scattering(mode, cfg), _phasor(arm_phase_rad))[0])


def round_trip_phase_scan(mode, cfg: GapConfig, n_phases: int = 720):
    """(phases, r_rt) arrays over arm_phase in [0, 2 pi); phases is read-only and shared."""
    check_value("n_phases", n_phases, integer=True, ge=1)
    phases, phasors = _phase_grid(n_phases)
    return phases, _round_trip(gap_scattering(mode, cfg), phasors)


def field_enhancement(mode, cfg: GapConfig, arm_phase_rad: float) -> float:
    """Peak standing field in the gap over the peak standing field in the guide.

    Modal amplitudes of the forward and backward field inside the gap are
    summed from the same bounce sums as the scattering series; the electric
    field per unit power-normalized amplitude is larger in air by sqrt(n),
    which supplies the index factor:

        ratio = sqrt(n) (|G+| + |G-|) / (1 + r_rt).
    """
    check_value("arm_phase_rad", arm_phase_rad)
    (r, s), (sum0, sum1, sum2), gres = _gap_result(mode, cfg)
    phasor = _phasor(arm_phase_rad)
    phase = phasor[0]
    b = phase * gres.t_amplitude / (1.0 - gres.r_amplitude * phase)  # arm-side injection
    r_rt = _round_trip(gres, phasor)[0]

    g_fwd = s * (sum0 + b * (-r) * sum1)
    g_bwd = s * (-r * sum2 + b * sum1)

    return float(
        np.sqrt(cfg.n_interface) * (abs(g_fwd) + abs(g_bwd)) / (1.0 + r_rt)
    )
