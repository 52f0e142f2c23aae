"""Free-space propagation by the angular-spectrum method and overlap integrals.

A free-space step transforms the field onto the box of plane waves that can
propagate (`_band`), advances each by exp(i k_z d) with k_z = sqrt(k^2 -
kx^2 - ky^2), k = 2 pi/lambda (`_transfer`), and puts the box back into a
zero grid (`_on_grid`).  Evanescent components are zeroed instead of
attenuated, so the step is exactly unitary on the propagating ones.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import check_value
from .fields import SampledField


def _band(f: SampledField):
    """((ix, iy), kz, mask, F): the field's band spectrum on the box of waves that can propagate.

    ix and iy are the increasing FFT-layout indices with |frequency index| <=
    K, K the largest with k_x^2 < k^2 (resp. k_y^2), so their product box
    holds every propagating wave; kz is zero where mask marks a wave
    evanescent; F is fft2 cropped to the box, one 1-D FFT per axis.  The
    band-box test in tests/test_gap.py pins all three bit for bit.
    """
    k = f.wavenumber_per_um
    kx, ky = (2.0 * np.pi * np.fft.fftfreq(n, d) for n, d in ((f.nx, f.dx_um), (f.ny, f.dy_um)))
    ix, iy = (np.flatnonzero(k * k - a * a > 0.0) for a in (kx, ky))
    kz2 = k * k - kx[ix, None] * kx[ix, None] - ky[iy] * ky[iy]
    mask = kz2 > 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes fail the caller's check
        amplitudes = np.fft.fft(np.fft.fft(f.amplitudes, axis=1)[:, iy], axis=0)[ix]
    return (ix, iy), np.sqrt(np.where(mask, kz2, 0.0)), mask, amplitudes


def _transfer(kz: np.ndarray, mask: np.ndarray, distance_um: float) -> np.ndarray:
    """exp(i k_z d) on the band box's propagating waves, 0 on its evanescent ones."""
    return np.where(mask, np.exp(1j * kz * distance_um), 0.0)


def _on_grid(box: np.ndarray, index, shape) -> np.ndarray:
    """A zero grid of the given shape with box put at rows index[0], columns index[1]."""
    out = np.zeros(shape, complex)
    out[np.ix_(*index)] = box
    return out


def propagate_free_space(f: SampledField, distance_um: float) -> SampledField:
    """Propagate the field a finite distance d >= 0 through free space."""
    check_value("distance_um", distance_um, ge=0)
    check_value(f"k0 d at distance_um = {distance_um:g}", f.wavenumber_per_um * distance_um)
    (ix, iy), kz, mask, amplitudes = _band(f)
    box = amplitudes * _transfer(kz, mask, distance_um)
    return replace(f, amplitudes=np.fft.ifft2(_on_grid(box, (ix, iy), (f.nx, f.ny))))


def overlap(a: SampledField, b: SampledField) -> complex:
    """Power-normalized inner product <a, b> / (||a|| ||b||), |result| <= 1."""
    a.require_same_grid(b)
    na, nb = (np.sqrt(g._power_sum()) for g in (a, b))
    check_value("field power", max(na, nb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("overlap of a zero field is undefined")
    inner = np.sum(np.conj(a.amplitudes) * b.amplitudes)
    return complex(inner / (na * nb))


def _spectrum(f: SampledField, band):
    """(kz_distinct, w): the distinct propagating k_z of f's `_band` and their power weights.

    Plane-wave samples that share a k_z (kx^2 + ky^2 is degenerate on the
    lattice) propagate identically, so their |F(k)|^2 are merged.  w is
    normalized by the total power, so evanescent power stays dropped.  By
    Parseval's theorem the projection factor of the gap series is then

        Q(d) = sum w exp(i k_z d) = sum_k |F(k)|^2 exp(i k_z d) / sum_k |F(k)|^2
             = <f, P_d f> / ||f||^2,

    the projection of the field propagated by propagate_free_space onto the
    original one, not re-normalized as `overlap` would.  The total
    sum_k |F(k)|^2 is Parseval's n_x n_y sum |f|^2.
    """
    total = f.nx * f.ny * f._power_sum()
    check_value("spectral power of the field", total)  # huge amplitudes overflow; bounds |F|^2
    if total == 0.0:
        raise ValueError("projection of a zero field is undefined")
    _, kz, mask, amplitudes = band
    kz_distinct, which = np.unique(kz[mask], return_inverse=True)
    return kz_distinct, np.bincount(which, weights=np.abs(amplitudes[mask]) ** 2) / total
