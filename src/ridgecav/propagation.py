"""Free-space propagation by the angular-spectrum method and overlap integrals.

A field is decomposed into plane waves with a 2-D FFT; each component is
advanced by exp(i k_z d) with k_z = sqrt(k^2 - kx^2 - ky^2) and k = 2 pi/lambda
the free-space wavenumber.  Components with kx^2 + ky^2 > k^2 are
evanescent and are zeroed instead of attenuated, which keeps the propagating
part of the transfer function exactly unitary.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import check_value
from .fields import SampledField


def _kz_and_mask(f: SampledField):
    """k_z (zero where evanescent) and the propagating mask, in numpy's FFT layout."""
    kx = 2.0 * np.pi * np.fft.fftfreq(f.nx, f.dx_um)
    ky = 2.0 * np.pi * np.fft.fftfreq(f.ny, f.dy_um)
    kx, ky = np.meshgrid(kx, ky, indexing="ij")
    k = f.wavenumber_per_um
    kz2 = k * k - kx * kx - ky * ky
    mask = kz2 > 0.0
    kz = np.sqrt(np.where(mask, kz2, 0.0))
    return kz, mask


def _transfer_function(f: SampledField, distance_um: float) -> np.ndarray:
    """exp(i k_z d) on the propagating components, 0 on the evanescent ones."""
    check_value("distance_um", distance_um, ge=0)
    kz, mask = _kz_and_mask(f)
    return np.where(mask, np.exp(1j * kz * distance_um), 0.0)


def propagate_free_space(f: SampledField, distance_um: float) -> SampledField:
    """Propagate the field a finite distance d >= 0 through free space."""
    transfer = _transfer_function(f, distance_um)
    return replace(f, amplitudes=np.fft.ifft2(np.fft.fft2(f.amplitudes) * transfer))


def overlap(a: SampledField, b: SampledField) -> complex:
    """Power-normalized inner product <a, b> / (||a|| ||b||), |result| <= 1."""
    a.require_same_grid(b)
    na = np.sqrt(np.sum(np.abs(a.amplitudes) ** 2))
    nb = np.sqrt(np.sum(np.abs(b.amplitudes) ** 2))
    if na == 0.0 or nb == 0.0:
        raise ValueError("overlap of a zero field is undefined")
    inner = np.sum(np.conj(a.amplitudes) * b.amplitudes)
    return complex(inner / (na * nb))


def _spectrum(f: SampledField):
    """(kz_distinct, w): the distinct propagating k_z and their power weights.

    Plane-wave samples that share a k_z (kx^2 + ky^2 is degenerate on the
    lattice) propagate identically, so their |F(k)|^2 are merged.  w is
    normalized by the total power, so evanescent power stays dropped.  By
    Parseval's theorem the projection factor of the gap series is then

        Q(d) = sum w exp(i k_z d) = sum_k |F(k)|^2 exp(i k_z d) / sum_k |F(k)|^2
             = <f, P_d f> / ||f||^2,

    the projection of the field propagated by propagate_free_space onto the
    original one, not re-normalized as `overlap` would.
    """
    kz, mask = _kz_and_mask(f)
    weights = np.abs(np.fft.fft2(f.amplitudes)) ** 2
    total = weights.sum()
    check_value("spectral power of the field", total)  # |F|^2 of huge amplitudes overflows
    if total == 0.0:
        raise ValueError("projection of a zero field is undefined")
    kz_distinct, which = np.unique(kz[mask], return_inverse=True)
    return kz_distinct, np.bincount(which, weights=weights[mask]) / total
