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


def _band(f: SampledField):
    """((ix, iy), kz, mask): the box of plane waves that can propagate, and k_z on it.

    ix and iy are the FFT-layout indices with |frequency index| <= K on each
    axis, K the largest index with k_x^2 < k^2 (resp. k_y^2), in increasing
    order; every propagating wave lies in their product box.  kz (zero where
    evanescent) and the propagating mask are built on that box with the same
    float operations as on the full grid, so they are its entries bit for
    bit, and the box lists the full grid's propagating entries in the same
    row-major order.
    """
    k = f.wavenumber_per_um
    kx, ky = (2.0 * np.pi * np.fft.fftfreq(n, d) for n, d in ((f.nx, f.dx_um), (f.ny, f.dy_um)))
    ix, iy = (np.flatnonzero(k * k - a * a > 0.0) for a in (kx, ky))
    kz2 = k * k - kx[ix, None] * kx[ix, None] - ky[iy] * ky[iy]
    mask = kz2 > 0.0
    return (ix, iy), np.sqrt(np.where(mask, kz2, 0.0)), mask


def _transfer_function(f: SampledField, distance_um: float) -> np.ndarray:
    """exp(i k_z d) on the propagating components, 0 on the evanescent ones."""
    check_value("distance_um", distance_um, ge=0)
    (ix, iy), kz, mask = _band(f)
    transfer = np.zeros((f.nx, f.ny), complex)
    transfer[np.ix_(ix, iy)] = np.where(mask, np.exp(1j * kz * distance_um), 0.0)
    return transfer


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


def _band_amplitudes(f: SampledField, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """F(k) on the band box, one 1-D FFT per axis: fft2 does the last axis first,
    so this is fft2 cropped to rows ix and columns iy, bit for bit."""
    return np.fft.fft(np.fft.fft(f.amplitudes, axis=1)[:, iy], axis=0)[ix]


def _spectrum(f: SampledField):
    """(kz_distinct, w): the distinct propagating k_z and their power weights.

    Plane-wave samples that share a k_z (kx^2 + ky^2 is degenerate on the
    lattice) propagate identically, so their |F(k)|^2 are merged.  w is
    normalized by the total power, so evanescent power stays dropped.  By
    Parseval's theorem the projection factor of the gap series is then

        Q(d) = sum w exp(i k_z d) = sum_k |F(k)|^2 exp(i k_z d) / sum_k |F(k)|^2
             = <f, P_d f> / ||f||^2,

    the projection of the field propagated by propagate_free_space onto the
    original one, not re-normalized as `overlap` would.  F is formed on the
    `_band` box only, where every propagating wave lies, and the total
    sum_k |F(k)|^2 is Parseval's n_x n_y sum |f|^2: no full-grid transform.
    """
    (ix, iy), kz, mask = _band(f)
    total = f.nx * f.ny * np.sum(np.abs(f.amplitudes) ** 2)
    check_value("spectral power of the field", total)  # huge amplitudes overflow; bounds |F|^2
    if total == 0.0:
        raise ValueError("projection of a zero field is undefined")
    kz_distinct, which = np.unique(kz[mask], return_inverse=True)
    power = np.abs(_band_amplitudes(f, ix, iy)[mask]) ** 2
    return kz_distinct, np.bincount(which, weights=power) / total
