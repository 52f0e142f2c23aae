"""Free-space propagation by the angular-spectrum method and overlap integrals.

A field is decomposed into plane waves with a 2-D FFT; each component is
advanced by exp(i k_z d) with k_z = sqrt(k^2 - kx^2 - ky^2) and k the
wavenumber in the field's medium.  Components with kx^2 + ky^2 > k^2 are
evanescent and are zeroed instead of attenuated, which keeps the propagating
part of the transfer function exactly unitary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeDistance, ZeroField
from .fields import SampledField


def _spectral_grids(f: SampledField):
    """(kx, ky) meshgrid (1/um) matching numpy's FFT layout."""
    kx = 2.0 * np.pi * np.fft.fftfreq(f.nx, f.dx_um)
    ky = 2.0 * np.pi * np.fft.fftfreq(f.ny, f.dy_um)
    return np.meshgrid(kx, ky, indexing="ij")


def _kz_and_mask(f: SampledField):
    """Axial wavenumber k_z (zero where evanescent) and the propagating mask."""
    kx, ky = _spectral_grids(f)
    k = f.wavenumber_per_um
    kz2 = k * k - kx * kx - ky * ky
    mask = kz2 > 0.0
    kz = np.sqrt(np.where(mask, kz2, 0.0))
    return kz, mask


def propagate_free_space(f: SampledField, distance_um: float) -> SampledField:
    """Propagate the field a distance d >= 0 through its homogeneous medium."""
    if distance_um < 0:
        raise NegativeDistance(f"propagation distance must be >= 0, got {distance_um}")
    kz, mask = _kz_and_mask(f)
    spectrum = np.fft.fft2(f.amplitudes)
    spectrum = np.where(mask, spectrum * np.exp(1j * kz * distance_um), 0.0)
    return f.with_amplitudes(np.fft.ifft2(spectrum))


def overlap(a: SampledField, b: SampledField) -> complex:
    """Power-normalized inner product <a, b> / (||a|| ||b||), |result| <= 1."""
    a.require_same_grid(b)
    na = np.sqrt(np.sum(np.abs(a.amplitudes) ** 2))
    nb = np.sqrt(np.sum(np.abs(b.amplitudes) ** 2))
    if na == 0.0 or nb == 0.0:
        raise ZeroField("overlap of a zero field is undefined")
    inner = np.sum(np.conj(a.amplitudes) * b.amplitudes)
    return complex(inner / (na * nb))


def projection_after_propagation(f: SampledField, distances_um) -> np.ndarray:
    """<f, P_d f> / ||f||^2 for each distance d, evaluated spectrally.

    By Parseval's theorem this equals the unnormalized projection of the
    propagated field onto the original one,

        sum_k |F(k)|^2 exp(i k_z d) / sum_k |F(k)|^2,

    with evanescent components dropped exactly as propagate_free_space does.
    One FFT serves all distances, which makes long scans cheap.  Plane-wave
    samples that share a k_z (kx^2 + ky^2 is degenerate on the lattice)
    propagate identically, so their weights are merged first.  distances_um
    may have any shape and the result has that shape (a scalar gives a
    one-element array).  The phase matrix exp(i k_z d) is formed for one
    row of distances (along the last axis) at a time, which bounds its
    memory by one row.  Unlike `overlap`, the propagated field is not
    re-normalized, so power removed with the evanescent components stays
    removed.
    """
    distances = np.atleast_1d(np.asarray(distances_um, dtype=float))
    if np.any(distances < 0):
        raise NegativeDistance("distances must be >= 0")
    kz, mask = _kz_and_mask(f)
    weights = np.abs(np.fft.fft2(f.amplitudes)) ** 2
    total = weights.sum()
    if total == 0.0:
        raise ZeroField("projection of a zero field is undefined")
    kz_distinct, which = np.unique(kz[mask], return_inverse=True)
    w = np.bincount(which, weights=weights[mask]) / total
    rows = distances.reshape(math.prod(distances.shape[:-1]), distances.shape[-1])
    out = np.array([np.exp(1j * np.outer(row, kz_distinct)) @ w for row in rows])
    return out.reshape(distances.shape)
