"""Free-space propagation by the angular-spectrum method and overlap integrals.

A field is decomposed into plane waves with a 2-D FFT; each component is
advanced by exp(i k_z d) with k_z = sqrt(k^2 - kx^2 - ky^2) and k the
wavenumber in the field's medium.  Components with kx^2 + ky^2 > k^2 are
evanescent and are zeroed instead of attenuated, which keeps the propagating
part of the transfer function exactly unitary.
"""

from __future__ import annotations

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


def _transfer_function(f: SampledField, distance_um: float) -> np.ndarray:
    """exp(i k_z d) on the propagating components, 0 on the evanescent ones."""
    if distance_um < 0:
        raise NegativeDistance(f"propagation distance must be >= 0, got {distance_um}")
    kz, mask = _kz_and_mask(f)
    return np.where(mask, np.exp(1j * kz * distance_um), 0.0)


def propagate_free_space(f: SampledField, distance_um: float) -> SampledField:
    """Propagate the field a distance d >= 0 through its homogeneous medium."""
    transfer = _transfer_function(f, distance_um)
    return f.with_amplitudes(np.fft.ifft2(np.fft.fft2(f.amplitudes) * transfer))


def overlap(a: SampledField, b: SampledField) -> complex:
    """Power-normalized inner product <a, b> / (||a|| ||b||), |result| <= 1."""
    a.require_same_grid(b)
    na = np.sqrt(np.sum(np.abs(a.amplitudes) ** 2))
    nb = np.sqrt(np.sum(np.abs(b.amplitudes) ** 2))
    if na == 0.0 or nb == 0.0:
        raise ZeroField("overlap of a zero field is undefined")
    inner = np.sum(np.conj(a.amplitudes) * b.amplitudes)
    return complex(inner / (na * nb))


def _spectrum(f: SampledField):
    """(kz_distinct, w): the distinct propagating k_z and their power weights.

    Plane-wave samples that share a k_z (kx^2 + ky^2 is degenerate on the
    lattice) propagate identically, so their |F(k)|^2 are merged.  w is
    normalized by the total power, so evanescent power stays dropped.
    """
    kz, mask = _kz_and_mask(f)
    weights = np.abs(np.fft.fft2(f.amplitudes)) ** 2
    total = weights.sum()
    if total == 0.0:
        raise ZeroField("projection of a zero field is undefined")
    kz_distinct, which = np.unique(kz[mask], return_inverse=True)
    return kz_distinct, np.bincount(which, weights=weights[mask]) / total


def projection_after_propagation(f: SampledField, distances_um) -> np.ndarray:
    """<f, P_d f> / ||f||^2 for each distance d, evaluated spectrally.

    By Parseval's theorem this equals the unnormalized projection of the
    propagated field onto the original one,

        sum_k |F(k)|^2 exp(i k_z d) / sum_k |F(k)|^2,

    with evanescent components dropped exactly as propagate_free_space does.
    One FFT serves all distances.  distances_um may have any shape and the
    result has that shape (a scalar gives a one-element array).  Unlike
    `overlap`, the propagated field is not re-normalized, so power removed
    with the evanescent components stays removed.
    """
    distances = np.atleast_1d(np.asarray(distances_um, dtype=float))
    if np.any(distances < 0):
        raise NegativeDistance("distances must be >= 0")
    kz, w = _spectrum(f)
    return np.exp(1j * np.multiply.outer(distances, kz)) @ w
