"""Free-space propagation by the angular-spectrum method and overlap integrals.

A free-space step takes the field's spectrum on the box of plane waves that
can propagate (`SampledField.band`), advances each by exp(i k_z d) with k_z =
sqrt(k^2 - kx^2 - ky^2), k = 2 pi/lambda (`_transfer`), and puts the box back
into a zero grid (`_on_grid`).  Evanescent components are zeroed instead of
attenuated, so the step is exactly unitary on the propagating ones.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import check_value
from .fields import SampledField


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
    (ix, iy), kz, mask, amplitudes = f.band
    box = amplitudes * _transfer(kz, mask, distance_um)
    return replace(f, amplitudes=np.fft.ifft2(_on_grid(box, (ix, iy), (f.nx, f.ny))))


def overlap(a: SampledField, b: SampledField) -> complex:
    """Power-normalized inner product <a, b> / (||a|| ||b||), |result| <= 1."""
    a.require_same_grid(b)
    na, nb = (np.sqrt(g._power_sum) for g in (a, b))
    check_value("field power", max(na, nb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("overlap of a zero field is undefined")
    inner = np.sum(np.conj(a.amplitudes) * b.amplitudes)
    return complex(inner / (na * nb))

