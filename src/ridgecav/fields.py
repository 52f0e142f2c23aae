"""Sampled transverse fields on uniform grids, plus CSV import/export.

Grid convention: samples sit at cell centers, x_i = (i - nx/2 + 0.5) * dx,
so the window is symmetric about the origin and contains no sample exactly
on the window edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridMismatch, ZeroField, require_finite


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _cell_centres(n: int, step: float) -> np.ndarray:
    return (np.arange(n) - n / 2 + 0.5) * step


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: counts and physical window extents (um)."""

    nx: int = 256
    ny: int = 256
    window_x_um: float = 24.0
    window_y_um: float = 24.0

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 16 or not _is_pow2(n):
                raise ValueError(f"{name} must be a power of two >= 16, got {n}")
        require_finite(self)
        if self.window_x_um <= 0 or self.window_y_um <= 0:
            raise ValueError("window extents must be positive")

    @property
    def dx_um(self) -> float:
        return self.window_x_um / self.nx

    @property
    def dy_um(self) -> float:
        return self.window_y_um / self.ny

    def x_coords_um(self) -> np.ndarray:
        return _cell_centres(self.nx, self.dx_um)

    def y_coords_um(self) -> np.ndarray:
        return _cell_centres(self.ny, self.dy_um)


@dataclass(frozen=True)
class SampledField:
    """Complex scalar field sampled on a uniform transverse grid.

    amplitudes has shape (nx, ny), axis 0 along x.  Power is the discrete
    integral of |E|^2 over the window.
    """

    amplitudes: np.ndarray = field(repr=False)
    dx_um: float = 0.09375
    dy_um: float = 0.09375
    wavelength_nm: float = 780.0
    medium_index: float = 1.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-D array")
        require_finite(self)
        if self.dx_um <= 0 or self.dy_um <= 0:
            raise ValueError("grid spacing must be positive")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength must be positive")
        if self.medium_index < 1:
            raise ValueError("medium_index must be >= 1")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")

    @property
    def nx(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def ny(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def cell_area_um2(self) -> float:
        return self.dx_um * self.dy_um

    @property
    def wavenumber_per_um(self) -> float:
        """k = 2 pi n / lambda in the field's medium (1/um)."""
        return 2.0 * np.pi * self.medium_index / (self.wavelength_nm * 1e-3)

    def power(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.cell_area_um2)

    def normalized(self) -> "SampledField":
        """Scale to unit power."""
        p = self.power()
        if p == 0.0:
            raise ZeroField("cannot normalize a zero field")
        return replace(self, amplitudes=self.amplitudes / np.sqrt(p))

    def with_amplitudes(self, amplitudes: np.ndarray) -> "SampledField":
        return replace(self, amplitudes=np.asarray(amplitudes, dtype=complex))

    def x_coords_um(self) -> np.ndarray:
        return _cell_centres(self.nx, self.dx_um)

    def y_coords_um(self) -> np.ndarray:
        return _cell_centres(self.ny, self.dy_um)

    def same_grid_as(self, other: "SampledField") -> bool:
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and np.isclose(self.dx_um, other.dx_um, rtol=1e-12)
            and np.isclose(self.dy_um, other.dy_um, rtol=1e-12)
            and np.isclose(self.wavelength_nm, other.wavelength_nm, rtol=1e-12)
        )

    def require_same_grid(self, other: "SampledField") -> None:
        if not self.same_grid_as(other):
            raise GridMismatch(
                "fields must share grid shape, spacing and wavelength: "
                f"({self.nx}x{self.ny}, dx={self.dx_um:g}, dy={self.dy_um:g}, "
                f"lambda={self.wavelength_nm:g}) vs "
                f"({other.nx}x{other.ny}, dx={other.dx_um:g}, dy={other.dy_um:g}, "
                f"lambda={other.wavelength_nm:g})"
            )


def field_to_csv_rows(f: SampledField):
    """Yield CSV lines `x_um,y_um,re,im`, row-major (x outer, y inner)."""
    xs = [f"{x:.6g}" for x in f.x_coords_um()]
    ys = [f"{y:.6g}" for y in f.y_coords_um()]
    yield "x_um,y_um,re,im"
    for x, re_row, im_row in zip(xs, f.amplitudes.real.tolist(), f.amplitudes.imag.tolist()):
        for y, re, im in zip(ys, re_row, im_row):
            yield f"{x},{y},{re:.6g},{im:.6g}"


def save_field_csv(f: SampledField, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in field_to_csv_rows(f):
            fh.write(line + "\n")


def load_field_csv(path, wavelength_nm: float, medium_index: float = 1.0) -> SampledField:
    """Read a field written by save_field_csv; grid inferred from coordinates."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != data.shape[0]:
        raise ValueError("CSV does not describe a full rectangular grid")
    # span-based spacing averages out the per-coordinate rounding in the file
    dx = float((xs[-1] - xs[0]) / (nx - 1)) if nx > 1 else 1.0
    dy = float((ys[-1] - ys[0]) / (ny - 1)) if ny > 1 else 1.0
    amps = (data[:, 2] + 1j * data[:, 3]).reshape(nx, ny)
    return SampledField(
        amplitudes=amps,
        dx_um=dx,
        dy_um=dy,
        wavelength_nm=wavelength_nm,
        medium_index=medium_index,
    )
