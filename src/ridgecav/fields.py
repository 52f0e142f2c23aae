"""Sampled transverse fields on uniform grids, plus CSV import/export.

Grid convention: samples sit at cell centers, x_i = (i - nx/2 + 0.5) * dx,
so the window is symmetric about the origin and contains no sample exactly
on the window edge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import check_fields, check_value


_FMT = "%.6g"  # every printed number: 6 significant digits, so reruns match byte for byte


def _fmt(x) -> str:
    return _FMT % x


def _cell_centres(n: int, step: float) -> np.ndarray:
    return (np.arange(n) - n / 2 + 0.5) * step


def _wavenumber_per_um(wavelength_nm: float) -> float:
    """Free-space k = 2 pi / lambda (1/um) of a wavelength in nm; k^2 must be in float range."""
    if not wavelength_nm * 1e151 > 2.0 * np.pi:
        raise ValueError(f"wavelength_nm = {wavelength_nm:g} is too short: k0^2 leaves float range")
    return 2.0 * np.pi / (wavelength_nm * 1e-3)


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: counts and physical window extents (um)."""

    nx: int = field(default=256, metadata={"ge": 16})
    ny: int = field(default=256, metadata={"ge": 16})
    window_x_um: float = field(default=24.0, metadata={"gt": 0})
    window_y_um: float = field(default=24.0, metadata={"gt": 0})

    def __post_init__(self):
        check_fields(self)
        for name, n, step in (("nx", self.nx, self.dx_um), ("ny", self.ny, self.dy_um)):
            if n & (n - 1):
                raise ValueError(f"{name} must be a power of two, got {n}")
            check_value(f"(window_{name[1]}_um / {name})^2", step * step)

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
    dx_um: float = field(default=0.09375, metadata={"gt": 0})
    dy_um: float = field(default=0.09375, metadata={"gt": 0})
    wavelength_nm: float = field(default=780.0, metadata={"gt": 0})

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-D array")
        if amps.size == 0:
            raise ValueError("amplitudes must not be empty")
        check_fields(self)
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
        return _wavenumber_per_um(self.wavelength_nm)

    def power(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.cell_area_um2)

    def _normalizing_power(self) -> float:
        """The power p that `normalized` divides out as sqrt(p): finite and nonzero, or raises."""
        with np.errstate(over="ignore"):  # an overflowing power fails below, as inf
            p = self.power()
        check_value("field power", p)
        if p == 0.0:
            raise ValueError("cannot normalize a zero field")
        return p

    def normalized(self) -> "SampledField":
        """Scale to unit power."""
        return replace(self, amplitudes=self.amplitudes / np.sqrt(self._normalizing_power()))

    def x_coords_um(self) -> np.ndarray:
        return _cell_centres(self.nx, self.dx_um)

    def y_coords_um(self) -> np.ndarray:
        return _cell_centres(self.ny, self.dy_um)

    def require_same_grid(self, other: "SampledField") -> None:
        if not (
            self.nx == other.nx
            and self.ny == other.ny
            and np.isclose(self.dx_um, other.dx_um, rtol=1e-12)
            and np.isclose(self.dy_um, other.dy_um, rtol=1e-12)
            and np.isclose(self.wavelength_nm, other.wavelength_nm, rtol=1e-12)
        ):
            raise ValueError(
                "fields must share grid shape, spacing and wavelength: "
                f"({self.nx}x{self.ny}, dx={self.dx_um:g}, dy={self.dy_um:g}, "
                f"lambda={self.wavelength_nm:g}) vs "
                f"({other.nx}x{other.ny}, dx={other.dx_um:g}, dy={other.dy_um:g}, "
                f"lambda={other.wavelength_nm:g})"
            )


def field_to_csv_rows(f: SampledField):
    """Yield CSV lines `x_um,y_um,re,im`, row-major (x outer, y inner).

    Each distinct amplitude value is formatted once.  Values are told apart
    by their bit pattern, so -0.0 keeps its own text (`-0`).
    """
    xs = [_fmt(x) for x in f.x_coords_um()]
    ys = [_fmt(y) for y in f.y_coords_um()]
    parts = np.stack([f.amplitudes.real, f.amplitudes.imag])
    bits, index = np.unique(parts.view(np.uint64).ravel(), return_inverse=True)
    text = np.array([_FMT % v for v in bits.view(np.float64).tolist()], dtype=object)
    re_text, im_text = text[index.reshape(parts.shape)]
    yield "x_um,y_um,re,im"
    for x, re_row, im_row in zip(xs, re_text.tolist(), im_text.tolist()):
        for y, re, im in zip(ys, re_row, im_row):
            yield f"{x},{y},{re},{im}"


def _write_lines(path, lines) -> None:
    """Write LF-terminated lines to a random `*.tmp` beside path, then rename it to path."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # created as open() creates a file: mode 0666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_field_csv(f: SampledField, path) -> None:
    """Write the field as CSV (see field_to_csv_rows), atomically."""
    _write_lines(path, field_to_csv_rows(f))


def load_field_csv(path, wavelength_nm: float) -> SampledField:
    """Read a field written by save_field_csv; grid inferred from coordinates."""
    with open(path) as fh:  # a file with no rows is caught here: np.loadtxt would warn
        next(fh, None)
        rows = any(line.partition("#")[0].strip() for line in fh)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if rows else np.empty((0, 0))
    if data.shape[1] != 4:
        raise ValueError(f"CSV rows must have 4 columns (x_um,y_um,re,im), got {data.shape[1]}")
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 distinct x and 2 distinct y to infer the grid step, "
                         f"got {nx} x and {ny} y")
    if not (np.array_equal(data[:, 0], np.repeat(xs, ny))
            and np.array_equal(data[:, 1], np.tile(ys, nx))):
        raise ValueError("CSV rows must list the full grid once, x outer, y inner, ascending")
    # span-based spacing averages out the per-coordinate rounding in the file
    dx, dy = (float((c[-1] - c[0]) / (len(c) - 1)) for c in (xs, ys))
    amps = (data[:, 2] + 1j * data[:, 3]).reshape(nx, ny)
    return SampledField(amplitudes=amps, dx_um=dx, dy_um=dy, wavelength_nm=wavelength_nm)
