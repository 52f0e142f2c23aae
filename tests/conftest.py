"""Shared fixtures: the reference ridge mode and synthetic fields."""

import os
import sys

# no src/ridgecav/__pycache__/ is written, whatever PYTHONDONTWRITEBYTECODE says, by this
# process or by the interpreters the tests start: a stray .pyc there changes what a fresh
# `python -m ridgecav.cli` pays to import
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ridgecav import GridSpec, SampledField, WaveguideGeometry, solve_fundamental_mode

RIDGE = WaveguideGeometry(
    ridge_width_um=4.0,
    ridge_height_um=4.0,
    core_thickness_um=4.0,
    cladding_thickness_um=4.0,
    n_core=3.155,
    n_clad=3.145,
    n_exterior=1.0,
    wavelength_nm=780.0,
)

# property tests replay the same examples on every run and never time out
settings.register_profile("ridgecav", derandomize=True, deadline=None,
                          database=None, max_examples=30)
settings.load_profile("ridgecav")

GRID = GridSpec(nx=256, ny=256, window_x_um=24.0, window_y_um=24.0)


@pytest.fixture(scope="session", autouse=True)
def hypothesis_home(tmp_path_factory):
    """Hypothesis' files (its cache of each module's constants) go to a pytest temp directory.

    Left at its default, the home directory is .hypothesis/ in the working tree.
    """
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture(scope="session")
def ridge_mode():
    """Fundamental mode of the reference ridge, solved once per session."""
    return solve_fundamental_mode(RIDGE, GRID)


def make_gaussian(w0_um, wavelength_nm=780.0, nx=256, window_um=24.0,
                  order=1, offset_um=(0.0, 0.0)):
    """Unit-power (super-)Gaussian test field on the standard grid."""
    dx = window_um / nx
    x = (np.arange(nx) - nx / 2 + 0.5) * dx
    xx, yy = np.meshgrid(x - offset_um[0], x - offset_um[1], indexing="ij")
    r2 = xx**2 + yy**2
    amps = np.exp(-((r2 / w0_um**2) ** order))
    f = SampledField(
        amplitudes=amps.astype(complex),
        dx_um=dx,
        dy_um=dx,
        wavelength_nm=wavelength_nm,
    )
    return f.normalized()


@pytest.fixture
def gaussian_field():
    return make_gaussian


def assert_read_only(f):
    """An in-place write to the field's amplitudes, band or spectrum arrays raises."""
    (ix, iy), kz, mask, amplitudes = f.band
    for a in (f.amplitudes, ix, iy, kz, mask, amplitudes, *f.spectrum):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


def q_factors(f, distances_um):
    """Q(d) = sum w exp(i k_z d) over f's angular spectrum, for each distance.

    The projection factors the gap series weights its bounces by, formed term
    by term; the model itself sums them only in closed form.
    """
    kz, w = f.spectrum
    return np.exp(1j * np.multiply.outer(np.asarray(distances_um, dtype=float), kz)) @ w
