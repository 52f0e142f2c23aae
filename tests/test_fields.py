import warnings

import numpy as np
import pytest

from ridgecav import GridSpec, SampledField, load_field_csv, save_field_csv
from ridgecav.fields import _write_lines, field_to_csv_rows


def test_gridspec_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        GridSpec(nx=100, ny=128)
    with pytest.raises(ValueError):
        GridSpec(nx=8, ny=128)  # below the minimum of 16
    with pytest.raises(ValueError):
        GridSpec(window_x_um=-1.0)
    for name in ("window_x_um", "window_y_um"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                GridSpec(**{name: bad})


def test_grid_coordinates_are_cell_centered():
    g = GridSpec(nx=16, ny=16, window_x_um=16.0, window_y_um=16.0)
    x = g.x_coords_um()
    assert x[0] == pytest.approx(-7.5)
    assert x[-1] == pytest.approx(7.5)
    assert np.allclose(np.diff(x), 1.0)


def test_field_power_and_normalization():
    amps = np.ones((16, 16), dtype=complex)
    f = SampledField(amplitudes=amps, dx_um=0.5, dy_um=0.5, wavelength_nm=780.0)
    assert f.power() == pytest.approx(16 * 16 * 0.25)
    assert f.normalized().power() == pytest.approx(1.0, abs=1e-12)


def test_zero_field_cannot_be_normalized():
    f = SampledField(np.zeros((16, 16)), dx_um=0.5, dy_um=0.5)
    with pytest.raises(ValueError):
        f.normalized()


@pytest.mark.parametrize("shape", [(16,), (4, 4, 4)], ids=["1-D", "3-D"])
def test_field_rejects_amplitudes_that_are_not_2d(shape):
    with pytest.raises(ValueError, match="^amplitudes must be a 2-D array$"):
        SampledField(np.ones(shape), dx_um=0.5, dy_um=0.5)


def test_field_rejects_non_finite_amplitudes():
    amps = np.ones((16, 16), dtype=complex)
    amps[3, 3] = np.nan
    with pytest.raises(ValueError):
        SampledField(amps, dx_um=0.5, dy_um=0.5)


@pytest.mark.parametrize("name", ["dx_um", "dy_um", "wavelength_nm"])
def test_field_rejects_non_finite_scalars(name):
    with pytest.raises(ValueError, match=name):
        SampledField(np.ones((16, 16)), **{name: float("nan")})


def test_csv_with_non_finite_coordinate_rejected(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("x_um,y_um,re,im\n0,0,1,0\n0,1,1,0\ninf,0,1,0\ninf,1,1,0\n")
    with pytest.raises(ValueError, match="dx_um"):
        load_field_csv(path, wavelength_nm=780.0)


@pytest.mark.parametrize("rows", [
    "0,0,1,0\n1,0,2,0\n0,1,3,0\n1,1,4,0\n",
    "0,0,1,0\n0,0,2,0\n1,1,3,0\n1,1,4,0\n",
], ids=["y-outer", "repeated-points"])
def test_csv_rows_out_of_grid_order_rejected(tmp_path, rows):
    path = tmp_path / "field.csv"
    path.write_text("x_um,y_um,re,im\n" + rows)
    with pytest.raises(ValueError, match="x outer, y inner"):
        load_field_csv(path, wavelength_nm=780.0)


@pytest.mark.parametrize("rows, nx, ny", [
    ("0,0,1,0\n0,1,2,0\n", 1, 2),
    ("0,0,1,0\n1,0,2,0\n", 2, 1),
    ("0,0,1,0\n", 1, 1),
], ids=["one-x", "one-y", "one-row"])
def test_csv_with_one_sample_along_an_axis_rejected(tmp_path, rows, nx, ny):
    # one sample along an axis implies no grid step
    path = tmp_path / "field.csv"
    path.write_text("x_um,y_um,re,im\n" + rows)
    with pytest.raises(ValueError, match=f"got {nx} x and {ny} y$"):
        load_field_csv(path, wavelength_nm=780.0)


@pytest.mark.parametrize("rows, columns", [
    ("", 0),
    ("0,0,1\n0,1,2\n1,0,3\n1,1,4\n", 3),
    ("0,0,1,0,9\n0,1,2,0,9\n1,0,3,0,9\n1,1,4,0,9\n", 5),
], ids=["header-only", "three-columns", "five-columns"])
def test_csv_without_four_columns_rejected(tmp_path, rows, columns):
    path = tmp_path / "field.csv"
    path.write_text("x_um,y_um,re,im\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt: input contained no data
        with pytest.raises(ValueError, match=rf"4 columns \(x_um,y_um,re,im\), got {columns}$"):
            load_field_csv(path, wavelength_nm=780.0)


@pytest.mark.parametrize("existing", [None, "old contents\n"], ids=["new", "replaced"])
def test_write_that_fails_partway_leaves_no_file_behind(tmp_path, existing):
    # the lines go to a temporary file that is removed when the source
    # raises; the target is never half written
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_text(existing)

    def lines():
        yield "a,b"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        _write_lines(path, lines())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.csv"] if existing else [])
    if existing is not None:
        assert path.read_text() == existing


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    f = SampledField(amps, dx_um=0.25, dy_um=0.5, wavelength_nm=780.0)
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "x_um,y_um,re,im"
    g = load_field_csv(path, wavelength_nm=780.0)
    assert g.nx == f.nx and g.ny == f.ny
    assert g.dx_um == pytest.approx(f.dx_um)
    assert g.dy_um == pytest.approx(f.dy_um)
    # 6 significant digits in the file bound the round-trip error
    assert np.allclose(g.amplitudes, f.amplitudes, atol=1e-5, rtol=1e-5)


def test_csv_rows_match_per_sample_formatting():
    # the writer formats each distinct value once: -0.0 and 0.0 side by side,
    # subnormals, and exact ties at the sixth digit (round half to even)
    amps = np.array([
        [complex(-0.0, -0.0), 1e-19 - 3.2e-19j, 123456.789 + 1e5j, complex(0.0, -0.0)],
        [-1.5e-7 - 0.0j, 0.1234567 + 9.999995e5j, -2.5e5 + 1e-20j, complex(5e-324, -2.5e-320)],
        [complex(1234565.0, 1234575.0), complex(-1000005.0, 1e-310), complex(0.0, 0.0),
         complex(-0.0, 1234565.0)],
    ])
    f = SampledField(amps, dx_um=0.3, dy_um=0.7, wavelength_nm=780.0)
    xs, ys = f.x_coords_um(), f.y_coords_um()
    expected = ["x_um,y_um,re,im"] + [
        f"{xs[i]:.6g},{ys[j]:.6g},{amps[i, j].real:.6g},{amps[i, j].imag:.6g}"
        for i in range(f.nx)
        for j in range(f.ny)
    ]
    rows = list(field_to_csv_rows(f))
    assert rows == expected
    assert rows[1] == "-0.3,-1.05,-0,-0"
    assert rows[4] == "-0.3,1.05,0,-0"
