import contextlib
import dataclasses
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ridgecav
from ridgecav import (
    AtomParams,
    CavitySpec,
    ConfigError,
    GapConfig,
    GridSpec,
    WaveguideGeometry,
    load_field_csv,
)
from ridgecav import cavity, cli, config, waveguide
from ridgecav.cli import main
from ridgecav.config import BudgetSettings, MirrorSettings, load_config

BASE_WAVEGUIDE = """\
[waveguide]
ridge_width_um = 4.0
ridge_height_um = 4.0
core_thickness_um = 4.0
n_core = 3.155
n_clad = 3.145
wavelength_nm = 780.0
"""


def write_config(tmp_path, text, name="project.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing ---------------------------------------------------------

def test_defaults_fill_in(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_WAVEGUIDE))
    assert cfg.geometry.n_exterior == 1.0
    assert cfg.geometry.cladding_thickness_um == 4.0
    assert cfg.grid.nx == 256
    assert cfg.gap.d_um == 1.96
    assert cfg.gap.n_interface == 3.155
    assert cfg.cavity.length_um == 300.0
    assert cfg.cavity.n_group == 3.50
    assert cfg.atom.gamma_half_MHz == 3.0
    assert cfg.budget.enhancement == 1.0


def test_minimal_file_loads_dataclass_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_WAVEGUIDE))
    assert cfg.geometry == WaveguideGeometry()
    assert cfg.grid == GridSpec()
    assert cfg.gap == GapConfig()
    assert cfg.mirror == MirrorSettings()
    assert cfg.cavity == CavitySpec(300.0, 3.50, 1.03)
    assert cfg.atom == AtomParams()
    assert cfg.budget == BudgetSettings()
    assert cfg.trap is None


# every float key of every block; [trap] keys are read only next to a c4_J_m4
FLOAT_KEYS = {
    "waveguide": ("ridge_width_um", "ridge_height_um", "core_thickness_um",
                  "cladding_thickness_um", "n_core", "n_clad", "n_exterior",
                  "wavelength_nm"),
    "grid": ("window_x_um", "window_y_um"),
    "gap": ("d_um", "n_interface", "series_tolerance"),
    "mirror": ("n_high", "n_low"),
    "cavity": ("length_um", "n_group", "alpha_per_cm", "mirror_R_left", "mirror_R_right"),
    "atom": ("dipole_Cm", "gamma_half_MHz", "transition_wavelength_nm", "mass_kg"),
    "trap": ("omega_trap_2pi_kHz", "atom_mass_kg", "c4_J_m4", "gap_width_um"),
    "budget": ("mode_area_um2", "gap_amplitude", "enhancement"),
}


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("block, key", [
    pytest.param(block, key, id=f"{block}.{key}")
    for block, keys in FLOAT_KEYS.items() for key in keys
])
def test_non_finite_value_rejected(tmp_path, block, key, bad):
    text = BASE_WAVEGUIDE if block == "waveguide" else BASE_WAVEGUIDE + f"\n[{block}]\n"
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M) + f"{key} = {bad}\n"
    if block == "trap" and key != "c4_J_m4":
        text += "c4_J_m4 = 1.2e-55\n"
    with pytest.raises(ConfigError, match=rf"\[{block}\] {key} must be finite, got {bad}$"):
        load_config(write_config(tmp_path, text))


def test_overrides_apply(tmp_path):
    text = BASE_WAVEGUIDE + "\n[cavity]\nlength_um = 330.0\n\n[grid]\nnx = 128\nny = 128\n"
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.cavity.length_um == 330.0
    assert cfg.grid.nx == 128


def test_missing_required_key_is_named(tmp_path):
    text = BASE_WAVEGUIDE.replace("n_core = 3.155\n", "")
    with pytest.raises(ConfigError, match="n_core"):
        load_config(write_config(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="n_bogus"):
        load_config(write_config(tmp_path, BASE_WAVEGUIDE + "n_bogus = 1.0\n"))


def test_unknown_block_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write_config(tmp_path, BASE_WAVEGUIDE + "\n[mystery]\nx = 1\n"))


def test_unparseable_value_names_the_key(tmp_path):
    text = BASE_WAVEGUIDE.replace("n_core = 3.155", "n_core = fast")
    with pytest.raises(ConfigError, match="waveguide.n_core"):
        load_config(write_config(tmp_path, text))


def test_syntax_error_reports_line(tmp_path):
    text = "just some text, no block header\n"
    with pytest.raises(ConfigError, match="line 1"):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("text, message", [
    (None, r"^cannot read config: \[Errno 2\] No such file or directory"),
    (BASE_WAVEGUIDE + "a line with no equals sign\n",
     r"^line 8: syntax error: Source contains parsing errors"),
], ids=["unreadable", "syntax-error"])
def test_unloadable_config_is_named(tmp_path, text, message):
    path = tmp_path / "project.cfg"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize("extra, message", [
    ("n_core = 3.155\n", "line 8: key 'waveguide.n_core' is set twice"),
    ("\n[grid]\nnx = 64\n\n[grid]\nny = 64\n", "line 12: block [grid] appears twice"),
], ids=["key", "block"])
def test_duplicate_key_or_block_rejected(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + extra)
    code, out, err = run_cli(capsys, "mode", cfg, "--out", str(tmp_path))
    assert code == 2
    assert message in err
    assert out == ""


def test_invariant_violation_rejected(tmp_path):
    text = BASE_WAVEGUIDE.replace("n_clad = 3.145", "n_clad = 3.255")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("block, key, bad", [
    ("mirror", "pairs", "-1"),
    ("mirror", "n_high", "0.9"),
    ("mirror", "n_low", "0.5"),
    ("budget", "phase_samples", "0"),
    ("budget", "enhancement", "0.5"),
    ("budget", "mode_area_um2", "0"),
    ("budget", "gap_amplitude", "0"),
    ("budget", "gap_amplitude", "1.5"),
    ("gap", "n_interface", "0.5"),
    ("gap", "series_tolerance", "1"),
    ("cavity", "mirror_R_left", "0"),
    ("cavity", "mirror_R_right", "0"),
])
def test_out_of_range_setting_rejected_at_load(tmp_path, block, key, bad):
    text = BASE_WAVEGUIDE + f"\n[{block}]\n{key} = {bad}\n"
    with pytest.raises(ConfigError, match=rf"\[{block}\] {key} must be [<>]=? \d+, got "):
        load_config(write_config(tmp_path, text))


def test_range_limits_are_accepted_at_load(tmp_path):
    text = BASE_WAVEGUIDE + (
        "\n[mirror]\npairs = 0\nn_high = 1.0\nn_low = 1.0\n"
        "\n[budget]\nphase_samples = 1\nenhancement = 1.0\ngap_amplitude = 1.0\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.mirror == MirrorSettings(n_high=1.0, n_low=1.0, pairs=0)
    assert cfg.budget == BudgetSettings(gap_amplitude=1.0, phase_samples=1)


def test_trap_block_requires_c4(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_WAVEGUIDE))
    assert cfg.trap is None


# --- CLI commands -----------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    code, out, _ = run_cli(capsys, "mode", cfg, "--out", str(tmp_path))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert 3.145 < float(values["n_eff"]) < 3.155
    assert float(values["mode_area_um2"]) == pytest.approx(9.9, rel=0.20)
    restored = load_field_csv(tmp_path / "mode_field.csv", wavelength_nm=780.0)
    assert restored.power() == pytest.approx(1.0, abs=1e-4)


def test_cli_mode_missing_key(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE.replace("n_core = 3.155\n", ""))
    code, _, err = run_cli(capsys, "mode", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "n_core" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("key, text", [
    pytest.param("ridge_width_um",
                 BASE_WAVEGUIDE.replace("ridge_width_um = 4.0", "ridge_width_um = {bad}"),
                 id="ridge_width_um"),
    pytest.param("window_x_um", BASE_WAVEGUIDE + "\n[grid]\nwindow_x_um = {bad}\n",
                 id="window_x_um"),
])
def test_cli_mode_rejects_non_finite_geometry(tmp_path, capsys, key, text, bad):
    cfg = write_config(tmp_path, text.format(bad=bad))
    code, out, err = run_cli(capsys, "mode", cfg, "--out", str(tmp_path))
    assert code == 2
    assert key in err
    assert out == ""
    assert not (tmp_path / "mode_field.csv").exists()


def fail_singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


# one case per solver stage: the dense factorization reports a singular matrix,
# or the iterative eigensolver does not converge (the reference mode needs 16
# Lanczos steps; a cap of 3 cannot reach it)
@pytest.mark.parametrize("target, name, value, error", [
    pytest.param(np.linalg, "inv", fail_singular,
                 "eigensolve failed: Singular matrix", id="singular"),
    pytest.param(waveguide, "_LANCZOS_STEPS", 3,
                 "eigensolve failed: no convergence in 3 Lanczos steps", id="arpack"),
])
def test_cli_mode_solver_failure_exit_code(tmp_path, capsys, monkeypatch, target, name,
                                           value, error):
    monkeypatch.setattr(target, name, value)
    text = BASE_WAVEGUIDE + "\n[grid]\nnx = 64\nny = 64\n"
    code, out, err = run_cli(capsys, "mode", write_config(tmp_path, text), "--out", str(tmp_path))
    assert code == 4
    assert err == f"error: {error}\n"
    assert out == ""
    assert not (tmp_path / "mode_field.csv").exists()


def run_python(code, *args):
    """`python -c code args` in a fresh interpreter that imports ridgecav from src/."""
    src = pathlib.Path(ridgecav.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return proc.stdout


# the scipy modules loaded, as the last line of stdout
LIST_SCIPY = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no scipy module at all: ridgecav runs on NumPy alone
    assert run_python("import sys, ridgecav.cli; " + LIST_SCIPY).strip() == ""


@pytest.mark.parametrize("command", ["trap", "fit", "mode", "gap-scan", "phase-scan",
                                     "budget", "budget-no-gap"])
def test_only_mode_solving_commands_load_scipy(tmp_path, command):
    # SciPy is a test-only dependency: no command loads it, the ones that solve a mode included
    data = tmp_path / "finesse.csv"
    data.write_text("length_um,finesse\n260,21.7\n650,16.9\n1300,12.3\n")
    small = write_config(tmp_path, BASE_WAVEGUIDE + "\n[grid]\nnx = 64\nny = 64\n")
    out = ["--out", str(tmp_path)]
    argv = {"trap": ["trap", str(REFERENCE_CFG), *out],
            "fit": ["fit", str(data)],
            "mode": ["mode", small, *out],
            "gap-scan": ["gap-scan", small, *out],
            "phase-scan": ["gap-scan", small, "--phase-scan", *out],
            "budget": ["budget", small, *out],
            "budget-no-gap": ["budget", small, "--no-gap", *out]}[command]
    loaded = run_python("import sys; from ridgecav.cli import main; "
                        "assert main(sys.argv[1:]) == 0; " + LIST_SCIPY, *argv)
    assert loaded.splitlines()[-1].split() == []


def test_cli_mode_zero_contrast(tmp_path, capsys):
    text = (
        BASE_WAVEGUIDE.replace("n_core = 3.155", "n_core = 3.0")
        .replace("n_clad = 3.145", "n_clad = 3.0")
        + "n_exterior = 3.0\n\n[grid]\nnx = 64\nny = 64\n"
    )
    code, _, err = run_cli(capsys, "mode", write_config(tmp_path, text), "--out", str(tmp_path))
    assert code == 3
    assert "n_eff" in err or "guided" in err.lower()


def test_cli_gap_scan_finds_half_wave_maxima(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    code, out, _ = run_cli(
        capsys, "gap-scan", cfg, "--d-min", "0.3", "--d-max", "3.0",
        "--steps", "271", "--out", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d_um,R,T,loss"
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert (tmp_path / "gap_scan.csv").read_text().splitlines() == lines
    d, loss = table[:, 0], table[:, 3]
    peaks = [
        i for i in range(1, len(d) - 1)
        if loss[i] >= loss[i - 1] and loss[i] >= loss[i + 1] and loss[i] > 0.004
    ]
    assert len(peaks) == 7
    for i in peaks:
        m = round(d[i] / 0.39)
        # maxima sit at half-wavelength multiples, pushed up slightly
        # (< lambda/25) by the diffraction phase of the mode
        assert m >= 1
        assert abs(d[i] - m * 0.39) <= 0.031


def test_cli_gap_scan_rejects_bad_range(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    code, _, err = run_cli(capsys, "gap-scan", cfg, "--d-min", "2.0", "--d-max", "1.0")
    assert code == 2
    assert "d_min" in err
    code, _, err = run_cli(capsys, "gap-scan", cfg, "--d-max", "inf")
    assert code == 2
    assert "d_min" in err


def test_cli_phase_scan(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    code, out, _ = run_cli(
        capsys, "gap-scan", cfg, "--phase-scan", "--phase-steps", "180",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "phase_rad,r_rt"
    rrt = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert len(rrt) == 180
    assert rrt.max() >= 0.99
    assert rrt.min() < rrt.max()


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_phase_scan_rejects_non_finite_gap_width(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + f"\n[gap]\nd_um = {bad}\n")
    code, out, err = run_cli(capsys, "gap-scan", cfg, "--phase-scan", "--out", str(tmp_path))
    assert code == 2
    assert "d_um" in err
    assert out == ""
    assert not (tmp_path / "phase_scan.csv").exists()


def test_cli_series_not_converged_exit_code(tmp_path, capsys):
    text = BASE_WAVEGUIDE + "\n[gap]\np_max = 3\nseries_tolerance = 1e-10\n"
    code, out, err = run_cli(
        capsys, "gap-scan", write_config(tmp_path, text), "--phase-scan", "--out", str(tmp_path)
    )
    assert code == 4
    assert "p_max=3" in err
    assert out == ""


def test_cli_loose_series_tolerance_is_not_converged(tmp_path, capsys):
    # four terms overshoot R + T = 1 at the narrow widths of the default scan
    text = BASE_WAVEGUIDE + "\n[gap]\nseries_tolerance = 0.01\n"
    code, out, err = run_cli(
        capsys, "gap-scan", write_config(tmp_path, text), "--out", str(tmp_path)
    )
    assert code == 4
    assert "series_tolerance" in err
    assert out == ""
    assert not (tmp_path / "gap_scan.csv").exists()


def test_cli_phase_scan_rejects_zero_phase_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    code, out, err = run_cli(
        capsys, "gap-scan", cfg, "--phase-scan", "--phase-steps", "0", "--out", str(tmp_path)
    )
    assert code == 2
    assert err == "error: --phase-steps must be >= 1, got 0\n"
    assert out == ""
    assert not (tmp_path / "phase_scan.csv").exists()


@pytest.mark.parametrize("block, key, value", [
    ("mirror", "pairs", "-1"),
    ("budget", "phase_samples", "0"),
    ("budget", "enhancement", "0.5"),
    ("gap", "n_interface", "0.5"),
])
def test_cli_budget_rejects_out_of_range_setting(tmp_path, capsys, block, key, value):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + f"\n[{block}]\n{key} = {value}\n")
    code, out, err = run_cli(capsys, "budget", cfg, "--out", str(tmp_path))
    assert code == 2
    assert re.fullmatch(rf"error: \[{block}\] {key} must be >= \d+, got {value}\n", err)
    assert out == ""


def test_cli_csv_respects_umask(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    old = os.umask(0o022)
    try:
        code, _, _ = run_cli(capsys, "gap-scan", cfg, "--steps", "2", "--out", str(tmp_path))
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "gap_scan.csv").stat().st_mode & 0o777 == 0o644


def test_cli_fit_recovers_reference_parameters(tmp_path, capsys):
    lengths = (260.0, 650.0, 1300.0)
    big_r, alpha = 0.89, 1.07
    rows = ["length_um,finesse"]
    for l in lengths:
        g = big_r * np.exp(-alpha * l * 1e-4)
        rows.append(f"{l},{np.pi * np.sqrt(g) / (1 - g):.6f}")
    data = tmp_path / "finesse.csv"
    data.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "fit", str(data))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert float(values["alpha_fit_per_cm"]) == pytest.approx(1.07, abs=1e-2)
    assert float(values["R_fit"]) == pytest.approx(0.89, abs=1e-2)


def test_cli_fit_two_rows(tmp_path, capsys):
    data = tmp_path / "finesse.csv"
    data.write_text("length_um,finesse\n260,21.7\n650,16.9\n")
    code, _, err = run_cli(capsys, "fit", str(data))
    assert code == 2
    assert "3" in err  # names the minimum point count


@pytest.mark.parametrize("text", [
    "length_um,finesse\n260,21.7\n650,16.9\ninf,16.9\n",
    "length_um,finesse\n260,21.7\n650,nan\n1300,12.3\n",
    "length_um,finesse,sigma\n260,21.7,0.5\n650,16.9,inf\n1300,12.3,0.5\n",
], ids=["inf-length", "nan-finesse", "inf-sigma"])
def test_cli_fit_rejects_non_finite(tmp_path, capsys, text):
    data = tmp_path / "finesse.csv"
    data.write_text(text)
    code, out, err = run_cli(capsys, "fit", str(data))
    assert code == 2
    assert "finite" in err
    assert out == ""


def test_cli_fit_bad_cell(tmp_path, capsys):
    data = tmp_path / "finesse.csv"
    data.write_text("length_um,finesse\n260,21.7\n650,oops\n1300,12.3\n")
    code, _, err = run_cli(capsys, "fit", str(data))
    assert code == 2
    assert "row 3" in err and "finesse" in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read data: [Errno 2] No such file or directory"),
    ("", "data CSV is empty"),
    ("length_um,Q\n260,21.7\n", "expected header 'length_um,finesse' or "
                                 "'length_um,finesse,sigma', got 'length_um,Q'"),
    ("length_um,finesse\n260,21.7\n650,16.9,0.5\n", "row 3: expected 2 columns, got 3"),
    # blank rows are skipped, and row numbers still count them
    ("length_um,finesse\n\n260,21.7\n , \n650,oops\n",
     "row 5, column 2 ('finesse'): 'oops' is not a number"),
], ids=["unreadable", "empty", "header", "column-count", "blank-rows"])
def test_cli_fit_rejects_unreadable_data(tmp_path, capsys, text, message):
    data = tmp_path / "finesse.csv"
    if text is not None:
        data.write_text(text)
    code, out, err = run_cli(capsys, "fit", str(data))
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert out == ""


def test_cli_fit_that_does_not_converge_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cavity, "_MAX_STEPS", 1)
    data = tmp_path / "finesse.csv"
    data.write_text("length_um,finesse\n260,21.7\n650,16.9\n1300,12.3\n")
    code, out, err = run_cli(capsys, "fit", str(data))
    assert code == 5
    assert err == "error: loss fit did not converge: step limit 1 reached\n"
    assert out == ""


BUDGET_BLOCK = """
[budget]
mode_area_um2 = 9.9
gap_amplitude = 0.93
"""


def test_cli_budget_reference_numbers(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + BUDGET_BLOCK)
    code, out, _ = run_cli(capsys, "budget", cfg, "--out", str(tmp_path))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert float(values["C"]) == pytest.approx(1.0, abs=0.2)
    assert float(values["g_MHz"]) == pytest.approx(120.0, rel=0.10)
    assert float(values["kappa_total_GHz"]) == pytest.approx(4.8, abs=0.3)
    assert float(values["mirror_R_3pair_percent"]) == pytest.approx(91.3, abs=1.5)
    assert float(values["mirror_R_6pair_percent"]) == pytest.approx(99.4, abs=0.3)


@pytest.mark.parametrize("pinned, no_gap, solves, scans", [
    ("", False, 1, 1),
    ("", True, 1, 0),
    ("gap_amplitude = 0.93\n", False, 1, 0),
    ("gap_amplitude = 0.93\n", True, 1, 0),
    ("mode_area_um2 = 9.9\n", False, 1, 1),
    ("mode_area_um2 = 9.9\n", True, 0, 0),
    ("mode_area_um2 = 9.9\ngap_amplitude = 0.93\n", False, 0, 0),
    ("mode_area_um2 = 9.9\ngap_amplitude = 0.93\n", True, 0, 0),
])
def test_cli_budget_solves_and_scans_only_what_is_not_pinned(tmp_path, capsys, monkeypatch,
                                                             pinned, no_gap, solves, scans):
    # the mode is solved for an unpinned area or an unpinned gap amplitude,
    # and the phase scan runs only for the gap amplitude; --no-gap drops it
    calls = {"solve": 0, "scan": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "solve_fundamental_mode", counted("solve", cli.solve_fundamental_mode))
    monkeypatch.setattr(cli, "round_trip_phase_scan", counted("scan", cli.round_trip_phase_scan))
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + SMALL_GRID + "\n[budget]\n" + pinned)
    code, out, _ = run_cli(capsys, "budget", cfg, *(["--no-gap"] if no_gap else []))
    assert code == 0
    assert calls == {"solve": solves, "scan": scans}
    values = dict(line.split("=", 1) for line in out.splitlines())
    if "mode_area_um2" in pinned:
        assert values["mode_area_um2"] == "9.9"
    assert ("gap_round_trip_amplitude" in values) == (not no_gap)
    if "gap_amplitude" in pinned and not no_gap:
        assert values["gap_round_trip_amplitude"] == "0.93"


def test_cli_budget_no_gap_intrinsic_finesse(tmp_path, capsys):
    text = BASE_WAVEGUIDE + BUDGET_BLOCK + "\n[cavity]\nlength_um = 330.0\n"
    cfg = write_config(tmp_path, text)
    code, out, _ = run_cli(capsys, "budget", cfg, "--no-gap", "--out", str(tmp_path))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert float(values["finesse"]) == pytest.approx(92.0, abs=1.0)
    assert "gap_round_trip_amplitude" not in values


@pytest.mark.parametrize("block, quantity", [
    ("\n[atom]\ndipole_Cm = 1e190\n", "cooperativity"),  # g_hz**2 overflows
    ("\n[cavity]\nlength_um = 1e-320\n", "fsr_ghz"),  # 2 n_g L underflows to 0 m
    ("\n[atom]\ngamma_half_MHz = 1e-320\n", "cooperativity"),  # printed C=inf, exit 0
    ("\n[atom]\ntransition_wavelength_nm = 1e-320\n", "g_over_2pi_MHz"),  # omega = x / 0
], ids=["overflow", "zero-division", "gamma-underflow", "wavelength-underflow"])
def test_cli_budget_extreme_value_is_a_validation_error(tmp_path, capsys, block, quantity):
    # finite values in their domains that push a result out of float range:
    # the error names that result instead of printing errno text
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + BUDGET_BLOCK + block)
    code, out, err = run_cli(capsys, "budget", cfg, "--no-gap", "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: {quantity} must be finite, got inf\n"
    assert out == ""


@pytest.mark.parametrize("key", ["mirror_R_left", "mirror_R_right"])
def test_cli_budget_rejects_zero_reflectivity_mirror(tmp_path, capsys, key):
    # a facet with R = 0 gives no finesse: load names the mirror instead of
    # the budget failing on the round-trip factor it zeroes
    text = REFERENCE_CFG.read_text().replace(f"{key} = 1.0", f"{key} = 0.0")
    cfg = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, "budget", cfg, "--no-gap", "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: [cavity] {key} must be > 0, got 0.0\n"
    assert out == ""


def test_cli_budget_prints_nothing_when_a_mirror_stack_fails(tmp_path, capsys):
    # the 0-pair stack is fine, the 3-pair one is not (its high-index layer
    # thickness underflows to 0): no mirror line may be printed before the error
    block = "\n[mirror]\npairs = 0\nn_high = 1e308\n"
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + BUDGET_BLOCK + block)
    code, out, err = run_cli(capsys, "budget", cfg, "--no-gap", "--out", str(tmp_path))
    assert code == 2
    assert err == "error: layer thickness_nm must be > 0, got 0.0\n"
    assert out == ""


@pytest.mark.parametrize("line, extreme, alpha, length", [
    ("length_um = 300.0", "length_um = 1e300", "1.03", "1e+300"),
    ("alpha_per_cm = 1.03", "alpha_per_cm = 1e305", "1e+305", "300"),
], ids=["long", "lossy"])
def test_cli_budget_propagation_underflow_names_its_keys(tmp_path, capsys, line, extreme,
                                                         alpha, length):
    # exp(-alpha l) underflows to 0: the error names the two keys behind it
    cfg = write_config(tmp_path, REFERENCE_CFG.read_text().replace(line, extreme))
    code, out, err = run_cli(capsys, "budget", cfg, "--no-gap", "--out", str(tmp_path))
    assert code == 2
    assert err == (f"error: exp(-alpha l) underflows to 0 at alpha_per_cm = {alpha}, "
                   f"length_um = {length}\n")
    assert out == ""


def test_cli_budget_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + BUDGET_BLOCK)
    _, out1, _ = run_cli(capsys, "budget", cfg, "--out", str(tmp_path))
    _, out2, _ = run_cli(capsys, "budget", cfg, "--out", str(tmp_path))
    assert out1 == out2


TRAP_BLOCK = """
[trap]
c4_J_m4 = 1.2e-55
gap_width_um = 2.0
"""


def test_cli_trap(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + TRAP_BLOCK)
    code, out, _ = run_cli(capsys, "trap", cfg, "--out", str(tmp_path))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert values["has_minimum"] == "true"
    assert float(values["barrier_uK"]) > 0.0
    profile = (tmp_path / "trap_profile.csv").read_text().splitlines()
    assert profile[0] == "z_um,U_J,U_uK"
    assert len(profile) == 202  # header + default z_samples


def test_cli_trap_missing_c4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE)
    code, _, err = run_cli(capsys, "trap", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "c4" in err


@pytest.mark.parametrize("below", ["x", ""], ids=["under-file", "is-file"])
def test_cli_unwritable_out_is_a_validation_error(tmp_path, capsys, below):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + TRAP_BLOCK)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out_dir = os.path.join(blocker, below) if below else str(blocker)
    code, out, err = run_cli(capsys, "trap", cfg, "--out", out_dir)
    assert code == 2
    assert str(blocker) in err
    assert out == ""
    assert not list(tmp_path.rglob("*.tmp"))


def test_cli_mode_rejects_bad_trap_block(tmp_path, capsys):
    # a [trap] block that gives c4 is validated at load, whatever the command
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + TRAP_BLOCK + "z_samples = 50\n")
    code, out, err = run_cli(capsys, "mode", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "z_samples" in err
    assert out == ""
    assert not (tmp_path / "mode_field.csv").exists()


def test_cli_trap_narrow_gap(tmp_path, capsys):
    text = BASE_WAVEGUIDE + TRAP_BLOCK.replace("gap_width_um = 2.0", "gap_width_um = 0.2")
    cfg = write_config(tmp_path, text)
    code, out, _ = run_cli(capsys, "trap", cfg, "--out", str(tmp_path))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert values["has_minimum"] == "false"


def test_cli_trap_reruns_identical_files(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_WAVEGUIDE + TRAP_BLOCK)
    run_cli(capsys, "trap", cfg, "--out", str(tmp_path))
    first = (tmp_path / "trap_profile.csv").read_bytes()
    run_cli(capsys, "trap", cfg, "--out", str(tmp_path))
    assert (tmp_path / "trap_profile.csv").read_bytes() == first


SMALL_GRID = "\n[grid]\nnx = 64\nny = 64\n"
TINY_SIGMA_CSV = "length_um,finesse,sigma\n260,21.7,1e-320\n650,16.9,1e-320\n1300,12.3,1e-320\n"


@pytest.mark.parametrize("text, argv, named", [
    pytest.param(BASE_WAVEGUIDE + SMALL_GRID + "\n[gap]\nd_um = 1.7e308\n",
                 ["gap-scan", "--phase-scan"], "k0 d at gap width 1.7e+308 um",
                 id="phase-scan-wide-gap"),
    pytest.param(BASE_WAVEGUIDE + SMALL_GRID,
                 ["gap-scan", "--d-min", "0", "--d-max", "1.7e308", "--steps", "3"],
                 "k0 d at gap width 1.7e+308 um", id="gap-scan-wide-range"),
    pytest.param(BASE_WAVEGUIDE + TRAP_BLOCK.replace("gap_width_um = 2.0", "gap_width_um = 1e-300"),
                 ["trap"], "gap_width_um = 1e-300", id="trap-narrow-gap"),
    pytest.param(BASE_WAVEGUIDE + TRAP_BLOCK.replace("gap_width_um = 2.0", "gap_width_um = 1e300"),
                 ["trap"], "gap_width_um = 1e+300", id="trap-wide-gap"),
    pytest.param(BASE_WAVEGUIDE + TRAP_BLOCK + "atom_mass_kg = 1.7e308\n",
                 ["trap"], "atom_mass_kg = 1.7e+308", id="trap-heavy-atom"),
    pytest.param(BASE_WAVEGUIDE.replace("n_core = 3.155", "n_core = 1.7e308") + BUDGET_BLOCK,
                 ["budget"], "mirror stack reflectivity", id="budget-huge-index"),
    pytest.param(BASE_WAVEGUIDE.replace("wavelength_nm = 780.0", "wavelength_nm = 1.7e308")
                 + BUDGET_BLOCK, ["budget"], "mirror stack reflectivity",
                 id="budget-huge-wavelength"),
    pytest.param(TINY_SIGMA_CSV, ["fit"], "sum of squared residuals",
                 id="fit-tiny-sigma"),
])
def test_cli_result_out_of_float_range_is_one_error_line(tmp_path, capsys, text, argv, named):
    # a finite input that drives a result to NaN or inf exits 2 with one
    # error line naming it: no numpy warning ahead of it, no NaN written
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [argv[0], cfg, *argv[1:]]
    if argv[0] != "fit":
        argv += ["--out", str(out_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert named in err
    written = out + "".join(p.read_text() for p in out_dir.glob("*.csv"))
    assert not re.search(r"nan|inf", written, flags=re.I)


# 10^15 float64 samples are 7.11 PiB, beyond the address space: NumPy refuses
# them before allocating anything
HUGE = "1000000000000000"


@pytest.mark.parametrize("text, argv, named", [
    pytest.param(BASE_WAVEGUIDE + SMALL_GRID, ["gap-scan", "--steps", HUGE], "--steps",
                 id="gap-scan"),
    pytest.param(BASE_WAVEGUIDE + SMALL_GRID, ["gap-scan", "--phase-scan", "--phase-steps", HUGE],
                 "--phase-steps", id="phase-scan"),
    pytest.param(BASE_WAVEGUIDE + TRAP_BLOCK + f"z_samples = {HUGE}\n", ["trap"],
                 "[trap] z_samples", id="trap"),
])
def test_cli_array_too_large_to_allocate_is_one_error_line(tmp_path, capsys, text, argv, named):
    # the error names the setting that sized the array, then NumPy's reason
    cfg = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, argv[0], cfg, *argv[1:], "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {named} = {HUGE} is too large: Unable to allocate")
    assert err.count("\n") == 1
    assert out == ""
    assert not list(tmp_path.glob("*.csv"))


def test_cli_mode_rejects_a_wavelength_that_rounds_away_the_stencil(tmp_path, capsys):
    # at 1e-5 nm the shift k0^2 n_core^2 = 3.9e18 per um^2 has an ulp far
    # above the 64^2 grid's 1/dx^2 = 7.1 per um^2: the solve would print a
    # mode of rounding noise and exit 0
    text = BASE_WAVEGUIDE.replace("wavelength_nm = 780.0", "wavelength_nm = 1e-5") + SMALL_GRID
    cfg = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, "mode", cfg, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: wavelength_nm = 1e-05 is too short for this grid")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert out == ""
    assert not (tmp_path / "mode_field.csv").exists()


@pytest.mark.parametrize("trap_block, named", [
    (TRAP_BLOCK + "atom_mass_kg = 1e290\n", "barrier_height_uK"),  # a barrier of 1.6e287 J
    (TRAP_BLOCK.replace("1.2e-55", "1e256"), "trap potential in uK"),  # U near -1e288 J
], ids=["heavy-atom", "strong-wall"])
def test_cli_trap_profile_out_of_float_range_in_uk_writes_nothing(tmp_path, capsys, trap_block,
                                                                   named):
    # U stays finite but overflows in uK: the run fails naming the figure
    # before the profile CSV is written (it exited 0 with inf in the CSV)
    text = BASE_WAVEGUIDE + trap_block
    code, out, err = run_cli(capsys, "trap", write_config(tmp_path, text), "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: {named} must be finite, got inf\n"
    assert out == ""
    assert not (tmp_path / "trap_profile.csv").exists()


def test_cli_mode_without_a_propagating_solution_exits_3(tmp_path, capsys):
    text = BASE_WAVEGUIDE.replace("wavelength_nm = 780.0", "wavelength_nm = 1e5")
    code, out, err = run_cli(capsys, "mode", write_config(tmp_path, text), "--out", str(tmp_path))
    assert code == 3
    assert err == "error: no propagating solution found\n"
    assert out == ""
    assert not (tmp_path / "mode_field.csv").exists()


FUZZ_ARGV = (["mode"], ["gap-scan"], ["gap-scan", "--phase-scan"], ["trap"], ["budget"],
             ["budget", "--no-gap"])
EXTREMES = ("0", "-1", "5e-324", "1e-300", "1e-9", "1e-3", "0.5", "2", "1e3", "1e9", "1e300",
            "1.7e308")


@given(
    argv=st.sampled_from(FUZZ_ARGV),
    overrides=st.lists(
        st.tuples(st.sampled_from([(block, key) for block, keys in FLOAT_KEYS.items()
                                   for key in keys]),
                  st.sampled_from(EXTREMES)),
        min_size=1, max_size=3, unique_by=lambda item: item[0]),
)
def test_cli_extreme_settings_exit_cleanly(argv, overrides):
    # one to three keys at extreme values, on a 32^2 grid: every run ends in a
    # documented exit code with no traceback, and a run that exits 0 writes no
    # NaN or inf, except the infinite finesse and C of a divergent budget
    blocks = {"waveguide": BASE_WAVEGUIDE.split("\n", 1)[1], "grid": "nx = 32\nny = 32\n",
              "trap": TRAP_BLOCK.split("\n", 2)[2]}
    for (block, key), value in overrides:
        lines = re.sub(rf"^{key} = .*\n", "", blocks.get(block, ""), flags=re.M)
        blocks[block] = lines + f"{key} = {value}\n"
    text = "".join(f"[{block}]\n{lines}\n" for block, lines in blocks.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(pathlib.Path(tmp), text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], cfg, *argv[1:], "--out", tmp])
        written = out.getvalue() + "".join(p.read_text() for p in pathlib.Path(tmp).glob("*.csv"))
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        divergent = argv[0] == "budget" and "divergent=true" in written
        assert not re.search(r"nan" if divergent else r"nan|inf", written, flags=re.I)


def test_shipped_reference_config_loads():
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    cfg = load_config(path)
    assert cfg.geometry.ridge_width_um == 4.0
    assert cfg.gap.d_um == 1.96
    assert cfg.trap.gap_width_um == 2.0
    # the file shows every key, commented-out ones included
    shown = set(re.findall(r"^#? *(\w+) =", path.read_text(), flags=re.M))
    keys = {f.name for cls in config._BLOCKS.values() for f in dataclasses.fields(cls)}
    missing = keys - set(config._COMPUTED) - shown
    assert not missing


def test_cli_budget_full_pipeline_computes_gap_amplitude(tmp_path, capsys):
    # no overrides: the budget solves the mode and takes the constructive
    # (lowest) round-trip amplitude from its own phase scan
    text = BASE_WAVEGUIDE + "\n[budget]\nphase_samples = 180\n"
    cfg = write_config(tmp_path, text)
    code, out, _ = run_cli(capsys, "budget", cfg, "--out", str(tmp_path))
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    amp = float(values["gap_round_trip_amplitude"])
    assert 0.85 < amp < 0.95
    assert float(values["mode_area_um2"]) == pytest.approx(9.9, rel=0.20)
    assert 0.3 < float(values["C"]) < 1.3


REPO = pathlib.Path(__file__).resolve().parents[1]
REFERENCE_CFG = REPO / "configs" / "reference.cfg"


@pytest.mark.parametrize("argv, stdout_name, csv_name", [
    (["gap-scan"], "cmd_gap_scan.stdout", "gap_scan.csv"),
    (["gap-scan", "--phase-scan"], "cmd_phase_scan.stdout", "phase_scan.csv"),
    (["budget"], "cmd_budget.stdout", None),
    (["budget", "--no-gap"], "cmd_budget_nogap.stdout", None),
    (["trap"], "cmd_trap.stdout", "trap_profile.csv"),
], ids=["gap-scan", "phase-scan", "budget", "budget-no-gap", "trap"])
def test_cli_reference_artifacts_are_byte_identical(tmp_path, capsys, argv, stdout_name,
                                                    csv_name):
    # perfbench/reference holds each command's stdout and CSV on reference.cfg;
    # lines naming an output path differ by directory and are skipped
    reference = REPO / "perfbench" / "reference"
    code, out, _ = run_cli(capsys, argv[0], str(REFERENCE_CFG), *argv[1:], "--out",
                           str(tmp_path))
    assert code == 0

    def content(text):
        return [line for line in text.splitlines(keepends=True) if "_csv=" not in line]

    assert content(out) == content((reference / stdout_name).read_bytes().decode())
    if csv_name:
        assert (tmp_path / csv_name).read_bytes() == (reference / csv_name).read_bytes()
