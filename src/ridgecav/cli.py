"""Batch front end: mode solve, gap scans, loss fit, budget and trap reports.

Reports go to stdout as `key=value` lines and tables to CSV files under
--out; README, "Command line", gives the exit codes and the file format.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from .cavity import fit_losses, quarter_wave_stack, stack_reflectivity
from .config import load_config
from .constants import KB_J_PER_K
from .cqed import full_budget
from .errors import (
    ConfigError,
    EigensolveFailed,
    FitDiverged,
    NoGuidedMode,
    RidgecavError,
    SeriesNotConverged,
    check_value,
)
from .fields import _fmt, _write_lines, save_field_csv
from .gap import _check_scan, loss_spectrum, round_trip_phase_scan
from .trap import potential_profile, trap_analysis
from .waveguide import solve_fundamental_mode

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_MODE = 3
EXIT_CONVERGENCE = 4
EXIT_FIT = 5

# first match wins, so the specific errors come before the catch-all, which main catches
_EXIT_CODES = (
    (NoGuidedMode, EXIT_NO_MODE),
    ((SeriesNotConverged, EigensolveFailed), EXIT_CONVERGENCE),
    (FitDiverged, EXIT_FIT),
    ((RidgecavError, ValueError, OSError, ArithmeticError, MemoryError), EXIT_VALIDATION),
)


@contextlib.contextmanager
def _sized_by(name, value):
    """Blame an array too large to allocate on the setting that sized it."""
    try:
        yield
    except MemoryError as exc:
        raise ValueError(f"{name} = {value} is too large: {exc}") from None


def cmd_mode(args) -> int:
    cfg = load_config(args.config)
    mode = solve_fundamental_mode(cfg.geometry, cfg.grid)
    out_csv = os.path.join(args.out, "mode_field.csv")
    save_field_csv(mode.field, out_csv)
    print(f"n_eff={_fmt(mode.n_eff)}")
    print(f"mode_area_um2={_fmt(mode.mode_area_um2)}")
    print(f"field_csv={out_csv}")
    return EXIT_OK


def cmd_gap_scan(args) -> int:
    cfg = load_config(args.config)
    # validate the scan range before paying for the mode solve
    if args.phase_scan:
        check_value("--phase-steps", args.phase_steps, ge=1)
    else:
        _check_scan(args.d_min, args.d_max, args.steps)
    mode = solve_fundamental_mode(cfg.geometry, cfg.grid)
    if args.phase_scan:
        with _sized_by("--phase-steps", args.phase_steps):
            phases, rrt = round_trip_phase_scan(mode, cfg.gap, n_phases=args.phase_steps)
        lines = ["phase_rad,r_rt"]
        lines += [f"{_fmt(p)},{_fmt(v)}" for p, v in zip(phases, rrt)]
        out_csv = os.path.join(args.out, "phase_scan.csv")
    else:
        with _sized_by("--steps", args.steps):
            rows = loss_spectrum(mode, args.d_min, args.d_max, args.steps, base_cfg=cfg.gap)
        lines = ["d_um,R,T,loss"]
        lines += [f"{_fmt(d)},{_fmt(r)},{_fmt(t)},{_fmt(l)}" for d, r, t, l in rows]
        out_csv = os.path.join(args.out, "gap_scan.csv")
    _write_lines(out_csv, lines)
    for line in lines:
        print(line)
    return EXIT_OK


def _read_finesse_csv(path):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read data: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("data CSV is empty") from None
        header = [h.strip() for h in header]
        if header[:2] != ["length_um", "finesse"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "sigma"
        ):
            raise ConfigError(
                "expected header 'length_um,finesse' or 'length_um,finesse,sigma', "
                f"got '{','.join(header)}'"
            )
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ConfigError(f"row {i}: expected {len(header)} columns, got {len(row)}")
            vals = []
            for j, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ConfigError(
                        f"row {i}, column {j + 1} ('{header[j]}'): "
                        f"'{cell.strip()}' is not a number"
                    ) from None
            rows.append(tuple(vals))
    return rows


def cmd_fit(args) -> int:
    rows = _read_finesse_csv(args.data)
    result = fit_losses(rows)
    print(f"R_fit={_fmt(result.R_fit)}")
    print(f"alpha_fit_per_cm={_fmt(result.alpha_fit_per_cm)}")
    print(f"sigma_R={_fmt(result.sigma_R)}")
    print(f"sigma_alpha={_fmt(result.sigma_alpha)}")
    print(f"residual_norm={_fmt(result.residual_norm)}")
    print(f"rank_deficient={'true' if result.rank_deficient else 'false'}")
    return EXIT_OK


def cmd_budget(args) -> int:
    cfg = load_config(args.config)
    budget_cfg = cfg.budget
    gap_amp = None if args.no_gap else budget_cfg.gap_amplitude
    scan_gap = not args.no_gap and gap_amp is None
    area = budget_cfg.mode_area_um2
    if area is None or scan_gap:
        mode = solve_fundamental_mode(cfg.geometry, cfg.grid)
        area = mode.mode_area_um2 if area is None else area
        if scan_gap:
            _, rrt = round_trip_phase_scan(mode, cfg.gap, n_phases=budget_cfg.phase_samples)
            gap_amp = float(rrt.min())  # constructive in-gap interference
    budget = full_budget(area, cfg.cavity, gap_amp, cfg.atom, budget_cfg.enhancement)

    mirrors = []
    for pairs in sorted({3, 6, cfg.mirror.pairs}):
        stack = quarter_wave_stack(
            pairs,
            n_high=cfg.mirror.n_high,
            n_low=cfg.mirror.n_low,
            n_incident=cfg.geometry.n_core,
            n_exit=1.0,
            wavelength_nm=cfg.geometry.wavelength_nm,
        )
        mirrors.append((pairs, stack_reflectivity(stack, cfg.geometry.wavelength_nm)))
    for pairs, refl in mirrors:  # all computed first, so a failure prints nothing
        print(f"mirror_R_{pairs}pair_percent={_fmt(100.0 * refl)}")
    print(f"mode_area_um2={_fmt(area)}")
    if gap_amp is not None:
        print(f"gap_round_trip_amplitude={_fmt(gap_amp)}")
    print(f"finesse={_fmt(budget.finesse)}")
    print(f"fsr_GHz={_fmt(budget.fsr_GHz)}")
    print(f"kappa_intr_GHz={_fmt(budget.kappa_intr_over_2pi_GHz)}")
    print(f"kappa_T_GHz={_fmt(budget.kappa_T_over_2pi_GHz)}")
    print(f"g_MHz={_fmt(budget.g_over_2pi_MHz)}")
    print(f"kappa_total_GHz={_fmt(budget.kappa_total_over_2pi_GHz)}")
    print(f"C={_fmt(budget.cooperativity)}")
    print(f"enhancement={_fmt(budget.enhancement)}")
    print(f"divergent={'true' if budget.divergent else 'false'}")
    return EXIT_OK


def cmd_trap(args) -> int:
    cfg = load_config(args.config)
    trap_cfg = cfg.trap
    if trap_cfg is None:
        raise ConfigError("trap.c4_J_m4 is required for trap calculations")
    with _sized_by("[trap] z_samples", trap_cfg.z_samples):
        z_um, u_J = potential_profile(trap_cfg)
    # both checked before the CSV, so a profile out of float range writes no file
    result = trap_analysis(z_um, u_J)
    u_uK = u_J / KB_J_PER_K * 1e6
    check_value("trap potential in uK", float(np.abs(u_uK).max()))
    lines = ["z_um,U_J,U_uK"]
    lines += [f"{_fmt(z)},{_fmt(u)},{_fmt(uk)}" for z, u, uk in zip(z_um, u_J, u_uK)]
    out_csv = os.path.join(args.out, "trap_profile.csv")
    _write_lines(out_csv, lines)
    print(f"profile_csv={out_csv}")
    print(f"has_minimum={'true' if result['has_minimum'] else 'false'}")
    print(f"barrier_uK={_fmt(result['barrier_height_uK'])}")
    print(f"barrier_J={_fmt(result['barrier_height_J'])}")
    if result["has_minimum"]:
        print(f"min_position_um={_fmt(result['min_position_um'])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgecav",
        description="Gapped ridge-waveguide Fabry-Perot cavity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mode = sub.add_parser("mode", help="solve the fundamental mode")
    p_mode.add_argument("config")
    p_mode.add_argument("--out", default=".", help="output directory for artifacts")
    p_mode.set_defaults(func=cmd_mode)

    p_gap = sub.add_parser("gap-scan", help="loss vs gap width, or a phase scan")
    p_gap.add_argument("config")
    p_gap.add_argument("--d-min", type=float, default=0.3)
    p_gap.add_argument("--d-max", type=float, default=3.0)
    p_gap.add_argument("--steps", type=int, default=271)
    p_gap.add_argument(
        "--phase-scan",
        action="store_true",
        help="scan the arm phase at the configured gap width instead",
    )
    p_gap.add_argument("--phase-steps", type=int, default=360)
    p_gap.add_argument("--out", default=".")
    p_gap.set_defaults(func=cmd_gap_scan)

    p_fit = sub.add_parser("fit", help="fit (R, alpha) to finesse-vs-length data")
    p_fit.add_argument("data", help="CSV with header length_um,finesse[,sigma]")
    p_fit.set_defaults(func=cmd_fit)

    p_budget = sub.add_parser("budget", help="atom-cavity budget report")
    p_budget.add_argument("config")
    p_budget.add_argument(
        "--no-gap", action="store_true", help="intrinsic budget without the gap"
    )
    p_budget.add_argument("--out", default=".")
    p_budget.set_defaults(func=cmd_budget)

    p_trap = sub.add_parser("trap", help="trap potential profile and analysis")
    p_trap.add_argument("config")
    p_trap.add_argument("--out", default=".")
    p_trap.set_defaults(func=cmd_trap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a result out of float range fails with its own error: numpy's
        # warnings would only print ahead of it
        with np.errstate(all="ignore"):
            return args.func(args)
    except _EXIT_CODES[-1][0] as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
