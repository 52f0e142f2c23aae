"""The benchmark's three workloads: seeded inputs, set-up, timed passes, checks.

A pass is a fixed amount of work drawn from the seed; a run repeats passes
until its time is up.  The program only ever sees the generated inputs.
Tolerances come from the test suite, so a check fails exactly where a test
would.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from types import SimpleNamespace
from pathlib import Path
from time import perf_counter

import numpy as np

import ridgecav
import spans
from ridgecav import config as rc_config
from ridgecav import fields as rc_fields

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
CONFIG = "configs/reference.cfg"        # relative to ROOT, as users pass it
OUT = ".bench_out"                       # everything a run writes lives here

SERIES_VS_BOUNCE_TOL = 1e-4   # C5: series vs explicit bounce simulation
GRID_DOUBLING_TOL = 1e-4      # test_grid_doubling_convergence: n_eff 256^2 vs 512^2
FIT_TOL = 1e-3                # C2: |dR| and |dalpha| of a noiseless fit
ENERGY_TOL = 1e-12            # C10: |R + T + loss - 1|
PRINTED_REL_TOL = 1e-4        # stdout/CSV numbers against the seed commit's
PRINTED_ABS_TOL = 1e-9        # for values that round to about zero
PRINTED_ENERGY_TOL = 2e-6     # |R + T + loss - 1| after rounding to 6 digits
BOUNCES = 48                  # r^96 ~ 1e-27: the bounce model is converged


class Tally:
    """Operations attempted and failed; a failure is an exception or a check out of tolerance."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, label, work, check=None):
        """Time work(); check(result) runs after the clock stops and returns problems.

        Returns (seconds, result); result is None when work() raised.
        """
        self.attempted += 1
        t0 = perf_counter()
        end = None
        try:
            result = work()
            end = perf_counter()
            problems = check(result) if check else []
        except Exception:  # counted as a failed operation; the run goes on
            end = end or perf_counter()
            result = None
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return end - t0, result


def gap_problems(res) -> list:
    problems = []
    if res.R < 0 or res.T < 0:
        problems.append(f"negative R={res.R} or T={res.T}")
    if abs(res.R + res.T + res.loss - 1.0) > ENERGY_TOL:
        problems.append(f"|R+T+loss-1| = {abs(res.R + res.T + res.loss - 1.0):.2e}")
    return problems


def bounce_problems(semi, brute) -> list:
    dr, dt = abs(semi.R - brute.R), abs(semi.T - brute.T)
    if dr > SERIES_VS_BOUNCE_TOL or dt > SERIES_VS_BOUNCE_TOL:
        return [f"series vs bounce model |dR|={dr:.2e} |dT|={dt:.2e}"]
    return []


def neff_problems(geometry, n_eff) -> list:
    if not geometry.n_clad < n_eff < geometry.n_core:
        return [f"n_eff={n_eff} outside ({geometry.n_clad}, {geometry.n_core})"]
    return []


def load_reference_config():
    return rc_config.load_config(ROOT / CONFIG)


class Workload:
    """Set-up, one pass of seeded work and the checks that need a finished run.

    Subclasses fill `op_ms` (one entry per operation), `report`
    (workload-specific figures), `dumps` (span dumps of traced child
    processes) and `identical` (artifact -> byte-identical to the seed
    commit's) as they run.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self.op_ms = []
        self.report = {}
        self.dumps = []
        self.identical = {}

    def setup(self) -> None:
        raise NotImplementedError

    def make_pass(self, index: int):
        raise NotImplementedError

    def run_pass(self, inputs, traced: bool) -> None:
        raise NotImplementedError

    def after_first_pass(self) -> None:
        """Work done once per run, after the first pass."""

    def finish(self) -> None:
        """Checks that need the finished run; not timed and not traced."""

    def import_s(self) -> float:
        return fresh_import_s()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import_s() -> float:
    """Wall time of `import ridgecav.cli` in a fresh interpreter, untraced."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import ridgecav.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=60)
    return perf_counter() - t0


class GeometrySweep(Workload):
    """Seeded ridge geometries solved at 256^2, each checked against the bounce model."""

    name = "geometry_sweep"
    PER_PASS = 4
    WIDTH_UM = (3.0, 5.0)          # around the reference 4 um ridge
    WAVELENGTH_NM = (760.0, 800.0)  # around the reference 780 nm

    def setup(self):
        self.cfg = load_reference_config()
        # warm-up: the first eigensolve of a process is about 40% slower
        self.tally.op("warm-up", lambda: self._candidate(self.cfg.geometry), self._check)
        self.first = None

    def make_pass(self, index):
        rng = np.random.default_rng([self.seed, index])
        return [
            replace(self.cfg.geometry, ridge_width_um=float(rng.uniform(*self.WIDTH_UM)),
                    wavelength_nm=float(rng.uniform(*self.WAVELENGTH_NM)))
            for _ in range(self.PER_PASS)
        ]

    def _candidate(self, geometry):
        mode = ridgecav.solve_fundamental_mode(geometry, self.cfg.grid)
        semi = ridgecav.gap_scattering(mode, self.cfg.gap)
        brute = ridgecav.brute_force_gap_scattering(mode, self.cfg.gap, n_bounces=BOUNCES)
        return geometry, mode, semi, brute

    @staticmethod
    def _check(result):
        geometry, mode, semi, brute = result
        return (neff_problems(geometry, mode.n_eff) + gap_problems(semi)
                + bounce_problems(semi, brute))

    def run_pass(self, inputs, traced):
        for geometry in inputs:
            seconds, result = self.tally.op(
                f"candidate {geometry.ridge_width_um:.4f} um / {geometry.wavelength_nm:.3f} nm",
                lambda: self._candidate(geometry), self._check)
            self.op_ms.append(1e3 * seconds)
            if self.first is None and result is not None:
                self.first = result[:2]

    def after_first_pass(self):
        """Grid-refinement check: the pass's first candidate again at 512^2."""
        if self.first is None:
            return
        geometry, coarse = self.first
        fine_grid = replace(self.cfg.grid, nx=2 * self.cfg.grid.nx, ny=2 * self.cfg.grid.ny)

        def check(fine):
            dn = abs(fine.n_eff - coarse.n_eff)
            problems = neff_problems(geometry, fine.n_eff)
            if dn >= GRID_DOUBLING_TOL:
                problems.append(f"n_eff moved {dn:.2e} from 256^2 to 512^2")
            return problems

        seconds, _ = self.tally.op(
            "refine 512^2", lambda: ridgecav.solve_fundamental_mode(geometry, fine_grid), check)
        self.report["refine_s"] = seconds


class GapDesign(Workload):
    """The reference mode's gap etalon: one loss spectrum and seeded design points per pass."""

    name = "gap_design"
    PER_PASS = 40
    D_UM = (0.3, 3.0)             # the CLI's default gap-scan range
    LENGTH_UM = (100.0, 1000.0)
    SCAN_STEPS = 271

    def setup(self):
        self.cfg = load_reference_config()
        self.mode = ridgecav.solve_fundamental_mode(self.cfg.geometry, self.cfg.grid)
        self.scan_s = []
        self.widths = []
        # warm-up: one design point at the configured width
        self.tally.op("warm-up", lambda: self._design_point(self.cfg.gap.d_um,
                                                            self.cfg.cavity.length_um),
                      self._check)

    def make_pass(self, index):
        rng = np.random.default_rng([self.seed, index])
        return [(float(rng.uniform(*self.D_UM)), float(rng.uniform(*self.LENGTH_UM)))
                for _ in range(self.PER_PASS)]

    def _design_point(self, d_um, length_um):
        gap_cfg = replace(self.cfg.gap, d_um=d_um)
        phases, rrt = ridgecav.round_trip_phase_scan(
            self.mode, gap_cfg, n_phases=self.cfg.budget.phase_samples)
        k = int(np.argmin(rrt))  # constructive in-gap interference
        enhancement = ridgecav.field_enhancement(self.mode, gap_cfg, float(phases[k]))
        spec = replace(self.cfg.cavity, length_um=length_um,
                       gap_round_trip_amplitude=float(rrt[k]))
        budget = ridgecav.full_budget(self.mode.mode_area_um2, spec, None, self.cfg.atom)
        return rrt, enhancement, budget

    @staticmethod
    def _check(result):
        rrt, enhancement, budget = result
        problems = []
        if not (np.all(rrt >= 0.0) and np.all(rrt <= 1.0 + 1e-9)):
            problems.append(f"r_rt outside [0, 1]: [{rrt.min()}, {rrt.max()}]")
        if not (math.isfinite(enhancement) and enhancement > 0):
            problems.append(f"field enhancement {enhancement}")
        if budget.divergent or not (math.isfinite(budget.finesse) and budget.finesse > 0
                                    and math.isfinite(budget.cooperativity)
                                    and budget.cooperativity > 0):
            problems.append(f"budget finesse={budget.finesse} C={budget.cooperativity}")
        return problems

    @staticmethod
    def _check_spectrum(rows):
        problems = []
        for d, big_r, big_t, loss in rows:
            if big_r < 0 or big_t < 0 or abs(big_r + big_t + loss - 1.0) > ENERGY_TOL:
                problems.append(f"d={d}: R={big_r} T={big_t} loss={loss}")
        return problems

    def run_pass(self, inputs, traced):
        lo, hi = self.D_UM
        seconds, _ = self.tally.op(
            "loss spectrum",
            lambda: ridgecav.loss_spectrum(self.mode, lo, hi, self.SCAN_STEPS,
                                           base_cfg=self.cfg.gap),
            self._check_spectrum)
        self.scan_s.append(seconds)
        for d_um, length_um in inputs:
            seconds, _ = self.tally.op(f"design point d={d_um:.4f} um",
                                       lambda: self._design_point(d_um, length_um),
                                       self._check)
            self.op_ms.append(1e3 * seconds)
        self.widths.append(inputs[0][0])

    def finish(self):
        self.report["scan_s"] = statistics.median(self.scan_s)
        if len(self.op_ms) >= 100:
            self.report["op_p90_ms"] = statistics.quantiles(self.op_ms, n=10)[-1]
        for d_um in self.widths[:2]:
            gap_cfg = replace(self.cfg.gap, d_um=d_um)
            self.tally.op(
                f"series vs bounce d={d_um:.4f} um",
                lambda: (ridgecav.gap_scattering(self.mode, gap_cfg),
                         ridgecav.brute_force_gap_scattering(self.mode, gap_cfg,
                                                             n_bounces=BOUNCES)),
                lambda pair: gap_problems(pair[0]) + bounce_problems(*pair))


# metric name, ridgecav arguments (paths relative to ROOT), artifacts compared
# against the seed commit's: stdout plus the CSV the command writes
CLI_OUT = f"{OUT}/cli"
COMMANDS = (
    ("cmd_mode_s", ["mode", CONFIG, "--out", CLI_OUT], "mode_field.csv"),
    ("cmd_gap_scan_s", ["gap-scan", CONFIG, "--out", CLI_OUT], "gap_scan.csv"),
    ("cmd_phase_scan_s", ["gap-scan", CONFIG, "--phase-scan", "--out", CLI_OUT],
     "phase_scan.csv"),
    ("cmd_budget_s", ["budget", CONFIG], None),
    ("cmd_budget_nogap_s", ["budget", CONFIG, "--no-gap"], None),
    ("cmd_trap_s", ["trap", CONFIG, "--out", CLI_OUT], "trap_profile.csv"),
    ("cmd_fit_s", ["fit", f"{CLI_OUT}/finesse.csv"], None),
)


def compare_printed(text: str, reference: str) -> list:
    """Token-by-token comparison; numbers within PRINTED_REL_TOL, the rest exact."""
    got, want = text.split("\n"), reference.split("\n")
    if len(got) != len(want):
        return [f"{len(got)} lines, expected {len(want)}"]
    for lineno, (a, b) in enumerate(zip(got, want), start=1):
        ta = a.replace("=", ",").split(",")
        tb = b.replace("=", ",").split(",")
        if len(ta) != len(tb):
            return [f"line {lineno}: '{a}' vs '{b}'"]
        for x, y in zip(ta, tb):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    return [f"line {lineno}: '{a}' vs '{b}'"]
                continue
            if abs(fx - fy) > PRINTED_REL_TOL * abs(fy) + PRINTED_ABS_TOL:
                return [f"line {lineno}: {fx} vs {fy}"]
    return []


def mode_field_summary(path) -> dict:
    """Power, peak amplitude and area of a mode_field.csv, as its stand-in reference."""
    field = rc_fields.load_field_csv(path, wavelength_nm=780.0)
    intensity = np.abs(field.amplitudes) ** 2
    return {
        "power": float(intensity.sum() * field.cell_area_um2),
        "peak": float(np.sqrt(intensity.max())),
        "area_um2": float(ridgecav.mode_area(field)),
    }


class CliBatch(Workload):
    """Each CLI subcommand on the reference config in its own process, one at a time."""

    name = "cli_batch"
    FIT_LENGTHS_UM = (100.0, 200.0, 400.0, 700.0, 1000.0, 1500.0, 2000.0)
    FIT_R = (0.6, 0.95)
    FIT_ALPHA = (0.5, 3.0)

    def __init__(self, seed):
        super().__init__(seed)
        self.cmd_s = {name: [] for name, _, _ in COMMANDS}
        self.import_times = []

    def setup(self):
        out = ROOT / CLI_OUT
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.fit_truth = big_r, alpha = (float(rng.uniform(*self.FIT_R)),
                                         float(rng.uniform(*self.FIT_ALPHA)))
        lines = ["length_um,finesse"]
        for length in self.FIT_LENGTHS_UM:
            g = big_r * math.exp(-alpha * length * 1e-4)
            lines.append(f"{length!r},{math.pi * math.sqrt(g) / (1.0 - g)!r}")
        (out / "finesse.csv").write_text("\n".join(lines) + "\n")
        # users pay a fresh interpreter's import on every command
        self.import_times.append(fresh_import_s())

    def import_s(self):
        return statistics.median(self.import_times)

    def make_pass(self, index):
        return index

    def run_pass(self, index, traced):
        env = child_env()
        for name, argv, artifact in COMMANDS:
            if traced:
                dump = ROOT / OUT / f"spans-{self.seed}-{index}-{name}.json"
                dump.unlink(missing_ok=True)
                cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(dump),
                       f"{self.name}-{self.seed}-{index}-{name}", *argv]
            else:
                cmd = [sys.executable, "-m", "ridgecav.cli", *argv]
            seconds, _ = self.tally.op(
                " ".join(argv),
                lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                       text=True, timeout=60),
                lambda proc: self._check(name, proc, artifact))
            self.cmd_s[name].append(seconds)
            self.op_ms.append(1e3 * seconds)
            if traced and dump.exists():
                self.dumps.append(spans.load(dump))

    def _check(self, name, proc, artifact):
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        if name == "cmd_fit_s":
            fit = dict(line.split("=", 1) for line in proc.stdout.split())
            big_r, alpha = self.fit_truth
            dr = abs(float(fit["R_fit"]) - big_r)
            da = abs(float(fit["alpha_fit_per_cm"]) - alpha)
            if max(dr, da) >= FIT_TOL:
                return [f"fit missed (R, alpha) by ({dr:.2e}, {da:.2e})"]
            return []
        problems = []
        items = [(name.removesuffix("_s") + ".stdout", proc.stdout)]
        if artifact:
            items.append((artifact, (ROOT / CLI_OUT / artifact).read_text()))
        for key, text in items:
            problems += self._compare(key, text)
        if name == "cmd_gap_scan_s":
            for row in proc.stdout.split()[1:]:
                big_r, big_t, loss = map(float, row.split(",")[1:])
                if big_r < 0 or big_t < 0 or abs(big_r + big_t + loss - 1.0) > PRINTED_ENERGY_TOL:
                    problems.append(f"gap-scan row {row}")
        return problems

    def _compare(self, key, text):
        """Check one artifact against the seed commit's and note whether it is byte-identical."""
        if key == "mode_field.csv":
            # 65,536 rows are summarised instead of stored
            want = json.loads((REFERENCE / "mode_field.json").read_text())
            self.identical[key] = hashlib.sha256(text.encode()).hexdigest() == want.pop("sha256")
            if self.identical[key]:
                return []
            got = mode_field_summary(ROOT / CLI_OUT / key)
            return [f"{key} {k}={got[k]} vs {want[k]}" for k in want
                    if abs(got[k] - want[k]) > PRINTED_REL_TOL * abs(want[k])]
        reference = (REFERENCE / key).read_text()
        self.identical[key] = text == reference
        if self.identical[key]:
            return []
        return [f"{key} {p}" for p in compare_printed(text, reference)]

    def finish(self):
        for name, times in self.cmd_s.items():
            self.report[name] = statistics.median(times)
        self.report["artifacts_identical"] = sum(self.identical.values())

        def bounce_check():
            """The CLI's own mode field, bounced across the gap, against its gap-scan row."""
            cfg = load_reference_config()
            field = rc_fields.load_field_csv(ROOT / CLI_OUT / "mode_field.csv",
                                             cfg.geometry.wavelength_nm)
            brute = ridgecav.brute_force_gap_scattering(field, cfg.gap, n_bounces=BOUNCES)
            rows = (ROOT / CLI_OUT / "gap_scan.csv").read_text().split()[1:]
            row = min(rows, key=lambda r: abs(float(r.split(",")[0]) - cfg.gap.d_um))
            _, big_r, big_t, _ = map(float, row.split(","))
            return SimpleNamespace(R=big_r, T=big_t), brute

        self.tally.op("CLI gap-scan vs bounce model", bounce_check,
                      lambda pair: bounce_problems(*pair))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (GeometrySweep, GapDesign, CliBatch)}
