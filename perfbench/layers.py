"""Per-layer metrics from the spans and counts of a traced run.

Each ridgecav module is one layer.  Times named `*_self_s` are self time
(span time minus the time its child spans cover); other `*_s` times are the
full span time, children included.  Counts are made at the same function
boundaries as the spans.  Which end-to-end metric each layer should move, on
which workload, is written down in perfbench/README.md.
"""

from __future__ import annotations


def _count_unknowns(rec, args, kwargs, mode):
    rec.counts["waveguide.unknowns"] += mode.field.nx * mode.field.ny


def _count_projection(rec, args, kwargs, q):
    rec.counts["propagation.q_evals"] += len(q)
    amps = (args[0] if args else kwargs["f"]).amplitudes
    rec.modes[id(amps)] = amps


def _count_series(rec, args, kwargs, result):
    rec.counts["gap.series_terms"] += len(result.q_list)


def _count_csv_line(rec, line):
    rec.counts["fields.csv_rows"] += 1
    rec.counts["fields.csv_bytes"] += len(line) + 1  # written with a trailing LF


HOOKS = {
    "waveguide.solve_fundamental_mode": _count_unknowns,
    "propagation.projection_after_propagation": _count_projection,
    "gap.gap_scattering": _count_series,
    "fields.field_to_csv_rows": _count_csv_line,
}

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "waveguide.solve_self_s": "s",
    "waveguide.solves": "count",
    "waveguide.unknowns": "count",
    "waveguide.s_per_Munknown": "s/Munknown",
    "waveguide.permittivity_s": "s",
    "waveguide.mode_area_s": "s",
    "propagation.projection_s": "s",
    "propagation.projection_calls": "count",
    "propagation.q_evals": "count",
    "propagation.propagate_s": "s",
    "propagation.propagate_calls": "count",
    "propagation.fft2_computed": "count",
    "gap.scattering_self_s": "s",
    "gap.scattering_calls": "count",
    "gap.series_terms": "count",
    "gap.loss_spectrum_self_s": "s",
    "gap.phase_scan_self_s": "s",
    "gap.enhancement_self_s": "s",
    "gap.brute_force_self_s": "s",
    "gap.spectra_per_mode": "ratio",
    "fields.csv_rows_s": "s",
    "fields.csv_rows": "count",
    "fields.csv_bytes": "B",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.artifacts_identical": "count",
    "config.load_s": "s",
    "cavity.fit_s": "s",
    "cavity.stack_s": "s",
    "cqed.budget_s": "s",
    "trap.profile_s": "s",
    "trap.analysis_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(agg, import_s: float, artifacts_identical: int,
                  overhead_frac: float) -> dict:
    """Every per-layer metric, as {name: value}, from `spans.aggregate` output."""
    total, self_time, calls, counts, modes = agg
    solve = "waveguide.solve_fundamental_mode"
    projection = "propagation.projection_after_propagation"
    propagate = "propagation.propagate_free_space"
    unknowns = counts["waveguide.unknowns"]
    values = {
        "waveguide.solve_self_s": self_time[solve],
        "waveguide.solves": calls[solve],
        "waveguide.unknowns": unknowns,
        "waveguide.s_per_Munknown": self_time[solve] / (unknowns / 1e6) if unknowns else 0.0,
        "waveguide.permittivity_s": total["waveguide.permittivity_map"],
        "waveguide.mode_area_s": total["waveguide.mode_area"],
        "propagation.projection_s": total[projection],
        "propagation.projection_calls": calls[projection],
        "propagation.q_evals": counts["propagation.q_evals"],
        "propagation.propagate_s": total[propagate],
        "propagation.propagate_calls": calls[propagate],
        # computed from call counts, not observed: one forward FFT per
        # projection, a forward and an inverse FFT per propagation
        "propagation.fft2_computed": calls[projection] + 2 * calls[propagate],
        "gap.scattering_self_s": self_time["gap.gap_scattering"],
        "gap.scattering_calls": calls["gap.gap_scattering"],
        "gap.series_terms": counts["gap.series_terms"],
        "gap.loss_spectrum_self_s": self_time["gap.loss_spectrum"],
        "gap.phase_scan_self_s": self_time["gap.round_trip_phase_scan"],
        "gap.enhancement_self_s": self_time["gap.field_enhancement"],
        "gap.brute_force_self_s": self_time["gap.brute_force_gap_scattering"],
        "gap.spectra_per_mode": calls[projection] / modes if modes else 0.0,
        "fields.csv_rows_s": total["fields.field_to_csv_rows"],
        "fields.csv_rows": counts["fields.csv_rows"],
        "fields.csv_bytes": counts["fields.csv_bytes"],
        "cli.import_s": import_s,
        "cli.self_s": sum(t for name, t in self_time.items() if name.startswith("cli.")),
        "cli.artifacts_identical": artifacts_identical,
        "config.load_s": total["config.load_config"],
        "cavity.fit_s": total["cavity.fit_losses"],
        "cavity.stack_s": total["cavity.quarter_wave_stack"] + total["cavity.stack_reflectivity"],
        "cqed.budget_s": total["cqed.full_budget"],
        "trap.profile_s": total["trap.potential_profile"],
        "trap.analysis_s": total["trap.trap_analysis"],
        "trace.overhead_frac": overhead_frac,
    }
    assert values.keys() == UNITS.keys()
    return values
