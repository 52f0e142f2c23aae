"""Toolkit for gapped ridge-waveguide Fabry-Perot microcavities.

Covers the chain from the guided mode of the ridge, through diffraction in
the atom gap, to cavity finesse, measured-loss fits, trap potentials and the
atom-cavity cooperativity budget.
"""

from .cavity import (
    CavitySpec,
    FitResult,
    MirrorStack,
    alpha_from_linewidth,
    finesse_from_round_trip,
    fit_losses,
    free_spectral_range_ghz,
    linewidth_ghz,
    quarter_wave_stack,
    round_trip_amplitude,
    stack_reflectivity,
)
from .cqed import (
    AtomParams,
    CqedBudget,
    cooperativity,
    coupling_g_MHz,
    full_budget,
)
from .errors import (
    ConfigError,
    EigensolveFailed,
    FitDiverged,
    NoGuidedMode,
    RidgecavError,
    SeriesNotConverged,
)
from .fields import GridSpec, SampledField, load_field_csv, save_field_csv
from .gap import (
    GapConfig,
    GapResult,
    brute_force_gap_scattering,
    composite_round_trip,
    field_enhancement,
    fresnel_interface,
    gap_scattering,
    loss_spectrum,
    round_trip_phase_scan,
)
from .propagation import overlap, propagate_free_space
from .trap import TrapConfig, potential_profile, trap_analysis
from .waveguide import (
    ModeSolution,
    WaveguideGeometry,
    group_index,
    mode_area,
    solve_fundamental_mode,
)

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "CavitySpec",
    "ConfigError",
    "CqedBudget",
    "EigensolveFailed",
    "FitDiverged",
    "FitResult",
    "GapConfig",
    "GapResult",
    "GridSpec",
    "MirrorStack",
    "ModeSolution",
    "NoGuidedMode",
    "RidgecavError",
    "SampledField",
    "SeriesNotConverged",
    "TrapConfig",
    "WaveguideGeometry",
    "alpha_from_linewidth",
    "brute_force_gap_scattering",
    "composite_round_trip",
    "cooperativity",
    "coupling_g_MHz",
    "field_enhancement",
    "finesse_from_round_trip",
    "fit_losses",
    "free_spectral_range_ghz",
    "fresnel_interface",
    "full_budget",
    "gap_scattering",
    "group_index",
    "linewidth_ghz",
    "load_field_csv",
    "loss_spectrum",
    "mode_area",
    "overlap",
    "potential_profile",
    "propagate_free_space",
    "quarter_wave_stack",
    "round_trip_amplitude",
    "round_trip_phase_scan",
    "save_field_csv",
    "solve_fundamental_mode",
    "stack_reflectivity",
    "trap_analysis",
]
