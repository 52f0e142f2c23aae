"""Toolkit for gapped ridge-waveguide Fabry-Perot microcavities.

Covers the chain from the guided mode of the ridge, through diffraction in
the atom gap, to cavity finesse, measured-loss fits, trap potentials and the
atom-cavity cooperativity budget.
"""

import types

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

# every public name imported above; modules (the submodules, types) stay out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
