"""Trapping potential across the gap: magnetic harmonic term vs wall attraction.

U(z) = 1/2 m w^2 z^2 - c4/s1^4 - c4/s2^4 with s1 = d/2 + z and s2 = d/2 - z
the distances to the two gap walls.  The -c4/s^4 form is the retarded
atom-surface attraction; c4 must be supplied by the caller (there is no
universal default, it depends on the atom and the wall material).  Sampling
stays strictly inside the walls, where the potential diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import KB_J_PER_K
from .errors import require_finite


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap frequency, atom mass, wall coefficient, gap width."""

    omega_trap_2pi_kHz: float = 9.0
    atom_mass_kg: float = 1.44316e-25
    c4_J_m4: float = 0.0
    gap_width_um: float = 2.0
    z_samples: int = 201

    def __post_init__(self):
        require_finite(self)
        if self.omega_trap_2pi_kHz <= 0:
            raise ValueError("omega_trap_2pi_kHz must be positive")
        if self.atom_mass_kg <= 0:
            raise ValueError("atom_mass_kg must be positive")
        if self.c4_J_m4 < 0:
            raise ValueError("c4_J_m4 must be >= 0")
        if self.gap_width_um <= 0:
            raise ValueError("gap_width_um must be positive")
        if self.z_samples < 101:
            raise ValueError("z_samples must be >= 101")


def potential_profile(cfg: TrapConfig):
    """(z_um, U_J) arrays on an open grid inside (-d/2, d/2)."""
    half_m = cfg.gap_width_um / 2.0 * 1e-6
    # skip the first and last points of a closed grid so the walls (where the
    # surface term diverges) are excluded symmetrically
    z = np.linspace(-half_m, half_m, cfg.z_samples + 2)[1:-1]
    omega = 2.0 * math.pi * cfg.omega_trap_2pi_kHz * 1e3
    s1 = half_m + z
    s2 = half_m - z
    u = (
        0.5 * cfg.atom_mass_kg * omega**2 * z**2
        - cfg.c4_J_m4 / s1**4
        - cfg.c4_J_m4 / s2**4
    )
    return z * 1e6, u


def trap_analysis(cfg: TrapConfig) -> dict:
    """Locate the trap minimum and its confining barrier, if any.

    Returns has_minimum, barrier_height_J, barrier_height_uK, min_position_um.
    The barrier is measured from the local minimum to the lower of the two
    outermost interior maxima (for a pure harmonic profile these are the
    wall-adjacent samples).
    """
    z_um, u = potential_profile(cfg)
    n = len(u)
    interior = np.arange(1, n - 1)
    local_min = interior[(u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:])]
    if len(local_min) == 0:
        return {
            "has_minimum": False,
            "barrier_height_J": 0.0,
            "barrier_height_uK": 0.0,
            "min_position_um": math.nan,
        }
    i_min = int(local_min[np.argmin(u[local_min])])
    left_peak = float(np.max(u[: i_min + 1]))
    right_peak = float(np.max(u[i_min:]))
    barrier = min(left_peak, right_peak) - float(u[i_min])
    has_minimum = barrier > 0.0
    return {
        "has_minimum": has_minimum,
        "barrier_height_J": barrier,
        "barrier_height_uK": barrier / KB_J_PER_K * 1e6,
        "min_position_um": float(z_um[i_min]),
    }
