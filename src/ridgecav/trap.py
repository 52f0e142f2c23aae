"""Trapping potential across the gap: magnetic harmonic term vs wall attraction.

U(z) = 1/2 m w^2 z^2 - c4/s1^4 - c4/s2^4 with s1 = d/2 + z and s2 = d/2 - z
the distances to the two gap walls.  The -c4/s^4 form is the retarded
atom-surface attraction; c4 must be supplied by the caller (there is no
universal default, it depends on the atom and the wall material).  Sampling
stays strictly inside the walls, where the potential diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import KB_J_PER_K
from .errors import check_fields


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap frequency, atom mass, wall coefficient, gap width."""

    omega_trap_2pi_kHz: float = field(default=9.0, metadata={"gt": 0})
    atom_mass_kg: float = field(default=1.44316e-25, metadata={"gt": 0})
    c4_J_m4: float = field(default=0.0, metadata={"ge": 0})
    gap_width_um: float = field(default=2.0, metadata={"gt": 0})
    z_samples: int = field(default=201, metadata={"ge": 101})

    __post_init__ = check_fields


def potential_profile(cfg: TrapConfig):
    """(z_um, U_J) arrays on an open grid inside (-d/2, d/2).

    A U out of float range (s^4 underflows, or the harmonic term overflows)
    is rejected, naming the two keys that drive it.
    """
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
    if not np.isfinite(u).all():
        raise ValueError(
            f"trap potential U must be finite, got {u[np.argmin(np.isfinite(u))]} at "
            f"gap_width_um = {cfg.gap_width_um}, atom_mass_kg = {cfg.atom_mass_kg}"
        )
    return z * 1e6, u


def trap_analysis(z_um, u) -> dict:
    """Locate the trap minimum and its confining barrier, if any.

    Takes the (z_um, U_J) profile that potential_profile returns.  Returns
    has_minimum, barrier_height_J, barrier_height_uK, min_position_um.
    The barrier is measured from the local minimum to the lower of the two
    outermost interior maxima (for a pure harmonic profile these are the
    wall-adjacent samples).  An empty profile, z_um and u of different
    lengths, or a non-finite u raises ValueError.
    """
    n = len(u)
    if len(z_um) != n:
        raise ValueError(f"z_um and u must have the same length, got {len(z_um)} and {n}")
    if n == 0:
        raise ValueError("u must not be empty")
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
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
