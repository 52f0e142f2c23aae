"""Atom-cavity coupling, loss budget and cooperativity.

Coupling uses the plain mode-volume convention V = A * L:

    g = (d / hbar) * sqrt(hbar * omega / (2 eps0 V)),

and the cooperativity C = g^2 / (kappa gamma) is a pure rate ratio, so any
consistent frequency unit works.  The standing-wave buildup of the field in
a resonant gap is never applied implicitly; pass `enhancement` explicitly
(n^2 for the resonant-gap configuration, 1 otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import C_M_PER_S, EPS0_F_PER_M, HBAR_J_S
from .cavity import (
    CavitySpec,
    finesse_from_round_trip,
    free_spectral_range_ghz,
    linewidth_ghz,
    round_trip_amplitude,
)
from .errors import require_finite


@dataclass(frozen=True)
class AtomParams:
    """Transition dipole, half-linewidth, wavelength and mass of the atom."""

    dipole_Cm: float = 3.584e-29
    gamma_half_MHz: float = 3.0
    transition_wavelength_nm: float = 780.0
    mass_kg: float = 1.44316e-25

    def __post_init__(self):
        require_finite(self)
        for name in ("dipole_Cm", "gamma_half_MHz", "transition_wavelength_nm", "mass_kg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CqedBudget:
    """Rates of the atom-cavity system and the resulting cooperativity."""

    g_over_2pi_MHz: float
    kappa_intr_over_2pi_GHz: float
    kappa_T_over_2pi_GHz: float
    kappa_total_over_2pi_GHz: float
    cooperativity: float
    enhancement: float
    finesse: float
    fsr_GHz: float
    divergent: bool = False


def coupling_g_MHz(mode_area_um2: float, cavity_length_um: float,
                   atom: AtomParams) -> float:
    """Single-photon Rabi frequency g/2pi in MHz for V = A * L."""
    if mode_area_um2 <= 0 or cavity_length_um <= 0:
        raise ValueError("mode area and cavity length must be positive")
    volume_m3 = mode_area_um2 * 1e-12 * cavity_length_um * 1e-6
    omega = 2.0 * math.pi * C_M_PER_S / (atom.transition_wavelength_nm * 1e-9)
    e_field = math.sqrt(HBAR_J_S * omega / (2.0 * EPS0_F_PER_M * volume_m3))
    g_rad_s = atom.dipole_Cm * e_field / HBAR_J_S
    return g_rad_s / (2.0 * math.pi) / 1e6


def optimize_mirror_transmission(kappa_intr_GHz: float):
    """Pick the mirror-transmission rate equal to the intrinsic rate.

    Returns (kappa_T, kappa_total) = (kappa_intr, 2 kappa_intr), the choice
    that maximizes single-atom detection signal to noise.
    """
    if kappa_intr_GHz < 0:
        raise ValueError("kappa_intr must be >= 0")
    return kappa_intr_GHz, 2.0 * kappa_intr_GHz


def cooperativity(g_over_2pi_MHz: float, kappa_over_2pi_GHz: float,
                  gamma_over_2pi_MHz: float, enhancement: float = 1.0) -> float:
    """C = enhancement * g^2 / (kappa gamma); all rates as /2pi values."""
    if g_over_2pi_MHz < 0 or kappa_over_2pi_GHz <= 0 or gamma_over_2pi_MHz <= 0:
        raise ValueError("rates must be positive")
    if enhancement < 1.0:
        raise ValueError("enhancement must be >= 1")
    g_hz = g_over_2pi_MHz * 1e6
    kappa_hz = kappa_over_2pi_GHz * 1e9
    gamma_hz = gamma_over_2pi_MHz * 1e6
    return enhancement * g_hz**2 / (kappa_hz * gamma_hz)


def full_budget(area: float, spec: CavitySpec, gap_amplitude: float | None,
                atom: AtomParams, enhancement: float = 1.0) -> CqedBudget:
    """Chain round trip -> finesse -> FSR -> kappa -> g -> cooperativity.

    `area` is the mode area in um^2.  `gap_amplitude` overrides the spec's
    stored gap factor when given.  A lossless round trip (factor >= 1) has no
    linewidth; the budget is then flagged divergent with zero kappa and
    infinite cooperativity.
    """
    if gap_amplitude is not None:
        spec = replace(spec, gap_round_trip_amplitude=gap_amplitude)
    g_rt = round_trip_amplitude(spec)
    fsr = free_spectral_range_ghz(spec.length_um, spec.n_group)
    g_mhz = coupling_g_MHz(area, spec.length_um, atom)
    if g_rt >= 1.0:
        return CqedBudget(
            g_over_2pi_MHz=g_mhz,
            kappa_intr_over_2pi_GHz=0.0,
            kappa_T_over_2pi_GHz=0.0,
            kappa_total_over_2pi_GHz=0.0,
            cooperativity=math.inf,
            enhancement=enhancement,
            finesse=math.inf,
            fsr_GHz=fsr,
            divergent=True,
        )
    finesse = finesse_from_round_trip(g_rt)
    width_2kappa = linewidth_ghz(finesse, fsr)
    kappa_intr = width_2kappa / 2.0
    kappa_t, kappa_total = optimize_mirror_transmission(kappa_intr)
    coop = cooperativity(g_mhz, kappa_total, atom.gamma_half_MHz, enhancement)
    return CqedBudget(
        g_over_2pi_MHz=g_mhz,
        kappa_intr_over_2pi_GHz=kappa_intr,
        kappa_T_over_2pi_GHz=kappa_t,
        kappa_total_over_2pi_GHz=kappa_total,
        cooperativity=coop,
        enhancement=enhancement,
        finesse=finesse,
        fsr_GHz=fsr,
    )
