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
from dataclasses import dataclass, field, replace

from .constants import C_M_PER_S, EPS0_F_PER_M, HBAR_J_S
from .cavity import (
    CavitySpec,
    finesse_from_round_trip,
    free_spectral_range_ghz,
    linewidth_ghz,
    round_trip_amplitude,
)
from .errors import check_fields, check_value, derived


@dataclass(frozen=True)
class AtomParams:
    """Transition dipole, half-linewidth, wavelength and mass of the atom."""

    dipole_Cm: float = field(default=3.584e-29, metadata={"gt": 0})
    gamma_half_MHz: float = field(default=3.0, metadata={"gt": 0})
    transition_wavelength_nm: float = field(default=780.0, metadata={"gt": 0})
    mass_kg: float = field(default=1.44316e-25, metadata={"gt": 0})

    __post_init__ = check_fields


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
    check_value("mode_area_um2", mode_area_um2, gt=0)
    check_value("cavity_length_um", cavity_length_um, gt=0)
    volume_m3 = mode_area_um2 * 1e-12 * cavity_length_um * 1e-6

    def g_mhz():
        omega = 2.0 * math.pi * C_M_PER_S / (atom.transition_wavelength_nm * 1e-9)
        e_field = math.sqrt(HBAR_J_S * omega / (2.0 * EPS0_F_PER_M * volume_m3))
        return atom.dipole_Cm * e_field / HBAR_J_S / (2.0 * math.pi) / 1e6

    return derived("g_over_2pi_MHz", g_mhz, dipole_Cm=atom.dipole_Cm,
                   transition_wavelength_nm=atom.transition_wavelength_nm,
                   mode_area_um2=mode_area_um2, cavity_length_um=cavity_length_um)


def cooperativity(g_over_2pi_MHz: float, kappa_over_2pi_GHz: float,
                  gamma_over_2pi_MHz: float, enhancement: float = 1.0) -> float:
    """C = enhancement * g^2 / (kappa gamma); all rates as /2pi values."""
    check_value("g_over_2pi_MHz", g_over_2pi_MHz, ge=0)
    check_value("kappa_over_2pi_GHz", kappa_over_2pi_GHz, gt=0)
    check_value("gamma_over_2pi_MHz", gamma_over_2pi_MHz, gt=0)
    check_value("enhancement", enhancement, ge=1)
    g_hz = g_over_2pi_MHz * 1e6
    kappa_hz = kappa_over_2pi_GHz * 1e9
    gamma_hz = gamma_over_2pi_MHz * 1e6
    return derived("cooperativity", lambda: enhancement * g_hz**2 / (kappa_hz * gamma_hz),
                   enhancement=enhancement, g_over_2pi_MHz=g_over_2pi_MHz,
                   kappa_over_2pi_GHz=kappa_over_2pi_GHz, gamma_over_2pi_MHz=gamma_over_2pi_MHz)


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
    divergent = g_rt >= 1.0
    if divergent:
        finesse, kappa_intr, coop = math.inf, 0.0, math.inf
    else:
        finesse = finesse_from_round_trip(g_rt)
        kappa_intr = linewidth_ghz(finesse, fsr) / 2.0
        if kappa_intr == 0.0:  # the FSR went to 0: name the keys that set it
            raise ValueError(f"kappa_intr_over_2pi_GHz underflows to 0 at n_group = "
                             f"{spec.n_group:g}, length_um = {spec.length_um:g}")
        # mirror transmission rate equal to the intrinsic rate maximizes the
        # single-atom detection signal to noise
        coop = cooperativity(g_mhz, 2.0 * kappa_intr, atom.gamma_half_MHz, enhancement)
    return CqedBudget(
        g_over_2pi_MHz=g_mhz,
        kappa_intr_over_2pi_GHz=kappa_intr,
        kappa_T_over_2pi_GHz=kappa_intr,
        kappa_total_over_2pi_GHz=2.0 * kappa_intr,
        cooperativity=coop,
        enhancement=enhancement,
        finesse=finesse,
        fsr_GHz=fsr,
        divergent=divergent,
    )
