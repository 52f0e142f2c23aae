import math

import numpy as np
import pytest

from ridgecav import TrapConfig, potential_profile, trap_analysis

RB_MASS = 1.44316e-25
HBAR, C, EPS0 = 1.05457e-34, 2.99792e8, 8.85419e-12


def retarded_wall_coefficient(static_polarizability_si):
    """Perfectly conducting wall, retarded regime: U = -3 hbar c a / (32 pi^2 eps0 s^4)."""
    return 3.0 * HBAR * C * static_polarizability_si / (32.0 * math.pi**2 * EPS0)


# ground-state static polarizability of the trapped alkali atom, SI units
RB_ALPHA_SI = 319.8 * 1.64878e-41
REFERENCE_C4 = 1.2e-55


def test_reference_c4_magnitude_matches_wall_formula():
    oracle = retarded_wall_coefficient(RB_ALPHA_SI)
    assert 0.5 < oracle / REFERENCE_C4 < 2.0


def harmonic_only(gap_width_um=2.0, z_samples=201):
    return TrapConfig(
        omega_trap_2pi_kHz=9.0,
        atom_mass_kg=RB_MASS,
        c4_J_m4=0.0,
        gap_width_um=gap_width_um,
        z_samples=z_samples,
    )


def test_pure_harmonic_profile():
    z_um, u = potential_profile(harmonic_only())
    omega = 2 * math.pi * 9e3
    expected = 0.5 * RB_MASS * omega**2 * (z_um * 1e-6) ** 2
    assert np.allclose(u, expected, rtol=1e-12, atol=0.0)
    assert u[len(u) // 2] == pytest.approx(0.0, abs=1e-40)


def test_pure_harmonic_analysis():
    cfg = harmonic_only()
    z_um, u = potential_profile(cfg)
    result = trap_analysis(z_um, u)
    assert result["has_minimum"]
    assert abs(result["min_position_um"]) < cfg.gap_width_um / cfg.z_samples
    # the barrier is the wall-adjacent sample of the harmonic profile
    assert result["barrier_height_J"] == pytest.approx(u[-1], rel=1e-12)


def test_far_wall_limit_is_harmonic():
    cfg = TrapConfig(
        omega_trap_2pi_kHz=9.0, atom_mass_kg=RB_MASS,
        c4_J_m4=REFERENCE_C4, gap_width_um=100.0, z_samples=1001,
    )
    z_um, u = potential_profile(cfg)
    omega = 2 * math.pi * 9e3
    center = np.abs(z_um) < 1.0  # central region, walls 49 um away
    harmonic = 0.5 * RB_MASS * omega**2 * (z_um[center] * 1e-6) ** 2
    scale = harmonic.max()
    assert np.max(np.abs(u[center] - harmonic)) < 1e-3 * scale


def test_reference_gap_has_bound_well():
    cfg = TrapConfig(
        omega_trap_2pi_kHz=9.0, atom_mass_kg=RB_MASS,
        c4_J_m4=REFERENCE_C4, gap_width_um=2.0, z_samples=401,
    )
    z_um, u = potential_profile(cfg)
    result = trap_analysis(z_um, u)
    assert result["has_minimum"]
    assert abs(result["min_position_um"]) < 0.05
    assert result["barrier_height_uK"] > 0.0
    # double-barrier shape: potential dives toward both walls
    assert u[0] < u[len(u) // 2] and u[-1] < u[len(u) // 2]
    i_min = int(np.argmin(np.abs(z_um - result["min_position_um"])))
    assert u[: i_min + 1].max() > u[i_min]
    assert u[i_min:].max() > u[i_min]


def test_overwhelming_surface_term_kills_the_trap():
    cfg = TrapConfig(
        omega_trap_2pi_kHz=9.0, atom_mass_kg=RB_MASS,
        c4_J_m4=1e-50, gap_width_um=2.0, z_samples=401,
    )
    result = trap_analysis(*potential_profile(cfg))
    assert not result["has_minimum"]
    assert result["barrier_height_J"] == 0.0
    assert math.isnan(result["min_position_um"])


def test_trap_existence_is_monotone_in_gap_width():
    widths = np.linspace(0.2, 4.0, 20)
    exists = [
        trap_analysis(*potential_profile(
            TrapConfig(
                omega_trap_2pi_kHz=9.0, atom_mass_kg=RB_MASS,
                c4_J_m4=REFERENCE_C4, gap_width_um=float(w), z_samples=401,
            )
        ))["has_minimum"]
        for w in widths
    ]
    # false below a threshold width, true above, no re-entrance
    assert not exists[0]
    assert exists[-1]
    first_true = exists.index(True)
    assert all(exists[first_true:])
    assert not any(exists[:first_true])


def test_narrow_gap_has_no_trap():
    cfg = TrapConfig(
        omega_trap_2pi_kHz=9.0, atom_mass_kg=RB_MASS,
        c4_J_m4=REFERENCE_C4, gap_width_um=0.2, z_samples=401,
    )
    assert not trap_analysis(*potential_profile(cfg))["has_minimum"]


def test_profile_is_even_in_z():
    cfg = TrapConfig(
        omega_trap_2pi_kHz=9.0, atom_mass_kg=RB_MASS,
        c4_J_m4=REFERENCE_C4, gap_width_um=2.0, z_samples=400,  # even count too
    )
    _, u = potential_profile(cfg)
    asym = np.abs(u - u[::-1]) / np.max(np.abs(u))
    assert np.max(asym) < 1e-12


def test_barrier_monotone_in_width_and_frequency():
    def barrier(width, freq_khz):
        return trap_analysis(*potential_profile(
            TrapConfig(
                omega_trap_2pi_kHz=freq_khz, atom_mass_kg=RB_MASS,
                c4_J_m4=REFERENCE_C4, gap_width_um=width, z_samples=401,
            )
        ))["barrier_height_J"]

    widths = [1.5, 2.0, 3.0, 4.0]
    by_width = [barrier(w, 9.0) for w in widths]
    assert all(b >= a for a, b in zip(by_width, by_width[1:]))
    freqs = [5.0, 9.0, 15.0, 25.0]
    by_freq = [barrier(2.0, f) for f in freqs]
    assert all(b >= a for a, b in zip(by_freq, by_freq[1:]))


def test_trap_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(omega_trap_2pi_kHz=0.0)
    with pytest.raises(ValueError):
        TrapConfig(z_samples=50)
    with pytest.raises(ValueError):
        TrapConfig(c4_J_m4=-1e-55)
    with pytest.raises(ValueError):
        TrapConfig(gap_width_um=0.0)


@pytest.mark.parametrize("z_um, u, message", [
    ([], [], "^u must not be empty$"),
    (np.linspace(-1.0, 1.0, 5), np.array([4.0, 1.0, np.nan, 1.0, 4.0]), "^u must be finite$"),
    (np.linspace(-1.0, 1.0, 4), np.array([4.0, 1.0, 0.0, 1.0, 4.0]),
     "^z_um and u must have the same length, got 4 and 5$"),
], ids=["empty", "nan", "mismatched-lengths"])
def test_trap_analysis_rejects_a_bad_profile(z_um, u, message):
    with pytest.raises(ValueError, match=message):
        trap_analysis(z_um, u)
