"""Every public entry point keeps the CLI's rules on malformed input.

Each case calls one public function, or builds one of the config
dataclasses, with one argument drawn from finite extremes, +-0, NaN, +-inf,
non-integer counts, and empty, 2-D or mismatched arrays, the other arguments
valid.  The call returns finite floats (a dataclass's `int` fields holding
ints), or raises ValueError or a RidgecavError whose message names that
argument, or the result the argument pushed out of range; every warning is
an error.  Left out: the result records (GapResult, ModeSolution, FitResult,
CqedBudget), which hold what a function returns, and the CSV functions,
whose arguments are paths.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ridgecav as rc
from ridgecav import RidgecavError

NAN, INF = math.nan, math.inf
FLOATS = [0.0, -0.0, NAN, INF, -INF, 1e308, -1e308, 5e-324, 1e-300, 1e300, -1.0, 2.5]
COUNTS = [2.5, 3.0, 101.5, 256.0, NAN, INF, -1, 0, 1, 2]


def _field(amps, wavelength_nm=780.0):
    return rc.SampledField(amplitudes=amps, dx_um=0.75, dy_um=0.75, wavelength_nm=wavelength_nm)


_X = (np.arange(16) - 7.5) * 0.75
GAUSS = _field(np.exp(-(_X[:, None] ** 2 + _X[None, :] ** 2) / 4.0) + 0j)
MODE = rc.ModeSolution(field=GAUSS, n_eff=3.15, mode_area_um2=rc.mode_area(GAUSS))
# fields whose power is zero, overflows or underflows, or on another grid or
# wavelength than GAUSS (a field with no samples is not constructible)
BAD_FIELDS = [_field(np.zeros((16, 16))), _field(np.full((16, 16), 1e200)),
              _field(np.full((16, 16), 1e100)), _field(np.full((16, 16), 1e-200)),
              _field(np.ones((16, 8))),
              _field(GAUSS.amplitudes, wavelength_nm=1e-300),
              _field(GAUSS.amplitudes, wavelength_nm=1e300)]
BAD_MODES = BAD_FIELDS + [rc.ModeSolution(field=f, n_eff=3.15, mode_area_um2=1.0)
                          for f in BAD_FIELDS]
BAD_ROWS = [[], [(100.0, 60.0)], np.zeros((3, 3)), np.zeros((2, 2, 2)), [(1.0, 2.0), (3.0,)],
            [(NAN, 60.0), (200.0, 45.0), (300.0, 35.0)], [(INF, 1.0), (1.0, INF), (2.0, 2.0)],
            [(1e308, 1e308), (-1e308, 5e-324), (5e-324, 1e308)]]
# the valid trap profile has 5 samples, so (5, 2) mismatches only in its dimensions
BAD_ARRAYS = [np.empty(0), np.empty((0, 0)), np.zeros((3, 3)), np.zeros((5, 2)), np.full(5, NAN),
              np.array([0.0, 1.0, INF, 1.0, 0.0]), np.arange(4.0),
              np.array([1e308, -1e308, 1e308, -1e308, 1e308])]


@dataclasses.dataclass(frozen=True)
class Case:
    """call(**valid) with one argument swapped for each entry of its pool.

    names[arg] lists the words that name arg in a message; arg itself by default.
    """

    name: str
    call: object
    valid: dict
    pools: dict
    names: dict = dataclasses.field(default_factory=dict)

    def __repr__(self):
        return self.name


def _floats(names):
    return {name: FLOATS for name in names}


GAP = ("d_um", "n_interface", "series_tolerance")
CAVITY = dict(length_um=300.0, n_group=3.5, alpha_per_cm=1.0, mirror_R_left=0.99,
              mirror_R_right=0.99, gap_round_trip_amplitude=0.9)
ATOM = ("dipole_Cm", "gamma_half_MHz", "transition_wavelength_nm", "mass_kg")
GEOMETRY = dict(ridge_width_um=4.0, ridge_height_um=4.0, core_thickness_um=4.0,
                cladding_thickness_um=4.0, n_core=3.155, n_clad=3.145, n_exterior=1.0,
                wavelength_nm=780.0)


def _gap_call(fn, *extra):
    """fn(mode, GapConfig(d_um, n_interface, series_tolerance, p_max), *extra args)."""
    def call(mode, d_um, n_interface, series_tolerance, p_max, **kw):
        cfg = rc.GapConfig(d_um=d_um, n_interface=n_interface,
                           series_tolerance=series_tolerance, p_max=p_max)
        return fn(mode, cfg, *(kw[name] for name in extra))
    return call


def _gap_case(name, fn, extra_valid=None, extra_pools=None):
    valid = dict(mode=MODE, d_um=1.96, n_interface=3.155, series_tolerance=1e-8, p_max=64,
                 **(extra_valid or {}))
    pools = dict(mode=BAD_MODES, **_floats(GAP), p_max=COUNTS, **(extra_pools or {}))
    field_names = ("field", "projection", "k0 d", "grid", "wavelength")
    return Case(name, _gap_call(fn, *(extra_valid or {})), valid, pools,
                {"mode": field_names, "d_um": ("d_um", "gap width"),
                 # a term cap hit names the cap and the tolerance
                 "n_interface": ("n_interface", "p_max"),
                 "series_tolerance": ("series_tolerance", "tolerance"),
                 "p_max": ("p_max",)})


CASES = [
    Case("finesse_from_round_trip", rc.finesse_from_round_trip, dict(g_rt=0.9),
         _floats(["g_rt"])),
    Case("free_spectral_range_ghz", rc.free_spectral_range_ghz,
         dict(length_um=300.0, n_group=3.5), _floats(["length_um", "n_group"]),
         {"length_um": ("length_um", "fsr_ghz"), "n_group": ("n_group", "fsr_ghz")}),
    Case("linewidth_ghz", rc.linewidth_ghz, dict(finesse=30.0, fsr_ghz=140.0),
         _floats(["finesse", "fsr_ghz"]),
         {"finesse": ("finesse", "linewidth_ghz"), "fsr_ghz": ("fsr_ghz",)}),
    Case("alpha_from_linewidth", rc.alpha_from_linewidth,
         dict(width_2kappa_ghz=5.0, length_um=300.0, n_group=3.5, mirror_R=0.95),
         _floats(["width_2kappa_ghz", "length_um", "n_group", "mirror_R"]),
         {name: (name, "fsr_ghz", "alpha", "round-trip factor")
          for name in ("width_2kappa_ghz", "length_um", "n_group", "mirror_R")}),
    Case("quarter_wave_stack", rc.quarter_wave_stack,
         dict(pairs=3, n_high=2.35, n_low=1.5, n_incident=3.155, n_exit=1.0, wavelength_nm=780.0),
         dict(pairs=COUNTS,
              **_floats(["n_high", "n_low", "n_incident", "n_exit", "wavelength_nm"])),
         {"n_high": ("n_high", "layer"), "n_low": ("n_low", "layer"),
          "wavelength_nm": ("layer thickness_nm",)}),
    Case("stack_reflectivity", rc.stack_reflectivity,
         dict(stack=rc.quarter_wave_stack(3), wavelength_nm=780.0), _floats(["wavelength_nm"]),
         {"wavelength_nm": ("wavelength_nm", "reflectivity")}),
    Case("MirrorStack", rc.MirrorStack,
         dict(layers=((1.5, 130.0), (2.35, 83.0)), n_incident=3.155, n_exit=1.0),
         dict(layers=BAD_ROWS, **_floats(["n_incident", "n_exit"])),
         {"layers": ("layer",)}),
    Case("round_trip_amplitude", lambda **kw: rc.round_trip_amplitude(rc.CavitySpec(**kw)),
         CAVITY, _floats(CAVITY),
         {"length_um": ("length_um",), "alpha_per_cm": ("alpha_per_cm",)}),
    Case("cooperativity", rc.cooperativity,
         dict(g_over_2pi_MHz=10.0, kappa_over_2pi_GHz=1.0, gamma_over_2pi_MHz=3.0, enhancement=1.0),
         _floats(["g_over_2pi_MHz", "kappa_over_2pi_GHz", "gamma_over_2pi_MHz", "enhancement"]),
         {name: (name, "cooperativity") for name in ("g_over_2pi_MHz", "kappa_over_2pi_GHz",
                                                     "gamma_over_2pi_MHz", "enhancement")}),
    Case("coupling_g_MHz",
         lambda mode_area_um2, cavity_length_um, **atom: rc.coupling_g_MHz(
             mode_area_um2, cavity_length_um, rc.AtomParams(**atom)),
         dict(mode_area_um2=10.0, cavity_length_um=300.0, dipole_Cm=3.584e-29,
              gamma_half_MHz=3.0, transition_wavelength_nm=780.0, mass_kg=1.44316e-25),
         _floats(["mode_area_um2", "cavity_length_um", *ATOM]),
         {name: (name, "g_over_2pi_MHz") for name in ("mode_area_um2", "cavity_length_um", *ATOM)}),
    Case("full_budget",
         lambda area, gap_amplitude, enhancement, **spec: rc.full_budget(
             area, rc.CavitySpec(**spec), gap_amplitude, rc.AtomParams(), enhancement),
         dict(area=10.0, gap_amplitude=0.9, enhancement=1.0, **CAVITY),
         _floats(["area", "gap_amplitude", "enhancement", *CAVITY]),
         {"area": ("mode_area_um2", "g_over_2pi_MHz"),
          "gap_amplitude": ("gap_round_trip_amplitude", "g_rt"),
          "enhancement": ("enhancement", "cooperativity"),
          **{name: (name, "fsr_ghz", "g_over_2pi_MHz", "g_rt", "cooperativity", "kappa")
             for name in CAVITY}}),
    Case("fresnel_interface", rc.fresnel_interface, dict(n=3.155), _floats(["n"])),
    _gap_case("gap_scattering", rc.gap_scattering),
    _gap_case("composite_round_trip", rc.composite_round_trip, dict(arm_phase_rad=0.5),
              _floats(["arm_phase_rad"])),
    _gap_case("field_enhancement", rc.field_enhancement, dict(arm_phase_rad=0.5),
              _floats(["arm_phase_rad"])),
    _gap_case("round_trip_phase_scan", rc.round_trip_phase_scan, dict(n_phases=8),
              dict(n_phases=COUNTS)),
    _gap_case("brute_force_gap_scattering", rc.brute_force_gap_scattering, dict(n_bounces=16),
              dict(n_bounces=COUNTS)),
    Case("loss_spectrum",
         lambda mode, d_min_um, d_max_um, steps, n_interface: rc.loss_spectrum(
             mode, d_min_um, d_max_um, steps, rc.GapConfig(n_interface=n_interface)),
         dict(mode=MODE, d_min_um=0.3, d_max_um=3.0, steps=5, n_interface=3.155),
         dict(mode=BAD_MODES, **_floats(["d_min_um", "d_max_um", "n_interface"]), steps=COUNTS),
         {"mode": ("field", "projection", "k0 d", "grid", "wavelength"),
          "n_interface": ("n_interface", "p_max"),
          "d_min_um": ("d_min",), "d_max_um": ("d_max", "gap width"), "steps": ("steps",)}),
    Case("propagate_free_space", rc.propagate_free_space, dict(f=GAUSS, distance_um=1.0),
         dict(f=BAD_FIELDS, **_floats(["distance_um"])),
         {"f": ("field", "wavelength"), "distance_um": ("distance_um",)}),
    Case("overlap", rc.overlap, dict(a=GAUSS, b=GAUSS), dict(a=BAD_FIELDS, b=BAD_FIELDS),
         {"a": ("field", "grid"), "b": ("field", "grid")}),
    Case("mode_area", rc.mode_area, dict(f=GAUSS), dict(f=BAD_FIELDS),
         {"f": ("field", "mode area")}),
    Case("group_index", rc.group_index,
         dict(n_eff_samples=[(770.0, 3.150), (780.0, 3.149), (790.0, 3.148)]),
         dict(n_eff_samples=BAD_ROWS),
         {"n_eff_samples": ("n_eff_samples", "samples", "wavelengths", "group index")}),
    Case("fit_losses", rc.fit_losses,
         dict(data=[(100.0, 60.0), (200.0, 45.0), (300.0, 35.0), (400.0, 28.0)]),
         dict(data=BAD_ROWS), {"data": ("data", "row", "length", "finesse", "sigma")}),
    Case("potential_profile", lambda **kw: rc.potential_profile(rc.TrapConfig(**kw)),
         dict(omega_trap_2pi_kHz=9.0, atom_mass_kg=1.44316e-25, c4_J_m4=1.2e-55,
              gap_width_um=2.0, z_samples=201),
         dict(**_floats(["omega_trap_2pi_kHz", "atom_mass_kg", "c4_J_m4", "gap_width_um"]),
              z_samples=COUNTS),
         {name: (name, "trap potential") for name in ("omega_trap_2pi_kHz", "c4_J_m4")}),
    Case("trap_analysis", rc.trap_analysis,
         dict(z_um=np.linspace(-1.0, 1.0, 5), u=np.array([4.0, 1.0, 0.0, 1.0, 4.0])),
         dict(z_um=BAD_ARRAYS, u=BAD_ARRAYS), {"u": ("u", "barrier")}),
    Case("solve_fundamental_mode",
         lambda nx, window_um, **geometry: rc.solve_fundamental_mode(
             rc.WaveguideGeometry(**geometry), rc.GridSpec(nx=nx, ny=nx, window_x_um=window_um,
                                                           window_y_um=window_um)),
         dict(nx=32, window_um=24.0, **GEOMETRY),
         dict(nx=COUNTS, **_floats(["window_um", *GEOMETRY])),
         {"window_um": ("window",), "n_core": ("n_core", "n_eff", "wavelength_nm"),
          "n_clad": ("n_clad", "cladding"), "n_exterior": ("n_exterior",),
          **{name: (name, "window", "n_eff", "cladding", "propagating", "edge")
             for name in ("ridge_width_um", "ridge_height_um", "core_thickness_um",
                          "cladding_thickness_um", "wavelength_nm")}}),
    Case("GridSpec", rc.GridSpec, dict(nx=32, ny=32, window_x_um=24.0, window_y_um=24.0),
         dict(nx=COUNTS, ny=COUNTS, **_floats(["window_x_um", "window_y_um"]))),
    Case("SampledField", rc.SampledField,
         dict(amplitudes=GAUSS.amplitudes, dx_um=0.75, dy_um=0.75, wavelength_nm=780.0),
         dict(amplitudes=BAD_ARRAYS, **_floats(["dx_um", "dy_um", "wavelength_nm"]))),
    Case("GapConfig", rc.GapConfig, dict(d_um=1.96, n_interface=3.155, series_tolerance=1e-8,
                                         p_max=64),
         dict(**_floats(GAP), p_max=COUNTS)),
    Case("TrapConfig", rc.TrapConfig, dict(z_samples=201),
         dict(**_floats(["omega_trap_2pi_kHz", "atom_mass_kg", "c4_J_m4", "gap_width_um"]),
              z_samples=COUNTS)),
    Case("CavitySpec", rc.CavitySpec, CAVITY, _floats(CAVITY)),
    Case("AtomParams", rc.AtomParams, {}, _floats(ATOM)),
    Case("WaveguideGeometry", rc.WaveguideGeometry, GEOMETRY, _floats(GEOMETRY)),
]


def _floats_of(result):
    """Every float in a result, and whether each int field of a dataclass holds an int."""
    if dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            if f.type in ("int", int):
                assert isinstance(value, (int, np.integer)), f"{f.name} = {value!r}"
            yield from _floats_of(value)
    elif isinstance(result, dict):
        for key, value in result.items():
            # a profile with no minimum has no position by contract
            if not (key == "min_position_um" and not result["has_minimum"]):
                yield from _floats_of(value)
    elif isinstance(result, (tuple, list)):
        for value in result:
            yield from _floats_of(value)
    elif isinstance(result, (float, complex, np.ndarray, np.number)):
        values = np.asarray(result)
        if values.dtype.kind in "fc":
            yield from values.ravel().view(float).tolist()


@pytest.mark.parametrize("case, arg", [pytest.param(c, a, id=f"{c.name}.{a}")
                                       for c in CASES for a in c.pools])
@given(data=st.data())
def test_entry_point_returns_finite_floats_or_names_the_argument(case, arg, data):
    value = data.draw(st.sampled_from(case.pools[arg]), label=arg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = case.call(**{**case.valid, arg: value})
        except (ValueError, RidgecavError) as exc:
            names = case.names.get(arg, (arg,))
            assert any(name in str(exc) for name in names), f"{type(exc).__name__}: {exc}"
            return
        floats = list(_floats_of(result))
    assert all(math.isfinite(x) for x in floats), result
