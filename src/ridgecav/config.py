"""Project configuration: plain-text key = value entries in named blocks.

Example::

    [waveguide]
    ridge_width_um = 4.0
    ridge_height_um = 4.0
    core_thickness_um = 4.0
    n_core = 3.155
    n_clad = 3.145
    wavelength_nm = 780.0

Each block is the frozen dataclass that validates it (`_BLOCKS`): its keys
are the dataclass fields, a key parses as int where the field is typed int
and as float otherwise, and an omitted key takes the field's default.  The
file departs from the dataclasses in three places only:

- the six geometry and index keys of `[waveguide]` are required;
- `[cavity]` defaults to the reference 300 um cavity (`_FILE_DEFAULTS`);
- `gap_round_trip_amplitude` is computed by the gap model, never read.

`[trap]` is built only when it gives `c4_J_m4` (there is no universal wall
coefficient); otherwise `ProjectConfig.trap` is None.  Unknown blocks or
keys are rejected, every value is validated before any computation runs,
and physical quantities carry their unit in the key name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import get_type_hints

from .cavity import CavitySpec
from .cqed import AtomParams
from .errors import ConfigError, require_finite
from .fields import GridSpec
from .gap import GapConfig
from .trap import TrapConfig
from .waveguide import WaveguideGeometry


@dataclass(frozen=True)
class MirrorSettings:
    n_high: float = 2.35
    n_low: float = 1.50
    pairs: int = 3

    def __post_init__(self):
        require_finite(self)
        if self.pairs < 0:
            raise ValueError(f"pairs must be >= 0, got {self.pairs}")
        for name in ("n_high", "n_low"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class BudgetSettings:
    mode_area_um2: float | None = None  # solve the mode when unset
    gap_amplitude: float | None = None  # compute from the gap model when unset
    enhancement: float = 1.0
    phase_samples: int = 360

    def __post_init__(self):
        require_finite(self)
        if self.mode_area_um2 is not None and self.mode_area_um2 <= 0:
            raise ValueError(f"mode_area_um2 must be > 0, got {self.mode_area_um2}")
        if self.gap_amplitude is not None and not 0 < self.gap_amplitude <= 1:
            raise ValueError(f"gap_amplitude must be in (0, 1], got {self.gap_amplitude}")
        if self.enhancement < 1:
            raise ValueError(f"enhancement must be >= 1, got {self.enhancement}")
        if self.phase_samples < 1:
            raise ValueError(f"phase_samples must be >= 1, got {self.phase_samples}")


_BLOCKS = {
    "waveguide": WaveguideGeometry,
    "grid": GridSpec,
    "gap": GapConfig,
    "mirror": MirrorSettings,
    "cavity": CavitySpec,
    "atom": AtomParams,
    "trap": TrapConfig,
    "budget": BudgetSettings,
}
_REQUIRED = {
    "waveguide": ("ridge_width_um", "ridge_height_um", "core_thickness_um",
                  "n_core", "n_clad", "wavelength_nm"),
}
_FILE_DEFAULTS = {"cavity": {"length_um": 300.0, "n_group": 3.50, "alpha_per_cm": 1.03}}
_COMPUTED = ("gap_round_trip_amplitude",)


@dataclass(frozen=True)
class ProjectConfig:
    geometry: WaveguideGeometry
    grid: GridSpec
    gap: GapConfig
    mirror: MirrorSettings
    cavity: CavitySpec
    atom: AtomParams
    trap: TrapConfig | None  # None when the file gives no c4_J_m4
    budget: BudgetSettings


def _parse_block(section: str, cls, items) -> dict:
    """Typed values of one block: file defaults, then the file's own keys."""
    hints = get_type_hints(cls)
    types = {
        f.name: int if hints[f.name] is int else float
        for f in fields(cls)
        if f.name not in _COMPUTED
    }
    block = dict(_FILE_DEFAULTS.get(section, {}))
    for key, raw in items:
        if key not in types:
            raise ConfigError(f"unknown key '{key}' in block [{section}]")
        try:
            block[key] = types[key](raw)
        except ValueError as exc:
            raise ConfigError(
                f"key '{section}.{key}': cannot parse '{raw}' as {types[key].__name__}"
            ) from exc
    for key in _REQUIRED.get(section, ()):
        if key not in block:
            raise ConfigError(f"missing required key '{section}.{key}'")
    return block


def load_config(path) -> ProjectConfig:
    """Parse and validate a configuration file."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    parser.optionxform = str  # keys are case-sensitive (units in names)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("expected a [block] header first", line=exc.lineno) from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"key '{exc.section}.{exc.option}' is set twice", line=exc.lineno) from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"block [{exc.section}] appears twice", line=exc.lineno) from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if exc.errors else None
        raise ConfigError(f"syntax error: {exc.message.splitlines()[0]}", line=lineno) from exc

    for section in parser.sections():
        if section not in _BLOCKS:
            raise ConfigError(f"unknown block [{section}]")
    blocks = {}
    for section, cls in _BLOCKS.items():
        items = parser.items(section) if parser.has_section(section) else ()
        values = _parse_block(section, cls, items)
        if section == "trap" and "c4_J_m4" not in values:
            blocks[section] = None
            continue
        try:
            blocks[section] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return ProjectConfig(geometry=blocks.pop("waveguide"), **blocks)
