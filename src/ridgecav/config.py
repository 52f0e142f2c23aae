"""Project configuration: key = value entries in named blocks, as in configs/reference.cfg.

Each block is the frozen dataclass that validates it (`_BLOCKS`): its keys
are the dataclass fields, a key parses as int where the field is typed int
and as float otherwise, and an omitted key takes the field's default.  The
file departs from the dataclasses in three places only:

- the six geometry and index keys of `[waveguide]` are required;
- `[cavity]` defaults to the reference 300 um cavity (`_FILE_DEFAULTS`);
- `gap_round_trip_amplitude` is computed by the gap model, never read.

`[trap]` is built only when it gives `c4_J_m4`.  Unknown blocks or keys are
rejected, and every value is validated before any computation runs.

A value outside its field's declared domain (`errors.check_fields`) fails
as `[block] key must be <op> <bound>, got <value>`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .cavity import CavitySpec
from .cqed import AtomParams
from .errors import ConfigError, _field_rules, check_fields
from .fields import GridSpec
from .gap import GapConfig
from .trap import TrapConfig
from .waveguide import WaveguideGeometry


@dataclass(frozen=True)
class MirrorSettings:
    n_high: float = field(default=2.35, metadata={"ge": 1})
    n_low: float = field(default=1.50, metadata={"ge": 1})
    pairs: int = field(default=3, metadata={"ge": 0})

    __post_init__ = check_fields


@dataclass(frozen=True)
class BudgetSettings:
    # when unset, the mode solve gives mode_area_um2 and the gap model gap_amplitude
    mode_area_um2: float | None = field(default=None, metadata={"gt": 0})
    gap_amplitude: float | None = field(default=None, metadata={"gt": 0, "le": 1})
    enhancement: float = field(default=1.0, metadata={"ge": 1})
    phase_samples: int = field(default=360, metadata={"ge": 1})

    __post_init__ = check_fields


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
    types = {name: int if integer else float
             for name, integer, *_ in _field_rules(cls) if name not in _COMPUTED}
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
