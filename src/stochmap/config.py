"""Run configuration: a flat-section ``key = value`` text format.

Example::

    [grid]
    points = 64 64
    extents = 6.283185307179586 6.283185307179586

    [noise]
    mode = {k = [1, 0], amp = [0.0, 0.2], solenoidal = true, wave = sin}
    mode = {k = [0, 2], amp = [0.15, 0.0], solenoidal = true}
    drift = lu
    safety = 1.0

    [run]
    model = tsw
    dt = 1e-3
    n_steps = 20
    ensemble = 1
    seed = 42
    convention = lu
    nform_mode = flux
    rhs = on
    snapshot_interval = 0

    [tsw]
    kappa = 0.0
    h0 = 1.0
    theta0 = 1.0
    fcor = 0.0
    ic = gentle
    ic_amplitude = 0.02

    [output]
    directory = out

Sections are flat; keys may repeat only where noted (``mode``, ``drift_mode``).
Values: numbers, ``true``/``false``, bare words, whitespace-separated number
lists, ``[a, b]`` lists, and inline tables ``{k = [...], amp = [...]}``.
Command-line overrides use ``--set section.key=value``.

`_TABLE` is the one list of keys: ``(section, key) -> (RunConfig field, parser)``.
Every key is parsed and checked at load, and a bad one is a ``ConfigError``
``[section] key: ...``.  Integer keys reject non-integral numbers, and
`RunConfig.__post_init__` checks every choice and range, and every shape
against the grid it builds.  ``drift`` takes a word or a mode table, and each
``drift_mode`` one more table; drift tables default to ``solenoidal = false,
wave = cos``, ``mode`` tables to ``true, sin``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any

import numpy as np

from .forms import NFormMode
from .grid import Grid, TensorClass
from .maps import Convention
from .noise import ModeSpec, mode_amplitude


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# low-level text parsing

def _parse_scalar(tok: str) -> Any:
    low = tok.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        iv = int(tok)
        return iv
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _parse_value(text: str) -> Any:
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ConfigError(f"unterminated inline table: {text}")
        table: dict[str, Any] = {}
        for part in _split_top_level(text[1:-1]):
            if "=" not in part:
                raise ConfigError(f"inline table entries need key = value: {part!r}")
            key, val = part.split("=", 1)
            table[key.strip()] = _parse_value(val)
        return table
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(f"unterminated list: {text}")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(tok.strip()) for tok in inner.split(",")]
    toks = text.split()
    if len(toks) > 1:
        return [_parse_scalar(t) for t in toks]
    return _parse_scalar(text)


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur and "".join(cur).strip():
        parts.append("".join(cur))
    return parts


_REPEATABLE = {"mode", "drift_mode"}


def parse_config_text(text: str) -> dict[str, dict[str, Any]]:
    sections: dict[str, dict[str, Any]] = {}
    current: dict[str, Any] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]: {raw!r}")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        value = _parse_value(val)
        if key in _REPEATABLE:
            current.setdefault(key, []).append(value)
        elif key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        else:
            current[key] = value
    return sections


# ---------------------------------------------------------------------------
# structured configuration

_MODELS = ("tsw", "advection", "perturbation_only")
_DRIFTS = ("zero", "lu", "salt")
_TSW_ICS = ("gentle", "rest")
_SCALAR_CLASSES = (TensorClass.ZERO_FORM, TensorClass.N_FORM, TensorClass.N_VECTOR)


@dataclass
class RunConfig:
    grid_points: tuple[int, ...] = (64, 64)
    grid_extents: tuple[float, ...] | None = None

    modes: list[ModeSpec] = dc_field(default_factory=list)
    drift: str | list[ModeSpec] = "zero"
    safety: float = 1.0

    model: str = "tsw"
    dt: float = 1e-3
    n_steps: int = 10
    ensemble: int = 1
    seed: int = 0
    convention: Convention = Convention.RAW
    nform_mode: NFormMode = NFormMode.FLUX
    rhs_enabled: bool = True
    snapshot_interval: int = 0
    c_stab: float = 1.0

    tsw_kappa: float = 0.0
    tsw_h0: float = 1.0
    tsw_theta0: float = 1.0
    tsw_fcor: float = 0.0
    tsw_ic: str = "gentle"
    tsw_ic_amplitude: float = 0.02

    adv_velocity: tuple[float, ...] = (1.0, 0.0)
    adv_diffusivity: float = 0.0
    adv_ic_amplitude: float = 0.5

    scalar_tensor_class: TensorClass = TensorClass.N_FORM
    scalar_ic_amplitude: float = 0.3

    output_dir: str = "out"

    raw_text: str = ""

    def __post_init__(self):
        """The one check of choices, ranges and shapes, named by the key that sets each field."""
        grid = self.make_grid()
        dim = grid.dim
        drift_modes = [] if isinstance(self.drift, str) else self.drift
        for name, ok, need in (
            ("model", self.model in _MODELS, f"must be one of {_MODELS}"),
            ("dt", self.dt > 0, "must be positive"),
            ("n_steps", self.n_steps >= 1, "must be >= 1"),
            ("ensemble", self.ensemble >= 1, "must be >= 1"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("safety", self.safety > 0, "must be positive"),
            ("snapshot_interval", self.snapshot_interval >= 0, "must be >= 0"),
            ("c_stab", self.c_stab > 0, "must be positive"),
            ("tsw_kappa", self.tsw_kappa >= 0, "must be >= 0"),
            ("tsw_h0", self.tsw_h0 > 0, "must be positive"),
            ("tsw_theta0", self.tsw_theta0 > 0, "must be positive"),
            ("adv_diffusivity", self.adv_diffusivity >= 0, "must be >= 0"),
            ("tsw_ic", self.tsw_ic in _TSW_ICS, f"must be one of {_TSW_ICS}"),
            ("drift", not isinstance(self.drift, str) or self.drift in _DRIFTS,
             f"must be one of {_DRIFTS} or mode tables"),
            ("grid_points", self.model != "tsw" or dim == 2, "model tsw needs a 2D grid"),
            ("modes", _fits(self.modes, dim), f"each k and amp needs {dim} entries, one per grid axis"),
            ("drift", _fits(drift_modes, dim), f"each k and amp needs {dim} entries, one per grid axis"),
            ("adv_velocity", self.model != "advection" or len(self.adv_velocity) == dim,
             f"model advection needs {dim} entries, one per grid axis"),
            ("scalar_tensor_class", self.scalar_tensor_class in _SCALAR_CLASSES,
             f"must be one of {[c.value for c in _SCALAR_CLASSES]}"),
        ):
            if not ok:
                raise ConfigError(f"{_KEY_OF[name]}: {need}, got {getattr(self, name)!r}")
        for name, specs in (("modes", self.modes), ("drift", drift_modes)):
            for spec in specs:
                try:
                    mode_amplitude(grid, spec)     # a solenoidal amp parallel to k leaves nothing
                except ValueError as err:
                    raise ConfigError(f"{_KEY_OF[name]}: {err}") from err

    def make_grid(self) -> Grid:
        """The run's grid.  The points are tried with the default extents
        first, so a `Grid` error names the key at fault."""
        default = tuple(2.0 * np.pi for _ in self.grid_points)
        for name, extents in (("grid_points", default), ("grid_extents", self.grid_extents or default)):
            try:
                grid = Grid(tuple(self.grid_points), tuple(extents))
            except ValueError as err:
                raise ConfigError(f"{_KEY_OF[name]}: {err}") from err
        return grid


def _fits(modes: list[ModeSpec], dim: int) -> bool:
    return all(len(m.k) == len(m.amplitude) == dim for m in modes)


# ---------------------------------------------------------------------------
# value parsers: each raises ValueError, TypeError or OverflowError on a bad value

def _as_tuple(v) -> tuple:
    if isinstance(v, (list, tuple)):
        return tuple(v)
    return (v,)


def _int(v) -> int:
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _tuple_of(parse):
    """Parser of a whitespace or ``[a, b]`` list, or of one value as a 1-tuple."""
    return lambda v: tuple(parse(x) for x in _as_tuple(v))


def _on_off(v) -> bool:
    if v in ("on", True):
        return True
    if v in ("off", False):
        return False
    raise ValueError(f"must be on or off, got {v!r}")


def _choice(enum):
    return lambda v: enum(str(v).lower())


def _mode_table(solenoidal: bool, wave: str):
    """Parser of one ``{k = ..., amp = ..., solenoidal = ..., wave = ...}`` table."""
    def parse(table) -> ModeSpec:
        if not isinstance(table, dict):
            raise TypeError(f"expected an inline table, got {table!r}")
        unknown = set(table) - {"k", "amp", "solenoidal", "wave"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        if "k" not in table or "amp" not in table:
            raise ValueError("mode entries need k and amp")
        return ModeSpec(k=_as_tuple(table["k"]), amplitude=_as_tuple(table["amp"]),
                        solenoidal=bool(table.get("solenoidal", solenoidal)),
                        wave=str(table.get("wave", wave)))
    return parse


def _each(parse):
    """Parser of a repeatable key: one entry per occurrence."""
    return lambda entries: [parse(entry) for entry in entries]


_noise_mode = _mode_table(solenoidal=True, wave="sin")
_drift_mode = _mode_table(solenoidal=False, wave="cos")


def _drift(v) -> str | list[ModeSpec]:
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        return [_drift_mode(v)]
    raise TypeError(f"must be zero|lu|salt or an inline table, got {v!r}")


# every config key: (section, key) -> (RunConfig field, parser).  drift_mode
# follows drift, so explicit drift modes win when both are given.
_TABLE = {
    ("grid", "points"): ("grid_points", _tuple_of(_int)),
    ("grid", "extents"): ("grid_extents", _tuple_of(float)),
    ("noise", "mode"): ("modes", _each(_noise_mode)),
    ("noise", "drift"): ("drift", _drift),
    ("noise", "drift_mode"): ("drift", _each(_drift_mode)),
    ("noise", "safety"): ("safety", float),
    ("run", "model"): ("model", str),
    ("run", "dt"): ("dt", float),
    ("run", "n_steps"): ("n_steps", _int),
    ("run", "ensemble"): ("ensemble", _int),
    ("run", "seed"): ("seed", _int),
    ("run", "snapshot_interval"): ("snapshot_interval", _int),
    ("run", "c_stab"): ("c_stab", float),
    ("run", "convention"): ("convention", _choice(Convention)),
    ("run", "nform_mode"): ("nform_mode", _choice(NFormMode)),
    ("run", "rhs"): ("rhs_enabled", _on_off),
    ("tsw", "kappa"): ("tsw_kappa", float),
    ("tsw", "h0"): ("tsw_h0", float),
    ("tsw", "theta0"): ("tsw_theta0", float),
    ("tsw", "fcor"): ("tsw_fcor", float),
    ("tsw", "ic"): ("tsw_ic", str),
    ("tsw", "ic_amplitude"): ("tsw_ic_amplitude", float),
    ("advection", "velocity"): ("adv_velocity", _tuple_of(float)),
    ("advection", "diffusivity"): ("adv_diffusivity", float),
    ("advection", "ic_amplitude"): ("adv_ic_amplitude", float),
    ("scalar", "tensor_class"): ("scalar_tensor_class", _choice(TensorClass)),
    ("scalar", "ic_amplitude"): ("scalar_ic_amplitude", float),
    ("output", "directory"): ("output_dir", str),
}
# the key named in a field's range error: the first key that sets the field
_KEY_OF = {attr: f"[{sec}] {key}" for (sec, key), (attr, _) in reversed(_TABLE.items())}


def config_from_sections(sections: dict[str, dict[str, Any]], raw_text: str = "") -> RunConfig:
    unknown = set(sections) - {sec for sec, _ in _TABLE}
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    for name, table in sections.items():
        extra = set(table) - {key for sec, key in _TABLE if sec == name}
        if extra:
            raise ConfigError(f"[{name}] unknown keys {sorted(extra)}")
    kw: dict[str, Any] = {"raw_text": raw_text}
    for (sec, key), (attr, parse) in _TABLE.items():
        if key in sections.get(sec, {}):
            try:
                kw[attr] = parse(sections[sec][key])
            except (ValueError, TypeError, OverflowError) as err:
                raise ConfigError(f"[{sec}] {key}: {err}") from err
    return RunConfig(**kw)


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Parse a config file, then apply ``section.key=value`` overrides."""
    text = Path(path).read_text()
    sections = parse_config_text(text)
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {ov!r}")
        target, val = ov.split("=", 1)
        sec, key = target.split(".", 1)
        sections.setdefault(sec.strip(), {})
        if key.strip() in _REPEATABLE:
            sections[sec.strip()].setdefault(key.strip(), []).append(_parse_value(val))
        else:
            sections[sec.strip()][key.strip()] = _parse_value(val)
    echo = text
    if overrides:
        echo += "\n# overrides\n" + "\n".join(f"# {ov}" for ov in overrides) + "\n"
    return config_from_sections(sections, raw_text=echo)
