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
An unknown section or key is a ``ConfigError``.
Values: numbers, ``true``/``false``, bare words, whitespace-separated number
lists, ``[a, b]`` lists, and inline tables ``{k = [...], amp = [...]}``.
Command-line overrides use ``--set section.key=value``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any

import numpy as np

from .forms import NFormMode
from .grid import Grid, TensorClass
from .maps import Convention
from .noise import ModeSpec


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


@dataclass
class RunConfig:
    grid_points: tuple[int, ...] = (64, 64)
    grid_extents: tuple[float, ...] | None = None

    modes: list[ModeSpec] = dc_field(default_factory=list)
    drift: str | list[dict] = "zero"
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
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.ensemble < 1:
            raise ConfigError(f"ensemble must be >= 1, got {self.ensemble}")
        if isinstance(self.drift, str) and self.drift not in _DRIFTS:
            raise ConfigError(f"drift must be one of {_DRIFTS} or explicit mode entries")

    def make_grid(self) -> Grid:
        extents = self.grid_extents
        if extents is None:
            extents = tuple(2.0 * np.pi for _ in self.grid_points)
        try:
            return Grid(tuple(self.grid_points), tuple(extents))
        except ValueError as err:
            raise ConfigError(str(err)) from err


def _as_tuple(v) -> tuple:
    if isinstance(v, (list, tuple)):
        return tuple(v)
    return (v,)


def _mode_spec_from_table(table: dict, where: str) -> ModeSpec:
    if not isinstance(table, dict):
        raise ConfigError(f"{where}: expected an inline table, got {table!r}")
    unknown = set(table) - {"k", "amp", "solenoidal", "wave"}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if "k" not in table or "amp" not in table:
        raise ConfigError(f"{where}: mode entries need k and amp")
    try:
        return ModeSpec(
            k=_as_tuple(table["k"]),
            amplitude=_as_tuple(table["amp"]),
            solenoidal=bool(table.get("solenoidal", True)),
            wave=str(table.get("wave", "sin")),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


# the keys each section reads
_KEYS = {
    "grid": {"points", "extents"},
    "noise": {"mode", "drift", "drift_mode", "safety"},
    "run": {"model", "dt", "n_steps", "ensemble", "seed", "snapshot_interval", "c_stab",
            "convention", "nform_mode", "rhs"},
    "tsw": {"kappa", "h0", "theta0", "fcor", "ic", "ic_amplitude"},
    "advection": {"velocity", "diffusivity", "ic_amplitude"},
    "scalar": {"tensor_class", "ic_amplitude"},
    "output": {"directory"},
}


def config_from_sections(sections: dict[str, dict[str, Any]], raw_text: str = "") -> RunConfig:
    unknown = set(sections) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    for name, table in sections.items():
        extra = set(table) - _KEYS[name]
        if extra:
            raise ConfigError(f"[{name}] unknown keys {sorted(extra)}")
    kw: dict[str, Any] = {"raw_text": raw_text}
    g = sections.get("grid", {})
    if "points" in g:
        kw["grid_points"] = tuple(int(n) for n in _as_tuple(g["points"]))
    if "extents" in g:
        kw["grid_extents"] = tuple(float(x) for x in _as_tuple(g["extents"]))
    n = sections.get("noise", {})
    kw["modes"] = [
        _mode_spec_from_table(t, f"[noise] mode #{i + 1}") for i, t in enumerate(n.get("mode", []))
    ]
    drift = n.get("drift", "zero")
    if isinstance(drift, dict):
        kw["drift"] = [drift]
    elif isinstance(drift, str):
        kw["drift"] = drift
    else:
        raise ConfigError(f"[noise] drift must be zero|lu|salt or an inline table, got {drift!r}")
    if "drift_mode" in n:
        kw["drift"] = list(n["drift_mode"])
    if "safety" in n:
        kw["safety"] = float(n["safety"])
    r = sections.get("run", {})
    for key, attr, conv in (
        ("model", "model", str),
        ("dt", "dt", float),
        ("n_steps", "n_steps", int),
        ("ensemble", "ensemble", int),
        ("seed", "seed", int),
        ("snapshot_interval", "snapshot_interval", int),
        ("c_stab", "c_stab", float),
    ):
        if key in r:
            kw[attr] = conv(r[key])
    if "convention" in r:
        try:
            kw["convention"] = Convention(str(r["convention"]).lower())
        except ValueError as err:
            raise ConfigError(f"[run] convention: {err}") from err
    if "nform_mode" in r:
        try:
            kw["nform_mode"] = NFormMode(str(r["nform_mode"]).lower())
        except ValueError as err:
            raise ConfigError(f"[run] nform_mode: {err}") from err
    if "rhs" in r:
        v = r["rhs"]
        if v in ("on", True):
            kw["rhs_enabled"] = True
        elif v in ("off", False):
            kw["rhs_enabled"] = False
        else:
            raise ConfigError(f"[run] rhs must be on or off, got {v!r}")
    t = sections.get("tsw", {})
    for key, attr in (("kappa", "tsw_kappa"), ("h0", "tsw_h0"), ("theta0", "tsw_theta0"),
                      ("fcor", "tsw_fcor"), ("ic_amplitude", "tsw_ic_amplitude")):
        if key in t:
            kw[attr] = float(t[key])
    if "ic" in t:
        if t["ic"] not in ("gentle", "rest"):
            raise ConfigError(f"[tsw] ic must be gentle or rest, got {t['ic']!r}")
        kw["tsw_ic"] = str(t["ic"])
    a = sections.get("advection", {})
    if "velocity" in a:
        kw["adv_velocity"] = tuple(float(x) for x in _as_tuple(a["velocity"]))
    if "diffusivity" in a:
        kw["adv_diffusivity"] = float(a["diffusivity"])
    if "ic_amplitude" in a:
        kw["adv_ic_amplitude"] = float(a["ic_amplitude"])
    s = sections.get("scalar", {})
    if "tensor_class" in s:
        try:
            kw["scalar_tensor_class"] = TensorClass(str(s["tensor_class"]).lower())
        except ValueError as err:
            raise ConfigError(f"[scalar] tensor_class: {err}") from err
    if "ic_amplitude" in s:
        kw["scalar_ic_amplitude"] = float(s["ic_amplitude"])
    o = sections.get("output", {})
    if "directory" in o:
        kw["output_dir"] = str(o["directory"])
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
