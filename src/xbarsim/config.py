"""INI configuration loading: shipped presets plus user overrides.

Presets live in ``xbarsim/presets/`` (models.ini, devices.ini,
platform.ini). A user scenario file may carry [model], [device],
[tiles], [softmax_unit], [digital], [cost], [token_pruning] and
[noise] sections whose keys override the presets; [model] / [device]
may also name a preset via ``preset = DeiT-S``. Every section of the file
is checked when it is loaded, whether or not a command reads it: any
other section, any key the target parameters do not have, a value of the
wrong type and a ``preset`` that names no shipped preset are rejected.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .cost import CostOptions, SoftmaxUnitParams
from .mapping import DeviceParams, TileConfig
from .workload import ModelConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False, "on": True, "off": False}
_TYPE_NAMES = {"int": int, "float": float, "bool": bool, "str": str}

_PRUNING_KEYS = ("predictor_energy_mj", "predictor_delay_ms", "predictor_area_mm2")


def _parse(value: str, target_type: type):
    if target_type is bool:
        try:
            return _BOOL[value.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {value!r}") from None
    if target_type is int:
        number = float(value)  # tolerate 100e3 style
        if not number.is_integer():
            raise ValueError(f"not an integer: {value!r}")
        return int(number)
    if target_type is float:
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"not a finite number: {value!r}")
        return number
    return target_type(value) if isinstance(target_type, type) else value


def _schema(cls) -> dict:
    """Field name -> type of a dataclass whose annotations are strings."""
    return {f.name: _TYPE_NAMES.get(f.type, f.type) for f in fields(cls)}


# the keys of each section and their types, in the order the unknown-section
# error lists them; a user's [model] or [device] may also name a preset
_SECTIONS = {
    "model": {**_schema(ModelConfig), "preset": str},
    "device": {**_schema(DeviceParams), "preset": str},
    "tiles": _schema(TileConfig),
    "softmax_unit": _schema(SoftmaxUnitParams),
    "digital": _schema(CostOptions),
    "cost": _schema(CostOptions),
    "token_pruning": dict.fromkeys(_PRUNING_KEYS, float),
    "noise": {"seed": int, "multiplicative": bool},
}
_PRESET_FILES = {"model": "models.ini", "device": "devices.ini"}


def _typed_kwargs(schema: dict, raw: dict, where: str) -> dict:
    """Convert string values to the types ``schema`` gives their keys."""
    unknown = [key for key in raw if key not in schema]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    typed = {}
    for key, value in raw.items():
        try:
            typed[key] = _parse(value, schema[key])
        except ValueError as exc:
            raise ValueError(f"{key} in {where}: {exc}") from None
    return typed


def _read_ini(text: str, source: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(text, source)
    return {name: dict(parser[name]) for name in parser.sections()}


@functools.cache
def _preset(filename: str, kind: str | None = None) -> dict[str, dict]:
    """One preset file's sections, parsed and typed once, each as a ``kind``
    section (a model or device preset) or as its own name (a platform
    section); callers must not mutate them."""
    text = resources.files("xbarsim.presets").joinpath(filename).read_text()
    return {name: _typed_kwargs(_SECTIONS[kind or name], keys, f"{filename} [{name}]")
            for name, keys in _read_ini(text, filename).items()}


def _preset_keys(section: str, preset: str) -> dict:
    """The typed keys of the shipped [model] or [device] preset ``preset``."""
    presets = _preset(_PRESET_FILES[section], section)
    if preset not in presets:
        raise ValueError(f"unknown {section} preset {preset!r}; have {list(presets)}")
    return presets[preset]


def _checked_section(name: str, raw: dict, source: str) -> dict:
    """The values of a user section of file ``source``, typed by its schema;
    a [model] or [device] ``preset`` must name a shipped preset."""
    if name not in _SECTIONS:
        raise ValueError(f"unknown section [{name}] in {source}; "
                         f"allowed: {', '.join(_SECTIONS)}")
    typed = _typed_kwargs(_SECTIONS[name], raw, f"[{name}]")
    if "preset" in typed:
        _preset_keys(name, typed["preset"])
    return typed


def available_models() -> list[str]:
    return list(_preset("models.ini", "model"))


def available_devices() -> list[str]:
    return list(_preset("devices.ini", "device"))


class ScenarioConfig:
    """Presets merged with an optional user override file, every section of
    which is checked and typed here, used or not."""

    def __init__(self, user_path: str | None = None):
        self._path = user_path
        try:
            user = _read_ini(Path(user_path).read_text(), user_path) if user_path else {}
        except OSError as exc:
            raise ValueError(f"cannot read config file {user_path}: {exc.strerror}") from None
        self._user = {name: _checked_section(name, raw, user_path) for name, raw in user.items()}

    def has_section(self, name: str) -> bool:
        return name in self._user

    def _merged(self, *sections: str) -> dict:
        """Typed kwargs: the platform presets of ``sections``, then the
        user's own ``sections``, later keys winning."""
        typed = {}
        for source in (_preset("platform.ini"), self._user):
            for name in sections:
                typed.update(source.get(name, {}))
        return typed

    def preset_name(self, section: str, name: str | None = None,
                    default: str | None = None) -> str | None:
        """The [model] or [device] preset in force: ``name`` (from the
        command line), else the file's ``preset``, else ``default``. A file
        that names a different preset than ``name`` is rejected."""
        preset = self._user.get(section, {}).get("preset")
        if name is not None and preset is not None and preset != name:
            raise ValueError(f"--{section} {name} conflicts with [{section}] "
                             f"preset = {preset} in {self._path}")
        return name or preset or default

    def _named(self, section: str, name: str | None):
        """(preset name, typed preset keys under the user's keys) for [model] or [device]."""
        preset = self.preset_name(section, name)
        keys = {**(_preset_keys(section, preset) if preset else {}), **self._user.get(section, {})}
        keys.pop("preset", None)
        return preset, keys

    def model(self, name: str | None = None) -> ModelConfig:
        preset, typed = self._named("model", name)
        if preset is None and not typed:
            raise ValueError("no model named: pass --model or set [model] preset=")
        # a fully self-contained [model] section defines a custom model
        return ModelConfig(**{"name": preset or "custom", **typed})

    def device(self, name: str | None = None) -> DeviceParams:
        preset, typed = self._named("device", name)
        if preset is None:
            raise ValueError("no device named: pass --device or set [device] preset=")
        return DeviceParams(**typed)

    def tiles(self) -> TileConfig:
        return TileConfig(**self._merged("tiles"))

    def softmax(self) -> SoftmaxUnitParams:
        return SoftmaxUnitParams(**self._merged("softmax_unit"))

    def cost_options(self) -> CostOptions:
        return CostOptions(**self._merged("cost", "digital"))

    def pruning_overhead(self) -> tuple[float, float, float]:
        """(energy_mJ, delay_ms, area_mm2) of the token-pruning predictors."""
        values = self._merged("token_pruning")
        negative = [key for key in _PRUNING_KEYS if values[key] < 0]
        if negative:
            raise ValueError(f"[token_pruning] {negative[0]} must be non-negative")
        return tuple(values[key] for key in _PRUNING_KEYS)

    def noise(self) -> dict:
        return self._merged("noise")


def _with_user(section: str, overrides: dict | None) -> ScenarioConfig:
    sc = ScenarioConfig()
    if overrides:
        sc._user[section] = _checked_section(section, overrides, "the overrides")
    return sc


def load_model_config(name: str, overrides: dict | None = None) -> ModelConfig:
    return _with_user("model", overrides).model(name)


def load_device_params(name: str, overrides: dict | None = None) -> DeviceParams:
    return _with_user("device", overrides).device(name)


def load_tile_config() -> TileConfig:
    return ScenarioConfig().tiles()


def load_softmax_params() -> SoftmaxUnitParams:
    return ScenarioConfig().softmax()


def load_cost_options() -> CostOptions:
    return ScenarioConfig().cost_options()


def load_pruning_overhead() -> tuple[float, float, float]:
    return ScenarioConfig().pruning_overhead()


def load_noise_defaults() -> dict:
    return ScenarioConfig().noise()
