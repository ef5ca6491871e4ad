"""INI configuration loading: shipped presets plus user overrides.

Presets live in ``xbarsim/presets/`` (models.ini, devices.ini,
platform.ini). A user scenario file may carry [model], [device],
[tiles], [softmax_unit], [digital], [cost], [token_pruning] and
[noise] sections whose keys override the presets; [model] / [device]
may also name a preset via ``preset = DeiT-S``. Any other section, and
any key the target parameters do not have, is rejected.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .cost import CostOptions, SoftmaxUnitParams
from .mapping import DeviceKind, DeviceParams, TileConfig
from .workload import ModelConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False, "on": True, "off": False}
_TYPE_NAMES = {"int": int, "float": float, "bool": bool, "str": str,
               "DeviceKind": DeviceKind}

_USER_SECTIONS = ("model", "device", "tiles", "softmax_unit", "digital", "cost",
                 "token_pruning", "noise")

_PRUNING_KEYS = ("predictor_energy_mj", "predictor_delay_ms", "predictor_area_mm2")
_PRUNING = dict.fromkeys(_PRUNING_KEYS, float)
_NOISE = {"seed": int, "multiplicative": bool}


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
def _preset(filename: str) -> dict[str, dict[str, str]]:
    """One preset file's sections, parsed once; callers must not mutate them."""
    text = resources.files("xbarsim.presets").joinpath(filename).read_text()
    return _read_ini(text, filename)


def available_models() -> list[str]:
    return list(_preset("models.ini"))


def available_devices() -> list[str]:
    return list(_preset("devices.ini"))


class ScenarioConfig:
    """Presets merged with an optional user override file."""

    def __init__(self, user_path: str | None = None):
        try:
            self._user = _read_ini(Path(user_path).read_text(), user_path) if user_path else {}
        except OSError as exc:
            raise ValueError(f"cannot read config file {user_path}: {exc.strerror}") from None
        unknown = [name for name in self._user if name not in _USER_SECTIONS]
        if unknown:
            raise ValueError(
                f"unknown section [{unknown[0]}] in {user_path}; "
                f"allowed: {', '.join(_USER_SECTIONS)}"
            )

    def has_section(self, name: str) -> bool:
        return name in self._user

    def _merged(self, schema: dict, *sections: str) -> dict:
        """Typed kwargs: the platform presets of ``sections``, then the
        user's own ``sections``, later keys winning."""
        raw = {}
        for source in (_preset("platform.ini"), self._user):
            for name in sections:
                raw.update(source.get(name, {}))
        return _typed_kwargs(schema, raw, "/".join(f"[{s}]" for s in sections))

    def _named(self, section: str, filename: str, name: str | None):
        """(preset name, preset keys under the user's keys) for [model] or [device]."""
        user = dict(self._user.get(section, {}))
        preset = user.pop("preset", None) or name
        if preset is None:
            return None, user
        presets = _preset(filename)
        if preset not in presets:
            raise ValueError(f"unknown {section} preset {preset!r}; have {list(presets)}")
        return preset, {**presets[preset], **user}

    def model(self, name: str | None = None) -> ModelConfig:
        preset, raw = self._named("model", "models.ini", name)
        if preset is None and not raw:
            raise ValueError("no model named: pass --model or set [model] preset=")
        # a fully self-contained [model] section defines a custom model
        raw = {"name": preset or "custom", **raw}
        return ModelConfig(**_typed_kwargs(_schema(ModelConfig), raw, "[model]"))

    def device(self, name: str | None = None) -> DeviceParams:
        preset, raw = self._named("device", "devices.ini", name)
        if preset is None:
            raise ValueError("no device named: pass --device or set [device] preset=")
        return DeviceParams(**_typed_kwargs(_schema(DeviceParams), raw, "[device]"))

    def tiles(self) -> TileConfig:
        return TileConfig(**self._merged(_schema(TileConfig), "tiles"))

    def softmax(self) -> SoftmaxUnitParams:
        return SoftmaxUnitParams(**self._merged(_schema(SoftmaxUnitParams), "softmax_unit"))

    def cost_options(self) -> CostOptions:
        return CostOptions(**self._merged(_schema(CostOptions), "cost", "digital"))

    def pruning_overhead(self) -> tuple[float, float, float]:
        """(energy_mJ, delay_ms, area_mm2) of the token-pruning predictors."""
        values = self._merged(_PRUNING, "token_pruning")
        negative = [key for key in _PRUNING_KEYS if values[key] < 0]
        if negative:
            raise ValueError(f"[token_pruning] {negative[0]} must be non-negative")
        return tuple(values[key] for key in _PRUNING_KEYS)

    def noise(self) -> dict:
        return self._merged(_NOISE, "noise")


def _with_user(section: str, overrides: dict | None) -> ScenarioConfig:
    sc = ScenarioConfig()
    if overrides:
        sc._user[section] = dict(overrides)
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
