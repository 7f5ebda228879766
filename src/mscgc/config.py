"""Run configuration: flat dotted keys, JSON file plus CLI overrides.

Every `model.<field>` and `train.<field>` key, with its default, is read off
the `ModelConfig`/`TrainConfig` dataclass fields, so a default is written
once. Two keys do not map one to one: `train.seed` seeds both the model and
training, and `train.beta1`/`train.beta2` form `TrainConfig.betas`. Model
geometry keys (C, S, P, M) are inherited from a dataset's metadata unless
explicitly set in the file or on the command line.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .checks import FINITE, check, whole
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig


_MODEL_FIELDS = [f for f in fields(ModelConfig) if f.name != "seed"]
_TRAIN_FIELDS = [f for f in fields(TrainConfig) if f.name != "betas"]

DEFAULTS = {
    # tuple defaults are stored as lists, the form a JSON config gives back
    **{f"{prefix}.{f.name}": list(f.default) if isinstance(f.default, tuple) else f.default
       for prefix, section in (("model", _MODEL_FIELDS), ("train", _TRAIN_FIELDS))
       for f in section},
    "train.beta1": TrainConfig.betas[0],
    "train.beta2": TrainConfig.betas[1],
    "data.protocol": "within_session",
    "data.ratios": [10, 5, 5],
}

# Keys that moved; using the old name is an error that names the new one.
RENAMED = {"train.dropout": "model.dropout", "train.kernels": "model.kernels"}

# Keys filled from dataset metadata when the user does not pin them.
DATA_DERIVED = ("model.C", "model.S", "model.P", "model.M")


def _coerce(key: str, value):
    default = DEFAULTS[key]
    if isinstance(value, str) and not isinstance(default, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse value for {key}: {value!r}") from exc
    kind = type(default)
    if kind not in (bool, int, float):
        return value  # lists and names are checked by the code that takes them
    section = ModelConfig if key.startswith("model.") else TrainConfig
    interval = section.INTERVALS.get(key.split(".", 1)[1], FINITE)
    value = check(key, whole(value) if kind is int else value, kind, interval)
    return float(value) if kind is float else value


class RunConfig:
    """Effective configuration with provenance of explicitly set keys."""

    def __init__(self, values: dict, explicit: set):
        self.values = values
        self.explicit = explicit

    @classmethod
    def load(cls, config_path=None, overrides: dict | None = None) -> "RunConfig":
        cfg = cls(dict(DEFAULTS), set())
        if config_path is not None:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object of dotted keys")
            for key, value in raw.items():
                cfg.set(key, value)
        for key, value in (overrides or {}).items():
            cfg.set(key, value)
        return cfg

    def inherit_from_meta(self, meta: dict) -> None:
        for key in DATA_DERIVED:
            if key not in self.explicit:
                self.values[key] = int(meta[key.split(".", 1)[1]])

    def __getitem__(self, key: str):
        return self.values[key]

    def set(self, key: str, value) -> None:
        if key in RENAMED:
            raise ConfigError(f"config key {key!r} was renamed to {RENAMED[key]!r}")
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = _coerce(key, value)
        self.explicit.add(key)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: self.values[f"model.{f.name}"] for f in _MODEL_FIELDS},
                           seed=self.values["train.seed"])

    def adopt_model_config(self, model_cfg: ModelConfig) -> None:
        """Take every key that feeds `ModelConfig` (`model.*` and `train.seed`)
        from `model_cfg`, e.g. a checkpoint's; an explicitly set key that
        differs from it is an error."""
        pairs = [(f"model.{f.name}", getattr(model_cfg, f.name)) for f in _MODEL_FIELDS]
        for key, value in pairs + [("train.seed", model_cfg.seed)]:
            value = list(value) if isinstance(value, tuple) else value
            if key in self.explicit and self.values[key] != value:
                raise ConfigError(f"{key} is {self.values[key]!r} here but {value!r} in the checkpoint")
            self.values[key] = value

    def train_config(self) -> TrainConfig:
        v = self.values
        return TrainConfig(**{f.name: v[f"train.{f.name}"] for f in _TRAIN_FIELDS},
                           betas=(v["train.beta1"], v["train.beta2"]))

    def echo(self, path, extra: dict | None = None) -> dict:
        payload = dict(sorted(self.values.items()))
        if extra:
            payload.update(extra)
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                              encoding="utf-8")
        return payload


def parse_override_args(argv):
    """Split argv into (--key=value dotted overrides, remaining args)."""
    overrides = {}
    rest = []
    for arg in argv:
        if arg.startswith("--") and "=" in arg and "." in arg.split("=", 1)[0]:
            key, value = arg[2:].split("=", 1)
            overrides[key] = value
        else:
            rest.append(arg)
    return overrides, rest
