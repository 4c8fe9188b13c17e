"""Run configuration: one serializable object covering every module.

Configs round-trip through JSON; unknown keys are rejected with the full
field path, and omitted keys fall back to the documented defaults (the
desk-scale profile).  ``full_scale_profile`` switches to the full-scale
resolutions and schedule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .encoders import EncoderConfig
from .errors import ConfigError, SydesError
from .imaging import ImageConfig
from .losses import LossWeights
from .model import TASKS
from .training import StageConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    task: str = "sentiment"
    tau: float = 0.07
    rec_squared: bool = True
    entropy_sign: float = 1.0
    decoder_layers: int = 2
    decoder_heads: int = 4
    data_dir: str = "data"
    out_dir: str = "runs"
    image: ImageConfig = field(default_factory=ImageConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pretrain: StageConfig = field(default_factory=StageConfig.pretrain_defaults)
    finetune: StageConfig = field(default_factory=StageConfig.finetune_defaults)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task: unknown task {self.task!r}; expected one of {TASKS}")
        if self.tau <= 0:
            raise ConfigError(f"tau: temperature must be positive, got {self.tau}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pretrain"]["frozen"] = list(d["pretrain"]["frozen"])
        d["finetune"]["frozen"] = list(d["finetune"]["frozen"])
        return d

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return _run_config_from_dict(d)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path, encoding="utf-8") as f:
            try:
                d = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: invalid JSON ({e})") from None
        return cls.from_dict(d)


def full_scale_profile() -> RunConfig:
    """Full-scale profile: 448/224/16 images, 50 epochs at batch 64, the
    reference learning rates."""
    return RunConfig(
        image=ImageConfig(high_res=448, low_res=224, patch_size=16),
        pretrain=StageConfig.pretrain_defaults(epochs=50, batch_size=64),
        finetune=StageConfig.finetune_defaults(epochs=50, batch_size=64),
    )


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown config key: {where}")


def _replace(default, d: dict, path: str):
    """``replace(default, **d)``, with a rejected value reported as a
    ConfigError under ``path``."""
    try:
        return replace(default, **d)
    except (TypeError, ValueError, SydesError) as e:
        raise ConfigError(f"{path}: {e}" if path else str(e)) from None


def _merge_dataclass(default, d: dict, path: str):
    """Replace fields of a frozen dataclass from a dict, strictly."""
    _check_keys(d, vars(default), path)
    return _replace(default, d, path)


def _stage_from_dict(default: StageConfig, d: dict, path: str) -> StageConfig:
    d = dict(d)
    _check_keys(d, vars(default), path)
    if "weights" in d:
        d["weights"] = _merge_dataclass(default.weights, d["weights"], f"{path}.weights")
    if "frozen" in d:
        d["frozen"] = tuple(d["frozen"])
    if "lrs" in d:
        lrs = d["lrs"]
        if not isinstance(lrs, dict) or not all(isinstance(v, (int, float)) for v in lrs.values()):
            raise ConfigError(f"{path}.lrs: expected a name->rate mapping")
        d["lrs"] = {k: float(v) for k, v in lrs.items()}
    return _replace(default, d, path)


def _run_config_from_dict(d: dict) -> RunConfig:
    default = RunConfig()
    _check_keys(d, vars(default), "")
    kwargs = dict(d)
    if "image" in kwargs:
        image = dict(kwargs["image"])
        for key in ("normalize_mean", "normalize_std"):
            if isinstance(image.get(key), list):
                image[key] = tuple(image[key])
        kwargs["image"] = _merge_dataclass(default.image, image, "image")
    if "encoder" in kwargs:
        kwargs["encoder"] = _merge_dataclass(default.encoder, kwargs["encoder"], "encoder")
    if "pretrain" in kwargs:
        kwargs["pretrain"] = _stage_from_dict(default.pretrain, kwargs["pretrain"], "pretrain")
    if "finetune" in kwargs:
        kwargs["finetune"] = _stage_from_dict(default.finetune, kwargs["finetune"], "finetune")
    return _replace(default, kwargs, "")
