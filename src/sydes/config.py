"""Run configuration: one serializable object covering every module.

Configs round-trip through JSON.  Every source (a JSON file, a checkpoint's
config, CLI flags) goes through one strict ``merge``: unknown keys are
rejected with the full field path, values must have their field's type, and
omitted keys keep the base's values (by default the desk-scale profile).
``full_scale_profile`` switches to the full-scale resolutions and schedule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter

from .encoders import EncoderConfig
from .errors import ConfigError, SydesError
from .imaging import ImageConfig
from .losses import LossWeights
from .model import TASKS
from .training import StageConfig

# The settings of a stage section that its stage never reads.  They must
# stay 0, so that no value given there is silently ignored.
_UNREAD = {"pretrain": ("weights.cls",),
           "finetune": ("mask_ratio", "weights.rec", "weights.si", "weights.dc")}


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
        for name, unread in _UNREAD.items():
            section = getattr(self, name)
            if section.stage != name:
                raise ConfigError(f"{name}.stage must be {name!r}, got {section.stage!r}")
            for key in unread:
                value = attrgetter(key)(section)
                if value != 0:
                    raise ConfigError(f"{name}.{key} must be 0: the {name} stage never reads "
                                      f"it, got {value!r}")
        for name in ("data_dir", "out_dir"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must name a directory, got ''")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau: temperature must be positive and finite, got {self.tau}")
        for name in ("decoder_layers", "decoder_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.encoder.text_dim % self.decoder_heads:
            raise ConfigError(f"decoder_heads {self.decoder_heads} does not divide the "
                              f"decoders' width (encoder.text_dim {self.encoder.text_dim})")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return merge(cls(), d)


def full_scale_profile() -> RunConfig:
    """Full-scale profile: 448/224/16 images, 50 epochs at batch 64, the
    reference learning rates."""
    return RunConfig(
        image=ImageConfig(high_res=448, low_res=224, patch_size=16),
        pretrain=StageConfig.pretrain_defaults(epochs=50, batch_size=64),
        finetune=StageConfig.finetune_defaults(epochs=50, batch_size=64),
    )


# The types a field takes, by its declared type (a string: the config
# modules postpone annotations), else (a tuple, dict or optional field) by its
# current value's type.  An int is a number but a bool is not; a None field
# is left to the dataclass's checks.
_TAKES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,),
          "tuple": (list, tuple), "dict": (dict,), "NoneType": (object,)}


def merge(base, changes: dict, path: str = ""):
    """The frozen dataclass ``base`` with the JSON object ``changes`` merged
    in strictly: a dataclass field takes an object, merged the same way, and
    any other field a value of a type ``_TAKES`` allows, or a ConfigError."""
    if not isinstance(changes, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {changes!r}")
    section = f"{path}: " if path else ""
    declared = {f.name: f.type for f in fields(base)}
    kwargs = {}
    for key, value in changes.items():
        where = f"{path}.{key}" if path else key
        if key not in declared:
            raise ConfigError(f"unknown config key: {where}")
        current = getattr(base, key)
        kind = declared[key] if declared[key] in _TAKES else type(current).__name__
        takes = (dict,) if is_dataclass(current) else _TAKES[kind]
        if not isinstance(value, takes) or (isinstance(value, bool)
                                            and kind in ("int", "float")):
            names = " or ".join(t.__name__ for t in takes)
            raise ConfigError(f"{section}{key} must be {names}, got {value!r}")
        if is_dataclass(current):
            value = merge(current, value, where)
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return replace(base, **kwargs)
    except (TypeError, ValueError, SydesError) as e:
        raise ConfigError(f"{section}{e}") from None


def merge_json(base, path: str):
    """``merge`` the JSON object in the file ``path`` over ``base``; every
    error names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return merge(base, json.load(f))
    except OSError as e:
        raise ConfigError(f"{path}: cannot read ({e.strerror})") from None
    except ValueError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
