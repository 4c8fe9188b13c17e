"""RunConfig serialization: strict keys, defaults, and round trips."""

import json
from dataclasses import replace

import pytest

from sydes.config import RunConfig, full_scale_profile, merge, merge_json
from sydes.errors import ConfigError


def test_defaults_are_desk_scale():
    cfg = RunConfig()
    assert cfg.image.high_res == 64
    assert cfg.image.patches_per_image == 16
    assert cfg.pretrain.mask_ratio == 0.75
    assert cfg.finetune.mask_ratio == 0.0
    assert cfg.pretrain.weights.rec == 1.0
    assert cfg.finetune.weights.itc == pytest.approx(0.4)
    assert cfg.tau == 0.07


def test_reference_stage_hyperparameters():
    cfg = full_scale_profile()
    assert cfg.image.patches_per_image == 196
    assert cfg.pretrain.epochs == 50 and cfg.pretrain.batch_size == 64
    assert cfg.pretrain.lrs == {"image_encoder": 5e-6, "text_encoder": 5e-5,
                                "image_decoder": 1e-4, "aggregator": 1e-4}
    assert cfg.finetune.lrs == {"text_encoder": 1e-4, "text_decoder": 2e-4,
                                "heads": 1e-4}
    assert cfg.pretrain.warmup_frac == pytest.approx(0.15)
    assert cfg.finetune.warmup_frac == pytest.approx(0.10)


def test_round_trip_json(tmp_path):
    cfg = RunConfig(seed=11, task="desire", tau=0.1)
    path = str(tmp_path / "cfg.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg.to_dict(), f)
    assert merge_json(RunConfig(), path) == cfg


def test_round_trip_dict_nested():
    cfg = full_scale_profile()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_dict({"bogus": 1})


def test_unknown_nested_key_names_path():
    with pytest.raises(ConfigError, match="pretrain.turbo"):
        RunConfig.from_dict({"pretrain": {"turbo": True}})


def test_partial_override_keeps_defaults():
    cfg = RunConfig.from_dict({"pretrain": {"epochs": 3}})
    assert cfg.pretrain.epochs == 3
    assert cfg.pretrain.mask_ratio == 0.75
    assert cfg.finetune.epochs == RunConfig().finetune.epochs


def test_invalid_task_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"task": "sarcasm"})


def test_invalid_image_geometry_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"image": {"high_res": 100}})


def test_weights_override():
    cfg = RunConfig.from_dict({"finetune": {"weights": {"itc": 0.0}}})
    assert cfg.finetune.weights.itc == 0.0
    assert cfg.finetune.weights.cls == 1.0


def test_integer_rates_load_as_floats():
    lrs = {"image_encoder": 1, "text_encoder": 2, "image_decoder": 3, "aggregator": 4}
    cfg = RunConfig.from_dict({"pretrain": {"lrs": lrs}})
    assert all(type(v) is float for v in cfg.pretrain.lrs.values())
    assert cfg.to_dict()["pretrain"]["lrs"] == {k: float(v) for k, v in lrs.items()}


def test_merge_keeps_what_it_is_not_given():
    base = full_scale_profile()
    cfg = merge(base, {"pretrain": {"weights": {"si": 0.0}}, "tau": 1})
    assert cfg.pretrain.weights == replace(base.pretrain.weights, si=0.0)
    assert cfg.pretrain.epochs == 50 and cfg.image == base.image and cfg.tau == 1
    assert merge(base, {}) == base


def test_merge_types_follow_the_declaration_not_the_value():
    """A float field that holds an int still takes any number from a later
    source, and an int field still refuses a float."""
    cfg = RunConfig.from_dict({"tau": 1, "pretrain": {"mask_ratio": 0},
                               "finetune": {"weights": {"itc": 1}}})
    cfg = merge(cfg, {"tau": 0.5, "pretrain": {"mask_ratio": 0.5},
                      "finetune": {"weights": {"itc": 0.0}}})
    assert (cfg.tau, cfg.pretrain.mask_ratio, cfg.finetune.weights.itc) == (0.5, 0.5, 0.0)
    with pytest.raises(ConfigError, match="seed must be int, got 1.0"):
        merge(cfg, {"seed": 1.0})
    with pytest.raises(ConfigError, match="tau must be int or float, got True"):
        merge(RunConfig.from_dict({"tau": 1}), {"tau": True})


@pytest.mark.parametrize("changes, message", [
    ({"tau": True}, "tau must be int or float, got True"),
    ({"seed": False}, "seed must be int, got False"),
    ({"rec_squared": 1}, "rec_squared must be bool, got 1"),
    ({"finetune": {"weights": {"itc": None}}}, "finetune.weights: itc must be int or float"),
    ({"image": {"normalize_mean": [0.5, 0.5], "normalize_std": [1, 1, 1]}},
     "image: normalize_mean must be three numbers"),
])
def test_value_must_take_the_fields_type(changes, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(changes)
