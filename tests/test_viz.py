"""Export plumbing: triptych assembly, attention CSV grids, and optional
pixel normalization."""

import json
import os

import numpy as np
import pytest

from sydes.errors import ContractError
from sydes.gradcheck import tiny_setup
from sydes.imaging import ImageConfig, sample_mask
from sydes.model import group_major_masks
from sydes.tensor import RngState, no_grad
from sydes.viz import export_attention, reconstruction_triptych


@pytest.fixture
def decoded():
    model, batch, image_cfg = tiny_setup(RngState(61))
    p = image_cfg.patches_per_image
    specs = [[sample_mask(p, 0.5, RngState(62).split(f"{i}/{n}")) for n in range(4)]
             for i in range(batch.size)]
    kept, masked = group_major_masks(specs)
    with no_grad():
        pixels = model.image_decoder.pixel_head(
            model.pretrain_embeddings(batch, kept, masked)[0]).data
    return batch, image_cfg, kept, masked, pixels


def test_triptych_layout(decoded):
    batch, image_cfg, kept, masked, pixels = decoded
    sub_patches = batch.sub_patches()
    trip = reconstruction_triptych(sub_patches, pixels, kept, masked,
                                   0, batch.size, image_cfg)
    h = image_cfg.high_res
    assert trip.shape == (h, 3 * h, 3)
    # left panel reproduces the source exactly
    from sydes.imaging import unpatchify
    quads = [unpatchify(sub_patches[0, n], image_cfg) for n in range(4)]
    top = np.concatenate(quads[:2], axis=1)
    bottom = np.concatenate(quads[2:], axis=1)
    assert np.array_equal(trip[:, :h], np.concatenate([top, bottom], axis=0))
    # middle panel differs from the original exactly where patches are masked
    assert not np.array_equal(trip[:, h:2 * h], trip[:, :h])


def test_attention_export_grids(tmp_path, decoded):
    batch, *_ = decoded
    weights = RngState(63).uniform((batch.size, 2, 5, 7))
    weights /= weights.sum(-1, keepdims=True)
    paths = export_attention(str(tmp_path), "sample-x", weights, 0)
    assert len(paths) == 2
    grid = np.loadtxt(paths[0], delimiter=",")
    assert grid.shape == (5, 7)
    assert np.allclose(grid.sum(-1), 1.0, atol=1e-6)
    assert os.path.basename(paths[1]) == "attention-sample-x-head1.csv"


class TestNormalization:
    def test_off_by_default_is_identity(self):
        cfg = ImageConfig()
        img = RngState(64).uniform((4, 4, 3))
        assert np.array_equal(cfg.normalize(img), img)
        assert np.array_equal(cfg.denormalize(img), img)

    def test_round_trip(self):
        cfg = ImageConfig(normalize_mean=(0.5, 0.4, 0.3),
                          normalize_std=(0.2, 0.25, 0.3))
        img = RngState(65).uniform((4, 4, 3))
        assert np.allclose(cfg.denormalize(cfg.normalize(img)), img, atol=1e-12)

    def test_normalized_values(self):
        cfg = ImageConfig(normalize_mean=(0.5, 0.5, 0.5),
                          normalize_std=(0.5, 0.5, 0.5))
        out = cfg.normalize(np.full((2, 2, 3), 1.0))
        assert np.allclose(out, 1.0)
        out = cfg.normalize(np.zeros((2, 2, 3)))
        assert np.allclose(out, -1.0)

    def test_mean_without_std_rejected(self):
        with pytest.raises(ContractError):
            ImageConfig(normalize_mean=(0.5, 0.5, 0.5))

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ContractError):
            ImageConfig(normalize_mean=(0.5, 0.5, 0.5),
                        normalize_std=(0.5, 0.0, 0.5))

    def test_config_json_round_trip(self, tmp_path):
        from sydes.config import RunConfig, merge_json
        cfg = RunConfig.from_dict({"image": {"normalize_mean": [0.5, 0.4, 0.3],
                                             "normalize_std": [0.2, 0.2, 0.2]}})
        assert cfg.image.normalize_mean == (0.5, 0.4, 0.3)
        path = str(tmp_path / "c.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg.to_dict(), f)
        assert merge_json(RunConfig(), path) == cfg
