"""Decoder contracts: mask-token insertion, gate saturation, reconstruction
placement, fused-text shapes, cross-modal liveness, and the task heads."""

import numpy as np
import pytest

from sydes import losses
from sydes import tensor as T
from sydes.decoders import ClassifierHead, GatedFusion, pool_text
from sydes.errors import ContractError
from sydes.gradcheck import tiny_setup
from sydes.imaging import sample_mask, unpatchify
from sydes.model import TASK_CLASSES, group_major_masks
from sydes.tensor import RngState, Tensor


@pytest.fixture
def setup():
    model, batch, image_cfg = tiny_setup(RngState(21))
    return model, batch, image_cfg


def masks_for(batch, image_cfg, ratio, seed=30):
    p = image_cfg.patches_per_image
    specs = [[sample_mask(p, ratio, RngState(seed).split(f"{i}/{n}"))
              for n in range(4)] for i in range(batch.size)]
    return group_major_masks(specs)


def predicted_pixels(model, batch, kept, masked):
    """The pixel head over the decoder's mask rows, off the tape: [4B, mP, patch_dim]."""
    with T.no_grad():
        mask_rows = model.pretrain_embeddings(batch, kept, masked)[0]
        return model.image_decoder.pixel_head(mask_rows).data


class TestBuildInput:
    def test_row_counts_m075_p16(self):
        """m=0.75, P=16: rows = 12 mask tokens + 4 visible + CLS = 17."""
        from sydes.decoders import ImageDecoder

        dec = ImageDecoder(image_dim=8, dim=8, patch_count=16, patch_dim=12,
                           layers=1, heads=2)
        dec.initialize(RngState(1))
        spec = sample_mask(16, 0.75, RngState(2))
        visible = Tensor(RngState(3).normal((1, 5, 8)))
        out = dec.build_input(visible, spec.kept[None, :], spec.masked[None, :])
        assert out.shape == (1, 17, 8)

    def test_m0_degenerates_to_projection(self, setup):
        model, batch, image_cfg = setup
        p = image_cfg.patches_per_image
        dec = model.image_decoder
        kept = np.arange(p, dtype=np.int64)[None, :]
        masked = np.zeros((1, 0), dtype=np.int64)
        visible = Tensor(RngState(4).normal((1, p + 1, 8)))
        out = dec.build_input(visible, kept, masked)
        assert out.shape == (1, p + 1, dec.pos.shape[1])

    def test_mask_rows_identical_before_positions(self, setup):
        """All mask-token rows are copies of one learned vector; they differ
        only by the positional embedding."""
        model, _, image_cfg = setup
        dec = model.image_decoder
        p = image_cfg.patches_per_image
        spec = sample_mask(p, 0.5, RngState(5))
        visible = Tensor(RngState(6).normal((1, spec.kept.size + 1, 8)))
        saved = dec.pos.data.copy()
        dec.pos.data = np.zeros_like(saved)
        out = dec.build_input(visible, spec.kept[None, :], spec.masked[None, :])
        n_masked = spec.masked.size
        first = out.data[0, 0]
        for r in range(1, n_masked):
            assert np.array_equal(out.data[0, r], first)
        dec.pos.data = saved

    def test_inconsistent_spec_rejected(self, setup):
        model, _, image_cfg = setup
        p = image_cfg.patches_per_image
        visible = Tensor(np.zeros((1, 3, 8)))
        with pytest.raises(ContractError):
            model.image_decoder.build_input(
                visible, np.arange(3, dtype=np.int64)[None, :],
                np.zeros((1, 1), dtype=np.int64))


class TestGatedFusion:
    def make(self, dim=6, rows=4):
        fusion = GatedFusion(dim)
        fusion.initialize(RngState(7))
        rows_t = Tensor(RngState(8).normal((2, rows, dim)))
        pooled = Tensor(RngState(9).normal((2, 1, dim)))
        return fusion, rows_t, pooled

    def test_gate_saturated_high_returns_rows(self):
        fusion, rows, pooled = self.make()
        fusion.gate.weight.data = np.zeros_like(fusion.gate.weight.data)
        fusion.gate.bias.data = np.array([1e3])
        out = fusion(rows, pooled)
        assert np.allclose(out.data, rows.data, atol=1e-12)

    def test_gate_saturated_low_returns_pooled(self):
        fusion, rows, pooled = self.make()
        fusion.gate.weight.data = np.zeros_like(fusion.gate.weight.data)
        fusion.gate.bias.data = np.array([-1e3])
        out = fusion(rows, pooled)
        assert np.allclose(out.data, np.broadcast_to(pooled.data, out.shape), atol=1e-12)

    def test_zero_logits_blend_half(self):
        fusion, rows, pooled = self.make()
        fusion.gate.weight.data = np.zeros_like(fusion.gate.weight.data)
        fusion.gate.bias.data = np.array([0.0])
        out = fusion(rows, pooled)
        expect = 0.5 * rows.data + 0.5 * np.broadcast_to(pooled.data, out.shape)
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_pool_text_ignores_pads(self):
        w = Tensor(RngState(10).normal((1, 5, 6)))
        real = np.array([[True, True, False, False, True]])
        pooled = pool_text(w, real).data
        assert np.allclose(pooled[0, 0], w.data[0, [0, 1, 4]].mean(axis=0))


class TestDecodeImage:
    def test_output_counts_and_z_shape(self, setup):
        model, batch, image_cfg = setup
        kept, masked = masks_for(batch, image_cfg, 0.5)
        pixels = predicted_pixels(model, batch, kept, masked)
        n_masked = masked.shape[1]
        assert pixels.shape == (4 * batch.size, n_masked, image_cfg.patch_dim)
        W = model.encode_text(batch.ids, batch.real)
        _, z = model.image_decoder(model.encode_subs(batch, kept), kept, masked,
                                   T.concat([W] * 4, axis=0), np.tile(batch.real, (4, 1)))
        assert z.shape == (4 * batch.size, model.enc_cfg.text_dim)

    def test_scatter_back_completes_grid(self, setup):
        """Predicted rows land at the original masked indices; together with
        the kept originals they tile a full patch grid."""
        model, batch, image_cfg = setup
        kept, masked = masks_for(batch, image_cfg, 0.5)
        pixels = predicted_pixels(model, batch, kept, masked)
        p = image_cfg.patches_per_image
        b = batch.size
        sub_patches = batch.sub_patches()
        for n in range(4):
            for i in range(b):
                g = n * b + i
                grid = np.full((p, image_cfg.patch_dim), np.nan)
                grid[kept[g]] = sub_patches[i, n][kept[g]]
                grid[masked[g]] = pixels[g]
                assert np.isfinite(grid).all()
                unpatchify(grid, image_cfg)  # shape-valid by construction

    def test_text_guidance_liveness(self, setup):
        """Reconstruction gradients reach the text encoder through the
        gated fusion (the text-guided claim, made testable)."""
        model, batch, image_cfg = setup
        kept, masked = masks_for(batch, image_cfg, 0.5)
        parts = model.pretrain_forward(batch, kept, masked, tau=0.5)
        model.zero_grad()
        parts["rec"].backward()
        total = sum(np.abs(par.grad).sum() for par in model.text_encoder.parameters()
                    if par.grad is not None)
        assert total > 0


class TestDecodeText:
    def test_fused_rows_and_kv_count(self, setup):
        """W-tilde has S-1 rows; cross-attention sees 5*(P+1) visual keys."""
        model, batch, image_cfg = setup
        capture = {}
        visual = model.encode_images(batch)
        W = model.encode_text(batch.ids, batch.real)
        logits = model.head("desire")(model.text_decoder(W, batch.real, visual, record=capture))
        s = model.enc_cfg.seq_len
        p = image_cfg.patches_per_image
        assert visual.shape == (batch.size, 5 * (p + 1), model.enc_cfg.image_dim)
        assert capture["weights"].shape[2] == s - 1
        assert capture["weights"].shape[3] == 5 * (p + 1)
        assert logits.shape == (batch.size, 7)

    def test_desk_scale_kv_row_arithmetic(self):
        # P=16 at mask ratio 0: 17 rows per image, 5 images -> 85 keys
        assert 5 * (16 + 1) == 85

    def test_visual_zeroing_changes_fused_text(self, setup):
        """Zeroing all visual features changes W-tilde: cross-attention is
        live (image-guided claim)."""
        model, batch, _ = setup
        visual = model.encode_images(batch)
        W = model.encode_text(batch.ids, batch.real)
        fused = model.text_decoder(W, batch.real, visual)
        fused_zero = model.text_decoder(W, batch.real, Tensor(np.zeros(visual.shape)))
        assert np.abs(fused.data - fused_zero.data).max() > 1e-8

    def test_cls_gradient_reaches_image_encoder_cls_token(self, setup):
        """Classification gradients flow into the image-encoder CLS token
        through the text decoder (freezing is an optimizer concern only)."""
        model, batch, _ = setup
        logits, _ = model.finetune_forward(batch, "emotion", tau=0.5)
        loss = losses.cls_loss(logits, batch.labels["emotion"])
        model.zero_grad()
        loss.backward()
        grad = model.image_encoder.cls_token.grad
        assert grad is not None and np.abs(grad).sum() > 0


class TestClassifierHead:
    @pytest.mark.parametrize("task,k", [("sentiment", 3), ("emotion", 6), ("desire", 7)])
    def test_head_sizes(self, setup, task, k):
        model, batch, _ = setup
        assert TASK_CLASSES[task] == k
        logits, _ = model.finetune_forward(batch, task, tau=0.5)
        assert logits.shape == (batch.size, k)

    def test_unknown_task_rejected(self, setup):
        model, _, _ = setup
        from sydes.errors import ConfigError
        with pytest.raises(ConfigError):
            model.head("sarcasm")

    def test_zeroed_head_gives_uniform_softmax(self):
        head = ClassifierHead(6, 7)
        head.initialize(RngState(11))
        for p in head.parameters():
            p.data = np.zeros(p.shape)
        fused = Tensor(RngState(12).normal((2, 4, 6)))
        probs = T.softmax(head(fused))
        assert np.allclose(probs.data, 1.0 / 7, atol=1e-12)
