"""Encoder contracts: masked patch embedding, bit-level text causality,
pad blocking, shared weights, and sensitivity probes."""

import numpy as np
import pytest

from conftest import draw_masks
from sydes import nn
from sydes import tensor as T
from sydes.encoders import EncoderConfig, ImageEncoder, TextEncoder
from sydes.errors import ContractError
from sydes.imaging import ImageConfig, sample_mask
from sydes.model import gather_sub_patches
from sydes.tensor import RngState, Tensor

CFG = EncoderConfig(image_dim=16, text_dim=16, image_layers=2, text_layers=2,
                    image_heads=2, text_heads=2, seq_len=8, mlp_ratio=2)
IMG = ImageConfig(high_res=16, low_res=8, patch_size=2)  # P=16, patch_dim=12


@pytest.fixture
def image_encoder():
    enc = ImageEncoder(CFG, IMG.patches_per_image, IMG.patch_dim)
    enc.initialize(RngState(3, "imgenc"))
    return enc


@pytest.fixture
def text_encoder():
    enc = TextEncoder(CFG, vocab_size=12)
    enc.initialize(RngState(4, "txtenc"))
    return enc


def rand_patches(seed, b, k):
    return RngState(seed, "patches").uniform((b, k, IMG.patch_dim))


def make_ids(rows):
    """rows: list of (real token ids); pads and CLS appended."""
    s = CFG.seq_len
    ids = np.zeros((len(rows), s), dtype=np.int64)
    real = np.zeros((len(rows), s), dtype=bool)
    for i, toks in enumerate(rows):
        ids[i, : len(toks)] = toks
        ids[i, s - 1] = 1
        real[i, : len(toks)] = True
        real[i, s - 1] = True
    return ids, real


class TestEmbedPatches:
    def test_unmasked_row_count(self, image_encoder):
        p = IMG.patches_per_image
        pos = np.broadcast_to(np.arange(p, dtype=np.int64), (2, p))
        out = image_encoder.embed(Tensor(rand_patches(0, 2, p)), pos)
        assert out.shape == (2, p + 1, CFG.image_dim)

    def test_masked_row_count(self, image_encoder):
        kept, _ = sample_mask(16, 0.75, RngState(1))
        assert kept.size == 4
        pos = kept[None, :]
        out = image_encoder.embed(Tensor(rand_patches(1, 1, 4)), pos)
        assert out.shape == (1, 5, CFG.image_dim)

    def test_function_of_kept_set_only(self, image_encoder):
        """Two different kept arrays with the same kept set embed identically."""
        kept, _ = sample_mask(16, 0.5, RngState(2, "a"))
        patches = rand_patches(2, 1, kept.size)
        out1 = image_encoder.embed(Tensor(patches), kept[None, :])
        out2 = image_encoder.embed(Tensor(patches), kept.copy()[None, :])
        assert np.array_equal(out1.data, out2.data)

    def test_position_length_mismatch_rejected(self, image_encoder):
        with pytest.raises(ContractError):
            image_encoder.embed(Tensor(rand_patches(0, 1, 4)),
                                np.zeros((1, 5), dtype=np.int64))


class TestEncodeImage:
    def test_output_shape_matches_input(self, image_encoder):
        p = IMG.patches_per_image
        pos = np.broadcast_to(np.arange(p, dtype=np.int64), (1, p))
        out = image_encoder(Tensor(rand_patches(3, 1, p)), pos)
        assert out.shape == (1, p + 1, CFG.image_dim)

    def test_permutation_equivariance(self, image_encoder):
        """Permuting two non-CLS tokens (with their positions) permutes the
        corresponding outputs."""
        p = IMG.patches_per_image
        patches = rand_patches(4, 1, p)
        pos = np.arange(p, dtype=np.int64)[None, :].copy()
        out = image_encoder(Tensor(patches), pos).data

        perm_patches = patches.copy()
        perm_patches[0, [2, 7]] = perm_patches[0, [7, 2]]
        perm_pos = pos.copy()
        perm_pos[0, [2, 7]] = perm_pos[0, [7, 2]]
        out_perm = image_encoder(Tensor(perm_patches), perm_pos).data

        expected = out.copy()
        expected[0, [3, 8]] = expected[0, [8, 3]]  # +1 for the CLS row
        assert np.allclose(out_perm, expected, rtol=1e-10, atol=1e-12)

    def test_cls_sensitive_to_any_pixel(self, image_encoder):
        p = IMG.patches_per_image
        patches = rand_patches(5, 1, p)
        pos = np.broadcast_to(np.arange(p, dtype=np.int64), (1, p))
        base = image_encoder(Tensor(patches), pos).data[0, 0]
        poked = patches.copy()
        poked[0, p - 1, -1] += 0.25
        out = image_encoder(Tensor(poked), pos).data[0, 0]
        assert np.abs(out - base).max() > 0


class TestEncodeText:
    def test_causality_bit_level(self, text_encoder):
        """Editing the id at position t leaves all rows < t bit-identical."""
        ids, real = make_ids([[3, 4, 5, 6, 7]])
        base = text_encoder(ids, real).data
        for t in (2, 4):
            edited = ids.copy()
            edited[0, t] = 9
            out = text_encoder(edited, real).data
            assert out[0, :t].tobytes() == base[0, :t].tobytes()
            assert not np.array_equal(out[0, t], base[0, t])

    def test_common_prefix_identical_rows(self, text_encoder):
        ids_a, real_a = make_ids([[3, 4, 5, 6]])
        ids_b, real_b = make_ids([[3, 4, 5, 7]])
        out_a = text_encoder(ids_a, real_a).data
        out_b = text_encoder(ids_b, real_b).data
        assert out_a[0, :3].tobytes() == out_b[0, :3].tobytes()

    def test_cls_sensitive_to_real_tokens(self, text_encoder):
        ids, real = make_ids([[3, 4, 5]])
        base = text_encoder(ids, real).data[0, -1]
        edited = ids.copy()
        edited[0, 1] = 8
        out = text_encoder(edited, real).data[0, -1]
        assert np.abs(out - base).max() > 0

    def test_pads_do_not_leak_into_outputs(self, text_encoder):
        """Perturbing the PAD embedding row leaves real-token and CLS rows
        bit-identical (pad keys are blocked everywhere)."""
        ids, real = make_ids([[3, 4]])
        base = text_encoder(ids, real).data
        text_encoder.tok_emb.data = text_encoder.tok_emb.data.copy()
        text_encoder.tok_emb.data[0] += 5.0
        out = text_encoder(ids, real).data
        assert out[0, :2].tobytes() == base[0, :2].tobytes()
        assert out[0, -1].tobytes() == base[0, -1].tobytes()

    def test_wrong_length_rejected(self, text_encoder):
        with pytest.raises(ContractError):
            text_encoder(np.zeros((1, 5), dtype=np.int64), np.zeros((1, 5), dtype=bool))


class TestCausalPadMask:
    def test_structure(self):
        from sydes.nn import causal_pad_mask

        real = np.array([[True, True, False, True]])  # pad at position 2
        mask = causal_pad_mask(real)[0, 0]
        allowed = mask == 0.0
        expected = np.array([
            [True, False, False, False],   # row 0 sees itself
            [True, True, False, False],    # causal prefix
            [True, True, True, False],     # pad row may still see itself
            [True, True, False, True],     # pad key 2 blocked, self allowed
        ])
        assert np.array_equal(allowed, expected)
        assert np.all(np.isneginf(mask[~expected]))


class TestSharedEncoder:
    def test_low_and_sub_paths_share_parameters(self):
        """Both image paths route through the same Parameter objects and
        both populate their gradients."""
        from sydes.gradcheck import tiny_setup

        model, batch, image_cfg = tiny_setup(RngState(6))
        p = image_cfg.patches_per_image
        names_low = {id(par) for par in model.image_encoder.parameters()}

        V1 = model.encode_low(batch.low_patches)
        T.sum_(V1 * V1).backward()
        grads_low = {par.name for par in model.image_encoder.parameters()
                     if par.grad is not None and np.abs(par.grad).sum() > 0}
        model.zero_grad()

        kept, _ = draw_masks(batch.size, p, 0.5, RngState(8))
        Vs = model.encode_subs(batch, kept)
        T.sum_(Vs * Vs).backward()
        grads_sub = {par.name for par in model.image_encoder.parameters()
                     if par.grad is not None and np.abs(par.grad).sum() > 0}

        names_sub = {id(par) for par in model.image_encoder.parameters()}
        assert names_low == names_sub
        assert grads_low and grads_sub
        # every weight reachable in the low path is the same object in the sub path
        assert grads_low <= {par.name for par in model.image_encoder.parameters()}
        assert grads_sub <= {par.name for par in model.image_encoder.parameters()}

    def test_pretrain_step_populates_image_encoder_grads(self):
        from sydes import losses
        from sydes.gradcheck import tiny_setup

        model, batch, image_cfg = tiny_setup(RngState(7))
        p = image_cfg.patches_per_image
        kept, masked = draw_masks(batch.size, p, 0.5, RngState(9))
        parts = model.pretrain_forward(batch, kept, masked, tau=0.5)
        losses.pretrain_loss(parts, losses.LossWeights.pretrain_defaults()).backward()
        norms = [np.abs(par.grad).sum() for par in model.image_encoder.parameters()
                 if par.grad is not None]
        assert norms and sum(norms) > 0


class TestBlockRows:
    """``rows=k`` computes the first k output rows of a block; every row
    still serves as a key and a value."""

    DIM, HEADS, T_ROWS = 16, 2, 9

    def block_and_inputs(self, kind, masked):
        rng = RngState(40, kind)
        block = (nn.EncoderBlock if kind == "encoder" else nn.DecoderBlock)(
            self.DIM, self.HEADS, mlp_ratio=2)
        block.initialize(rng.split("init"))
        x = Tensor(rng.split("x").normal((3, self.T_ROWS, self.DIM)))
        kv = Tensor(rng.split("kv").normal((3, 5, self.DIM)))
        real = np.ones((3, self.T_ROWS), dtype=bool)
        real[0, 4:] = False
        mask = nn.causal_pad_mask(real) if masked else None
        if kind == "encoder":
            return lambda rows=None: block(x, mask, rows=rows)
        return lambda rows=None: block(x, kv, mask, rows=rows)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("kind", ["encoder", "decoder"])
    def test_prefix_rows_equal_the_full_output(self, kind, masked):
        run = self.block_and_inputs(kind, masked)
        full = run().data
        for k in (1, 4, self.T_ROWS):
            part = run(rows=k).data
            assert part.shape == (3, k, self.DIM)
            assert np.abs(part - full[:, :k]).max() <= 1e-13 * np.abs(full).max()


def test_gather_sub_patches_equals_the_transposed_gather():
    """Direct indexing picks the same patches, bit for bit, as copying every
    sub-image group-major and gathering along the patch axis."""
    b, p = 3, IMG.patches_per_image
    sub_patches = RngState(41).uniform((b, 4, p, IMG.patch_dim))
    flat = sub_patches.transpose(1, 0, 2, 3).reshape(-1, p, IMG.patch_dim)
    identity = np.broadcast_to(np.arange(p, dtype=np.int64), (4 * b, p))
    kept, masked = zip(*(sample_mask(p, 0.75, RngState(42).split(str(g))) for g in range(4 * b)))
    for index in (identity, np.stack(kept), np.stack(masked)):
        old = np.take_along_axis(flat, index[:, :, None], axis=1)
        new = gather_sub_patches(sub_patches, index, np.arange(b))
        assert new.shape == old.shape and new.tobytes() == old.tobytes()
