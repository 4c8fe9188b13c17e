"""Optimizer algebra, the warmup/cosine schedule, stage freezing, NaN
aborts, and short-run determinism."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import closure_arrays, closure_values, tape_census

from sydes import losses, nn
from sydes import tensor as T
from sydes.config import RunConfig
from sydes.data import DatasetArrays, generate_synthetic
from sydes.errors import ConfigError, NumericalError
from sydes.imaging import sample_mask
from sydes.model import SydesModel
from sydes.tensor import Parameter, RngState, Tensor
from sydes.text import Vocab
from sydes import training
from sydes.training import (FINETUNE_FROZEN, PRETRAIN_FROZEN, AdamW, ImageFeatureCache,
                            StageConfig, apply_freeze, build_optimizer, component_of,
                            cosine_lr, predict, run_stage)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def make_param(name, value, frozen=False):
    p = Parameter(np.shape(value))
    p.name = name
    p.data = np.asarray(value, dtype=np.float64)
    p.frozen = frozen
    return p


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = make_param("w", [1.0, -2.0])
        opt = AdamW([("g", [p], 1e-2)], weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_against_gradient_sign(self):
        p = make_param("w", [1.0, 1.0])
        opt = AdamW([("g", [p], 1e-2)], weight_decay=0.0)
        p.grad = np.array([0.5, -0.25])
        opt.step()
        assert p.data[0] < 1.0 and p.data[1] > 1.0

    def test_decoupled_decay_shrink_factor(self):
        p = make_param("w", [2.0, -4.0])
        lr = 1e-2
        opt = AdamW([("g", [p], lr)], weight_decay=0.01)
        opt.step()
        assert np.allclose(p.data, np.array([2.0, -4.0]) * (1 - lr * 0.01), rtol=1e-14)

    def test_moments_only_for_given_params(self):
        a, b = make_param("a", [0.0]), make_param("b", [0.0])
        opt = AdamW([("g", [a], 1e-3)])
        assert "a" in opt.m and "b" not in opt.m
        del b

    def test_step_is_bitwise_the_textbook_formula(self):
        """The in-place step gives the floats of the out-of-place AdamW
        formula, step after step, for two groups and a missing gradient."""
        rng = RngState(8, "adamw")
        # Values as small as one step, so a rounding change in the update
        # is not lost in the subtraction.
        params = [make_param(n, rng.split(n).normal((3, 4), 0.01)) for n in ("a", "b", "c")]
        opt = AdamW([("g1", params[:2], 1e-2), ("g2", params[2:], 3e-3)])
        (b1, b2), eps, wd = opt.betas, opt.eps, opt.weight_decay
        ref = {p.name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params}
        for t in range(1, 6):
            for p in params:
                p.grad = None if (t, p.name) == (3, "b") else \
                    rng.split(f"g/{t}/{p.name}").normal(p.shape)
            opt.step(lr_factor=0.5)
            for p, lr in zip(params, (1e-2 * 0.5, 1e-2 * 0.5, 3e-3 * 0.5)):
                x, m, v = ref[p.name]
                g = p.grad if p.grad is not None else np.zeros(p.shape)
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
                x = x - lr * (update + wd * x)
                ref[p.name] = (x, m, v)
                assert p.data.tobytes() == x.tobytes()
                assert opt.m[p.name].tobytes() == m.tobytes()
                assert opt.v[p.name].tobytes() == v.tobytes()


class TestCosineLr:
    TOTAL, WARM = 100, 0.15

    def test_step_zero_is_base_over_warmup_steps(self):
        warmup_steps = round(self.WARM * self.TOTAL)
        assert cosine_lr(0, self.TOTAL, self.WARM) == pytest.approx(1.0 / warmup_steps)

    def test_peak_at_warmup_end(self):
        warmup_steps = round(self.WARM * self.TOTAL)
        assert cosine_lr(warmup_steps, self.TOTAL, self.WARM) == pytest.approx(1.0)

    def test_floor_at_total_steps(self):
        assert cosine_lr(self.TOTAL, self.TOTAL, self.WARM) == pytest.approx(0.01)

    def test_decay_midpoint(self):
        total, warm = 120, 0.15  # decay span 102 steps, so the midpoint is exact
        warmup_steps = round(warm * total)
        mid = warmup_steps + (total - warmup_steps) // 2
        assert cosine_lr(mid, total, warm) == pytest.approx((1.0 + 0.01) / 2)

    def test_monotone_decay_after_peak(self):
        warmup_steps = round(self.WARM * self.TOTAL)
        values = [cosine_lr(s, self.TOTAL, self.WARM)
                  for s in range(warmup_steps, self.TOTAL + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestComponentRouting:
    def test_longest_prefix_wins(self):
        prefixes = ("heads", "heads.desire")
        assert component_of("heads.desire.fc1.weight", prefixes) == "heads.desire"
        assert component_of("heads.emotion.fc1.weight", prefixes) == "heads"
        assert component_of("text_encoder.pos", prefixes) is None

    def test_uncovered_trainable_parameter_rejected(self, tiny_model):
        model, _, _ = tiny_model
        cfg = StageConfig(stage="pretrain", mask_ratio=0.5,
                          weights=RunConfig().pretrain.weights,
                          lrs={"image_encoder": 1e-4}, warmup_frac=0.1,
                          epochs=1, batch_size=2, frozen=("text_decoder",))
        apply_freeze(model, cfg.frozen)
        with pytest.raises(ConfigError):
            build_optimizer(model, cfg)


class TestFreezeOnTape:
    def test_apply_freeze_sets_requires_grad_both_ways(self):
        from sydes.gradcheck import tiny_setup

        model, _, _ = tiny_setup(RngState(32))
        apply_freeze(model, FINETUNE_FROZEN)
        for name, p in model.named_parameters():
            assert p.requires_grad == (component_of(name, FINETUNE_FROZEN) is None)
        apply_freeze(model, PRETRAIN_FROZEN)
        for name, p in model.named_parameters():
            assert p.requires_grad == (component_of(name, PRETRAIN_FROZEN) is None)
        assert all(p.requires_grad for p in model.image_encoder.parameters())

    def test_finetune_step_computes_no_frozen_gradient(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        stage = StageConfig.finetune_defaults(epochs=1, batch_size=len(data))
        run_stage(model, data, stage, RngState(0), task="desire", tau=cfg.tau)
        frozen = FINETUNE_FROZEN + ("heads.emotion", "heads.sentiment")
        for name, p in model.named_parameters():
            if component_of(name, frozen) is not None:
                assert not p.requires_grad and p.grad is None, name
        assert all(p.grad is not None for p in model.heads["desire"].parameters())

    def test_parameters_are_tape_leaves_holding_their_own_grad(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        assert all(isinstance(p, Tensor) for p in model.parameters())
        stage = StageConfig.pretrain_defaults(epochs=1, batch_size=len(data))
        run_stage(model, data, stage, RngState(0), tau=cfg.tau)
        trainable = [p for p in model.parameters() if not p.frozen]
        assert trainable
        for p in trainable:
            assert p.grad is not None and p.grad.shape == p.shape, p.name
        assert len({id(p.grad) for p in trainable}) == len(trainable)


@pytest.fixture(scope="module")
def tiny_model():
    from sydes.gradcheck import tiny_setup
    return tiny_setup(RngState(31))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """16 desk-scale synthetic samples prepared for training."""
    cfg = RunConfig()
    root = str(tmp_path_factory.mktemp("corpus"))
    samples = generate_synthetic(16, cfg.image, RngState(0, "data"), root)
    vocab = Vocab.build(s.text for s in samples)
    data = DatasetArrays(samples, cfg.image, vocab, cfg.encoder.seq_len)
    return cfg, vocab, data


def test_batch_masks_rows_are_group_major_per_sample_draws(tiny_model):
    """Row n * B + b of ``batch_masks``' kept and masked arrays is the draw of
    stream ``mask/e{epoch}/{sid}/n{n}`` for the sample at position b, so a
    sample's rows do not depend on the rest of its batch."""
    model, _, image_cfg = tiny_model
    p = image_cfg.patches_per_image
    rng = RngState(12)
    sample_ids = ["s3", "s0", "s7"]
    b = len(sample_ids)
    kept, masked = training.batch_masks(model, sample_ids, 2, 0.5, rng)
    assert kept.shape == masked.shape == (4 * b, p // 2)
    for n in range(4):
        for i, sid in enumerate(sample_ids):
            want_kept, want_masked = sample_mask(p, 0.5, rng.split(f"mask/e2/{sid}/n{n}"))
            assert np.array_equal(kept[n * b + i], want_kept)
            assert np.array_equal(masked[n * b + i], want_masked)
    for i, sid in enumerate(sample_ids):
        alone_kept, alone_masked = training.batch_masks(model, [sid], 2, 0.5, rng)
        assert np.array_equal(alone_kept, kept[i::b]) and np.array_equal(alone_masked, masked[i::b])


def fresh_model(cfg, vocab, seed=0):
    model = SydesModel(cfg.image, cfg.encoder, vocab.size)
    model.initialize(RngState(seed))
    return model


def live_tape_nodes():
    """Tracked interior tensors still alive after a full collection."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._vjp is not None)


def component_bytes(model, prefix):
    return {name: p.data.tobytes() for name, p in model.named_parameters()
            if name.startswith(prefix)}


class TestTapeKeepsWhatVJPsRead:
    """Once a pretraining forward returns, the arrays no VJP reads are gone;
    backward gives the gradients a tape keeping every output would give."""

    def forward_and_backward(self, corpus, monkeypatch, keep_outputs):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        apply_freeze(model, cfg.pretrain.frozen)
        batch = data.batch(np.arange(8))
        kept, masked = training.batch_masks(model, batch.sample_ids, 0,
                                            cfg.pretrain.mask_ratio, RngState(3))
        refs = {}
        sq_error = T.linear_sq_error

        def spy_sq_error(x, weight, bias, target):
            def spy_target(c):
                rows = target(c)
                refs["target"] = weakref.ref(rows)
                return rows

            out = sq_error(x, weight, bias, spy_target)
            refs["errors"] = weakref.ref(out.data)
            return out

        block = nn.EncoderBlock.__call__

        def spy_block(self, x, mask=None, rows=None):
            out = block(self, x, mask, rows)
            refs.setdefault("residual", weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "linear_sq_error", spy_sq_error)
        monkeypatch.setattr(nn.EncoderBlock, "__call__", spy_block)
        outputs = []
        if keep_outputs:
            track = T._track

            def keeping(data, parents, vjp):
                outputs.append(track(data, parents, vjp))
                return outputs[-1]

            monkeypatch.setattr(T, "_track", keeping)
        parts = model.pretrain_forward(batch, kept, masked, cfg.tau)
        loss = losses.pretrain_loss(parts, cfg.pretrain.weights)
        alive = {name: ref() is not None for name, ref in refs.items()}
        loss.backward()
        grads = [b"none" if p.grad is None else p.grad.tobytes()
                 for p in model.parameters()]
        return alive, grads

    def test_unread_outputs_die_with_the_forward(self, corpus, monkeypatch):
        alive, grads = self.forward_and_backward(corpus, monkeypatch, keep_outputs=False)
        assert alive == {"target": False, "errors": False, "residual": False}
        monkeypatch.undo()
        alive_kept, grads_kept = self.forward_and_backward(corpus, monkeypatch, keep_outputs=True)
        assert alive_kept["errors"] and alive_kept["residual"]  # the target is no op output
        assert grads == grads_kept and any(g != b"none" for g in grads)


class TestLastBlockRows:
    """Pretraining's last low-res encoder block computes only the CLS row and
    the image decoder's last block only the mask rows and CLS: the losses
    and gradients are those of computing every row, up to rounding."""

    BLOCKS = (nn.EncoderBlock, nn.DecoderBlock)

    def forward_and_backward(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        apply_freeze(model, cfg.pretrain.frozen)
        batch = data.batch(np.arange(8))
        kept, masked = training.batch_masks(model, batch.sample_ids, 0,
                                            cfg.pretrain.mask_ratio, RngState(3))
        parts = model.pretrain_forward(batch, kept, masked, cfg.tau)
        losses.pretrain_loss(parts, cfg.pretrain.weights).backward()
        return ({k: v.item() for k, v in parts.items()},
                {name: p.grad for name, p in model.named_parameters()})

    def test_equal_to_computing_every_row(self, corpus, monkeypatch):
        parts, grads = self.forward_and_backward(corpus)
        for cls in self.BLOCKS:
            def every_row(self, *args, _call=cls.__call__, rows=None, **kwargs):
                return _call(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__call__", every_row)
        ref_parts, ref_grads = self.forward_and_backward(corpus)
        assert parts.keys() == ref_parts.keys()
        for k, v in parts.items():
            assert abs(v - ref_parts[k]) <= 1e-12 * abs(ref_parts[k])
        assert grads.keys() == ref_grads.keys()
        largest = max(np.abs(g).max() for g in ref_grads.values() if g is not None)
        for name, g in grads.items():
            ref = ref_grads[name]
            assert (g is None) == (ref is None), name
            if ref is None:
                continue
            # A key bias shifts a score row by a constant, so its true
            # gradient is zero: only rounding is left to compare.
            scale = largest if name.endswith("wk.bias") else np.abs(ref).max()
            assert np.abs(g - ref).max() <= 1e-12 * scale, name

    def test_last_blocks_keep_no_dropped_rows(self, corpus, monkeypatch):
        """A census (``tape_census``) of the nodes each last block makes:
        only ``ln1`` (and, in the decoder, ``ln_kv``) keeps an array with
        every row, its normalized rows.  The attention nodes that read
        those norms' outputs as keys and values rebuild them."""
        found = {}
        for cls in self.BLOCKS:
            def recording(self, x, *args, _call=cls.__call__, rows=None, **kwargs):
                if rows is None:
                    return _call(self, x, *args, **kwargs)
                nodes, track = [], T._track

                def keep(data, parents, vjp):
                    nodes.append(track(data, parents, vjp))
                    return nodes[-1]
                monkeypatch.setattr(T, "_track", keep)
                try:
                    out = _call(self, x, *args, rows=rows, **kwargs)
                finally:
                    monkeypatch.setattr(T, "_track", track)
                assert out.shape[1] == rows < x.shape[1]
                found[type(self).__name__] = full_row_keepers(self, x.shape[1], nodes, out)
                return out
            monkeypatch.setattr(cls, "__call__", recording)

        def full_row_keepers(block, t, nodes, out):
            """(op, owner) per array with ``t`` rows that a node of
            ``nodes`` keeps of its own; the owner is the block's child
            module whose parameter the node reads."""
            owners = {id(p): name.split(".")[0] for name, p in block.named_parameters()}
            made = {id(node._vjp) for node in nodes}
            keepers = set()
            for node, arrays in tape_census(out):
                if id(node._vjp) not in made:
                    continue
                op = node._vjp.__qualname__.split(".")[0]
                owner = next((owners[id(p)] for p in node._parents if id(p) in owners), None)
                if any(a.ndim >= 2 and a.shape[-2] == t for a in arrays):
                    keepers.add((op, owner))
            return keepers

        self.forward_and_backward(corpus)
        assert found["EncoderBlock"] == {("layer_norm", "ln1")}
        assert found["DecoderBlock"] == {("layer_norm", "ln1"), ("layer_norm", "ln_kv")}


class TestRebuiltInputs:
    """A layer-norm output and the sub-image patches are kept on the tape
    as their producer's rebuild (``tensor._keep``): the losses and
    gradients are bitwise those of keeping the arrays, and no VJP closure
    holds a ``Tensor``."""

    STAGES = ("pretrain", "finetune")

    def loss(self, corpus, stage):
        """The model and the loss of one desk step of ``stage`` on 8 samples."""
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        batch = data.batch(np.arange(8))
        if stage == "pretrain":
            apply_freeze(model, cfg.pretrain.frozen)
            kept, masked = training.batch_masks(model, batch.sample_ids, 0,
                                                cfg.pretrain.mask_ratio, RngState(3))
            parts = model.pretrain_forward(batch, kept, masked, cfg.tau)
            return model, losses.pretrain_loss(parts, cfg.pretrain.weights)
        apply_freeze(model, cfg.finetune.frozen)
        logits, parts = model.finetune_forward(batch, "emotion", cfg.tau)
        parts["cls"] = losses.cls_loss(logits, batch.labels["emotion"])
        return model, losses.finetune_loss(parts, cfg.finetune.weights)

    @pytest.mark.parametrize("stage", STAGES)
    def test_rebuilds_are_bitwise_the_kept_arrays(self, corpus, stage, monkeypatch):
        def step():
            rebuilt = []
            monkeypatch.setattr(T, "_kept", lambda held, _kept=T._kept: (
                rebuilt.append(callable(held)) or _kept(held)))
            model, loss = self.loss(corpus, stage)
            loss.backward()
            grads = [b"none" if p.grad is None else p.grad.tobytes()
                     for p in model.parameters()]
            return any(rebuilt), loss.data.tobytes(), grads

        used, loss, grads = step()
        monkeypatch.setattr(T, "_keep", lambda t: t.data)  # every node keeps the array
        used_none, loss_kept, grads_kept = step()
        assert used and not used_none
        assert loss == loss_kept and grads == grads_kept
        assert sum(g != b"none" for g in grads) > 10

    @pytest.mark.parametrize("stage", STAGES)
    def test_no_vjp_closure_holds_a_tensor(self, corpus, stage):
        _, loss = self.loss(corpus, stage)
        census = tape_census(loss)
        assert len(census) > 50
        for node, _ in census:
            held = [v for v in closure_values(node._vjp) if isinstance(v, Tensor)]
            assert not held, node._vjp.__qualname__

    def test_patch_projection_keeps_no_float_patches(self, corpus):
        # Guard: the sub-image patches are gathered again from the dataset's
        # bytes in the VJP; only the low-resolution patches stay as floats.
        data = corpus[2]
        model, loss = self.loss(corpus, "pretrain")
        proj = model.image_encoder.patch_proj.weight
        held = [closure_arrays(node._vjp) for node, _ in tape_census(loss)
                if proj in node._parents]
        assert len(held) == 2  # the low-resolution image and the sub-images
        floats = [a for arrays in held for a in arrays if a.dtype == np.float64]
        assert all(a.shape[0] == 8 for a in floats if a.ndim == 3)
        assert any(a is data.arrays.subs for arrays in held for a in arrays)


class TestTapeLifetime:
    """A step's tape is unreachable once the step returns: none is alive when
    the next forward starts, nor at validation or at the checkpoint save."""

    def count_live_tape(self, monkeypatch):
        counts = []
        for name in ("pretrain_forward", "finetune_forward"):
            def counting(model, *args, _forward=getattr(SydesModel, name), **kwargs):
                counts.append(live_tape_nodes())
                return _forward(model, *args, **kwargs)
            monkeypatch.setattr(SydesModel, name, counting)

        def counting_save(*args, _save=training.save_checkpoint):
            counts.append(live_tape_nodes())
            return _save(*args)
        monkeypatch.setattr(training, "save_checkpoint", counting_save)
        return counts

    def test_pretrain_step_starts_with_no_tape(self, corpus, monkeypatch, tmp_path):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        counts = self.count_live_tape(monkeypatch)
        stage = StageConfig.pretrain_defaults(epochs=1, batch_size=8)
        run_stage(model, data, stage, RngState(0), tau=cfg.tau, out_dir=str(tmp_path))
        assert counts == [0, 0, 0]  # two steps, then the save

    def test_finetune_step_starts_with_no_tape(self, corpus, monkeypatch, tmp_path):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        counts = self.count_live_tape(monkeypatch)
        stage = StageConfig.finetune_defaults(epochs=1, batch_size=8)
        run_stage(model, data, stage, RngState(0), task="emotion", val_data=data,
                  tau=cfg.tau, out_dir=str(tmp_path))
        assert counts == [0, 0, 0, 0]  # two steps, one validation batch, the save


class TestStages:
    def test_pretrain_freezes_text_decoder_and_heads(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        before_dec = component_bytes(model, "text_decoder")
        before_heads = component_bytes(model, "heads")
        before_enc = component_bytes(model, "image_encoder")
        stage = StageConfig.pretrain_defaults(epochs=1, batch_size=4)
        run_stage(model, data, stage, RngState(0), tau=cfg.tau)
        assert component_bytes(model, "text_decoder") == before_dec
        assert component_bytes(model, "heads") == before_heads
        assert component_bytes(model, "image_encoder") != before_enc

    def test_finetune_freezes_vision_side_and_inactive_heads(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        before_img_enc = component_bytes(model, "image_encoder")
        before_img_dec = component_bytes(model, "image_decoder")
        before_agg = component_bytes(model, "aggregator")
        before_emotion = component_bytes(model, "heads.emotion")
        before_sentiment = component_bytes(model, "heads.sentiment")
        stage = StageConfig.finetune_defaults(epochs=1, batch_size=4)
        run_stage(model, data, stage, RngState(0), task="desire", tau=cfg.tau)
        assert component_bytes(model, "image_encoder") == before_img_enc
        assert component_bytes(model, "image_decoder") == before_img_dec
        assert component_bytes(model, "aggregator") == before_agg
        assert component_bytes(model, "heads.emotion") == before_emotion
        assert component_bytes(model, "heads.sentiment") == before_sentiment
        assert component_bytes(model, "heads.desire") != component_bytes(model, "heads.emotion")

    def test_finetune_requires_task(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        with pytest.raises(ConfigError):
            run_stage(model, data, StageConfig.finetune_defaults(epochs=1),
                      RngState(0), tau=cfg.tau)

    def test_short_run_determinism(self, corpus, tmp_path):
        cfg, vocab, data = corpus

        def run(out):
            model = fresh_model(cfg, vocab, seed=5)
            stage = StageConfig.pretrain_defaults(epochs=2, batch_size=4)
            res = run_stage(model, data, stage, RngState(5), tau=cfg.tau,
                            out_dir=str(out))
            return res

        r1 = run(tmp_path / "a")
        r2 = run(tmp_path / "b")
        assert read_bytes(r1.checkpoint_path) == read_bytes(r2.checkpoint_path)
        assert read_text(r1.log_path) == read_text(r2.log_path)

    def test_nan_abort_names_component(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        model.image_decoder.pixel_head.weight.data = np.full(
            model.image_decoder.pixel_head.weight.shape, np.nan)
        stage = StageConfig.pretrain_defaults(epochs=1, batch_size=4)
        with pytest.raises(NumericalError, match="rec"):
            run_stage(model, data, stage, RngState(0), tau=cfg.tau)

    def test_non_finite_gradient_names_parameter_before_update(self, corpus, monkeypatch):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        before = {p.name: p.data.copy() for p in model.parameters()}
        stage = StageConfig.pretrain_defaults(epochs=1, batch_size=4)
        apply_freeze(model, stage.frozen)
        trainable = [p for p in model.parameters() if not p.frozen]
        first, later = trainable[3], trainable[-2]
        backward = Tensor.backward

        def poisoned_backward(self):
            backward(self)
            later.grad[...] = np.inf
            first.grad.reshape(-1)[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        with pytest.raises(NumericalError) as raised:
            run_stage(model, data, stage, RngState(0), tau=cfg.tau)
        message = str(raised.value)
        assert first.name in message and later.name not in message
        assert "epoch 1 step 0" in message
        for p in model.parameters():
            assert p.data.tobytes() == before[p.name].tobytes(), p.name

    def test_metric_log_columns(self, corpus, tmp_path):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        stage = StageConfig.finetune_defaults(epochs=2, batch_size=4)
        res = run_stage(model, data, stage, RngState(0), task="sentiment",
                        val_data=data, out_dir=str(tmp_path), tau=cfg.tau)
        lines = read_text(res.log_path).strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["epoch", "loss", "cls", "itc"]
        assert "val_macro_f1" in header and any(h.startswith("lr_") for h in header)
        assert len(lines) == 1 + stage.epochs

    def test_checkpoint_naming(self, corpus, tmp_path):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        stage = StageConfig.pretrain_defaults(epochs=3, batch_size=8)
        res = run_stage(model, data, stage, RngState(0), tau=cfg.tau,
                        out_dir=str(tmp_path))
        assert res.checkpoint_path.endswith("pretrain-epoch3.ckpt")

    def test_predict_covers_all_samples(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        preds = predict(model, data, "emotion", cfg.tau, batch_size=5)
        assert preds.shape == (len(data),)
        assert preds.dtype.kind == "i"

    def test_predict_matches_a_tracked_forward(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        untracked = []
        forward = model.finetune_forward

        def recording_forward(*args, **kwargs):
            logits, parts = forward(*args, **kwargs)
            untracked.append(logits._parents == () and not logits.requires_grad)
            return logits, parts

        model.finetune_forward = recording_forward
        preds = predict(model, data, "desire", cfg.tau, batch_size=5)
        del model.finetune_forward
        assert untracked == [True] * 4
        expected = []
        for start in range(0, len(data), 5):
            index = np.arange(start, min(start + 5, len(data)))
            logits, _ = model.finetune_forward(data.batch(index), "desire", cfg.tau)
            assert logits.requires_grad
            expected.append(np.argmax(logits.data, axis=-1))
        assert np.array_equal(preds, np.concatenate(expected))


def count_encoder_rows(model):
    """Wrap the model's image-encoder entry points; returns the running
    count of rows each one has encoded."""
    rows = {"low": 0, "subs": 0}
    encode_low, encode_subs = model.encode_low, model.encode_subs

    def low(patches):
        rows["low"] += patches.shape[0]
        return encode_low(patches)

    def subs(patches, kept):
        rows["subs"] += kept.shape[0]
        return encode_subs(patches, kept)

    model.encode_low, model.encode_subs = low, subs
    return rows


class TestImageFeatureCache:
    def test_cached_features_are_bit_exact(self, corpus):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        apply_freeze(model, FINETUNE_FROZEN)
        cache = ImageFeatureCache(model, len(data))
        for start in range(0, len(data), 3):
            index = np.arange(start, min(start + 3, len(data)))
            cache.features(index, data.batch(index))
        index = RngState(7).permutation(len(data))[:8]
        batch = data.batch(index)
        logits, parts = model.finetune_forward(batch, "emotion", cfg.tau)
        cached_logits, cached_parts = model.finetune_forward(
            batch, "emotion", cfg.tau, images=cache.features(index, batch))
        assert cached_logits.data.tobytes() == logits.data.tobytes()
        assert cached_parts["itc"].data.tobytes() == parts["itc"].data.tobytes()

    def test_trainable_image_encoder_gets_no_cache(self, corpus, monkeypatch):
        cfg, vocab, data = corpus
        model = fresh_model(cfg, vocab)
        stage = StageConfig.finetune_defaults(epochs=2, batch_size=8)
        stage = replace(stage, frozen=tuple(c for c in stage.frozen if c != "image_encoder"),
                        lrs={**stage.lrs, "image_encoder": 1e-4})
        built = []
        monkeypatch.setattr(training, "ImageFeatureCache",
                            lambda *args: built.append(args) or ImageFeatureCache(*args))
        run_stage(model, data, stage, RngState(0), task="desire", val_data=data, tau=cfg.tau)
        assert built == []
        assert all(p.grad is not None for p in model.image_encoder.parameters())

    def test_each_cache_fills_once(self, corpus):
        cfg, vocab, data = corpus
        val = DatasetArrays(data.samples[:6], cfg.image, vocab, cfg.encoder.seq_len)
        model = fresh_model(cfg, vocab)
        rows = count_encoder_rows(model)
        stage = StageConfig.finetune_defaults(epochs=2, batch_size=4)
        run_stage(model, data, stage, RngState(0), task="sentiment", val_data=val, tau=cfg.tau)
        assert rows == {"low": len(data) + len(val), "subs": 4 * (len(data) + len(val))}
