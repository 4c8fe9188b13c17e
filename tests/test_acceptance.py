"""Acceptance gate.

One test per criterion, each printing a `[criterion N] PASS/FAIL` line
(run with `pytest -s` to stream them).  The expensive two-stage pipeline
runs once in a module fixture and is shared by the criteria that need it.
"""

import os
import time

import numpy as np
import pytest

from sydes import losses
from sydes import tensor as T
from sydes.checkpoint import load_checkpoint, read_checkpoint
from sydes.config import RunConfig
from sydes.data import DatasetArrays, generate_synthetic
from sydes.gradcheck import identity_head, run_suite, tiny_setup
from sydes.imaging import keep_count, quadrants, sample_mask, tile_quadrants, unpatchify
from sydes.losses import LossWeights, cls_loss, dc_loss, itc_loss, reconstruction_loss, si_loss
from sydes.metrics import compute_metrics
from sydes.model import TASK_CLASSES, TASKS, SydesModel, group_major_masks
from sydes.tensor import RngState, Tensor
from sydes.text import Vocab
from sydes.training import StageConfig, predict, run_stage

DESK = RunConfig()


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """64 training + 64 held-out synthetic samples at the desk profile."""
    root = str(tmp_path_factory.mktemp("acceptance-data"))
    rng = RngState(0, "data")
    train = generate_synthetic(64, DESK.image, rng, root, split="train")
    val = generate_synthetic(64, DESK.image, rng, root, split="val")
    vocab = Vocab.build(s.text for s in train)
    return {
        "root": root,
        "vocab": vocab,
        "train": DatasetArrays(train, DESK.image, vocab, DESK.encoder.seq_len),
        "val": DatasetArrays(val, DESK.image, vocab, DESK.encoder.seq_len),
    }


def new_model(vocab, seed=0):
    model = SydesModel(DESK.image, DESK.encoder, vocab.size,
                       decoder_layers=DESK.decoder_layers,
                       decoder_heads=DESK.decoder_heads)
    model.initialize(RngState(seed))
    return model


@pytest.fixture(scope="module")
def pipeline(corpus, tmp_path_factory):
    """Full two-stage desk run: 30-epoch pretrain, 30-epoch fine-tune per
    task; wall time and metrics recorded for criteria 6 and 7."""
    out = str(tmp_path_factory.mktemp("acceptance-run"))
    vocab = corpus["vocab"]
    t0 = time.time()
    model = new_model(vocab)
    pre_cfg = StageConfig.pretrain_defaults(epochs=30, batch_size=8)
    pre = run_stage(model, corpus["train"], pre_cfg, RngState(0), tau=DESK.tau,
                    out_dir=out)
    task_results = {}
    for task in TASKS:
        ft_model = new_model(vocab)
        load_checkpoint(pre.checkpoint_path, ft_model)
        ft_cfg = StageConfig.finetune_defaults(epochs=30, batch_size=8)
        ft = run_stage(ft_model, corpus["train"], ft_cfg, RngState(0), task=task,
                       val_data=corpus["val"], tau=DESK.tau,
                       out_dir=os.path.join(out, task))
        preds = predict(ft_model, corpus["train"], task, DESK.tau)
        train_report = compute_metrics(preds, corpus["train"].arrays.labels[task],
                                       TASK_CLASSES[task])
        task_results[task] = {"train": train_report, "val": ft.final_metrics}
    elapsed = time.time() - t0
    return {"out": out, "pretrain": pre, "tasks": task_results,
            "elapsed": elapsed, "vocab": vocab}


def test_criterion_1_gradient_oracle():
    """Every loss and both composites match central finite differences
    (step 1e-5) within max(1e-4 rel, 1e-6 abs), 100 seeded cases per loss,
    in under two minutes."""
    t0 = time.time()
    results = run_suite(seed=0, cases=100, composite_cases=100)
    elapsed = time.time() - t0
    lines = "; ".join(r.line() for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    assert report(1, ok, f"{elapsed:.1f}s; {lines}")


def test_criterion_2_analytic_identities():
    checks = []

    v1 = Tensor([[1.0, 0.0]])
    checks.append(("itc N=1 -> 0",
                   abs(itc_loss(v1, Tensor([[1.0, 0.0]]), 1.0).item()) < 1e-9))

    pair = Tensor([[1.0, 0.0], [1.0, 0.0]])
    checks.append(("itc uniform N=2 -> ln 2",
                   abs(itc_loss(pair, Tensor(pair.data.copy()), 1.0).item()
                       - np.log(2.0)) < 1e-9))

    eye = Tensor(np.eye(2))
    checks.append(("itc orthogonal-matched N=2 -> ln(1+e^-1)",
                   abs(itc_loss(eye, Tensor(np.eye(2)), 1.0).item()
                       - np.log(1.0 + np.exp(-1.0))) < 1e-9))

    x = Tensor(RngState(1).uniform((4, 3, 6)))
    checks.append(("rec perfect -> 0",
                   reconstruction_loss(x, identity_head(6), x.data.copy().__getitem__).item()
                   == 0.0))

    u = RngState(2).normal((3, 5))
    u = Tensor(u / np.linalg.norm(u, axis=1, keepdims=True))
    checks.append(("si equal -> 0", si_loss(u, Tensor(u.data.copy())).item() < 1e-12))

    w = RngState(3).normal((3, 5))
    w = Tensor(w / np.linalg.norm(w, axis=1, keepdims=True))
    total = dc_loss(Tensor(u.data.copy()), u, w, tau=0.5).item()
    s = losses.similarity_distribution(u, w, 0.5).data
    entropy = -(s * np.log(s + 1e-12)).sum(-1).mean()
    checks.append(("dc KL(p||p)=0 (total = entropy)", abs(total - entropy) < 1e-9))

    for k in (3, 6, 7):
        loss = cls_loss(Tensor(np.zeros((5, k))), np.arange(5) % k).item()
        checks.append((f"cls uniform K={k} -> ln {k}", abs(loss - np.log(k)) < 1e-9))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else 'BAD'}" for name, passed in checks)
    assert report(2, ok, detail)


def test_criterion_3_masking_tiling_invariants():
    checks = []

    tiled = True
    for seed in range(10):
        img = RngState(seed, "tile").uniform((64, 64, 3))
        tiled &= tile_quadrants(quadrants(img)).tobytes() == img.tobytes()
    checks.append(("quadrant reassembly bit-exact", tiled))

    grid_ok = True
    for p in (16, 196):
        for m in (0.0, 0.25, 0.5, 0.75, 0.9):
            expect = int(np.floor((1.0 - m) * p + 0.5))
            grid_ok &= keep_count(p, m) == expect
            spec = sample_mask(p, m, RngState(7, f"g{p}/{m}"))
            grid_ok &= spec.kept.size == expect
            grid_ok &= spec.kept.size + spec.masked.size == p
    checks.append(("|kept| = round((1-m)P) over the ratio grid", grid_ok))

    model, batch, image_cfg = tiny_setup(RngState(33))
    p = image_cfg.patches_per_image
    specs = [[sample_mask(p, 0.75, RngState(34).split(f"{i}/{n}")) for n in range(4)]
             for i in range(batch.size)]
    kept, masked = group_major_masks(specs)
    with T.no_grad():
        pixels = model.image_decoder.pixel_head(
            model.pretrain_embeddings(batch, kept, masked)[0]).data
    complete = True
    sub_patches = batch.sub_patches()
    for g in range(4 * batch.size):
        n, i = divmod(g, batch.size)
        grid = np.full((p, image_cfg.patch_dim), np.nan)
        grid[kept[g]] = sub_patches[i, n][kept[g]]
        grid[masked[g]] = pixels[g]
        complete &= bool(np.isfinite(grid).all())
        unpatchify(grid, image_cfg)
    checks.append(("scatter-back completes the patch grid", complete))

    ok = all(passed for _, passed in checks)
    assert report(3, ok, "; ".join(f"{n}: {'ok' if p else 'BAD'}" for n, p in checks))


def test_criterion_4_stage_freezing(corpus, tmp_path):
    vocab = corpus["vocab"]
    subset = corpus["train"].batch(np.arange(32))

    class _View:
        def __init__(self, arrays):
            self.arrays = arrays

        def __len__(self):
            return self.arrays.size

        def batch(self, index):
            return self.arrays.subset(index)

    data32 = _View(subset)
    model = new_model(vocab, seed=4)
    init_frozen = {name: p.data.tobytes() for name, p in model.named_parameters()
                   if name.startswith(("text_decoder", "heads"))}
    pre = run_stage(model, data32, StageConfig.pretrain_defaults(epochs=3, batch_size=8),
                    RngState(4), tau=DESK.tau, out_dir=str(tmp_path))
    after_pre = {name: p.data.tobytes() for name, p in model.named_parameters()
                 if name.startswith(("text_decoder", "heads"))}
    pretrain_ok = after_pre == init_frozen

    _, _, pre_params = read_checkpoint(pre.checkpoint_path)
    run_stage(model, data32, StageConfig.finetune_defaults(epochs=3, batch_size=8),
              RngState(4), task="sentiment", tau=DESK.tau)
    finetune_ok = all(
        p.data.tobytes() == pre_params[name].tobytes()
        for name, p in model.named_parameters()
        if name.startswith(("image_encoder", "image_decoder")))

    ok = pretrain_ok and finetune_ok
    assert report(4, ok, f"pretrain-frozen bit-identical: {pretrain_ok}; "
                         f"finetune vision side bit-identical: {finetune_ok}")


def test_criterion_5_guidance_liveness():
    model, batch, image_cfg = tiny_setup(RngState(55))
    p = image_cfg.patches_per_image
    specs = [[sample_mask(p, 0.5, RngState(56).split(f"{i}/{n}")) for n in range(4)]
             for i in range(batch.size)]
    kept, masked = group_major_masks(specs)
    parts = model.pretrain_forward(batch, kept, masked, tau=0.5)
    model.zero_grad()
    parts["rec"].backward()
    text_grad = sum(np.abs(par.grad).sum() for par in model.text_encoder.parameters()
                    if par.grad is not None)

    visual = model.encode_images(batch)
    W = model.encode_text(batch.ids, batch.real)
    fused = model.text_decoder(W, batch.real, visual)
    zeroed = model.text_decoder(W, batch.real, Tensor(np.zeros(visual.shape)))
    visual_delta = float(np.abs(fused.data - zeroed.data).max())

    ok = text_grad > 0 and visual_delta > 0
    assert report(5, ok, f"d(rec)/d(text params) L1 = {text_grad:.3e}; "
                         f"zeroed-visual fused-text delta = {visual_delta:.3e}")


def test_criterion_6_desk_scale_overfit(pipeline):
    lines = []
    ok = pipeline["elapsed"] < 600.0
    for task in TASKS:
        rep = pipeline["tasks"][task]["train"]
        lines.append(f"{task}: acc={rep.accuracy:.4f} F1={rep.macro_f1:.4f}")
        ok &= rep.accuracy >= 0.95 and rep.macro_f1 >= 0.90
    assert report(6, ok, f"{pipeline['elapsed']:.0f}s total; " + "; ".join(lines))


def test_criterion_7_ablation_direction(pipeline, corpus, tmp_path):
    """Soft check (logged, not gating): full pretraining loss set vs the
    reconstruction-only variant, compared on held-out macro-F1."""
    vocab = corpus["vocab"]
    model = new_model(vocab)
    rec_only = StageConfig.pretrain_defaults(epochs=30, batch_size=8)
    rec_only = StageConfig(
        stage=rec_only.stage, mask_ratio=rec_only.mask_ratio,
        weights=LossWeights(rec=1.0, si=0.0, dc=0.0, itc=0.0),
        lrs=rec_only.lrs, warmup_frac=rec_only.warmup_frac,
        epochs=rec_only.epochs, batch_size=rec_only.batch_size,
        frozen=rec_only.frozen)
    pre = run_stage(model, corpus["train"], rec_only, RngState(0), tau=DESK.tau,
                    out_dir=str(tmp_path))
    ft_model = new_model(vocab)
    load_checkpoint(pre.checkpoint_path, ft_model)
    ft = run_stage(ft_model, corpus["train"],
                   StageConfig.finetune_defaults(epochs=30, batch_size=8),
                   RngState(0), task="desire", val_data=corpus["val"], tau=DESK.tau)
    rec_f1 = ft.final_metrics.macro_f1
    full_f1 = pipeline["tasks"]["desire"]["val"].macro_f1
    ordered = full_f1 >= rec_f1
    report(7, True, f"held-out desire macro-F1: full-losses={full_f1:.4f} "
                    f"rec-only={rec_f1:.4f}; expected ordering holds: {ordered} "
                    f"(soft check, logged not gating)")


def test_criterion_8_metric_correctness():
    rep = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
    exact = rep.macro_f1 == 11 / 15
    perfect = compute_metrics([0, 1, 2], [0, 1, 2], 3)
    all_one = (perfect.accuracy == perfect.precision == perfect.recall
               == perfect.macro_f1 == 1.0)
    ok = exact and all_one
    assert report(8, ok, f"macro-F1 == 11/15 exactly: {exact}; "
                         f"perfect predictions give 1.0: {all_one}")


def test_criterion_9_pipeline_determinism(tmp_path):
    """Two identically seeded two-stage runs: checkpoints and metric logs
    must be byte-identical."""
    import json

    from sydes.cli import main

    def read_bytes(path):
        with open(path, "rb") as f:
            return f.read()

    cfg = {"pretrain": {"epochs": 3, "batch_size": 8},
           "finetune": {"epochs": 3, "batch_size": 8}}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)

    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        data = str(base / "data")
        out = str(base / "out")
        assert main(["gen-data", "--config", cfg_path, "--out", data,
                     "--n", "16", "--val-n", "8", "--seed", "11"]) == 0
        assert main(["pretrain", "--config", cfg_path, "--data", data,
                     "--out", out, "--seed", "11"]) == 0
        assert main(["finetune", "--task", "desire", "--config", cfg_path,
                     "--checkpoint", os.path.join(out, "pretrain-epoch3.ckpt"),
                     "--data", data, "--out", out, "--seed", "11"]) == 0
        artifacts[run] = {
            "pre_ckpt": read_bytes(os.path.join(out, "pretrain-epoch3.ckpt")),
            "pre_log": read_bytes(os.path.join(out, "pretrain-log.csv")),
            "ft_ckpt": read_bytes(os.path.join(out, "desire", "finetune-epoch3.ckpt")),
            "ft_log": read_bytes(os.path.join(out, "desire", "finetune-log.csv")),
        }
    same = {k: artifacts["one"][k] == artifacts["two"][k] for k in artifacts["one"]}
    ok = all(same.values())
    assert report(9, ok, "; ".join(f"{k} identical: {v}" for k, v in same.items()))
