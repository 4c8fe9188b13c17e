"""Seed spread of acceptance criterion 7: held-out desire macro-F1 after
desk pretraining with the full loss set and with reconstruction only.

    python3 tools/ablation_seeds.py [--seeds 5] [--root CHECKOUT]

Imports ``sydes`` from ``<CHECKOUT>/src`` (default: this checkout).  The
corpus is criterion 7's: 64 training and 64 held-out synthetic desk samples
from data seed 0.  For each seed s = 0..N-1 and each arm, a desk model is
initialized from seed s, pretrained for 30 epochs with rng seed s, then
fine-tuned on desire for 30 epochs; the held-out macro-F1 of the last
epoch is printed.  Seed 0 is criterion 7's own run.  Last come the mean and
sample standard deviation of each arm and of the paired difference.  About
two minutes per seed on a 2-core machine.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

EPOCHS = 30
BATCH = 8
SPLIT = 64


def load_sydes(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "sydes", "__init__.py")):
        raise SystemExit(f"sydes sources not found under {src}")
    sys.path.insert(0, src)
    import sydes.config
    import sydes.data
    import sydes.model
    import sydes.tensor
    import sydes.text
    import sydes.training
    return sydes


def desire_f1(sy, cfg, vocab, train, val, seed: int, weights: dict) -> float:
    training = sy.training
    model = sy.model.SydesModel(cfg.image, cfg.encoder, vocab.size,
                                decoder_layers=cfg.decoder_layers,
                                decoder_heads=cfg.decoder_heads)
    model.initialize(sy.tensor.RngState(seed))
    pre = training.StageConfig.pretrain_defaults(epochs=EPOCHS, batch_size=BATCH)
    pre = pre.with_weights(**weights)
    training.run_stage(model, train, pre, sy.tensor.RngState(seed), tau=cfg.tau)
    ft = training.run_stage(model, train,
                            training.StageConfig.finetune_defaults(epochs=EPOCHS, batch_size=BATCH),
                            sy.tensor.RngState(seed), task="desire", val_data=val, tau=cfg.tau)
    return ft.final_metrics.macro_f1


def spread(values) -> str:
    values = np.asarray(values, dtype=float)
    sd = values.std(ddof=1) if values.size > 1 else 0.0
    return f"{values.mean():.4f} ± {sd:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    sy = load_sydes(args.root)
    cfg = sy.config.RunConfig()
    with tempfile.TemporaryDirectory(prefix="sydes-ablation-") as root:
        rng = sy.tensor.RngState(0, "data")
        train = sy.data.generate_synthetic(SPLIT, cfg.image, rng, root, split="train")
        val = sy.data.generate_synthetic(SPLIT, cfg.image, rng, root, split="val")
        vocab = sy.text.Vocab.build(s.text for s in train)
        train = sy.data.DatasetArrays(train, cfg.image, vocab, cfg.encoder.seq_len)
        val = sy.data.DatasetArrays(val, cfg.image, vocab, cfg.encoder.seq_len)
    arms = {"full-losses": {}, "rec-only": {"rec": 1.0, "si": 0.0, "dc": 0.0, "itc": 0.0}}
    scores: dict[str, list[float]] = {arm: [] for arm in arms}
    for seed in range(args.seeds):
        for arm, weights in arms.items():
            scores[arm].append(desire_f1(sy, cfg, vocab, train, val, seed, weights))
        print(f"seed {seed}: " + " ".join(f"{arm}={f1[-1]:.4f}" for arm, f1 in scores.items()),
              flush=True)
    for arm, f1 in scores.items():
        print(f"{arm}: {spread(f1)}")
    diff = np.subtract(scores["full-losses"], scores["rec-only"])
    print(f"full-losses minus rec-only: {spread(diff)}; full >= rec in "
          f"{int((diff >= 0).sum())}/{diff.size} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
