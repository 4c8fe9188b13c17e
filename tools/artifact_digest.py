"""Digest of the deterministic artifacts of a fixed seeded two-stage run.

    python3 tools/artifact_digest.py [--root CHECKOUT]

Imports ``sydes`` from ``<CHECKOUT>/src`` (default: this checkout) and runs,
through ``sydes.cli.main`` in a temporary directory, ``gen-data``, then
``pretrain --epochs 2``, then ``finetune --epochs 2`` and ``eval`` for every
task.  It prints the sha256 of each checkpoint, ``*-log.csv`` and metrics
JSON file, the ``gradcheck --cases 10`` suite results with their error
maxima at full precision, and one sha256 over all of these ("ALL").

Last it prints "FULLSCALE", a sha256 of the loss and of every parameter
gradient from one seeded pretraining forward and backward at
``full_scale_profile()`` (448/224/16 images, 196 patches) on a batch of 2.
That covers the shapes the desk run does not reach: 197-token attention and
the 768-wide patch projection.  It takes about 5 s more.  After it comes
"FULLSCALE_PEAK_MB", the ``tracemalloc`` peak in MB of that forward and
backward: the arrays the tape and the gradients hold, counted exactly, so a
memory change can be checked without timing noise.  Last comes
"FULLSCALE_FORWARD_PEAK_MB", the peak of the same count read after the loss
and before the backward: the forward's share.  Neither is part of "ALL".

A change that is not meant to alter numerics must print the same output
before and after.  ``SYDES_THREADS`` is set to 1 before ``sydes.cli`` is
imported, and that import sets the BLAS thread variables from it, so that
the BLAS thread count cannot change the bits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import tracemalloc

SEED = "0"
EPOCHS = "2"
TASKS = ("sentiment", "emotion", "desire")
GRADCHECK_CASES = 10
FULLSCALE_BATCH = 2


def load_cli(root: str):
    """Import ``sydes.cli`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    init = os.path.join(src, "sydes", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"sydes sources not found under {src}")
    os.environ["SYDES_THREADS"] = "1"
    sys.path.insert(0, src)
    import sydes.cli
    import sydes.gradcheck
    if os.path.realpath(sydes.cli.__file__) != os.path.join(os.path.realpath(src), "sydes", "cli.py"):
        raise SystemExit(f"imported sydes from {sydes.cli.__file__}, expected {src}")
    return sydes.cli, sydes.gradcheck


def run(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"sydes {' '.join(argv)} exited {rc}")


def pipeline(cli, work: str) -> list[str]:
    """Run the seeded pipeline under ``work``; return the artifact paths."""
    data = os.path.join(work, "data")
    pre = os.path.join(work, "pretrain")
    ft = os.path.join(work, "finetune")
    ev = os.path.join(work, "eval")
    run(cli, ["gen-data", "--out", data, "--seed", SEED,
              "--n", "32", "--val-n", "16", "--test-n", "16"])
    run(cli, ["pretrain", "--data", data, "--out", pre, "--seed", SEED,
              "--epochs", EPOCHS])
    ckpt = os.path.join(pre, f"pretrain-epoch{EPOCHS}.ckpt")
    for task in TASKS:
        run(cli, ["finetune", "--task", task, "--checkpoint", ckpt, "--data", data,
                  "--out", ft, "--seed", SEED, "--epochs", EPOCHS])
        run(cli, ["eval", "--checkpoint", os.path.join(ft, task, f"finetune-epoch{EPOCHS}.ckpt"),
                  "--data", data, "--split", "test", "--out", ev])
    paths = []
    for dirpath, _, files in os.walk(work):
        for name in files:
            if name.endswith((".ckpt", "-log.csv")) or (
                    name.startswith("metrics-") and name.endswith(".json")):
                paths.append(os.path.join(dirpath, name))
    return sorted(paths)


def fullscale_gradients(work: str) -> tuple[str, float, float]:
    """sha256 of the loss and the parameter gradients of one seeded
    full-scale pretraining step (forward and backward, no update), and the
    ``tracemalloc`` peaks in MB of that forward and backward and of the
    forward alone."""
    from sydes import config, data, losses, model, text, training
    from sydes.tensor import RngState

    cfg = config.full_scale_profile()
    rng = RngState(int(SEED))
    data.generate_synthetic(FULLSCALE_BATCH, cfg.image, rng.split("data"), work, split="train")
    samples, _ = data.ingest_manifest(os.path.join(work, "train.jsonl"), work)
    vocab = text.Vocab.build(s.text for s in samples)
    arrays = data.DatasetArrays(samples, cfg.image, vocab, cfg.encoder.seq_len)
    net = model.SydesModel(cfg.image, cfg.encoder, vocab.size,
                           decoder_layers=cfg.decoder_layers, decoder_heads=cfg.decoder_heads)
    net.initialize(rng)
    training.apply_freeze(net, cfg.pretrain.frozen)
    batch = arrays.batch(list(range(FULLSCALE_BATCH)))
    kept, masked = training.batch_masks(net, batch.sample_ids, 1, cfg.pretrain.mask_ratio, rng)
    tracemalloc.start()
    try:
        parts = net.pretrain_forward(batch, kept, masked, cfg.tau)
        loss = losses.pretrain_loss(parts, cfg.pretrain.weights)
        forward_mb = tracemalloc.get_traced_memory()[1] / 1e6
        loss.backward()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(loss.data.tobytes())
    for name, p in net.named_parameters():
        grad = b"none" if p.grad is None else p.grad.tobytes()
        digest.update(name.encode() + b"\0" + grad)
    return digest.hexdigest(), peak_mb, forward_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args()
    cli, gradcheck = load_cli(args.root)

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="sydes-digest-") as work:
        for path in pipeline(cli, work):
            rel = os.path.relpath(path, work)
            with open(path, "rb") as f:
                blob = f.read()
            total.update(rel.encode() + b"\0" + blob)
            print(f"{hashlib.sha256(blob).hexdigest()}  {rel}")

    for r in gradcheck.run_suite(seed=0, cases=GRADCHECK_CASES):
        exact = (f"{r.name} checked={r.checked} failures={r.failures} "
                 f"worst_abs={r.worst_abs!r} worst_rel={r.worst_rel!r}")
        total.update(exact.encode() + b"\n")
        print(r.line())
        print(f"  {exact}")
    print(f"{total.hexdigest()}  ALL")
    with tempfile.TemporaryDirectory(prefix="sydes-fullscale-") as work:
        digest, peak_mb, forward_mb = fullscale_gradients(work)
    print(f"{digest}  FULLSCALE")
    print(f"{peak_mb:.3f}  FULLSCALE_PEAK_MB")
    print(f"{forward_mb:.3f}  FULLSCALE_FORWARD_PEAK_MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
