"""Command-line interface.

Subcommands: gen-data, pretrain, finetune, eval, gradcheck, reconstruct.
Settings merge in one order: the defaults, or a checkpoint's embedded
config, then the ``--config`` JSON file, then the flags.  Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numerical failure, and
141 (as a shell reports after SIGPIPE) when standard output is closed
before the command has printed all of its lines: the command stops at the
write that fails, with no traceback.

The numeric kernels' thread pools run SYDES_THREADS threads, 1 when it is
unset, whatever the BLAS variables say: a GEMM's bytes depend on its thread
count, so this keeps equal seeds on equal bytes.  It must take effect
before numpy loads, so it is applied at import time here.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace


def _cap_threads() -> None:
    value = os.environ.get("SYDES_THREADS") or "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = value


_cap_threads()

import argparse  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

from .checkpoint import load_params, read_checkpoint  # noqa: E402
from .config import RunConfig, merge, merge_json  # noqa: E402
from .data import DatasetArrays, generate_synthetic, ingest_manifest  # noqa: E402
from .errors import ConfigError, DataError, NumericalError, SydesError  # noqa: E402
from .gradcheck import run_suite  # noqa: E402
from .imaging import keep_count  # noqa: E402
from .metrics import compute_metrics  # noqa: E402
from .model import TASK_CLASSES, TASKS, SydesModel  # noqa: E402
from .ppm import write_ppm  # noqa: E402
from .tensor import RngState, no_grad  # noqa: E402
from .text import Vocab  # noqa: E402
from .training import batch_masks, predict, run_stage  # noqa: E402
from .viz import export_attention, reconstruction_triptych  # noqa: E402


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sydes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config; flags override it")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen-data", help="write a synthetic corpus")
    common(p)
    p.add_argument("--n", type=int, default=64, help="training samples")
    p.add_argument("--val-n", type=int, default=0, help="validation samples")
    p.add_argument("--test-n", type=int, default=0, help="test samples")

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    common(p)
    p.add_argument("--data", help="dataset directory (train.jsonl + images)")
    p.add_argument("--mask-ratio", type=float, help="override the mask ratio")
    p.add_argument("--epochs", type=int, help="override epoch count")

    p = sub.add_parser("finetune", help="task fine-tuning from a checkpoint")
    common(p)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--checkpoint", required=True, help="pretraining checkpoint")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--epochs", type=int, help="override epoch count")
    p.add_argument("--no-itc", action="store_true",
                   help="drop the contrastive term from the fine-tuning loss")

    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    p.add_argument("--config", help="JSON run config; flags override it")
    p.add_argument("--out", help="output directory")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--split", default="test", help="manifest name to evaluate")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--cases", type=int, default=100, help="trials per loss")

    p = sub.add_parser("reconstruct", help="export reconstruction triptychs and attention maps")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--split", default="train")
    p.add_argument("--mask-ratio", type=float, default=0.75)
    p.add_argument("--n", type=int, default=4, help="samples to export")

    return parser


def _load_config(args, base: RunConfig | None = None) -> RunConfig:
    """``base`` (the desk defaults unless given), then the ``--config`` file,
    then the flags that were given."""
    cfg = base or RunConfig()
    if args.config:
        cfg = merge_json(cfg, args.config)
    a = vars(args)
    flags = {"seed": a.get("seed"), "out_dir": a.get("out") or None,
             "data_dir": a.get("data") or None, "task": a.get("task")}
    if args.command in ("pretrain", "finetune"):
        flags[args.command] = {"epochs": args.epochs, "mask_ratio": a.get("mask_ratio"),
                               "weights": {"itc": 0.0} if a.get("no_itc") else None}
    return merge(cfg, _given(flags))


def _given(flags: dict) -> dict:
    """``flags`` without the unset (None) ones, at every depth."""
    return {k: _given(v) if isinstance(v, dict) else v
            for k, v in flags.items() if v is not None}


def _load_split(cfg: RunConfig, split: str, vocab: Vocab) -> DatasetArrays:
    samples, _ = ingest_manifest(os.path.join(cfg.data_dir, f"{split}.jsonl"), cfg.data_dir)
    return DatasetArrays(samples, cfg.image, vocab, cfg.encoder.seq_len)


def _model_meta(cfg: RunConfig, vocab: Vocab) -> dict:
    d = cfg.to_dict()
    # Paths are runtime wiring; keeping them out makes equal-seed runs
    # produce byte-identical checkpoints.
    del d["data_dir"], d["out_dir"]
    return {"run_config": d, "vocab": vocab.tokens()}


def _rebuild_from_checkpoint(args) -> tuple[RunConfig, Vocab, SydesModel, dict]:
    path = args.checkpoint
    meta, _, params = read_checkpoint(path)
    if "run_config" not in meta or "vocab" not in meta:
        raise DataError(f"{path}: checkpoint lacks embedded config/vocab")
    try:
        ckpt_cfg = RunConfig.from_dict(meta["run_config"])
    except ConfigError as e:
        raise DataError(f"{path}: embedded run_config: {e}") from None
    vocab = Vocab.from_tokens(meta["vocab"], f"{path}: embedded vocab")
    model = SydesModel(ckpt_cfg.image, ckpt_cfg.encoder, vocab.size,
                       decoder_layers=ckpt_cfg.decoder_layers,
                       decoder_heads=ckpt_cfg.decoder_heads)
    load_params(path, model, params)
    # A config file and flags override the embedded config, except for the
    # model's structure, which always follows the checkpoint.
    structure = ("image", "encoder", "decoder_layers", "decoder_heads")
    cfg = replace(_load_config(args, base=ckpt_cfg), **{k: getattr(ckpt_cfg, k) for k in structure})
    return cfg, vocab, model, meta


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = args.out or cfg.data_dir
    rng = RngState(cfg.seed, "data")
    wrote = []
    for split, n in (("train", args.n), ("val", args.val_n), ("test", args.test_n)):
        if n > 0:
            samples = generate_synthetic(n, cfg.image, rng, out, split=split)
            wrote.append(f"{split}: {len(samples)} samples")
    print(f"wrote {', '.join(wrote)} under {out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    out = cfg.out_dir
    manifest = os.path.join(cfg.data_dir, "train.jsonl")
    samples, _ = ingest_manifest(manifest, cfg.data_dir)
    vocab = Vocab.build(s.text for s in samples)
    data = DatasetArrays(samples, cfg.image, vocab, cfg.encoder.seq_len)
    os.makedirs(out, exist_ok=True)
    vocab.save(os.path.join(out, "vocab.txt"))

    rng = RngState(cfg.seed)
    model = SydesModel(cfg.image, cfg.encoder, vocab.size,
                       decoder_layers=cfg.decoder_layers, decoder_heads=cfg.decoder_heads)
    model.initialize(rng)
    kept_n = keep_count(cfg.image.patches_per_image, cfg.pretrain.mask_ratio)
    print(f"pretraining on {len(samples)} samples, mask ratio "
          f"{cfg.pretrain.mask_ratio} ({kept_n}/{cfg.image.patches_per_image} patches kept)")
    result = run_stage(model, data, cfg.pretrain, rng, out_dir=out, tau=cfg.tau,
                       rec_squared=cfg.rec_squared, entropy_sign=cfg.entropy_sign,
                       meta_extra=_model_meta(cfg, vocab))
    last = result.history[-1]
    print(f"final epoch loss {last['loss']:.6f} "
          f"(rec {last['rec']:.6f}, si {last['si']:.6f}, "
          f"dc {last['dc']:.6f}, itc {last['itc']:.6f})")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_finetune(args) -> int:
    cfg, vocab, model, _ = _rebuild_from_checkpoint(args)
    task = cfg.task
    out = os.path.join(cfg.out_dir, task)
    data = _load_split(cfg, "train", vocab)
    val_path = os.path.join(cfg.data_dir, "val.jsonl")
    val_data = _load_split(cfg, "val", vocab) if os.path.isfile(val_path) else None

    rng = RngState(cfg.seed)
    print(f"fine-tuning task={task} on {len(data)} samples "
          f"(K={TASK_CLASSES[task]}, itc weight {cfg.finetune.weights.itc})")
    result = run_stage(model, data, cfg.finetune, rng, task=task, val_data=val_data,
                       out_dir=out, tau=cfg.tau,
                       meta_extra=_model_meta(cfg, vocab))
    last = result.history[-1]
    line = f"final epoch loss {last['loss']:.6f} (cls {last['cls']:.6f}, itc {last['itc']:.6f})"
    if result.final_metrics is not None:
        line += f"; val macro-F1 {result.final_metrics.macro_f1:.4f}"
    print(line)
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    cfg, vocab, model, meta = _rebuild_from_checkpoint(args)
    task = args.task or meta.get("task") or cfg.task
    data = _load_split(cfg, args.split, vocab)
    preds = predict(model, data, task, cfg.tau)
    report = compute_metrics(preds, data.arrays.labels[task], TASK_CLASSES[task])
    print(f"task: {task}  split: {args.split}")
    print(report.format_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"metrics-{task}-{args.split}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed, cases=args.cases)
    for r in results:
        print(r.line())
    if any(not r.passed for r in results):
        raise NumericalError("gradient verification failed")
    return 0


def cmd_reconstruct(args) -> int:
    cfg, vocab, model, _ = _rebuild_from_checkpoint(args)
    data = _load_split(cfg, args.split, vocab)
    n = min(args.n, len(data))
    batch = data.batch(np.arange(n))
    rng = RngState(cfg.seed)
    kept, masked = batch_masks(model, batch.sample_ids, 0, args.mask_ratio,
                               rng.split("reconstruct"))
    capture: dict = {}
    with no_grad():
        mask_rows = model.pretrain_embeddings(batch, kept, masked)[0]
        pixels = model.image_decoder.pixel_head(mask_rows).data
        model.text_decoder(model.encode_text(batch.ids, batch.real), batch.real,
                           model.encode_images(batch), record=capture)
    sub_patches = batch.sub_patches()
    out = args.out or os.path.join(cfg.out_dir, "reconstructions")
    os.makedirs(out, exist_ok=True)
    for i in range(n):
        sid = batch.sample_ids[i]
        write_ppm(os.path.join(out, f"triptych-{sid}.ppm"), reconstruction_triptych(
            sub_patches, pixels, kept, masked, i, n, cfg.image))
        export_attention(out, sid, capture["weights"], i)
    print(f"wrote {n} triptychs and attention grids under {out}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "reconstruct": cmd_reconstruct,
}


EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("n", 1), ("val_n", 0), ("test_n", 0), ("cases", 1)):
        if getattr(args, flag, least) < least:
            parser.exit(1, f"sydes {args.command}: error: --{flag.replace('_', '-')} "
                           f"must be at least {least}, got {getattr(args, flag)}\n")
    try:
        status = COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of standard output has gone (``| head -1``).  Point
        # stdout at devnull, so the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except SydesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
