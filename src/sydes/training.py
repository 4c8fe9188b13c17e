"""Two-stage training: AdamW with decoupled decay, linear-warmup cosine
schedule, per-component learning rates, and component freezing.

Pretraining wires the masked-reconstruction losses and keeps the text-side
decoder and heads frozen; fine-tuning wires classification plus the
contrastive term and keeps the vision side frozen.  A frozen parameter has
``requires_grad=False``: it stays off the autodiff tape, so backward computes
no gradient for it, and the optimizer never holds it, so its value stays
bit-identical.

When a fine-tuning stage finds the whole image encoder frozen, its features
are a pure function of the sample (mask ratio 0): ``run_stage`` then keeps an
``ImageFeatureCache`` for the training and the validation data, which encodes
each row once, the first time a batch holds it, and hands the stored
features to ``finetune_forward`` on every later step and ``predict`` pass.
``predict`` records no tape.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import save_checkpoint
from .data import DatasetArrays
from .errors import ConfigError, ContractError, NumericalError
from .imaging import keep_count, sample_mask
from .losses import LossWeights, cls_loss, finetune_loss, pretrain_loss
from .metrics import MetricReport, compute_metrics
from .model import N_SUBS, TASK_CLASSES, SydesModel, group_major_masks
from .tensor import Parameter, RngState, Tensor, no_grad

PRETRAIN_FROZEN = ("text_decoder", "heads")
FINETUNE_FROZEN = ("image_encoder", "image_decoder", "aggregator")


@dataclass(frozen=True)
class StageConfig:
    """Everything that defines one training stage.

    ``lrs`` maps component prefixes to base learning rates; ``frozen`` lists
    component prefixes excluded from optimization.  Every trainable
    parameter must fall under exactly one ``lrs`` prefix.
    """

    stage: str
    mask_ratio: float
    weights: LossWeights
    lrs: dict[str, float]
    warmup_frac: float
    epochs: int
    batch_size: int
    frozen: tuple[str, ...]
    lr_floor_frac: float = 0.01

    def __post_init__(self):
        if self.stage not in ("pretrain", "finetune"):
            raise ConfigError(f"stage must be 'pretrain' or 'finetune', got {self.stage!r}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not all(isinstance(name, str) for name in self.frozen):
            raise ConfigError(f"frozen must list component names, got {self.frozen!r}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) and v >= 0 for v in self.lrs.values()):
            raise ConfigError(f"lrs must map component names to finite rates >= 0, got {self.lrs!r}")
        if not 0 <= self.mask_ratio < 1:
            raise ConfigError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        for name in ("warmup_frac", "lr_floor_frac"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        object.__setattr__(self, "lrs", {k: float(v) for k, v in self.lrs.items()})

    @classmethod
    def pretrain_defaults(cls, epochs: int = 30, batch_size: int = 8) -> "StageConfig":
        """Reference pretraining stage: mask ratio 0.75, 15% warmup, loss
        weights (1, 0.5, 0.025, 0.5), component LRs 5e-6 / 5e-5 / 1e-4.
        The aggregator trains in this stage and shares the decoder rate."""
        return cls(
            stage="pretrain",
            mask_ratio=0.75,
            weights=LossWeights.pretrain_defaults(),
            lrs={"image_encoder": 5e-6,
                 "text_encoder": 5e-5,
                 "image_decoder": 1e-4,
                 "aggregator": 1e-4},
            warmup_frac=0.15,
            epochs=epochs,
            batch_size=batch_size,
            frozen=PRETRAIN_FROZEN,
        )

    @classmethod
    def finetune_defaults(cls, epochs: int = 30, batch_size: int = 8) -> "StageConfig":
        """Reference fine-tuning stage: mask ratio 0, 10% warmup, loss
        weights (cls=1, itc=0.4), component LRs 1e-4 / 2e-4 / 1e-4.  The
        ``heads`` rate covers the active task's head; inactive heads are
        frozen by ``run_stage``."""
        return cls(
            stage="finetune",
            mask_ratio=0.0,
            weights=LossWeights.finetune_defaults(),
            lrs={"text_encoder": 1e-4,
                 "text_decoder": 2e-4,
                 "heads": 1e-4},
            warmup_frac=0.10,
            epochs=epochs,
            batch_size=batch_size,
            frozen=FINETUNE_FROZEN,
        )

    def with_weights(self, **kwargs) -> "StageConfig":
        return replace(self, weights=replace(self.weights, **kwargs))


def cosine_lr(step: int, total_steps: int, warmup_frac: float,
              floor_frac: float = 0.01) -> float:
    """The learning-rate factor: linear warmup to 1, then half-cosine decay
    to ``floor_frac``.

    lr(0) = 1 / warmup_steps; the peak sits at the end of warmup; the
    last step lands exactly on the floor.
    """
    if step < 0:
        raise ContractError(f"negative step {step}")
    warmup_steps = max(1, round(warmup_frac * total_steps))
    if step < warmup_steps:
        return (step + 1) / warmup_steps
    if total_steps <= warmup_steps:
        return 1.0
    progress = min((step - warmup_steps) / (total_steps - warmup_steps), 1.0)
    return floor_frac + (1.0 - floor_frac) * 0.5 * (1.0 + np.cos(np.pi * progress))


class AdamW:
    """AdamW with decoupled weight decay and bias-corrected moments.

    Moments exist only for the parameters handed in (the unfrozen set).
    """

    betas = (0.9, 0.999)
    eps = 1e-8

    def __init__(self, groups: list[tuple[str, list[Parameter], float]], weight_decay: float = 0.01):
        self.groups = groups
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for _, params, _ in groups:
            for p in params:
                if p.frozen:
                    raise ContractError(f"frozen parameter {p.name} handed to the optimizer")
                self.m[p.name] = np.zeros(p.shape)
                self.v[p.name] = np.zeros(p.shape)

    def step(self, lr_factor: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for _, params, base_lr in self.groups:
            lr = base_lr * lr_factor
            for p in params:
                # In place, with two scratch arrays, in the float order of
                # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
                # p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*p).
                g = p.grad if p.grad is not None else np.zeros(p.shape)
                m, v = self.m[p.name], self.v[p.name]
                a = np.multiply(g, 1.0 - b1)
                m *= b1
                m += a
                np.multiply(g, 1.0 - b2, out=a)
                a *= g
                v *= b2
                v += a
                np.divide(m, bc1, out=a)
                b = np.divide(v, bc2)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                np.multiply(p.data, self.weight_decay, out=b)
                a += b
                a *= lr
                p.data = np.subtract(p.data, a, out=b)


def component_of(name: str, prefixes) -> str | None:
    """Longest prefix in ``prefixes`` owning the dotted parameter name."""
    best = None
    for prefix in prefixes:
        if name == prefix or name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best


def apply_freeze(model: SydesModel, frozen: tuple[str, ...]) -> None:
    """Freeze the parameters under the ``frozen`` prefixes and unfreeze all
    others, so a stage never inherits the previous stage's set."""
    model.assign_names()
    for name, p in model.named_parameters():
        p.frozen = component_of(name, frozen) is not None


def build_optimizer(model: SydesModel, cfg: StageConfig) -> AdamW:
    groups: dict[str, list[Parameter]] = {prefix: [] for prefix in cfg.lrs}
    for name, p in model.named_parameters():
        if p.frozen:
            continue
        prefix = component_of(name, cfg.lrs)
        if prefix is None:
            raise ConfigError(f"no learning rate covers trainable parameter {name}")
        groups[prefix].append(p)
    return AdamW([(prefix, params, cfg.lrs[prefix])
                  for prefix, params in groups.items() if params])


def batch_masks(model: SydesModel, sample_ids: list[str], epoch: int,
                mask_ratio: float, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Fresh per-sample, per-sub-image masks; streams are split per sample
    id so the draw is independent of batch composition.  A ratio that masks
    no patch leaves nothing to reconstruct and is rejected."""
    p = model.image_cfg.patches_per_image
    if keep_count(p, mask_ratio) == p:
        raise ConfigError(f"mask ratio {mask_ratio} masks no patch of P={p}")
    specs = [[sample_mask(p, mask_ratio, rng.split(f"mask/e{epoch}/{sid}/n{n}"))
              for n in range(N_SUBS)] for sid in sample_ids]
    return group_major_masks(specs)


@dataclass
class StageResult:
    history: list[dict] = field(default_factory=list)
    checkpoint_path: str | None = None
    log_path: str | None = None
    final_metrics: MetricReport | None = None


def _check_finite(parts: dict, epoch: int, step: int) -> None:
    for name, value in parts.items():
        if not np.isfinite(value.data).all():
            raise NumericalError(f"non-finite {name} loss at epoch {epoch} step {step}")


class ImageFeatureCache:
    """``SydesModel.encode_images`` of one dataset's rows, keyed by row index
    and filled on first use, from the batches the caller already drew.

    Valid only while every image-encoder parameter is frozen: the features
    are then a pure function of the sample, and a row's features do not
    depend on the other rows of its batch, so reuse is bit-exact.
    """

    def __init__(self, model: SydesModel, n: int):
        self.model = model
        self.seen = np.zeros(n, dtype=bool)
        rows = (N_SUBS + 1) * (model.image_cfg.patches_per_image + 1)
        self.stacks = np.empty((n, rows, model.enc_cfg.image_dim))

    def features(self, index: np.ndarray, batch) -> Tensor:
        """The ``encode_images`` stack for rows ``index``, whose arrays are
        ``batch``."""
        missing = np.flatnonzero(~self.seen[index])
        if missing.size:
            self.stacks[index[missing]] = self.model.encode_images(batch.subset(missing)).data
            self.seen[index[missing]] = True
        return Tensor(self.stacks[index])


def predict(model: SydesModel, data: DatasetArrays, task: str, tau: float,
            batch_size: int = 32, images: ImageFeatureCache | None = None) -> np.ndarray:
    """Greedy class predictions over a dataset, with no tape recorded.
    ``images``, a cache over ``data``, supplies the image features."""
    preds = []
    n = len(data)
    with no_grad():
        for start in range(0, n, batch_size):
            index = np.arange(start, min(start + batch_size, n))
            batch = data.batch(index)
            features = None if images is None else images.features(index, batch)
            logits, _ = model.finetune_forward(batch, task, tau, images=features)
            preds.append(np.argmax(logits.data, axis=-1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def run_stage(model: SydesModel, data: DatasetArrays, cfg: StageConfig,
              rng: RngState, *, task: str | None = None,
              val_data: DatasetArrays | None = None, out_dir: str | None = None,
              tau: float = 0.07, rec_squared: bool = True,
              entropy_sign: float = 1.0, meta_extra: dict | None = None) -> StageResult:
    """Train one stage over ``data``.

    Pretraining ignores ``task``; fine-tuning requires it and, when
    ``val_data`` is given, reports validation metrics every epoch.  Writes
    ``{stage}-epoch{N}.ckpt`` and ``{stage}-log.csv`` under ``out_dir``.

    One step's tape lives from its forward to its backward and the update
    that follows: each step runs in a function that returns plain floats,
    so the step's graph is gone before the next batch is drawn, and during
    validation and the checkpoint save.  A non-finite loss part, total or
    gradient raises ``NumericalError`` naming it, with the epoch and step,
    before the update, so the parameters keep their last finite values.
    """
    if cfg.stage == "finetune" and task is None:
        raise ConfigError("fine-tuning requires a task")

    frozen = cfg.frozen
    if cfg.stage == "finetune":
        # Only the active task's head trains; the others stay untouched.
        frozen = frozen + tuple(f"heads.{t}" for t in TASK_CLASSES if t != task)
    apply_freeze(model, frozen)
    opt = build_optimizer(model, cfg)
    trainable = [p for p in model.parameters() if not p.frozen]
    stage_rng = rng.split(cfg.stage if task is None else f"{cfg.stage}/{task}")

    # A frozen image encoder at mask ratio 0 is a pure function of the sample.
    cache = cfg.stage == "finetune" and all(p.frozen for p in model.image_encoder.parameters())
    train_images = ImageFeatureCache(model, len(data)) if cache else None
    val_images = (ImageFeatureCache(model, len(val_data))
                  if cache and val_data is not None else None)

    n = len(data)
    n_batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    result = StageResult()
    log_lines: list[str] = []

    part_names = (("rec", "si", "dc", "itc") if cfg.stage == "pretrain"
                  else ("cls", "itc"))
    lr_names = sorted(cfg.lrs)
    header = ["epoch", "loss", *part_names, *(f"lr_{g}" for g in lr_names)]
    if cfg.stage == "finetune" and val_data is not None:
        header += ["val_precision", "val_recall", "val_macro_f1", "val_accuracy"]
    log_lines.append(",".join(header))

    def train_step(index: np.ndarray, epoch: int, step: int,
                   lr_factor: float) -> dict[str, float]:
        """One optimizer step on rows ``index``; returns the total loss and its
        parts as floats, so no reference to the step's tape escapes."""
        batch = data.batch(index)
        if cfg.stage == "pretrain":
            kept, masked = batch_masks(model, batch.sample_ids, epoch,
                                       cfg.mask_ratio, stage_rng)
            parts = model.pretrain_forward(batch, kept, masked, tau,
                                           rec_squared=rec_squared,
                                           entropy_sign=entropy_sign)
            total = pretrain_loss(parts, cfg.weights)
        else:
            images = None if train_images is None else train_images.features(index, batch)
            logits, parts = model.finetune_forward(batch, task, tau, images=images)
            parts["cls"] = cls_loss(logits, batch.labels[task],
                                    sample_ids=batch.sample_ids)
            total = finetune_loss(parts, cfg.weights)
        _check_finite({**parts, "total": total}, epoch, step)

        model.zero_grad()
        total.backward()
        for p in trainable:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient of {p.name} "
                                     f"at epoch {epoch} step {step}")
        opt.step(lr_factor)
        return {"loss": total.item(), **{name: parts[name].item() for name in part_names}}

    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = stage_rng.split(f"shuffle/e{epoch}").permutation(n)
        sums = {name: 0.0 for name in ("loss", *part_names)}
        lr_factor = 0.0
        for b in range(n_batches):
            index = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr_factor = cosine_lr(step, total_steps, cfg.warmup_frac, cfg.lr_floor_frac)
            for name, value in train_step(index, epoch, step, lr_factor).items():
                sums[name] += value * len(index)
            step += 1

        record = {"epoch": epoch}
        record.update({name: sums[name] / n for name in ("loss", *part_names)})
        record.update({f"lr_{g}": cfg.lrs[g] * lr_factor for g in lr_names})
        if cfg.stage == "finetune" and val_data is not None:
            report = compute_metrics(predict(model, val_data, task, tau, images=val_images),
                                     val_data.arrays.labels[task], TASK_CLASSES[task])
            record.update({"val_precision": report.precision,
                           "val_recall": report.recall,
                           "val_macro_f1": report.macro_f1,
                           "val_accuracy": report.accuracy})
            result.final_metrics = report
        result.history.append(record)
        log_lines.append(",".join(_format_field(record[h]) for h in header))

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{cfg.stage}-epoch{cfg.epochs}.ckpt")
        meta = {"stage": cfg.stage, "epoch": cfg.epochs, "task": task}
        meta.update(meta_extra or {})
        save_checkpoint(path, model, rng, meta)
        result.checkpoint_path = path
        result.log_path = os.path.join(out_dir, f"{cfg.stage}-log.csv")
        with open(result.log_path, "w", encoding="utf-8") as f:
            f.write("\n".join(log_lines) + "\n")
    return result


def _format_field(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"
