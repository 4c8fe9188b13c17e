"""Full model: encoders, decoders, aggregator, task heads, and the two
stage-specific forward wirings.

Component prefixes (used for freezing and per-component learning rates):
``image_encoder``, ``text_encoder``, ``image_decoder``, ``text_decoder``,
``aggregator``, ``heads.<task>``.  The contrastive projections live inside
their owning encoders so they share the owner's freeze status.

Sub-image batching convention: the four sub-images of a batch are stacked
group-major, i.e. row g = n * B + b holds sub-image n of sample b.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import losses, nn
from . import tensor as T
from .decoders import ClassifierHead, ImageDecoder, TextDecoder
from .encoders import EncoderConfig, ImageEncoder, TextEncoder
from .errors import ConfigError
from .imaging import ImageConfig, patch_pixels
from .tensor import Tensor

TASKS = ("sentiment", "emotion", "desire")
LABELS: dict[str, tuple[str, ...]] = {
    "sentiment": ("positive", "neutral", "negative"),
    "emotion": ("happiness", "sad", "neutral", "disgust", "anger", "fear"),
    "desire": ("vengeance", "curiosity", "social-contact", "family",
               "tranquility", "romance", "none"),
}
TASK_CLASSES = {t: len(LABELS[t]) for t in TASKS}
N_SUBS = 4


class SydesModel(nn.Module):
    def __init__(self, image_cfg: ImageConfig, enc_cfg: EncoderConfig, vocab_size: int,
                 decoder_layers: int = 2, decoder_heads: int = 4):
        self.image_cfg = image_cfg
        self.enc_cfg = enc_cfg
        p = image_cfg.patches_per_image
        self.image_encoder = ImageEncoder(enc_cfg, p, image_cfg.patch_dim)
        self.text_encoder = TextEncoder(enc_cfg, vocab_size)
        self.image_decoder = ImageDecoder(
            enc_cfg.image_dim, enc_cfg.text_dim, p, image_cfg.patch_dim,
            layers=decoder_layers, heads=decoder_heads, mlp_ratio=enc_cfg.mlp_ratio)
        self.text_decoder = TextDecoder(
            enc_cfg.image_dim, enc_cfg.text_dim,
            layers=decoder_layers, heads=decoder_heads, mlp_ratio=enc_cfg.mlp_ratio)
        self.aggregator = losses.Aggregator(enc_cfg.text_dim)
        self.heads = {task: ClassifierHead(enc_cfg.text_dim, k)
                      for task, k in TASK_CLASSES.items()}

    def head(self, task: str) -> ClassifierHead:
        if task not in self.heads:
            raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
        return self.heads[task]

    # -- shared encoding steps -------------------------------------------

    def encode_low(self, low_patches: np.ndarray, rows: int | None = None) -> Tensor:
        """Encode full low-resolution patch matrices [B, P, patch_dim];
        ``rows`` keeps only the first output rows (``ImageEncoder.encode``)."""
        b, p = low_patches.shape[:2]
        positions = np.broadcast_to(np.arange(p, dtype=np.int64), (b, p))
        return self.image_encoder(Tensor(low_patches), positions, rows)

    def encode_subs(self, batch: "BatchArrays", kept: np.ndarray) -> Tensor:
        """Encode the visible patches ``kept`` (int [4B, rP], group-major) of
        the batch's sub-images.  Returns [4B, rP+1, image_dim].  The float
        patches carry their gather from the batch's array as their rebuild,
        so the patch projection's VJP gathers them again (bitwise) and the
        tape holds no float copy of them (``tensor._keep``)."""
        gather = partial(gather_sub_patches, batch.subs, kept, batch.rows, batch.image_cfg)
        patches = Tensor(gather())
        patches._rebuild = gather
        return self.image_encoder(patches, kept)

    def encode_text(self, ids: np.ndarray, real: np.ndarray) -> Tensor:
        return self.text_encoder(ids, real)

    def itc_features(self, V1: Tensor, W: Tensor) -> tuple[Tensor, Tensor]:
        """Project both CLS features into the shared space and normalize."""
        b = V1.shape[0]
        s = W.shape[1]
        v_cls = T.reshape(T.narrow(V1, 1, 0, 1), (b, V1.shape[2]))
        w_cls = T.reshape(T.narrow(W, 1, s - 1, 1), (b, W.shape[2]))
        v = T.l2_normalize(self.image_encoder.itc_proj(v_cls))
        w = T.l2_normalize(self.text_encoder.itc_proj(w_cls))
        return v, w

    # -- stage forwards ----------------------------------------------------

    def pretrain_embeddings(self, batch: "BatchArrays", kept: np.ndarray,
                            masked: np.ndarray) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """The per-sample part of pretraining: the three encodes, the
        text-guided image decoder and the aggregator.  ``kept``/``masked``
        are group-major int arrays [4B, rP] and [4B, mP].  Returns the
        decoder's mask rows [4B, mP, dim] and the normalized [B, d]
        features ``v_itc``, ``w_itc`` and ``p_agg`` that the batch losses
        compare pairwise."""
        b = batch.size
        V1 = self.encode_low(batch.low_patches, rows=1)  # the losses read only CLS
        Vsub = self.encode_subs(batch, kept)
        W = self.encode_text(batch.ids, batch.real)
        v_itc, w_itc = self.itc_features(V1, W)

        W4 = T.concat([W] * N_SUBS, axis=0)
        real4 = np.tile(batch.real, (N_SUBS, 1))
        mask_rows, z = self.image_decoder(Vsub, kept, masked, W4, real4)
        z_stack = T.transpose(T.reshape(z, (N_SUBS, b, z.shape[1])), (1, 0, 2))
        return mask_rows, v_itc, w_itc, T.l2_normalize(self.aggregator(z_stack))

    def pretrain_forward(self, batch: "BatchArrays", kept: np.ndarray, masked: np.ndarray,
                         tau: float, rec_squared: bool = True,
                         entropy_sign: float = 1.0,
                         dc_reference: np.ndarray | None = None) -> dict[str, Tensor]:
        """Masked-reconstruction wiring; returns the four pretraining loss
        parts from ``pretrain_embeddings``.  ``dc_reference`` pins the
        detached consistency reference (used by the finite-difference
        oracle, which must respect the stop-gradient)."""
        mask_rows, v_itc, w_itc, p_agg = self.pretrain_embeddings(batch, kept, masked)
        # The loss gathers its targets a few groups at a time, in its
        # forward and again in its VJP.
        targets = partial(gather_sub_patches, batch.subs, masked, batch.rows, batch.image_cfg)
        reference = None if dc_reference is None else Tensor(dc_reference)
        return {
            "rec": losses.reconstruction_loss(mask_rows, self.image_decoder.pixel_head, targets,
                                              squared=rec_squared),
            "itc": losses.itc_loss(v_itc, w_itc, tau),
            "si": losses.si_loss(v_itc, p_agg),
            "dc": losses.dc_loss(p_agg, v_itc, w_itc, tau, entropy_sign=entropy_sign,
                                 reference=reference),
        }

    def encode_images(self, batch: "BatchArrays") -> Tensor:
        """Full-image features (mask ratio 0): the low-resolution image's
        [B, P+1, image_dim] stack, then the four sub-images' stacks, as one
        [B, 5(P+1), image_dim] stack whose row 0 is the image CLS feature."""
        b = batch.size
        p = self.image_cfg.patches_per_image
        kept = np.broadcast_to(np.arange(p, dtype=np.int64), (N_SUBS * b, p))
        V1 = self.encode_low(batch.low_patches)
        Vsub = self.encode_subs(batch, kept)
        return T.concat([V1] + [T.narrow(Vsub, 0, n * b, b) for n in range(N_SUBS)], axis=1)

    def finetune_forward(self, batch: "BatchArrays", task: str, tau: float,
                         images: Tensor | None = None) -> tuple[Tensor, dict[str, Tensor]]:
        """Full-image classification wiring (mask ratio 0).  Returns the
        logits and the fine-tuning loss parts (cls left to the caller, which
        holds the labels).  ``images`` is ``encode_images(batch)`` computed
        beforehand; when absent it is computed here."""
        visual = self.encode_images(batch) if images is None else images
        W = self.encode_text(batch.ids, batch.real)
        v_itc, w_itc = self.itc_features(visual, W)
        logits = self.head(task)(self.text_decoder(W, batch.real, visual))
        return logits, {"itc": losses.itc_loss(v_itc, w_itc, tau)}


class BatchArrays:
    """Plain-array view of a batch: patchified images plus token ids.

    The sub-image patches are not copied per batch: ``subs`` is an
    [N, 4, P, patch_dim] array shared with the dataset and ``rows`` (int
    [B], default ``arange(N)``) the batch's rows in it, so every gather
    indexes that array once and a subset of a subset composes its rows.
    ``subs`` holds uint8 channel bytes, which a gather expands by
    ``image_cfg`` (``imaging.patch_pixels``), or float pixels, used as
    they are.
    """

    def __init__(self, low_patches: np.ndarray, subs: np.ndarray,
                 ids: np.ndarray, real: np.ndarray,
                 labels: dict[str, np.ndarray] | None = None,
                 sample_ids: list[str] | None = None,
                 rows: np.ndarray | None = None,
                 image_cfg: ImageConfig | None = None):
        self.low_patches = low_patches
        self.subs = subs
        self.rows = np.arange(subs.shape[0]) if rows is None else rows
        self.image_cfg = image_cfg
        self.ids = ids
        self.real = real
        self.labels = labels or {}
        self.sample_ids = sample_ids or []

    @property
    def size(self) -> int:
        return self.low_patches.shape[0]

    def sub_patches(self) -> np.ndarray:
        """A float copy of the batch's sub-image patches [B, 4, P, patch_dim]."""
        return patch_pixels(self.subs[self.rows], self.image_cfg)

    def subset(self, index: np.ndarray) -> "BatchArrays":
        return BatchArrays(
            self.low_patches[index], self.subs,
            self.ids[index], self.real[index],
            {t: v[index] for t, v in self.labels.items()},
            [self.sample_ids[i] for i in index] if self.sample_ids else [],
            self.rows[index], self.image_cfg)


def gather_sub_patches(subs: np.ndarray, index: np.ndarray, rows: np.ndarray,
                       cfg: ImageConfig | None = None,
                       groups: slice = slice(None)) -> np.ndarray:
    """Float pixels of patches ``index`` (group-major int [4B, k]) of the
    sub-images of ``subs`` [N, 4, P, patch_dim] at ``rows`` (int [B]), for
    the groups ``groups`` of the 4B; returns [len(groups), k, patch_dim].
    uint8 ``subs`` are expanded by ``cfg`` (``imaging.patch_pixels``)."""
    g = np.arange(index.shape[0])[groups, None]
    b = rows.shape[0]
    return patch_pixels(subs[rows[g % b], g // b, index[groups]], cfg)

