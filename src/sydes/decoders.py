"""Text-guided image decoder and image-guided text decoder.

The image decoder rebuilds masked patches: its input stacks one shared
learnable mask token per masked position (distinguished only by positional
embedding) on top of the projected visible features, text enters through a
per-row sigmoid gate blended with mean-pooled text, and cross-attention
reads the gated rows.  The text decoder fuses non-CLS text queries with the
stacked visual features of all five images and feeds a small MLP head.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .errors import ContractError
from .tensor import Parameter, Tensor


class GatedFusion(nn.Module):
    """Per-row scalar gate g = sigmoid(W [row ; pooled_text] + b), output
    g * row + (1 - g) * pooled_text."""

    def __init__(self, dim: int):
        self.gate = nn.Linear(2 * dim, 1)

    def __call__(self, rows: Tensor, pooled_text: Tensor) -> Tensor:
        """``rows`` is [G, R, C]; ``pooled_text`` is [G, 1, C] (one pooled
        text vector per row group)."""
        G, R, C = rows.shape
        pooled_rows = pooled_text + Tensor(np.zeros((G, R, C)))
        g = T.sigmoid(self.gate(T.concat([rows, pooled_rows], axis=-1)))
        return g * rows + (1.0 - g) * pooled_rows


def pool_text(W: Tensor, real: np.ndarray) -> Tensor:
    """Mean of the non-pad rows (real tokens plus CLS) of [B, S, C]."""
    weights = real.astype(np.float64)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return T.matmul(Tensor(weights[:, None, :]), W)


class ImageDecoder(nn.Module):
    """Decodes the masked patches' rows, which ``pixel_head`` maps to
    pixels inside the reconstruction loss, and emits one global vector per
    sub-image (read off the CLS-carrying row)."""

    def __init__(self, image_dim: int, dim: int, patch_count: int, patch_dim: int,
                 layers: int = 2, heads: int = 4, mlp_ratio: int = 4):
        self.patch_count = patch_count
        self.proj = nn.Linear(image_dim, dim)
        self.mask_token = Parameter((1, dim), init="normal")
        self.pos = Parameter((patch_count + 1, dim), init="normal")
        self.fusion = GatedFusion(dim)
        self.blocks = [nn.DecoderBlock(dim, heads, mlp_ratio) for _ in range(layers)]
        self.ln_f = nn.LayerNorm(dim)
        self.pixel_head = nn.Linear(dim, patch_dim)
        self.z_head = nn.Linear(dim, dim)

    def build_input(self, visible: Tensor, kept: np.ndarray, masked: np.ndarray) -> Tensor:
        """Assemble decoder rows: mask tokens first, then projected visible
        features (CLS row included).

        ``visible`` is [G, rP+1, image_dim] encoder output; ``kept`` and
        ``masked`` are int [G, rP] / [G, mP] original-index arrays.  Mask
        rows are copies of one learned token and receive the positional
        embeddings of their original masked indices.
        """
        G = visible.shape[0]
        n_masked, n_kept = masked.shape[1], kept.shape[1]
        if visible.shape[1] != n_kept + 1:
            raise ContractError(f"visible rows {visible.shape[1]} != kept {n_kept} + CLS")
        if n_masked + n_kept != self.patch_count:
            raise ContractError(f"mask spec covers {n_masked + n_kept} patches, expected {self.patch_count}")
        vis = self.proj(visible)
        positions = np.concatenate(
            [masked + 1, np.zeros((G, 1), dtype=np.int64), kept + 1], axis=1)
        if n_masked:
            mask_rows = T.embedding_lookup(
                self.mask_token, np.zeros((G, n_masked), dtype=np.int64))
            rows = T.concat([mask_rows, vis], axis=1)
        else:
            rows = vis
        return rows + T.embedding_lookup(self.pos, positions)

    def decode(self, dec_in: Tensor, fused_kv: Tensor, n_masked: int) -> tuple[Tensor, Tensor]:
        """Run the decoder; returns (mask rows [G, mP, dim], per-sub-image
        global vectors [G, dim]).  ``pixel_head`` maps the mask rows to
        pixel predictions [G, mP, patch_dim].  Only the mask rows and the
        CLS row are read, and they come first, so the last block computes
        just those ``n_masked + 1`` rows."""
        x = dec_in
        for block in self.blocks[:-1]:
            x = block(x, fused_kv)
        x = self.ln_f(self.blocks[-1](x, fused_kv, rows=n_masked + 1))
        cls_row = T.reshape(T.narrow(x, 1, n_masked, 1), (x.shape[0], x.shape[2]))
        z = self.z_head(cls_row)
        return T.narrow(x, 1, 0, n_masked), z

    def __call__(self, visible: Tensor, kept: np.ndarray, masked: np.ndarray,
                 W: Tensor, real: np.ndarray) -> tuple[Tensor, Tensor]:
        dec_in = self.build_input(visible, kept, masked)
        pooled = pool_text(W, real)
        fused = self.fusion(dec_in, pooled)
        return self.decode(dec_in, fused, masked.shape[1])


class TextDecoder(nn.Module):
    """Cross-attends non-CLS text queries onto the stacked visual features
    (low-res plus all four sub-images)."""

    def __init__(self, image_dim: int, dim: int,
                 layers: int = 2, heads: int = 4, mlp_ratio: int = 4):
        self.kv_proj = nn.Linear(image_dim, dim)
        self.blocks = [nn.DecoderBlock(dim, heads, mlp_ratio) for _ in range(layers)]
        self.ln_f = nn.LayerNorm(dim)

    def __call__(self, W: Tensor, real: np.ndarray, visual: Tensor,
                 record: dict | None = None) -> Tensor:
        """``W`` is [B, S, C]; queries are rows 0..S-2.  ``visual`` is the
        [B, 5(P+1), image_dim] feature stack (``SydesModel.encode_images``)
        that keys and values are projected from.  Pass ``record`` to
        capture the last block's cross-attention."""
        B, S, _ = W.shape
        q = T.narrow(W, 1, 0, S - 1)
        kv = self.kv_proj(visual)
        self_mask = nn.causal_pad_mask(real[:, : S - 1])
        x = q
        for i, block in enumerate(self.blocks):
            is_last = i == len(self.blocks) - 1
            x = block(x, kv, self_mask, record=record if is_last else None)
        return self.ln_f(x)


class ClassifierHead(nn.Mlp):
    """Mean-pool fused text rows, then a 2-layer MLP to K logits."""

    def __init__(self, dim: int, n_classes: int):
        super().__init__(dim, dim, n_classes)

    def __call__(self, fused: Tensor) -> Tensor:
        return super().__call__(T.mean(fused, axis=1))
