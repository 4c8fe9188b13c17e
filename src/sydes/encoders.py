"""Shared image encoder and causal text encoder.

The image encoder is one set of weights serving both the full low-resolution
image and the (possibly masked) high-resolution sub-images; kept patches
carry the positional embeddings of their original indices.  The text encoder
applies a causal mask so row t never sees ids at positions > t, and pad keys
are additionally blocked (the diagonal stays open so no row is empty).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .errors import ContractError
from .tensor import Parameter, Tensor


@dataclass(frozen=True)
class EncoderConfig:
    """Embedding widths and depths for both encoders.

    image_dim / text_dim must be divisible by the respective head counts.
    Desk-scale defaults keep finite-difference checks cheap.
    """

    image_dim: int = 64
    text_dim: int = 64
    image_layers: int = 2
    text_layers: int = 2
    image_heads: int = 4
    text_heads: int = 4
    seq_len: int = 32
    mlp_ratio: int = 4

    def __post_init__(self):
        for name in ("image_dim", "text_dim", "image_layers", "text_layers",
                     "image_heads", "text_heads", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_dim % self.image_heads:
            raise ContractError(f"image_dim {self.image_dim} not divisible by {self.image_heads} heads")
        if self.text_dim % self.text_heads:
            raise ContractError(f"text_dim {self.text_dim} not divisible by {self.text_heads} heads")
        if self.seq_len < 2:
            raise ContractError("seq_len must be >= 2")


class ImageEncoder(nn.Module):
    """ViT-style encoder over patch tokens with a prepended CLS token."""

    def __init__(self, cfg: EncoderConfig, patch_count: int, patch_dim: int):
        dim = cfg.image_dim
        self.patch_count = patch_count
        self.patch_proj = nn.Linear(patch_dim, dim)
        self.cls_token = Parameter((1, dim), init="normal")
        self.pos = Parameter((patch_count + 1, dim), init="normal")
        self.blocks = [nn.EncoderBlock(dim, cfg.image_heads, cfg.mlp_ratio)
                       for _ in range(cfg.image_layers)]
        self.ln_f = nn.LayerNorm(dim)
        # Projection into the shared contrastive space (text_dim).
        self.itc_proj = nn.Linear(dim, cfg.text_dim)

    def embed(self, patches: Tensor, positions: np.ndarray) -> Tensor:
        """Project patch pixels and add positional embeddings gathered at the
        original patch indices, then prepend the CLS token.

        ``patches`` is [B, K, patch_dim]; ``positions`` is an int [B, K]
        array of original indices in [0, P).
        """
        B, K = positions.shape
        if patches.shape[:2] != (B, K):
            raise ContractError(f"patches {patches.shape} do not match positions {positions.shape}")
        x = self.patch_proj(patches)
        full_pos = np.concatenate([np.zeros((B, 1), dtype=np.int64), positions + 1], axis=1)
        cls_rows = T.embedding_lookup(self.cls_token, np.zeros((B, 1), dtype=np.int64))
        x = T.concat([cls_rows, x], axis=1)
        return x + T.embedding_lookup(self.pos, full_pos)

    def encode(self, tokens: Tensor, rows: int | None = None) -> Tensor:
        """Run the blocks and the final norm.  ``rows`` keeps only the first
        ``rows`` output rows (row 0 is CLS), computed by the last block alone."""
        x = tokens
        for block in self.blocks[:-1]:
            x = block(x)
        return self.ln_f(self.blocks[-1](x, rows=rows))

    def __call__(self, patches: Tensor, positions: np.ndarray,
                 rows: int | None = None) -> Tensor:
        return self.encode(self.embed(patches, positions), rows)


class TextEncoder(nn.Module):
    """Causal transformer; the CLS summary lives at the final position."""

    def __init__(self, cfg: EncoderConfig, vocab_size: int):
        dim = cfg.text_dim
        self.seq_len = cfg.seq_len
        self.tok_emb = Parameter((vocab_size, dim), init="normal")
        self.pos = Parameter((cfg.seq_len, dim), init="normal")
        self.blocks = [nn.EncoderBlock(dim, cfg.text_heads, cfg.mlp_ratio)
                       for _ in range(cfg.text_layers)]
        self.ln_f = nn.LayerNorm(dim)
        self.itc_proj = nn.Linear(dim, dim)

    def __call__(self, ids: np.ndarray, real: np.ndarray) -> Tensor:
        """Encode [B, S] token ids; ``real`` is the [B, S] non-pad mask."""
        B, S = ids.shape
        if S != self.seq_len:
            raise ContractError(f"expected sequences of length {self.seq_len}, got {S}")
        x = T.embedding_lookup(self.tok_emb, ids)
        pos_idx = np.broadcast_to(np.arange(S, dtype=np.int64), (B, S))
        x = x + T.embedding_lookup(self.pos, pos_idx)
        mask = nn.causal_pad_mask(real)
        for block in self.blocks:
            x = block(x, mask)
        return self.ln_f(x)
