"""File exports for inspection: reconstruction triptychs and cross-attention
grids.

A triptych stitches, side by side, the reassembled source image, the same
image with masked patches grayed out, and the reconstruction (visible
patches original, masked patches predicted).  Attention grids are one CSV
per head of the last text-decoder block's cross-attention weights.
"""

from __future__ import annotations

import os

import numpy as np

from .imaging import ImageConfig, tile_quadrants, unpatchify
from .model import N_SUBS

MASK_GRAY = 0.5


def reconstruction_triptych(sub_patches: np.ndarray, pixels: np.ndarray,
                            kept: np.ndarray, masked: np.ndarray,
                            sample_index: int, batch_size: int,
                            cfg: ImageConfig) -> np.ndarray:
    """Build the [H, 3W, 3] triptych for one sample of a batch.

    ``sub_patches`` is [B, 4, P, patch_dim]; ``pixels``/``kept``/``masked``
    are the group-major decoder outputs and mask index arrays.
    """
    originals, masked_views, recons = [], [], []
    for n in range(N_SUBS):
        g = n * batch_size + sample_index
        full = sub_patches[sample_index, n]
        masked_patches = full.copy()
        masked_patches[masked[g]] = MASK_GRAY
        recon = full.copy()
        recon[masked[g]] = np.clip(pixels[g], 0.0, 1.0)
        originals.append(unpatchify(full, cfg))
        masked_views.append(unpatchify(masked_patches, cfg))
        recons.append(unpatchify(recon, cfg))
    panels = [tile_quadrants(q) for q in (originals, masked_views, recons)]
    return np.clip(cfg.denormalize(np.concatenate(panels, axis=1)), 0.0, 1.0)


def export_attention(out_dir: str, sample_id: str, weights: np.ndarray,
                     sample_index: int) -> list[str]:
    """Write one CSV grid per head from captured [B, H, Q, K] weights."""
    paths = []
    os.makedirs(out_dir, exist_ok=True)
    for h in range(weights.shape[1]):
        path = os.path.join(out_dir, f"attention-{sample_id}-head{h}.csv")
        grid = weights[sample_index, h]
        with open(path, "w", encoding="utf-8") as f:
            for row in grid:
                f.write(",".join(f"{v:.8g}" for v in row) + "\n")
        paths.append(path)
    return paths
