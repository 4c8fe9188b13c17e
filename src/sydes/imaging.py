"""Mixed-scale image preparation: downsample + quadrant crops, patch
extraction, and random patch masking.  A mask is two plain index arrays,
the kept and the masked patches of one sub-image.

All functions here are pure numpy (no gradient tracking); the autodiff graph
starts at the patch-embedding layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import RngState


@dataclass(frozen=True)
class ImageConfig:
    """Resolutions for the two-scale strategy.

    ``high_res`` must be exactly twice ``low_res`` (the source tiles into
    four low-res quadrants), and ``patch_size`` must divide ``low_res``.
    The desk-scale default is 64/32/8 (16 patches); the full-scale profile
    is 448/224/16 (196 patches).

    Pixels live in [0, 1].  Optional per-channel mean/std normalization is
    off by default (reconstruction targets stay interpretable); when set,
    loaded pixels become (x - mean) / std.
    """

    high_res: int = 64
    low_res: int = 32
    patch_size: int = 8
    channels: int = 3
    normalize_mean: tuple[float, float, float] | None = None
    normalize_std: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.high_res != 2 * self.low_res:
            raise ContractError(f"high_res {self.high_res} != 2 * low_res {self.low_res}")
        if self.patch_size < 1:
            raise ContractError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.low_res % self.patch_size:
            raise ContractError(f"patch_size {self.patch_size} does not divide low_res {self.low_res}")
        if self.channels != 3:
            raise ContractError("only 3-channel images are supported")
        if (self.normalize_mean is None) != (self.normalize_std is None):
            raise ContractError("normalize_mean and normalize_std must be set together")
        for name in ("normalize_mean", "normalize_std"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, tuple) and len(value) == 3 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
                raise ContractError(f"{name} must be three numbers, got {value!r}")
        if self.normalize_std is not None and any(s <= 0 for s in self.normalize_std):
            raise ContractError(f"normalize_std must be positive, got {self.normalize_std}")

    def normalize(self, image: np.ndarray) -> np.ndarray:
        if self.normalize_mean is None:
            return image
        mean = np.asarray(self.normalize_mean)
        std = np.asarray(self.normalize_std)
        return (image - mean) / std

    def denormalize(self, image: np.ndarray) -> np.ndarray:
        if self.normalize_mean is None:
            return image
        return image * np.asarray(self.normalize_std) + np.asarray(self.normalize_mean)

    @property
    def patches_per_image(self) -> int:
        side = self.low_res // self.patch_size
        return side * side

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


def tile_quadrants(subs) -> np.ndarray:
    """Tile four equal images, in top-left, top-right, bottom-left,
    bottom-right order, into one image of twice their side."""
    top = np.concatenate([subs[0], subs[1]], axis=1)
    bottom = np.concatenate([subs[2], subs[3]], axis=1)
    return np.concatenate([top, bottom], axis=0)


def downsample(image: np.ndarray, cfg: ImageConfig) -> np.ndarray:
    """The low-res view of a high-res image (its sub-images are its
    :func:`quadrants`): bilinear downsampling with aligned corners disabled,
    which at the fixed 2x factor is the exact mean of each 2x2 block."""
    hr = cfg.high_res
    if image.shape != (hr, hr, cfg.channels):
        raise ShapeError(f"expected image of shape {(hr, hr, cfg.channels)}, got {image.shape}")
    lr = cfg.low_res
    return image.reshape(lr, 2, lr, 2, cfg.channels).mean(axis=(1, 3))


def quadrants(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four quadrant views of an image of even side, in top-left,
    top-right, bottom-left, bottom-right order (the inverse of
    :func:`tile_quadrants`)."""
    h = image.shape[0] // 2
    return image[:h, :h], image[:h, h:], image[h:, :h], image[h:, h:]


def patchify(image: np.ndarray, cfg: ImageConfig) -> np.ndarray:
    """Rearrange a low-res image into a [P, patch_size^2 * 3] matrix.

    Patches are numbered row-major over the patch grid; each row holds one
    patch's pixels in raster (row, column, channel) order.
    """
    lr, ps, c = cfg.low_res, cfg.patch_size, cfg.channels
    if image.shape != (lr, lr, c):
        raise ShapeError(f"expected image of shape {(lr, lr, c)}, got {image.shape}")
    side = lr // ps
    x = image.reshape(side, ps, side, ps, c)
    x = x.transpose(0, 2, 1, 3, 4)
    return x.reshape(side * side, ps * ps * c)


def patch_pixels(patches: np.ndarray, cfg: ImageConfig) -> np.ndarray:
    """Float pixels of patch rows [..., patch_dim].  uint8 channel bytes
    become ``cfg.normalize(bytes / 255.0)``, channel on the last axis:
    bitwise what ``read_ppm`` then ``normalize`` give.  Float arrays are
    returned unchanged."""
    if patches.dtype != np.uint8:
        return patches
    x = patches / 255.0
    return cfg.normalize(x.reshape(*x.shape[:-1], -1, cfg.channels)).reshape(x.shape)


def unpatchify(patches: np.ndarray, cfg: ImageConfig) -> np.ndarray:
    """Inverse of :func:`patchify`."""
    lr, ps, c = cfg.low_res, cfg.patch_size, cfg.channels
    side = lr // ps
    if patches.shape != (side * side, ps * ps * c):
        raise ShapeError(f"expected patches of shape {(side * side, ps * ps * c)}, got {patches.shape}")
    x = patches.reshape(side, side, ps, ps, c)
    x = x.transpose(0, 2, 1, 3, 4)
    return x.reshape(lr, lr, c)


def keep_count(patch_count: int, ratio: float) -> int:
    """Number of visible patches: round-half-up((1 - ratio) * P)."""
    if not 0.0 <= ratio < 1.0:
        raise ContractError(f"mask ratio must be in [0, 1), got {ratio}")
    n = int(np.floor((1.0 - ratio) * patch_count + 0.5))
    if n < 1:
        raise ContractError(f"mask ratio {ratio} leaves no visible patch for P={patch_count}")
    return n


def sample_mask(patch_count: int, ratio: float, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Draw a uniform random kept-set for one sub-image: the sorted indices
    of its keep_count(P, ratio) visible patches, and the sorted complement,
    its masked patches.  ratio == 1 is rejected: at least one patch must
    stay visible."""
    n_keep = keep_count(patch_count, ratio)
    order = rng.permutation(patch_count)
    return np.sort(order[:n_keep]), np.sort(order[n_keep:])


def select_unmasked(patch_matrix: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep only the visible rows ``kept`` (sorted indices); returns (rows in
    ascending kept order, the kept index list) so reconstructions can be
    scattered back in place."""
    if kept.size and kept.max() >= patch_matrix.shape[0]:
        raise ContractError(f"kept index {kept.max()} out of range for {patch_matrix.shape[0]} rows")
    return patch_matrix[kept], kept
