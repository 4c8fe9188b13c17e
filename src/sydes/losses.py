"""Training losses and their stage composites.

Five parts: masked-patch reconstruction, symmetric image-text contrastive
(InfoNCE), local-global similarity between the aggregated sub-image vectors
and the global image feature, a distribution-consistency term (KL against
the text-similarity distribution anchored on the global feature, plus an
entropy term), and classification cross-entropy.  All functions return
scalar tensors and are differentiable through every tracked input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .errors import ContractError, DataError
from .tensor import Parameter, Tensor

LOG_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative weights for the stage composites.

    Pretraining uses (rec, si, dc, itc); fine-tuning uses (cls, itc).
    Reference defaults: rec=1, si=0.5, dc=0.025, itc=0.5 for pretraining and
    cls=1, itc=0.4 for fine-tuning.
    """

    rec: float = 0.0
    si: float = 0.0
    dc: float = 0.0
    itc: float = 0.0
    cls: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ContractError(f"loss weight {name} must be nonnegative, got {value}")

    @classmethod
    def pretrain_defaults(cls) -> "LossWeights":
        return cls(rec=1.0, si=0.5, dc=0.025, itc=0.5)

    @classmethod
    def finetune_defaults(cls) -> "LossWeights":
        return cls(cls=1.0, itc=0.4)


def reconstruction_loss(rows: Tensor, head: nn.Linear, target, squared: bool = True) -> Tensor:
    """Pixel error over masked patches.

    ``rows`` [G, masked, dim] are the decoder's mask rows, one row group per
    sub-image of a sample, and ``head`` the linear layer that maps them to
    pixel predictions [G, masked, patch_dim].  ``target(c)`` returns the
    target pixels of the row groups ``c``, a slice of G.  The per-patch L2
    error is summed over all groups and masked patches and divided by
    G * masked: the batch mean of each sample's error over its masked count.
    ``squared`` selects the squared-L2 (MSE) convention; False uses the
    plain L2 norm.  The predictions are never kept (``T.linear_sq_error``).
    """
    g, n_masked = rows.shape[:2]
    if n_masked == 0:
        raise ContractError("reconstruction loss undefined with no masked patches (mask ratio 0)")
    per_patch = T.linear_sq_error(rows, head.weight, head.bias, target)
    if not squared:
        per_patch = T.sqrt(per_patch)
    return T.sum_(per_patch) * (1.0 / (g * n_masked))


def itc_loss(image_feats: Tensor, text_feats: Tensor, tau: float) -> Tensor:
    """Symmetric InfoNCE over in-batch pairs; both inputs must be
    l2-normalized [N, d] with matched rows as positives."""
    n = image_feats.shape[0]
    if n == 0:
        raise ContractError("itc loss needs at least one pair")
    if image_feats.shape != text_feats.shape:
        raise ContractError(f"feature shapes differ: {image_feats.shape} vs {text_feats.shape}")
    logits = T.matmul(image_feats, T.transpose(text_feats, (1, 0))) * (1.0 / tau)
    pairs = np.eye(n)  # the one-hot rows of arange(n), which need no label check
    return 0.5 * (_cross_entropy(logits, pairs)
                  + _cross_entropy(T.transpose(logits, (1, 0)), pairs))


class Aggregator(nn.Mlp):
    """Learned attention over the four sub-image vectors plus an MLP into
    the contrastive space:  e_n = u^T tanh(z_n W + b),  alpha = softmax(e),
    output = MLP(sum_n alpha_n z_n)."""

    def __init__(self, dim: int):
        self.w_z = Parameter((dim, dim), init="fan_in")
        self.u = Parameter((dim,), init="normal")
        self.b = Parameter((dim,), init="zeros")
        super().__init__(dim, dim, dim)  # fc1 and fc2 last: the checkpoint's order

    def scores(self, z: Tensor) -> Tensor:
        """Attention weights alpha, [B, n_subs], rows summing to 1."""
        dim = self.u.shape[0]
        t = T.tanh(T.linear(z, self.w_z, self.b))
        e = T.reshape(T.matmul(t, T.reshape(self.u, (dim, 1))), z.shape[:2])
        return T.softmax(e)

    def __call__(self, z: Tensor) -> Tensor:
        """Aggregate [B, n_subs, dim] into [B, dim]."""
        alpha = self.scores(z)
        pooled = T.matmul(T.reshape(alpha, (z.shape[0], 1, z.shape[1])), z)
        return super().__call__(T.reshape(pooled, (z.shape[0], z.shape[2])))


def si_loss(global_feats: Tensor, aggregated: Tensor) -> Tensor:
    """Batch mean of the squared Euclidean distance between the normalized
    global image feature and the normalized aggregated sub-image feature."""
    if global_feats.shape != aggregated.shape:
        raise ContractError(f"shapes differ: {global_feats.shape} vs {aggregated.shape}")
    d = global_feats - aggregated
    return T.mean(T.sum_(d * d, axis=-1))


def similarity_distribution(anchor: Tensor, text_feats: Tensor, tau: float) -> Tensor:
    """Row-stochastic [N, N]: row i is softmax_j(<anchor_i, text_j> / tau)."""
    logits = T.matmul(anchor, T.transpose(text_feats, (1, 0))) * (1.0 / tau)
    return T.softmax(logits)


def dc_loss(aggregated: Tensor, global_feats: Tensor, text_feats: Tensor,
            tau: float, entropy_sign: float = 1.0,
            reference: Tensor | None = None) -> Tensor:
    """KL(S(aggregated, text) || S(global, text)) plus the entropy of
    S(aggregated, text), both averaged over the batch.

    The reference distribution (anchored on the global image feature) is
    detached: only the aggregated branch receives gradients.  Because of
    that stop-gradient, finite-difference verification must hold the
    reference constant; pass ``reference`` (a row-stochastic [N, N] tensor)
    to pin it.  ``entropy_sign`` flips the entropy term for sensitivity
    experiments.
    """
    s_agg = similarity_distribution(aggregated, text_feats, tau)
    if reference is None:
        with T.no_grad():
            reference = similarity_distribution(global_feats, text_feats, tau)
    log_agg = T.log(s_agg + LOG_EPS)
    log_ref = T.log(reference.detach() + LOG_EPS)
    kl = T.mean(T.sum_(s_agg * (log_agg - log_ref), axis=-1))
    entropy = T.mean(-T.sum_(s_agg * log_agg, axis=-1))
    return kl + entropy_sign * entropy


def cls_loss(logits: Tensor, labels: np.ndarray, sample_ids=None) -> Tensor:
    """Mean softmax cross-entropy; labels are int indices in [0, K)."""
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} != ({n},)")
    bad = np.nonzero((labels < 0) | (labels >= k))[0]
    if bad.size:
        ident = sample_ids[bad[0]] if sample_ids is not None else f"index {bad[0]}"
        raise DataError(f"label {labels[bad[0]]} out of range [0, {k}) for sample {ident}")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return _cross_entropy(logits, onehot)


def _cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of [N, K] logits against one-hot rows."""
    return -T.sum_(T.log_softmax(logits) * Tensor(onehot)) * (1.0 / onehot.shape[0])


def pretrain_loss(parts: dict[str, Tensor], weights: LossWeights) -> Tensor:
    """weights.rec * rec + weights.si * si + weights.dc * dc + weights.itc * itc."""
    for key in ("rec", "si", "dc", "itc"):
        if key not in parts:
            raise ContractError(f"pretraining composite missing part {key!r}")
    return (weights.rec * parts["rec"] + weights.si * parts["si"]
            + weights.dc * parts["dc"] + weights.itc * parts["itc"])


def finetune_loss(parts: dict[str, Tensor], weights: LossWeights) -> Tensor:
    """weights.cls * cls + weights.itc * itc."""
    for key in ("cls", "itc"):
        if key not in parts:
            raise ContractError(f"fine-tuning composite missing part {key!r}")
    return weights.cls * parts["cls"] + weights.itc * parts["itc"]
