"""Transformer building blocks on top of the tensor module.

``Module`` gives a minimal registry: attributes that are ``Parameter``,
``Module``, or lists/dicts of ``Module`` are collected recursively and named
with dotted paths.  Names are unique within a model and drive both seeded
initialization and the checkpoint format.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Parameter, RngState, Tensor

NEG_INF = -np.inf


class Module:
    """Base class with recursive parameter collection."""

    def named_parameters(self, prefix: str = ""):
        for key, value in vars(self).items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(path)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}")
            elif isinstance(value, dict):
                for k, item in value.items():
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{k}")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def assign_names(self) -> None:
        seen: set[str] = set()
        for name, p in self.named_parameters():
            if name in seen:
                raise ContractError(f"duplicate parameter name {name!r}")
            seen.add(name)
            p.name = name

    def initialize(self, rng: RngState) -> None:
        """Fill every parameter from the stream derived from its name."""
        self.assign_names()
        for name, p in self.named_parameters():
            p.initialize(rng.split(f"init/{name}"))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    """y = x @ W + b with W stored [in, out]."""

    def __init__(self, in_dim: int, out_dim: int):
        self.weight = Parameter((in_dim, out_dim), init="fan_in")
        self.bias = Parameter((out_dim,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Parameter((dim,), init="ones")
        self.beta = Parameter((dim,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention over [B, T, C] tokens, one
    tape node (``T.attention``) that keeps only its inputs and weights.

    ``mask`` is an optional additive array broadcast onto the score tensor
    [B, H, Tq, Tk]; use 0 for allowed and -inf for blocked entries.  With
    ``rows`` set, only the first ``rows`` query tokens attend.  The whole
    post-softmax attention weights are built only into a ``record`` dict.
    """

    def __init__(self, dim: int, heads: int):
        if dim % heads:
            raise ContractError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq = Linear(dim, dim)
        self.wk = Linear(dim, dim)
        self.wv = Linear(dim, dim)
        self.wo = Linear(dim, dim)

    def __call__(self, q_tokens: Tensor, kv_tokens: Tensor,
                 mask: np.ndarray | None = None,
                 record: dict | None = None, rows: int | None = None) -> Tensor:
        weights = [t for lin in (self.wq, self.wk, self.wv, self.wo)
                   for t in (lin.weight, lin.bias)]
        return T.attention(q_tokens, kv_tokens, weights, self.heads, mask, rows, record)


class Mlp(Module):
    """``fc2(gelu(fc1(x)))``, one tape node (``T.mlp``) that keeps no hidden rows."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int):
        self.fc1 = Linear(in_dim, hidden)
        self.fc2 = Linear(hidden, out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias)


class EncoderBlock(Module):
    """Pre-norm self-attention block.

    With ``rows`` set, only the first ``rows`` output rows are computed:
    every row still serves as a key and a value, but the queries, the
    residual and the MLP run on that prefix alone.  Past ``ln1`` and the
    key and value projections, the tape then keeps only the prefix's arrays.
    """

    def __init__(self, dim: int, heads: int, mlp_ratio: int = 4):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, dim * mlp_ratio, dim)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 rows: int | None = None) -> Tensor:
        h = self.ln1(x)
        x = x if rows is None else T.narrow(x, 1, 0, rows)
        x = x + self.attn(h, h, mask, rows=rows)
        x = x + self.mlp(self.ln2(x))
        return x


class DecoderBlock(Module):
    """Pre-norm block: self-attention, then cross-attention, then MLP.

    ``rows`` computes only the first ``rows`` output rows, as in
    ``EncoderBlock``; the cross-attention queries come from that prefix too.
    """

    def __init__(self, dim: int, heads: int, mlp_ratio: int = 4):
        self.ln1 = LayerNorm(dim)
        self.self_attn = MultiHeadAttention(dim, heads)
        self.ln_q = LayerNorm(dim)
        self.ln_kv = LayerNorm(dim)
        self.cross_attn = MultiHeadAttention(dim, heads)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, dim * mlp_ratio, dim)

    def __call__(self, x: Tensor, kv: Tensor,
                 self_mask: np.ndarray | None = None,
                 record: dict | None = None, rows: int | None = None) -> Tensor:
        h = self.ln1(x)
        x = x if rows is None else T.narrow(x, 1, 0, rows)
        x = x + self.self_attn(h, h, self_mask, rows=rows)
        x = x + self.cross_attn(self.ln_q(x), self.ln_kv(kv), record=record)
        x = x + self.mlp(self.ln2(x))
        return x


def causal_pad_mask(real: np.ndarray) -> np.ndarray:
    """Additive [B, 1, T, T] mask combining causality with pad blocking.

    ``real`` is a boolean [B, T] array marking non-pad positions.  Key k is
    visible to query t iff k <= t and (real[k] or k == t); the diagonal is
    always allowed so no attention row is fully blocked.
    """
    B, S = real.shape
    allowed = np.tril(np.ones((S, S), dtype=bool))[None, :, :] & real[:, None, :]
    allowed |= np.eye(S, dtype=bool)[None, :, :]
    mask = np.where(allowed, 0.0, NEG_INF)
    return mask[:, None, :, :]
