"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoders, decoders, losses) is built from the ops in
this module.  Design points:

* float64 everywhere; no mixed precision.
* Dynamic tape: every op returns a new ``Tensor`` holding its parents and a
  vector-Jacobian closure.  A node keeps only what its VJP reads: the
  closure captures shapes, flags and the arrays the gradient needs, and a
  parent is linked as itself only when it is a tracked leaf (a parameter or
  a tracked input), else through a data-less stand-in.  So an op's output
  array dies with the output unless a later VJP reads it, as PyTorch's saved
  tensors do (Paszke et al., 2019).  A closure holds arrays, never a
  ``Tensor``.  An op that reads an input whole holds it through ``_keep``:
  as the rebuild the input's producer left on it, if any, else as the
  array.  ``layer_norm`` leaves one (``xhat * gamma + beta``, from arrays
  its own node keeps), so each layer-norm output is on the tape once, as
  ``xhat``.  The model's sub-image patches carry one too, a gather from
  the dataset's bytes.  ``Tensor.backward()`` walks the tape
  in reverse topological order and keeps ``grad`` only on leaves (tensors
  with no VJP, such as parameters); an interior node's gradient is passed
  on to its parents and dropped.  Repeated ``backward()`` calls accumulate into the
  leaves additively; call ``zero_grad`` (or set ``grad = None``) between
  steps.  The tape lives as long as its output is referenced, so a training
  step should let go of its loss once the step is done.
  Inside ``with no_grad():`` ops record nothing, for forwards whose
  gradients are never read.  A VJP returns ``None`` for a parent with
  ``requires_grad=False`` instead of computing a gradient nobody reads.
* Four fused ops keep on the tape only what their VJP reads: ``linear``
  (``x @ W + b``); multi-head ``attention`` with its projections, which
  keeps its inputs and weights, no row statistics, and whose forward and
  VJP build the weights and the context in one chunked loop; ``mlp``
  (``fc2(gelu(fc1(x)))``, which keeps ``x``, the weights and GELU's
  ``cdf``); and ``linear_sq_error`` (the per-row ``sum_((x @ W + b -
  target)**2)``, which keeps ``x``, ``W`` and ``b``).  Cheap interiors are
  rebuilt, not kept (selective recomputation, Korthikanti et al., 2022).
  Each is one node whose forward and VJP repeat the composed ops' products
  and sums in the same order, so their values are bitwise theirs.
* The four share one affine map ``x @ W + b``: ``_affine`` (the product,
  its bias added in place), ``_affine_vjp`` (one GEMM per gradient over
  the flattened rows) and ``_check_affine`` (one ``ShapeError`` naming the
  op and its shapes).  ``matmul`` with a 2-D right operand is ``linear``.
* A ``Parameter`` is a leaf ``Tensor`` with a name and an init rule, so
  modules hand their weights to ops directly; freezing is ``requires_grad``.
* One-sided broadcasting only.  For elementwise binary ops the two shapes are
  right-aligned, the shorter one padded with leading 1s; every aligned axis
  must then either match or be 1 *on a single operand across all axes* (the
  output shape always equals one operand's padded shape).  Mutual expansion
  (e.g. ``[3,1] * [1,4]``) is rejected so outer-product-style surprises fail
  loudly.  Scalars broadcast with anything.  Batched matmul does not
  broadcast: its operands' leading dimensions must be equal.
* ``RngState`` is a counter-based Philox generator keyed by
  blake2b-128(seed, stream).  Identical seed and stream path give an
  identical draw sequence on every platform.  Each named stream is meant to
  be consumed by a single call site; derive substreams with ``split``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ContractError, DegenerateInputError, ShapeError

Array = np.ndarray

_FLOAT64 = np.dtype(np.float64)
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Most float64 values one chunk of the attention weights, or of the target and
# the squares in ``linear_sq_error``, holds (2^17, 1 MB).
ATTENTION_CHUNK = 1 << 17


class Tensor:
    """A dense float64 array with optional gradient tracking.

    An op output holds its ``data``, its VJP and its parents' graph nodes.
    When it is itself used as a parent, the tape links it through its graph
    node (``_node``, made once and shared by every consumer): a ``Tensor``
    with the same VJP and parents whose ``data`` is a shared zero-size
    array, so the tape holds none of the output's values.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_node", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        # A function returning ``data`` bitwise, set by a producer that can
        # rebuild it from arrays the tape holds anyway (see ``_keep``).
        self._rebuild = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        data = self.data
        if data.size != 1:
            raise ContractError(f"item() on tensor of shape {data.shape}")
        return float(data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` of every reachable
        tracked leaf (a tensor with no VJP).  ``self`` must be a scalar.

        An interior node's gradient is handed on to its parents and then
        dropped, so no interior node keeps a ``grad``.  The tape itself is
        left intact: a second call differentiates it again and adds to the
        leaves' ``grad``."""
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        # Gradients for *this* pass live in a local map so stale .grad values
        # from earlier passes never leak into the propagation.
        pending: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in pending:
                    pending[pid] = pending[pid] + pg
                else:
                    pending[pid] = pg

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block return untracked tensors: no parents, no VJP,
    ``requires_grad=False``.  Forward values are unchanged.  The flag is
    per process and restored on exit, so blocks nest."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


# The data of every graph node: zero-size, so the tape holds no values
# through its links.
_NO_DATA = np.zeros(0)


def _graph_node(t: Tensor) -> Tensor:
    """``t`` as a parent on the tape: ``t`` itself if it is a tracked leaf,
    so its ``grad`` lands there, else its data-less graph node, made on
    first use and shared by every later consumer."""
    if t.requires_grad and t._vjp is None:
        return t
    node = getattr(t, "_node", None)
    if node is None:
        node = t._node = Tensor.__new__(Tensor)
        node.data, node.requires_grad, node.grad = _NO_DATA, t.requires_grad, None
        node._parents, node._vjp = t._parents, t._vjp
    return node


def _track(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """The op output ``data``, recorded on the tape when grad mode is on and
    a parent is tracked.  The output links each parent through
    ``_graph_node``, so it references no parent's array.  ``vjp`` captures
    the shapes, flags and arrays it reads, never a ``Tensor``; an input it
    reads whole is held through ``_keep``.  A producer that can rebuild its
    output sets ``_rebuild`` on it after this returns."""
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:  # a loop: any() over a generator costs more per op
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple([_graph_node(q) for q in parents])
                out._vjp = vjp
                out._node = None  # a set slot reads faster than a missing one
                break
    return out


def _keep(t: Tensor):
    """What a VJP holds to read ``t.data``: the rebuild ``t``'s producer left
    on it, so ``t.data`` dies with the forward, else the array itself, as a
    direct closure cell.  ``_kept`` turns either back into the array."""
    return t.data if t._rebuild is None else t._rebuild


def _kept(held):
    """The array ``_keep`` held, rebuilt if it was held as its rebuild."""
    return held() if callable(held) else held


# -- broadcasting helpers ------------------------------------------------

def _check_one_sided(sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """Validate the one-sided broadcast rule and return the output shape."""
    if sa == sb:
        return sa
    nd = max(len(sa), len(sb))
    pa = (1,) * (nd - len(sa)) + sa
    pb = (1,) * (nd - len(sb)) + sb
    out = []
    a_expands = len(sa) < nd
    b_expands = len(sb) < nd
    for da, db in zip(pa, pb):
        if da == db:
            out.append(da)
        elif da == 1:
            out.append(db)
            a_expands = True
        elif db == 1:
            out.append(da)
            b_expands = True
        else:
            raise ShapeError(f"shapes {sa} and {sb} are not broadcastable")
    # Scalars (all-ones shapes) may expand against anything.
    a_scalar = all(d == 1 for d in pa)
    b_scalar = all(d == 1 for d in pb)
    if a_expands and b_expands and not (a_scalar or b_scalar):
        raise ShapeError(f"mutual broadcast of {sa} and {sb} rejected (one-sided rule)")
    return tuple(out)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of a broadcast)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise binary ops ----------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    _check_one_sided(sa, sb)
    # A parent's shape, kept only when its gradient is computed.
    a_shape = sa if a.requires_grad else None
    b_shape = sb if b.requires_grad else None

    def vjp(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))

    return _track(a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    _check_one_sided(sa, sb)
    # A parent's shape, kept only when its gradient is computed.
    a_shape = sa if a.requires_grad else None
    b_shape = sb if b.requires_grad else None

    def vjp(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(-g, b_shape))

    return _track(a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    _check_one_sided(sa, sb)
    # Each operand is kept only when the other, tracked one's gradient reads it.
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def vjp(g):
        return (None if for_a is None else _unbroadcast(g * for_a, sa),
                None if for_b is None else _unbroadcast(g * for_b, sb))

    return _track(a.data * b.data, (a, b), vjp)


def neg(a) -> Tensor:
    a = _coerce(a)
    return _track(-a.data, (a,), lambda g: (-g,))


# -- matmul ----------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product of ``a`` [..., n, k] and ``b`` [..., k, m], both of
    ndim >= 2.  A 2-D ``b`` is shared by every leading index of ``a``, so
    the product is ``linear(a, b)``; otherwise the leading (batch)
    dimensions must be equal."""
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {sa} x {sb}")
    if len(sb) == 2:
        return linear(a, b)
    if sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul batch dimensions disagree: {sa} x {sb}")
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def vjp(g):
        return (None if for_a is None else g @ np.swapaxes(for_a, -1, -2),
                None if for_b is None else np.swapaxes(for_b, -1, -2) @ g)

    return _track(a.data @ b.data, (a, b), vjp)


# -- shape manipulation -----------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    old = a.data.shape
    return _track(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = _coerce(a)
    # The inverse permutation, as np.argsort(axes) gives it, without its call.
    inv = sorted(range(len(axes)), key=axes.__getitem__)
    return _track(np.transpose(a.data, axes), (a,),
                  lambda g: (np.transpose(g, inv),))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        idx = [slice(None)] * g.ndim
        outs = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx[axis] = slice(lo, hi)
            outs.append(g[tuple(idx)])
        return tuple(outs)

    return _track(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), vjp)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``, which must lie
    within the axis (an empty one is allowed)."""
    a = _coerce(a)
    shape = a.data.shape
    if not (-len(shape) <= axis < len(shape) and 0 <= start and 0 <= length
            and start + length <= shape[axis]):
        raise ShapeError(f"narrow of {shape} needs axis in [-ndim, ndim) and [start, start + "
                         f"length) within it, got axis={axis}, start={start}, length={length}")
    idx = [slice(None)] * len(shape)
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        ga = np.zeros(shape)
        ga[idx] = g
        return (ga,)

    return _track(a.data[idx], (a,), vjp)


# -- reductions -------------------------------------------------------------

def _expand_reduced(g: Array, shape: tuple[int, ...], axis) -> Array:
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def sum_(a, axis=None) -> Tensor:
    a = _coerce(a)
    shape = a.data.shape
    return _track(a.data.sum(axis=axis), (a,), lambda g: (_expand_reduced(g, shape, axis),))


def mean(a, axis=None) -> Tensor:
    a = _coerce(a)
    shape = a.data.shape
    count = a.data.size if axis is None else np.prod(
        [shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    # sum then divide is what ``ndarray.mean`` does, without its Python wrapper.
    return _track(a.data.sum(axis=axis) / count, (a,),
                  lambda g: (_expand_reduced(g, shape, axis) / count,))


# -- elementwise unary ops ----------------------------------------------------

def log(a) -> Tensor:
    a = _coerce(a)
    ad = a.data
    return _track(np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a) -> Tensor:
    a = _coerce(a)
    out_data = np.sqrt(a.data)
    return _track(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def tanh(a) -> Tensor:
    a = _coerce(a)
    t = np.tanh(a.data)
    return _track(t, (a,), lambda g: (g * (1.0 - t * t),))


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    x = a.data
    # Piecewise form keeps both tails finite; the unselected branch may
    # overflow harmlessly.
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                     np.exp(x) / (1.0 + np.exp(x)))
    return _track(s, (a,), lambda g: (g * s * (1.0 - s),))


# -- fused neural-net primitives ----------------------------------------------

def softmax(a) -> Tensor:
    """Softmax along the last axis; the row max is subtracted before
    exponentiation so huge logits stay finite.  -inf logits yield exact
    zeros, provided at least one entry per row is finite."""
    a = _coerce(a)
    xm = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(xm)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return _track(p, (a,), vjp)


def log_softmax(a) -> Tensor:
    a = _coerce(a)
    xm = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(xm).sum(axis=-1, keepdims=True))
    out_data = xm - lse

    def vjp(g):
        return (g - np.exp(out_data) * g.sum(axis=-1, keepdims=True),)

    return _track(out_data, (a,), vjp)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply the
    learned affine.  A constant input normalizes to zeros (1e-5 is added to
    each row's variance).  The node keeps the normalized rows ``xhat``, each
    row's inverse deviation and ``gamma``'s array.  A recorded output
    carries a rebuild, ``xhat * gamma + beta`` from those same arrays, so a
    consumer that keeps it (``_keep``) holds no copy of its own: the output
    is on the tape once, as ``xhat`` (the idea of In-Place Activated
    BatchNorm, Rota Bulò et al., 2018)."""
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    xs, gs, bs = x.data.shape, gamma.data.shape, beta.data.shape
    if gs != xs[-1:] or bs != xs[-1:]:
        raise ShapeError(f"layer_norm affine {gs}/{bs} does not match feature dim of {xs}")
    n = xs[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    gd, bd = gamma.data, beta.data

    def affine() -> Array:
        return xhat * gd + bd

    def vjp(g):
        gxhat = g * gd
        gx = inv * (gxhat
                    - gxhat.sum(axis=-1, keepdims=True) / n
                    - xhat * ((gxhat * xhat).sum(axis=-1, keepdims=True) / n))
        reduce_axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=reduce_axes)
        gbeta = g.sum(axis=reduce_axes)
        return gx, ggamma, gbeta

    out = _track(affine(), (x, gamma, beta), vjp)
    if out._vjp is not None:
        out._rebuild = affine
    return out


def l2_normalize(x) -> Tensor:
    """Scale each row (along the last axis) to unit L2 norm.  Zero-norm
    input is a degenerate-input error rather than a silent NaN."""
    x = _coerce(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if (norm < 1e-12).any():
        raise DegenerateInputError("l2_normalize received a zero-norm slice")
    y = x.data / norm

    def vjp(g):
        return ((g - y * (g * y).sum(axis=-1, keepdims=True)) / norm,)

    return _track(y, (x,), vjp)


def embedding_lookup(table, ids: Array) -> Tensor:
    """Gather rows of ``table`` ([V, C]) by an integer array of any shape;
    output shape is ids.shape + (C,)."""
    table = _coerce(table)
    shape = table.data.shape
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= shape[0]):
        raise ContractError(f"embedding ids outside [0, {shape[0]})")

    def vjp(g):
        gt = np.zeros(shape)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (gt,)

    return _track(table.data[ids], (table,), vjp)


def _check_affine(op: str, xs: tuple[int, ...], ws: tuple[int, ...], bs) -> None:
    """Raise a ``ShapeError`` naming ``op`` and the shapes unless they fit
    ``x @ w + b``: ``xs`` [..., n] of ndim >= 2, ``ws`` [n, m] and ``bs``
    [m], or None for no bias."""
    if len(xs) < 2 or len(ws) != 2 or xs[-1] != ws[0] or (bs is not None and bs != ws[1:]):
        bias = "" if bs is None else f" + {bs}"
        raise ShapeError(f"{op} needs [..., n] @ [n, m] + [m] with ndim >= 2, "
                         f"got {xs} @ {ws}{bias}")


def _affine(x: Array, w: Array, b: Array | None = None) -> Array:
    """``x @ w + b``, the bias added into the product in place."""
    y = x @ w
    if b is not None:
        y += b
    return y


def _affine_vjp(g: Array, x: Array | None, w: Array | None, x_shape: tuple[int, ...],
                bias: tuple[int, ...] | None):
    """The gradients of ``_affine(x, w, b)`` for ``g`` [..., m]: x's (shape
    ``x_shape``) if ``w`` is given and w's if ``x`` is, each one GEMM over
    the flattened rows, not one per leading index (Goto & van de Geijn,
    2008); and b's, ``g`` summed to the shape ``bias``, if that is given."""
    g2 = g.reshape(-1, g.shape[-1])
    return (None if w is None else (g2 @ w.T).reshape(x_shape),
            None if x is None else x.reshape(-1, x_shape[-1]).T @ g2,
            None if bias is None else _unbroadcast(g, bias))


def linear(x, weight, bias=None) -> Tensor:
    """``x @ weight + bias`` as one tape node, for ``x`` [..., n] (ndim >= 2),
    ``weight`` [n, m] and an optional ``bias`` [m].  The node keeps ``x``
    (through ``_keep``) only when ``weight`` is tracked, and the reverse.
    Forward and VJP repeat the products and sums of ``matmul`` then ``add``
    in the same order, so every value is bitwise theirs.
    """
    x, weight = _coerce(x), _coerce(weight)
    xs, ws = x.data.shape, weight.data.shape
    parents, b, b_shape = (x, weight), None, None
    if bias is not None:
        bias = _coerce(bias)
        parents, b = parents + (bias,), bias.data
        b_shape = ws[1:] if bias.requires_grad else None
    _check_affine("linear", xs, ws, None if b is None else b.shape)
    for_x = weight.data if x.requires_grad else None
    for_w = _keep(x) if weight.requires_grad else None
    n = len(parents)

    def vjp(g):
        return _affine_vjp(g, _kept(for_w), for_x, xs, b_shape)[:n]

    return _track(_affine(x.data, weight.data, b), parents, vjp)


def linear_sq_error(x, weight, bias, target) -> Tensor:
    """The per-row squared error of ``linear(x, weight, bias)`` against a
    target, ``sum_((y - t) * (y - t), axis=-1)``, as one tape node, for
    ``x`` [G, ..., n], ``weight`` [n, m] and ``bias`` [m].

    ``target(c)`` returns the rows of ``t`` [G, ..., m] at ``c``, a slice of
    the first axis, so ``t`` is never held whole.  The forward makes the
    residual ``y - t`` in one buffer (``linear``'s product and in-place
    bias add), subtracts the target a chunk of the first axis at a time (at
    most ``ATTENTION_CHUNK`` values, at least one index) and sums each
    chunk's squared rows.  The node keeps ``x`` (through ``_keep``),
    ``weight``, ``bias`` and ``target``, and no residual: its VJP rebuilds
    it once, as ``attention`` rebuilds its weights.  Every value is bitwise that of ``linear``, then
    ``sub``, then ``sum_(d * d, axis=-1)``.
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    wd, bd = weight.data, bias.data
    xs, ws = x.data.shape, wd.shape
    _check_affine("linear_sq_error", xs, ws, bd.shape)
    if 0 in xs[1:-1] + ws[1:]:  # ``step`` below divides by their product
        raise ShapeError(f"linear_sq_error needs non-empty inner axes, "
                         f"got {xs} @ {ws} + {bd.shape}")
    n, m = xs[0], ws[1]
    step = max(1, ATTENTION_CHUNK // (int(np.prod(xs[1:-1])) * m))
    tracked = x.requires_grad, weight.requires_grad, bias.requires_grad

    def residual(xd: Array, sums: Array | None = None) -> Array:
        r = _affine(xd, wd, bd)
        for i in range(0, n, step):
            rc = r[i:i + step]
            t = target(slice(i, i + step))
            if t.shape != rc.shape:
                raise ShapeError(f"linear_sq_error target rows {t.shape} != predictions {rc.shape}")
            rc -= t
            if sums is not None:
                flat = rc.reshape(-1, m)
                sums[i:i + step] = (flat * flat).sum(axis=-1).reshape(rc.shape[:-1])
        return r

    out = np.empty(xs[:-1])
    residual(x.data, out)
    held = _keep(x)

    def vjp(g):
        # The squares' gradient (the residual times g, doubled), which sub
        # passes on unchanged, then linear's, in the composed ops' order.
        xd = _kept(held)
        gr = residual(xd)
        gr *= np.asarray(g)[..., None]
        gr += gr
        return _affine_vjp(gr, xd if tracked[1] else None, wd if tracked[0] else None, xs,
                           ws[1:] if tracked[2] else None)

    return _track(out, (x, weight, bias), vjp)


def _attend(q: Array, k: Array, v: Array, scale: float, mask: Array | None, step: int,
            ctx: Array):
    """For each chunk of ``step`` samples of the heads-first ``q``, ``k``
    and ``v``: ``p = softmax(q @ k^T * scale + mask)``, ``p @ v`` written
    into the chunk's rows of ``ctx`` [B, Tq, C], then the chunk's slice and
    ``p`` yielded.  A row's max and exp-sum read only that row, so every
    ``step`` gives bitwise the same weights."""
    B, H, Tq, D = q.shape
    ctx_h = ctx.reshape(B, Tq, H, D).transpose(0, 2, 1, 3)
    for i in range(0, B, step):
        c = slice(i, i + step)
        p = q[c] @ np.swapaxes(k[c], -1, -2)
        p *= scale
        if mask is not None:
            p += mask if mask.shape[0] == 1 else mask[c]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ctx_h[c] = p @ v[c]  # faster than a strided ``out=``
        yield c, p


def attention(x, kv, weights, heads: int, mask=None, rows: int | None = None,
              record: dict | None = None) -> Tensor:
    """Multi-head attention of the tokens ``x`` [B, T, C] over ``kv`` [B,
    Tk, C] as one tape node: the ``linear`` projections ``weights`` = (wq,
    bq, wk, bk, wv, bv, wo, bo) around ``softmax(q @ k^T / sqrt(D) + mask)
    @ v`` on ``heads`` (>= 1) heads of D = C / heads.  No axis may be
    empty.  ``mask`` broadcasts onto the [B, H, Tq, Tk] scores (0 allowed,
    -inf blocked, at least one allowed per row).  With ``rows`` set (an
    integer in [1, T]), the queries are the first ``rows`` rows of ``x``
    and of the mask.  Returns the output [B, Tq, C]; only given ``record``
    does it build the whole weights, as ``record["weights"]``.  Forward and
    VJP run one loop, ``_attend``, over chunks of samples (at most
    ``ATTENTION_CHUNK`` scores).  The node keeps the inputs (through
    ``_keep``, once when ``x is kv``) and the weights, no row statistics;
    its VJP first rebuilds the inputs' ``rows`` prefix, q, k and v.  Every
    value is bitwise that of the composed ``linear``, head split,
    ``softmax``, head merge and ``narrow`` ops (with ``x is kv``, its
    input's gradient is q's, k's and v's summed in that order).
    """
    x, kv = _coerce(x), _coerce(kv)
    params = tuple(_coerce(w) for w in weights)
    wq, bq, wk, bk, wv, bv, wo, bo = (p.data for p in params)
    xd, kvd = x.data, kv.data
    C = xd.shape[-1] if xd.ndim == 3 else 0  # the check comes before ``rows`` slices x
    if (xd.ndim != 3 or kvd.ndim != 3 or kvd.shape[::2] != xd.shape[::2]
            or 0 in xd.shape or 0 in kvd.shape or heads < 1 or C % heads
            or (rows is not None and not (isinstance(rows, (int, np.integer))
                                          and 1 <= rows <= xd.shape[1]))
            or any(w.shape != (C, C) for w in (wq, wk, wv, wo))
            or any(b.shape != (C,) for b in (bq, bk, bv, bo))):
        raise ShapeError(f"attention needs non-empty x [B, T, C] and kv [B, Tk, C], {heads} "
                         f"heads (>= 1) dividing C, rows={rows} (None or in [1, T]) and "
                         f"[C, C] + [C] projections, got {xd.shape}, {kvd.shape} and "
                         f"{[p.data.shape for p in params]}")
    if rows is not None:
        xd = xd[:, :rows]
    (B, Tq, _), Tk, D = xd.shape, kvd.shape[1], C // heads
    scale, scores_shape = 1.0 / np.sqrt(D), (B, heads, Tq, Tk)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        mask = mask if rows is None else mask[..., :rows, :]
        if _check_one_sided(scores_shape, mask.shape) != scores_shape:
            raise ShapeError(f"attention mask {mask.shape} does not broadcast "
                             f"onto scores {scores_shape}")
        mask = mask.reshape((1,) * (4 - mask.ndim) + mask.shape)

    def heads_first(inp: Array, w: Array, b: Array) -> Array:
        return _affine(inp, w, b).reshape(B, -1, heads, D).transpose(0, 2, 1, 3)

    def qkv(xd: Array, kvd: Array):
        return heads_first(xd, wq, bq), heads_first(kvd, wk, bk), heads_first(kvd, wv, bv)

    step = max(1, ATTENTION_CHUNK // (heads * Tq * Tk))
    ctx = np.empty((B, Tq, C))
    if record is not None:
        record["weights"] = np.empty(scores_shape)
    for c, p in _attend(*qkv(xd, kvd), scale, mask, step, ctx):
        if record is not None:
            record["weights"][c] = p
    out = _affine(ctx, wo, bo)
    t = [w.requires_grad for w in (x, kv) + params]  # x, kv, wq, bq, ..., wo, bo
    Tx, same = x.data.shape[1], x is kv  # the VJP keeps these, not the tensors
    held_x, held_kv = None if same else _keep(x), _keep(kv)

    def merged(gh: Array, inp: Array, w: Array, t_in: bool, t_w: bool, t_b: bool):
        """One projection's input, weight and bias gradients from its heads'."""
        return _affine_vjp(gh.transpose(0, 2, 1, 3).reshape(inp.shape), inp if t_w else None,
                           w if t_in else None, inp.shape, (C,) if t_b else None)

    def vjp(g):
        go = _affine_vjp(g, None, wo, g.shape, None)[0]
        go = go.reshape(B, Tq, heads, D).transpose(0, 2, 1, 3)
        kvd = _kept(held_kv)
        xd = kvd if same else _kept(held_x)
        if rows is not None:
            xd = xd[:, :rows]
        q, k, v = qkv(xd, kvd)
        ctx = np.empty(g.shape)
        # gk is the swapped view of a [B, H, D, Tk] buffer, the layout of the
        # composed ops' product, so later products round as theirs do.
        gq, gkt, gv = np.empty(q.shape), np.empty((B, heads, D, Tk)), np.empty(v.shape)
        for c, pc in _attend(q, k, v, scale, mask, step, ctx):
            np.matmul(np.swapaxes(pc, -1, -2), go[c], out=gv[c])
            gs = go[c] @ np.swapaxes(v[c], -1, -2)
            gs -= (gs * pc).sum(axis=-1, keepdims=True)
            gs *= pc
            gs *= scale
            np.matmul(gs, k[c], out=gq[c])
            np.matmul(np.swapaxes(q[c], -1, -2), gs, out=gkt[c])
        del q, k, v, go
        _, gwo, gbo = _affine_vjp(g, ctx if t[8] else None, None, g.shape,
                                  (C,) if t[9] else None)
        gx, gwq, gbq = merged(gq, xd, wq, t[0], t[2], t[3])
        gk_in, gwk, gbk = merged(np.swapaxes(gkt, -1, -2), kvd, wk, t[1], t[4], t[5])
        gv_in, gwv, gbv = merged(gv, kvd, wv, t[1], t[6], t[7])
        if gx is not None and rows is not None:  # narrow's gradient: zeros past the rows
            gx = np.pad(gx, ((0, 0), (0, Tx - rows), (0, 0)))
        grads = (gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo)
        if same:
            return (None if gx is None else (gx + gk_in) + gv_in, *grads)
        return (gx, None if gk_in is None else gk_in + gv_in, *grads)

    return _track(out, (kv,) + params if same else (x, kv) + params, vjp)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` with the exact (erf-based)
    GELU, as one tape node, for ``x`` [..., n] (ndim >= 2), ``w1`` [n, k]
    and ``w2`` [k, m].  The node keeps ``x`` (through ``_keep``), the
    weights and GELU's ``cdf``, and no hidden rows: its VJP rebuilds the
    pre-activation ``a`` with the first GEMM, then ``a * cdf`` and GELU's
    derivative, so ``erf`` runs once per call.  Every value is bitwise that of ``linear``, GELU's
    ``a * cdf`` and ``linear``.
    """
    params = tuple(_coerce(t) for t in (x, w1, b1, w2, b2))
    xd, w1d, b1d, w2d, b2d = (t.data for t in params)
    xs = xd.shape
    _check_affine("mlp", xs, w1d.shape, b1d.shape)
    a = _affine(xd, w1d, b1d)
    _check_affine("mlp", a.shape, w2d.shape, b2d.shape)
    cdf = 0.5 * (1.0 + erf(a * _INV_SQRT2))
    a *= cdf
    y = _affine(a, w2d, b2d)
    tracked = [t.requires_grad for t in params]
    held = _keep(params[0])

    def vjp(g):
        xd = _kept(held)
        a = _affine(xd, w1d, b1d)  # the pre-activation, rebuilt
        _, gw2, gb2 = _affine_vjp(g, a * cdf if tracked[3] else None, None, cdf.shape,
                                  b2d.shape if tracked[4] else None)
        d = np.exp(a * -0.5 * a)  # GELU's derivative, in gelu's order of products
        d *= a
        del a
        d *= _INV_SQRT2PI
        d += cdf
        ga = _affine_vjp(g, None, w2d, cdf.shape, None)[0]
        ga *= d
        return (*_affine_vjp(ga, xd if tracked[1] else None, w1d if tracked[0] else None, xs,
                             b1d.shape if tracked[2] else None), gw2, gb2)

    return _track(y, params, vjp)


# -- parameters ----------------------------------------------------------------

class Parameter(Tensor):
    """A named, trainable leaf tensor.

    Freezing is ``requires_grad``, and ``frozen`` is its negation.  A frozen
    parameter stays off the tape, so ``backward`` computes no gradient for
    it, and the optimizer refuses it; its value stays bit-identical across
    steps.  Values are filled in by ``Module.initialize`` from the rng
    stream derived from the parameter name, so initialization is
    independent of construction order.  ``data`` takes only a float64
    array of the parameter's shape.
    """

    __slots__ = ("name", "init_kind")

    def __init__(self, shape, init: str = "normal"):
        super().__init__(np.zeros(shape), requires_grad=True)
        self.name = ""
        self.init_kind = init

    @property
    def frozen(self) -> bool:
        return not self.requires_grad

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self.requires_grad = not value

    @property
    def tensor(self) -> "Parameter":
        # perfbench/tracer.py keys parameters on id(p.tensor); drop this once it keys on id(p).
        return self

    def initialize(self, rng: "RngState") -> None:
        shape = self.shape
        if self.init_kind == "normal":
            self.data = rng.normal(shape, 0.02)
        elif self.init_kind == "fan_in":
            fan = shape[0] if len(shape) >= 1 else 1
            self.data = rng.normal(shape, 1.0 / np.sqrt(fan))
        elif self.init_kind == "zeros":
            self.data = np.zeros(shape)
        elif self.init_kind == "ones":
            self.data = np.ones(shape)
        else:
            raise ContractError(f"unknown init kind {self.init_kind!r}")

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, frozen={self.frozen})"


# -- deterministic rng -----------------------------------------------------------

@dataclass(frozen=True)
class RngState:
    """Counter-based random stream: Philox4x64 keyed by
    blake2b-128(seed, stream path).

    The same (seed, stream) pair yields the same draw sequence on every
    platform.  Derive a fresh substream with ``split`` for every independent
    consumer (one stream per draw site); a stream's generator always starts
    from counter zero.
    """

    seed: int
    stream: str = ""

    def split(self, name: str) -> "RngState":
        path = f"{self.stream}/{name}" if self.stream else name
        return RngState(self.seed, path)

    def generator(self) -> np.random.Generator:
        key_bytes = hashlib.blake2b(
            f"{self.seed}\x1f{self.stream}".encode(), digest_size=16).digest()
        return np.random.Generator(np.random.Philox(key=int.from_bytes(key_bytes, "little")))

    def normal(self, shape, scale: float = 1.0) -> Array:
        return self.generator().normal(0.0, scale, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> Array:
        return self.generator().uniform(low, high, size=shape)

    def permutation(self, n: int) -> Array:
        return self.generator().permutation(n)

    def integers(self, low: int, high: int, size=None) -> Array:
        return self.generator().integers(low, high, size=size)
