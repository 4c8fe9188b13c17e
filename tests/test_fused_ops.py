"""The fused ``linear``, ``attention``, ``mlp`` and ``linear_sq_error`` ops:
bitwise agreement with the composed ops they replace, skipped gradients for
untracked parents, finite differences, one tape node per call, and what
each node keeps."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import closure_arrays, tape_census
from scipy.special import erf

from sydes import decoders, losses, nn
from sydes import tensor as T
from sydes.errors import ShapeError
from sydes.gradcheck import CheckResult, check_leaves
from sydes.tensor import RngState, Tensor


def leaf(rng, shape):
    return Tensor(rng.normal(shape), requires_grad=True)


def grads_of(build, leaves, upstream):
    """Output data and the gradient of every leaf for ``sum(build() * upstream)``."""
    for x in leaves:
        x.zero_grad()
    out = build()
    T.sum_(out * Tensor(upstream)).backward()
    return out.data, [x.grad for x in leaves]


def assert_bitwise(got, want):
    (out_a, grads_a), (out_b, grads_b) = got, want
    assert out_a.tobytes() == out_b.tobytes()
    for ga, gb in zip(grads_a, grads_b):
        assert ga.shape == gb.shape and ga.tobytes() == gb.tobytes()


def tape_nodes(root) -> list:
    """Op nodes reachable from ``root``."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


def tape_kinds(root) -> Counter:
    """Op nodes reachable from ``root``, counted by the function that built
    their VJP."""
    return Counter(node._vjp.__qualname__.split(".")[0] for node in tape_nodes(root))


def names(op, *shapes):
    """A ``match=`` pattern for a ``ShapeError`` of ``op`` that names
    ``shapes`` (strings, in order)."""
    return f"^{op} " + "".join(".*" + re.escape(shape) for shape in shapes)


def causal(t):
    return np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, -np.inf)


def swap_last2(x):
    """``x`` with its last two axes swapped: ``k^T`` in attention."""
    n = len(x.shape)
    return T.transpose(x, tuple(range(n - 2)) + (n - 1, n - 2))


def heads_first(x):
    """[B, T, H, D] -> [B, H, T, D], the strided layout attention sees in
    ``MultiHeadAttention``."""
    return T.transpose(x, (0, 2, 1, 3))


def attention_inputs(rng, kind, b, t, tk, c, rows):
    """Query tokens ``x``, key and value tokens (``x`` itself but for a
    cross-attention), the eight projection leaves, an upstream gradient and
    the ``rows`` prefix (None but for kind "rows")."""
    x = leaf(rng.split("x"), (b, t, c))
    kv = leaf(rng.split("kv"), (b, tk, c)) if kind == "cross" else x
    weights = [leaf(rng.split(f"{name}/{part}"), (c, c) if part == "w" else (c,))
               for name in "qkvo" for part in "wb"]
    rows = rows if kind == "rows" else None
    upstream = rng.split("g").normal((b, rows or t, c))
    return x, kv, weights, upstream, rows


def attention_leaves(x, kv, weights):
    return ([x] if x is kv else [x, kv]) + weights


def composed_mha(x, kv, weights, heads, mask, rows, record=None):
    """Multi-head attention from the composed ops, the reference for
    ``attention``: the q, k and v projections with their head splits,
    scaled softmax attention, the head merge and ``wo``."""
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    b, _, c = x.shape
    d = c // heads
    if rows is not None:
        x = T.narrow(x, 1, 0, rows)
        mask = None if mask is None else mask[..., :rows, :]

    def split(tokens, w, bias):
        return heads_first(T.reshape(T.linear(tokens, w, bias), (b, tokens.shape[1], heads, d)))

    q, k, v = split(x, wq, bq), split(kv, wk, bk), split(kv, wv, bv)
    scores = T.matmul(q, swap_last2(k)) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = scores + Tensor(mask)
    p = T.softmax(scores)
    if record is not None:
        record["weights"] = p.data
    out = T.transpose(T.matmul(p, v), (0, 2, 1, 3))
    return T.linear(T.reshape(out, (b, x.shape[1], c)), wo, bo)


def composed_gelu(a):
    """The exact GELU as a node of its own that keeps its derivative, the
    reference for ``mlp``'s middle."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    d = cdf + x * np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return T._track(x * cdf, (a,), lambda g: (g * d,))


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_bitwise_equal_to_matmul_plus_bias(self, x_shape, with_bias):
        rng = RngState(11, "linear")
        x = leaf(rng.split("x"), x_shape)
        w, b = leaf(rng.split("w"), (4, 5)), leaf(rng.split("b"), (5,))
        leaves = [x, w] + ([b] if with_bias else [])
        bias = b if with_bias else None
        upstream = rng.split("g").normal(x_shape[:-1] + (5,))

        def composed():
            y = T.matmul(x, w)
            return y + b if with_bias else y

        assert_bitwise(grads_of(lambda: T.linear(x, w, bias), leaves, upstream),
                       grads_of(composed, leaves, upstream))

    def test_untracked_parent_gets_no_gradient(self):
        rng = RngState(12, "linear")
        x = Tensor(rng.split("x").normal((2, 3, 4)))
        w, b = leaf(rng.split("w"), (4, 5)), leaf(rng.split("b"), (5,))
        out = T.linear(x, w, b)
        gx, gw, gb = out._vjp(np.ones(out.shape))
        assert gx is None and gw.shape == (4, 5) and gb.shape == (5,)
        b.requires_grad = False
        out = T.linear(x, w, b)
        assert out._vjp(np.ones(out.shape))[2] is None

    def test_finite_differences(self):
        for case in range(5):
            rng = RngState(case, "linear-fd")
            x = leaf(rng.split("x"), (2, 3, 4))
            w, b = leaf(rng.split("w"), (4, 5)), leaf(rng.split("b"), (5,))
            result = CheckResult("linear")
            check_leaves(lambda: T.sum_(T.tanh(T.linear(x, w, b))), [x, w, b], result, rng)
            assert result.passed, result.line()

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_no_grad_forward_is_the_tracked_forward(self, with_bias):
        rng = RngState(13, "linear")
        x = leaf(rng.split("x"), (2, 3, 4))
        w, b = leaf(rng.split("w"), (4, 5)), leaf(rng.split("b"), (5,))
        operands = [x, w] + ([b] if with_bias else [])
        want = T.linear(*operands).data.tobytes()
        with T.no_grad():
            quiet = T.linear(*operands)
        plain = T.linear(*(Tensor(v.data) for v in operands))
        for out in (quiet, plain):
            assert out._vjp is None and not out.requires_grad
            assert out.data.tobytes() == want

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match=names("linear", "(2, 3) @ (4, 5)")):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError, match=names("linear", "(4,) @ (4, 5)")):
            T.linear(Tensor(np.ones(4)), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError, match=names("linear", "(2, 4) @ (4, 5) + (4,)")):
            T.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))), Tensor(np.ones(4)))


class TestSharedRightOperandGradients:
    """``linear``'s and ``matmul``'s gradients for a 2-D right operand
    [n, m] shared by every leading index: each is one GEMM over the
    flattened rows of ``x`` [..., n]."""

    N, M = 4, 5

    def operand(self, case):
        rng = RngState(31, case)
        if case == "narrow":
            # A strided view of the last axis, as ``pixel_head`` receives.
            full = leaf(rng.split("x"), (2, 5, self.N + 2))
            x = T.narrow(full, 2, 1, self.N)
            assert not x.data.flags.c_contiguous
            return x
        return leaf(rng.split("x"), {"3d": (2, 3), "4d": (2, 3, 2)}[case] + (self.N,))

    @pytest.mark.parametrize("op", [T.linear, T.matmul])
    @pytest.mark.parametrize("case", ["3d", "4d", "narrow"])
    def test_one_gemm_over_flattened_rows(self, op, case):
        x = self.operand(case)
        w = leaf(RngState(32, case), (self.N, self.M))
        out = op(x, w)
        g = RngState(33, case).normal(out.shape)
        gx, gw = out._vjp(g)
        xd, wd = x.data, w.data
        want_gx = (g.reshape(-1, self.M) @ wd.T).reshape(xd.shape)
        want_gw = xd.reshape(-1, self.N).T @ g.reshape(-1, self.M)
        assert gx.shape == xd.shape and gx.tobytes() == want_gx.tobytes()
        assert gw.shape == wd.shape and gw.tobytes() == want_gw.tobytes()
        np.testing.assert_allclose(gx, np.einsum("...m,nm->...n", g, wd), rtol=0, atol=1e-12)
        lead = "abc"[:xd.ndim - 1]
        np.testing.assert_allclose(gw, np.einsum(f"{lead}n,{lead}m->nm", xd, g),
                                   rtol=0, atol=1e-12)

    def test_node_keeps_x_itself_not_a_copy(self):
        # Guard: the rows are flattened inside the VJP, not in the forward.
        x = self.operand("narrow")
        w = leaf(RngState(34), (self.N, self.M))
        out = T.linear(x, w)
        arrays = [c.cell_contents for c in out._vjp.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert any(a is x.data for a in arrays)
        assert sum(np.shares_memory(a, x.data) for a in arrays) == 1
        assert all(a is x.data or a is w.data for a in arrays)


class TestAttention:
    """``attention``: multi-head attention as one node, bitwise the composed
    projections, head split, softmax attention, head merge and ``wo``, for
    self-attention, cross-attention (Tq != Tk) and a ``rows=`` prefix."""

    B, H, T_, TK, C, ROWS = 2, 3, 5, 7, 6, 3
    KINDS = ("self", "cross", "rows")

    def inputs(self, seed, kind, b=B):
        return attention_inputs(RngState(seed, "attention"), kind, b, self.T_,
                                self.TK, self.C, self.ROWS)

    def mask(self, mask_kind, kind, b=B):
        tk = self.TK if kind == "cross" else self.T_
        if mask_kind == "none":
            return None
        if mask_kind == "finite":
            return RngState(22, "attention-mask").normal((b, 1, self.T_, tk))
        real = np.ones((b, tk), dtype=bool)
        real[0, -2:] = False  # two pad tokens in the first sample
        if kind == "cross":
            return np.where(real, 0.0, -np.inf)[:, None, None, :]
        return nn.causal_pad_mask(real)

    @pytest.mark.parametrize("mask_kind", ["none", "causal", "finite"])
    def test_bitwise_equal_to_composed_ops(self, mask_kind):
        for kind in self.KINDS:
            x, kv, weights, upstream, rows = self.inputs(21, kind)
            mask = self.mask(mask_kind, kind)
            leaves = attention_leaves(x, kv, weights)
            got, want = {}, {}
            assert_bitwise(
                grads_of(lambda: T.attention(x, kv, weights, self.H, mask, rows, got),
                         leaves, upstream),
                grads_of(lambda: composed_mha(x, kv, weights, self.H, mask, rows, want),
                         leaves, upstream))
            assert got["weights"].tobytes() == want["weights"].tobytes(), kind
            if mask_kind == "causal" and kind != "cross":
                above = np.triu_indices(rows or self.T_, 1, self.T_)
                assert np.all(got["weights"][..., above[0], above[1]] == 0.0)

    def test_untracked_parents_get_no_gradient(self):
        x, kv, weights, _, _ = self.inputs(23, "cross")
        for w in weights[2:4]:  # a frozen key projection
            w.requires_grad = False
        out = T.attention(x, kv, weights, self.H)
        gx, gkv, *gw = out._vjp(np.ones(out.shape))
        assert gx.shape == x.shape and gkv.shape == kv.shape
        assert gw[2] is None and gw[3] is None
        assert all(g.shape == w.shape for g, w in zip(gw, weights) if w.requires_grad)
        # Only the output projection tracked: nothing else gets a gradient.
        quiet = [Tensor(w.data) for w in weights[:6]] + weights[6:]
        out = T.attention(Tensor(x.data), Tensor(kv.data), quiet, self.H)
        grads = out._vjp(np.ones(out.shape))
        assert all(g is None for g in grads[:8])
        assert grads[8].shape == (self.C, self.C) and grads[9].shape == (self.C,)

    @pytest.mark.parametrize("masked", [False, True])
    def test_finite_differences(self, masked):
        for case, kind in enumerate(self.KINDS):
            rng = RngState(case, "attention-fd")
            x, kv, weights, _, rows = attention_inputs(rng, kind, 2, 4, 3, 4, 2)
            w = Tensor(rng.split("w").normal((2, rows or 4, 4)))
            mask = None
            if masked:
                mask = causal(4)[None, None] if kind != "cross" else np.array([0.0, 0.0, -np.inf])
            leaves = attention_leaves(x, kv, weights)
            result = CheckResult("attention")
            check_leaves(lambda: T.sum_(T.attention(x, kv, weights, 2, mask, rows) * w),
                         leaves, result, rng)
            assert result.passed and result.checked == sum(v.size for v in leaves), result.line()

    def test_no_grad_forward_is_the_tracked_forward(self):
        for kind in self.KINDS:
            x, kv, weights, _, rows = self.inputs(26, kind)
            mask = self.mask("causal", kind)
            records = want_p, quiet_p, plain_p = {}, {}, {}
            want = T.attention(x, kv, weights, self.H, mask, rows, want_p)
            with T.no_grad():
                quiet = T.attention(x, kv, weights, self.H, mask, rows, quiet_p)
            plain_x = Tensor(x.data)
            plain = T.attention(plain_x, plain_x if x is kv else Tensor(kv.data),
                                [Tensor(w.data) for w in weights], self.H, mask, rows, plain_p)
            for out in (quiet, plain):
                assert out._vjp is None and not out.requires_grad, kind
                assert out.data.tobytes() == want.data.tobytes()
            for record in records[1:]:
                assert record["weights"].tobytes() == want_p["weights"].tobytes()

    def test_cross_attention_lengths(self):
        x, kv, weights, _, _ = self.inputs(24, "cross")
        record = {}
        out = T.attention(x, kv, weights, self.H, record=record)
        p = record["weights"]
        assert out.shape == (self.B, self.T_, self.C)
        assert p.shape == (self.B, self.H, self.T_, self.TK)
        assert np.allclose(p.sum(-1), 1.0, atol=1e-12)

    def test_rank_is_checked_before_rows(self):
        # ``rows=`` slices x only after the shape check, so a token array of
        # the wrong rank names the op and the shapes, not a numpy index error.
        _, kv, weights, _, _ = self.inputs(27, "cross")
        for bad in (np.ones(6), np.ones(()), np.ones((5, 6))):
            with pytest.raises(ShapeError, match=names("attention", f"{bad.shape}, (2, 7, 6)")):
                T.attention(Tensor(bad), kv, weights, self.H, rows=2)

    def test_shape_errors(self):
        x, kv, weights, _, _ = self.inputs(25, "cross")
        with pytest.raises(ShapeError, match=names("attention", "(2, 5, 6), (2, 7, 4)")):
            T.attention(x, Tensor(np.ones((2, 7, 4))), weights, self.H)
        with pytest.raises(ShapeError, match=names("attention", "(2, 5, 6), (3, 7, 6)")):
            T.attention(x, Tensor(np.ones((3, 7, 6))), weights, self.H)
        with pytest.raises(ShapeError, match=names("attention", "4 heads", "(2, 5, 6)")):
            T.attention(x, kv, weights, 4)
        with pytest.raises(ShapeError, match=names("attention", "(6, 6), (5,)]")):
            T.attention(x, kv, weights[:7] + [Tensor(np.ones(5))], self.H)
        with pytest.raises(ShapeError, match=names("attention mask", "(2, 2, 3, 5, 7)",
                                                   "(2, 3, 5, 7)")):
            T.attention(x, kv, weights, self.H, np.zeros((2, 2, 3, 5, 7)))
        # Each of these once ran on (a ZeroDivisionError, a numpy error in
        # the forward or the backward, or rows silently clamped to T).
        for heads in (0, -2):
            with pytest.raises(ShapeError, match=names("attention", f"{heads} heads",
                                                       "(2, 5, 6), (2, 7, 6)")):
                T.attention(x, kv, weights, heads)
        for rows in (6, -1, 0):
            with pytest.raises(ShapeError, match=names("attention", f"rows={rows}",
                                                       "(2, 5, 6), (2, 7, 6)")):
                T.attention(x, kv, weights, self.H, rows=rows)
        for xs, kvs in (((2, 0, 6), (2, 7, 6)), ((2, 5, 6), (2, 0, 6)), ((0, 5, 6), (0, 7, 6))):
            with pytest.raises(ShapeError, match=names("attention", f"{xs}, {kvs}")):
                T.attention(Tensor(np.ones(xs), requires_grad=True), Tensor(np.ones(kvs)),
                            weights, self.H)


class TestAttentionRecompute:
    """The forward and the VJP build the weights chunk by chunk in one loop,
    ``_attend``; the VJP rebuilds q, k, v, the weights and the context from
    the inputs alone.  The node keeps no row statistics, and nothing of size
    Tq*Tk stays on the tape."""

    B = 5
    KINDS = TestAttention.KINDS

    def chunked(self, mask_kind, chunk_scores, monkeypatch):
        """Bitwise agreement with the composed ops for every kind, with
        chunks of ``chunk_scores(per_sample)`` score values, ``per_sample``
        being one sample's H * Tq * Tk; returns the chunks of ``_attend``
        per kind, forward then VJP, by leading size."""
        shapes = TestAttention()
        calls = {}
        for kind in self.KINDS:
            x, kv, weights, upstream, rows = shapes.inputs(41, kind, self.B)
            mask = shapes.mask(mask_kind, kind, self.B)
            tq, tk = upstream.shape[1], kv.shape[1]
            monkeypatch.setattr(T, "ATTENTION_CHUNK", chunk_scores(shapes.H * tq * tk))
            calls[kind] = []

            def counting(*args, _attend=T._attend, _calls=calls[kind]):
                for c, p in _attend(*args):
                    _calls.append(p.shape[0])
                    yield c, p

            monkeypatch.setattr(T, "_attend", counting)
            leaves = attention_leaves(x, kv, weights)
            got = grads_of(lambda: T.attention(x, kv, weights, shapes.H, mask, rows),
                           leaves, upstream)
            monkeypatch.undo()
            assert_bitwise(got, grads_of(
                lambda: composed_mha(x, kv, weights, shapes.H, mask, rows), leaves, upstream))
        return calls

    @pytest.mark.parametrize("mask_kind", ["none", "causal", "finite"])
    def test_chunked_vjp_bitwise_equal_to_composed_ops(self, mask_kind, monkeypatch):
        # Two samples' scores per chunk: chunks of 2, 2 and 1 samples, in
        # the forward and again in the VJP.
        calls = self.chunked(mask_kind, lambda per_sample: 2 * per_sample, monkeypatch)
        assert calls == {kind: [2, 2, 1] * 2 for kind in self.KINDS}

    def test_chunk_holds_at_least_one_sample(self, monkeypatch):
        calls = self.chunked("finite", lambda per_sample: 1, monkeypatch)
        assert calls == {kind: [1] * self.B * 2 for kind in self.KINDS}

    def test_forward_builds_no_whole_weight_array(self, monkeypatch):
        """Without ``record``, the forward builds one sample's weights at a
        time, so its peak stays below the whole [B, H, T, T] weight array."""
        b, h, t, c = 8, 2, 64, 8
        x, kv, weights, _, _ = attention_inputs(RngState(43, "attention-peak"),
                                                "self", b, t, t, c, t)
        mask = causal(t)[None, None]
        monkeypatch.setattr(T, "ATTENTION_CHUNK", h * t * t)
        tracemalloc.start()
        try:
            out = T.attention(x, kv, weights, h, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * h * t * t * 8, peak
        assert out.shape == (b, t, c)

    @pytest.mark.parametrize("masked", [False, True])
    def test_node_keeps_no_score_sized_array(self, masked):
        b, h, t, c = 2, 2, 8, 4
        x, kv, weights, _, _ = attention_inputs(RngState(42, "attention-closure"),
                                                "self", b, t, t, c, t)
        mask = causal(t)[None, None] if masked else None
        record = {}
        out = T.attention(x, kv, weights, h, mask, record=record)
        p = record["weights"]
        assert not any(isinstance(cell.cell_contents, Tensor) for cell in out._vjp.__closure__)
        arrays = closure_arrays(out._vjp)
        inputs = [x.data] + [w.data for w in weights]
        assert any(a is x.data for a in arrays)
        for a in arrays:
            assert not np.shares_memory(a, p)
            # Only the node's own inputs may be as large as one head's scores.
            if not any(a is i for i in inputs) and (mask is None
                                                    or not np.shares_memory(a, mask)):
                assert a.size < t * t, a.shape


class TestMlp:
    """``mlp``: two linear layers with an exact GELU between, as one node,
    bitwise the composed ``linear``, GELU and ``linear``."""

    @staticmethod
    def operands(seed, x_shape, hidden=7, out=3):
        rng = RngState(seed, "mlp")
        n = x_shape[-1]
        return [leaf(rng.split("x"), x_shape), leaf(rng.split("w1"), (n, hidden)),
                leaf(rng.split("b1"), (hidden,)), leaf(rng.split("w2"), (hidden, out)),
                leaf(rng.split("b2"), (out,))]

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_bitwise_equal_to_composed_ops(self, x_shape):
        leaves = self.operands(60, x_shape)
        x, w1, b1, w2, b2 = leaves
        upstream = RngState(60, "g").normal(x_shape[:-1] + (3,))
        assert_bitwise(grads_of(lambda: T.mlp(*leaves), leaves, upstream),
                       grads_of(lambda: T.linear(composed_gelu(T.linear(x, w1, b1)), w2, b2),
                                leaves, upstream))

    def test_untracked_parent_gets_no_gradient(self):
        x, w1, b1, w2, b2 = self.operands(61, (2, 3, 4))
        out = T.mlp(Tensor(x.data), w1, b1, w2, b2)
        gx, *gw = out._vjp(np.ones(out.shape))
        assert gx is None and [g.shape for g in gw] == [(4, 7), (7,), (7, 3), (3,)]
        for p in (w1, b1, w2):
            p.requires_grad = False
        out = T.mlp(Tensor(x.data), w1, b1, w2, b2)
        assert out._parents[4] is b2
        grads = out._vjp(np.ones(out.shape))
        assert grads[:4] == (None,) * 4 and grads[4].shape == (3,)

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_finite_differences(self, x_shape):
        for case in range(3):
            leaves = self.operands(case, x_shape)
            result = CheckResult("mlp")
            check_leaves(lambda: T.sum_(T.tanh(T.mlp(*leaves))), leaves, result, RngState(case))
            assert result.passed and result.checked == sum(v.size for v in leaves), result.line()

    def test_no_grad_forward_is_the_tracked_forward(self):
        leaves = self.operands(62, (2, 3, 4))
        want = T.mlp(*leaves).data.tobytes()
        with T.no_grad():
            quiet = T.mlp(*leaves)
        plain = T.mlp(*(Tensor(v.data) for v in leaves))
        for out in (quiet, plain):
            assert out._vjp is None and not out.requires_grad
            assert out.data.tobytes() == want

    def test_shape_errors(self):
        x, w1, b1, w2, b2 = self.operands(63, (2, 3, 4))
        # The second layer: the hidden rows [2, 3, 7] against a [6, 3] weight.
        with pytest.raises(ShapeError, match=names("mlp", "(2, 3, 7) @ (6, 3) + (3,)")):
            T.mlp(x, w1, b1, Tensor(np.ones((6, 3))), b2)
        with pytest.raises(ShapeError, match=names("mlp", "(2, 3, 7) @ (7, 3) + (4,)")):
            T.mlp(x, w1, b1, w2, Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match=names("mlp", "(2, 3, 4) @ (4, 7) + (6,)")):
            T.mlp(x, w1, Tensor(np.ones(6)), w2, b2)
        with pytest.raises(ShapeError, match=names("mlp", "(4,) @ (4, 7) + (7,)")):
            T.mlp(Tensor(np.ones(4)), w1, b1, w2, b2)


class TestSumSquares:
    """``linear_sq_error``: the per-row sum of squares of a linear layer's
    residual against a target, as one node."""

    SHAPES = [(7, 4), (5, 6, 4), (5, 3, 4), (3, 2, 4, 4)]
    M = 5

    def operands(self, seed, shape):
        rng = RngState(seed, "linear-sq-error")
        x = leaf(rng.split("x"), shape)
        w, b = leaf(rng.split("w"), (shape[-1], self.M)), leaf(rng.split("b"), (self.M,))
        t = rng.split("t").uniform(shape[:-1] + (self.M,))
        return x, w, b, t

    @staticmethod
    def composed(x, w, b, t):
        d = T.linear(x, w, b) - Tensor(t)
        return T.sum_(d * d, axis=-1)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunked", [False, True])
    def test_bitwise_equal_to_composed_ops(self, shape, chunked, monkeypatch):
        x, w, b, t = self.operands(50, shape)
        upstream = RngState(50, "g").normal(shape[:-1])
        if chunked:
            # Two leading rows per chunk, so the last chunk is short when
            # the first axis is odd.
            monkeypatch.setattr(T, "ATTENTION_CHUNK", 2 * t[0].size)
        assert_bitwise(grads_of(lambda: T.linear_sq_error(x, w, b, t.__getitem__),
                                [x, w, b], upstream),
                       grads_of(lambda: self.composed(x, w, b, t), [x, w, b], upstream))

    def test_node_keeps_only_its_input(self, monkeypatch):
        """No node of a reconstruction loss's tape keeps an array the size
        of the residual: the rows, weight and bias are smaller (the head
        widens 3 to 8), and the target is read through its function."""
        monkeypatch.setattr(T, "ATTENTION_CHUNK", 16)
        rng = RngState(51, "rec-closure")
        head = nn.Linear(3, 8)
        head.initialize(rng.split("head"))
        x = leaf(rng.split("x"), (4, 6, 3))
        rows = T.narrow(x * 2.0, 1, 0, 5)  # interior, as the decoder's mask rows are
        t = rng.split("t").uniform((4, 5, 8))
        loss = losses.reconstruction_loss(rows, head, t.__getitem__)
        assert tape_kinds(loss) == Counter(linear_sq_error=1, sum_=1, mul=2, narrow=1)
        node = next(n for n in tape_nodes(loss) if n._vjp.__qualname__.startswith("linear_sq"))
        assert node._parents == (rows._node, head.weight, head.bias)
        arrays = [a for _, held in tape_census(loss) for a in held]
        assert any(a is rows.data for a in arrays)
        for a in arrays:
            assert a.size < t.size and not np.shares_memory(a, t), a.shape
        loss.backward()
        assert x.grad.shape == x.shape and head.weight.grad.shape == (3, 8)

    def test_untracked_input_records_nothing(self):
        x, w, b, t = self.operands(52, (3, 4))
        with T.no_grad():
            quiet = T.linear_sq_error(x, w, b, t.__getitem__)
        plain = T.linear_sq_error(*(Tensor(v.data) for v in (x, w, b)), t.__getitem__)
        want = self.composed(x, w, b, t).data.tobytes()
        for out in (quiet, plain):
            assert out._vjp is None and not out.requires_grad
            assert out.data.tobytes() == want

    def test_untracked_parent_gets_no_gradient(self):
        x, w, b, t = self.operands(53, (2, 3, 4))
        w.requires_grad = False
        out = T.linear_sq_error(x, w, b, t.__getitem__)
        gx, gw, gb = out._vjp(np.ones(out.shape))
        assert gx.shape == x.shape and gw is None and gb.shape == (self.M,)

    def test_finite_differences(self, monkeypatch):
        monkeypatch.setattr(T, "ATTENTION_CHUNK", 30)
        for case in range(5):
            x, w, b, t = self.operands(case, (3, 2, 4))
            result = CheckResult("linear_sq_error")
            check_leaves(lambda: T.sum_(T.tanh(T.linear_sq_error(x, w, b, t.__getitem__))),
                         [x, w, b], result, RngState(case))
            assert result.passed and result.checked == x.size + w.size + b.size, result.line()

    def test_shape_errors(self):
        x, w, b, t = self.operands(54, (2, 3, 4))
        with pytest.raises(ShapeError, match=names("linear_sq_error target", "(2, 2, 5)",
                                                   "(2, 3, 5)")):
            T.linear_sq_error(x, w, b, lambda c: t[c, :2])
        with pytest.raises(ShapeError,
                           match=names("linear_sq_error", "(2, 3, 4) @ (4, 5) + (4,)")):
            T.linear_sq_error(x, w, Tensor(np.ones(4)), t.__getitem__)
        with pytest.raises(ShapeError, match=names("linear_sq_error", "(4,) @ (4, 5) + (5,)")):
            T.linear_sq_error(Tensor(np.ones(4)), w, b, t.__getitem__)
        # Zero-size inner axes once raised a ZeroDivisionError.
        with pytest.raises(ShapeError,
                           match=names("linear_sq_error", "(2, 0, 4) @ (4, 5) + (5,)")):
            T.linear_sq_error(Tensor(np.ones((2, 0, 4))), w, b, t.__getitem__)
        with pytest.raises(ShapeError,
                           match=names("linear_sq_error", "(2, 3, 4) @ (4, 0) + (0,)")):
            T.linear_sq_error(x, Tensor(np.ones((4, 0))), Tensor(np.ones(0)), t.__getitem__)


class TestTapeNodes:
    def test_linear_call_is_one_node(self):
        layer = nn.Linear(4, 4)
        layer.initialize(RngState(1))
        x = leaf(RngState(2), (2, 3, 4))
        out = layer(x)
        assert tape_kinds(out) == Counter(linear=1)
        assert out._parents == (x, layer.weight, layer.bias)
        assert tape_kinds(layer(layer(x))) == Counter(linear=2)

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_attention_call_is_one_attention_node(self, with_mask):
        attn = nn.MultiHeadAttention(8, 2)
        attn.initialize(RngState(3))
        x = leaf(RngState(4), (2, 5, 8))
        kv = leaf(RngState(5), (2, 6, 8))
        weights = [attn.wq.weight, attn.wq.bias, attn.wk.weight, attn.wk.bias,
                   attn.wv.weight, attn.wv.bias, attn.wo.weight, attn.wo.bias]
        mask = causal(5)[None, None] if with_mask else None
        record = {}
        out = attn(x, x, mask, record=record)
        # The projections, head split, attention, head merge and ``wo``:
        # one node, whose one input is the queries' and the keys' alike.
        assert tape_kinds(out) == Counter(attention=1)
        assert out._parents == (x, *weights)
        direct = {}
        T.attention(x, x, weights, 2, mask, record=direct)
        assert record["weights"].shape == (2, 2, 5, 5)
        assert record["weights"].tobytes() == direct["weights"].tobytes()
        out = attn(x, kv, record=record)
        assert tape_kinds(out) == Counter(attention=1)
        assert out._parents == (x, kv, *weights) and record["weights"].shape == (2, 2, 5, 6)

    def test_mlp_call_is_one_mlp_node(self):
        rng = RngState(6)
        mlp, head, agg = nn.Mlp(4, 8, 4), decoders.ClassifierHead(4, 3), losses.Aggregator(4)
        for module in (mlp, head, agg):
            module.initialize(rng.split(type(module).__name__))
        x = leaf(rng.split("x"), (2, 3, 4))
        out = mlp(x)
        assert tape_kinds(out) == Counter(mlp=1)
        assert out._parents == (x, mlp.fc1.weight, mlp.fc1.bias, mlp.fc2.weight, mlp.fc2.bias)
        assert tape_kinds(head(x)) == Counter(mlp=1, mean=1)  # the head mean-pools first
        assert tape_kinds(agg(leaf(rng.split("z"), (2, 4, 4))))["mlp"] == 1

    def test_decoder_block_keeps_no_attention_or_mlp_interior(self):
        """A census of one ``DecoderBlock`` forward's VJP closures
        (``tape_census``, which counts an array a consumer reaches through
        its producer's rebuild under the producer), with query, key and
        hidden widths that tell the arrays apart.  The only token-sized
        arrays on the tape are the layer norms' normalized rows.  No
        consumer holds one of its own: not q, k, v or the attention context,
        and not the layer-norm output it reads, which it rebuilds from
        ``xhat``.  The MLP keeps one hidden-sized array, its ``cdf``."""
        b, t, tk, c, ratio = 2, 5, 7, 8, 3
        block = nn.DecoderBlock(c, 2, ratio)
        block.initialize(RngState(7))
        x, kv = leaf(RngState(8), (b, t, c)), leaf(RngState(9), (b, tk, c))
        out = block(x, kv, causal(t)[None, None])
        assert tape_kinds(out) == Counter(layer_norm=4, attention=2, mlp=1, add=3)
        token_sizes = {b * t * c, b * tk * c}
        interior = Counter()
        for node, arrays in tape_census(out):
            kind = node._vjp.__qualname__.split(".")[0]
            for a in arrays:
                if a.size in token_sizes:
                    interior[kind, "tokens"] += 1
                elif a.size == b * t * c * ratio:
                    interior[kind, "hidden"] += 1
        assert interior == Counter({("layer_norm", "tokens"): 4, ("mlp", "hidden"): 1})
        T.sum_(out).backward()
        assert x.grad.shape == x.shape and kv.grad.shape == kv.shape


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.matmul])
def test_binary_ops_skip_untracked_parent(op):
    tracked = leaf(RngState(5), (3, 3))
    const = Tensor(RngState(6).normal((3, 3)))
    out = op(tracked, const)
    g_tracked, g_const = out._vjp(np.ones(out.shape))
    assert g_tracked.shape == (3, 3) and g_const is None
    out = op(const, tracked)
    g_const, g_tracked = out._vjp(np.ones(out.shape))
    assert g_const is None and g_tracked.shape == (3, 3)
