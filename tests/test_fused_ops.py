"""The fused ``linear``, ``attention`` and ``linear_sq_error`` ops: bitwise
agreement with the composed ops they replace, skipped gradients for
untracked parents, finite differences, and one tape node per call."""

import types
from collections import Counter

import numpy as np
import pytest

from sydes import losses, nn
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


def closure_arrays(fn) -> list:
    """The arrays a function's closure holds, also through the closures of
    the Python functions it holds."""
    arrays = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, types.FunctionType):
            arrays += closure_arrays(value)
    return arrays


def causal(t):
    return np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, -np.inf)


def swap_last2(x):
    """``x`` with its last two axes swapped: ``k^T`` in attention."""
    n = len(x.shape)
    return T.transpose(x, tuple(range(n - 2)) + (n - 1, n - 2))


def composed_attention(q, k, v, scale, mask):
    scores = T.matmul(q, swap_last2(k)) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    return T.matmul(T.softmax(scores, axis=-1), v)


def heads_first(x):
    """[B, T, H, D] -> [B, H, T, D], the strided layout attention sees in
    ``MultiHeadAttention``."""
    return T.transpose(x, (0, 2, 1, 3))


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

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones(4)), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError):
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
    B, H, TQ, TK, D = 2, 3, 5, 5, 3

    def inputs(self, seed, tk=TK):
        rng = RngState(seed, "attention")
        raw = [leaf(rng.split(n), (self.B, t, self.H, self.D))
               for n, t in (("q", self.TQ), ("k", tk), ("v", tk))]
        upstream = rng.split("g").normal((self.B, self.H, self.TQ, self.D))
        return raw, upstream

    @pytest.mark.parametrize("mask_kind", ["none", "causal", "finite"])
    def test_bitwise_equal_to_composed_ops(self, mask_kind):
        raw, upstream = self.inputs(21)
        mask = {"none": None,
                "causal": causal(self.TQ)[None, None],
                "finite": RngState(22).normal((self.B, 1, self.TQ, self.TK))}[mask_kind]
        scale = 1.0 / np.sqrt(self.D)
        weights = {}

        def fused():
            out, weights["p"] = T.attention(*[heads_first(x) for x in raw], scale, mask)
            return out

        def composed():
            return composed_attention(*[heads_first(x) for x in raw], scale, mask)

        assert_bitwise(grads_of(fused, raw, upstream), grads_of(composed, raw, upstream))
        scores = T.matmul(heads_first(raw[0]), swap_last2(heads_first(raw[1]))) * scale
        if mask is not None:
            scores = scores + Tensor(mask)
        assert weights["p"].tobytes() == T.softmax(scores, axis=-1).data.tobytes()
        if mask_kind == "causal":
            above = np.triu_indices(self.TQ, 1)
            assert np.all(weights["p"][..., above[0], above[1]] == 0.0)

    def test_untracked_parents_get_no_gradient(self):
        raw, _ = self.inputs(23)
        q, k, v = (heads_first(x) for x in raw)
        out, _ = T.attention(q, k, Tensor(v.data), 0.5)
        gq, gk, gv = out._vjp(np.ones(out.shape))
        assert gq.shape == q.shape and gk.shape == k.shape and gv is None
        out, _ = T.attention(Tensor(q.data), Tensor(k.data), v, 0.5)
        gq, gk, gv = out._vjp(np.ones(out.shape))
        assert gq is None and gk is None and gv.shape == v.shape

    @pytest.mark.parametrize("masked", [False, True])
    def test_finite_differences(self, masked):
        for case in range(3):
            rng = RngState(case, "attention-fd")
            q, k, v = (leaf(rng.split(n), (2, 2, 4, 3)) for n in "qkv")
            w = Tensor(rng.split("w").normal((2, 2, 4, 3)))
            mask = causal(4) if masked else None
            result = CheckResult("attention")
            check_leaves(lambda: T.sum_(T.attention(q, k, v, 0.7, mask)[0] * w),
                         [q, k, v], result, rng)
            assert result.passed, result.line()

    def test_cross_attention_lengths(self):
        raw, _ = self.inputs(24, tk=7)
        q, k, v = (heads_first(x) for x in raw)
        out, p = T.attention(q, k, v, 0.5)
        assert out.shape == (self.B, self.H, self.TQ, self.D)
        assert p.shape == (self.B, self.H, self.TQ, 7)
        assert np.allclose(p.sum(-1), 1.0, atol=1e-12)

    def test_shape_errors(self):
        q = Tensor(np.ones((2, 5, 4)))
        with pytest.raises(ShapeError):
            T.attention(q, Tensor(np.ones((2, 5, 3))), Tensor(np.ones((2, 5, 4))), 1.0)
        with pytest.raises(ShapeError):
            T.attention(q, Tensor(np.ones((2, 6, 4))), Tensor(np.ones((2, 5, 4))), 1.0)
        with pytest.raises(ShapeError, match="mask"):
            T.attention(q, q, q, 1.0, np.zeros((3, 2, 5, 5)))


class TestAttentionRecompute:
    """The VJP recomputes the weights chunk by chunk from the row statistics
    the node keeps; nothing of size Tq*Tk stays on the tape."""

    B, H, T_, D = 5, 2, 5, 3

    @pytest.mark.parametrize("mask_kind", ["none", "causal", "finite"])
    def test_chunked_vjp_bitwise_equal_to_composed_ops(self, mask_kind, monkeypatch):
        rng = RngState(41, "attention-chunks")
        raw = [leaf(rng.split(n), (self.B, self.T_, self.H, self.D)) for n in "qkv"]
        upstream = rng.split("g").normal((self.B, self.H, self.T_, self.D))
        mask = {"none": None,
                "causal": causal(self.T_)[None, None],
                "finite": rng.split("mask").normal((self.B, 1, self.T_, self.T_))}[mask_kind]
        scale = 1.0 / np.sqrt(self.D)
        # Two samples' scores per chunk: chunks of 2, 2 and 1 samples.
        monkeypatch.setattr(T, "ATTENTION_CHUNK", 2 * self.H * self.T_ * self.T_)
        calls = []

        def counting(*args, _weights=T._attention_weights):
            calls.append(args[0].shape[0])
            return _weights(*args)

        monkeypatch.setattr(T, "_attention_weights", counting)
        weights = {}

        def fused():
            out, weights["p"] = T.attention(*[heads_first(x) for x in raw], scale, mask)
            return out

        def composed():
            return composed_attention(*[heads_first(x) for x in raw], scale, mask)

        assert_bitwise(grads_of(fused, raw, upstream), grads_of(composed, raw, upstream))
        assert calls == [self.B, 2, 2, 1]
        scores = T.matmul(heads_first(raw[0]), swap_last2(heads_first(raw[1]))) * scale
        if mask is not None:
            scores = scores + Tensor(mask)
        assert weights["p"].tobytes() == T.softmax(scores, axis=-1).data.tobytes()

    def test_unbatched_inputs_are_one_chunk(self, monkeypatch):
        rng = RngState(43, "attention-2d")
        raw = [leaf(rng.split(n), (t, 3)) for n, t in (("q", 4), ("k", 6), ("v", 6))]
        upstream = rng.split("g").normal((4, 3))
        mask = rng.split("mask").normal((4, 6))
        monkeypatch.setattr(T, "ATTENTION_CHUNK", 1)
        assert_bitwise(grads_of(lambda: T.attention(*raw, 0.5, mask)[0], raw, upstream),
                       grads_of(lambda: composed_attention(*raw, 0.5, mask), raw, upstream))

    @pytest.mark.parametrize("masked", [False, True])
    def test_node_keeps_no_score_sized_array(self, masked):
        b, h, t, d = 2, 2, 8, 3
        rng = RngState(42, "attention-closure")
        q, k, v = (leaf(rng.split(n), (b, h, t, d)) for n in "qkv")
        mask = causal(t)[None, None] if masked else None
        out, p = T.attention(q, k, v, 0.5, mask)
        captured = [cell.cell_contents for cell in out._vjp.__closure__]
        arrays = [a for a in captured if isinstance(a, np.ndarray)]
        assert arrays
        for a in arrays:
            assert not np.shares_memory(a, p)
            if mask is None or not np.shares_memory(a, mask):
                assert a.size < t * t, a.shape


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
        arrays = []
        for n in tape_nodes(loss):
            arrays += closure_arrays(n._vjp)
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
        with pytest.raises(ShapeError):
            T.linear_sq_error(x, w, b, lambda c: t[c, :2])
        with pytest.raises(ShapeError):
            T.linear_sq_error(x, w, Tensor(np.ones(4)), t.__getitem__)
        with pytest.raises(ShapeError):
            T.linear_sq_error(Tensor(np.ones(4)), w, b, t.__getitem__)


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
        mask = causal(5)[None, None] if with_mask else None
        record = {}
        out = attn(x, x, mask, record=record)
        # Four projections, three head splits (reshape + transpose each) and
        # one head merge around the single attention node.
        assert tape_kinds(out) == Counter(linear=4, attention=1, reshape=4, transpose=4)
        assert record["weights"].shape == (2, 2, 5, 5)


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
