"""Tensor-core contracts: op semantics, the one-sided broadcast rule,
reverse-mode gradients against finite differences, and rng determinism."""

import weakref

import numpy as np
import pytest

from sydes import tensor as T
from sydes.errors import ContractError, DegenerateInputError, ShapeError
from sydes.gradcheck import CheckResult, check_leaves
from sydes.tensor import Parameter, RngState, Tensor


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(shape, scale), requires_grad=True)


class TestForwardExamples:
    def test_matmul_identity(self):
        out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_matmul_hand(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_batched_matmul_leading_dims_must_be_equal(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(1, 4, 5\)"):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((1, 4, 5))))

    def test_matmul_grad_is_ones_times_bt(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(3, 4))
        T.sum_(T.matmul(a, b)).backward()
        assert np.allclose(a.grad, np.ones((2, 4)) @ b.data.T)

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_softmax_closed_form(self):
        out = T.softmax(Tensor([np.log(1.0), np.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_softmax_huge_logits_finite(self):
        out = T.softmax(Tensor([1000.0, 1000.0]))
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_softmax_sums_to_one(self):
        rng = RngState(3, "sm")
        for i in range(10):
            out = T.softmax(Tensor(rng.split(str(i)).normal((4, 6))))
            assert np.all(np.abs(out.data.sum(-1) - 1.0) < 1e-9)

    def test_l2_normalize_345(self):
        out = T.l2_normalize(Tensor([3.0, 4.0]))
        assert np.allclose(out.data, [0.6, 0.8], atol=1e-12)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9

    def test_l2_normalize_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            T.l2_normalize(Tensor([0.0, 0.0]))

    def test_layer_norm_constant_is_zero(self):
        out = T.layer_norm(Tensor([[7.0, 7.0, 7.0]]), Tensor([1.0, 1.0, 1.0]),
                           Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.0, atol=1e-9)

    def test_concat_shape_algebra(self):
        out = T.concat([Tensor(np.ones((4, 2))), Tensor(np.ones((4, 3)))], axis=1)
        assert out.shape == (4, 5)

    def test_narrow_and_split_check_their_bounds(self):
        # Each of these once returned a clamped or empty slice, or raised
        # numpy's IndexError.
        a = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        for axis, start, length in ((0, 2, 5), (0, -1, 1), (0, 3, -2), (2, 0, 1), (-3, 0, 1)):
            with pytest.raises(ShapeError, match=rf"^narrow of \(4, 2\) .*axis={axis}, "
                                                 rf"start={start}, length={length}"):
                T.narrow(a, axis, start, length)
        assert T.narrow(a, -1, 2, 0).shape == (4, 0)  # an empty slice stays legal


class TestBackwardContracts:
    def test_sum_grad_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.sum_(x).backward()
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.sum_(x * x).backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            x.backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_(x)
        loss.backward()
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_only_leaves_keep_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * x
        loss = T.sum_(mid)
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert mid.grad is None and loss.grad is None

    def test_diamond_graph_leaf_grad_exact_and_accumulates(self):
        # mid feeds two consumers, so its gradient arrives from both before
        # it is passed on: d/dx sum(3*x^2 + 2*x^2) = 10*x.
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        mid = x * x
        loss = T.sum_(mid * 3.0) + T.sum_(mid * 2.0)
        loss.backward()
        assert np.array_equal(x.grad, [10.0, -20.0, 5.0])
        assert mid.grad is None
        loss.backward()
        assert np.array_equal(x.grad, [20.0, -40.0, 10.0])
        assert mid.grad is None

    def test_detach_blocks_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.sum_(x.detach() * Tensor([3.0, 3.0])).backward()
        assert x.grad is None


class TestTapeKeepsWhatVJPsRead:
    """A node keeps only what its VJP reads: interior parents are linked
    through data-less graph nodes, and shape-only VJPs capture no tensor."""

    SHAPE_ONLY = {
        "add": lambda a, b: T.add(a, b),
        "sub": lambda a, b: T.sub(a, b),
        "reshape": lambda a, b: T.reshape(a, (6, 2)),
        "concat": lambda a, b: T.concat([a, b], axis=0),
        "narrow": lambda a, b: T.narrow(a, 1, 1, 2),
        "sum_": lambda a, b: T.sum_(a, axis=0),
        "mean": lambda a, b: T.mean(a, axis=(0, 1)),
    }

    @pytest.mark.parametrize("name", sorted(SHAPE_ONLY))
    def test_shape_only_vjp_captures_no_tensor(self, name):
        x = leaf(RngState(11), (3, 4))
        a, b = x * 2.0, x + 1.0  # interior: their VJPs keep neither output
        out = self.SHAPE_ONLY[name](a, b)
        assert out._vjp.__qualname__.split(".")[0] == name
        cells = [c.cell_contents for c in out._vjp.__closure__ or ()]
        assert not any(isinstance(c, Tensor) for c in cells)
        assert not any(isinstance(c, np.ndarray) and np.shares_memory(c, t.data)
                       for c in cells for t in (a, b))
        assert all(p.data.size == 0 for p in out._parents)
        # reshape and narrow return views of ``a``, so only the loss is kept.
        loss = T.sum_(out)
        a_data, b_data = weakref.ref(a.data), weakref.ref(b.data)
        del a, b, out
        assert a_data() is None and b_data() is None
        loss.backward()
        assert x.grad is not None and x.grad.shape == (3, 4)

    @pytest.mark.parametrize("op", [T.mul, T.matmul, T.linear])
    def test_operand_kept_only_for_the_other_tracked_gradient(self, op):
        x = leaf(RngState(12), (3, 3))
        interior = T.tanh(x) * 1.0  # an op output no VJP reads
        const = Tensor(RngState(13).normal((3, 3)))

        def kept_arrays(out):
            cells = [c.cell_contents for c in out._vjp.__closure__]
            assert not any(isinstance(c, Tensor) for c in cells)
            return [c for c in cells if isinstance(c, np.ndarray)]

        # One operand tracked: only the untracked one is kept, for its gradient.
        for a, b in ((interior, const), (const, interior)):
            arrays = kept_arrays(op(a, b))
            assert any(arr is const.data for arr in arrays)
            assert not any(arr is interior.data for arr in arrays)
        # Both tracked: each is kept for the other's gradient.
        arrays = kept_arrays(op(interior, x))
        assert any(arr is interior.data for arr in arrays)
        assert any(arr is x.data for arr in arrays)

    def test_graph_node_shared_by_every_consumer(self):
        x = leaf(RngState(14), (2, 3))
        const = Tensor(np.full((2, 3), 0.5))
        mid = x * 2.0
        assert mid._parents[0] is x  # a tracked leaf is linked as itself
        a, b, c = mid + const, mid * mid, const - mid
        node = a._parents[0]
        assert node.data.size == 0 and node._vjp is mid._vjp and node._parents is mid._parents
        assert b._parents == (node, node) and c._parents[1] is node
        assert a._parents[1] is c._parents[0] and a._parents[1] is not const

    def test_mlp_keeps_only_its_input_and_cdf(self):
        x = leaf(RngState(18), (3, 4))
        a = x * 2.0
        w1, b1 = leaf(RngState(21), (4, 6)), leaf(RngState(22), (6,))
        w2, b2 = leaf(RngState(23), (6, 4)), leaf(RngState(24), (4,))
        out = T.mlp(a, w1, b1, w2, b2)
        cells = [c.cell_contents for c in out._vjp.__closure__]
        assert not any(isinstance(c, Tensor) for c in cells)
        arrays = [c for c in cells if isinstance(c, np.ndarray)]
        # The input and the weights, themselves, and one hidden-sized array:
        # GELU's cdf, not the hidden rows or the derivative.
        kept = [a.data, w1.data, b1.data, w2.data, b2.data]
        assert all(any(arr is k for k in kept) for arr in arrays if arr.shape != (3, 6))
        hidden = [arr for arr in arrays if arr.shape == (3, 6)]
        pre = a.data @ w1.data + b1.data
        cdf = 0.5 * (1.0 + T.erf(pre * T._INV_SQRT2))
        assert len(hidden) == 1 and hidden[0].tobytes() == cdf.tobytes()
        # The gradient's bits are those of the derivative computed from the
        # pre-activation and cdf, as the GELU node computed it.
        g = RngState(19).normal((3, 4))
        d = cdf + pre * np.exp(-0.5 * pre * pre) * T._INV_SQRT2PI
        want = ((g @ w2.data.T) * d) @ w1.data.T
        assert out._vjp(g)[0].tobytes() == want.tobytes()

    def test_mlp_forward_computes_no_derivative(self, monkeypatch):
        # Guard: the forward, tracked or not, pays for no exp, and the
        # backward pays for no second erf.  (``TestMlp`` in test_fused_ops
        # checks that the untracked forwards are bitwise the tracked one.)
        leaves = [leaf(RngState(20), (3, 4)), leaf(RngState(21), (4, 6)),
                  leaf(RngState(22), (6,)), leaf(RngState(23), (6, 4)), leaf(RngState(24), (4,))]
        calls = []
        exp, erf = np.exp, T.erf
        monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append("exp") or exp(*a, **k))
        monkeypatch.setattr(T, "erf", lambda *a, **k: calls.append("erf") or erf(*a, **k))
        tracked = T.mlp(*leaves)
        with T.no_grad():
            quiet = T.mlp(*leaves)
        plain = T.mlp(*(Tensor(v.data) for v in leaves))
        assert calls == ["erf"] * 3 and quiet._vjp is None and plain._vjp is None
        calls.clear()
        T.sum_(tracked).backward()
        assert calls == ["exp"]

    def test_repeated_backward_accumulates_exactly(self):
        x = leaf(RngState(15), (4, 3))
        w = leaf(RngState(16), (3, 3))
        const = Tensor(RngState(17).normal((4, 3)))
        h = T.tanh(T.linear(x, w)) * const
        loss = T.sum_(T.concat([h, h * h], axis=0)) + T.mean(T.reshape(h - const, (-1,)))
        loss.backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        loss.backward()
        assert x.grad.tobytes() == (gx + gx).tobytes()
        assert w.grad.tobytes() == (gw + gw).tobytes()
        assert h.grad is None


class TestBroadcastRule:
    def test_leading_prepend_allowed(self):
        out = Tensor(np.ones((4, 3))) + Tensor(np.ones(3))
        assert out.shape == (4, 3)

    def test_one_sided_inner_one_allowed(self):
        out = Tensor(np.ones((5, 1))) * Tensor(np.ones((5, 3)))
        assert out.shape == (5, 3)

    def test_scalar_allowed(self):
        assert (Tensor(np.ones((2, 2))) + 1.0).shape == (2, 2)

    def test_mutual_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((3, 1))) * Tensor(np.ones((1, 4)))

    def test_incompatible_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((3,))) + Tensor(np.ones((4,)))

    def test_broadcast_gradient_reduces(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        T.sum_(Tensor(np.ones((5, 3))) + bias).backward()
        assert np.array_equal(bias.grad, [5.0, 5.0, 5.0])


def _op_scenarios(rng):
    """One (name, leaves, build) triple per op family, random dims <= 8."""
    gen = rng.generator()
    n, m, k = (int(v) for v in gen.integers(2, 8, size=3))
    scen = []

    a = leaf(rng.split("add/a"), (n, m))
    b = leaf(rng.split("add/b"), (m,))
    scen.append(("add", [a, b], lambda: T.sum_(T.tanh(a + b))))

    c = leaf(rng.split("mul/a"), (n, m))
    d = leaf(rng.split("mul/b"), (n, 1))
    scen.append(("mul", [c, d], lambda: T.sum_(T.sigmoid(c * d))))

    e = leaf(rng.split("sub/a"), (n, m))
    f_ = leaf(rng.split("sub/b"), (n, m))
    scen.append(("sub", [e, f_], lambda: T.sum_((e - f_) * (e - f_))))

    g = leaf(rng.split("mm/a"), (n, m))
    h = leaf(rng.split("mm/b"), (m, k))
    scen.append(("matmul", [g, h], lambda: T.sum_(T.tanh(T.matmul(g, h)))))

    bg = leaf(rng.split("bmm/a"), (2, n, m))
    bh = leaf(rng.split("bmm/b"), (m, k))
    scen.append(("batched_matmul", [bg, bh],
                 lambda: T.sum_(T.tanh(T.matmul(bg, bh)))))

    r = leaf(rng.split("reshape"), (n, m))
    scen.append(("reshape", [r], lambda: T.sum_(T.tanh(T.reshape(r, (m * n,))))))

    tr = leaf(rng.split("transpose"), (2, n, m))
    scen.append(("transpose", [tr],
                 lambda: T.sum_(T.sigmoid(T.transpose(tr, (1, 0, 2))))))

    c1 = leaf(rng.split("cat/a"), (n, 2))
    c2 = leaf(rng.split("cat/b"), (n, 3))
    scen.append(("concat", [c1, c2],
                 lambda: T.sum_(T.tanh(T.concat([c1, c2], axis=1)))))

    nr = leaf(rng.split("narrow"), (n, m))
    scen.append(("narrow", [nr],
                 lambda: T.sum_(T.tanh(T.narrow(nr, 1, 0, max(1, m - 1))))))

    me = leaf(rng.split("mean"), (n, m))
    scen.append(("mean", [me], lambda: T.sum_(T.tanh(T.mean(me, axis=0)))))

    se_x = leaf(rng.split("sq_error/x"), (2, n, m))
    se_w = leaf(rng.split("sq_error/w"), (m, k))
    se_b = leaf(rng.split("sq_error/b"), (k,))
    se_t = rng.split("sq_error/t").uniform((2, n, k))
    scen.append(("linear_sq_error", [se_x, se_w, se_b],
                 lambda: T.sum_(T.tanh(T.linear_sq_error(se_x, se_w, se_b, se_t.__getitem__)))))

    lg = Tensor(rng.split("log").uniform((n,), 0.5, 2.0), requires_grad=True)
    scen.append(("log", [lg], lambda: T.sum_(T.log(lg))))

    sq = Tensor(rng.split("sqrt").uniform((n,), 0.5, 2.0), requires_grad=True)
    scen.append(("sqrt", [sq], lambda: T.sum_(T.sqrt(sq))))

    for name, op in (("tanh", T.tanh), ("sigmoid", T.sigmoid)):
        u = leaf(rng.split(name), (n, m))
        scen.append((name, [u], lambda u=u, op=op: T.sum_(T.sigmoid(op(u)))))

    mlp = [leaf(rng.split("mlp/x"), (2, n, m)), leaf(rng.split("mlp/w1"), (m, k)),
           leaf(rng.split("mlp/b1"), (k,)), leaf(rng.split("mlp/w2"), (k, m)),
           leaf(rng.split("mlp/b2"), (m,))]
    scen.append(("mlp", mlp, lambda: T.sum_(T.sigmoid(T.mlp(*mlp)))))

    heads = int(gen.integers(1, 3))
    width = 2 * heads
    at_x = leaf(rng.split("attention/x"), (2, n, width))
    at_kv = leaf(rng.split("attention/kv"), (2, k, width))
    at_w = [leaf(rng.split(f"attention/{i}"), (width, width) if i % 2 == 0 else (width,))
            for i in range(8)]
    at_mask = np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, -np.inf)
    at_g = Tensor(rng.split("attention/g").normal((2, n - 1, width)))
    scen.append(("attention", [at_x, at_kv] + at_w, lambda: T.sum_(T.tanh(
        T.attention(at_x, at_kv, at_w, heads)))))
    scen.append(("self_attention", [at_x] + at_w, lambda: T.sum_(
        T.attention(at_x, at_x, at_w, heads, at_mask, rows=n - 1) * at_g)))

    sm = leaf(rng.split("softmax"), (n, m))
    w = Tensor(rng.split("softmax/w").normal((n, m)))
    scen.append(("softmax", [sm], lambda: T.sum_(T.softmax(sm) * w)))

    ls = leaf(rng.split("logsoftmax"), (n, m))
    scen.append(("log_softmax", [ls],
                 lambda: T.sum_(T.log_softmax(ls) * w)))

    x = leaf(rng.split("ln/x"), (n, m))
    gamma = leaf(rng.split("ln/g"), (m,))
    beta = leaf(rng.split("ln/b"), (m,))
    scen.append(("layer_norm", [x, gamma, beta],
                 lambda: T.sum_(T.tanh(T.layer_norm(x, gamma, beta)))))

    l2 = leaf(rng.split("l2"), (n, m))
    scen.append(("l2_normalize", [l2],
                 lambda: T.sum_(T.l2_normalize(l2) * w)))

    table = leaf(rng.split("emb"), (6, m))
    ids = rng.split("emb/ids").integers(0, 6, size=(n, 3))
    scen.append(("embedding_lookup", [table],
                 lambda: T.sum_(T.tanh(T.embedding_lookup(table, ids)))))

    return scen


N_TRIALS = 100


@pytest.mark.parametrize("trial_block", range(4))
def test_gradient_fidelity_all_ops(trial_block):
    """Every op matches central finite differences within
    max(1e-4 rel, 1e-6 abs) over seeded random small tensors."""
    per_block = N_TRIALS // 4
    for trial in range(per_block):
        rng = RngState(1000 + trial_block * per_block + trial, "opcheck")
        for name, leaves, build in _op_scenarios(rng):
            result = CheckResult(name)
            check_leaves(build, leaves, result, rng.split(f"fd/{name}"),
                         max_coords=6)
            assert result.passed, f"{name}: {result.line()}"


def test_oracle_records_tape_only_for_its_one_backprop():
    """``check_leaves`` builds the loss once with the tape on, for its
    backprop, and runs every finite-difference forward under ``no_grad``."""
    rng = RngState(31, "oracle-tape")
    x = leaf(rng.split("x"), (2, 3))
    states = []

    def build():
        states.append(T._grad_enabled)
        return T.sum_(T.tanh(x) * x)

    result = CheckResult("tape")
    check_leaves(build, [x], result, rng)
    assert result.passed and result.checked == 6
    assert states == [True] + [False] * (2 * 6)
    assert T._grad_enabled


class TestRng:
    def test_identical_seed_identical_draws(self):
        a = RngState(9, "s").split("x").normal((5,))
        b = RngState(9, "s").split("x").normal((5,))
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngState(9).split("x").normal((5,))
        b = RngState(9).split("y").normal((5,))
        assert not np.array_equal(a, b)

    def test_split_is_path_composition(self):
        assert RngState(1).split("a").split("b").stream == "a/b"

    def test_deterministic_parameter_trajectory(self):
        """Two optimizers from the same seed follow bit-identical
        trajectories for 10 steps."""
        from sydes.training import AdamW

        def run():
            p = Parameter((4, 3), init="normal")
            p.name = "w"
            p.initialize(RngState(5).split("init/w"))
            opt = AdamW([("g", [p], 1e-2)])
            trail = []
            for step in range(10):
                g = RngState(5).split(f"grad/{step}").normal(p.shape)
                p.grad = g
                opt.step()
                trail.append(p.data.copy())
            return trail

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_frozen_parameter_bit_identical(self):
        from sydes.training import AdamW

        frozen = Parameter((3,), init="normal")
        frozen.name = "f"
        frozen.initialize(RngState(2).split("init/f"))
        frozen.frozen = True
        live = Parameter((3,), init="normal")
        live.name = "l"
        live.initialize(RngState(2).split("init/l"))
        before = frozen.data.copy()
        opt = AdamW([("g", [live], 1e-2)])
        live.grad = np.ones(3)
        frozen.grad = np.ones(3)
        opt.step()
        assert frozen.data.tobytes() == before.tobytes()
        assert not np.array_equal(live.data, np.zeros(3))

    def test_frozen_param_rejected_by_optimizer(self):
        from sydes.training import AdamW

        p = Parameter((2,))
        p.name = "p"
        p.frozen = True
        with pytest.raises(ContractError):
            AdamW([("g", [p], 1e-3)])

    def test_frozen_parameter_stays_off_the_tape(self):
        frozen, live = Parameter((2,)), Parameter((2,))
        frozen.data = np.array([2.0, 3.0])
        frozen.frozen = True
        assert not frozen.requires_grad
        T.sum_(frozen * live).backward()
        assert frozen.grad is None
        assert np.array_equal(live.grad, [2.0, 3.0])
        frozen.frozen = False
        assert frozen.requires_grad and not frozen.frozen

    def test_no_grad_records_no_tape(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with T.no_grad():
            y = T.tanh(x * x)
            with T.no_grad():
                pass
            z = x + 1.0
        assert y._parents == () and y._vjp is None and not y.requires_grad
        assert z._parents == () and not z.requires_grad
        assert np.array_equal(y.data, np.tanh(x.data * x.data))
        tracked = x * x
        assert tracked.requires_grad and tracked._parents == (x, x)
