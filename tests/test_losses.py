"""Analytic identities, invariances, and gradients for all five losses and
the two stage composites."""

import tracemalloc

import numpy as np
import pytest

from sydes import losses
from sydes import tensor as T
from sydes.errors import ContractError, DataError, ShapeError
from sydes.gradcheck import SCENARIOS, CheckResult, identity_head, run_suite
from sydes.losses import (Aggregator, LossWeights, cls_loss, dc_loss,
                          finetune_loss, itc_loss, pretrain_loss,
                          reconstruction_loss, si_loss, similarity_distribution)
from sydes.tensor import RngState, Tensor


def unit_rows(seed, n, d):
    raw = RngState(seed, "unit").normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def rec_loss(target, pred, **kwargs):
    """``reconstruction_loss`` of ``pred`` against ``target``: ``pred`` is
    sent through an identity head, which gives it back bitwise."""
    head = identity_head(pred.shape[-1])
    return reconstruction_loss(pred, head, target.data.__getitem__, **kwargs)


class TestReconstruction:
    def test_perfect_prediction_zero(self):
        x = Tensor(RngState(1).uniform((4, 3, 6)))
        assert rec_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_sum_single_patch(self):
        """One patch, error 0.5 on each of 4 pixels: 4 * 0.25 = 1.0."""
        target = Tensor(np.zeros((1, 1, 4)))
        pred = Tensor(np.full((1, 1, 4), 0.5))
        assert rec_loss(target, pred).item() == pytest.approx(1.0)

    def test_squared_homogeneity(self):
        target = Tensor(np.zeros((4, 2, 5)))
        pred = Tensor(RngState(2).normal((4, 2, 5)))
        one = rec_loss(target, pred).item()
        two = rec_loss(target, Tensor(2 * pred.data)).item()
        assert two == pytest.approx(4 * one)

    def test_unsquared_variant_homogeneity(self):
        target = Tensor(np.zeros((4, 2, 5)))
        pred = Tensor(RngState(3).normal((4, 2, 5)))
        one = rec_loss(target, pred, squared=False).item()
        two = rec_loss(target, Tensor(2 * pred.data), squared=False).item()
        assert two == pytest.approx(2 * one)

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            rec_loss(Tensor(np.zeros((4, 0, 5))), Tensor(np.zeros((4, 0, 5))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rec_loss(Tensor(np.zeros((4, 2, 5))), Tensor(np.zeros((4, 3, 5))))

    @pytest.mark.parametrize("squared", [True, False])
    def test_bitwise_equal_to_the_composed_ops(self, squared):
        rng = RngState(4, "rec-bitwise")
        target = Tensor(rng.split("t").uniform((8, 3, 5)))
        pred = Tensor(rng.split("p").normal((8, 3, 5)), requires_grad=True)
        loss = rec_loss(target, pred, squared=squared)
        loss.backward()
        got = (loss.data.tobytes(), pred.grad.tobytes())
        pred.zero_grad()
        diff = pred - target
        per_patch = T.sum_(diff * diff, axis=-1)
        if not squared:
            per_patch = T.sqrt(per_patch)
        want = T.sum_(per_patch) * (1.0 / (8 * 3))
        want.backward()
        assert got == (want.data.tobytes(), pred.grad.tobytes())

    def test_forward_and_backward_peak_memory(self):
        """Guard: the loss keeps no difference; its backward holds the
        rebuilt residual and the rows' gradient, so forward plus backward
        peaks near 2x one input (the composed ``sum_(d * d)`` peaked near
        5x)."""
        rng = RngState(5, "rec-memory")
        target = Tensor(rng.split("t").uniform((16, 24, 96)))
        pred = Tensor(rng.split("p").normal((16, 24, 96)), requires_grad=True)
        tracemalloc.start()
        try:
            rec_loss(target, pred).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * pred.data.nbytes


class TestItc:
    def test_single_pair_is_zero(self):
        v = Tensor([[1.0, 0.0]])
        assert itc_loss(v, Tensor([[1.0, 0.0]]), tau=1.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_similarity_log2(self):
        v = Tensor([[1.0, 0.0], [1.0, 0.0]])
        w = Tensor([[1.0, 0.0], [1.0, 0.0]])
        assert itc_loss(v, w, tau=1.0).item() == pytest.approx(np.log(2.0), abs=1e-9)

    def test_orthogonal_matched_closed_form(self):
        v = Tensor(np.eye(2))
        w = Tensor(np.eye(2))
        expect = np.log(1.0 + np.exp(-1.0))
        assert itc_loss(v, w, tau=1.0).item() == pytest.approx(expect, abs=1e-9)

    def test_permutation_invariance(self):
        v = unit_rows(4, 5, 6)
        w = unit_rows(5, 5, 6)
        base = itc_loss(Tensor(v), Tensor(w), tau=0.3).item()
        perm = RngState(6).permutation(5)
        permuted = itc_loss(Tensor(v[perm]), Tensor(w[perm]), tau=0.3).item()
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_decreases_as_matched_similarity_rises(self):
        w = np.eye(2)

        def loss_at(cos):
            sin = np.sqrt(1 - cos * cos)
            v = np.array([[cos, sin], [sin, cos]])
            return itc_loss(Tensor(v), Tensor(w), tau=0.5).item()

        values = [loss_at(c) for c in (0.2, 0.5, 0.8, 0.95)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            itc_loss(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), tau=1.0)

    def test_bitwise_equal_to_the_eye_form(self):
        """Each direction is ``cls_loss`` with labels ``arange(n)``, whose
        one-hot is ``np.eye(n)``: values and gradients are bitwise the
        cross-entropy written against the identity."""
        v = Tensor(unit_rows(21, 5, 6), requires_grad=True)
        w = Tensor(unit_rows(22, 5, 6), requires_grad=True)
        loss = itc_loss(v, w, tau=0.3)
        loss.backward()
        got = (loss.data.tobytes(), v.grad.tobytes(), w.grad.tobytes())
        v.zero_grad()
        w.zero_grad()
        logits = T.matmul(v, T.transpose(w, (1, 0))) * (1.0 / 0.3)
        eye = Tensor(np.eye(5))
        i2t = -T.sum_(T.log_softmax(logits) * eye) * (1.0 / 5)
        t2i = -T.sum_(T.log_softmax(T.transpose(logits, (1, 0))) * eye) * (1.0 / 5)
        want = 0.5 * (i2t + t2i)
        want.backward()
        assert got == (want.data.tobytes(), v.grad.tobytes(), w.grad.tobytes())

    def test_pays_for_no_label_check(self, monkeypatch):
        """Guard: the pair labels ``arange(n)`` cannot be out of range, so
        ``itc_loss`` shares ``cls_loss``'s cross-entropy but not its label
        check and one-hot."""
        def checked(*args, **kwargs):
            raise AssertionError("itc_loss called cls_loss")
        monkeypatch.setattr(losses, "cls_loss", checked)
        v, w = Tensor(unit_rows(23, 4, 6)), Tensor(unit_rows(24, 4, 6))
        assert np.isfinite(itc_loss(v, w, tau=0.3).item())


class TestAggregator:
    def make(self, dim=6):
        agg = Aggregator(dim)
        agg.initialize(RngState(9, "agg"))
        return agg

    def test_equal_z_uniform_alpha(self):
        agg = self.make()
        z_row = RngState(10).normal((6,))
        z = Tensor(np.tile(z_row, (2, 4, 1)))
        alpha = agg.scores(z).data
        assert np.allclose(alpha, 0.25, atol=1e-12)

    def test_zero_u_uniform_alpha(self):
        agg = self.make()
        agg.u.data = np.zeros(6)
        z = Tensor(RngState(11).normal((3, 4, 6)))
        assert np.allclose(agg.scores(z).data, 0.25, atol=1e-12)

    def test_dominated_score(self):
        e = Tensor(np.array([[10.0, 0.0, 0.0, 0.0]]))
        alpha = T.softmax(e).data
        expect = np.exp(10.0) / (np.exp(10.0) + 3.0)  # 0.999864...
        assert alpha[0, 0] == pytest.approx(expect, abs=1e-12)
        assert alpha[0, 0] > 0.999

    def test_alpha_rows_sum_to_one(self):
        agg = self.make()
        z = Tensor(RngState(12).normal((5, 4, 6)))
        assert np.allclose(agg.scores(z).data.sum(-1), 1.0, atol=1e-9)

    def test_weighted_sum_of_equal_z_is_z(self):
        agg = self.make()
        # strip the MLP so the weighted sum itself is observable
        z_row = RngState(13).normal((6,))
        z = Tensor(np.tile(z_row, (1, 4, 1)))
        alpha = agg.scores(z)
        pooled = T.matmul(T.reshape(alpha, (1, 1, 4)), z).data.reshape(6)
        assert np.allclose(pooled, z_row, atol=1e-12)


class TestSi:
    def test_equal_vectors_zero(self):
        v = Tensor(unit_rows(14, 3, 5))
        assert si_loss(v, Tensor(v.data.copy())).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors_two(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        assert si_loss(a, b).item() == pytest.approx(2.0)

    def test_antipodal_unit_vectors_four(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[-1.0, 0.0]])
        assert si_loss(a, b).item() == pytest.approx(4.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractError):
            si_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_bitwise_equal_to_the_composed_ops(self):
        a = Tensor(unit_rows(17, 4, 6), requires_grad=True)
        b = Tensor(unit_rows(18, 4, 6))
        loss = si_loss(a, b)
        loss.backward()
        got = (loss.data.tobytes(), a.grad.tobytes())
        a.zero_grad()
        d = a - b
        want = T.mean(T.sum_(d * d, axis=-1))
        want.backward()
        assert got == (want.data.tobytes(), a.grad.tobytes())


class TestSimilarityDistribution:
    def test_single_element(self):
        s = similarity_distribution(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), 1.0)
        assert np.allclose(s.data, [[1.0]])

    def test_identical_rows_uniform(self):
        v = Tensor([[1.0, 0.0], [1.0, 0.0]])
        s = similarity_distribution(v, v, 1.0)
        assert np.allclose(s.data, 0.5, atol=1e-12)

    def test_rows_stochastic(self):
        a = Tensor(unit_rows(15, 6, 4))
        b = Tensor(unit_rows(16, 6, 4))
        s = similarity_distribution(a, b, 0.2)
        assert np.all(np.abs(s.data.sum(-1) - 1.0) < 1e-9)


class TestDc:
    def test_agg_equals_global_leaves_entropy(self):
        v = Tensor(unit_rows(17, 2, 4))
        w = Tensor(unit_rows(18, 2, 4))
        total = dc_loss(Tensor(v.data.copy()), v, w, tau=0.5).item()
        s = similarity_distribution(v, w, 0.5).data
        entropy = -(s * np.log(s + 1e-12)).sum(-1).mean()
        assert total == pytest.approx(entropy, abs=1e-9)

    def test_uniform_distributions_log2(self):
        v = Tensor([[1.0, 0.0], [1.0, 0.0]])
        w = Tensor([[1.0, 0.0], [1.0, 0.0]])
        total = dc_loss(Tensor(v.data.copy()), v, w, tau=1.0).item()
        assert total == pytest.approx(np.log(2.0), abs=1e-9)

    def test_kl_component_nonnegative(self):
        for seed in range(10):
            p = Tensor(unit_rows(100 + seed, 4, 5))
            v = Tensor(unit_rows(200 + seed, 4, 5))
            w = Tensor(unit_rows(300 + seed, 4, 5))
            total = dc_loss(p, v, w, tau=0.4).item()
            s = similarity_distribution(p, w, 0.4).data
            entropy = -(s * np.log(s + 1e-12)).sum(-1).mean()
            assert total - entropy >= -1e-12  # KL = total - H >= 0

    def test_entropy_sign_flag(self):
        p = Tensor(unit_rows(20, 3, 4))
        v = Tensor(unit_rows(21, 3, 4))
        w = Tensor(unit_rows(22, 3, 4))
        plus = dc_loss(p, v, w, tau=0.5, entropy_sign=1.0).item()
        minus = dc_loss(p, v, w, tau=0.5, entropy_sign=-1.0).item()
        s = similarity_distribution(p, w, 0.5).data
        entropy = -(s * np.log(s + 1e-12)).sum(-1).mean()
        assert plus - minus == pytest.approx(2 * entropy, abs=1e-9)

    def test_pinned_reference_matches_internal(self):
        p = Tensor(unit_rows(23, 3, 4))
        v = Tensor(unit_rows(24, 3, 4))
        w = Tensor(unit_rows(25, 3, 4))
        internal = dc_loss(p, v, w, tau=0.5).item()
        ref = similarity_distribution(v, w, 0.5).detach()
        pinned = dc_loss(p, v, w, tau=0.5, reference=ref).item()
        assert pinned == pytest.approx(internal, abs=1e-15)

    def test_reference_receives_no_gradient(self):
        p = Tensor(unit_rows(26, 3, 4), requires_grad=True)
        v = Tensor(unit_rows(27, 3, 4), requires_grad=True)
        w = Tensor(unit_rows(28, 3, 4))
        dc_loss(p, v, w, tau=0.5).backward()
        assert p.grad is not None and np.abs(p.grad).sum() > 0
        assert v.grad is None


class TestCls:
    @pytest.mark.parametrize("k", [3, 6, 7])
    def test_uniform_logits_log_k(self, k):
        logits = Tensor(np.zeros((4, k)))
        labels = np.arange(4) % k
        assert cls_loss(logits, labels).item() == pytest.approx(np.log(k), abs=1e-9)

    def test_saturated_correct_logits_zero(self):
        logits = np.full((2, 3), -1e4)
        logits[0, 1] = 1e4
        logits[1, 2] = 1e4
        loss = cls_loss(Tensor(logits), np.array([1, 2])).item()
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_label_names_sample(self):
        with pytest.raises(DataError, match="sample-7"):
            cls_loss(Tensor(np.zeros((2, 3))), np.array([0, 5]),
                     sample_ids=["sample-3", "sample-7"])


class TestComposites:
    def parts(self, value=1.0):
        return {k: Tensor(value) for k in ("rec", "si", "dc", "itc", "cls")}

    def test_pretrain_reference_weights(self):
        total = pretrain_loss(self.parts(), LossWeights.pretrain_defaults())
        assert total.item() == pytest.approx(2.025)

    def test_pretrain_zero_weights(self):
        total = pretrain_loss(self.parts(), LossWeights())
        assert total.item() == 0.0

    def test_pretrain_linearity(self):
        w = LossWeights.pretrain_defaults()
        base = pretrain_loss(self.parts(), w).item()
        bumped = self.parts()
        bumped["si"] = Tensor(2.0)
        assert pretrain_loss(bumped, w).item() == pytest.approx(base + w.si)

    def test_pretrain_missing_part_rejected(self):
        with pytest.raises(ContractError):
            pretrain_loss({"rec": Tensor(1.0)}, LossWeights.pretrain_defaults())

    def test_finetune_reference_weights(self):
        total = finetune_loss(self.parts(), LossWeights.finetune_defaults())
        assert total.item() == pytest.approx(1.4)

    def test_finetune_itc_ablation_wiring(self):
        w = LossWeights(cls=1.0, itc=0.0)
        total = finetune_loss(self.parts(), w)
        assert total.item() == pytest.approx(1.0)

    def test_finetune_zero_parts(self):
        total = finetune_loss(self.parts(0.0), LossWeights.finetune_defaults())
        assert total.item() == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(rec=-0.5)


class TestLossGradients:
    """Every loss matches finite differences on small random inputs (a
    faster slice of the acceptance gradient oracle)."""

    def test_nothing_checked_is_no_pass(self):
        assert not CheckResult("empty").passed
        results = run_suite(seed=0, cases=0, composite_cases=1)
        for r in results[:len(SCENARIOS)]:
            assert r.checked == 0 and not r.passed and " FAIL  coords=0 " in r.line()
        assert all(r.checked and r.passed for r in results[len(SCENARIOS):])

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_loss_matches_finite_differences(self, name):
        result = CheckResult(name)
        for case in range(10):
            SCENARIOS[name](RngState(500 + case, f"lt/{name}"), result)
        assert result.passed, result.line()

    def test_losses_nonnegative_random_inputs(self):
        for seed in range(10):
            v = Tensor(unit_rows(400 + seed, 4, 6))
            w = Tensor(unit_rows(420 + seed, 4, 6))
            p = Tensor(unit_rows(440 + seed, 4, 6))
            target = Tensor(RngState(seed, "t").uniform((4, 2, 5)))
            pred = Tensor(RngState(seed, "p").normal((4, 2, 5)))
            assert rec_loss(target, pred).item() >= 0
            assert itc_loss(v, w, 0.3).item() >= 0
            assert si_loss(v, p).item() >= 0
            logits = Tensor(RngState(seed, "l").normal((4, 3)))
            assert cls_loss(logits, np.arange(4) % 3).item() >= 0
