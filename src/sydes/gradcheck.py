"""Finite-difference gradient verification.

Central differences with step 1e-5 against the reverse-mode gradients, at
tolerance max(1e-4 relative, 1e-6 absolute).  The suite covers each loss on
small random inputs routed through the same normalization/aggregation code
the model uses, plus both stage composites through a full tiny model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, nn
from . import tensor as T
from .encoders import EncoderConfig
from .imaging import ImageConfig, sample_mask
from .model import TASK_CLASSES, BatchArrays, SydesModel, group_major_masks
from .tensor import RngState, Tensor

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-6
COMPOSITE_COORDS = 4


def fd_coordinate(f, array: np.ndarray, flat_index: int) -> float:
    """Central difference, of step ``FD_STEP``, of scalar-valued ``f``
    w.r.t. one coordinate of a (mutated in place, then restored) array."""
    flat = array.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + FD_STEP
    fp = f()
    flat[flat_index] = orig - FD_STEP
    fm = f()
    flat[flat_index] = orig
    return (fp - fm) / (2.0 * FD_STEP)


def agree(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    worst_abs: float = 0.0
    worst_rel: float = 0.0
    failures: int = 0

    @property
    def passed(self) -> bool:
        """No coordinate disagreed, and at least one was checked."""
        return self.checked > 0 and self.failures == 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name:<18} {status}  coords={self.checked} "
                f"max_abs_err={self.worst_abs:.3e} max_rel_err={self.worst_rel:.3e}")


def _check_picks(build, leaves: list[Tensor], picks, result: CheckResult) -> None:
    """Backprop ``build()`` once, then compare the gradient with a central
    difference at each ``(leaf index, flat index)`` pick.

    ``build`` must recompute the scalar loss from the leaves' current data.
    The finite-difference forwards run under ``no_grad`` and record no tape.
    """
    for leaf in leaves:
        leaf.zero_grad()
    build().backward()

    def f() -> float:
        with T.no_grad():
            return build().item()

    for li, c in picks:
        leaf = leaves[li]
        grad = leaf.grad if leaf.grad is not None else np.zeros(leaf.shape)
        ad = grad.reshape(-1)[c]
        fd = fd_coordinate(f, leaf.data, c)
        result.checked += 1
        err = abs(ad - fd)
        rel = err / max(abs(ad), abs(fd), 1e-30)
        result.worst_abs = max(result.worst_abs, err)
        if err > ABS_TOL:
            result.worst_rel = max(result.worst_rel, rel)
        if not agree(ad, fd):
            result.failures += 1


def check_leaves(build, leaves: list[Tensor], result: CheckResult,
                 rng: RngState, max_coords: int | None = None) -> None:
    """Backprop ``build()`` once, then FD-check coordinates of every leaf.

    With ``max_coords`` set, that many coordinates are sampled per leaf.
    """
    picks = []
    for li, leaf in enumerate(leaves):
        n = leaf.size
        if max_coords is not None and n > max_coords:
            coords = rng.split(f"coords/{li}").generator().choice(n, size=max_coords,
                                                                  replace=False)
        else:
            coords = range(n)
        picks += [(li, int(c)) for c in coords]
    _check_picks(build, leaves, picks, result)


# -- per-loss scenarios ----------------------------------------------------------


def _unit_rows(rng: RngState, shape) -> Tensor:
    return Tensor(rng.normal(shape), requires_grad=True)


def identity_head(dim: int) -> nn.Linear:
    """A frozen linear head that maps each row to itself, bitwise: an
    ``eye`` weight and a zero bias."""
    head = nn.Linear(dim, dim)
    head.weight.data = np.eye(dim)
    head.weight.frozen = head.bias.frozen = True
    return head


def _scenario_rec(rng: RngState, result: CheckResult) -> None:
    # The leaf is the prediction itself, sent through an identity head.
    b, n_masked, pd = 2, 3, 5
    target = rng.split("target").uniform((4 * b, n_masked, pd))
    pred = Tensor(rng.split("pred").normal((4 * b, n_masked, pd)), requires_grad=True)
    head = identity_head(pd)
    check_leaves(lambda: losses.reconstruction_loss(pred, head, target.__getitem__),
                 [pred], result, rng)


def _scenario_itc(rng: RngState, result: CheckResult) -> None:
    n, d = 3, 4
    v = _unit_rows(rng.split("v"), (n, d))
    w = _unit_rows(rng.split("w"), (n, d))
    check_leaves(lambda: losses.itc_loss(T.l2_normalize(v), T.l2_normalize(w), 0.2),
                 [v, w], result, rng)


def _make_aggregator(rng: RngState, dim: int) -> losses.Aggregator:
    agg = losses.Aggregator(dim)
    agg.initialize(rng)
    return agg


def _scenario_si(rng: RngState, result: CheckResult) -> None:
    b, dim = 2, 4
    agg = _make_aggregator(rng.split("agg"), dim)
    z = Tensor(rng.split("z").normal((b, 4, dim)), requires_grad=True)
    v = _unit_rows(rng.split("v"), (b, dim))
    leaves = [z, v] + agg.parameters()
    check_leaves(
        lambda: losses.si_loss(T.l2_normalize(v), T.l2_normalize(agg(z))),
        leaves, result, rng)


def _scenario_dc(rng: RngState, result: CheckResult) -> None:
    # The reference distribution is a stop-gradient target, so the oracle
    # pins it at its unperturbed value (matching what the tape optimizes).
    b, dim = 3, 4
    tau = 0.3
    agg = _make_aggregator(rng.split("agg"), dim)
    z = Tensor(rng.split("z").normal((b, 4, dim)), requires_grad=True)
    v = _unit_rows(rng.split("v"), (b, dim))
    w = _unit_rows(rng.split("w"), (b, dim))
    reference = losses.similarity_distribution(
        T.l2_normalize(v), T.l2_normalize(w), tau).detach()
    leaves = [z, v, w] + agg.parameters()
    check_leaves(
        lambda: losses.dc_loss(T.l2_normalize(agg(z)), T.l2_normalize(v),
                               T.l2_normalize(w), tau, reference=reference),
        leaves, result, rng)


def _scenario_cls(rng: RngState, result: CheckResult) -> None:
    n, k = 4, 7
    logits = Tensor(rng.split("logits").normal((n, k)), requires_grad=True)
    labels = rng.split("labels").integers(0, k, size=n)
    check_leaves(lambda: losses.cls_loss(logits, labels), [logits], result, rng)


# -- composite scenarios through a tiny model ------------------------------------


def tiny_setup(rng: RngState):
    """A minimal model plus one random batch (dims <= 8 everywhere)."""
    image_cfg = ImageConfig(high_res=8, low_res=4, patch_size=2)
    enc_cfg = EncoderConfig(image_dim=8, text_dim=8, image_layers=1, text_layers=1,
                            image_heads=2, text_heads=2, seq_len=6, mlp_ratio=2)
    vocab_size = 10
    model = SydesModel(image_cfg, enc_cfg, vocab_size,
                       decoder_layers=1, decoder_heads=2)
    model.initialize(rng.split("model"))

    b = 2
    p = image_cfg.patches_per_image
    pd = image_cfg.patch_dim
    s = enc_cfg.seq_len
    low = rng.split("low").uniform((b, p, pd))
    subs = rng.split("subs").uniform((b, 4, p, pd))
    gen = rng.split("ids").generator()
    ids = gen.integers(3, vocab_size, size=(b, s))
    spans = gen.integers(1, s - 1, size=b)
    real = np.zeros((b, s), dtype=bool)
    for i in range(b):
        ids[i, spans[i]:] = 0
        ids[i, s - 1] = 1
        real[i, :spans[i]] = True
        real[i, s - 1] = True
    labels = {task: gen.integers(0, k, size=b) for task, k in TASK_CLASSES.items()}
    batch = BatchArrays(low, subs, ids, real, labels,
                        [f"s{i}" for i in range(b)])
    return model, batch, image_cfg


def _scenario_pretrain(rng: RngState, result: CheckResult) -> None:
    model, batch, image_cfg = tiny_setup(rng.split("setup"))
    p = image_cfg.patches_per_image
    specs = [[sample_mask(p, 0.5, rng.split(f"mask/{i}/{n}")) for n in range(4)]
             for i in range(batch.size)]
    kept, masked = group_major_masks(specs)
    weights = losses.LossWeights.pretrain_defaults()

    # Pin the consistency-loss reference at its unperturbed value so the
    # oracle sees the same stop-gradient objective the tape differentiates.
    with T.no_grad():
        _, v, w, _ = model.pretrain_embeddings(batch, kept, masked)
        reference = losses.similarity_distribution(v, w, 0.5).data

    def build():
        parts = model.pretrain_forward(batch, kept, masked, tau=0.5,
                                       dc_reference=reference)
        return losses.pretrain_loss(parts, weights)

    _check_sampled_params(build, model.parameters(), result, rng.split("pick"))


def _scenario_finetune(rng: RngState, result: CheckResult) -> None:
    model, batch, _ = tiny_setup(rng.split("setup"))
    weights = losses.LossWeights.finetune_defaults()

    def build():
        logits, parts = model.finetune_forward(batch, "desire", tau=0.5)
        parts["cls"] = losses.cls_loss(logits, batch.labels["desire"])
        return losses.finetune_loss(parts, weights)

    _check_sampled_params(build, model.parameters(), result, rng.split("pick"))


def _check_sampled_params(build, leaves: list[Tensor], result: CheckResult, rng: RngState) -> None:
    """FD-check ``COMPOSITE_COORDS`` coordinates sampled across all parameters."""
    sizes = np.array([leaf.size for leaf in leaves])
    total = int(sizes.sum())
    flats = rng.generator().choice(total, size=min(COMPOSITE_COORDS, total), replace=False)
    ends = np.cumsum(sizes)
    owners = np.searchsorted(ends, flats, side="right")
    starts = ends - sizes
    _check_picks(build, leaves, [(int(li), int(flat - starts[li]))
                                 for li, flat in zip(owners, flats)], result)


SCENARIOS = {
    "rec": _scenario_rec,
    "itc": _scenario_itc,
    "si": _scenario_si,
    "dc": _scenario_dc,
    "cls": _scenario_cls,
}


def run_suite(seed: int = 0, cases: int = 100,
              composite_cases: int | None = None) -> list[CheckResult]:
    """Run the full verification suite; returns one result per loss.

    ``cases`` seeded trials per simple loss (all coordinates each);
    composites run ``composite_cases`` trials (default cases // 10, min 3)
    sampling ``COMPOSITE_COORDS`` (4) parameter coordinates per trial.
    """
    root = RngState(seed, "gradcheck")
    n_comp = composite_cases if composite_cases is not None else max(3, cases // 10)
    trials = [(name, scenario, cases) for name, scenario in SCENARIOS.items()]
    trials += [("pretrain_total", _scenario_pretrain, n_comp),
               ("finetune_total", _scenario_finetune, n_comp)]
    results = []
    for name, scenario, n in trials:
        result = CheckResult(name)
        for case in range(n):
            scenario(root.split(f"{name}/{case}"), result)
        results.append(result)
    return results
