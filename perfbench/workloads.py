"""The benchmark workloads.

Each workload sets itself up from a seed (synthetic corpus, arrays, model,
one warm-up optimizer step) and then runs a fixed unit of work, a closed
loop in which the next step starts when the previous one returns.
``run.py`` repeats the unit for the requested time.  Every workload times
its closed-loop operations from outside the program: an optimizer step
inside ``run_stage`` on the training workloads, a round of one case per
scenario inside ``run_suite`` on ``gradcheck``.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

SYDES_MODULES = ("checkpoint", "config", "data", "decoders", "errors", "gradcheck",
                 "imaging", "losses", "metrics", "model", "tensor", "text", "training")


def load_sydes(root: str) -> SimpleNamespace:
    """Import the sydes package from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    init = os.path.join(src, "sydes", "__init__.py")
    if not os.path.isfile(init):
        raise FileNotFoundError(f"sydes sources not found under {src}")
    sys.path.insert(0, src)
    package = importlib.import_module("sydes")
    if os.path.realpath(package.__file__) != os.path.realpath(init):
        raise ImportError(f"imported sydes from {package.__file__}, expected {init}")
    return SimpleNamespace(**{m: importlib.import_module(f"sydes.{m}") for m in SYDES_MODULES})


class OpClock:
    """Durations of closed-loop operations, timed from outside the program."""

    def __init__(self):
        self.times: list[float] = []
        self._start: float | None = None

    def start(self) -> None:
        if self._start is None:
            self._start = time.perf_counter()

    def stop(self) -> None:
        if self._start is not None:
            self.times.append(time.perf_counter() - self._start)
            self._start = None

    def timed(self, fn):
        """``fn`` timed as one whole operation."""
        def wrapped(*args, **kwargs):
            self.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stop()
        wrapped.__wrapped__ = fn
        return wrapped


class StepData:
    """Training data handed to ``run_stage``: an optimizer step starts when
    ``run_stage`` asks for its batch (and ends when ``AdamW.step`` returns).
    ``rows`` restricts the view to a subset, for the warm-up step."""

    def __init__(self, data, clock: OpClock, rows: np.ndarray | None = None):
        self._data = data
        self._clock = clock
        self._rows = rows

    def __len__(self) -> int:
        return len(self._data) if self._rows is None else len(self._rows)

    def batch(self, index):
        self._clock.start()
        return self._data.batch(index if self._rows is None else self._rows[index])

    def __getattr__(self, name):
        return getattr(self._data, name)


@dataclass
class UnitResult:
    """What one pass of a workload's unit produced."""

    final_loss: float = 0.0
    # What must repeat exactly for an equal seed: result strings, and the
    # bytes of the checkpoint files written (read after the timed unit).
    fingerprint: list[str] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    train_samples: int = 0
    coords: int = 0
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def merge(self, other: "UnitResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes

    def digest(self) -> tuple:
        files = []
        for path in self.checkpoints:
            with open(path, "rb") as f:
                files.append(hashlib.blake2b(f.read(), digest_size=16).hexdigest())
        return (self.final_loss, *self.fingerprint, *files)


def make_corpus(sy, cfg, seed: int, work_dir: str, splits: dict[str, int]):
    """Synthetic corpus for ``seed``: write it, ingest it, build the
    vocabulary from the training split and the arrays of every split."""
    rng = sy.tensor.RngState(seed, "data")
    samples = {}
    for split, n in splits.items():
        sy.data.generate_synthetic(n, cfg.image, rng, work_dir, split=split)
        samples[split], _ = sy.data.ingest_manifest(
            os.path.join(work_dir, f"{split}.jsonl"), work_dir)
    vocab = sy.text.Vocab.build(s.text for s in samples["train"])
    arrays = {split: sy.data.DatasetArrays(s, cfg.image, vocab, cfg.encoder.seq_len)
              for split, s in samples.items()}
    return vocab, arrays


class Workload:
    name = ""
    model = None
    eval: OpClock | None = None  # times of ``training.predict``, if counted

    def __init__(self, sy):
        self.sy = sy
        self.ops = OpClock()
        self._undo: list = []

    def _patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, mapping: dict, key, replacement) -> None:
        original = mapping[key]
        mapping[key] = replacement
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def close(self) -> None:
        """Restore everything the workload wrapped."""
        while self._undo:
            self._undo.pop()()

    def setup(self, seed: int, work_dir: str) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Untimed preparation before each unit."""

    def unit(self, out_dir: str) -> UnitResult:
        raise NotImplementedError

    def attempt(self, out_dir: str) -> UnitResult:
        """One unit; an error the program raises fails one operation."""
        try:
            return self.unit(out_dir)
        except self.sy.errors.SydesError as e:
            return UnitResult(attempted=1, failed=1, notes=[f"{type(e).__name__}: {e}"])


class _Training(Workload):
    """Shared plumbing: optimizer steps end when ``AdamW.step`` returns."""

    def __init__(self, sy, cfg):
        super().__init__(sy)
        self.cfg = cfg
        self._patch(sy.training.AdamW, "step", self._step_end(sy.training.AdamW.step))

    def _step_end(self, step):
        clock = self.ops

        def timed_step(opt, *args, **kwargs):
            try:
                return step(opt, *args, **kwargs)
            finally:
                clock.stop()
        timed_step.__wrapped__ = step
        return timed_step

    def new_model(self, vocab):
        cfg = self.cfg
        return self.sy.model.SydesModel(cfg.image, cfg.encoder, vocab.size,
                                        decoder_layers=cfg.decoder_layers,
                                        decoder_heads=cfg.decoder_heads)

    def warm_up(self, data, stage, **kwargs) -> None:
        """One optimizer step on the first batch: thread pools, caches and
        lazy set-up are paid here, in set-up, not in the timed steps."""
        rows = np.arange(stage.batch_size)
        timed_before = len(self.ops.times)
        self.sy.training.run_stage(self.model, StepData(data, self.ops, rows),
                                   replace(stage, epochs=1), self.sy.tensor.RngState(self.seed),
                                   tau=self.cfg.tau, **kwargs)
        del self.ops.times[timed_before:]

    def check_history(self, result, history) -> None:
        losses = [record["loss"] for record in history]
        result.check(bool(np.all(np.isfinite(losses))), "non-finite epoch loss")


class Pretrain(_Training):
    """``run_stage`` pretraining from a fresh initialization."""

    def __init__(self, sy, name: str, cfg, n_train: int, batch_size: int, epochs: int):
        super().__init__(sy, cfg)
        self.name = name
        self.n_train = n_train
        self.stage = replace(cfg.pretrain, batch_size=batch_size, epochs=epochs)

    def setup(self, seed: int, work_dir: str) -> None:
        sy = self.sy
        self.seed = seed
        vocab, arrays = make_corpus(sy, self.cfg, seed, work_dir, {"train": self.n_train})
        self.train = arrays["train"]
        self.model = self.new_model(vocab)
        self.model.initialize(sy.tensor.RngState(seed))
        self.init = [p.data.copy() for p in self.model.parameters()]
        self.warm_up(self.train, self.stage)

    def reset(self) -> None:
        for p, value in zip(self.model.parameters(), self.init):
            p.data = value.copy()

    def unit(self, out_dir: str) -> UnitResult:
        sy = self.sy
        result = UnitResult()
        steps_before = len(self.ops.times)
        history = sy.training.run_stage(
            self.model, StepData(self.train, self.ops), self.stage,
            sy.tensor.RngState(self.seed), out_dir=out_dir, tau=self.cfg.tau,
            rec_squared=self.cfg.rec_squared, entropy_sign=self.cfg.entropy_sign)
        steps = len(self.ops.times) - steps_before
        result.attempted += steps
        result.train_samples = self.stage.epochs * len(self.train)
        result.final_loss = history.history[-1]["loss"]
        result.checkpoints.append(history.checkpoint_path)
        self.check_history(result, history.history)
        return result


class Finetune(_Training):
    """Per-task fine-tuning from a pretraining checkpoint, with per-epoch
    validation, then test-split prediction and metrics: the ``finetune``
    and ``eval`` commands of the CLI, for each task in turn."""

    name = "desk-finetune"

    def __init__(self, sy, cfg, n: int, n_test: int, batch_size: int, epochs: int):
        super().__init__(sy, cfg)
        self.n = n
        self.n_test = n_test
        self.stage = replace(cfg.finetune, batch_size=batch_size, epochs=epochs)
        self.eval = OpClock()
        self.eval_samples = 0
        predict = sy.training.predict
        counted = self.eval.timed(predict)

        def counting_predict(model, data, *args, **kwargs):
            self.eval_samples += len(data)
            return counted(model, data, *args, **kwargs)

        self._patch(sy.training, "predict", counting_predict)

    def setup(self, seed: int, work_dir: str) -> None:
        sy = self.sy
        self.seed = seed
        vocab, arrays = make_corpus(sy, self.cfg, seed, work_dir,
                                    {"train": self.n, "val": self.n, "test": self.n_test})
        self.train, self.val, self.test = arrays["train"], arrays["val"], arrays["test"]
        self.model = self.new_model(vocab)
        self.model.initialize(sy.tensor.RngState(seed))
        self.checkpoint = os.path.join(work_dir, "pretrain.ckpt")
        sy.checkpoint.save_checkpoint(self.checkpoint, self.model, sy.tensor.RngState(seed),
                                      {"stage": "pretrain", "vocab": vocab.tokens()})
        self.warm_up(self.train, self.stage, task=sy.model.TASKS[0])

    def unit(self, out_dir: str) -> UnitResult:
        sy = self.sy
        result = UnitResult()
        losses = []
        for task in sy.model.TASKS:
            sy.checkpoint.load_checkpoint(self.checkpoint, self.model)
            steps_before = len(self.ops.times)
            history = sy.training.run_stage(
                self.model, StepData(self.train, self.ops), self.stage,
                sy.tensor.RngState(self.seed), task=task, val_data=self.val,
                out_dir=os.path.join(out_dir, task), tau=self.cfg.tau)
            result.attempted += len(self.ops.times) - steps_before
            self.check_history(result, history.history)
            preds = sy.training.predict(self.model, self.test, task, self.cfg.tau)
            labels = self.test.arrays.labels[task]
            k = sy.model.TASK_CLASSES[task]
            valid = (preds.shape == labels.shape and np.issubdtype(preds.dtype, np.integer)
                     and bool(np.all((preds >= 0) & (preds < k))))
            result.check(valid, f"{task}: invalid class ids")
            if valid:
                report = sy.metrics.compute_metrics(preds, labels, k)
                correct = sum(int(p) == int(y) for p, y in zip(preds, labels))
                result.check(report.accuracy == float(Fraction(correct, len(labels))),
                             f"{task}: accuracy disagrees with an independent count")
            losses.append(history.history[-1]["loss"])
            result.checkpoints.append(history.checkpoint_path)
        result.final_loss = float(np.mean(losses))
        result.train_samples = len(sy.model.TASKS) * self.stage.epochs * len(self.train)
        return result


class Gradcheck(Workload):
    """The finite-difference gradient oracle, ``run_suite``.

    Its closed-loop operation is a round: case ``k`` of every scenario.
    ``run_suite`` runs the scenarios one after another, so each case is
    timed on its own and the k-th cases are summed.  Rounds all do the same
    work; single cases differ by scenario, which would put the percentiles
    on the edges between scenarios.
    """

    name = "gradcheck"

    def __init__(self, sy, cases: int):
        super().__init__(sy)
        self.cases = cases
        self.case_times: dict[str, list[float]] = {}
        gc = sy.gradcheck
        for name, scenario in list(gc.SCENARIOS.items()):
            self._patch_item(gc.SCENARIOS, name, self._timed_case(name, scenario))
        for attr in ("_scenario_pretrain", "_scenario_finetune"):
            self._patch(gc, attr, self._timed_case(attr, getattr(gc, attr)))
        self.losses: list[float] = []
        backward = sy.tensor.Tensor.backward

        def loss_backward(loss):
            self.losses.append(loss.item())
            return backward(loss)
        loss_backward.__wrapped__ = backward
        self._patch(sy.tensor.Tensor, "backward", loss_backward)

    def _timed_case(self, name: str, scenario):
        times = self.case_times.setdefault(name, [])

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return scenario(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)
        timed.__wrapped__ = scenario
        return timed

    def _suite(self, cases: int):
        for times in self.case_times.values():
            times.clear()
        self.losses.clear()
        return self.sy.gradcheck.run_suite(self.seed, cases=cases, composite_cases=cases)

    def setup(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self._suite(1)

    def unit(self, out_dir: str) -> UnitResult:
        result = UnitResult()
        checks = self._suite(self.cases)
        self.ops.times += [sum(case) for case in zip(*self.case_times.values())]
        result.coords = sum(r.checked for r in checks)
        result.attempted = result.coords
        result.failed = sum(r.failures for r in checks)
        if result.failed:
            result.notes.append("gradient coordinates disagree: " + ", ".join(
                r.name for r in checks if not r.passed))
        result.final_loss = float(np.mean(self.losses))
        result.fingerprint = [f"{r.name}:{r.checked}:{r.failures}:{r.worst_abs!r}"
                              for r in checks]
        return result


def make(name: str, sy):
    """The workload called ``name``.  Sizes are chosen so that one unit
    takes seconds, not minutes, on a 2-core machine with one BLAS thread.

    ``desk-finetune`` runs 3 of the default 30 epochs per task on 64-sample
    train and validation splits.  Fewer samples with more epochs made the
    final loss depend on the seed's few samples: its spread across 10 seeds
    reached 30% at 8 samples and 30 epochs, against 4% here.  The test split,
    predicted once per stage, is shrunk by the same 3/30 (to one batch of
    8), so that it weighs in a unit what it weighs in a 30-epoch stage.
    """
    desk = sy.config.RunConfig()
    if name == "desk-pretrain":
        return Pretrain(sy, name, desk, n_train=64, batch_size=8, epochs=4)
    if name == "desk-finetune":
        return Finetune(sy, desk, n=64, n_test=8, batch_size=8, epochs=3)
    if name == "gradcheck":
        return Gradcheck(sy, cases=10)
    if name == "fullscale-pretrain":
        return Pretrain(sy, name, sy.config.full_scale_profile(), n_train=8,
                        batch_size=4, epochs=1)
    raise KeyError(name)

