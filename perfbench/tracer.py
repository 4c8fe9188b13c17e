"""Outside-in tracing of the sydes layers.

The tracer wraps public entry points of the ``sydes`` modules (functions,
methods, the ``DatasetArrays`` constructor) with timing spans while it is
installed, and restores the originals when it is removed.  Nothing inside
``src/`` is modified.  Spans are kept in memory and written out once, at the
end of a run.

It also takes a census of the autodiff tape: at every ``Tensor.backward``
call it walks ``_parents`` from the loss and counts nodes by op kind (the
name of the function that built the node's VJP closure), the bytes of the
buffers the tape holds, and the gradient elements computed for frozen
parameters.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Op kinds of ``sydes.tensor``; the per-op node counts are reported for
# these.  A node built by any other function counts as "other".
OP_KINDS = ("add", "sub", "mul", "neg", "matmul", "reshape", "transpose",
            "swap_last2", "concat", "narrow", "sum_", "mean", "exp", "log",
            "sqrt", "tanh", "sigmoid", "gelu", "softmax", "log_softmax",
            "layer_norm", "l2_normalize", "embedding_lookup")

# Spans kept for the span file; aggregates always cover every call.
MAX_SPANS = 100_000

LOSS_FUNCTIONS = ("reconstruction_loss", "itc_loss", "si_loss",
                  "similarity_distribution", "dc_loss", "cls_loss",
                  "pretrain_loss", "finetune_loss")


def op_kind(vjp) -> str:
    name = getattr(vjp, "__qualname__", "").split(".")[0]
    return name if name in OP_KINDS else "other"


def tape_census(root, params: dict) -> dict:
    """Census of the tape reachable from ``root``.

    Walks ``_parents`` from ``root``.  ``nodes`` counts every node reached
    by kind: op nodes by the function that built their VJP closure, leaves
    (parameters, tracked inputs and constant inputs) as "leaf".  ``bytes``
    sums the distinct numpy buffers (view bases, counted once) referenced by
    the nodes and by the arrays the VJP closures capture.  ``grad_elems`` /
    ``frozen_grad_elems`` count the gradient elements backward computes for
    tracked leaves, and for those that belong to a frozen parameter
    (``params`` maps ``id(tensor)`` to its ``Parameter``).
    """
    nodes: Counter = Counter()
    buffers: dict[int, int] = {}
    grad_elems = frozen_elems = 0
    seen: set[int] = set()
    stack = [root]

    def hold(arr) -> None:
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        hold(node.data)
        if node._vjp is None:
            nodes["leaf"] += 1
            if node.requires_grad:
                grad_elems += node.size
                param = params.get(id(node))
                if param is not None and param.frozen:
                    frozen_elems += node.size
        else:
            nodes[op_kind(node._vjp)] += 1
            for cell in node._vjp.__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    hold(value)
                elif hasattr(value, "_vjp") and isinstance(getattr(value, "data", None), np.ndarray):
                    hold(value.data)
        stack.extend(p for p in node._parents if id(p) not in seen)
    return {"nodes": nodes, "bytes": sum(buffers.values()),
            "grad_elems": grad_elems, "frozen_grad_elems": frozen_elems}


class Tracer:
    """Spans and counters around calls into the sydes layers."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = itertools.count()
        self._stack: list[int] = []  # ids of the open spans
        self._active: Counter = Counter()
        self._patches: list[tuple] = []
        self.params: dict[int, object] = {}
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (spans already recorded are kept)."""
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.checkpoint_bytes = 0

    def clear_spans(self) -> None:
        self.spans.clear()
        self.dropped = 0

    def watch_model(self, model) -> None:
        """Register the parameters whose ``frozen`` flag the census reads."""
        self.params = {id(p.tensor): p for p in model.parameters()}

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> tuple:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        outermost = self._active[name] == 0
        self._active[name] += 1
        return sid, parent, outermost, time.perf_counter()

    def _exit(self, name: str, entry: tuple) -> None:
        end = time.perf_counter()
        sid, parent, outermost, start = entry
        self._stack.pop()
        self._active[name] -= 1
        if outermost:
            self.calls[name] += 1
            self.total[name] += end - start
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, name, start - self.t0, end - self.t0))
        else:
            self.dropped += 1

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``name`` may be a callable choosing the
        span name per call.  ``after(span, result, args)`` runs inside the
        span, after ``fn`` returns."""
        tracer = self

        def wrapped(*args, **kwargs):
            span = name() if callable(name) else name
            entry = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result, args)
                return result
            finally:
                tracer._exit(span, entry)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, original, replacement) -> None:
        """Rebind every module-level reference to ``original`` in the sydes
        package and in this benchmark, so callers that imported the name
        directly see the wrapper too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.startswith("sydes") or mod_name == "workloads"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self, sy) -> None:
        """Wrap the layer entry points; ``sy`` is the namespace returned by
        ``workloads.load_sydes``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tr = self
        self._patch(sy.data.DatasetArrays, "__init__",
                    self.wrap("data.arrays", sy.data.DatasetArrays.__init__))
        self._patch(sy.data.DatasetArrays, "batch",
                    self.wrap("data.batch", sy.data.DatasetArrays.batch))
        self._patch_function(sy.training.batch_masks,
                             self.wrap("imaging.masks", sy.training.batch_masks))
        model_cls = sy.model.SydesModel
        for attr, span in (("encode_low", "encoders.image_low"),
                           ("encode_subs", "encoders.image_subs"),
                           ("encode_text", "encoders.text")):
            self._patch(model_cls, attr, self.wrap(span, getattr(model_cls, attr)))
        self._patch(sy.decoders.ImageDecoder, "__call__",
                    self.wrap("decoders.image", sy.decoders.ImageDecoder.__call__))
        self._patch(sy.decoders.TextDecoder, "__call__",
                    self.wrap("decoders.text", sy.decoders.TextDecoder.__call__))
        for fname in LOSS_FUNCTIONS:
            original = getattr(sy.losses, fname)
            self._patch_function(original, self.wrap("losses", original))

        def forward_name():
            return "training.predict_forward" if tr.inside("training.predict") else "model.forward"

        def predict_census(span, result, args):
            if span == "training.predict_forward":
                census = tape_census(result[0], {})
                tr.counts["predict_forwards"] += 1
                tr.counts["predict_tape_nodes"] += sum(census["nodes"].values())

        self._patch(model_cls, "pretrain_forward",
                    self.wrap(forward_name, model_cls.pretrain_forward))
        self._patch(model_cls, "finetune_forward",
                    self.wrap(forward_name, model_cls.finetune_forward, after=predict_census))

        backward = sy.tensor.Tensor.backward

        def traced_backward(loss):
            census = tape_census(loss, tr.params)
            tr.counts["backwards"] += 1
            for kind, n in census["nodes"].items():
                tr.counts[f"nodes.{kind}"] += n
            tr.counts["tape_bytes"] += census["bytes"]
            tr.counts["grad_elems"] += census["grad_elems"]
            tr.counts["frozen_grad_elems"] += census["frozen_grad_elems"]
            span = "gradcheck.backward" if tr.inside("gradcheck.suite") else "tensor.backward"
            entry = tr._enter(span)
            try:
                return backward(loss)
            finally:
                tr._exit(span, entry)

        traced_backward.__wrapped__ = backward
        self._patch(sy.tensor.Tensor, "backward", traced_backward)
        self._patch(sy.training.AdamW, "step", self.wrap("training.adamw", sy.training.AdamW.step))
        self._patch_function(sy.training.predict,
                             self.wrap("training.predict", sy.training.predict))

        def checkpoint_size(span, result, args):
            tr.checkpoint_bytes = os.path.getsize(args[0])

        self._patch_function(sy.checkpoint.save_checkpoint,
                             self.wrap("checkpoint.save", sy.checkpoint.save_checkpoint,
                                       after=checkpoint_size))
        self._patch_function(sy.checkpoint.load_checkpoint,
                             self.wrap("checkpoint.load", sy.checkpoint.load_checkpoint))
        self._patch_function(sy.metrics.compute_metrics,
                             self.wrap("metrics.compute", sy.metrics.compute_metrics))
        self._patch_function(sy.gradcheck.fd_coordinate,
                             self.wrap("gradcheck.fd", sy.gradcheck.fd_coordinate))
        self._patch_function(sy.gradcheck.run_suite,
                             self.wrap("gradcheck.suite", sy.gradcheck.run_suite))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def per_call_ms(self, *names: str) -> float:
        """Mean milliseconds per outermost call of the spans ``names``."""
        calls = sum(self.calls[n] for n in names)
        return 1e3 * sum(self.total[n] for n in names) / calls if calls else 0.0

    def layer_metrics(self, units: int, arrays_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics over the traced units (``units`` passes)."""
        c = self.counts
        backwards = c["backwards"]

        def per_backward(value):
            return value / backwards if backwards else 0.0

        m = {
            "data.arrays_s": (arrays_s, "s"),
            "data.batch_ms": (self.per_call_ms("data.batch"), "ms"),
            "imaging.masks_ms": (self.per_call_ms("imaging.masks"), "ms"),
            "encoders.image_low_ms": (self.per_call_ms("encoders.image_low"), "ms"),
            "encoders.image_subs_ms": (self.per_call_ms("encoders.image_subs"), "ms"),
            "encoders.text_ms": (self.per_call_ms("encoders.text"), "ms"),
            "decoders.image_ms": (self.per_call_ms("decoders.image"), "ms"),
            "decoders.text_ms": (self.per_call_ms("decoders.text"), "ms"),
            "losses.ms": (self.per_call_ms("losses"), "ms"),
            "model.forward_ms": (self.per_call_ms("model.forward"), "ms"),
            "tensor.backward_ms": (self.per_call_ms("tensor.backward", "gradcheck.backward"), "ms"),
            "tensor.tape_nodes": (per_backward(sum(v for k, v in c.items()
                                                   if k.startswith("nodes."))), "count"),
        }
        for kind in OP_KINDS + ("other", "leaf"):
            m[f"tensor.tape_nodes.{kind}"] = (per_backward(c[f"nodes.{kind}"]), "count")
        grad = c["grad_elems"]
        m.update({
            "tensor.tape_mb": (per_backward(c["tape_bytes"]) / 1e6, "MB"),
            "tensor.frozen_grad_frac": (c["frozen_grad_elems"] / grad if grad else 0.0, "ratio"),
            "training.adamw_ms": (self.per_call_ms("training.adamw"), "ms"),
            "training.predict_ms": (self.per_call_ms("training.predict"), "ms"),
            "training.predict_tape_nodes": (c["predict_tape_nodes"] / c["predict_forwards"]
                                            if c["predict_forwards"] else 0.0, "count"),
            "checkpoint.save_ms": (self.per_call_ms("checkpoint.save"), "ms"),
            "checkpoint.load_ms": (self.per_call_ms("checkpoint.load"), "ms"),
            "checkpoint.mb": (self.checkpoint_bytes / 1e6, "MB"),
            "metrics.compute_ms": (self.per_call_ms("metrics.compute"), "ms"),
            "gradcheck.coords": (self.calls["gradcheck.fd"] / units if units else 0.0, "count"),
            "gradcheck.fd_ms": (self.per_call_ms("gradcheck.fd"), "ms"),
            "gradcheck.backward_ms": (self.per_call_ms("gradcheck.backward"), "ms"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        })
        return m

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "dropped": self.dropped,
                       "fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, f)
            f.write("\n")
