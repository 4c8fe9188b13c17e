"""Classification metrics: per-class precision/recall/F1, macro averages,
and accuracy (correct / total).

Everything is computed in exact rational arithmetic over the confusion
counts and converted to float once at the end, so reported values are the
correctly rounded true ratios (e.g. the macro mean of 2/3 and 4/5 comes out
as exactly float(11/15))."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ContractError


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    macro_f1: float
    per_class: list[dict] = field(default_factory=list)
    confusion: np.ndarray | None = None
    n: int = 0

    def to_dict(self) -> dict:
        confusion = self.confusion.tolist() if self.confusion is not None else None
        return {**asdict(self), "confusion": confusion}

    def format_text(self) -> str:
        lines = [f"samples: {self.n}",
                 f"accuracy: {self.accuracy:.4f}",
                 f"macro precision: {self.precision:.4f}",
                 f"macro recall: {self.recall:.4f}",
                 f"macro F1: {self.macro_f1:.4f}"]
        for c in self.per_class:
            lines.append(f"  class {c['class']}: P={c['precision']:.4f} "
                         f"R={c['recall']:.4f} F1={c['f1']:.4f} support={c['support']}")
        return "\n".join(lines)


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


def compute_metrics(preds, labels, n_classes: int) -> MetricReport:
    """Confusion-matrix metrics with the usual macro conventions: 0/0 ratios
    are 0, and classes absent from both predictions and labels are skipped
    from the macro means (absent from only one side counts as 0)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ContractError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    if preds.size and (min(preds.min(), labels.min()) < 0
                       or max(preds.max(), labels.max()) >= n_classes):
        raise ContractError(f"class values outside [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)

    per_class = []
    kept_scores = []
    for c in range(n_classes):
        tp = int(confusion[c, c])
        support = int(confusion[c, :].sum())
        predicted = int(confusion[:, c].sum())
        p = _ratio(tp, predicted)
        r = _ratio(tp, support)
        f1 = _ratio(2 * tp, support + predicted)  # == 2PR/(P+R) over counts
        per_class.append({"class": c, "precision": float(p), "recall": float(r),
                          "f1": float(f1), "support": support})
        if support or predicted:
            kept_scores.append((p, r, f1))

    if kept_scores:
        k = len(kept_scores)
        macro_p = float(sum(s[0] for s in kept_scores) / k)
        macro_r = float(sum(s[1] for s in kept_scores) / k)
        macro_f1 = float(sum(s[2] for s in kept_scores) / k)
    else:
        macro_p = macro_r = macro_f1 = 0.0

    accuracy = float(_ratio(int((preds == labels).sum()), preds.size))
    return MetricReport(accuracy=accuracy, precision=macro_p, recall=macro_r,
                        macro_f1=macro_f1, per_class=per_class,
                        confusion=confusion, n=int(preds.size))
