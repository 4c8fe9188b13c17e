"""Dataset ingestion, synthetic corpus generation, and array preparation.

Manifests are UTF-8 JSON-lines files; each record carries exactly the fields
``id``, ``image`` (path relative to the image root), ``text``, and one label
per task.  Images are binary PPM at the configured high resolution.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .imaging import ImageConfig, downsample, patchify, quadrants
from .model import LABELS, N_SUBS, TASKS, BatchArrays
from .ppm import read_ppm_bytes, write_ppm
from .tensor import RngState
from .text import Vocab, tokenize

MANIFEST_FIELDS = ("id", "image", "text", "sentiment", "emotion", "desire")


@dataclass(frozen=True)
class Sample:
    id: str
    image_path: str
    text: str
    sentiment: str
    emotion: str
    desire: str

    def label_index(self, task: str) -> int:
        return LABELS[task].index(getattr(self, task))


def label_counts(samples: list[Sample]) -> dict[str, dict[str, int]]:
    """Per-task, per-label counts; every allowed label has an entry."""
    counts = {task: {label: 0 for label in LABELS[task]} for task in TASKS}
    for s in samples:
        for task in TASKS:
            counts[task][getattr(s, task)] += 1
    return counts


def ingest_manifest(path: str, image_root: str) -> tuple[list[Sample], dict[str, dict[str, int]]]:
    """Parse and validate a manifest; returns (samples ordered by id,
    per-task label counts)."""
    samples: list[Sample] = []
    seen_ids: set[str] = set()
    if not os.path.isfile(path):
        raise DataError(f"manifest not found: {path}")
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{line_no}: invalid JSON ({e})") from None
            if not isinstance(rec, dict) or set(rec) != set(MANIFEST_FIELDS):
                raise DataError(f"{path}:{line_no}: record must have exactly the fields "
                                f"{MANIFEST_FIELDS}")
            for key in ("id", "image", "text"):
                if not isinstance(rec[key], str):
                    raise DataError(f"{path}:{line_no}: {key} must be a string, got {rec[key]!r}")
            sid = rec["id"]
            if any(c in sid for c in "/\\\0"):
                raise DataError(f"{path}:{line_no}: id {sid!r} names output files, so it "
                                f"must not contain '/', '\\' or NUL")
            if sid in seen_ids:
                raise DataError(f"{path}:{line_no}: duplicate id {sid!r}")
            seen_ids.add(sid)
            for task in TASKS:
                value = rec[task]
                if value not in LABELS[task]:
                    raise DataError(f"{path}:{line_no}: unknown {task} label {value!r}; "
                                    f"allowed: {LABELS[task]}")
            image_path = os.path.join(image_root, rec["image"])
            if not os.path.isfile(image_path):
                raise DataError(f"{path}:{line_no}: image not found: {image_path}")
            samples.append(Sample(id=sid, image_path=image_path, text=rec["text"],
                                  sentiment=rec["sentiment"], emotion=rec["emotion"],
                                  desire=rec["desire"]))
    samples.sort(key=lambda s: s.id)
    return samples, label_counts(samples)


def write_manifest(path: str, samples: list[Sample], image_root: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            rec = {"id": s.id, "image": os.path.relpath(s.image_path, image_root),
                   "text": s.text, "sentiment": s.sentiment,
                   "emotion": s.emotion, "desire": s.desire}
            f.write(json.dumps(rec, sort_keys=True) + "\n")


# -- synthetic corpus ---------------------------------------------------------

_FILLERS = ("snapshot", "picture", "scene", "moment", "view", "frame")

# Per-emotion quadrant brightness patterns for the green channel.
_EMOTION_QUADS = np.array([
    [0.85, 0.85, 0.15, 0.15],
    [0.15, 0.15, 0.85, 0.85],
    [0.85, 0.15, 0.85, 0.15],
    [0.15, 0.85, 0.15, 0.85],
    [0.85, 0.15, 0.15, 0.85],
    [0.15, 0.85, 0.85, 0.15],
])


def _synthetic_image(cfg: ImageConfig, s_idx: int, e_idx: int, d_idx: int,
                     rng: RngState) -> np.ndarray:
    """Class-coded image: red level follows sentiment, green quadrants follow
    emotion, blue stripe period follows desire; small noise on top.  Pixels
    are quantized to 8-bit steps so PPM files round-trip exactly."""
    h = cfg.high_res
    img = np.zeros((h, h, 3))
    img[:, :, 0] = 0.2 + 0.3 * s_idx
    for quad, level in zip(quadrants(img), _EMOTION_QUADS[e_idx]):
        quad[:, :, 1] = level
    period = d_idx + 2
    bands = (np.arange(h) // period) % 2
    img[:, :, 2] = np.where(bands, 0.8, 0.2)[:, None]
    img += rng.uniform(img.shape, -0.05, 0.05)
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def _spread_labels(n: int, k: int, rng: RngState) -> np.ndarray:
    """Near-uniform label assignment: a shuffled round-robin."""
    base = np.arange(n) % k
    return base[rng.permutation(n)]


def generate_synthetic(n: int, cfg: ImageConfig, rng: RngState, out_dir: str,
                       split: str = "train") -> list[Sample]:
    """Write ``n`` class-coded PPM images plus a manifest; returns the
    samples.  Texts carry the label words so all three tasks are learnable
    from either modality."""
    if n < 1:
        raise DataError(f"need at least one sample, got {n}")
    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)
    s_lab = _spread_labels(n, len(LABELS["sentiment"]), rng.split(f"{split}/labels/sentiment"))
    e_lab = _spread_labels(n, len(LABELS["emotion"]), rng.split(f"{split}/labels/emotion"))
    d_lab = _spread_labels(n, len(LABELS["desire"]), rng.split(f"{split}/labels/desire"))
    samples = []
    for i in range(n):
        sid = f"{split}-{i:05d}"
        img = _synthetic_image(cfg, int(s_lab[i]), int(e_lab[i]), int(d_lab[i]),
                               rng.split(f"{split}/image/{i}"))
        rel = f"{sid}.ppm"
        write_ppm(os.path.join(image_dir, rel), img)
        filler = _FILLERS[int(rng.split(f"{split}/filler/{i}").integers(0, len(_FILLERS)))]
        sentiment = LABELS["sentiment"][s_lab[i]]
        emotion = LABELS["emotion"][e_lab[i]]
        desire = LABELS["desire"][d_lab[i]]
        text = (f"{filler} {i} with {sentiment} mood showing {emotion} "
                f"feeling and a wish for {desire}")
        samples.append(Sample(id=sid, image_path=os.path.join(image_dir, rel),
                              text=text, sentiment=sentiment, emotion=emotion,
                              desire=desire))
    write_manifest(os.path.join(out_dir, f"{split}.jsonl"), samples, out_dir)
    return samples


# -- array preparation ----------------------------------------------------------

class DatasetArrays:
    """Patchified images and tokenized texts for a list of samples, ready to
    slice into batches.

    The low-resolution patches are float64 (a 2x2 mean is not an 8-bit
    value); the sub-image patches keep the PPM's uint8 channel bytes, an
    eighth of their float64 size, and a gather expands only the rows it
    returns (``imaging.patch_pixels``).
    """

    def __init__(self, samples: list[Sample], cfg: ImageConfig, vocab: Vocab,
                 seq_len: int):
        self.samples = samples
        n = len(samples)
        p = cfg.patches_per_image
        low = np.zeros((n, p, cfg.patch_dim))
        subs = np.zeros((n, N_SUBS, p, cfg.patch_dim), dtype=np.uint8)
        ids = np.zeros((n, seq_len), dtype=np.int64)
        real = np.zeros((n, seq_len), dtype=bool)
        for i, s in enumerate(samples):
            image = read_ppm_bytes(s.image_path)
            if image.shape[:2] != (cfg.high_res, cfg.high_res):
                raise DataError(f"{s.image_path}: expected a {cfg.high_res}x{cfg.high_res} image, "
                                f"got {image.shape[1]}x{image.shape[0]} (width x height)")
            low[i] = patchify(downsample(cfg.normalize(image / 255.0), cfg), cfg)
            subs[i] = [patchify(sub, cfg) for sub in quadrants(image)]
            seq = tokenize(s.text, vocab, seq_len)
            ids[i] = seq.ids
            real[i] = seq.real_mask()
        labels = {task: np.array([s.label_index(task) for s in samples], dtype=np.int64)
                  for task in TASKS}
        self.arrays = BatchArrays(low, subs, ids, real, labels,
                                  [s.id for s in samples], image_cfg=cfg)

    def __len__(self) -> int:
        return len(self.samples)

    def batch(self, index: np.ndarray):
        """The arrays of rows ``index``; the batch indexes this dataset's
        sub-image array instead of copying it (``BatchArrays``)."""
        return self.arrays.subset(index)
