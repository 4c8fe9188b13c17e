"""Manifest ingestion with schema enforcement, synthetic corpus properties,
batches that index the dataset's sub-images, and the metric suite against
hand-computed oracles."""

import json
import os

import numpy as np
import pytest

from conftest import draw_masks
from sydes.data import (LABELS, DatasetArrays, Sample, generate_synthetic,
                        ingest_manifest, label_counts, write_manifest)
from sydes.errors import DataError
from sydes.imaging import ImageConfig, downsample, patch_pixels, patchify, quadrants
from sydes.metrics import compute_metrics
from sydes.model import gather_sub_patches
from sydes.ppm import read_ppm, write_ppm
from sydes.tensor import RngState
from sydes.text import Vocab

CFG = ImageConfig()


def _write_image(root):
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    rel = "images/shared.ppm"
    write_ppm(os.path.join(root, rel), np.full((64, 64, 3), 0.5))
    return rel


def _record(i, image, **overrides):
    rec = {"id": f"s{i:04d}", "image": image, "text": f"sample {i}",
           "sentiment": "positive", "emotion": "happiness", "desire": "none"}
    rec.update(overrides)
    return rec


def _write_manifest(root, records, name="train.jsonl"):
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return path


class TestIngest:
    def test_six_valid_rows(self, tmp_path):
        root = str(tmp_path)
        image = _write_image(root)
        path = _write_manifest(root, [_record(i, image) for i in range(6)])
        samples, counts = ingest_manifest(path, root)
        assert len(samples) == 6
        assert counts["sentiment"]["positive"] == 6

    def test_ordering_by_id(self, tmp_path):
        root = str(tmp_path)
        image = _write_image(root)
        records = [_record(i, image) for i in (3, 1, 2)]
        path = _write_manifest(root, records)
        samples, _ = ingest_manifest(path, root)
        assert [s.id for s in samples] == ["s0001", "s0002", "s0003"]

    def test_unknown_emotion_label_cites_allowed_set(self, tmp_path):
        root = str(tmp_path)
        image = _write_image(root)
        path = _write_manifest(root, [_record(0, image, emotion="joy")])
        with pytest.raises(DataError, match="happiness"):
            ingest_manifest(path, root)

    def test_duplicate_id_rejected(self, tmp_path):
        root = str(tmp_path)
        image = _write_image(root)
        path = _write_manifest(root, [_record(0, image), _record(0, image)])
        with pytest.raises(DataError, match="duplicate"):
            ingest_manifest(path, root)

    def test_missing_image_rejected(self, tmp_path):
        root = str(tmp_path)
        path = _write_manifest(root, [_record(0, "images/nowhere.ppm")])
        with pytest.raises(DataError, match="not found"):
            ingest_manifest(path, root)

    def test_missing_field_rejected(self, tmp_path):
        root = str(tmp_path)
        image = _write_image(root)
        rec = _record(0, image)
        del rec["desire"]
        path = _write_manifest(root, [rec])
        with pytest.raises(DataError, match="exactly the fields"):
            ingest_manifest(path, root)

    def test_invalid_json_rejected(self, tmp_path):
        root = str(tmp_path)
        path = os.path.join(root, "bad.jsonl")
        with open(path, "w") as f:
            f.write("{not json\n")
        with pytest.raises(DataError, match="invalid JSON"):
            ingest_manifest(path, root)

    def test_reference_corpus_label_counts(self, tmp_path):
        """A manifest built to the published per-label training counts
        ingests with exactly those counts (sentiment 2524/1664/1939)."""
        root = str(tmp_path)
        image = _write_image(root)
        sentiment_counts = {"positive": 2524, "neutral": 1664, "negative": 1939}
        emotion_counts = {"happiness": 2524, "sad": 666, "neutral": 1664,
                          "disgust": 251, "anger": 523, "fear": 499}
        desire_counts = {"vengeance": 277, "curiosity": 634, "social-contact": 437,
                         "family": 873, "tranquility": 245, "romance": 692,
                         "none": 2969}

        def expand(counts):
            out = []
            for label, k in counts.items():
                out.extend([label] * k)
            return out

        sent, emo, des = expand(sentiment_counts), expand(emotion_counts), expand(desire_counts)
        assert len(sent) == len(emo) == len(des) == 6127
        records = [_record(i, image, sentiment=sent[i], emotion=emo[i], desire=des[i])
                   for i in range(6127)]
        path = _write_manifest(root, records)
        _, counts = ingest_manifest(path, root)
        assert counts["sentiment"] == sentiment_counts
        assert counts["emotion"] == emotion_counts
        assert counts["desire"] == desire_counts

    def test_round_trip_semantic(self, tmp_path):
        root = str(tmp_path)
        out = generate_synthetic(8, CFG, RngState(1, "rt"), root)
        again_path = os.path.join(root, "again.jsonl")
        write_manifest(again_path, out, root)
        reread, _ = ingest_manifest(again_path, root)
        assert reread == out


class TestSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        generate_synthetic(8, CFG, RngState(3, "data"), a_dir)
        generate_synthetic(8, CFG, RngState(3, "data"), b_dir)
        for name in sorted(os.listdir(os.path.join(a_dir, "images"))):
            a = open(os.path.join(a_dir, "images", name), "rb").read()
            b = open(os.path.join(b_dir, "images", name), "rb").read()
            assert a == b
        assert (open(os.path.join(a_dir, "train.jsonl")).read()
                == open(os.path.join(b_dir, "train.jsonl")).read())

    def test_labels_from_allowed_sets(self, tmp_path):
        samples = generate_synthetic(21, CFG, RngState(4, "data"), str(tmp_path))
        for s in samples:
            assert s.sentiment in LABELS["sentiment"]
            assert s.emotion in LABELS["emotion"]
            assert s.desire in LABELS["desire"]

    def test_label_marginals_near_uniform(self, tmp_path):
        samples = generate_synthetic(70, CFG, RngState(5, "data"), str(tmp_path))
        counts = label_counts(samples)
        for task, labels in LABELS.items():
            values = [counts[task][lab] for lab in labels]
            assert max(values) - min(values) <= 1

    def test_linear_probe_beats_chance(self, tmp_path):
        """Least-squares probe on raw pixels exceeds chance on sentiment
        (the class-coded structure is linearly visible)."""
        samples = generate_synthetic(48, CFG, RngState(6, "data"), str(tmp_path))
        vocab = Vocab.build(s.text for s in samples)
        data = DatasetArrays(samples, CFG, vocab, 16)
        x = data.arrays.low_patches.reshape(len(samples), -1)
        x = np.concatenate([x, np.ones((len(samples), 1))], axis=1)
        y = data.arrays.labels["sentiment"]
        onehot = np.eye(3)[y]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        acc = float(((x @ w).argmax(1) == y).mean())
        assert acc > 0.8  # chance is 1/3

    def test_ingest_of_generated_manifest(self, tmp_path):
        root = str(tmp_path)
        samples = generate_synthetic(8, CFG, RngState(7, "data"), root)
        loaded, _ = ingest_manifest(os.path.join(root, "train.jsonl"), root)
        assert loaded == samples


class TestBatchArrays:
    """``DatasetArrays.batch`` keeps the dataset's sub-image array and the
    batch's rows instead of copying the batch's sub-images."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("batch"))
        samples = generate_synthetic(7, CFG, RngState(8, "data"), root)
        return DatasetArrays(samples, CFG, Vocab.build(s.text for s in samples), 16)

    @staticmethod
    def masks(n, seed):
        p = CFG.patches_per_image
        return draw_masks(n, p, 0.75, RngState(seed))

    def test_batch_shares_the_dataset_sub_images(self, data):
        subs = data.arrays.subs
        batch = data.batch(np.array([5, 1, 3]))
        assert batch.subs is subs and np.shares_memory(batch.subs, subs)
        assert np.shares_memory(batch.subset(np.array([2, 0])).subs, subs)
        assert batch.sub_patches().tobytes() == (subs[[5, 1, 3]] / 255.0).tobytes()

    def test_gathers_equal_gathering_from_the_copied_batch(self, data):
        subs = data.arrays.subs
        index = RngState(9).permutation(len(data))[:4]
        inner = np.array([3, 0, 2])
        cases = [(data.batch(index), index),
                 (data.batch(index).subset(inner), index[inner])]
        for batch, rows in cases:
            assert np.array_equal(batch.rows, rows)
            assert batch.sample_ids == [data.samples[r].id for r in rows]
            assert batch.sub_patches().tobytes() == patch_pixels(subs[rows], CFG).tobytes()
            kept, masked = self.masks(rows.size, 10)
            for picks in (kept, masked):
                old = gather_sub_patches(subs[rows], picks, np.arange(rows.size), CFG)
                new = gather_sub_patches(batch.subs, picks, batch.rows, CFG)
                assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("cfg", [CFG, ImageConfig(normalize_mean=(0.5, 0.4, 0.3),
                                                      normalize_std=(0.2, 0.25, 0.3))],
                             ids=["plain", "normalized"])
    def test_sub_images_are_bytes_that_expand_to_the_float_path(self, tmp_path, cfg):
        """The dataset keeps sub-image bytes; every gather is bitwise the
        float64 ``read_ppm`` then ``normalize`` path, and so are the
        low-resolution patches."""
        samples = generate_synthetic(5, cfg, RngState(12, "data"), str(tmp_path))
        data = DatasetArrays(samples, cfg, Vocab.build(s.text for s in samples), 16)
        assert data.arrays.subs.dtype == np.uint8
        images = [cfg.normalize(read_ppm(s.image_path)) for s in samples]
        subs = np.array([[patchify(sub, cfg) for sub in quadrants(img)] for img in images])
        low = np.array([patchify(downsample(img, cfg), cfg) for img in images])
        assert data.arrays.low_patches.tobytes() == low.tobytes()
        rows = np.array([4, 0, 2])
        batch = data.batch(rows)
        assert batch.sub_patches().tobytes() == subs[rows].tobytes()
        for picks in self.masks(rows.size, 13):
            want = gather_sub_patches(subs[rows], picks, np.arange(rows.size))
            got = gather_sub_patches(batch.subs, picks, batch.rows, batch.image_cfg)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            part = gather_sub_patches(batch.subs, picks, batch.rows, cfg, slice(2, 7))
            assert part.tobytes() == want[2:7].tobytes()


class TestMetrics:
    def test_perfect_predictions(self):
        rep = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert rep.accuracy == rep.precision == rep.recall == rep.macro_f1 == 1.0

    def test_hand_confusion_example(self):
        """Confusion [[1,1],[0,2]]: macro-F1 = 11/15, accuracy = 0.75."""
        preds = [0, 1, 1, 1]
        labels = [0, 0, 1, 1]
        rep = compute_metrics(preds, labels, 2)
        assert np.array_equal(rep.confusion, [[1, 1], [0, 2]])
        assert rep.per_class[0]["precision"] == pytest.approx(1.0)
        assert rep.per_class[0]["recall"] == pytest.approx(0.5)
        assert rep.per_class[0]["f1"] == pytest.approx(2 / 3)
        assert rep.per_class[1]["precision"] == pytest.approx(2 / 3)
        assert rep.per_class[1]["recall"] == pytest.approx(1.0)
        assert rep.per_class[1]["f1"] == pytest.approx(0.8)
        assert rep.macro_f1 == pytest.approx(11 / 15)
        assert rep.accuracy == pytest.approx(0.75)

    def test_all_one_class_on_balanced_pairs(self):
        rep = compute_metrics([1, 1, 1, 1], [0, 0, 1, 1], 2)
        assert rep.macro_f1 == pytest.approx(1 / 3)

    def test_zero_over_zero_is_zero(self):
        rep = compute_metrics([0, 0], [1, 1], 2)
        assert rep.per_class[1]["precision"] == 0.0  # predicted never
        assert rep.per_class[0]["recall"] == 0.0  # no true members

    def test_class_absent_everywhere_skipped_from_macro(self):
        rep = compute_metrics([0, 1], [0, 1], 3)
        assert rep.macro_f1 == pytest.approx(1.0)

    def test_class_absent_from_one_side_counts_zero(self):
        rep = compute_metrics([0, 0], [0, 1], 2)  # class 1 never predicted
        assert rep.per_class[1]["f1"] == 0.0
        assert rep.macro_f1 == pytest.approx((2 / 3) / 2)

    def test_permutation_symmetry(self):
        preds = np.array([0, 1, 2, 2, 1, 0, 1])
        labels = np.array([0, 2, 2, 1, 1, 0, 0])
        base = compute_metrics(preds, labels, 3)
        perm = RngState(8).permutation(7)
        permuted = compute_metrics(preds[perm], labels[perm], 3)
        assert base.to_dict() == permuted.to_dict()

    def test_macro_f1_bounded_by_per_class(self):
        for seed in range(10):
            gen = RngState(seed, "mb").generator()
            preds = gen.integers(0, 3, size=20)
            labels = gen.integers(0, 3, size=20)
            rep = compute_metrics(preds, labels, 3)
            f1s = [c["f1"] for c in rep.per_class
                   if c["support"] or rep.confusion[:, c["class"]].sum()]
            assert min(f1s) - 1e-12 <= rep.macro_f1 <= max(f1s) + 1e-12

    def test_length_mismatch_rejected(self):
        from sydes.errors import ContractError
        with pytest.raises(ContractError):
            compute_metrics([0, 1], [0], 2)


class TestSample:
    def test_label_index_follows_published_order(self):
        s = Sample(id="x", image_path="p", text="t", sentiment="negative",
                   emotion="fear", desire="none")
        assert s.label_index("sentiment") == 2
        assert s.label_index("emotion") == 5
        assert s.label_index("desire") == 6
