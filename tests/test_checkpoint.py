"""Checkpoint container: bit-exact round trips, rng/meta persistence, and
mismatch rejection."""

import json
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from sydes import checkpoint
from sydes.checkpoint import MAGIC, load_checkpoint, read_checkpoint, save_checkpoint
from sydes.encoders import EncoderConfig
from sydes.errors import DataError
from sydes.gradcheck import tiny_setup
from sydes.imaging import ImageConfig
from sydes.model import SydesModel
from sydes.tensor import RngState


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


@pytest.fixture
def model():
    m, _, _ = tiny_setup(RngState(41))
    return m


def test_round_trip_bit_exact(model, tmp_path):
    path = str(tmp_path / "m.ckpt")
    rng = RngState(7, "root")
    save_checkpoint(path, model, rng, {"stage": "pretrain", "epoch": 3})
    before = {name: p.data.tobytes() for name, p in model.named_parameters()}

    other, _, _ = tiny_setup(RngState(999))  # different values, same shapes
    meta, loaded_rng = load_checkpoint(path, other)
    after = {name: p.data.tobytes() for name, p in other.named_parameters()}
    assert after == before
    assert meta == {"stage": "pretrain", "epoch": 3}
    assert loaded_rng == rng


def test_save_is_deterministic(model, tmp_path):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, model, RngState(1), {"k": 1})
    save_checkpoint(b, model, RngState(1), {"k": 1})
    assert read_bytes(a) == read_bytes(b)


def test_failed_save_keeps_existing_checkpoint(model, tmp_path, monkeypatch):
    """A write that raises partway leaves the previous checkpoint intact and
    no temporary file behind."""
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model, RngState(0), {"epoch": 1})
    before = read_bytes(path)

    def pack(*args):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "struct", SimpleNamespace(pack=pack))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, RngState(0), {"epoch": 2})
    assert read_bytes(path) == before
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_read_raw_parameter_dict(model, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model, RngState(0), {})
    _, _, params = read_checkpoint(path)
    for name, p in model.named_parameters():
        assert np.array_equal(params[name], p.data)


def test_name_mismatch_rejected(model, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model, RngState(0), {})
    image_cfg = ImageConfig(high_res=8, low_res=4, patch_size=2)
    enc_cfg = EncoderConfig(image_dim=8, text_dim=8, image_layers=2, text_layers=1,
                            image_heads=2, text_heads=2, seq_len=6, mlp_ratio=2)
    deeper = SydesModel(image_cfg, enc_cfg, 10, decoder_layers=1, decoder_heads=2)
    with pytest.raises(DataError, match="mismatch"):
        load_checkpoint(path, deeper)


def test_bad_magic_rejected(tmp_path, model):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(str(path), model)


def _corrupt(tmp_path, model, edit):
    """A saved checkpoint rewritten by ``edit(bytes) -> bytes``."""
    good = str(tmp_path / "good.ckpt")
    save_checkpoint(good, model, RngState(0), {})
    path = tmp_path / "bad.ckpt"
    path.write_bytes(edit(read_bytes(good)))
    return str(path)


def _header_end(raw):
    (hlen,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    return len(MAGIC) + 8 + hlen


def _with_header(header):
    blob = json.dumps(header).encode()
    return lambda raw: MAGIC + struct.pack("<Q", len(blob)) + blob + raw[_header_end(raw):]


def _edit_header(change):
    """Rewrite the saved header with ``change(header)`` applied in place."""
    def edit(raw):
        header = json.loads(raw[len(MAGIC) + 8:_header_end(raw)])
        change(header)
        return _with_header(header)(raw)
    return edit


def _set_first_entry(header, value):
    header["params"][0] = value


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:len(MAGIC) + 3], "header length"),
    (lambda raw: raw[:len(MAGIC) + 8 + 20], "unreadable checkpoint header"),
    (lambda raw: raw[:len(MAGIC) + 8] + b"\xff" + raw[len(MAGIC) + 9:], "unreadable checkpoint header"),
    (lambda raw: raw[:_header_end(raw) + 12], "cut short"),
    (_with_header({"format": 1, "meta": {}, "rng": {"seed": 0, "stream": ""}}), "params"),
    (_with_header({"format": 1, "meta": {}, "params": []}), "rng"),
    (_edit_header(lambda h: h["params"][0].pop("name")), r"lacks \['name'\]"),
    (_edit_header(lambda h: h["params"][0].pop("shape")), r"lacks \['shape'\]"),
    (_edit_header(lambda h: h["params"][0].pop("offset")), r"lacks \['offset'\]"),
    (_edit_header(lambda h: _set_first_entry(h, "w")), "not an object"),
    (_edit_header(lambda h: h["params"][0].update(offset=-8)), "bad name, shape"),
    (_edit_header(lambda h: h["rng"].pop("seed")), "lacks seed or stream"),
    (_edit_header(lambda h: h["rng"].pop("stream")), "lacks seed or stream"),
], ids=["cut-length", "cut-header", "garbled-header", "short-payload",
        "no-params", "no-rng", "entry-no-name", "entry-no-shape", "entry-no-offset",
        "entry-not-object", "entry-negative-offset", "rng-no-seed", "rng-no-stream"])
def test_malformed_checkpoint_is_data_error(model, tmp_path, edit, message):
    path = _corrupt(tmp_path, model, edit)
    with pytest.raises(DataError, match=message) as info:
        read_checkpoint(path)
    assert path in str(info.value)
