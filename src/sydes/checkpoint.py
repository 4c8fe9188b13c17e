"""Checkpoint container.

Layout: magic line, an 8-byte little-endian header length, a JSON header,
then the concatenated parameter payloads as little-endian float64.  The
header records, per parameter, its name, shape, and byte offset, plus the
rng state and arbitrary stage metadata.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import DataError
from .nn import Module
from .tensor import RngState

MAGIC = b"SYDESCKPT1\n"


def save_checkpoint(path: str, model: Module, rng: RngState, meta: dict) -> None:
    model.assign_names()
    entries = []
    payloads = []
    offset = 0
    for name, p in model.named_parameters():
        raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(p.shape), "offset": offset})
        payloads.append(raw)
        offset += len(raw)
    header = {
        "format": 1,
        "rng": {"seed": rng.seed, "stream": rng.stream},
        "meta": meta,
        "params": entries,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # Renamed over ``path`` once whole, so a crash never leaves half a file.
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for raw in payloads:
                f.write(raw)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_checkpoint(path: str) -> tuple[dict, RngState, dict[str, np.ndarray]]:
    """Return (meta, rng, name -> array)."""
    if not os.path.isfile(path):
        raise DataError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a checkpoint (magic {magic!r})")
        length = f.read(8)
        if len(length) != 8:
            raise DataError(f"{path}: checkpoint cut short inside the header length")
        (hlen,) = struct.unpack("<Q", length)
        blob = f.read(hlen)
        body = f.read()
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
        raise DataError(f"{path}: unreadable checkpoint header ({e})") from None
    missing = {"meta", "params", "rng"} - (set(header) if isinstance(header, dict) else set())
    if missing:
        raise DataError(f"{path}: checkpoint header lacks {sorted(missing)}")
    if not isinstance(header["params"], list):
        raise DataError(f"{path}: checkpoint header params is not a list")
    params = {}
    for entry in header["params"]:
        name, shape, offset = _param_entry(path, entry)
        count = int(np.prod(shape)) if shape else 1
        try:
            arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        except ValueError:
            raise DataError(f"{path}: payload of {name} cut short") from None
        params[name] = arr.reshape(shape).astype(np.float64)
    rng = header["rng"]
    if not isinstance(rng, dict) or {"seed", "stream"} - set(rng):
        raise DataError(f"{path}: checkpoint rng {rng!r} lacks seed or stream")
    return header["meta"], RngState(rng["seed"], rng["stream"]), params


def _param_entry(path: str, entry) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of one header ``params`` entry of checkpoint
    ``path``, checked."""
    if not isinstance(entry, dict):
        raise DataError(f"{path}: checkpoint parameter entry {entry!r} is not an object")
    missing = {"name", "shape", "offset"} - set(entry)
    if missing:
        raise DataError(f"{path}: checkpoint parameter entry {entry.get('name', '?')!r} "
                        f"lacks {sorted(missing)}")
    name, shape, offset = entry["name"], entry["shape"], entry["offset"]
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(_count(d) for d in shape) and _count(offset)):
        raise DataError(f"{path}: checkpoint parameter entry {name!r} has a bad "
                        f"name, shape {shape!r} or offset {offset!r}")
    return name, tuple(shape), offset


def _count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path: str, model: Module) -> tuple[dict, RngState]:
    """Load parameter values into ``model``; names and shapes must match the
    model exactly."""
    meta, rng, params = read_checkpoint(path)
    load_params(path, model, params)
    return meta, rng


def load_params(path: str, model: Module, params: dict[str, np.ndarray]) -> None:
    """Copy ``params``, as read from checkpoint ``path``, into ``model``;
    names and shapes must match the model exactly."""
    model.assign_names()
    model_names = {name for name, _ in model.named_parameters()}
    file_names = set(params)
    if model_names != file_names:
        missing = sorted(model_names - file_names)[:3]
        extra = sorted(file_names - model_names)[:3]
        raise DataError(f"{path}: parameter set mismatch "
                        f"(missing {missing}, unexpected {extra})")
    for name, p in model.named_parameters():
        if params[name].shape != p.shape:
            raise DataError(f"{path}: shape of {name} is {params[name].shape}, "
                            f"model expects {p.shape}")
        p.data = params[name]
