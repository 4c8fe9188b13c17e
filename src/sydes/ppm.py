"""Minimal binary PPM (P6) reader/writer.

Pixels are exchanged as float arrays in [0, 1] of shape [H, W, 3]; files use
8-bit channels (maxval 255), which ``read_ppm_bytes`` returns as they are.
This is the only image codec in the package.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def read_ppm(path: str) -> np.ndarray:
    """The image at ``path`` as float64 [H, W, 3] in [0, 1]."""
    return read_ppm_bytes(path) / 255.0


def read_ppm_bytes(path: str) -> np.ndarray:
    """The image at ``path`` as its uint8 [H, W, 3] channel bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    fields: list[bytes] = []
    pos = 0
    # Header: magic, width, height, maxval; '#' comments run to end of line.
    while len(fields) < 4:
        if pos >= len(raw):
            raise DataError(f"{path}: truncated PPM header")
        c = raw[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = raw.find(b"\n", pos)
            if end < 0:
                raise DataError(f"{path}: unterminated comment in PPM header")
            pos = end + 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            fields.append(raw[pos:end])
            pos = end
    if fields[0] != b"P6":
        raise DataError(f"{path}: not a binary PPM (magic {fields[0]!r})")
    if not all(v.isdigit() for v in fields[1:]):
        raise DataError(f"{path}: PPM width, height and maxval must be unsigned "
                        f"integers, got {b' '.join(fields[1:])!r}")
    width, height, maxval = (int(v) for v in fields[1:])
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    n = width * height * 3
    body = raw[pos:pos + n]
    if len(body) != n:
        raise DataError(f"{path}: expected {n} pixel bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(path: str, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[2] != 3:
        raise DataError(f"write_ppm expects [H, W, 3], got {image.shape}")
    h, w = image.shape[:2]
    bytes_ = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(bytes_.tobytes())
