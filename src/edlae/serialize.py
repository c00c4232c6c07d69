"""Binary container for low-rank models.

Little-endian layout: magic (4 bytes, "EDLR" for the denoising model,
"RDGR" for the ridge baseline), version u32, n u64, k u64, lambda f64,
dropout p f64, then U and V as row-major f64 blocks of n*k entries each.

Models, like the CLI's logs and metrics, are written with ``write_atomic``:
a reader sees the old file or the whole new one, never a partial write.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .closed_form import EdlaeConfig, LowRankModel
from .errors import ModelFormatError

_HEADER = struct.Struct("<4sIQQdd")
VERSION = 1
MAGIC_BY_KIND = {"edlae": b"EDLR", "ridge": b"RDGR"}
KIND_BY_MAGIC = {magic: kind for kind, magic in MAGIC_BY_KIND.items()}


def save_model(path, model: LowRankModel) -> None:
    """Serialize a low-rank model; requires an attached config (lambda, p)."""
    if model.kind not in MAGIC_BY_KIND:
        raise ModelFormatError(f"no container magic for model kind {model.kind!r}")
    if model.config is None:
        raise ModelFormatError("model has no config attached; lambda and p are required")
    n, k = model.u.shape
    header = _HEADER.pack(
        MAGIC_BY_KIND[model.kind], VERSION, n, k,
        model.config.lam, model.config.dropout_p,
    )
    write_atomic(
        path,
        header,
        np.ascontiguousarray(model.u, dtype="<f8"),
        np.ascontiguousarray(model.v, dtype="<f8"),
    )


def write_atomic(path, *chunks) -> None:
    """Write the concatenated bytes-like chunks to ``path`` through a
    temporary file in the same directory that then replaces ``path``.

    If anything fails, the temporary file is removed and ``path`` keeps its
    previous content (or stays absent).
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_model(path) -> LowRankModel:
    """Load and validate a serialized low-rank model."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"file too short for header ({len(blob)} bytes)")
    magic, version, n, k, lam, p = _HEADER.unpack_from(blob)
    if magic not in KIND_BY_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ModelFormatError(f"unsupported version {version}, expected {VERSION}")
    expected = _HEADER.size + 2 * n * k * 8
    if len(blob) != expected:
        raise ModelFormatError(f"payload is {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise ModelFormatError("payload contains non-finite values")
    if not (np.isfinite(lam) and np.isfinite(p)):
        raise ModelFormatError("header contains non-finite hyperparameters")
    u = flat[: n * k].reshape(n, k).astype(np.float64)
    v = flat[n * k :].reshape(n, k).astype(np.float64)
    config = EdlaeConfig(lam=lam, dropout_p=p, rank=int(k))
    return LowRankModel(u=u, v=v, rank=int(k), config=config, kind=KIND_BY_MAGIC[magic])
