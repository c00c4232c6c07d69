"""Binary container for low-rank models, and the ``key = value`` text records.

Little-endian layout: magic (4 bytes, "EDLR" for the denoising model,
"RDGR" for the ridge baseline), version u32, n u64, k u64, lambda f64,
dropout p f64, then U and V as row-major f64 blocks of n*k entries each.

A text record (a ``--config`` file, ``config.resolved.txt``, the split's
``manifest.txt``) is an optional header line, then ``key = value`` lines;
``write_record`` writes one and ``read_record`` reads one.  Models, records,
logs and metrics are written with ``write_atomic``: a reader sees the old
file or the whole new one, never a partial write.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

from .closed_form import EdlaeConfig, LowRankModel
from .errors import InvalidDropout, ModelFormatError, ParseError

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


def format_value(value) -> str:
    """``value`` as a record holds it: a float to 17 significant digits, so
    it reads back bit for bit, a list comma-separated, a bool as true/false."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_record(path, fields, header=None) -> None:
    """Write the ``(key, value)`` pairs ``fields`` as a text record, after
    the line ``header`` when one is given."""
    lines = [] if header is None else [header]
    lines += [f"{key} = {format_value(value)}" for key, value in fields]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


_COMMENT = re.compile(r"(?:^|\s)#")


def read_record(path, header=None, file=None) -> dict[str, str]:
    """The fields of the text record ``path`` as stripped strings, keyed
    with ``_`` for ``-``.  Blank lines are skipped, and ``#`` at the start of
    a line or after whitespace starts a comment, so ``ks = 8  # rank`` reads
    ``8`` and ``split = x#y`` reads ``x#y``.  A first line other than
    ``header``, when given, a line without a key and ``=``, and a repeated
    key are ParseErrors naming ``file`` (by default ``path``) and the line."""
    file = os.fspath(path) if file is None else file
    fields = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        if header is not None and (first := handle.readline().rstrip("\n")) != header:
            raise ParseError(f"expected {header!r}, got {first!r}", 1, file)
        for lineno, raw in enumerate(handle, start=1 if header is None else 2):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not (eq and key):
                raise ParseError(f"expected 'key = value', got {line!r}", lineno, file)
            if key in fields:
                raise ParseError(f"repeated key {key!r}", lineno, file)
            fields[key] = value.strip()
    return fields


def load_model(path) -> LowRankModel:
    """Load and validate a serialized low-rank model.  Every fault of the
    file is a ModelFormatError whose message starts with ``path``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        return _decode_model(blob)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{os.fspath(path)}: {exc}") from None


def _decode_model(blob) -> LowRankModel:
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"file too short for header ({len(blob)} bytes)")
    magic, version, n, k, lam, p = _HEADER.unpack_from(blob)
    if magic not in KIND_BY_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ModelFormatError(f"unsupported version {version}, expected {VERSION}")
    try:  # lambda finite and >= 0, 0 <= p < 1
        config = EdlaeConfig(lam=lam, dropout_p=p)
    except (ValueError, InvalidDropout) as exc:
        raise ModelFormatError(f"header: {exc}") from None
    if k < 1:
        raise ModelFormatError(f"header: rank must be >= 1, got {k}")
    expected = _HEADER.size + 2 * n * k * 8
    if len(blob) != expected:
        raise ModelFormatError(f"payload is {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise ModelFormatError("payload contains non-finite values")
    u = flat[: n * k].reshape(n, k).astype(np.float64)
    v = flat[n * k :].reshape(n, k).astype(np.float64)
    return LowRankModel(u=u, v=v, config=config, kind=KIND_BY_MAGIC[magic])
