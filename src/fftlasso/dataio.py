"""Volume and mask files: raw little-endian payload plus a JSON sidecar.

A volume at ``path`` is raw float64 little-endian samples with the header
``path + ".json"`` describing ``{"dims": [...], "order": "row-major",
"dtype": "f64-le"}``.  A mask is either a sorted uint64-le index list
(``format: "indices"``) or a byte map of the full grid with 1 marking a
missing sample (``format: "bytemask"``); the sidecar carries the format
tag and the grid dims.  Write-then-read round trips are bit exact.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .fourier import GridShape, real_vector
from .masking import Mask

__all__ = [
    "read_volume",
    "write_volume",
    "read_mask",
    "write_mask",
    "sidecar_path",
]

VOLUME_DTYPE = "f64-le"
VOLUME_ORDER = "row-major"


def sidecar_path(path: str) -> str:
    return path + ".json"


def _load_sidecar(path: str) -> dict:
    header_file = sidecar_path(path)
    if not os.path.exists(header_file):
        raise ValueError(f"missing header sidecar {header_file}")
    try:
        with open(header_file, encoding="utf-8") as fh:
            header = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed header {header_file}: {exc}") from exc
    if not isinstance(header, dict) or "dims" not in header:
        raise ValueError(f"malformed header {header_file}: missing 'dims'")
    dims = header["dims"]
    if not (isinstance(dims, list) and dims
            and all(type(d) is int and d > 0 for d in dims)):
        raise ValueError(f"malformed header {header_file}: 'dims' must be a non-empty "
                         f"list of positive integers, got {dims!r}")
    header["dims"] = tuple(dims)
    return header


def _read_payload(path: str, dtype: str) -> np.ndarray:
    """The raw values at ``path``; a trailing partial value is an error."""
    itemsize = np.dtype(dtype).itemsize
    size = os.path.getsize(path)
    if size % itemsize:
        raise ValueError(f"{path} holds {size} bytes, not a whole number of "
                         f"{itemsize}-byte values")
    return np.fromfile(path, dtype=dtype)


def write_volume(path: str, values, dims) -> None:
    dims = [int(d) for d in dims]
    values = real_vector(values, "volume samples").astype("<f8", copy=False)
    if values.size != math.prod(dims):
        raise ValueError(
            f"payload has {values.size} samples, dims {dims} expect {math.prod(dims)}"
        )
    values.tofile(path)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump({"dims": dims, "order": VOLUME_ORDER, "dtype": VOLUME_DTYPE}, fh)
        fh.write("\n")


def read_volume(path: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Read a volume; returns (flat float64 samples, dims)."""
    header = _load_sidecar(path)
    dims = header["dims"]
    if header.get("dtype", VOLUME_DTYPE) != VOLUME_DTYPE:
        raise ValueError(f"unsupported dtype {header.get('dtype')!r} in {path}")
    if header.get("order", VOLUME_ORDER) != VOLUME_ORDER:
        raise ValueError(f"unsupported order {header.get('order')!r} in {path}")
    payload = _read_payload(path, "<f8")
    expected = math.prod(dims)  # exact, where np.prod would wrap in int64
    if payload.size != expected:
        raise ValueError(
            f"volume {path} has {payload.size} samples, header dims {dims} "
            f"expect {expected}"
        )
    return payload.astype(np.float64, copy=False), dims  # a copy only on big-endian hosts


def write_mask(path: str, mask: Mask, fmt: str = "indices") -> None:
    dims = [int(d) for d in mask.shape.dims]
    if fmt == "indices":
        mask.missing.astype("<u8").tofile(path)
    elif fmt == "bytemask":
        mask.missing_bool.astype(np.uint8).tofile(path)
    else:
        raise ValueError(f"unknown mask format {fmt!r}")
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump({"format": fmt, "dims": dims}, fh)
        fh.write("\n")


def read_mask(path: str) -> Mask:
    header = _load_sidecar(path)
    shape = GridShape(header["dims"])
    fmt = header.get("format")
    if fmt == "indices":
        idx = _read_payload(path, "<u8").astype(np.int64)
        return Mask(idx, shape)
    if fmt == "bytemask":
        flags = _read_payload(path, "u1")
        if flags.size != shape.n:
            raise ValueError(
                f"byte mask {path} has {flags.size} entries, grid expects {shape.n}"
            )
        return Mask.from_bool(flags != 0, shape)
    raise ValueError(f"malformed mask header: unknown format {fmt!r}")
