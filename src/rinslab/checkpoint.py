"""Single-file checkpoints: JSON manifest plus raw little-endian arrays.

Layout: 8-byte magic, uint64 header length, UTF-8 JSON header, then the
arrays' bytes back to back in header order. The header records dims,
signature, policy, step, dtype, an array index (name, dtype, shape, offset,
and the zlib.crc32 of the array's bytes), and an opaque `extra` dict the
training loop uses for the trace so far; with the parameters, the Adam
moments and the seed's depth schedule that is all a resumed run needs to
continue bit-for-bit. A file cut short, a file written before
arrays carried checksums, or an array whose bytes fail their checksum is
refused with a ValueError that names it. The JSON header itself, `extra`
included, carries no checksum; a damaged header is caught only where it no
longer parses or no longer matches the file's size.
The file is written to a temporary path, synced to disk, then renamed over
the target, so a crash leaves either the old checkpoint or the new one.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .ledger import ModelDims
from .model import RecursionPolicy

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"RLAB0001"


@dataclass
class CheckpointData:
    dims: ModelDims
    signature: str
    policy: RecursionPolicy
    step: int
    dtype: str
    params: dict[str, np.ndarray]
    adam_m: Optional[dict[str, np.ndarray]] = None
    adam_v: Optional[dict[str, np.ndarray]] = None
    extra: dict = field(default_factory=dict)


def _dtype_tag(arr: np.ndarray) -> str:
    return {"float32": "<f4", "float64": "<f8"}[str(arr.dtype)]


@contextmanager
def _atomic_open(path, mode: str):
    """Open a temporary file beside path for writing; text is UTF-8 and
    written as given, with no newline translation. On a clean exit the
    file is flushed, synced to disk, then renamed over path, so a crash
    leaves either the old file or the new one, never part of one."""
    tmp = str(path) + ".tmp"
    text = "b" not in mode
    with open(tmp, mode, encoding="utf-8" if text else None,
              newline="" if text else None) as f:
        yield f
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def save_checkpoint(
    path,
    dims: ModelDims,
    signature: str,
    policy: RecursionPolicy,
    params: dict[str, np.ndarray],
    step: int = 0,
    adam_m: Optional[dict[str, np.ndarray]] = None,
    adam_v: Optional[dict[str, np.ndarray]] = None,
    extra: Optional[dict] = None,
):
    arrays: list[tuple[str, np.ndarray]] = [(k, params[k]) for k in sorted(params)]
    if adam_m is not None:
        arrays += [("adam.m." + k, adam_m[k]) for k in sorted(adam_m)]
    if adam_v is not None:
        arrays += [("adam.v." + k, adam_v[k]) for k in sorted(adam_v)]

    index = []
    offset = 0
    data = []
    for name, arr in arrays:
        raw = np.ascontiguousarray(arr).astype(_dtype_tag(arr), copy=False)
        index.append(
            {
                "name": name,
                "dtype": _dtype_tag(arr),
                "shape": list(arr.shape),
                "offset": offset,
                "crc32": zlib.crc32(raw),
            }
        )
        data.append(raw)
        offset += raw.nbytes

    dtype = str(next(iter(params.values())).dtype) if params else "float32"
    header = {
        "dims": asdict(dims),
        "signature": signature,
        "policy": asdict(policy),
        "step": int(step),
        "dtype": dtype,
        "extra": extra or {},
        "arrays": index,
    }
    blob = json.dumps(header).encode("utf-8")

    with _atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        for raw in data:
            f.write(raw)


def _check_size(path, expected: int, actual: int):
    if actual < expected:
        raise ValueError(
            f"truncated checkpoint {path}: expected {expected} bytes, file has {actual}"
        )


def _read_header(f, path, size: int) -> tuple[int, dict]:
    """The header length and the header of the checkpoint open as f."""
    magic = f.read(8)
    if magic != _MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    hlen = int.from_bytes(f.read(8), "little")
    _check_size(path, 16 + hlen, size)
    return hlen, json.loads(f.read(hlen).decode("utf-8"))


def _saved_step(path) -> int:
    """The step a checkpoint was saved at, read from its header alone."""
    with open(path, "rb") as f:
        return int(_read_header(f, path, os.fstat(f.fileno()).st_size)[1]["step"])


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint, each array straight from the file into a buffer of
    its own, and check its crc32 on those bytes; refuse a file cut short or
    an array that fails its checksum."""
    params: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        hlen, header = _read_header(f, path, size)
        if header["arrays"]:
            last = header["arrays"][-1]
            nbytes = np.dtype(last["dtype"]).itemsize * int(np.prod(last["shape"]))
            _check_size(path, 16 + hlen + last["offset"] + nbytes, size)
        for entry in header["arrays"]:
            name = entry["name"]
            if "crc32" not in entry:
                raise ValueError(f"checkpoint {path} predates per-array checksums; "
                                 f"recreate it with `rinslab run --force`")
            arr = np.empty(tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]))
            raw = memoryview(arr).cast("B")
            f.seek(16 + hlen + entry["offset"])
            # a header whose offsets run past the file's end reads short
            if f.readinto(raw) != arr.nbytes or zlib.crc32(raw) != entry["crc32"]:
                raise ValueError(f"corrupt checkpoint {path}: array {name!r} fails its checksum")
            if name.startswith("adam.m."):
                adam_m[name[len("adam.m."):]] = arr
            elif name.startswith("adam.v."):
                adam_v[name[len("adam.v."):]] = arr
            else:
                params[name] = arr

    return CheckpointData(
        dims=ModelDims(**header["dims"]),
        signature=header["signature"],
        policy=RecursionPolicy(**header["policy"]),
        step=int(header["step"]),
        dtype=header["dtype"],
        params=params,
        adam_m=adam_m or None,
        adam_v=adam_v or None,
        extra=header.get("extra", {}),
    )
