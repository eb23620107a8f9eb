"""Deterministic artifact writers: CSV series, JSON reports, raw field grids.

Byte-identical reruns are part of the output contract: the same config
and seed must reproduce every artifact exactly.  That rules out
timestamps, locale-dependent formatting and unsorted dicts, so all JSON
goes through sorted keys and all floats through repr, which is the
shortest string that round-trips the double.  Writes land in a temp
file in the target directory and move into place with os.replace, so a
reader never sees a half-written file.

Every artifact embeds the config hash it was produced from and the
format version; writers refuse metadata without a hash.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "ARTIFACT_VERSION",
    "config_hash",
    "fmt_float",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_json",
    "write_csv",
    "write_field_grid",
]

ARTIFACT_VERSION = 1

PathLike = Union[str, Path]


def config_hash(cfg) -> str:
    """sha256 over the canonical JSON form of a config mapping."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fmt_float(x) -> str:
    return repr(float(x))


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def _stamped(meta: Mapping) -> dict:
    out = dict(meta)
    if not out.get("config_hash"):
        raise ValueError("artifact metadata must carry a config_hash")
    out["artifact_version"] = ARTIFACT_VERSION
    return out


def write_json(path: PathLike, payload, *, meta: Mapping) -> Path:
    doc = {"meta": _stamped(meta), "payload": payload}
    text = json.dumps(doc, sort_keys=True, indent=1, default=_coerce)
    return atomic_write_text(path, text + "\n")


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path: PathLike, columns: Mapping[str, Sequence], *, meta: Mapping) -> Path:
    """Comment-prefixed metadata, one header row, then the columns.

    Column order follows the mapping order: the layout is part of the
    format, only the metadata block is sorted.
    """
    names = list(columns)
    cols = [list(columns[n]) for n in names]
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"ragged columns, lengths {sorted(lengths)}")
    lines = [f"# {k} = {v}" for k, v in sorted(_stamped(meta).items())]
    lines.append(",".join(names))
    for row in zip(*cols):
        lines.append(",".join(_cell(v) for v in row))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_field_grid(path_base: PathLike, array, *, meta: Mapping) -> tuple[Path, Path]:
    """Raw little-endian float64 payload plus a JSON sidecar header.

    Complex arrays are stored with a leading length-2 components axis
    (real part, then imaginary); the header records which convention
    applies, the shape, and C order.
    """
    arr = np.asarray(array)
    if np.iscomplexobj(arr):
        data = np.stack([arr.real, arr.imag], axis=0).astype("<f8")
        components = ["re", "im"]
    else:
        data = arr.astype("<f8")
        components = ["value"]
    # append the suffixes: a dotted base name keeps its dots
    base = Path(path_base)
    bin_path = base.with_name(base.name + ".f64")
    hdr_path = base.with_name(base.name + ".json")
    atomic_write_bytes(bin_path, np.ascontiguousarray(data).tobytes())
    header = {
        "dtype": "<f8",
        "order": "C",
        "shape": list(data.shape),
        "components": components,
        "data_file": bin_path.name,
    }
    write_json(hdr_path, header, meta=meta)
    return bin_path, hdr_path
