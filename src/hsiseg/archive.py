"""Deterministic zip archives holding JSON metadata plus raw array payloads.

Model checkpoints and baseline models share this container: a ``meta.json``
entry, a ``manifest.json`` listing (name, shape, dtype, file) per array, and
one little-endian float64 payload per array under ``tensors/``.  Entry order
and timestamps are pinned so identical contents give byte-identical files.
"""

from __future__ import annotations

import json
import math
import zipfile
from pathlib import Path

import numpy as np

from .errors import FormatError


def save_archive(path: str | Path, meta: dict,
                 arrays: list[tuple[str, np.ndarray]]) -> None:
    manifest = [
        {"name": name, "shape": list(np.asarray(a).shape), "dtype": "<f8",
         "file": f"tensors/{name}.bin"}
        for name, a in arrays
    ]
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        def put(name: str, payload: bytes):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, payload)

        put("meta.json", json.dumps(meta, sort_keys=True, indent=1).encode())
        put("manifest.json", json.dumps(manifest, sort_keys=True, indent=1).encode())
        for name, a in arrays:
            put(f"tensors/{name}.bin", np.asarray(a, dtype=np.float64).astype("<f8").tobytes())


def _payload_array(path, zf: zipfile.ZipFile, entry) -> tuple[str, np.ndarray]:
    """The name and array of a manifest entry; its payload must be exactly
    the documented ``"<f8"`` bytes of its shape."""
    if not isinstance(entry, dict):
        raise FormatError(f"{path}: manifest entry {entry!r} is not an object")
    name, shape, dtype, file = entry["name"], entry["shape"], entry["dtype"], entry["file"]
    if not isinstance(name, str) or not isinstance(file, str):
        raise FormatError(f"{path}: manifest entry {entry!r} has no valid name and file")
    raw = zf.read(file)
    if dtype != "<f8":
        raise FormatError(f"{path}: tensor {name!r} has dtype {dtype!r}, expected '<f8'")
    if not isinstance(shape, list) or not all(
            type(extent) is int and extent >= 0 for extent in shape):
        raise FormatError(f"{path}: tensor {name!r} has no valid shape: {shape!r}")
    if len(raw) != 8 * math.prod(shape):
        raise FormatError(f"{path}: tensor {name!r} holds {len(raw)} bytes, its shape "
                          f"{shape} needs {8 * math.prod(shape)}")
    return name, np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def load_archive(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with zipfile.ZipFile(path, "r") as zf:
            meta = json.loads(zf.read("meta.json"))
            manifest = json.loads(zf.read("manifest.json"))
            if not isinstance(meta, dict) or not isinstance(manifest, list):
                raise FormatError(f"{path}: meta.json must hold a JSON object and "
                                  "manifest.json a list")
            arrays = dict(_payload_array(path, zf, entry) for entry in manifest)
    except (zipfile.BadZipFile, KeyError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path} is not a readable model archive: {exc}") from exc
    return meta, arrays
