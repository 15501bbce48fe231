"""Hyperspectral cubes: file I/O, normalization, and patch extraction.

On disk a cube is two files: a JSON header (``.hsic``) and a raw payload of
little-endian 32-bit floats in band-sequential order (all of band 0, then
band 1, ...).  Ground truth and segmentation maps use the same convention
with a ``.gt`` JSON header and an unsigned 16-bit raster payload where 0
marks background (unknown class).  In memory everything is float64, stored
(height, width, bands) so that a pixel's spatial neighbourhood is a cheap
slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DegenerateDataError, FormatError, ParameterError,
                     ShapeError, SizeMismatchError)


@dataclass
class HsiCube:
    """A width x height x bands grid of reflectance values.

    ``labels`` (optional) holds per-pixel class ids with 0 reserved for
    background/unknown; ``wavelengths`` (optional) holds band centers in nm.
    Construction checks each raster; labels must be non-negative integers.
    """

    values: np.ndarray                      # (height, width, bands) float64
    labels: np.ndarray | None = None        # (height, width) integer
    wavelengths: np.ndarray | None = None   # (bands,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ShapeError(f"cube values must be (height, width, bands), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("cube contains non-finite reflectance values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != self.values.shape[:2]:
                raise ShapeError(
                    f"labels shape {self.labels.shape} does not match grid {self.values.shape[:2]}")
            if not np.issubdtype(self.labels.dtype, np.integer) or self.labels.min(initial=0) < 0:
                raise ParameterError("labels must be non-negative integer class ids, "
                                     f"got dtype {self.labels.dtype}")
        if self.wavelengths is not None:
            self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
            if self.wavelengths.shape != (self.values.shape[2],):
                raise ShapeError("one wavelength per band required")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]

    def pixel_matrix(self) -> np.ndarray:
        """All spectra as an (height*width, bands) matrix, row-major pixels."""
        return self.values.reshape(-1, self.bands)


@dataclass
class PatchBatch:
    """Sub-cubes of shape (spatial, spatial, bands), one per kept pixel, row-major."""

    patches: np.ndarray          # (count, spatial, spatial, bands)


@dataclass
class SegmentationMap:
    """Per-pixel integer cluster labels; 0 is reserved for background.

    Clusters are numbered from 1 so a map can be stored in the ground-truth
    raster format.
    """

    labels: np.ndarray  # (height, width) integer, values >= 0

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ShapeError("segmentation map must be two-dimensional")
        if self.labels.min(initial=0) < 0:
            raise ParameterError("segmentation labels must be non-negative")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _read_header(path: Path) -> dict:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read header {path}: {exc}") from exc
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"garbled JSON header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"header in {path} is not a JSON object")
    return header


def _require(header: dict, key: str, path: Path, kind: type = int):
    """The value of a required header key, which must be a JSON ``kind``
    (an int is never a bool, nor a float with an integral value)."""
    if key not in header:
        raise FormatError(f"header {path} is missing required key {key!r}")
    if type(header[key]) is not kind:
        raise FormatError(f"header {path}: {key!r} must be a JSON {kind.__name__}, "
                          f"got {header[key]!r}")
    return header[key]


def _read_payload(header: dict, path: Path, dtype: str, count: int) -> np.ndarray:
    payload_path = path.parent / _require(header, "data", path, str)
    try:
        raw = payload_path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read payload {payload_path}: {exc}") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) != count * itemsize:
        raise SizeMismatchError(
            f"payload {payload_path} holds {len(raw)} bytes, expected {count * itemsize}")
    return np.frombuffer(raw, dtype=dtype)


def load_cube(path: str | Path) -> HsiCube:
    """Load a cube from its ``.hsic`` JSON header plus raw payload."""
    path = Path(path)
    header = _read_header(path)
    width = _require(header, "width", path)
    height = _require(header, "height", path)
    bands = _require(header, "bands", path)
    if min(width, height, bands) <= 0:
        raise FormatError(f"non-positive dimensions in {path}")
    wavelengths = header.get("wavelengths")
    if "wavelengths" in header and not (
            type(wavelengths) is list and len(wavelengths) == bands
            and all(type(v) in (int, float) for v in wavelengths)):
        raise FormatError(f"header {path}: 'wavelengths' must list {bands} numbers, "
                          f"got {wavelengths!r}")
    if header.get("dtype", "f32") != "f32":
        raise FormatError(f"unsupported dtype {header.get('dtype')!r} in {path}")
    if header.get("interleave", "bsq") != "bsq":
        raise FormatError(f"unsupported interleave {header.get('interleave')!r} in {path}")

    flat = _read_payload(header, path, "<f4", width * height * bands)
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"payload of {path} contains non-finite values")
    # band-sequential payload -> (bands, height, width) -> (height, width, bands)
    values = flat.astype(np.float64).reshape(bands, height, width).transpose(1, 2, 0)
    return HsiCube(values=values, wavelengths=wavelengths)


def write_cube(cube: HsiCube, path: str | Path) -> None:
    """Write the ``.hsic`` header and its sibling raw payload."""
    path = Path(path)
    # payload carries the full header name so cube.hsic and cube.gt coexist
    payload_name = path.name + ".raw"
    header = {
        "width": cube.width,
        "height": cube.height,
        "bands": cube.bands,
        "dtype": "f32",
        "interleave": "bsq",
        "data": payload_name,
    }
    if cube.wavelengths is not None:
        header["wavelengths"] = [float(v) for v in cube.wavelengths]
    path.write_text(json.dumps(header, sort_keys=True, indent=1) + "\n")
    payload = cube.values.transpose(2, 0, 1).astype("<f4").tobytes()
    (path.parent / payload_name).write_bytes(payload)


def load_labels(path: str | Path) -> np.ndarray:
    """Load a ``.gt`` label raster; returns an (height, width) integer array."""
    path = Path(path)
    header = _read_header(path)
    width = _require(header, "width", path)
    height = _require(header, "height", path)
    if min(width, height) <= 0:
        raise FormatError(f"non-positive dimensions in {path}")
    flat = _read_payload(header, path, "<u2", width * height)
    return flat.reshape(height, width).astype(np.int64)


def write_labels(labels: np.ndarray, path: str | Path) -> None:
    """Write an integer raster as a ``.gt`` header plus uint16 payload."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError("label raster must be two-dimensional")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > np.iinfo(np.uint16).max:
        raise ParameterError("labels must fit in an unsigned 16-bit raster")
    path = Path(path)
    payload_name = path.name + ".raw"
    header = {
        "width": int(labels.shape[1]),
        "height": int(labels.shape[0]),
        "classes": int(labels.max(initial=0)),
        "data": payload_name,
    }
    path.write_text(json.dumps(header, sort_keys=True, indent=1) + "\n")
    (path.parent / payload_name).write_bytes(labels.astype("<u2").tobytes())


# fixed 32-colour palette for map visualisation (label 0 renders black)
PALETTE = np.array([
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (255, 255, 255), (100, 150, 200), (200, 100, 50), (50, 200, 100),
    (150, 50, 200), (200, 200, 50), (50, 100, 50), (100, 50, 100),
    (25, 75, 230), (75, 230, 25), (230, 230, 115), (115, 25, 25),
], dtype=np.uint8)


def write_ppm(segmap: SegmentationMap, path: str | Path) -> None:
    """Render a segmentation map as a binary PPM with the fixed palette."""
    labels = segmap.labels
    rgb = np.zeros((segmap.height, segmap.width, 3), dtype=np.uint8)
    fg = labels > 0
    rgb[fg] = PALETTE[(labels[fg] - 1) % len(PALETTE)]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{segmap.width} {segmap.height}\n255\n".encode())
        fh.write(rgb.tobytes())


# ---------------------------------------------------------------------------
# normalization and patch extraction
# ---------------------------------------------------------------------------

def normalize(cube: HsiCube) -> HsiCube:
    """Min-max scale each band independently to [0, 1].

    Constant bands map to all-zeros, which keeps the operation total and
    idempotent.
    """
    lo = cube.values.min(axis=(0, 1))
    hi = cube.values.max(axis=(0, 1))
    span = hi - lo
    safe = np.where(span > 0.0, span, 1.0)
    scaled = (cube.values - lo) / safe
    return HsiCube(values=scaled, labels=cube.labels, wavelengths=cube.wavelengths)


def patch_windows(cube: HsiCube, spatial: int) -> np.ndarray:
    """Zero-copy view of every pixel's patch, indexed as (y, x) -> patch.

    Returns an array view of shape (height, width, spatial, spatial, bands)
    over the cube mirror-padded once; selecting rows materializes only those
    patches.  'reflect' mirrors about the edge pixel without repeating it,
    so offsets (-2,-1,0,1,2) at a corner read rows (2,1,0,1,2).
    """
    if spatial % 2 == 0:
        raise ParameterError(f"patch size must be odd, got {spatial}")
    if spatial > min(cube.width, cube.height):
        raise ParameterError(
            f"patch size {spatial} exceeds scene extent {min(cube.width, cube.height)}")
    margin = (spatial - 1) // 2
    padded = np.pad(cube.values, ((margin, margin), (margin, margin), (0, 0)), mode="reflect")
    win = sliding_window_view(padded, (spatial, spatial), axis=(0, 1))
    # sliding_window_view appends window axes: (H, W, bands, s, s)
    return np.moveaxis(win, 2, -1)


def extract_patches(cube: HsiCube, spatial: int = 5) -> PatchBatch:
    """One patch per pixel, centered on it, borders mirror-reflected.

    Background pixels (label 0) are skipped; a cube without labels gives
    every pixel.  Patches follow the kept pixels in row-major order.
    """
    win = patch_windows(cube, spatial)
    if cube.labels is None:
        keep = np.ones((cube.height, cube.width), dtype=bool)
    else:
        keep = cube.labels > 0
        if not keep.any():
            raise DegenerateDataError("every pixel is background; nothing to extract")
    return PatchBatch(patches=win[keep])
