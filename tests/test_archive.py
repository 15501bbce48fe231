"""The deterministic model-archive container."""

import json

import numpy as np
import pytest

from hsiseg.archive import load_archive, save_archive
from hsiseg.errors import FormatError


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [("alpha", rng.normal(size=(3, 4))), ("beta", rng.normal(size=7))]
    save_archive(tmp_path / "m.zip", {"format": "demo", "k": 2}, arrays)
    meta, loaded = load_archive(tmp_path / "m.zip")
    assert meta == {"format": "demo", "k": 2}
    for name, a in arrays:
        np.testing.assert_array_equal(loaded[name], a)


def test_byte_identical(tmp_path):
    arrays = [("x", np.arange(6.0).reshape(2, 3))]
    save_archive(tmp_path / "a.zip", {"format": "demo"}, arrays)
    save_archive(tmp_path / "b.zip", {"format": "demo"}, arrays)
    assert (tmp_path / "a.zip").read_bytes() == (tmp_path / "b.zip").read_bytes()


def test_garbage_rejected(tmp_path):
    (tmp_path / "junk.zip").write_bytes(b"this is not a zip archive")
    with pytest.raises(FormatError):
        load_archive(tmp_path / "junk.zip")


def test_missing_entries_rejected(tmp_path):
    import zipfile
    with zipfile.ZipFile(tmp_path / "partial.zip", "w") as zf:
        zf.writestr("meta.json", "{}")
    with pytest.raises(FormatError):
        load_archive(tmp_path / "partial.zip")


def _rewrite(src, dst, name, transform):
    """Copy the archive ``src`` to ``dst`` with entry ``name`` passed through ``transform``."""
    import zipfile
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            payload = zin.read(info)
            zout.writestr(info, transform(payload) if info.filename == name else payload)


def _edit_manifest(field, value):
    def transform(payload):
        manifest = json.loads(payload)
        manifest[0][field] = value
        return json.dumps(manifest).encode()
    return transform


@pytest.mark.parametrize("name, transform", [
    ("tensors/x.bin", lambda payload: payload[:-3]),       # truncated mid-value
    ("tensors/x.bin", lambda payload: payload[:-8]),       # one value short
    ("manifest.json", _edit_manifest("shape", [7])),       # 6 values stored
    ("manifest.json", _edit_manifest("shape", [2, -3])),
    ("manifest.json", _edit_manifest("shape", "2x3")),
    ("manifest.json", _edit_manifest("dtype", "<U4")),
    ("manifest.json", _edit_manifest("dtype", "<f4")),
    ("manifest.json", _edit_manifest("name", ["x"])),
    ("manifest.json", _edit_manifest("file", 5)),
    ("manifest.json", lambda payload: b'["x"]'),
    ("manifest.json", lambda payload: b'{"a": 1}'),
    ("manifest.json", lambda payload: b"7"),
    ("meta.json", lambda payload: b"[1, 2]"),
], ids=["truncated", "short", "shape", "negative-shape", "shape-not-list",
        "string-dtype", "float32-dtype", "name-not-string", "file-not-string",
        "manifest-of-strings", "manifest-object", "manifest-number", "meta-list"])
def test_corrupt_payload_rejected(tmp_path, name, transform):
    """Only the documented little-endian float64 payload, exactly
    prod(shape) * 8 bytes long, is read back, and only from a JSON-object
    meta.json and a manifest.json listing one object per tensor."""
    save_archive(tmp_path / "m.zip", {"format": "demo"}, [("x", np.arange(6.0).reshape(2, 3))])
    _rewrite(tmp_path / "m.zip", tmp_path / "bad.zip", name, transform)
    with pytest.raises(FormatError):
        load_archive(tmp_path / "bad.zip")
