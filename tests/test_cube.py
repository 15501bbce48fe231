"""Cube I/O, normalization, and patch extraction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiseg.cube import (HsiCube, SegmentationMap, extract_patches, load_cube,
                         load_labels, normalize, patch_windows, write_cube,
                         write_labels, write_ppm)
from hsiseg.errors import (FormatError, ParameterError, ShapeError,
                           SizeMismatchError)


def random_cube(rng, height=6, width=7, bands=4, labeled=False):
    values = rng.uniform(0.0, 2.0, size=(height, width, bands))
    labels = rng.integers(0, 3, size=(height, width)) if labeled else None
    return HsiCube(values=values, labels=labels)


class TestCubeType:
    def test_rejects_non_finite(self):
        values = np.ones((2, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            HsiCube(values=values)

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ShapeError):
            HsiCube(values=np.ones((2, 3, 2)), labels=np.zeros((3, 2)))

    def test_pixel_matrix_row_major(self):
        values = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        mat = HsiCube(values=values).pixel_matrix()
        np.testing.assert_array_equal(mat[1], values[0, 1])
        np.testing.assert_array_equal(mat[3], values[1, 0])


class TestCubeIO:
    def test_header_size_arithmetic(self, tmp_path):
        """A 2x2x3 header with a 48-byte payload decodes to 12 values."""
        header = {"width": 2, "height": 2, "bands": 3, "dtype": "f32",
                  "interleave": "bsq", "data": "tiny.raw", "wavelengths": [400, 650.5, 900]}
        (tmp_path / "tiny.hsic").write_text(json.dumps(header))
        payload = np.arange(12, dtype="<f4").tobytes()
        assert len(payload) == 48
        (tmp_path / "tiny.raw").write_bytes(payload)
        cube = load_cube(tmp_path / "tiny.hsic")
        assert cube.values.size == 12
        assert (cube.width, cube.height, cube.bands) == (2, 2, 3)
        np.testing.assert_array_equal(cube.wavelengths, [400.0, 650.5, 900.0])  # ints too
        # band-sequential: first 4 payload floats are band 0, row-major
        np.testing.assert_array_equal(cube.values[:, :, 0], [[0, 1], [2, 3]])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        # float32 grid so the f32 payload is lossless
        values = rng.uniform(size=(5, 4, 6)).astype(np.float32).astype(np.float64)
        cube = HsiCube(values=values, wavelengths=np.linspace(400, 900, 6))
        write_cube(cube, tmp_path / "scene.hsic")
        back = load_cube(tmp_path / "scene.hsic")
        np.testing.assert_array_equal(back.values, cube.values)
        np.testing.assert_array_equal(back.wavelengths, cube.wavelengths)

    def test_truncated_payload(self, tmp_path):
        cube = HsiCube(values=np.ones((3, 3, 2)))
        write_cube(cube, tmp_path / "scene.hsic")
        payload = tmp_path / "scene.hsic.raw"
        payload.write_bytes(payload.read_bytes()[:-4])
        with pytest.raises(SizeMismatchError):
            load_cube(tmp_path / "scene.hsic")

    def test_missing_header(self, tmp_path):
        with pytest.raises(FormatError):
            load_cube(tmp_path / "nope.hsic")

    def test_garbled_header(self, tmp_path):
        (tmp_path / "bad.hsic").write_text("{not json")
        with pytest.raises(FormatError):
            load_cube(tmp_path / "bad.hsic")

    @pytest.mark.parametrize("override", [
        {"bands": 8.5}, {"bands": 3.0}, {"width": [6]}, {"width": "abc"},
        {"height": True}, {"height": None}, {"data": 5}, {"data": ["tiny.raw"]},
        {"wavelengths": [500.0]}, {"wavelengths": "400-900"}, {"wavelengths": None},
        {"wavelengths": [400, "500", 600]}, {"wavelengths": [400, 500, True]},
    ])
    def test_mistyped_header_value(self, tmp_path, override):
        """Extents are JSON ints, data a string, wavelengths one number per band."""
        header = {"width": 2, "height": 2, "bands": 3, "data": "tiny.raw", **override}
        (tmp_path / "tiny.hsic").write_text(json.dumps(header))
        (tmp_path / "tiny.raw").write_bytes(np.zeros(12, dtype="<f4").tobytes())
        with pytest.raises(FormatError):
            load_cube(tmp_path / "tiny.hsic")

    @pytest.mark.parametrize("override", [
        {"width": 2.0}, {"height": "2"}, {"width": False}, {"data": 5},
    ])
    def test_mistyped_label_header_value(self, tmp_path, override):
        write_labels(np.ones((2, 2), dtype=int), tmp_path / "truth.gt")
        header = {**json.loads((tmp_path / "truth.gt").read_text()), **override}
        (tmp_path / "truth.gt").write_text(json.dumps(header))
        with pytest.raises(FormatError):
            load_labels(tmp_path / "truth.gt")

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([[0, 1, 2], [3, 0, 1]], dtype=np.int64)
        write_labels(labels, tmp_path / "truth.gt")
        header = json.loads((tmp_path / "truth.gt").read_text())
        assert header["classes"] == 3
        np.testing.assert_array_equal(load_labels(tmp_path / "truth.gt"), labels)

    def test_ppm_is_deterministic(self, tmp_path):
        segmap = SegmentationMap(labels=np.array([[0, 1], [2, 35]]))
        write_ppm(segmap, tmp_path / "a.ppm")
        write_ppm(segmap, tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
        assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6\n2 2\n255\n")


class TestNormalize:
    def test_two_point_band(self):
        values = np.array([2.0, 4.0]).reshape(2, 1, 1)
        out = normalize(HsiCube(values=values))
        np.testing.assert_array_equal(out.values.ravel(), [0.0, 1.0])

    def test_constant_band_maps_to_zero(self):
        values = np.full((3, 1, 1), 7.0)
        out = normalize(HsiCube(values=values))
        np.testing.assert_array_equal(out.values, np.zeros_like(values))

    def test_already_unit_range_unchanged(self):
        values = np.array([0.0, 0.25, 1.0]).reshape(3, 1, 1)
        out = normalize(HsiCube(values=values))
        np.testing.assert_array_equal(out.values, values)

    def test_bands_scaled_independently(self):
        rng = np.random.default_rng(1)
        cube = random_cube(rng)
        out = normalize(cube)
        assert out.values.min(axis=(0, 1)).max() == 0.0
        assert out.values.max(axis=(0, 1)).min() == 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        cube = random_cube(np.random.default_rng(seed))
        once = normalize(cube)
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-15)


class TestExtractPatches:
    def test_one_patch_per_pixel(self):
        cube = random_cube(np.random.default_rng(2), height=5, width=5)
        batch = extract_patches(cube)
        assert len(batch.patches) == 25

    def test_interior_pixel_equals_direct_slice(self):
        cube = random_cube(np.random.default_rng(3), height=9, width=9)
        batch = extract_patches(cube)
        idx = 4 * 9 + 4  # row-major position of pixel (4, 4)
        np.testing.assert_array_equal(batch.patches[idx], cube.values[2:7, 2:7, :])
        np.testing.assert_array_equal(batch.patches[idx], patch_windows(cube, 5)[4, 4])

    def test_corner_mirror_reflection(self):
        """At (0,0) the offsets (-2,-1,0,1,2) must read rows (2,1,0,1,2)."""
        cube = random_cube(np.random.default_rng(4), height=6, width=6)
        batch = extract_patches(cube)
        corner = batch.patches[0]
        rows = [2, 1, 0, 1, 2]
        for patch_row, src_row in enumerate(rows):
            for patch_col, src_col in enumerate(rows):
                np.testing.assert_array_equal(corner[patch_row, patch_col],
                                              cube.values[src_row, src_col])

    def test_background_excluded(self):
        rng = np.random.default_rng(5)
        cube = random_cube(rng, labeled=True)
        batch = extract_patches(cube)
        ys, xs = np.nonzero(cube.labels > 0)  # the labelled pixels, row-major
        assert len(ys) < cube.height * cube.width
        np.testing.assert_array_equal(batch.patches, patch_windows(cube, 5)[ys, xs])

    def test_even_spatial_rejected(self):
        cube = random_cube(np.random.default_rng(7))
        with pytest.raises(ParameterError):
            extract_patches(cube, spatial=4)

    def test_oversized_spatial_rejected(self):
        cube = random_cube(np.random.default_rng(8), height=3, width=3)
        with pytest.raises(ParameterError):
            extract_patches(cube, spatial=5)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 3, 5]))
    @settings(max_examples=20, deadline=None)
    def test_patch_count_invariant(self, seed, spatial):
        rng = np.random.default_rng(seed)
        cube = random_cube(rng, height=7, width=6, labeled=True)
        batch = extract_patches(cube, spatial=spatial)
        assert len(batch.patches) == int((cube.labels > 0).sum())
        assert batch.patches.shape[1:] == (spatial, spatial, cube.bands)
