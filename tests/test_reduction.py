"""PCA and band-window (S-MSI) reduction properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiseg.cube import HsiCube
from hsiseg.errors import InsufficientDataError, ParameterError, ShapeError
from hsiseg.reduction import (pca_fit, pca_reduce, pca_transform, smsi_reduce,
                              smsi_windows)


class TestPcaFit:
    def test_rank_one_data(self):
        """Points on a line: first component parallel to it, rest negligible."""
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        pixels = rng.normal(size=(200, 1)) * direction + np.array([1.0, 2.0, 3.0])
        model = pca_fit(pixels, dims=2)
        alignment = abs(float(model.components[0] @ direction))
        assert alignment == pytest.approx(1.0, abs=1e-10)
        assert model.explained_variance[1] <= 1e-12 * model.explained_variance[0]

    def test_isotropic_gaussian_variances(self):
        """Unit-variance isotropic sample: every variance within 10% of 1."""
        rng = np.random.default_rng(1)
        pixels = rng.normal(size=(10_000, 6))
        model = pca_fit(pixels, dims=6)
        np.testing.assert_allclose(model.explained_variance, 1.0, rtol=0.1)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(2)
        pixels = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8))
        model = pca_fit(pixels, dims=5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(3)
        pixels = rng.normal(size=(500, 7)) * np.arange(1, 8)
        model = pca_fit(pixels, dims=7)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_reconstruction_error_equals_discarded_variance(self):
        """||X - X_hat||^2 == N * sum(discarded eigenvalues)."""
        rng = np.random.default_rng(4)
        n, bands, keep = 400, 10, 4
        pixels = rng.normal(size=(n, bands)) @ rng.normal(size=(bands, bands))
        model = pca_fit(pixels, dims=keep)
        full = pca_fit(pixels, dims=bands)
        centered = pixels - model.mean
        recon = (centered @ model.components.T) @ model.components
        residual = float(((centered - recon) ** 2).sum())
        discarded = float(full.explained_variance[keep:].sum())
        assert residual == pytest.approx(n * discarded, rel=1e-9)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            pca_fit(np.zeros((5, 10)), dims=5)

    def test_too_many_dims(self):
        with pytest.raises(ParameterError):
            pca_fit(np.zeros((100, 4)), dims=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        """Caught before the eigensolver, which would fail to converge."""
        pixels = np.random.default_rng(6).normal(size=(50, 8))
        pixels[3, 4] = bad
        with pytest.raises(ParameterError, match="pixels"):
            pca_fit(pixels, dims=3)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        pixels = rng.normal(size=(200, 6))
        a = pca_fit(pixels, dims=3)
        b = pca_fit(pixels.copy(), dims=3)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(6)
        pixels = rng.normal(size=(150, 5))
        model = pca_fit(pixels, dims=3)
        out = pca_transform(model, model.mean[None, :])
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_fit_data_has_zero_mean_features(self):
        rng = np.random.default_rng(7)
        pixels = rng.normal(size=(300, 6)) + 5.0
        model = pca_fit(pixels, dims=4)
        features = pca_transform(model, pixels)
        np.testing.assert_allclose(features.mean(axis=0), 0.0, atol=1e-10)

    def test_feature_covariance_diagonal(self):
        """Feature covariance must be diag(explained_variance)."""
        rng = np.random.default_rng(8)
        pixels = rng.normal(size=(500, 7)) @ rng.normal(size=(7, 7))
        model = pca_fit(pixels, dims=4)
        features = pca_transform(model, pixels)
        cov = features.T @ features / len(features)
        np.testing.assert_allclose(cov, np.diag(model.explained_variance[:4]), atol=1e-6)

    def test_translation_invariant_fit(self):
        """Adding a constant to all pixels does not change the features."""
        rng = np.random.default_rng(9)
        pixels = rng.normal(size=(200, 5))
        shifted = pixels + np.full(5, 11.0)
        base = pca_transform(pca_fit(pixels, 3), pixels)
        moved = pca_transform(pca_fit(shifted, 3), shifted)
        np.testing.assert_allclose(base, moved, atol=1e-8)

    def test_band_mismatch(self):
        model = pca_fit(np.random.default_rng(10).normal(size=(50, 5)), dims=2)
        with pytest.raises(ShapeError):
            pca_transform(model, np.zeros((3, 4)))

    def test_pca_reduce_cube_shape(self):
        rng = np.random.default_rng(11)
        cube = HsiCube(values=rng.normal(size=(8, 9, 12)))
        reduced = pca_reduce(cube, dims=3)
        assert reduced.values.shape == (8, 9, 3)


class TestSmsi:
    def test_even_division(self):
        assert smsi_windows(100, 25) == [(i * 4, (i + 1) * 4) for i in range(25)]

    def test_leftover_absorbed_by_last_window(self):
        bounds = smsi_windows(103, 25)
        widths = [hi - lo for lo, hi in bounds]
        assert widths[:24] == [4] * 24
        assert widths[24] == 7

    @pytest.mark.parametrize("bands,width,last", [(103, 4, 7), (200, 8, 8), (224, 8, 32)])
    def test_paper_band_counts(self, bands, width, last):
        bounds = smsi_windows(bands, 25)
        assert len(bounds) == 25
        widths = [hi - lo for lo, hi in bounds]
        assert widths[:24] == [width] * 24
        assert widths[24] == last
        assert bounds[-1][1] == bands

    def test_constant_spectrum_preserved(self):
        cube = HsiCube(values=np.full((3, 4, 30), 2.5))
        out = smsi_reduce(cube, target_bands=7)
        assert out.bands == 7
        np.testing.assert_allclose(out.values, 2.5)

    def test_window_means(self):
        values = np.arange(8, dtype=float).reshape(1, 1, 8)
        out = smsi_reduce(HsiCube(values=values), target_bands=3)
        # windows [0,2), [2,4), [4,8) -> means 0.5, 2.5, 5.5
        np.testing.assert_allclose(out.values.ravel(), [0.5, 2.5, 5.5])

    def test_too_few_bands(self):
        with pytest.raises(ParameterError):
            smsi_reduce(HsiCube(values=np.zeros((2, 2, 10))), target_bands=25)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_scaling(self, seed, factor):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=(3, 3, 17))
        base = smsi_reduce(HsiCube(values=values), target_bands=5).values
        scaled = smsi_reduce(HsiCube(values=factor * values), target_bands=5).values
        np.testing.assert_allclose(scaled, factor * base, rtol=1e-12)

    @given(st.integers(25, 230))
    @settings(max_examples=40, deadline=None)
    def test_output_band_count_exact(self, bands):
        bounds = smsi_windows(bands, 25)
        assert len(bounds) == 25
        assert bounds[0][0] == 0 and bounds[-1][1] == bands
        # windows tile the axis with no overlap
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
