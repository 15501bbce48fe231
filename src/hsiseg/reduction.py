"""Dimensionality reductions applied before clustering.

Two reducers are provided, both targeting the embedding width used by the
autoencoder (25 features by default): principal component analysis over the
pixel spectra, and simulated multispectral imagery (band averaging within
non-overlapping spectral windows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .errors import InsufficientDataError, ParameterError, ShapeError


@dataclass
class PcaModel:
    mean: np.ndarray                 # (bands,)
    components: np.ndarray           # (dims, bands) orthonormal rows
    explained_variance: np.ndarray   # (dims,) non-increasing


def pca_fit(pixels, dims: int = 25) -> PcaModel:
    """Top principal components of the pixel spectra.

    Eigendecomposition of the (population) covariance matrix; components are
    ordered by decreasing eigenvalue and sign-fixed so each one's
    largest-magnitude coordinate is positive, making fits reproducible.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2:
        raise ParameterError(f"pixels must form an (n, bands) matrix, got {pixels.shape}")
    if not np.isfinite(pixels).all():
        raise ParameterError("pixels hold a NaN or infinite value")
    n, bands = pixels.shape
    if dims < 1 or dims > bands:
        raise ParameterError(f"cannot extract {dims} components from {bands} bands")
    if n <= dims:
        raise InsufficientDataError(f"need more than {dims} samples, got {n}")

    mean = pixels.mean(axis=0)
    centered = pixels - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:dims]
    components = eigvecs[:, order].T
    variances = np.maximum(eigvals[order], 0.0)
    # eigenvectors are sign-ambiguous; pin each one deterministically
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance=variances)


def pca_transform(model: PcaModel, pixels) -> np.ndarray:
    """Project spectra onto the fitted components: (pixels - mean) @ components.T."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != model.mean.shape[0]:
        raise ShapeError(
            f"pixels have {pixels.shape[-1] if pixels.ndim == 2 else '?'} bands, "
            f"model expects {model.mean.shape[0]}")
    return (pixels - model.mean) @ model.components.T


def pca_reduce(cube: HsiCube, dims: int = 25) -> HsiCube:
    """Fit PCA on a cube's pixels and return the projected cube."""
    features = pca_transform(pca_fit(cube.pixel_matrix(), dims), cube.pixel_matrix())
    values = features.reshape(cube.height, cube.width, dims)
    return HsiCube(values=values, labels=cube.labels)


def smsi_windows(bands: int, target_bands: int) -> list[tuple[int, int]]:
    """Non-overlapping index windows covering all bands.

    The first target_bands - 1 windows have width floor(bands/target_bands);
    the last absorbs the leftover bands, so the output band count is exact.
    """
    if target_bands < 1 or bands < target_bands:
        raise ParameterError(f"cannot average {bands} bands down to {target_bands}")
    width = bands // target_bands
    bounds = [(i * width, (i + 1) * width) for i in range(target_bands - 1)]
    bounds.append(((target_bands - 1) * width, bands))
    return bounds


def smsi_reduce(cube: HsiCube, target_bands: int = 25) -> HsiCube:
    """Simulate multispectral imagery: average bands within each window."""
    bounds = smsi_windows(cube.bands, target_bands)
    values = np.stack(
        [cube.values[:, :, lo:hi].mean(axis=2) for lo, hi in bounds], axis=2)
    wavelengths = None
    if cube.wavelengths is not None:
        wavelengths = np.array([cube.wavelengths[lo:hi].mean() for lo, hi in bounds])
    return HsiCube(values=values, labels=cube.labels, wavelengths=wavelengths)
