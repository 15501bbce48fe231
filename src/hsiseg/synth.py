"""Synthetic hyperspectral scenes for testing and desk-scale experiments.

Each class gets a Gaussian-bump reflectance signature centered at its own
spectral position; the scene is partitioned into spatially coherent regions
(Voronoi cells of random seed points, or horizontal stripes) and every pixel
receives its class signature plus white noise.  Class separation can be
queried so tests can assert a separation-to-noise ratio.
"""

from __future__ import annotations

import numpy as np

from .cube import HsiCube
from .errors import ParameterError


def class_signatures(classes: int, bands: int, peak: float = 1.0) -> np.ndarray:
    """Gaussian-bump spectra over a 0.1 baseline, one per class, with evenly spaced centers."""
    if classes < 1 or bands < 1:
        raise ParameterError("classes and bands must be positive")
    band_axis = np.arange(bands)
    centers = (np.arange(classes) + 0.5) * bands / classes
    width = max(bands / (3.0 * classes), 1.0)
    bumps = np.exp(-0.5 * ((band_axis[None, :] - centers[:, None]) / width) ** 2)
    return 0.1 + peak * bumps


def signature_separation(signatures: np.ndarray) -> float:
    """Smallest pairwise Euclidean distance between class signatures."""
    k = len(signatures)
    if k < 2:
        raise ParameterError("separation needs at least two signatures")
    best = np.inf
    for i in range(k):
        for j in range(i + 1, k):
            best = min(best, float(np.linalg.norm(signatures[i] - signatures[j])))
    return best


def _voronoi_labels(height: int, width: int, classes: int,
                    rng: np.random.Generator) -> np.ndarray:
    for _ in range(32):
        seeds = np.stack([rng.uniform(0, height, classes),
                          rng.uniform(0, width, classes)], axis=1)
        ys, xs = np.mgrid[0:height, 0:width]
        d2 = ((ys[..., None] - seeds[:, 0]) ** 2
              + (xs[..., None] - seeds[:, 1]) ** 2)
        labels = d2.argmin(axis=2) + 1
        if len(np.unique(labels)) == classes:
            return labels
    raise ParameterError("could not draw a partition with every class present")


def _stripe_labels(height: int, width: int, classes: int) -> np.ndarray:
    rows = np.arange(height) * classes // height
    return np.broadcast_to(rows[:, None] + 1, (height, width)).copy()


def generate_cube(width: int, height: int, bands: int, classes: int,
                  seed: int = 0, noise: float = 0.05, layout: str = "voronoi") -> HsiCube:
    """A labeled synthetic scene with spatially coherent class regions.

    ``noise`` is the per-element white-noise standard deviation; signatures
    are Gaussian bumps of height 1 (see :func:`class_signatures`).  No pixel is
    background: labels run 1..classes.
    """
    if layout not in ("voronoi", "stripes"):
        raise ParameterError(f"unknown layout {layout!r}")
    if noise < 0:
        raise ParameterError("noise level cannot be negative")
    rng = np.random.default_rng(seed)
    signatures = class_signatures(classes, bands)
    if layout == "voronoi":
        labels = _voronoi_labels(height, width, classes, rng)
    else:
        labels = _stripe_labels(height, width, classes)
    values = signatures[labels - 1] + rng.normal(0.0, noise, size=(height, width, bands))
    return HsiCube(values=values, labels=labels)
