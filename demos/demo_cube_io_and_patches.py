"""Walkthrough: synthetic scenes, the cube file format, and patch extraction.

Generates a small labeled scene, round-trips it through the .hsic/.gt
format, normalizes it band-wise, and extracts the 5x5xB patches that feed
the autoencoder, demonstrating the mirror-reflection border policy.
"""

import tempfile
from pathlib import Path

import numpy as np

from hsiseg import (extract_patches, generate_cube, load_cube, load_labels,
                    normalize, write_cube, write_labels)

workdir = Path(tempfile.mkdtemp(prefix="hsiseg_demo_"))
print(f"writing artifacts to {workdir}\n")

# a 24x24 scene, 16 bands, 3 spectral classes in coherent regions
cube = generate_cube(width=24, height=24, bands=16, classes=3, seed=42, noise=0.04)
print(f"scene: {cube.width}x{cube.height}, {cube.bands} bands")
print(f"class pixel counts: {np.bincount(cube.labels.ravel())[1:]}")

# round-trip through the on-disk format (JSON header + raw BSQ payload)
write_cube(cube, workdir / "scene.hsic")
write_labels(cube.labels, workdir / "scene.gt")
reloaded = load_cube(workdir / "scene.hsic")
reloaded.labels = load_labels(workdir / "scene.gt")
print(f"round-trip max error: {np.abs(reloaded.values - cube.values).max():.2e} "
      "(float32 payload quantization)")

# per-band min-max normalization
scaled = normalize(reloaded)
print(f"after normalize: per-band min {scaled.values.min(axis=(0, 1)).max():.1f}, "
      f"per-band max {scaled.values.max(axis=(0, 1)).min():.1f}")

# one patch per pixel, centered, borders mirror-reflected
batch = extract_patches(scaled, spatial=5)
print(f"\npatches: {batch.patches.shape} (one per pixel, in row-major order)")

# the corner patch reads mirrored rows: offsets (-2,-1,0,1,2) -> rows (2,1,0,1,2)
corner = batch.patches[0]
assert np.array_equal(corner[0, 0], scaled.values[2, 2])
assert np.array_equal(corner[2, 2], scaled.values[0, 0])
print("corner patch equals its mirror-reflected window, as promised")

# interior patches are plain slices
idx = 10 * scaled.width + 10
assert np.array_equal(batch.patches[idx], scaled.values[8:13, 8:13, :])
print("interior patch equals the direct 5x5 slice")
