"""Synthetic-scene generator properties."""

import numpy as np
import pytest

from hsiseg.errors import ParameterError
from hsiseg.synth import class_signatures, generate_cube, signature_separation


class TestSignatures:
    def test_shape_and_positivity(self):
        sigs = class_signatures(4, 30)
        assert sigs.shape == (4, 30)
        assert np.all(sigs > 0.0)

    def test_acceptance_scale_separation(self):
        """The default scene satisfies separation >= 10x the noise level."""
        sep = signature_separation(class_signatures(3, 40))
        assert sep / 0.05 >= 10.0


class TestGenerateCube:
    def test_every_class_present(self):
        cube = generate_cube(20, 16, 10, 4, seed=0)
        assert sorted(np.unique(cube.labels)) == [1, 2, 3, 4]

    def test_shapes(self):
        cube = generate_cube(9, 7, 12, 2, seed=1)
        assert cube.values.shape == (7, 9, 12)
        assert cube.labels.shape == (7, 9)

    def test_deterministic(self):
        a = generate_cube(12, 12, 8, 3, seed=5)
        b = generate_cube(12, 12, 8, 3, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_pixels_near_their_signature(self):
        noise = 0.02
        cube = generate_cube(16, 16, 20, 3, seed=2, noise=noise)
        sigs = class_signatures(3, 20)
        residual = cube.values - sigs[cube.labels - 1]
        assert np.abs(residual).max() < 6 * noise

    def test_stripes_are_balanced_rows(self):
        cube = generate_cube(10, 9, 8, 3, seed=3, layout="stripes")
        # each row is a single class, classes ordered top to bottom
        for row in cube.labels:
            assert len(np.unique(row)) == 1
        assert cube.labels[0, 0] == 1 and cube.labels[-1, 0] == 3

    def test_zero_noise_exact_signatures(self):
        cube = generate_cube(6, 6, 10, 2, seed=4, noise=0.0)
        sigs = class_signatures(2, 10)
        np.testing.assert_array_equal(cube.values, sigs[cube.labels - 1])

    def test_bad_layout(self):
        with pytest.raises(ParameterError):
            generate_cube(8, 8, 8, 2, layout="spiral")

    def test_negative_noise(self):
        with pytest.raises(ParameterError):
            generate_cube(8, 8, 8, 2, noise=-0.1)
