"""k-means and Gaussian-mixture EM against synthetic-blob oracles."""

import numpy as np
import pytest

from hsiseg.clustering import _RIDGE, gmm_em, kmeans
from hsiseg.cube import normalize
from hsiseg.errors import InsufficientDataError
from hsiseg.metrics import ars, contingency, pair_counts
from hsiseg.reduction import pca_reduce
from hsiseg.synth import generate_cube


def two_blobs(rng, n_per=150, dim=3, distance=10.0, sigma=1.0):
    a = rng.normal(0.0, sigma, size=(n_per, dim))
    b = rng.normal(0.0, sigma, size=(n_per, dim)) + distance / np.sqrt(dim)
    points = np.concatenate([a, b])
    truth = np.repeat([0, 1], n_per)
    return points, truth


class TestKmeans:
    def test_n_equals_k_zero_inertia(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        model, labels = kmeans(points, 3, seed=0)
        assert model.inertia == 0.0
        assert sorted(labels.tolist()) == [0, 1, 2]
        recovered = {tuple(c) for c in model.centers}
        assert recovered == {tuple(p) for p in points}

    def test_k_one_returns_mean(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(40, 3))
        model, labels = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(model.centers[0], points.mean(axis=0), atol=1e-12)
        assert np.all(labels == 0)

    def test_separated_blobs_recovered(self):
        """Two blobs 10 sigma apart: label agreement >= 99%."""
        rng = np.random.default_rng(1)
        points, truth = two_blobs(rng)
        _, labels = kmeans(points, 2, seed=2)
        agree = max((labels == truth).mean(), (labels != truth).mean())
        assert agree >= 0.99

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(100, 4))
        model_a, labels_a = kmeans(points, 5, seed=7)
        model_b, labels_b = kmeans(points, 5, seed=7)
        np.testing.assert_array_equal(model_a.centers, model_b.centers)
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_no_empty_cluster(self):
        rng = np.random.default_rng(3)
        points = np.concatenate([rng.normal(size=(50, 2)),
                                 rng.normal(size=(1, 2)) + 100.0])
        for seed in range(5):
            _, labels = kmeans(points, 4, seed=seed)
            assert len(np.unique(labels)) == 4

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            kmeans(np.zeros((2, 3)), 5)

    def test_lloyd_fixed_point(self):
        """On convergence every point must sit with its nearest center."""
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 3))
        model, labels = kmeans(points, 4, seed=0)
        dists = ((points[:, None, :] - model.centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, dists.argmin(axis=1))

    def test_inertia_not_worse_than_random_assignment(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(120, 2))
        model, _ = kmeans(points, 3, seed=1)
        centered = points - points.mean(axis=0)
        assert model.inertia <= (centered ** 2).sum()

    def test_inertia_non_increasing_across_iterations(self):
        """Lloyd iterations never increase the objective: truncating the same
        seeded run after m iterations gives a non-increasing inertia in m."""
        rng = np.random.default_rng(13)
        points = rng.normal(size=(150, 3))
        inertias = [kmeans(points, 4, seed=9, tol=0.0, max_iter=m)[0].inertia
                    for m in range(1, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


class TestGmm:
    def test_k_one_closed_form(self):
        """Single component: mean = sample mean, covariance = MLE + ridge."""
        rng = np.random.default_rng(6)
        points = rng.normal(size=(60, 2))
        model, labels = gmm_em(points, 1, seed=0)
        np.testing.assert_allclose(model.means[0], points.mean(axis=0), atol=1e-10)
        expected = np.cov(points.T, bias=True) + _RIDGE * np.eye(2)
        np.testing.assert_allclose(model.covariances[0], expected, atol=1e-8)
        assert np.all(labels == 0)
        np.testing.assert_allclose(model.weights, [1.0])

    def test_responsibilities_normalized(self):
        rng = np.random.default_rng(7)
        points, _ = two_blobs(rng, n_per=60)
        model, _ = gmm_em(points, 2, seed=0)
        # re-derive responsibilities from the fitted model
        from hsiseg.clustering import _log_gaussians
        log_prob = _log_gaussians(points, model.means, model.covariances)
        log_prob += np.log(model.weights)
        top = log_prob.max(axis=1, keepdims=True)
        resp = np.exp(log_prob - top)
        resp /= resp.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_anisotropic_mixture_recovered(self):
        """Well-separated anisotropic blobs: means within 0.1, ARS >= 0.95."""
        rng = np.random.default_rng(8)
        n = 400
        a = rng.normal(size=(n, 2)) * np.array([0.05, 0.3])
        b = rng.normal(size=(n, 2)) * np.array([0.4, 0.05]) + np.array([6.0, 0.0])
        points = np.concatenate([a, b])
        truth = np.repeat([0, 1], n)
        model, labels = gmm_em(points, 2, seed=3)
        means = model.means[np.argsort(model.means[:, 0])]
        np.testing.assert_allclose(means[0], [0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(means[1], [6.0, 0.0], atol=0.1)
        score = ars(pair_counts(contingency(labels, truth)))
        assert score >= 0.95

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(9)
        points, _ = two_blobs(rng, n_per=100, distance=4.0)
        model, _ = gmm_em(points, 3, seed=1)
        trace = np.array(model.log_likelihood_trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-8)

    def test_objective_monotone_on_noisy_scene(self):
        """The benchmark's smoke baselines scene at seed 79: a ridge added
        after the weighted scatter made this trace fall by 1.7e-9 of its
        value; the prior's M-step maximizes the objective the trace holds."""
        cube = normalize(generate_cube(12, 12, 30, 3, seed=79, noise=0.5))
        points = pca_reduce(cube, 5).pixel_matrix()
        model, _ = gmm_em(points, 3, seed=79, tol=-np.inf, max_iter=5)
        trace = np.array(model.log_likelihood_trace)
        assert len(trace) == 5
        drops = -np.diff(trace) / np.maximum(1.0, np.abs(trace[1:]))
        assert drops.max() <= 1e-9

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(90, 3))
        model, _ = gmm_em(points, 3, seed=0)
        assert model.weights.min() >= 0.0
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_covariances_positive_definite(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(80, 4))
        model, _ = gmm_em(points, 2, seed=0)
        for cov in model.covariances:
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() > 0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(70, 2))
        model_a, labels_a = gmm_em(points, 2, seed=5)
        model_b, labels_b = gmm_em(points, 2, seed=5)
        np.testing.assert_array_equal(model_a.means, model_b.means)
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            gmm_em(np.zeros((1, 2)), 2)
