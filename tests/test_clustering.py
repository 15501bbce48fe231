"""k-means and Gaussian-mixture EM against synthetic-blob oracles."""

import warnings
from functools import lru_cache

import numpy as np
import pytest

from hsiseg.clustering import _RIDGE, _log_gaussians, gmm_em, kmeans
from hsiseg.cube import normalize
from hsiseg.errors import InsufficientDataError, NumericalError, ParameterError
from hsiseg.metrics import ars, contingency, pair_counts
from hsiseg.reduction import pca_reduce, smsi_reduce
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

    def test_tied_points_repair_keeps_centers_finite(self):
        """Two distinct values for four clusters: every repair takes a point
        from a cluster that keeps another, so no mean runs on an empty
        slice and the fit stops once the centers stand still."""
        points = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, labels = kmeans(points, 4, seed=0)
        assert np.isfinite(model.centers).all()
        assert model.iterations == 1
        assert model.inertia == 0.0
        np.testing.assert_array_equal(model.centers[labels], points)


def reference_kmeans(points, k, rng, tol=1e-6, max_iter=300):
    """k-means as first written: (n, k) distances from ``points @
    centers.T`` with the point norms recomputed in every call, a repair that
    moves the farthest point of any cluster, and masked means.  Returns
    (centers, labels, inertia, iterations), or None once a repair takes the
    last point of a cluster, where ``kmeans`` departs from it on purpose."""
    def sq_distances(centers):
        sq = ((points * points).sum(axis=1)[:, None]
              + (centers * centers).sum(axis=1)[None, :]
              - 2.0 * points @ centers.T)
        np.maximum(sq, 0.0, out=sq)
        return sq

    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = sq_distances(centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=closest / total)]
        np.minimum(closest, sq_distances(centers[j:j + 1]).ravel(), out=closest)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sq = sq_distances(centers)
        labels = sq.argmin(axis=1)
        closest = sq[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                runaway = int(np.argmax(closest))
                if np.count_nonzero(labels == labels[runaway]) == 1:
                    return None
                centers[j] = points[runaway]
                labels[runaway] = j
                closest[runaway] = 0.0
        new_centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    sq = sq_distances(centers)
    labels = sq.argmin(axis=1)
    inertia = float(sq[np.arange(n), labels].sum())
    return centers, labels, inertia, iterations


def assert_matches_reference(points, k, seed, **schedule):
    """kmeans equals reference_kmeans bit for bit, and both leave a
    generator passed as the seed in the same state."""
    rng_fit, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    model, labels = kmeans(points, k, seed=rng_fit, **schedule)
    centers, ref_labels, inertia, iterations = reference_kmeans(points, k, rng_ref, **schedule)
    assert np.array_equal(model.centers, centers)
    assert np.array_equal(labels, ref_labels)
    assert model.inertia == inertia
    assert model.iterations == iterations
    assert rng_fit.bit_generator.state == rng_ref.bit_generator.state


@lru_cache(maxsize=None)
def baseline_points(seed, reduction):
    """The benchmark's baselines points: a 64x64x103 9-class scene at noise
    0.5, reduced to 25 features."""
    cube = normalize(generate_cube(64, 64, 103, 9, seed=seed, noise=0.5))
    reduce = {"pca": pca_reduce, "smsi": smsi_reduce}[reduction]
    return reduce(cube, 25).pixel_matrix()


class TestKmeansReference:
    @pytest.mark.parametrize("schedule", [{"tol": -np.inf, "max_iter": 30}, {}],
                             ids=["30-iterations", "default-stop"])
    @pytest.mark.parametrize("reduction", ["pca", "smsi"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_baseline_points_bit_identical(self, seed, reduction, schedule):
        """The (k, n) Lloyd step, one norm pass per fit and the count-based
        repair change no bit of a fit on the benchmark's points, seeded with
        a generator as cae.init_centers seeds it."""
        assert_matches_reference(baseline_points(seed, reduction), 9, seed, **schedule)

    def test_small_inputs_bit_identical_unless_reference_empties(self):
        """Random small inputs, a third of them on a few repeated values and
        k from 1 up: wherever the reference's repair empties no cluster the
        fit is bit-identical to it, and elsewhere its centers stay finite."""
        rng = np.random.default_rng(2024)
        compared = 0
        for case in range(90):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            k = int(rng.integers(1, min(n, 8) + 1))
            if case % 3 == 0:
                points = rng.normal(size=(n, d))
            elif case % 3 == 1:
                points = rng.integers(0, 3, size=(n, d)).astype(float)
            else:
                rows = rng.normal(size=(int(rng.integers(1, n + 1)), d))
                points = rows[rng.integers(len(rows), size=n)]
            for schedule in ({}, {"tol": -np.inf, "max_iter": 7}):
                if reference_kmeans(points, k, np.random.default_rng(case), **schedule) is None:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        model, _ = kmeans(points, k, seed=case, **schedule)
                    assert np.isfinite(model.centers).all()
                else:
                    assert_matches_reference(points, k, case, **schedule)
                    compared += 1
        assert compared >= 150


def smoke_scene_points():
    """The benchmark's smoke baselines scene at seed 79, reduced by PCA to 5."""
    cube = normalize(generate_cube(12, 12, 30, 3, seed=79, noise=0.5))
    return pca_reduce(cube, 5).pixel_matrix()


def em_objective(points, model):
    """The objective and argmax labels of ``model``'s E-step, in gmm_em's
    arithmetic, so that a model and trace that agree match bit for bit."""
    log_prob, inv_trace = _log_gaussians(points, model.means, model.covariances)
    log_prob += np.log(np.maximum(model.weights, 1e-300))
    top = log_prob.max(axis=1, keepdims=True)
    norm = top + np.log(np.exp(log_prob - top).sum(axis=1, keepdims=True))
    objective = float(norm.sum() - 0.5 * _RIDGE * len(points) * inv_trace)
    return objective, log_prob.argmax(axis=1)


def assert_valid_mixture(model):
    assert np.isfinite(model.log_likelihood_trace).all()
    for cov in model.covariances:
        assert np.linalg.eigvalsh(cov).min() > 0
    assert model.weights.min() >= 0.0
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)


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
        log_prob, _ = _log_gaussians(points, model.means, model.covariances)
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
        points = smoke_scene_points()
        model, _ = gmm_em(points, 3, seed=79, tol=-np.inf, max_iter=5)
        trace = np.array(model.log_likelihood_trace)
        assert len(trace) == 5
        drops = -np.diff(trace) / np.maximum(1.0, np.abs(trace[1:]))
        assert drops.max() <= 1e-9

    @pytest.mark.parametrize("schedule", [{"tol": -np.inf, "max_iter": 1}, {}],
                             ids=["at-cap", "converged"])
    def test_returned_model_is_the_one_trace_and_labels_describe(self, schedule):
        """Stopped at the cap or converged, the returned parameters are those
        of the last E-step: their objective is the trace's last value and
        their argmax responsibilities are the labels.  Returning the
        parameters of one more M-step would move this scene's objective by
        6e-6 after one iteration."""
        points = smoke_scene_points()
        model, labels = gmm_em(points, 3, seed=79, **schedule)
        if schedule:
            assert len(model.log_likelihood_trace) == 1
        objective, argmax = em_objective(points, model)
        assert objective == model.log_likelihood_trace[-1]
        np.testing.assert_array_equal(argmax, labels)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kmeans_singleton_component(self, k):
        """An outlier that k-means leaves alone in its cluster: the first
        M-step's covariance for it is the prior's alone, with no warning."""
        rng = np.random.default_rng(3)
        points = np.concatenate([rng.normal(size=(50, 2)), [[40.0, 40.0]]])
        _, hard = kmeans(points, k, seed=0)
        assert np.count_nonzero(hard == hard[-1]) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = gmm_em(points, k, seed=0)
        assert_valid_mixture(model)

    def test_empty_kmeans_cluster(self):
        """Two distinct values for four components: k-means leaves two
        clusters empty, and EM keeps them as finite components of
        negligible weight, with no warning."""
        points = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
        _, hard = kmeans(points, 4, seed=0)
        assert np.count_nonzero(np.bincount(hard, minlength=4)) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = gmm_em(points, 4, seed=0)
        assert_valid_mixture(model)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, max_iter):
        with pytest.raises(ParameterError, match="max_iter"):
            gmm_em(np.random.default_rng(16).normal(size=(20, 2)), 2, max_iter=max_iter)

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

    def test_covariances_exactly_symmetric_on_baseline_scene(self):
        """The benchmark's full-size S-MSI scene: each scatter is one
        symmetric rank-k update, so every fitted covariance equals its
        transpose bit for bit."""
        cube = normalize(generate_cube(64, 64, 103, 9, seed=1, noise=0.5))
        points = smsi_reduce(cube, 25).pixel_matrix()
        model, _ = gmm_em(points, 9, seed=1)
        for cov in model.covariances:
            assert np.array_equal(cov, cov.T)

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


def random_spd(rng, d):
    """A covariance whose eigenvalues span 1e-6 (the prior's floor) to 1."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = (q * rng.permutation(np.geomspace(1e-6, 1.0, d))) @ q.T
    return 0.5 * (cov + cov.T)


class TestLogGaussians:
    @pytest.mark.parametrize("d, k", [(2, 1), (3, 9), (7, 4), (16, 2), (25, 9)])
    def test_matches_slogdet_and_solve(self, d, k):
        """Log densities and the trace's prior penalty against the direct
        formulas, for covariances with condition number 1e6.  A log density
        sums terms of either sign and can cancel to near zero, so its error
        is measured against the terms' magnitude.  tr(Sigma^-1) is dominated
        by 1/lambda_min, which a float64 factor resolves only to about
        eps * cond(Sigma) relative: 2.2e-10 here, whichever formula runs."""
        rng = np.random.default_rng(100 * d + k)
        n = 300
        covariances = np.stack([random_spd(rng, d) for _ in range(k)])
        means = rng.normal(size=(k, d))
        points = np.concatenate([rng.normal(size=(n // 2, d)),
                                 means[rng.integers(k, size=n - n // 2)]
                                 + 1e-3 * rng.normal(size=(n - n // 2, d))])
        log_prob, inv_trace = _log_gaussians(points, means, covariances)

        for j in range(k):
            sign, logdet = np.linalg.slogdet(covariances[j])
            assert sign > 0
            diff = points - means[j]
            maha = (diff * np.linalg.solve(covariances[j], diff.T).T).sum(axis=1)
            terms = (d * np.log(2.0 * np.pi), logdet, maha)
            expected = -0.5 * sum(terms)
            magnitude = 0.5 * sum(np.abs(t) for t in terms)
            assert np.all(np.abs(log_prob[:, j] - expected) <= 1e-10 * magnitude)

        penalty = 0.5 * _RIDGE * n * inv_trace
        direct = 0.5 * _RIDGE * n * sum(np.trace(np.linalg.inv(c)) for c in covariances)
        cond = max(np.linalg.cond(c) for c in covariances)
        assert penalty == pytest.approx(direct, rel=np.finfo(float).eps * cond, abs=0.0)

    def test_indefinite_covariance_names_its_component(self):
        """A negative eigenvalue in component 2 of 3 fails its Cholesky
        factor and surfaces as a numerical error naming that component."""
        rng = np.random.default_rng(14)
        covariances = np.stack([random_spd(rng, 4) for _ in range(3)])
        covariances[2] -= 0.5 * np.eye(4)
        assert np.linalg.eigvalsh(covariances[2]).min() < 0
        with pytest.raises(NumericalError, match="component 2 "):
            _log_gaussians(rng.normal(size=(10, 4)), np.zeros((3, 4)), covariances)


class TestInputChecks:
    @pytest.mark.parametrize("fit", [kmeans, gmm_em])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_clusterers_reject_non_finite_points(self, fit, bad):
        points = np.random.default_rng(15).normal(size=(40, 3))
        points[17, 1] = bad
        with pytest.raises(ParameterError, match="points"):
            fit(points, 3, seed=0)

    @pytest.mark.parametrize("fit", [kmeans, gmm_em])
    def test_clusterers_reject_zero_width_points(self, fit):
        with pytest.raises(ParameterError, match="points"):
            fit(np.empty((10, 0)), 2, seed=0)
