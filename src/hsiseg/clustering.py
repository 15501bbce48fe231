"""Classical clusterers: k-means (Lloyd with k-means++ seeding) and a full-
covariance Gaussian mixture fitted by expectation-maximization.

Both are deterministic given (points, k, seed).  k-means computes the
points' squared norms once per fit and forms every distance matrix in a
(k, n) layout from one GEMM, ``centers @ points.T``, for the seeding and the
Lloyd steps alike; the labels are the first nearest center.  A cluster left
empty by a step takes the point farthest from its center among clusters of
two or more points.  The mixture's EM starts with an M-step on the k-means
labels and its E-step works in the log domain so that well-separated
components do not underflow.  Each EM iteration factors every covariance
once and evaluates all densities through GEMMs against the inverse Cholesky
factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, NumericalError, ParameterError

_LOG_2PI = np.log(2.0 * np.pi)
_RIDGE = 1e-6  # strength of the covariance prior, per point (see gmm_em)


@dataclass
class KmeansModel:
    centers: np.ndarray      # (k, d)
    inertia: float           # total within-cluster squared distance
    iterations: int


@dataclass
class GmmModel:
    weights: np.ndarray       # (k,) simplex vector
    means: np.ndarray         # (k, d)
    covariances: np.ndarray   # (k, d, d) symmetric positive-definite
    # EM's objective after each E-step; the last is that of these parameters
    log_likelihood_trace: list[float] = field(default_factory=list)


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _point_matrix(points) -> np.ndarray:
    """The points as a float (n, d) matrix, d >= 1, of finite values."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] == 0:
        raise ParameterError(f"points must be an (n, d) matrix with d >= 1, "
                             f"got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ParameterError("points hold a NaN or infinite value")
    return points


def _sq_distances(points: np.ndarray, point_norms: np.ndarray,
                  centers: np.ndarray) -> np.ndarray:
    """Squared distances, (k, n), from every center to every point.

    ``point_norms`` holds the points' squared norms, computed once per fit.
    The cross term is one product ``centers @ points.T``, which BLAS reads
    in place.  Its entries equal those of ``points @ centers.T`` bit for bit,
    for one center (the same matrix-vector product) or many; the tests check
    this against the (n, k) form.
    """
    sq = (centers * centers).sum(axis=1)[:, None] + point_norms
    sq -= 2.0 * centers @ points.T
    np.maximum(sq, 0.0, out=sq)
    return sq


def _kpp_seed(points: np.ndarray, point_norms: np.ndarray, k: int,
              rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn with probability ~ D^2."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _sq_distances(points, point_norms, centers[:1])[0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining mass on already-chosen points: spread uniformly
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=closest / total)]
        np.minimum(closest, _sq_distances(points, point_norms, centers[j:j + 1])[0],
                   out=closest)
    return centers


def kmeans(points, k: int, seed=0, tol: float = 1e-6,
           max_iter: int = 300) -> tuple[KmeansModel, np.ndarray]:
    """Lloyd's algorithm; stops when the largest center shift drops below tol.

    Each step forms the (k, n) squared distances from one GEMM against the
    points' squared norms, which are computed once per fit, and labels each
    point with the first nearest center.  A cluster left empty by a step
    gets the point farthest from its center among clusters of two or more
    points, so the repair never empties another cluster.  Each center is
    then the mean of its points, summed in index order.  The returned labels
    assign the points afresh to the final centers and identical points share
    a label, so when the points hold fewer than k distinct values some
    cluster is empty in them.
    """
    points = _point_matrix(points)
    if k < 1:
        raise ParameterError(f"cluster count must be positive, got {k}")
    n = len(points)
    if n < k:
        raise InsufficientDataError(f"{n} points cannot fill {k} clusters")

    rng = _as_rng(seed)
    norms = (points * points).sum(axis=1)
    centers = _kpp_seed(points, norms, k, rng)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sq = _sq_distances(points, norms, centers)
        labels = sq.argmin(axis=0)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            # the farthest point of a cluster of two or more, so that no
            # repair empties another cluster; with n >= k one always exists
            closest = sq.min(axis=0)
            for j in np.flatnonzero(counts == 0):
                runaway = int(np.argmax(np.where(counts[labels] > 1, closest, -1.0)))
                counts[labels[runaway]] -= 1
                counts[j] = 1
                labels[runaway] = j
                centers[j] = points[runaway]
        sums = np.stack([points[labels == j].sum(axis=0) for j in range(k)])
        new_centers = sums / counts[:, None]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    sq = _sq_distances(points, norms, centers)
    labels = sq.argmin(axis=0)
    inertia = float(sq.min(axis=0).sum())
    return KmeansModel(centers=centers, inertia=inertia, iterations=iterations), labels


def _log_gaussians(points: np.ndarray, means: np.ndarray,
                   covariances: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-component log densities, (n, k), and sum_j tr(Sigma_j^-1).

    Each Sigma_j = L_j L_j^T is factored once; its whitening factor
    W_j = L_j^-1 gives the Mahalanobis distance as ||W_j x - W_j mu_j||^2,
    one (n, d) GEMM per component, and tr(Sigma_j^-1) as ||W_j||_F^2.
    """
    n, d = points.shape
    out = np.empty((n, len(means)))
    inv_trace = 0.0
    for j, (mu, cov) in enumerate(zip(means, covariances)):
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"covariance of component {j} is singular despite its prior") from exc
        whiten = np.linalg.inv(chol)
        z = points @ whiten.T
        z -= whiten @ mu
        maha = np.einsum("ij,ij->i", z, z)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = -0.5 * (d * _LOG_2PI + logdet + maha)
        inv_trace += np.einsum("ij,ij->", whiten, whiten)
    return out, inv_trace


def gmm_em(points, k: int, seed=0, tol: float = 1e-6,
           max_iter: int = 200) -> tuple[GmmModel, np.ndarray]:
    """Full-covariance Gaussian mixture via EM, started from k-means.

    Each iteration runs the M-step, then the E-step, then the stop test; the
    first M-step reads the k-means labels as one-hot responsibilities.
    Every covariance carries the fixed prior exp(-tr(Psi Sigma^-1) / 2) with
    Psi = _RIDGE * n * I, which keeps the factors positive-definite: the
    M-step sets Sigma_j = (S_j + Psi) / N_j, with S_j the
    responsibility-weighted scatter and N_j the component's mass, so each
    diagonal gains at least _RIDGE.  The trace holds the objective this EM
    ascends, one value per E-step: the log-likelihood minus
    _RIDGE * n / 2 * sum_j tr(Sigma_j^-1).  It never decreases beyond
    rounding.  Iteration stops once it improves by less than tol, or after
    max_iter iterations.  The returned parameters are those of the last
    E-step: the trace's last value is their objective and the labels are
    their argmax responsibilities.
    """
    points = _point_matrix(points)
    if k < 1:
        raise ParameterError(f"component count must be positive, got {k}")
    if max_iter < 1:
        raise ParameterError(f"EM needs at least one iteration, got max_iter={max_iter}")
    n, d = points.shape
    if n < k:
        raise InsufficientDataError(f"{n} points cannot support {k} components")

    _, hard = kmeans(points, k, seed=seed)
    resp = np.eye(k)[hard]  # one-hot: the first M-step reads the k-means labels
    prior = _RIDGE * n * np.eye(d)
    covariances = np.empty((k, d, d))
    trace: list[float] = []
    for _ in range(max_iter):
        # M-step
        mass = resp.sum(axis=0)
        mass = np.maximum(mass, 1e-300)
        weights = mass / n
        means = (resp.T @ points) / mass[:, None]
        for j in range(k):
            # a.T @ a runs as a symmetric rank-k update: exactly symmetric
            a = points - means[j]
            a *= np.sqrt(resp[:, j])[:, None]
            covariances[j] = (a.T @ a + prior) / mass[j]
        # E-step in the log domain
        log_prob, inv_trace = _log_gaussians(points, means, covariances)
        log_prob += np.log(np.maximum(weights, 1e-300))
        top = log_prob.max(axis=1, keepdims=True)
        norm = top + np.log(np.exp(log_prob - top).sum(axis=1, keepdims=True))
        resp = np.exp(log_prob - norm)
        objective = float(norm.sum() - 0.5 * _RIDGE * n * inv_trace)
        trace.append(objective)
        if len(trace) > 1 and objective - trace[-2] < tol:
            break

    labels = resp.argmax(axis=1)
    model = GmmModel(weights=weights, means=means, covariances=covariances,
                     log_likelihood_trace=trace)
    return model, labels
