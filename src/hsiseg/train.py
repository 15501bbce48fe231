"""Adam optimization and the two-stage training schedule.

Stage 1 minimizes the reconstruction loss alone and stops once two
consecutive epoch losses differ by less than epsilon (or at a safety cap).
Stage 2 initializes the cluster centers from k-means over the stage-1
embeddings, then jointly optimizes reconstruction plus the alpha-weighted
clustering loss over the network weights *and* the centers, refreshing the
target distribution at the start of every epoch, for at most
``stage2_epochs`` epochs.

One Adam state spans both stages (the centers enroll with zero moments when
stage 2 starts), so a stage-2 run with alpha = 0 reproduces bit-for-bit the
trajectory of simply continuing stage 1 - a useful diagnostic identity.

Random streams are split by role (shuffling, dropout, center seeding) so
every run is reproducible from one seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cae
from .autodiff import Tape, Tensor
from .cube import HsiCube, SegmentationMap, extract_patches, patch_windows
from .errors import NumericalError, ParameterError, ShapeError, check_knobs

INFERENCE_CHUNK = 256  # pixels per segment stripe: bounds segment's gathered patches
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


@dataclass
class AdamState:
    """First/second moment estimates per parameter, plus the shared step count."""

    lr: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: list[tuple[str, Tensor]], state: AdamState) -> AdamState:
    """One bias-corrected Adam update from each tensor's ``.grad``, applied in
    place; a ``.grad`` of None (the tape never reached the tensor) counts as zero."""
    state.step += 1
    t = state.step
    for name, tensor in params:
        g = 0.0 if tensor.grad is None else tensor.grad
        m = state.m.setdefault(name, np.zeros_like(tensor.data))
        v = state.v.setdefault(name, np.zeros_like(tensor.data))
        m += (1.0 - _BETA1) * (g - m)
        v += (1.0 - _BETA2) * (g * g - v)
        m_hat = m / (1.0 - _BETA1 ** t)
        v_hat = v / (1.0 - _BETA2 ** t)
        tensor.data -= state.lr * m_hat / (np.sqrt(v_hat) + _EPS)
    return state


@dataclass
class TrainConfig:
    """Knobs of the two-stage schedule, checked by :func:`~hsiseg.errors.check_knobs`."""

    batch_size: int = 256
    epsilon: float = 1e-6          # stage-1 stop: |L(t) - L(t-1)| < epsilon
    stage1_max_epochs: int = 500   # safety cap; the epsilon rule is the intended stop
    stage2_epochs: int = 25        # hard-capped at 25
    alpha: float = 0.1             # clustering-loss weight; 0 is a diagnostic setting
    lr: float = 1e-4

    def __post_init__(self):
        # the float ranges are written so that NaN fails them too
        check_knobs(TrainConfig, vars(self), {
            "batch_size": (lambda v: v >= 1, "batch size must be at least 1"),
            "epsilon": (lambda v: 0.0 <= v < np.inf, "epsilon must be finite and non-negative"),
            "stage1_max_epochs": (lambda v: v >= 2,
                                  "stage 1 needs at least two epochs to compare losses"),
            "stage2_epochs": (lambda v: 0 <= v <= 25, "stage-2 epoch count must lie in [0, 25]"),
            "alpha": (lambda v: 0.0 <= v < 1.0, "loss weight must lie in [0, 1)"),
            "lr": (lambda v: 0.0 < v < np.inf, "learning rate must be finite and positive")})


@dataclass
class TrainReport:
    """Per-epoch loss traces and provenance of one training run.

    Wall-clock figures are kept out of :meth:`to_dict` on purpose: the
    serialized report must be byte-identical across reruns of the same
    (config, seed), and timings never are.
    """

    seed: int
    stage1_epochs: int
    stage1_losses: list[float]
    stage2_losses: list[tuple[float, float, float]]  # (recon, clustering, total)
    wall_time: float
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "stage1_epochs": self.stage1_epochs,
            "stage1_losses": self.stage1_losses,
            "stage2_losses": [list(entry) for entry in self.stage2_losses],
        }


def _as_patch_array(patches) -> np.ndarray:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 4 or len(patches) == 0:
        raise ParameterError("training data must be a non-empty (count, s, s, bands) array")
    return patches


def _encode_rows(rows: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``rows @ weights.T + bias``, each row with the same bits whatever the row count.

    That makes every :func:`segment` stripe equal :func:`embed_all`.  OpenBLAS
    0.3 on x86-64 rounds differently a product of M*N*K <= 10**6 (its
    small-matrix kernels) and, with two or more threads, a product of at most
    16 rows or, for some widths N, of 33 to N rows; numpy runs one row as a
    GEMV.  So a smaller product gets zero rows until it has more than 16 and
    more than N rows and exceeds 10**6 multiply-adds.  The stripe tests of
    ``TestSegment`` in tests/test_train.py pin this; run them at 1 and 2 threads.
    """
    count = len(rows)
    need = max(17, len(weights) + 1, 10 ** 6 // max(1, weights.size) + 1)
    if count < need:
        rows = np.concatenate([rows, np.zeros((need - count, rows.shape[1]))])
    return (rows @ weights.T)[:count] + bias


def embed_all(params: cae.CaeParams, patches: np.ndarray) -> np.ndarray:
    """Inference-mode embeddings of a (count, s, s, bands) patch array.

    One affine map, :func:`cae.encoder_map`, of the flattened patches.
    """
    patches = np.asarray(patches, dtype=np.float64)
    cae._check_patch_shape(params.config, patches)
    weights, bias = (t.data for t in cae.encoder_map(params))
    return _encode_rows(patches.reshape(len(patches), -1), weights, bias)


def _epoch(params: cae.CaeParams, patches: np.ndarray, cfg: TrainConfig,
           adam: AdamState, shuffle_rng: np.random.Generator,
           dropout_rng: np.random.Generator,
           target: np.ndarray | None = None) -> tuple[float, float]:
    """One shuffled pass of minibatch Adam steps over ``patches``.

    Without a target the batch loss is the reconstruction loss and only the
    network weights train.  With a (count, clusters) target distribution the
    clustering loss of the batch rows joins it through
    :func:`cae.total_loss` and the centers train too.  Returns the
    patch-weighted mean reconstruction loss and the clustering loss summed
    over the batches (0 without a target).
    """
    items = params.weight_items() if target is None else params.trainable_items()
    count = len(patches)
    order = shuffle_rng.permutation(count)
    recon_sum = 0.0
    clust_sum = 0.0
    for start in range(0, count, cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        batch = patches[idx]
        for _, t in items:
            t.zero_grad()
        tape = Tape()
        latents = cae.encode_batch(params, batch, dropout_rng, tape)
        recon = cae.reconstruction_loss(batch, cae.decode_batch(params, latents, tape), tape)
        loss = recon
        if target is not None:
            q = cae.soft_assign(latents, params.centers, tape)
            clust = cae.clustering_loss(target[idx], q, tape)
            loss = cae.total_loss(recon, clust, cfg.alpha, tape)
            clust_sum += float(clust.data)
        if not np.isfinite(loss.data):
            raise NumericalError(f"training loss {float(loss.data)} is not finite "
                                 f"at Adam step {adam.step + 1}")
        tape.backward(loss)
        adam_step(items, adam)
        recon_sum += float(recon.data) * len(idx)
    return recon_sum / count, clust_sum


def train_stage1(params: cae.CaeParams, patches: np.ndarray, cfg: TrainConfig,
                 adam: AdamState, shuffle_rng: np.random.Generator,
                 dropout_rng: np.random.Generator) -> list[float]:
    """Reconstruction-only pretraining; the clustering head stays untouched.

    Returns the per-epoch loss trace.  Each epoch's loss is the
    patch-weighted mean of its batch losses, and the run ends when two
    consecutive values differ by less than ``cfg.epsilon`` or the safety cap
    is reached.  A non-finite batch loss raises :class:`NumericalError`.
    """
    patches = _as_patch_array(patches)
    losses: list[float] = []
    for _ in range(cfg.stage1_max_epochs):
        losses.append(_epoch(params, patches, cfg, adam, shuffle_rng, dropout_rng)[0])
        if len(losses) >= 2 and abs(losses[-1] - losses[-2]) < cfg.epsilon:
            break
    return losses


def train_stage2(params: cae.CaeParams, patches: np.ndarray, cfg: TrainConfig,
                 adam: AdamState, shuffle_rng: np.random.Generator,
                 dropout_rng: np.random.Generator) -> list[tuple[float, float, float]]:
    """Joint reconstruction + clustering optimization over weights and centers.

    The target distribution is recomputed from inference-mode embeddings at
    the start of each epoch and held constant within it.

    Loss scale: each batch loss is the reconstruction loss *averaged* over
    the batch's patches plus alpha times the KL divergence *summed* over its
    rows, so the effective weight of the clustering term grows linearly with
    ``cfg.batch_size`` (IDEC averages both terms instead).  Returns
    per-epoch (reconstruction, clustering, total) triples: the mean
    reconstruction loss per patch, the KL divergence summed over every
    patch, and the two recombined with the configured weight.  A
    non-finite batch loss raises :class:`NumericalError`.
    """
    centers = params.require_centers()
    patches = _as_patch_array(patches)
    trace: list[tuple[float, float, float]] = []
    for _ in range(cfg.stage2_epochs):
        q_all = cae.soft_assign(embed_all(params, patches), centers.data).data
        target = cae.target_distribution(q_all)
        recon, clust = _epoch(params, patches, cfg, adam, shuffle_rng, dropout_rng, target)
        trace.append((recon, clust, recon + cfg.alpha * clust))
    return trace


def run_training(cube: HsiCube, config: cae.CaeConfig, cfg: TrainConfig,
                 seed: int) -> tuple[cae.CaeParams, TrainReport]:
    """The full two-stage schedule on one scene.

    Background pixels (label 0) never enter the training batches, the center
    initialization, or the target distribution; they still get labels at
    inference time via :func:`segment`.
    """
    started = time.perf_counter()
    streams = np.random.SeedSequence(seed).spawn(4)
    init_rng, shuffle_rng, dropout_rng, centers_rng = map(np.random.default_rng, streams)

    batch = extract_patches(cube, spatial=config.patch_spatial)
    params = cae.build_cae(config, init_rng)
    adam = AdamState(lr=cfg.lr)

    stage1 = train_stage1(params, batch.patches, cfg, adam, shuffle_rng, dropout_rng)
    t_stage1 = time.perf_counter()
    latents = embed_all(params, batch.patches)
    params.centers = Tensor(cae.init_centers(latents, config.clusters, centers_rng),
                            requires_grad=True)
    t_centers = time.perf_counter()
    stage2 = train_stage2(params, batch.patches, cfg, adam, shuffle_rng, dropout_rng)
    t_stage2 = time.perf_counter()

    report = TrainReport(seed=seed, stage1_epochs=len(stage1), stage1_losses=stage1,
                         stage2_losses=stage2, wall_time=t_stage2 - started,
                         phase_seconds={"stage1": t_stage1 - started,
                                        "centers": t_centers - t_stage1,
                                        "stage2": t_stage2 - t_centers})
    return params, report


def segment(params: cae.CaeParams, cube: HsiCube) -> SegmentationMap:
    """Label every pixel with its most likely cluster (1-based).

    All pixels get a label, background included.  Pure function of
    (params, cube).  The encoder is folded once by :func:`cae.encoder_map`;
    the patches, mirror-reflected at the borders as for
    :func:`~hsiseg.cube.extract_patches`, are then gathered and mapped in row
    stripes of about ``INFERENCE_CHUNK`` pixels (at least one row), so
    memory is bounded by one stripe.  The latents equal :func:`embed_all` on
    the pixels' patches bit for bit.
    """
    centers = params.require_centers()
    if cube.bands != params.config.bands:
        raise ShapeError(f"cube has {cube.bands} bands, model expects "
                         f"{params.config.bands}")
    windows = patch_windows(cube, params.config.patch_spatial)
    weights, bias = (t.data for t in cae.encoder_map(params))
    rows = max(1, INFERENCE_CHUNK // cube.width)
    labels = np.empty((cube.height, cube.width), dtype=np.int64)
    for top in range(0, cube.height, rows):
        stripe = windows[top:top + rows]
        latents = _encode_rows(stripe.reshape(-1, weights.shape[1]), weights, bias)
        q = cae.soft_assign(latents, centers.data).data
        labels[top:top + rows] = q.argmax(axis=1).reshape(stripe.shape[:2]) + 1
    return SegmentationMap(labels=labels)
