"""The 3D convolutional autoencoder and its clustering head.

The encoder applies two valid 3D convolutions (interleaved with one dropout
layer) whose spatial extents collapse a patch to its central pixel, flattens
the result, and projects it through a dense embedding layer.  The decoder
mirrors the encoder with transposed convolutions.  The clustering head holds
one trainable center per cluster and converts embeddings into soft
assignments through a Student's-t kernel; its target distribution sharpens
confident assignments while normalizing by cluster frequency.

The network has no nonlinearity, so training runs it through folds, affine
maps built over ``embedding_dim`` items: only ``enc_conv1`` and dropout run
over the batch.  They and the encoder fold's dense map are one autodiff op,
:func:`~hsiseg.autodiff.conv3d_dropout_dense`, which keeps the batch's
activation and its adjoint in the convolution's row layout, one row of
kernel outputs per (pixel, band), with no channels-first copy.  Two
convolutions with nothing between them are one convolution
by their composite kernel, the transposed convolution of the second layer's
kernels by the first's, so the decoder's two transposed convolutions run as
one.  Dropout is an identity at inference, so :func:`encoder_map` folds the
whole encoder, its two convolutions composed the same way, into one dense map
of the flattened patch: :func:`encode_batch` without a generator,
:func:`~hsiseg.train.embed_all` and :func:`~hsiseg.train.segment` compute
every latent through it.

Checkpoints are a single zip archive: ``meta.json`` (format, version and
architecture config), ``manifest.json`` listing (name, shape, dtype, file)
for each tensor, and one raw little-endian float64 payload per tensor.
Entry order and timestamps are fixed so identical parameters give
byte-identical archives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .archive import load_archive, save_archive
from .autodiff import Tape, Tensor
from .clustering import kmeans
from .errors import (ConfigError, DegenerateDataError, FormatError,
                     ParameterError, ShapeError, StateError, check_knobs)


@dataclass(frozen=True)
class CaeConfig:
    """Architecture hyperparameters.

    Each knob has its declared type (see :func:`~hsiseg.errors.check_knobs`).
    The spatial kernel extent must satisfy 2*(kernel_spatial-1)+1 ==
    patch_spatial so that the two valid convolutions collapse the patch to a
    single central position, and the spectral kernel depth must leave at
    least one spectral position after both layers.
    """

    bands: int
    clusters: int = 2
    patch_spatial: int = 5
    kernels_per_layer: int = 32
    kernel_spatial: int = 3
    kernel_depth: int = 9
    embedding_dim: int = 25
    dropout_p: float = 0.5

    def __post_init__(self):
        self.check_architecture(vars(self))
        check_knobs(CaeConfig, vars(self), {"bands": (
            lambda v: v - 2 * (self.kernel_depth - 1) >= 1,
            f"kernel depth {self.kernel_depth} leaves no spectral extent after two layers")})

    @classmethod
    def check_architecture(cls, arch: dict) -> None:
        """Every check but the spectral extent's, which needs ``bands``, on
        the ``arch`` knobs (absent ones take their defaults)."""
        knobs = {f.name: f.default for f in fields(cls)} | arch
        positive, ks = (lambda v: v >= 1, "must be positive"), knobs["kernel_spatial"]
        check_knobs(cls, knobs, {  # kernel_spatial is checked before patch_spatial reads it
            "clusters": (lambda v: v >= 2, "clustering needs at least two clusters"),
            **dict.fromkeys(("kernels_per_layer", "kernel_spatial", "kernel_depth",
                             "embedding_dim"), positive),
            "patch_spatial": (lambda v: v == 2 * (ks - 1) + 1,
                              f"two valid {ks}x{ks} stages do not collapse it to 1x1"),
            "dropout_p": (lambda v: 0.0 <= v < 1.0, "dropout probability must lie in [0, 1)")})

    @property
    def conv1_depth(self) -> int:
        return self.bands - self.kernel_depth + 1

    @property
    def conv2_depth(self) -> int:
        return self.conv1_depth - self.kernel_depth + 1

    @property
    def flat_dim(self) -> int:
        """Length of the flattened central-pixel feature vector."""
        return self.kernels_per_layer * self.conv2_depth

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CaeConfig":
        return cls(**data)


def weight_specs(config: CaeConfig) -> dict[str, tuple[tuple[int, ...], int | None]]:
    """(shape, init fan-in) of every weight tensor, in build and checkpoint order.

    A fan-in of None marks a zero-initialized bias.  The decoder tensors
    mirror the encoder tensors shape for shape.
    """
    k, ks, kd = config.kernels_per_layer, config.kernel_spatial, config.kernel_depth
    n, flat = config.embedding_dim, config.flat_dim
    kernel_volume = ks * ks * kd
    return {
        "enc_conv1_w": ((k, 1, ks, ks, kd), kernel_volume),
        "enc_conv1_b": ((k,), None),
        "enc_conv2_w": ((k, k, ks, ks, kd), k * kernel_volume),
        "enc_conv2_b": ((k,), None),
        "enc_dense_w": ((n, flat), flat),
        "enc_dense_b": ((n,), None),
        "dec_dense_w": ((flat, n), n),
        "dec_dense_b": ((flat,), None),
        "dec_conv1_w": ((k, k, ks, ks, kd), k * kernel_volume),
        "dec_conv1_b": ((k,), None),
        "dec_conv2_w": ((k, 1, ks, ks, kd), k * kernel_volume),
        "dec_conv2_b": ((1,), None),
    }


CENTERS_NAME = "centers"


class CaeParams:
    """All trainable tensors of the autoencoder plus the cluster centers.

    ``centers`` stays None until initialized from stage-1 embeddings; the
    decoder tensors mirror the encoder tensors shape-for-shape.
    """

    def __init__(self, config: CaeConfig, weights: dict[str, Tensor],
                 centers: Tensor | None = None):
        missing = set(weight_specs(config)) - set(weights)
        if missing:
            raise ParameterError(f"missing parameter tensors: {sorted(missing)}")
        self.config = config
        self.weights = weights
        self.centers = centers

    def weight_items(self) -> list[tuple[str, Tensor]]:
        return [(name, self.weights[name]) for name in weight_specs(self.config)]

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        items = self.weight_items()
        if self.centers is not None:
            items.append((CENTERS_NAME, self.centers))
        return items

    def require_centers(self) -> Tensor:
        if self.centers is None:
            raise StateError("cluster centers have not been initialized")
        return self.centers


def build_cae(config: CaeConfig, rng: np.random.Generator) -> CaeParams:
    """Fresh parameters, weights uniform in +/- sqrt(6 / fan_in), zero biases."""
    weights = {}
    for name, (shape, fan_in) in weight_specs(config).items():
        if fan_in is None:
            data = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / fan_in)
            data = rng.uniform(-limit, limit, size=shape)
        weights[name] = Tensor(data, requires_grad=True)
    return CaeParams(config, weights)


def _check_patch_shape(config: CaeConfig, patches: np.ndarray):
    expected = (config.patch_spatial, config.patch_spatial, config.bands)
    if patches.ndim != 4 or patches.shape[1:] != expected:
        raise ShapeError(f"patch shape {patches.shape} does not match config {expected}")


def _encoder_fold(params: CaeParams, tape: Tape | None = None) -> tuple[Tensor, Tensor]:
    """``enc_dense`` after ``enc_conv2`` over a flattened ``enc_conv1`` output, built over
    n items: (n, K*s1*s1*d1) weights and an (n,) bias, the latent of a zero one."""
    cfg, w = params.config, params.weights
    k, n, s1 = cfg.kernels_per_layer, cfg.embedding_dim, cfg.patch_spatial - cfg.kernel_spatial + 1
    g = ad.reshape(w["enc_dense_w"], (n, k, 1, 1, cfg.conv2_depth), tape)
    g = ad.conv3d_transpose(g, w["enc_conv2_w"], np.zeros(k), tape)
    zero = np.zeros((1, k, s1, s1, cfg.conv1_depth))  # gives the kernels no adjoint
    h = ad.conv3d(zero, w["enc_conv2_w"].data, w["enc_conv2_b"], tape)
    bias = ad.dense(ad.reshape(h, (1, -1), tape), w["enc_dense_w"], w["enc_dense_b"], tape)
    return ad.reshape(g, (n, -1), tape), ad.reshape(bias, (n,), tape)


def encode_batch(params: CaeParams, patches, rng: np.random.Generator | None = None,
                 tape: Tape | None = None) -> Tensor:
    """Embed a (count, s, s, bands) batch of patches into (count, n) latents.

    Passing ``rng`` trains: the dropout layer draws its mask from it.  Only
    ``enc_conv1`` and dropout run over the batch, and the layers after them
    are one fold: the three are one
    :func:`~hsiseg.autodiff.conv3d_dropout_dense`, whose activation and
    adjoint stay in the convolution's row layout.  Without ``rng`` dropout is
    an identity and the latents are :func:`encoder_map`'s dense map.
    """
    x = ad.as_tensor(patches).data
    _check_patch_shape(params.config, x)
    if rng is None:
        return ad.dense(x.reshape(len(x), -1), *encoder_map(params, tape), tape)
    w = params.weights
    weights, bias = _encoder_fold(params, tape)
    return ad.conv3d_dropout_dense(x[:, None], w["enc_conv1_w"], w["enc_conv1_b"],
                                   params.config.dropout_p, rng, weights, bias, tape)


def encoder_map(params: CaeParams, tape: Tape | None = None) -> tuple[Tensor, Tensor]:
    """The inference-mode encoder as one affine map of a flattened patch.

    Returns (n, s*s*bands) ``weights`` and (n,) ``bias``, built on ``tape``
    from the encoder tensors, such that ``dense(patches.reshape(count, -1),
    weights, bias)`` gives the latents of the layers run one by one with
    dropout an identity.  The ``enc_dense`` rows run back through one
    transposed convolution by the composite kernel of ``enc_conv1`` and
    ``enc_conv2``, with a zero bias; ``bias`` is the latent of a zero patch.
    """
    cfg, w = params.config, params.weights
    k, n, s = cfg.kernels_per_layer, cfg.embedding_dim, cfg.patch_spatial
    rows = ad.reshape(w["enc_dense_w"], (n, k, 1, 1, cfg.conv2_depth), tape)
    # conv3d(conv3d(x, conv1), conv2) is conv3d(x, kernel): (K, 1, 2ks-1, 2ks-1, 2kd-1)
    kernel = ad.conv3d_transpose(w["enc_conv2_w"], w["enc_conv1_w"], np.zeros(1), tape)
    g = ad.conv3d_transpose(rows, kernel, np.zeros(1), tape)
    zero = np.zeros((1, 1, s, s, cfg.bands))  # gives the kernels no adjoint
    h = ad.conv3d(zero, w["enc_conv1_w"].data, w["enc_conv1_b"], tape)
    h = ad.reshape(ad.conv3d(h, w["enc_conv2_w"], w["enc_conv2_b"], tape), (1, -1), tape)
    bias = ad.dense(h, w["enc_dense_w"], w["enc_dense_b"], tape)
    return ad.reshape(g, (n, -1), tape), ad.reshape(bias, (n,), tape)


def decode_batch(params: CaeParams, latents, tape: Tape | None = None) -> Tensor:
    """Reconstruct (count, s, s, bands) patches from (count, n) latents.

    The decoder is affine, z @ D + c, one transposed convolution with 1x1x1 kernels.
    Row j of D decodes unit latent j with zero biases: the n ``dec_dense``
    columns run through one transposed convolution by the composite kernel
    of ``dec_conv1`` and ``dec_conv2``, built on the tape.  c decodes a zero
    latent through the layers.
    """
    z = ad.as_tensor(latents)
    cfg = params.config
    if z.data.ndim != 2 or z.data.shape[1] != cfg.embedding_dim:
        raise ShapeError(f"latents {z.data.shape} do not match embedding size "
                         f"{cfg.embedding_dim}")
    w = params.weights
    k, n, s = cfg.kernels_per_layer, cfg.embedding_dim, cfg.patch_spatial
    kernel = ad.conv3d_transpose(w["dec_conv1_w"], w["dec_conv2_w"], np.zeros(1), tape)
    basis = ad.dense(np.eye(n), w["dec_dense_w"], np.zeros(cfg.flat_dim), tape)
    basis = ad.reshape(basis, (n, k, 1, 1, cfg.conv2_depth), tape)
    basis = ad.conv3d_transpose(basis, kernel, np.zeros(1), tape)
    offset = ad.reshape(w["dec_dense_b"], (1, k, 1, 1, cfg.conv2_depth), tape)
    offset = ad.conv3d_transpose(offset, w["dec_conv1_w"], w["dec_conv1_b"], tape)
    offset = ad.conv3d_transpose(offset, w["dec_conv2_w"], w["dec_conv2_b"], tape)
    u = ad.conv3d_transpose(ad.reshape(z, (len(z.data), n, 1, 1, 1), tape),
                            ad.reshape(basis, (n, s * s * cfg.bands, 1, 1, 1), tape),
                            ad.reshape(offset, (-1,), tape), tape)
    return ad.reshape(u, (len(z.data), s, s, cfg.bands), tape)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def reconstruction_loss(batch_in, batch_out, tape: Tape | None = None) -> Tensor:
    """Mean over patches of the summed squared reconstruction error."""
    x = ad.as_tensor(batch_in).data
    out = ad.as_tensor(batch_out)
    if x.shape != out.data.shape:
        raise ShapeError(f"input {x.shape} and reconstruction {out.data.shape} disagree")
    if x.ndim < 1 or len(x) == 0:
        raise ParameterError("reconstruction loss needs at least one patch")
    diff = ad.sub(out, Tensor(x), tape)
    return ad.scale(ad.sum_all(ad.mul(diff, diff, tape), tape), 1.0 / len(x), tape)


def soft_assign(latents, centers, tape: Tape | None = None) -> Tensor:
    """Soft cluster assignments from the Student's-t kernel.

    q[i, j] is proportional to 1 / (1 + ||z_i - center_j||^2), normalized so
    each row sums to one.
    """
    if centers is None:
        raise StateError("cluster centers have not been initialized")
    return ad.student_t_rows(ad.pairwise_sqdist(latents, centers, tape), tape)


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened, frequency-normalized target for the clustering loss.

    t[i, j] ~ q[i, j]^2 / f_j with f_j the soft cluster frequency, rows
    renormalized.  The result is treated as a constant during
    backpropagation, so this is a plain array function.
    """
    q = np.asarray(q, dtype=np.float64)
    freq = q.sum(axis=0)
    if np.any(freq <= 0.0):
        raise DegenerateDataError("a cluster has zero soft frequency")
    weighted = q * q / freq
    return weighted / weighted.sum(axis=1, keepdims=True)


def clustering_loss(target: np.ndarray, q, tape: Tape | None = None) -> Tensor:
    """KL divergence of the soft assignments from the (constant) target."""
    return ad.kl_divergence(target, q, tape)


def total_loss(recon, clust, alpha: float = 0.1, tape: Tape | None = None) -> Tensor:
    """Weighted sum L_r + alpha * L_c of reconstruction and clustering losses.

    ``alpha`` is range-checked where it is configured, in
    :class:`~hsiseg.train.TrainConfig`.
    """
    return ad.add(recon, ad.scale(clust, alpha, tape), tape)


def init_centers(latents, clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster centers from k-means over the stage-1 embeddings."""
    latents = np.asarray(latents, dtype=np.float64)
    if len(np.unique(latents, axis=0)) < clusters:
        raise DegenerateDataError(
            f"fewer than {clusters} distinct embeddings; cannot place centers")
    model, _ = kmeans(latents, clusters, seed=rng)
    return model.centers


# ---------------------------------------------------------------------------
# checkpoint archive
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_checkpoint(params: CaeParams, path: str | Path,
                    extra_meta: dict | None = None) -> None:
    """Write parameters as a deterministic archive (see :mod:`.archive`).

    ``extra_meta`` lets callers record pipeline context (e.g. which
    reduction preceded training) alongside the architecture config.
    """
    entries = params.trainable_items()
    meta = {"format": "hsiseg-checkpoint", "version": _CHECKPOINT_VERSION,
            "config": params.config.to_dict()}
    if extra_meta:
        meta.update(extra_meta)
    save_archive(path, meta, [(name, t.data) for name, t in entries])


def load_checkpoint(path: str | Path) -> tuple[CaeParams, dict]:
    """Rebuild parameters (and the stored metadata) from a checkpoint.

    Every tensor must have the shape :func:`build_cae` gives it under the
    stored config, and the centers, when present, must be (clusters,
    embedding_dim); anything else is a :class:`FormatError`.
    """
    meta, arrays = load_archive(path)
    if meta.get("format") != "hsiseg-checkpoint":
        raise FormatError(f"{path} is not a parameter checkpoint")
    if type(version := meta.get("version")) is not int or version != _CHECKPOINT_VERSION:
        raise FormatError(f"{path} has checkpoint version {version!r}, "
                          f"expected the integer {_CHECKPOINT_VERSION}")
    try:
        config = CaeConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"{path} holds no valid architecture config: {exc}") from exc
    expected = {name: shape for name, (shape, _) in weight_specs(config).items()}
    if CENTERS_NAME in arrays:
        expected[CENTERS_NAME] = (config.clusters, config.embedding_dim)
    if set(arrays) != set(expected):
        raise FormatError(f"{path}: missing tensors {sorted(set(expected) - set(arrays))}, "
                          f"unexpected tensors {sorted(set(arrays) - set(expected))}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise FormatError(f"{path}: tensor {name} has shape {arrays[name].shape}, "
                              f"the stored config needs {shape}")
    tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    centers = tensors.pop(CENTERS_NAME, None)
    return CaeParams(config, tensors, centers), meta
