"""Autoencoder architecture, losses, and clustering-head behavior."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiseg import autodiff as ad
from hsiseg.archive import load_archive, save_archive
from hsiseg.autodiff import Tape, Tensor, grad_check
from hsiseg.cae import (CaeConfig, build_cae, clustering_loss, decode_batch,
                        encode_batch, encoder_map, init_centers, load_checkpoint,
                        reconstruction_loss, save_checkpoint, soft_assign,
                        target_distribution, total_loss)
from hsiseg.errors import (ConfigError, DegenerateDataError, FormatError,
                           ShapeError, StateError)
from hsiseg.train import embed_all
from test_autodiff import traced_peak


def desk_config(**overrides):
    base = dict(bands=8, clusters=3, kernels_per_layer=4, kernel_depth=3,
                embedding_dim=6, dropout_p=0.5)
    base.update(overrides)
    return CaeConfig(**base)


def factored_encode(params, patches, rng=None, tape=None):
    """The encoder layer by layer, as the paper draws it: the reference that
    the folds of encode_batch and encoder_map must equal.  Without ``rng``
    it infers, and dropout, an identity then, is left out."""
    w, cfg = params.weights, params.config
    h = ad.conv3d(Tensor(patches[:, None]), w["enc_conv1_w"], w["enc_conv1_b"], tape)
    if rng is not None:
        h = ad.dropout(h, cfg.dropout_p, rng, tape)
    h = ad.conv3d(h, w["enc_conv2_w"], w["enc_conv2_b"], tape)
    flat = ad.reshape(h, (len(patches), cfg.flat_dim), tape)
    return ad.dense(flat, w["enc_dense_w"], w["enc_dense_b"], tape)


def factored_decode(params, latents, tape=None):
    """The decoder layer by layer: the reference for decode_batch's fold."""
    w, cfg = params.weights, params.config
    count = len(latents.data)
    g = ad.dense(latents, w["dec_dense_w"], w["dec_dense_b"], tape)
    g = ad.reshape(g, (count, cfg.kernels_per_layer, 1, 1, cfg.conv2_depth), tape)
    g = ad.conv3d_transpose(g, w["dec_conv1_w"], w["dec_conv1_b"], tape)
    g = ad.conv3d_transpose(g, w["dec_conv2_w"], w["dec_conv2_b"], tape)
    s = cfg.patch_spatial
    return ad.reshape(g, (count, s, s, cfg.bands), tape)


# Default desk and paper shapes; 2x2x4 kernels, whose composite kernels are
# 3x3x7 (not 5x5); and one-band kernels, whose composite kernels are one band too.
GEOMETRIES = {"desk": desk_config(), "paper": CaeConfig(bands=103),
              "ks2-kd4": desk_config(kernel_spatial=2, kernel_depth=4),
              "kd1": desk_config(kernel_depth=1)}


def perturb_biases(params, seed):
    """Nonzero biases, so that the bias folds are exercised too."""
    for name, t in params.weight_items():
        if name.endswith("_b"):
            t.data[:] = np.random.default_rng(seed).normal(size=t.data.shape)


class TestConfig:
    def test_flatten_length_pavia_scale(self):
        """103 bands, depth-9 kernels: 103-8-8 = 87 spectral positions."""
        cfg = CaeConfig(bands=103, clusters=9)
        assert cfg.conv2_depth == 87
        assert cfg.flat_dim == 32 * 87 == 2784

    def test_flatten_length_200_bands(self):
        cfg = CaeConfig(bands=200, clusters=16)
        assert cfg.flat_dim == 32 * (200 - 16) == 5888

    def test_spectral_collapse_rejected(self):
        with pytest.raises(ConfigError):
            CaeConfig(bands=16, clusters=3)  # 16 - 2*8 = 0 positions left

    def test_patch_size_follows_kernel_size(self):
        """Two valid 2x2 stages collapse a 3x3 patch: the patch size is no knob."""
        cfg = CaeConfig(bands=40, clusters=3, kernel_spatial=2)
        assert cfg.patch_spatial == 3
        assert "patch_spatial" not in asdict(cfg)

    def test_single_cluster_rejected(self):
        with pytest.raises(ConfigError):
            CaeConfig(bands=40, clusters=1)

    def test_roundtrip_dict(self):
        cfg = desk_config()
        assert CaeConfig(**asdict(cfg)) == cfg


class TestBuildAndShapes:
    def test_parameter_shapes(self):
        cfg = desk_config()
        params = build_cae(cfg, np.random.default_rng(0))
        w = params.weights
        assert w["enc_conv1_w"].shape == (4, 1, 3, 3, 3)
        assert w["enc_conv2_w"].shape == (4, 4, 3, 3, 3)
        assert w["enc_dense_w"].shape == (6, cfg.flat_dim)
        assert w["dec_dense_w"].shape == (cfg.flat_dim, 6)
        assert w["dec_conv1_w"].shape == (4, 4, 3, 3, 3)
        assert w["dec_conv2_w"].shape == (4, 1, 3, 3, 3)
        assert params.centers is None

    def test_decoder_mirrors_encoder(self):
        params = build_cae(desk_config(), np.random.default_rng(1))
        w = params.weights
        assert w["dec_conv1_w"].shape == w["enc_conv2_w"].shape
        assert w["dec_conv2_w"].shape == w["enc_conv1_w"].shape
        assert w["dec_dense_w"].shape == w["enc_dense_w"].shape[::-1]

    def test_init_within_fan_in_bounds(self):
        params = build_cae(desk_config(), np.random.default_rng(2))
        w = params.weights["enc_conv1_w"].data
        limit = np.sqrt(6.0 / 27)
        assert np.all(np.abs(w) <= limit)

    def test_deterministic_build(self):
        a = build_cae(desk_config(), np.random.default_rng(3))
        b = build_cae(desk_config(), np.random.default_rng(3))
        for (_, ta), (_, tb) in zip(a.weight_items(), b.weight_items()):
            np.testing.assert_array_equal(ta.data, tb.data)


class TestEncodeDecode:
    def test_latent_length(self):
        cfg = desk_config()
        params = build_cae(cfg, np.random.default_rng(4))
        patch = np.random.default_rng(5).normal(size=(1, 5, 5, 8))
        z = encode_batch(params, patch)
        assert z.shape == (1, 6)

    def test_zero_weights_latent_is_bias(self):
        cfg = desk_config()
        params = build_cae(cfg, np.random.default_rng(6))
        params.weights["enc_dense_w"].data[:] = 0.0
        params.weights["enc_dense_b"].data[:] = np.arange(6.0)
        rng = np.random.default_rng(7)
        for _ in range(3):
            z = encode_batch(params, rng.normal(size=(1, 5, 5, 8)))
            np.testing.assert_array_equal(z.data, [np.arange(6.0)])

    def test_infer_mode_deterministic(self):
        params = build_cae(desk_config(), np.random.default_rng(8))
        patch = np.random.default_rng(9).normal(size=(1, 5, 5, 8))
        a = encode_batch(params, patch).data
        b = encode_batch(params, patch).data
        np.testing.assert_array_equal(a, b)

    def test_decode_shape_mirrors_patch(self):
        cfg = desk_config()
        params = build_cae(cfg, np.random.default_rng(10))
        out = decode_batch(params, np.zeros((1, 6)))
        assert out.shape == (1, 5, 5, 8)

    def test_zero_latent_zero_biases_zero_patch(self):
        params = build_cae(desk_config(), np.random.default_rng(11))
        for name in ("dec_dense_b", "dec_conv1_b", "dec_conv2_b"):
            params.weights[name].data[:] = 0.0
        out = decode_batch(params, np.zeros((1, 6)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 5, 5, 8)))

    def test_batch_matches_single(self):
        params = build_cae(desk_config(), np.random.default_rng(12))
        patches = np.random.default_rng(13).normal(size=(4, 5, 5, 8))
        zs = encode_batch(params, patches).data
        for i in range(4):
            np.testing.assert_allclose(zs[i], encode_batch(params, patches[i:i + 1]).data[0],
                                       atol=1e-12)

    def test_shape_mismatch(self):
        params = build_cae(desk_config(), np.random.default_rng(14))
        with pytest.raises(ShapeError):
            encode_batch(params, np.zeros((1, 5, 5, 9)))
        with pytest.raises(ShapeError):
            encode_batch(params, np.zeros((5, 5, 8)))  # an unbatched patch
        with pytest.raises(ShapeError):
            decode_batch(params, np.zeros((1, 7)))
        with pytest.raises(ShapeError):
            decode_batch(params, np.zeros(6))  # an unbatched latent

    @pytest.mark.parametrize("config", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_encoder_map_matches_conv_path(self, config):
        """The encoder is affine at inference: its folded dense map gives the
        latents of the convolutions run layer by layer with dropout left out.
        A nonlinear layer, or a fold that applies dropout's 1/(1-p) at
        inference, breaks this."""
        params = build_cae(config, np.random.default_rng(17))
        perturb_biases(params, 18)
        s = config.patch_spatial
        patches = np.random.default_rng(19).random((40, s, s, config.bands))
        weights, bias = (t.data for t in encoder_map(params))
        assert weights.shape == (config.embedding_dim, s * s * config.bands)
        assert bias.shape == (config.embedding_dim,)
        folded = patches.reshape(40, -1) @ weights.T + bias
        conv = factored_encode(params, patches).data
        assert np.abs(folded - conv).max() <= 1e-12 * np.abs(conv).max()

    # 40 bands and 16 kernels as in the criterion-5 model, and paper shape; 64
    # patches are more rows than embed_all's GEMM pads a product to
    @pytest.mark.parametrize("config", [CaeConfig(bands=40, kernels_per_layer=16),
                                        CaeConfig(bands=103)], ids=["40-bands", "paper"])
    def test_inference_encode_is_embed_all(self, config):
        """encode_batch without a generator is encoder_map's dense map: its
        latents are the ones embed_all and segment compute, bit for bit."""
        params = build_cae(config, np.random.default_rng(32))
        perturb_biases(params, 33)
        s = config.patch_spatial
        patches = np.random.default_rng(34).random((64, s, s, config.bands))
        np.testing.assert_array_equal(encode_batch(params, patches).data,
                                      embed_all(params, patches))

    def test_encoder_map_gradient(self):
        """encoder_map records on a tape: its weights and bias pass the
        finite-difference check against all six encoder tensors."""
        params = build_cae(desk_config(kernels_per_layer=2, embedding_dim=3),
                           np.random.default_rng(35))
        perturb_biases(params, 36)
        tensors = [t for name, t in params.weight_items() if name.startswith("enc_")]
        assert len(tensors) == 6

        def f(tape):
            weights, bias = encoder_map(params, tape)
            return ad.add(ad.sum_all(ad.mul(weights, weights, tape), tape),
                          ad.sum_all(ad.mul(bias, bias, tape), tape), tape)

        assert grad_check(f, tensors, eps=1e-3) <= 1e-4

    # dropout's 1/(1-p) is a power of two only at the default p = 0.5, and
    # p = 0 still draws a mask
    @pytest.mark.parametrize("config,batch", [(config, 256 if name == "paper" else 16)
                                              for name, config in GEOMETRIES.items()]
                             + [(desk_config(), 4),
                                (desk_config(dropout_p=0.3), 16),
                                (desk_config(dropout_p=0.0), 16),
                                (CaeConfig(bands=103, dropout_p=0.3), 64)],
                             ids=[*GEOMETRIES, "batch-below-embedding-dim",
                                  "p0.3", "p0", "paper-p0.3"])
    def test_training_step_matches_factored_step(self, config, batch):
        """encode_batch and decode_batch train through folds of the layers.
        One step's loss and every weight's gradient, dropout on, equal those
        of the layers run one by one with the same draw.  A nonlinearity
        between layers, or a dropout scale folded in wrongly, breaks this."""
        params = build_cae(config, np.random.default_rng(28))
        perturb_biases(params, 29)
        s = config.patch_spatial
        patches = np.random.default_rng(30).random((batch, s, s, config.bands))

        def step(encode, decode):
            for _, t in params.weight_items():
                t.zero_grad()
            tape = Tape()
            z = encode(params, patches, np.random.default_rng(31), tape)
            loss = reconstruction_loss(patches, decode(params, z, tape), tape)
            tape.backward(loss)
            return float(loss.data), {name: t.grad for name, t in params.weight_items()}

        ref_loss, ref_grads = step(factored_encode, factored_decode)
        loss, grads = step(encode_batch, decode_batch)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_roundtrip_gradient(self):
        """decode(encode(x)) loss passes the finite-difference check."""
        cfg = desk_config(kernels_per_layer=2, embedding_dim=3)
        params = build_cae(cfg, np.random.default_rng(15))
        patch = np.random.default_rng(16).normal(size=(1, 5, 5, 8))
        tensors = [t for _, t in params.weight_items()]

        def f(tape):
            z = encode_batch(params, patch, tape=tape)
            out = decode_batch(params, z, tape)
            return reconstruction_loss(patch, out, tape)

        assert grad_check(f, tensors, eps=1e-3) <= 1e-4


class TestPaperShapeMemory:
    """At paper shape the inference map and a decoder step run their
    embedding_dim rows through one composite kernel, not through two layers,
    and allocate about that arithmetic: no (n, K*3*3*d1) intermediate.  A
    training step keeps the batch's enc_conv1 activation and its adjoint in
    one layout each: no channels-first copy of either and no dropout output."""

    CONFIG = CaeConfig(bands=103, clusters=9)

    def test_training_step(self):
        params = build_cae(self.CONFIG, np.random.default_rng(43))
        patches = np.random.default_rng(44).random((256, 5, 5, self.CONFIG.bands))

        def step():
            tape = Tape()
            z = encode_batch(params, patches, np.random.default_rng(45), tape)
            tape.backward(reconstruction_loss(patches, decode_batch(params, z, tape), tape))

        assert traced_peak(step) < 230e6  # bytes

    def test_encoder_map(self):
        params = build_cae(self.CONFIG, np.random.default_rng(40))
        assert traced_peak(lambda: encoder_map(params)) < 8e6  # bytes

    def test_decode_step(self):
        params = build_cae(self.CONFIG, np.random.default_rng(41))
        latents = np.random.default_rng(42).normal(size=(8, self.CONFIG.embedding_dim))

        def step():
            tape = Tape()
            tape.backward(ad.sum_all(decode_batch(params, latents, tape), tape))

        assert traced_peak(step) < 12e6  # bytes


class TestReconstructionLoss:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(17).normal(size=(3, 5, 5, 4))
        assert float(reconstruction_loss(x, x.copy()).data) == 0.0

    def test_hand_value_single_patch(self):
        """Zeros vs ones over 5x5x4: 100 unit squared errors, p = 1."""
        x = np.zeros((1, 5, 5, 4))
        out = np.ones((1, 5, 5, 4))
        assert float(reconstruction_loss(x, out).data) == 100.0

    def test_mean_over_patches(self):
        x = np.zeros((2, 1, 1, 4))
        out = np.zeros((2, 1, 1, 4))
        out[0, 0, 0, 0] = 2.0   # ||.||^2 = 4
        out[1, 0, 0, :4] = np.sqrt(6.0 / 4)  # ||.||^2 = 6
        assert float(reconstruction_loss(x, out).data) == pytest.approx(5.0)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(np.zeros((2, 5, 5, 4)), np.zeros((3, 5, 5, 4)))


class TestSoftAssign:
    def test_single_cluster(self):
        z = np.random.default_rng(18).normal(size=(7, 4))
        q = soft_assign(z, np.zeros((1, 4))).data
        np.testing.assert_allclose(q, 1.0)

    def test_equidistant_uniform(self):
        z = np.zeros((1, 2))
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        q = soft_assign(z, centers).data
        np.testing.assert_allclose(q, 0.25)

    def test_hand_value(self):
        """z at center 1 with ||mu1-mu2||^2 = 3 gives q = (0.8, 0.2)."""
        centers = np.array([[0.0], [np.sqrt(3.0)]])
        q = soft_assign(np.zeros((1, 1)), centers).data
        np.testing.assert_allclose(q[0], [0.8, 0.2], atol=1e-12)

    def test_uninitialized_centers(self):
        with pytest.raises(StateError):
            soft_assign(np.zeros((2, 3)), None)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=5.0, size=(rng.integers(1, 12), 4))
        centers = rng.normal(scale=5.0, size=(rng.integers(1, 6), 4))
        q = soft_assign(z, centers).data
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(q > 0.0) and np.all(q <= 1.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(6, 3))
        centers = rng.normal(size=(2, 3))
        shift = rng.normal(size=3)
        base = soft_assign(z, centers).data
        moved = soft_assign(z + shift, centers + shift).data
        np.testing.assert_allclose(base, moved, atol=1e-12)


class TestTargetDistribution:
    def test_uniform_q_uniform_t(self):
        q = np.full((5, 4), 0.25)
        np.testing.assert_allclose(target_distribution(q), 0.25)

    def test_single_row_fixed_point(self):
        """With one row, f_j = q_j, so t = q."""
        q = np.array([[0.8, 0.2]])
        np.testing.assert_allclose(target_distribution(q), q, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(20)
        raw = rng.uniform(0.01, 1.0, size=(30, 5))
        q = raw / raw.sum(axis=1, keepdims=True)
        t = target_distribution(q)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_sharpens_confident_rows(self):
        """With equal cluster frequencies, the row max must not shrink."""
        q = np.array([[0.6, 0.4], [0.4, 0.6], [0.7, 0.3], [0.3, 0.7]])
        t = target_distribution(q)
        for row_q, row_t in zip(q, t):
            assert row_t[row_q.argmax()] >= row_q.max()

    def test_zero_frequency_rejected(self):
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateDataError):
            target_distribution(q)


class TestClusteringLoss:
    def test_zero_when_equal(self):
        q = np.array([[0.3, 0.7], [0.5, 0.5]])
        assert float(clustering_loss(q, Tensor(q)).data) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_log2(self):
        t = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        value = float(clustering_loss(t, Tensor(q)).data)
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(1, 8), rng.integers(2, 6))
        t = rng.uniform(0.01, 1.0, size=shape)
        t /= t.sum(axis=1, keepdims=True)
        q = rng.uniform(0.01, 1.0, size=shape)
        q /= q.sum(axis=1, keepdims=True)
        assert float(clustering_loss(t, Tensor(q)).data) >= -1e-12


class TestTotalLoss:
    def test_zero_clustering_term(self):
        assert float(total_loss(3.5, 0.0).data) == 3.5

    def test_hand_value(self):
        assert float(total_loss(1.0, 2.0, alpha=0.1).data) == pytest.approx(1.2)

    def test_gradient_is_weighted_sum(self):
        """Joint backward equals grad(L_r) + alpha * grad(L_c) separately."""
        cfg = desk_config(kernels_per_layer=2, embedding_dim=3)
        rng = np.random.default_rng(21)
        params = build_cae(cfg, rng)
        params.centers = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        patch = rng.normal(size=(2, 5, 5, 8))
        target = np.full((2, 3), 1.0 / 3)
        alpha = 0.1
        tensors = [t for _, t in params.weight_items()] + [params.centers]

        def joint():
            for t in tensors:
                t.zero_grad()
            tape = Tape()
            z = encode_batch(params, patch, tape=tape)
            recon = reconstruction_loss(patch, decode_batch(params, z, tape), tape)
            clust = clustering_loss(target, soft_assign(z, params.centers, tape), tape)
            tape.backward(total_loss(recon, clust, alpha, tape))
            return [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]

        def separate(which):
            for t in tensors:
                t.zero_grad()
            tape = Tape()
            z = encode_batch(params, patch, tape=tape)
            if which == "recon":
                loss = reconstruction_loss(patch, decode_batch(params, z, tape), tape)
            else:
                loss = clustering_loss(target, soft_assign(z, params.centers, tape), tape)
            tape.backward(loss)
            return [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]

        combined = joint()
        recon_grads = separate("recon")
        clust_grads = separate("clust")
        for g, gr, gc in zip(combined, recon_grads, clust_grads):
            np.testing.assert_allclose(g, gr + alpha * gc, atol=1e-12)


class TestInitCenters:
    def test_distinct_points_are_fixed(self):
        latents = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]), 5, axis=0)
        centers = init_centers(latents, 3, np.random.default_rng(0))
        assert {tuple(c) for c in np.round(centers, 9)} == {(0, 0), (10, 0), (0, 10)}

    def test_single_cluster_mean(self):
        rng = np.random.default_rng(22)
        latents = rng.normal(size=(40, 3))
        centers = init_centers(latents, 1, np.random.default_rng(1))
        np.testing.assert_allclose(centers[0], latents.mean(axis=0), atol=1e-12)

    def test_two_blobs(self):
        rng = np.random.default_rng(23)
        a = rng.normal(0, 0.01, size=(50, 2))
        b = rng.normal(0, 0.01, size=(50, 2)) + 5.0
        centers = init_centers(np.concatenate([a, b]), 2, np.random.default_rng(2))
        centers = centers[np.argsort(centers[:, 0])]
        np.testing.assert_allclose(centers[0], a.mean(axis=0), atol=0.1)
        np.testing.assert_allclose(centers[1], b.mean(axis=0), atol=0.1)

    def test_degenerate_latents(self):
        with pytest.raises(DegenerateDataError):
            init_centers(np.ones((10, 3)), 2, np.random.default_rng(3))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(24)
        params = build_cae(desk_config(), rng)
        params.centers = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        save_checkpoint(params, tmp_path / "model.zip", run_config={"reduction": "none"})
        loaded, meta = load_checkpoint(tmp_path / "model.zip")
        assert loaded.config == params.config
        assert meta["run_config"] == {"reduction": "none"}
        for (_, ta), (_, tb) in zip(params.trainable_items(), loaded.trainable_items()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_roundtrip_without_centers(self, tmp_path):
        params = build_cae(desk_config(), np.random.default_rng(25))
        save_checkpoint(params, tmp_path / "model.zip")
        loaded, _ = load_checkpoint(tmp_path / "model.zip")
        assert loaded.centers is None

    @staticmethod
    def _saved(tmp_path, edit):
        """A checkpoint of a desk model whose (meta, arrays) went through ``edit``."""
        rng = np.random.default_rng(28)
        params = build_cae(desk_config(), rng)
        params.centers = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        path = tmp_path / "model.zip"
        save_checkpoint(params, path)
        meta, arrays = load_archive(path)
        edit(meta, arrays)
        save_archive(path, meta, list(arrays.items()))
        return path

    def test_unknown_version_rejected(self, tmp_path):
        path = self._saved(tmp_path, lambda meta, arrays: meta.update(version=99))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_version_two_rejected(self, tmp_path):
        """Version 2 repeated the architecture keys in the run config; it is
        refused by its version, with no compatibility path."""
        path = self._saved(tmp_path, lambda meta, arrays: meta.update(version=2))
        with pytest.raises(FormatError, match="version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [True, 3.0])
    def test_non_integer_version_rejected(self, tmp_path, version):
        """The version is the JSON integer 3: 3.0 compares equal to it in
        Python but is not it, and neither is true."""
        path = self._saved(tmp_path, lambda meta, arrays: meta.update(version=version))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("run_config, message", [
        ([1], "not a JSON object"), ({"seed": 9, "kernel_depth": 9}, "kernel_depth"),
        ({"bands": 8}, "bands")], ids=["not-object", "architecture-key", "bands"])
    def test_run_config_repeating_the_architecture_rejected(self, tmp_path, run_config,
                                                            message):
        """The architecture is stored once, in ``config``: a run config that
        names one of its keys, or that is no object, is refused on load."""
        path = self._saved(tmp_path, lambda meta, arrays: meta.update(run_config=run_config))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_other_archive_format_rejected(self, tmp_path):
        path = self._saved(tmp_path, lambda meta, arrays: meta.update(format="hsiseg-gmm"))
        with pytest.raises(FormatError, match="not a parameter checkpoint"):
            load_checkpoint(path)

    def test_invalid_config_rejected(self, tmp_path):
        path = self._saved(tmp_path, lambda meta, arrays: meta["config"].update(clusters=1))
        with pytest.raises(FormatError, match="config"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = self._saved(tmp_path, lambda meta, arrays: arrays.pop("dec_conv1_b"))
        with pytest.raises(FormatError, match="dec_conv1_b"):
            load_checkpoint(path)

    def test_truncated_tensor_rejected(self, tmp_path):
        def truncate(meta, arrays):
            arrays["enc_dense_w"] = arrays["enc_dense_w"][:, :-1]
        path = self._saved(tmp_path, truncate)
        with pytest.raises(FormatError, match="enc_dense_w"):
            load_checkpoint(path)

    def test_wrong_center_shape_rejected(self, tmp_path):
        def widen(meta, arrays):
            arrays["centers"] = np.zeros((3, 7))
        path = self._saved(tmp_path, widen)
        with pytest.raises(FormatError, match="centers"):
            load_checkpoint(path)

    def test_byte_identical_archives(self, tmp_path):
        params = build_cae(desk_config(), np.random.default_rng(26))
        save_checkpoint(params, tmp_path / "a.zip")
        save_checkpoint(params, tmp_path / "b.zip")
        assert (tmp_path / "a.zip").read_bytes() == (tmp_path / "b.zip").read_bytes()


class TestComposedLossGradient:
    def test_full_model_loss_grad_check(self):
        """Gradients of L = L_r + 0.1 L_c over all parameters and centers."""
        cfg = desk_config(kernels_per_layer=2, embedding_dim=3)
        rng = np.random.default_rng(27)
        params = build_cae(cfg, rng)
        params.centers = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        patches = rng.normal(size=(2, 5, 5, 8))
        latents = encode_batch(params, patches).data
        target = target_distribution(soft_assign(latents, params.centers.data).data)
        tensors = [t for _, t in params.trainable_items()]

        def f(tape):
            z = encode_batch(params, patches, tape=tape)
            recon = reconstruction_loss(patches, decode_batch(params, z, tape), tape)
            clust = clustering_loss(target, soft_assign(z, params.centers, tape), tape)
            return total_loss(recon, clust, 0.1, tape)

        assert grad_check(f, tensors, eps=1e-3) <= 1e-4
