"""Optimizer behavior, the two-stage schedule, and map inference."""

import copy

import numpy as np
import pytest

from hsiseg import cae, train
from hsiseg.autodiff import Tensor
from hsiseg.clustering import kmeans
from hsiseg.cube import HsiCube, extract_patches
from hsiseg.errors import NumericalError, ParameterError, ShapeError, StateError
from hsiseg.metrics import contingency, nmi
from hsiseg.synth import generate_cube
from hsiseg.train import (AdamState, TrainConfig, adam_step, embed_all,
                          run_training, segment, train_stage1, train_stage2)
from hsiseg.cube import normalize

DESK = dict(bands=8, clusters=3, kernels_per_layer=4, kernel_depth=3, embedding_dim=6)


def desk_setup(seed=0, height=12, width=12, classes=3):
    cube = normalize(generate_cube(width, height, 8, classes, seed=seed,
                                   noise=0.03, layout="stripes"))
    config = cae.CaeConfig(**DESK)
    params = cae.build_cae(config, np.random.default_rng(seed))
    batch = extract_patches(cube)
    return cube, config, params, batch


def clone_params(params):
    out = cae.CaeParams(params.config,
                        {k: Tensor(v.data.copy(), requires_grad=True)
                         for k, v in params.weights.items()})
    if params.centers is not None:
        out.centers = Tensor(params.centers.data.copy(), requires_grad=True)
    return out


def with_grad(value, grad=None):
    """A trainable tensor whose ``.grad`` is set as a backward pass would leave it."""
    t = Tensor(np.array(value, dtype=float), requires_grad=True)
    t.grad = None if grad is None else np.array(grad, dtype=float)
    return t


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        for grad in (np.zeros(3), None):  # a grad of None counts as zero
            p = with_grad([1.0, -2.0, 3.0], grad)
            before = p.data.copy()
            adam_step([("p", p)], AdamState())
            np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        """Bias correction makes the first update lr * g / (|g| + eps)."""
        for g in (0.5, -3.0, 1e-4):
            p = with_grad([1.0], [g])
            adam_step([("p", p)], AdamState(lr=1e-3))
            expected = 1.0 - 1e-3 * g / (abs(g) + 1e-8)
            assert p.data[0] == pytest.approx(expected, abs=1e-12)

    def test_identical_grads_identical_updates(self):
        a = with_grad([1.0], [0.7])
        b = with_grad([1.0], [0.7])
        adam_step([("a", a), ("b", b)], AdamState())
        assert a.data[0] == b.data[0]

    def test_first_step_direction_is_sign(self):
        p = with_grad([0.0, 0.0], [5.0, -0.001])
        adam_step([("p", p)], AdamState(lr=1e-2))
        np.testing.assert_allclose(p.data, [-1e-2, 1e-2], rtol=1e-4)

    def test_moments_enroll_lazily(self):
        """Parameters appearing mid-run (the centers) start with zero moments."""
        p = with_grad([1.0], [1.0])
        state = AdamState()
        adam_step([("p", p)], state)
        p.grad = np.zeros(1)
        q = with_grad([2.0], [0.0])
        adam_step([("p", p), ("q", q)], state)
        assert "q" in state.m and state.m["q"][0] == 0.0
        assert q.data[0] == 2.0


class TestTrainConfig:
    def test_alpha_range(self):
        """alpha lies in [0, 1); 0 is the documented diagnostic setting."""
        assert TrainConfig(alpha=0.0).alpha == 0.0
        for alpha in (1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                TrainConfig(alpha=alpha)

    def test_lr_and_epsilon_finite(self):
        """A NaN or infinite lr or epsilon is a contract error, not a
        numerical failure mid-run or a silently disabled stop rule."""
        assert TrainConfig(epsilon=0.0).epsilon == 0.0
        for bad in ({"lr": 0.0}, {"lr": -1e-3}, {"lr": np.nan}, {"lr": np.inf},
                    {"epsilon": -1e-6}, {"epsilon": np.nan}, {"epsilon": np.inf}):
            with pytest.raises(ParameterError):
                TrainConfig(**bad)


class TestStage1:
    def test_huge_epsilon_stops_after_two_epochs(self):
        _, _, params, batch = desk_setup()
        cfg = TrainConfig(batch_size=32, epsilon=1e300, stage1_max_epochs=50, lr=1e-3)
        losses = train_stage1(params, batch.patches, cfg, AdamState(lr=cfg.lr),
                              np.random.default_rng(0), np.random.default_rng(1))
        assert len(losses) == 2

    def test_loss_trace_deterministic(self):
        losses = []
        for _ in range(2):
            _, _, params, batch = desk_setup(seed=5)
            cfg = TrainConfig(batch_size=32, epsilon=0.0, stage1_max_epochs=4, lr=1e-3)
            trace = train_stage1(params, batch.patches, cfg, AdamState(lr=cfg.lr),
                                 np.random.default_rng(2), np.random.default_rng(3))
            losses.append(trace)
        assert losses[0] == losses[1]

    def test_empty_data_rejected(self):
        _, _, params, _ = desk_setup()
        cfg = TrainConfig(batch_size=8)
        with pytest.raises(ParameterError):
            train_stage1(params, np.zeros((0, 5, 5, 8)), cfg, AdamState(),
                         np.random.default_rng(0), np.random.default_rng(1))

    def test_non_finite_loss_raises_numerical_error(self):
        _, _, params, batch = desk_setup()
        params.weights["dec_conv2_b"].data[:] = np.inf
        cfg = TrainConfig(batch_size=32, epsilon=0.0, stage1_max_epochs=3, lr=1e-3)
        with pytest.raises(NumericalError):
            train_stage1(params, batch.patches, cfg, AdamState(lr=cfg.lr),
                         np.random.default_rng(0), np.random.default_rng(1))

    def test_desk_scale_convergence(self):
        """On a 16x16x8 three-class scene the loss must drop 10x."""
        cube = normalize(generate_cube(16, 16, 8, 3, seed=7, noise=0.03,
                                       layout="stripes"))
        config = cae.CaeConfig(**{**DESK, "kernels_per_layer": 8})
        params = cae.build_cae(config, np.random.default_rng(7))
        batch = extract_patches(cube)
        cfg = TrainConfig(batch_size=64, epsilon=1e-6, stage1_max_epochs=60, lr=1e-3)
        losses = train_stage1(params, batch.patches, cfg, AdamState(lr=cfg.lr),
                              np.random.default_rng(8), np.random.default_rng(9))
        assert np.all(np.isfinite(losses))
        assert losses[-1] <= 0.1 * losses[0]


class TestStage2:
    def _pretrained(self, seed=3, epochs=12):
        cube, config, params, batch = desk_setup(seed=seed)
        cfg = TrainConfig(batch_size=32, epsilon=0.0, stage1_max_epochs=epochs,
                          stage2_epochs=5, lr=1e-3)
        adam = AdamState(lr=cfg.lr)
        shuffle_rng = np.random.default_rng(10)
        dropout_rng = np.random.default_rng(11)
        train_stage1(params, batch.patches, cfg, adam, shuffle_rng, dropout_rng)
        return cube, params, batch, cfg, adam, shuffle_rng, dropout_rng

    def test_requires_centers(self):
        _, params, batch, cfg, adam, s_rng, d_rng = self._pretrained()
        with pytest.raises(StateError):
            train_stage2(params, batch.patches, cfg, adam, s_rng, d_rng)

    def test_epoch_cap(self):
        _, params, batch, cfg, adam, s_rng, d_rng = self._pretrained()
        latents = embed_all(params, batch.patches)
        params.centers = Tensor(cae.init_centers(latents, 3, np.random.default_rng(1)),
                                requires_grad=True)
        trace = train_stage2(params, batch.patches, cfg, adam, s_rng, d_rng)
        assert len(trace) == cfg.stage2_epochs <= 25

    def test_alpha_zero_equals_stage1_continuation(self):
        """With alpha = 0 the stage-2 weight trajectory must reproduce a
        plain stage-1 continuation bit for bit (same rng streams, and the
        Adam state carries over)."""
        _, params, batch, cfg, adam, s_rng, d_rng = self._pretrained()
        latents = embed_all(params, batch.patches)
        centers = cae.init_centers(latents, 3, np.random.default_rng(2))

        cont_params = clone_params(params)
        cont_adam = copy.deepcopy(adam)
        cont_s = copy.deepcopy(s_rng)
        cont_d = copy.deepcopy(d_rng)

        params.centers = Tensor(centers.copy(), requires_grad=True)
        cfg2 = TrainConfig(batch_size=cfg.batch_size, epsilon=0.0,
                           stage1_max_epochs=3, stage2_epochs=3, alpha=0.0, lr=cfg.lr)
        train_stage2(params, batch.patches, cfg2, adam, s_rng, d_rng)
        train_stage1(cont_params, batch.patches, cfg2, cont_adam, cont_s, cont_d)

        for (name, a), (_, b) in zip(params.weight_items(), cont_params.weight_items()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        np.testing.assert_array_equal(params.centers.data, centers)

    def test_non_finite_loss_raises_numerical_error(self):
        _, params, batch, cfg, adam, s_rng, d_rng = self._pretrained()
        latents = embed_all(params, batch.patches)
        params.centers = Tensor(cae.init_centers(latents, 3, np.random.default_rng(1)),
                                requires_grad=True)
        params.weights["dec_conv2_b"].data[:] = np.nan  # decoder only: the target stays finite
        with pytest.raises(NumericalError):
            train_stage2(params, batch.patches, cfg, adam, s_rng, d_rng)

    def test_clustering_weight_grows_with_batch_size(self, monkeypatch):
        """The batch loss is a per-patch mean reconstruction plus alpha times
        the KL divergence summed over the batch rows.  A batch holding every
        patch twice therefore keeps the reconstruction gradient and doubles
        the clustering gradient: on the centers, which only the clustering
        term reaches, the whole gradient doubles."""
        _, params, batch, _, _, _, _ = self._pretrained()
        no_dropout = cae.CaeParams(cae.CaeConfig(**{**DESK, "dropout_p": 0.0}),
                                   params.weights)
        latents = embed_all(no_dropout, batch.patches)
        centers = cae.init_centers(latents, 3, np.random.default_rng(4))
        grads = []
        monkeypatch.setattr(train, "adam_step", lambda items, state: grads.append(
            {name: t.grad.copy() for name, t in items}) or state)

        def one_full_batch_step(patches, alpha):
            model = clone_params(no_dropout)
            model.centers = Tensor(centers.copy(), requires_grad=True)
            cfg = TrainConfig(batch_size=len(patches), stage2_epochs=1, alpha=alpha)
            trace = train_stage2(model, patches, cfg, AdamState(), np.random.default_rng(0),
                                 np.random.default_rng(1))
            return grads.pop(), trace[0]

        single = batch.patches
        double = np.concatenate([single, single])
        g1, (r1, c1, t1) = one_full_batch_step(single, 0.1)
        g2, (r2, c2, _) = one_full_batch_step(double, 0.1)
        np.testing.assert_allclose(g2["centers"], 2.0 * g1["centers"], rtol=1e-9)
        assert r2 == pytest.approx(r1, rel=1e-12)   # mean over patches
        assert c2 == pytest.approx(2.0 * c1, rel=1e-12)  # sum over rows
        assert t1 == pytest.approx(r1 + 0.1 * c1, rel=1e-12)

        g1_recon, _ = one_full_batch_step(single, 0.0)
        g2_recon, _ = one_full_batch_step(double, 0.0)
        for name in g1:
            expected = g1_recon[name] + 2.0 * (g1[name] - g1_recon[name])
            np.testing.assert_allclose(g2[name], expected, rtol=1e-7, atol=1e-12,
                                       err_msg=name)

    def test_does_not_undo_clustering(self):
        """Paired oracle: stage-2 NMI within 0.05 of k-means on embeddings."""
        cube, params, batch, cfg, adam, s_rng, d_rng = self._pretrained(seed=9, epochs=30)
        latents = embed_all(params, batch.patches)
        _, km_labels = kmeans(latents, 3, seed=0)
        truth = cube.labels.ravel()
        km_nmi = nmi(contingency(km_labels, truth))

        params.centers = Tensor(cae.init_centers(latents, 3, np.random.default_rng(3)),
                                requires_grad=True)
        cfg2 = TrainConfig(batch_size=32, stage2_epochs=10, lr=1e-3)
        train_stage2(params, batch.patches, cfg2, adam, s_rng, d_rng)
        seg = segment(params, cube)
        s2_nmi = nmi(contingency(seg.labels.ravel(), truth))
        assert s2_nmi >= km_nmi - 0.05


class TestEmbedAll:
    def test_patch_shape_checked(self):
        _, _, params, _ = desk_setup()
        assert embed_all(params, np.zeros((3, 5, 5, 8))).shape == (3, 6)
        for patches in (np.zeros((1, 5, 5, 9)), np.zeros((1, 4, 5, 8)), np.zeros((5, 5, 8))):
            with pytest.raises(ShapeError):
                embed_all(params, patches)


def record_stripes(monkeypatch):
    """The latents of each stripe ``segment`` maps, in order."""
    stripes = []
    soft_assign = cae.soft_assign

    def recording(latents, centers):
        stripes.append(latents)
        return soft_assign(latents, centers)

    monkeypatch.setattr(cae, "soft_assign", recording)
    return stripes


class TestSegment:
    def _trained(self):
        cube = normalize(generate_cube(10, 11, 8, 3, seed=4, noise=0.03,
                                       layout="stripes"))
        config = cae.CaeConfig(**DESK)
        cfg = TrainConfig(batch_size=32, epsilon=0.0, stage1_max_epochs=6,
                          stage2_epochs=2, lr=1e-3)
        params, _ = run_training(cube, config, cfg, seed=6)
        return cube, params

    def test_untrained_rejected(self):
        cube, _, params, _ = desk_setup()
        with pytest.raises(StateError):
            segment(params, cube)

    def test_map_matches_cube_dimensions(self):
        cube, params = self._trained()
        seg = segment(params, cube)
        assert seg.labels.shape == (cube.height, cube.width)
        assert seg.labels.min() >= 1

    def test_band_mismatch_rejected(self):
        cube, params = self._trained()
        other = HsiCube(values=np.zeros((6, 6, 9)))
        with pytest.raises(ShapeError):
            segment(params, other)

    def test_identical_patches_identical_labels(self):
        _, params = self._trained()
        values = np.zeros((7, 7, 8))
        values[:, :, 2] = 0.7  # uniform scene: every patch identical
        seg = segment(params, HsiCube(values=values))
        assert len(np.unique(seg.labels)) == 1

    def test_pure_function(self):
        cube, params = self._trained()
        a = segment(params, cube).labels
        b = segment(params, cube).labels
        np.testing.assert_array_equal(a, b)

    def test_chunking_matches_single_pass(self, monkeypatch):
        cube, params = self._trained()
        whole = segment(params, cube).labels
        monkeypatch.setattr(train, "INFERENCE_CHUNK", 7)  # 110 pixels: a partial last chunk
        np.testing.assert_array_equal(segment(params, cube).labels, whole)

    @pytest.mark.parametrize("height, width", [(3, 9), (4, 4), (9, 3)])
    def test_scene_smaller_than_patch_rejected(self, height, width):
        _, params = self._trained()
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="exceeds scene extent"):
            segment(params, HsiCube(values=rng.random((height, width, 8))))

    @staticmethod
    def _odd_scene(config=cae.CaeConfig(**DESK), width=13, height=11):
        """A scene (13 wide and 11 high by default), random weights and
        centers, and the patchwise latents of every pixel."""
        cube = normalize(generate_cube(width, height, config.bands, 3, seed=2, noise=0.03))
        params = cae.build_cae(config, np.random.default_rng(1))
        params.centers = Tensor(np.random.default_rng(2).random((config.clusters,
                                                                 config.embedding_dim)))
        unlabeled = HsiCube(values=cube.values)
        return cube, params, embed_all(params, extract_patches(unlabeled).patches)

    def test_scene_encoder_matches_patchwise_latents(self, monkeypatch):
        """A chunk of the whole scene maps it in one stripe."""
        cube, params, expected = self._odd_scene()
        monkeypatch.setattr(train, "INFERENCE_CHUNK", 13 * 11)
        stripes = record_stripes(monkeypatch)
        segment(params, cube)
        assert len(stripes) == 1
        np.testing.assert_array_equal(stripes[0], expected)

    # 3-row stripes leave a 2-row last stripe; a chunk below the width
    # gives 1-row stripes
    @pytest.mark.parametrize("chunk, heights", [(3 * 13, [3, 3, 3, 2]), (5, [1] * 11)])
    def test_stripes_match_patchwise_latents(self, monkeypatch, chunk, heights):
        cube, params, expected = self._odd_scene()
        monkeypatch.setattr(train, "INFERENCE_CHUNK", chunk)
        stripes = record_stripes(monkeypatch)
        labels = segment(params, cube).labels
        assert [len(z) for z in stripes] == [13 * h for h in heights]
        np.testing.assert_array_equal(np.concatenate(stripes), expected)
        q = cae.soft_assign(expected, params.centers.data).data
        np.testing.assert_array_equal(labels.ravel(), q.argmax(axis=1) + 1)

    # 4- and 5-row stripes of the 9-wide scene give products of 36 and 45
    # rows, which two OpenBLAS threads round differently at 50 columns
    @pytest.mark.parametrize("chunk, embedding_dim", [
        (1, 25), (7, 25), (64, 25), (256, 25), (36, 50), (45, 50)],
        ids=["1", "7", "64", "256", "36-dim50", "45-dim50"])
    def test_stripes_match_at_paper_shape(self, monkeypatch, chunk, embedding_dim):
        """103 bands and 32 kernels: OpenBLAS would round the folded map's
        GEMM for a short stripe in another kernel unless it is padded (with
        two threads, also any product of up to 16 rows, or of 33 to N rows
        for some widths N)."""
        config = cae.CaeConfig(bands=103, embedding_dim=embedding_dim)
        cube, params, expected = self._odd_scene(config, 9, 8)
        monkeypatch.setattr(train, "INFERENCE_CHUNK", chunk)
        stripes = record_stripes(monkeypatch)
        segment(params, cube)
        np.testing.assert_array_equal(np.concatenate(stripes), expected)

    def test_background_pixels_labeled(self):
        cube, params = self._trained()
        labeled = HsiCube(values=cube.values, labels=np.zeros((cube.height, cube.width),
                                                              dtype=int))
        labeled.labels[0, 0] = 1
        seg = segment(params, labeled)
        assert seg.labels.min() >= 1  # background still gets a cluster


class TestRunTraining:
    def test_report_contents_and_determinism(self):
        cube = normalize(generate_cube(10, 10, 8, 3, seed=12, noise=0.03,
                                       layout="stripes"))
        config = cae.CaeConfig(**DESK)
        cfg = TrainConfig(batch_size=32, epsilon=0.0, stage1_max_epochs=4,
                          stage2_epochs=3, lr=1e-3)
        params_a, report_a = run_training(cube, config, cfg, seed=21)
        params_b, report_b = run_training(cube, config, cfg, seed=21)

        assert report_a.seed == 21
        assert report_a.stage1_epochs == len(report_a.stage1_losses) == 4
        assert len(report_a.stage2_losses) == 3
        assert report_a.stage1_losses == report_b.stage1_losses
        assert report_a.stage2_losses == report_b.stage2_losses
        for (name, a), (_, b) in zip(params_a.trainable_items(),
                                     params_b.trainable_items()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_background_pixels_excluded_from_training(self):
        cube = normalize(generate_cube(10, 10, 8, 3, seed=13, noise=0.03,
                                       layout="stripes"))
        cube.labels[:5, :] = 0  # mask half the scene
        config = cae.CaeConfig(**DESK)
        cfg = TrainConfig(batch_size=16, epsilon=0.0, stage1_max_epochs=2,
                          stage2_epochs=1, lr=1e-3)
        params, _ = run_training(cube, config, cfg, seed=3)
        seg = segment(params, cube)
        assert seg.labels.shape == (10, 10)  # background still mapped
