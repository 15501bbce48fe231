"""Command-line interface: exit codes, artifacts, and reproducibility."""

import json
import os
import subprocess
import sys
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hsiseg.archive import load_archive, save_archive
from hsiseg.autodiff import Tensor
from hsiseg.cae import CaeConfig, build_cae, save_checkpoint
from hsiseg.cli import RunConfig, build_parser, main
from hsiseg.cube import load_cube, load_labels, write_cube, write_labels
from hsiseg.errors import ParameterError
from hsiseg.synth import generate_cube
from hsiseg.train import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scene_dir(tmp_path):
    """A small labeled synthetic scene on disk."""
    assert run("synth", "--out", tmp_path / "scene", "--width", "10",
               "--height", "10", "--bands", "8", "--classes", "3",
               "--seed", "3", "--noise", "0.03", "--layout", "stripes") == 0
    return tmp_path / "scene"


TRAIN_CONFIG = {
    "clusters": 3,
    "embedding_dim": 6,
    "kernels_per_layer": 4,
    "kernel_depth": 3,
    "batch_size": 32,
    "epsilon": 0.0,
    "stage1_max_epochs": 4,
    "stage2_epochs": 2,
    "lr": 1e-3,
    "seed": 9,
}


def write_config(tmp_path, **overrides):
    cfg = {**TRAIN_CONFIG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynthAndConvert:
    def test_synth_writes_scene(self, scene_dir):
        cube = load_cube(scene_dir / "cube.hsic")
        labels = load_labels(scene_dir / "truth.gt")
        assert cube.values.shape == (10, 10, 8)
        assert sorted(np.unique(labels)) == [1, 2, 3]
        meta = json.loads((scene_dir / "synth.json").read_text())
        assert meta["signature_separation"] > 0

    def test_convert_npy_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=(6, 5, 7)).astype(np.float32)
        labels = rng.integers(0, 3, size=(6, 5))
        np.save(tmp_path / "values.npy", values)
        np.save(tmp_path / "labels.npy", labels)
        assert run("convert", "--values", tmp_path / "values.npy",
                   "--labels", tmp_path / "labels.npy",
                   "--out", tmp_path / "cube.hsic") == 0
        cube = load_cube(tmp_path / "cube.hsic")
        np.testing.assert_allclose(cube.values, values, atol=1e-7)
        np.testing.assert_array_equal(load_labels(tmp_path / "cube.gt"), labels)

    @pytest.mark.parametrize("labels", [np.full((6, 5), 1.7), np.full((6, 5), np.nan),
                                        np.full((6, 5), -1)],
                             ids=["float", "nan", "negative"])
    def test_convert_rejects_labels_that_are_not_class_ids(self, tmp_path, labels):
        """Labels must be non-negative integers: a float label is never rounded
        to a class, and nothing is written before the labels are checked."""
        np.save(tmp_path / "values.npy", np.ones((6, 5, 7)))
        np.save(tmp_path / "labels.npy", labels)
        (tmp_path / "out").mkdir()
        assert run("convert", "--values", tmp_path / "values.npy",
                   "--labels", tmp_path / "labels.npy",
                   "--out", tmp_path / "out" / "cube.hsic") == 1
        assert not any((tmp_path / "out").iterdir())

    def test_convert_bad_shape(self, tmp_path):
        np.save(tmp_path / "flat.npy", np.zeros((4, 4)))
        assert run("convert", "--values", tmp_path / "flat.npy",
                   "--out", tmp_path / "cube.hsic") == 1

    @pytest.mark.parametrize("flag", ["--values", "--labels", "--wavelengths"])
    @pytest.mark.parametrize("damage", ["empty", "truncated-header", "short-payload",
                                        "text", "object-array", "npz-archive"])
    def test_convert_unreadable_npy_is_format_error(self, tmp_path, capsys, flag, damage):
        """A file that is not a readable .npy array is a format error (exit 2)
        naming the file, and nothing is written."""
        good = {"--values": np.ones((6, 5, 7)), "--labels": np.ones((6, 5), dtype=int),
                "--wavelengths": np.arange(7.0)}
        paths = {}
        for name, array in good.items():
            paths[name] = tmp_path / f"{name[2:]}.npy"
            np.save(paths[name], array)
        bad = paths[flag]
        payload = bad.read_bytes()
        if damage == "object-array":
            np.save(bad, np.array([1, "a"], dtype=object), allow_pickle=True)
        elif damage == "npz-archive":
            with open(bad, "wb") as file:
                np.savez(file, array=good[flag])
        else:
            bad.write_bytes({"empty": b"", "truncated-header": payload[:20],
                             "short-payload": payload[:-8],
                             "text": b"1 2 3\n4 5 6\n"}[damage])
        (tmp_path / "out").mkdir()
        argv = [a for name, path in paths.items() for a in (name, path)]
        assert run("convert", *argv, "--out", tmp_path / "out" / "cube.hsic") == 2
        assert str(bad) in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())


class TestReduce:
    def test_smsi_band_count(self, tmp_path):
        cube = generate_cube(6, 6, 100, 2, seed=1)
        write_cube(cube, tmp_path / "big.hsic")
        assert run("reduce", "--cube", tmp_path / "big.hsic", "--method", "smsi",
                   "--dims", "25", "--out", tmp_path / "small.hsic") == 0
        assert load_cube(tmp_path / "small.hsic").bands == 25

    def test_pca_band_count(self, tmp_path):
        cube = generate_cube(8, 8, 12, 2, seed=2)
        write_cube(cube, tmp_path / "in.hsic")
        assert run("reduce", "--cube", tmp_path / "in.hsic", "--method", "pca",
                   "--dims", "5", "--out", tmp_path / "out.hsic") == 0
        assert load_cube(tmp_path / "out.hsic").bands == 5


def save_segmenter(path, extra_meta=None):
    """A checkpoint of an untrained 8-band model with random centers."""
    params = build_cae(CaeConfig(bands=8, clusters=3, kernels_per_layer=4,
                                 kernel_depth=3, embedding_dim=6),
                       np.random.default_rng(0))
    params.centers = Tensor(np.random.default_rng(1).random((3, 6)), requires_grad=True)
    save_checkpoint(params, path, extra_meta)


class TestTrainSegment:
    def test_train_then_segment(self, scene_dir, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--truth", scene_dir / "truth.gt", "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stage1_epochs"] == 4
        assert len(report["stage2_losses"]) <= 25
        assert report["config"]["clusters"] == 3
        assert (out / "checkpoint.zip").exists()
        timings = json.loads((out / "timings.json").read_text())
        assert {"reduction", "stage1", "stage2", "total_training"} <= set(timings["seconds"])

        assert run("segment", "--checkpoint", out / "checkpoint.zip",
                   "--cube", scene_dir / "cube.hsic",
                   "--out", tmp_path / "map.gt",
                   "--ppm", tmp_path / "map.ppm") == 0
        segmap = load_labels(tmp_path / "map.gt")
        assert segmap.shape == (10, 10)
        assert segmap.min() >= 1
        assert (tmp_path / "map.ppm").read_bytes().startswith(b"P6\n10 10\n")

    def test_missing_cube_is_io_error(self, tmp_path):
        config = write_config(tmp_path)
        assert run("train", "--config", config, "--cube", tmp_path / "absent.hsic",
                   "--out-dir", tmp_path / "out") == 2

    def test_bad_config_value(self, scene_dir, tmp_path):
        config = write_config(tmp_path, alpha=2.0)
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1

    @pytest.mark.parametrize("key, token", [("lr", "NaN"), ("lr", "Infinity"),
                                            ("epsilon", "NaN")])
    def test_non_finite_schedule_value_is_contract_error(self, scene_dir, tmp_path,
                                                         key, token):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace(f'"{key}": {TRAIN_CONFIG[key]}',
                                                     f'"{key}": {token}'))
        assert token in config.read_text()
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1
        assert not (tmp_path / "out" / "report.json").exists()

    def test_alpha_zero_accepted(self, scene_dir, tmp_path):
        """alpha = 0 is the diagnostic stage-1 continuation, not an error."""
        config = write_config(tmp_path, alpha=0.0, stage2_epochs=1)
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 0

    def test_diverging_training_exits_three(self, scene_dir, tmp_path):
        """A learning rate this large overflows the weights; the non-finite
        loss is a numerical error (exit 3), not a contract error."""
        config = write_config(tmp_path, lr=1e300)
        with np.errstate(all="ignore"):
            assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                       "--out-dir", tmp_path / "out") == 3

    def test_unknown_config_key(self, scene_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "warp_factor": 9}))
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1

    def test_usage_error_is_contract_error(self):
        assert run("train", "--cube") == 1

    @pytest.mark.parametrize("content", ["[1, 2]", '"config"', "3"])
    def test_non_object_config_is_contract_error(self, scene_dir, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_text(content)
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1

    @pytest.mark.parametrize("override", [{"batch_size": "8"}, {"clusters": "3"},
                                          {"stage2_epochs": True}])
    def test_mistyped_config_value_is_contract_error(self, scene_dir, tmp_path, override):
        config = write_config(tmp_path, **override)
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1
        assert not (tmp_path / "out" / "report.json").exists()

    def test_corrupt_checkpoint_payload_is_format_error(self, scene_dir, tmp_path):
        """A truncated tensor payload is an I/O/format error (exit 2)."""
        params = build_cae(CaeConfig(bands=8, clusters=3, kernels_per_layer=4,
                                     kernel_depth=3, embedding_dim=6),
                           np.random.default_rng(0))
        params.centers = Tensor(np.zeros((3, 6)), requires_grad=True)
        save_checkpoint(params, tmp_path / "good.zip")
        with zipfile.ZipFile(tmp_path / "good.zip") as zin, \
                zipfile.ZipFile(tmp_path / "bad.zip", "w") as zout:
            for info in zin.infolist():
                payload = zin.read(info)
                if info.filename == "tensors/enc_conv1_b.bin":
                    payload = payload[:-5]
                zout.writestr(info, payload)
        assert run("segment", "--checkpoint", tmp_path / "good.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "good.gt") == 0
        assert run("segment", "--checkpoint", tmp_path / "bad.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "bad.gt") == 2

    @pytest.mark.parametrize("entry, content", [("manifest.json", b'["x"]'),
                                                ("meta.json", b"[1, 2]"),
                                                ("meta.json", b"\x80abc")])
    def test_malformed_checkpoint_metadata_is_format_error(self, scene_dir, tmp_path,
                                                           entry, content):
        """A manifest that is not a list of objects, or a meta.json that is not
        an object or not UTF-8, is an I/O/format error (exit 2), not a traceback."""
        params = build_cae(CaeConfig(bands=8, clusters=3, kernels_per_layer=4,
                                     kernel_depth=3, embedding_dim=6),
                           np.random.default_rng(0))
        save_checkpoint(params, tmp_path / "good.zip")
        with zipfile.ZipFile(tmp_path / "good.zip") as zin, \
                zipfile.ZipFile(tmp_path / "bad.zip", "w") as zout:
            for info in zin.infolist():
                zout.writestr(info, content if info.filename == entry else zin.read(info))
        assert run("segment", "--checkpoint", tmp_path / "bad.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "bad.gt") == 2

    def test_checkpoint_naming_a_tensor_twice_is_format_error(self, scene_dir, tmp_path):
        """A manifest that lists one tensor twice is an I/O/format error (exit 2):
        neither entry silently wins."""
        save_segmenter(tmp_path / "good.zip")
        with zipfile.ZipFile(tmp_path / "good.zip") as zin, \
                zipfile.ZipFile(tmp_path / "bad.zip", "w") as zout:
            for info in zin.infolist():
                payload = zin.read(info)
                if info.filename == "manifest.json":
                    manifest = json.loads(payload)
                    payload = json.dumps(manifest + manifest[:1]).encode()
                zout.writestr(info, payload)
        assert run("segment", "--checkpoint", tmp_path / "good.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "good.gt") == 0
        assert run("segment", "--checkpoint", tmp_path / "bad.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "bad.gt") == 2
        assert not (tmp_path / "bad.gt").exists()

    @pytest.mark.parametrize("pipeline", [[1],
                                          {"reduction": "bogus", "normalized": True},
                                          {"reduction": "none", "normalized": "yes"}])
    def test_malformed_pipeline_is_format_error(self, scene_dir, tmp_path, pipeline):
        """The preprocessing a checkpoint asks segment to replay is checked:
        a block that is not an object, an unknown reduction or a non-bool
        normalized flag is an I/O/format error (exit 2)."""
        save_segmenter(tmp_path / "good.zip",
                       {"pipeline": {"reduction": "none", "normalized": True}})
        save_segmenter(tmp_path / "bad.zip", {"pipeline": pipeline})
        assert run("segment", "--checkpoint", tmp_path / "good.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "good.gt") == 0
        assert run("segment", "--checkpoint", tmp_path / "bad.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "bad.gt") == 2
        assert not (tmp_path / "bad.gt").exists()

    @pytest.mark.parametrize("key, value", [("bands", 8.0), ("kernel_depth", 3.0),
                                            ("kernels_per_layer", 4.0), ("clusters", 3.0)])
    def test_mistyped_stored_config_is_format_error(self, scene_dir, tmp_path, key, value):
        """A stored architecture value of the wrong type (a float where an int
        is declared) makes the checkpoint invalid (exit 2), not a traceback."""
        save_segmenter(tmp_path / "model.zip")
        meta, arrays = load_archive(tmp_path / "model.zip")
        meta["config"][key] = value
        save_archive(tmp_path / "model.zip", meta, list(arrays.items()))
        assert run("segment", "--checkpoint", tmp_path / "model.zip",
                   "--cube", scene_dir / "cube.hsic", "--out", tmp_path / "map.gt") == 2
        assert not (tmp_path / "map.gt").exists()

    def test_segment_takes_no_truth(self, scene_dir, tmp_path):
        """segment labels every pixel whatever the ground truth says, so it
        accepts none: --truth is a usage error (exit 1)."""
        save_segmenter(tmp_path / "model.zip")
        assert run("segment", "--checkpoint", tmp_path / "model.zip",
                   "--cube", scene_dir / "cube.hsic", "--truth", scene_dir / "truth.gt",
                   "--out", tmp_path / "map.gt") == 1
        assert not (tmp_path / "map.gt").exists()

    def test_segment_sidecar_reports_throughput(self, scene_dir, tmp_path):
        """The wall-clock pixel rate goes to the timings sidecar only; the
        map stays byte-identical across runs."""
        save_segmenter(tmp_path / "model.zip")
        maps = []
        for name in ("a", "b"):
            out = tmp_path / name / "map.gt"
            out.parent.mkdir()
            assert run("segment", "--checkpoint", tmp_path / "model.zip",
                       "--cube", scene_dir / "cube.hsic", "--out", out) == 0
            timings = json.loads((out.parent / "map_timings.json").read_text())
            assert timings["px_per_s"] > 0
            assert "px_per_s" not in out.read_text()
            maps.append(out.read_bytes() + (out.parent / "map.gt.raw").read_bytes())
        assert maps[0] == maps[1]

    def test_non_utf8_cube_header_is_format_error(self, scene_dir, tmp_path):
        save_segmenter(tmp_path / "model.zip")
        header = scene_dir / "cube.hsic"
        header.write_bytes(b"\x80" + header.read_bytes())
        assert run("segment", "--checkpoint", tmp_path / "model.zip",
                   "--cube", header, "--out", tmp_path / "map.gt") == 2

    def test_non_utf8_config_is_contract_error(self, scene_dir, tmp_path):
        """An unreadable config is a contract error like any invalid config JSON."""
        config = write_config(tmp_path)
        config.write_bytes(b"\x80" + config.read_bytes())
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1

    def test_checkpoint_band_mismatch(self, scene_dir, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", out) == 0
        other = generate_cube(8, 8, 12, 2, seed=5)
        write_cube(other, tmp_path / "other.hsic")
        assert run("segment", "--checkpoint", out / "checkpoint.zip",
                   "--cube", tmp_path / "other.hsic",
                   "--out", tmp_path / "map.gt") == 1

    def test_deterministic_artifacts(self, scene_dir, tmp_path):
        """Same config and seed twice: byte-identical checkpoint and report."""
        config = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("train", "--config", config, "--cube", scene_dir / "cube.hsic",
                       "--truth", scene_dir / "truth.gt", "--out-dir", out) == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.zip").read_bytes() == (b / "checkpoint.zip").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


# runs each command line of a JSON list through the CLI, stopping at the first failure
PIPELINE = """
import json, sys
from hsiseg.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def artifacts_at_blas_threads(tmp_path, commands, names):
    """Run the CLI ``commands(out)`` at one and then two OpenBLAS threads,
    each count in a process of its own (OpenBLAS reads it when numpy loads),
    and return the bytes of the files ``names`` under each run's ``out``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", PIPELINE,
             json.dumps([[str(a) for a in argv] for argv in commands(out)])],
            env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        artifacts.append([(out / name).read_bytes() for name in names])
    return artifacts


class TestBlasThreads:
    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        """synth, train and segment on the CLI scene write the same bytes at
        one and two BLAS threads.  One batch holds all 100 patches: batches
        of 32 are too small for OpenBLAS to thread their sums, so a sum moved
        into a threaded product would not show."""
        def commands(out):
            config = write_config(out, batch_size=100)
            return [
                ["synth", "--out", out / "scene", "--width", "10", "--height", "10",
                 "--bands", "8", "--classes", "3", "--seed", "3", "--noise", "0.03",
                 "--layout", "stripes"],
                ["train", "--config", config, "--cube", out / "scene" / "cube.hsic",
                 "--truth", out / "scene" / "truth.gt", "--out-dir", out / "run"],
                ["segment", "--checkpoint", out / "run" / "checkpoint.zip",
                 "--cube", out / "scene" / "cube.hsic", "--out", out / "map.gt"]]
        artifacts = artifacts_at_blas_threads(
            tmp_path, commands, ("map.gt", "run/report.json", "run/checkpoint.zip"))
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("method", ["gmm", "kmeans"])
    def test_smsi_baseline_independent_of_blas_threads(self, tmp_path, method):
        """The S-MSI GMM and k-means baselines write the same bytes at one
        and two BLAS threads.  At 2304 points each GMM component's E-step and
        M-step products exceed 10^6 multiply-adds, so OpenBLAS threads them;
        a k-means distance product is 4 x 2304 x 25 multiply-adds.  (Under
        PCA the covariance product inside pca_fit is thread-dependent; see
        README.)"""
        def commands(out):
            return [
                ["synth", "--out", out / "scene", "--width", "48", "--height", "48",
                 "--bands", "30", "--classes", "4", "--seed", "3", "--noise", "0.3",
                 "--layout", "voronoi"],
                ["baseline", "--method", method, "--reduction", "smsi", "--clusters", "4",
                 "--seed", "0", "--cube", out / "scene" / "cube.hsic",
                 "--truth", out / "scene" / "truth.gt", "--out-dir", out / "run"]]
        artifacts = artifacts_at_blas_threads(
            tmp_path, commands, ("run/model.zip", "run/map.gt", "run/metrics.json"))
        assert artifacts[0] == artifacts[1]


# every key a --config file may set, with its default
DOCUMENTED_DEFAULTS = {
    "seed": 0, "reduction": "none",
    "clusters": 2, "patch_spatial": 5, "kernels_per_layer": 32, "kernel_spatial": 3,
    "kernel_depth": 9, "embedding_dim": 25, "dropout_p": 0.5,
    "batch_size": 256, "epsilon": 1e-6, "stage1_max_epochs": 500, "stage2_epochs": 25,
    "alpha": 0.1, "lr": 1e-4,
}


class TestRunConfig:
    def test_keys_are_run_architecture_and_schedule_fields(self):
        """The flat keys are the run fields plus CaeConfig (minus bands) plus
        TrainConfig, each owned by exactly one of them."""
        run_keys = {f.name for f in fields(RunConfig)} - {"arch", "schedule"}
        arch_keys = {f.name for f in fields(CaeConfig)} - {"bands"}
        schedule_keys = {f.name for f in fields(TrainConfig)}
        assert run_keys == {"seed", "reduction"}
        assert not (run_keys & arch_keys or run_keys & schedule_keys
                    or arch_keys & schedule_keys)
        assert run_keys | arch_keys | schedule_keys == set(DOCUMENTED_DEFAULTS)

    def test_defaults(self):
        assert RunConfig().to_dict() == DOCUMENTED_DEFAULTS
        assert RunConfig.load(None, {}).to_dict() == DOCUMENTED_DEFAULTS

    def test_accepts_every_documented_key(self, tmp_path):
        values = {**DOCUMENTED_DEFAULTS, "seed": 4, "clusters": 5, "kernel_depth": 3,
                  "batch_size": 8, "alpha": 0.0, "reduction": "pca"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        config = RunConfig.load(path, {"seed": None, "clusters": 6})
        assert config.to_dict() == {**values, "clusters": 6}
        assert config.schedule == TrainConfig(batch_size=8, alpha=0.0)
        assert CaeConfig(bands=20, **config.arch) == CaeConfig(bands=20, clusters=6,
                                                               kernel_depth=3)

    @pytest.mark.parametrize("key", ["warp_factor", "bands", "arch", "schedule"])
    def test_rejects_unknown_key(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: 1}))
        with pytest.raises(ParameterError, match=key):
            RunConfig.load(path, {})

    def test_schedule_knobs_checked_at_load(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"alpha": 1.0}))
        with pytest.raises(ParameterError, match="loss weight"):
            RunConfig.load(path, {})

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_method_is_not_a_config_key(self, scene_dir, tmp_path, command):
        """The clusterer is the baseline's --method flag; no config file sets it."""
        config = write_config(tmp_path, method="kmeans")
        flags = ["--method", "kmeans"] if command == "baseline" else []
        assert run(command, *flags, "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "baseline"])
    @pytest.mark.parametrize("override", [{"kernel_depth": -5}, {"dropout_p": 7.0},
                                          {"kernels_per_layer": 0}])
    def test_architecture_checked_at_load(self, scene_dir, tmp_path, command, override):
        """Every command checks the architecture knobs before it reads the
        cube or creates its output directory, baseline included."""
        config = write_config(tmp_path, **override)
        flags = ["--method", "kmeans"] if command == "baseline" else []
        assert run(command, *flags, "--config", config, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", sorted(DOCUMENTED_DEFAULTS))
    def test_owners_check_types_when_built_directly(self, key):
        """CaeConfig, TrainConfig and RunConfig built without RunConfig.load
        reject a bool and a string for every key, and a float for every int
        key: the library and the CLI share one type rule."""
        bad = [True, "3"] + [3.0] * (type(DOCUMENTED_DEFAULTS[key]) is int)
        if key in {f.name for f in fields(CaeConfig)}:
            owners = [lambda v: CaeConfig(bands=20, **{key: v}),
                      lambda v: RunConfig(arch={key: v})]
        elif key in {f.name for f in fields(TrainConfig)}:
            owners = [lambda v: TrainConfig(**{key: v})]
        else:
            owners = [lambda v: RunConfig(**{key: v})]
        for build in owners:
            build(DOCUMENTED_DEFAULTS[key])
            for value in bad:
                with pytest.raises(ParameterError, match=key):
                    build(value)

    def test_values_checked_against_declared_types(self, tmp_path):
        """An int is accepted where a float is declared; a bool is never an int."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"alpha": 0, "lr": 1, "dropout_p": 0, "epsilon": 0}))
        assert RunConfig.load(path, {}).schedule == TrainConfig(alpha=0, lr=1, epsilon=0)
        for key, value in [("seed", True), ("batch_size", 8.0), ("kernel_depth", "3"),
                           ("lr", "0.1"), ("lr", False), ("reduction", 1),
                           ("reduction", None), ("clusters", [3])]:
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ParameterError, match=key):
                RunConfig.load(path, {})


class TestBaseline:
    def test_kmeans_recovers_synthetic_classes(self, tmp_path):
        assert run("synth", "--out", tmp_path / "scene", "--width", "14",
                   "--height", "14", "--bands", "10", "--classes", "3",
                   "--seed", "6", "--noise", "0.02") == 0
        out = tmp_path / "km"
        assert run("baseline", "--method", "kmeans",
                   "--cube", tmp_path / "scene" / "cube.hsic",
                   "--truth", tmp_path / "scene" / "truth.gt",
                   "--clusters", "3", "--seed", "0", "--out-dir", out) == 0
        scores = json.loads((out / "metrics.json").read_text())
        assert scores["ars"] >= 0.95
        assert (out / "map.gt").exists() and (out / "model.zip").exists()

    def test_gmm_writes_model(self, scene_dir, tmp_path):
        out = tmp_path / "gmm"
        assert run("baseline", "--method", "gmm", "--cube", scene_dir / "cube.hsic",
                   "--clusters", "3", "--seed", "1", "--out-dir", out) == 0
        from hsiseg.archive import load_archive
        meta, arrays = load_archive(out / "model.zip")
        assert meta["format"] == "hsiseg-gmm"
        assert set(arrays) == {"weights", "means", "covariances"}

    @pytest.mark.parametrize("method, fmt, meta_keys, tensors", [
        ("kmeans", "hsiseg-kmeans", {"format", "config", "inertia", "iterations"},
         ["centers"]),
        ("gmm", "hsiseg-gmm", {"format", "config", "log_likelihood_trace"},
         ["weights", "means", "covariances"])])
    def test_model_archive_layout(self, scene_dir, tmp_path, method, fmt, meta_keys,
                                  tensors):
        """model.zip holds the fitted model: its arrays as tensors in field
        order, its other fields plus the format and run config in meta.json."""
        out = tmp_path / method
        assert run("baseline", "--method", method, "--cube", scene_dir / "cube.hsic",
                   "--clusters", "3", "--seed", "1", "--out-dir", out) == 0
        with zipfile.ZipFile(out / "model.zip") as zf:
            meta = json.loads(zf.read("meta.json"))
            manifest = json.loads(zf.read("manifest.json"))
        assert meta["format"] == fmt
        assert set(meta) == meta_keys
        assert meta["config"]["method"] == method
        assert [entry["name"] for entry in manifest] == tensors

    @pytest.mark.parametrize("content", ["[1, 2]", '{"batch_size": "8"}',
                                         '{"clusters": "3"}', '{"seed": true}'])
    def test_malformed_config_is_contract_error(self, scene_dir, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_text(content)
        assert run("baseline", "--method", "kmeans", "--config", config,
                   "--cube", scene_dir / "cube.hsic", "--out-dir", tmp_path / "x") == 1
        assert not (tmp_path / "x").exists()

    def test_single_cluster_rejected(self, scene_dir, tmp_path):
        assert run("baseline", "--method", "gmm", "--cube", scene_dir / "cube.hsic",
                   "--clusters", "1", "--out-dir", tmp_path / "x") == 1

    def test_numerical_failure_exits_three(self, scene_dir, tmp_path, monkeypatch):
        from hsiseg import cli
        from hsiseg.errors import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("covariance collapsed")

        monkeypatch.setattr(cli.clustering, "gmm_em", explode)
        assert run("baseline", "--method", "gmm", "--cube", scene_dir / "cube.hsic",
                   "--clusters", "3", "--out-dir", tmp_path / "x") == 3

    def test_reduction_smsi(self, tmp_path):
        cube = generate_cube(8, 8, 100, 2, seed=7)
        write_cube(cube, tmp_path / "big.hsic")
        write_labels(cube.labels, tmp_path / "big.gt")
        out = tmp_path / "red"
        assert run("baseline", "--method", "kmeans", "--cube", tmp_path / "big.hsic",
                   "--truth", tmp_path / "big.gt", "--clusters", "2",
                   "--reduction", "smsi", "--seed", "0", "--out-dir", out) == 0
        scores = json.loads((out / "metrics.json").read_text())
        assert scores["n"] == 64


class TestRunFlags:
    @pytest.mark.parametrize("command, own", [("train", ["--alpha", "0.5"]),
                                              ("baseline", ["--method", "gmm"])])
    def test_train_and_baseline_share_seven_flags(self, command, own):
        args = build_parser().parse_args([
            command, *own, "--config", "run.json", "--cube", "scene.hsic",
            "--truth", "truth.gt", "--out-dir", "out", "--seed", "4",
            "--clusters", "5", "--reduction", "pca"])
        assert (args.config, args.cube, args.truth, args.out_dir, args.seed,
                args.clusters, args.reduction) == ("run.json", "scene.hsic", "truth.gt",
                                                   "out", 4, 5, "pca")

    @pytest.mark.parametrize("argv", [["baseline", "--method", "kmeans", "--alpha", "0.1"],
                                      ["train", "--method", "kmeans"]],
                             ids=["baseline-alpha", "train-method"])
    def test_flag_of_the_other_command_is_usage_error(self, scene_dir, tmp_path, argv):
        """--alpha is train's alone and --method baseline's alone."""
        assert run(*argv, "--cube", scene_dir / "cube.hsic",
                   "--out-dir", tmp_path / "x") == 1
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_identical_map_scores_one(self, tmp_path, capsys):
        labels = np.array([[1, 2], [3, 1]])
        write_labels(labels, tmp_path / "map.gt")
        write_labels(labels, tmp_path / "truth.gt")
        assert run("evaluate", "--map", tmp_path / "map.gt",
                   "--truth", tmp_path / "truth.gt",
                   "--out", tmp_path / "metrics.json") == 0
        scores = json.loads((tmp_path / "metrics.json").read_text())
        assert scores["nmi"] == 1.0 and scores["ars"] == 1.0

    def test_hand_fixture_values(self, tmp_path):
        """Crossed labelings: NMI 0 and ARS -1/2, matching the hand table."""
        write_labels(np.array([[1, 1], [2, 2]]), tmp_path / "map.gt")
        write_labels(np.array([[1, 2], [1, 2]]), tmp_path / "truth.gt")
        assert run("evaluate", "--map", tmp_path / "map.gt",
                   "--truth", tmp_path / "truth.gt",
                   "--out", tmp_path / "m.json") == 0
        scores = json.loads((tmp_path / "m.json").read_text())
        assert scores["nmi"] == 0.0
        assert scores["ars"] == pytest.approx(-0.5)

    def test_all_background_truth(self, tmp_path):
        write_labels(np.array([[1, 2], [1, 2]]), tmp_path / "map.gt")
        write_labels(np.zeros((2, 2), dtype=int), tmp_path / "truth.gt")
        assert run("evaluate", "--map", tmp_path / "map.gt",
                   "--truth", tmp_path / "truth.gt") == 1

    def test_non_utf8_header_is_format_error(self, tmp_path):
        write_labels(np.ones((2, 2), dtype=int), tmp_path / "map.gt")
        write_labels(np.ones((2, 2), dtype=int), tmp_path / "truth.gt")
        header = tmp_path / "truth.gt"
        header.write_bytes(b"\x80" + header.read_bytes())
        assert run("evaluate", "--map", tmp_path / "map.gt", "--truth", header) == 2

    def test_dimension_mismatch(self, tmp_path):
        write_labels(np.ones((2, 2), dtype=int), tmp_path / "map.gt")
        write_labels(np.ones((3, 2), dtype=int), tmp_path / "truth.gt")
        assert run("evaluate", "--map", tmp_path / "map.gt",
                   "--truth", tmp_path / "truth.gt") == 1
