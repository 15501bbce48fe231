"""Command-line front end and experiment harness.

Subcommands: synth, convert, reduce, train, segment, baseline, evaluate.
Every artifact embeds the resolved configuration so runs are
self-describing, and everything is deterministic under (config, seed); wall
times go to a ``timings.json`` sidecar (and stderr) so the primary JSON
artifacts are byte-reproducible.  A ``train`` checkpoint stores the run keys
its model does not hold; ``segment`` rebuilds the run from them and the model
through :class:`RunConfig` to replay its preprocessing.

Exit codes: 0 success, 1 contract/configuration error, 2 I/O error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import cae, clustering, metrics, reduction, synth, train
from .archive import save_archive
from .cube import (HsiCube, load_cube, load_labels, normalize, write_cube,
                   write_labels, write_ppm)
from .errors import (DataError, FormatError, HsisegError, NumericalError,
                     ParameterError, check_knobs)

REDUCTIONS = ("none", "pca", "smsi", "external")


# architecture knobs (CaeConfig's fields but bands, which the cube fixes) and defaults
ARCH_DEFAULTS = {f.name: f.default for f in fields(cae.CaeConfig) if f.name != "bands"}


@dataclass
class RunConfig:
    """Everything a training run depends on; a baseline run adds its ``--method``.

    A config file is one flat JSON object.  :meth:`load` hands each key to
    its owner: the run-level keys stay here, the architecture keys go to
    ``arch`` (the :class:`~hsiseg.cae.CaeConfig` fields but ``bands``) and
    the schedule keys to ``schedule`` (a :class:`~hsiseg.train.TrainConfig`).
    Building one checks every key, ``arch`` through
    :meth:`~hsiseg.cae.CaeConfig.check_architecture`, before any file is read.
    ``segment`` replays a checkpoint's run keys and model architecture through :meth:`from_dict`.
    """

    seed: int = 0
    reduction: str = "none"
    arch: dict = field(default_factory=lambda: dict(ARCH_DEFAULTS))
    schedule: train.TrainConfig = field(default_factory=train.TrainConfig)

    def __post_init__(self):
        check_knobs(RunConfig, vars(self), {
            "seed": (lambda v: v >= 0, "seed must be non-negative"),
            "reduction": (lambda v: v in REDUCTIONS, f"reduction must be one of {REDUCTIONS}")})
        cae.CaeConfig.check_architecture(self.arch)

    def to_dict(self) -> dict:
        """The flat key/value form that config files and artifacts use."""
        flat = asdict(self)
        return {**flat.pop("arch"), **flat.pop("schedule"), **flat}

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        """The config of flat keys ``data`` (absent keys take their defaults);
        anything but a JSON object of known, valid keys is a :class:`ParameterError`."""
        if not isinstance(data, dict):
            raise ParameterError(f"a run config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls().to_dict())
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        arch = {k: data.pop(k, default) for k, default in ARCH_DEFAULTS.items()}
        schedule = train.TrainConfig(**{f.name: data.pop(f.name)
                                        for f in fields(train.TrainConfig) if f.name in data})
        return cls(**data, arch=arch, schedule=schedule)

    @classmethod
    def load(cls, path: str | Path | None, overrides: dict) -> "RunConfig":
        """The config file ``path`` (None: no file) under the non-None ``overrides``."""
        data = {}
        if path is not None:
            try:
                data = json.loads(Path(path).read_text())
            except OSError as exc:
                raise DataError(f"cannot read config {path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
        if isinstance(data, dict):
            data.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(data)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _preprocess(cube: HsiCube, method: str, dims: int, *, normalized: bool) -> HsiCube:
    """Min-max normalize ``cube`` when asked, then apply reduction ``method``
    down to ``dims`` bands ("none" and "external" keep the bands as they are)."""
    if normalized:
        cube = normalize(cube)
    if method == "pca":
        return reduction.pca_reduce(cube, dims)
    if method == "smsi":
        return reduction.smsi_reduce(cube, dims)
    return cube


def _load_npy(path: str | None) -> np.ndarray | None:
    """The array in the ``.npy`` file ``path``, or None when no path is given."""
    if not path:
        return None
    with open(path, "rb") as file:
        try:  # read_array reads .npy alone: no pickles, no .npz archives
            return np.lib.format.read_array(file)
        except ValueError as exc:
            raise FormatError(f"{path} is not a readable .npy array: {exc}") from exc


def _start_run(args) -> tuple[RunConfig, Path, HsiCube, float]:
    """(config, output directory, preprocessed cube, preprocessing seconds) of a
    ``train`` or ``baseline`` run; the config is checked before the disk is touched."""
    config = RunConfig.load(args.config, {
        key: getattr(args, key, None) for key in ("seed", "clusters", "alpha", "reduction")})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube = load_cube(args.cube)
    if args.truth is not None:
        cube = HsiCube(cube.values, load_labels(args.truth), cube.wavelengths)
    t0 = time.perf_counter()
    cube = _preprocess(cube, config.reduction, config.arch["embedding_dim"], normalized=True)
    return config, out, cube, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cube = synth.generate_cube(width=args.width, height=args.height,
                               bands=args.bands, classes=args.classes,
                               seed=args.seed, noise=args.noise,
                               layout=args.layout)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cube(cube, out / "cube.hsic")
    write_labels(cube.labels, out / "truth.gt")
    signatures = synth.class_signatures(args.classes, args.bands)
    _write_json(out / "synth.json", {
        "config": {"width": args.width, "height": args.height, "bands": args.bands,
                   "classes": args.classes, "seed": args.seed, "noise": args.noise,
                   "layout": args.layout},
        "signature_separation": synth.signature_separation(signatures),
    })
    return 0


def cmd_convert(args) -> int:
    cube = HsiCube(_load_npy(args.values), _load_npy(args.labels),
                   _load_npy(args.wavelengths))
    write_cube(cube, args.out)
    if cube.labels is not None:
        write_labels(cube.labels, args.out_truth or Path(args.out).with_suffix(".gt"))
    return 0


def cmd_reduce(args) -> int:
    cube = _preprocess(load_cube(args.cube), args.method, args.dims, normalized=False)
    write_cube(cube, args.out)
    return 0


def cmd_train(args) -> int:
    config, out, cube, reduction_sec = _start_run(args)
    arch = cae.CaeConfig(bands=cube.bands, **config.arch)
    params, report = train.run_training(cube, arch, config.schedule, config.seed)
    flat = config.to_dict()
    cae.save_checkpoint(params, out / "checkpoint.zip",
                        run_config={k: v for k, v in flat.items() if k not in ARCH_DEFAULTS})
    _write_json(out / "report.json", {"config": flat, **report.to_dict()})
    _write_json(out / "timings.json", {
        "config": flat,
        "seconds": {"reduction": reduction_sec, **report.phase_seconds,
                    "total_training": report.wall_time},
    })
    print(f"stage 1: {report.stage1_epochs} epochs, "
          f"stage 2: {len(report.stage2_losses)} epochs, "
          f"{report.wall_time:.1f}s", file=sys.stderr)
    return 0


def cmd_segment(args) -> int:
    """Label a cube; a checkpoint's run keys and model architecture, checked as a
    config file is, replay its preprocessing, and a library checkpoint replays none."""
    cube = load_cube(args.cube)
    t0 = time.perf_counter()
    params, meta = cae.load_checkpoint(args.checkpoint)
    config, work = {}, cube
    if "run_config" in meta:
        try:
            run = RunConfig.from_dict({**meta["run_config"], **{
                k: getattr(params.config, k) for k in ARCH_DEFAULTS}})
        except ParameterError as exc:
            raise FormatError(f"{args.checkpoint}: invalid stored run config: {exc}") from exc
        config = run.to_dict()
        work = _preprocess(cube, run.reduction, params.config.embedding_dim, normalized=True)
    segmap = train.segment(params, work)
    inference_sec = time.perf_counter() - t0
    write_labels(segmap.labels, args.out)
    if args.ppm:
        write_ppm(segmap, args.ppm)
    sidecar = Path(args.out).with_name(Path(args.out).stem + "_timings.json")
    _write_json(sidecar, {"config": config,
                          "seconds": {"inference": inference_sec},
                          "px_per_s": cube.height * cube.width / inference_sec})
    return 0


def cmd_baseline(args) -> int:
    config, out, cube, reduction_sec = _start_run(args)
    fit = clustering.kmeans if args.method == "kmeans" else clustering.gmm_em
    points = cube.pixel_matrix()
    flat_config = {**config.to_dict(), "method": args.method}
    t0 = time.perf_counter()
    model, flat = fit(points, config.arch["clusters"], seed=config.seed)
    cluster_sec = time.perf_counter() - t0

    labels = flat.reshape(cube.height, cube.width) + 1
    write_labels(labels, out / "map.gt")
    # the model's array fields are its tensors, its other fields go to meta.json
    fitted = vars(model)
    save_archive(out / "model.zip",
                 {"format": f"hsiseg-{args.method}", "config": flat_config,
                  **{k: v for k, v in fitted.items() if not isinstance(v, np.ndarray)}},
                 [(k, v) for k, v in fitted.items() if isinstance(v, np.ndarray)])
    if cube.labels is not None:
        scores = metrics.evaluate_labelings(labels, cube.labels)
        _write_json(out / "metrics.json", {"config": flat_config, **scores})
    _write_json(out / "timings.json", {
        "config": flat_config,
        "seconds": {"reduction": reduction_sec, "clustering": cluster_sec},
    })
    return 0


def cmd_evaluate(args) -> int:
    predicted = load_labels(args.map)
    truth = load_labels(args.truth)
    scores = metrics.evaluate_labelings(predicted, truth)
    payload = {"config": {"map": str(args.map), "truth": str(args.truth)}, **scores}
    text = json.dumps(payload, sort_keys=True, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are contract errors, not exit 2
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsiseg",
                     description="Unsupervised hyperspectral image segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)  # what train and baseline share
    run_flags.add_argument("--config", help="JSON run configuration")
    run_flags.add_argument("--cube", required=True)
    run_flags.add_argument("--truth", help="ground truth: train skips its background, "
                                           "baseline scores its map against it")
    run_flags.add_argument("--out-dir", required=True)
    run_flags.add_argument("--seed", type=int)
    run_flags.add_argument("--clusters", type=int)
    run_flags.add_argument("--reduction", choices=REDUCTIONS)

    p = sub.add_parser("synth", help="generate a labeled synthetic scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--bands", type=int, default=40)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--layout", choices=("voronoi", "stripes"), default="voronoi")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="convert .npy arrays to the cube format")
    p.add_argument("--values", required=True, help="(height, width, bands) .npy file")
    p.add_argument("--labels", help="(height, width) .npy label map")
    p.add_argument("--wavelengths", help="(bands,) .npy band centers")
    p.add_argument("--out", required=True, help="output .hsic header path")
    p.add_argument("--out-truth", help="output .gt path (default: alongside cube)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("reduce", help="reduce a cube's spectral dimensionality")
    p.add_argument("--cube", required=True)
    p.add_argument("--method", choices=("pca", "smsi"), required=True)
    p.add_argument("--dims", type=int, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("train", parents=[run_flags],
                       help="two-stage training of the autoencoder")
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="label every pixel with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out", required=True, help="output .gt raster path")
    p.add_argument("--ppm", help="also write a color visualization")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("baseline", parents=[run_flags],
                       help="classical clustering over pixel spectra")
    p.add_argument("--method", choices=("kmeans", "gmm"), required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="score a segmentation map against ground truth")
    p.add_argument("--map", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"hsiseg: i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"hsiseg: numerical error: {exc}", file=sys.stderr)
        return 3
    except (HsisegError, ValueError) as exc:
        print(f"hsiseg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
