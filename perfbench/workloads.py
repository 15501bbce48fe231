"""The benchmark's workloads: inputs made from a seed, one operation each,
and the correctness checks run on every operation's outputs.

Every scene comes from ``synth.generate_cube``, so nothing is downloaded.
``prepare`` is the set-up (scene synthesis and normalisation); ``run``
is one timed operation on the prepared inputs.  Operations are
deterministic given the inputs, so repeating one repeats its counts
exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

ARS_TOL = 1e-12       # the two adjusted-rand routes agree this closely (criterion 3)
NMI_FLOOR = 0.85      # train-small map quality after its fixed 5+2 epochs
EM_DROP_TOL = 1e-9    # largest EM log-likelihood drop, relative to |log-likelihood|;
                      # once EM has converged, rounding moves it by ~1e-11


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class OpResult:
    """What one operation produced: timings, work done, quality, checks."""

    seconds: dict[str, list[float]]  # timed samples by stage
    work: dict[str, int]
    nmi: float | None  # reported only where a quality floor applies
    checks: list[Check] = field(default_factory=list)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _check_map(hs, name: str, labels, truth, clusters: int, checks: list[Check]) -> None:
    """Every pixel labelled in 1..clusters; both adjusted-rand routes agree."""
    labels = np.asarray(labels)
    lo, hi = int(labels.min()), int(labels.max())
    checks.append(Check(f"{name}: labels in 1..{clusters}",
                        labels.shape == truth.shape and lo >= 1 and hi <= clusters,
                        f"shape {labels.shape}, labels {lo}..{hi}"))
    table = hs.metrics.contingency(labels, truth, truth > 0)
    by_pairs = hs.metrics.ars(hs.metrics.pair_counts(table))
    by_table = hs.metrics.adjusted_rand_from_table(table)
    checks.append(Check(f"{name}: ars routes agree", abs(by_pairs - by_table) <= ARS_TOL,
                        f"pair counts {by_pairs!r}, table {by_table!r}"))


def _finite_losses(report) -> bool:
    values = list(report.stage1_losses) + [v for row in report.stage2_losses for v in row]
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# CAE workloads: train-small and paper-scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaeWorkload:
    """Train the autoencoder pipeline on a synthetic scene, then segment it.

    ``labelled`` > 0 keeps ground truth on only that many pixels (drawn
    from the seed) and marks the rest background, so training sees few
    patches while ``segment`` still labels every pixel.
    """

    width: int
    height: int
    bands: int
    classes: int
    noise: float
    layout: str
    kernels: int
    batch: int
    lr: float
    stage1_epochs: int
    stage2_epochs: int
    segment_repeats: int
    labelled: int = 0
    nmi_floor: float | None = None

    def prepare(self, hs, seed: int) -> dict:
        raw = hs.synth.generate_cube(self.width, self.height, self.bands, self.classes,
                                     seed=seed, noise=self.noise, layout=self.layout)
        truth = raw.labels
        labels = truth
        if self.labelled:
            keep = np.random.default_rng(seed).choice(truth.size, self.labelled,
                                                       replace=False)
            labels = np.zeros_like(truth)
            labels.flat[keep] = truth.flat[keep]
        cube = hs.cube.normalize(hs.cube.HsiCube(raw.values, labels))
        return {"cube": cube, "truth": truth, "seed": seed}

    def run(self, hs, inputs: dict) -> OpResult:
        cube, truth, seed = inputs["cube"], inputs["truth"], inputs["seed"]
        config = hs.cae.CaeConfig(bands=self.bands, clusters=self.classes,
                                  kernels_per_layer=self.kernels)
        # epsilon 0 never fires, so both stages run their fixed epoch counts
        schedule = hs.train.TrainConfig(batch_size=self.batch, lr=self.lr, epsilon=0.0,
                                        stage1_max_epochs=self.stage1_epochs,
                                        stage2_epochs=self.stage2_epochs)
        started = time.perf_counter()
        params, report = hs.train.run_training(cube, config, schedule, seed=seed)
        train_s = time.perf_counter() - started

        segment_s = []
        maps = []
        for _ in range(self.segment_repeats):
            started = time.perf_counter()
            maps.append(hs.train.segment(params, cube).labels)
            segment_s.append(time.perf_counter() - started)
        scores = hs.metrics.evaluate_labelings(maps[0], truth)

        checks = [Check("training losses finite", _finite_losses(report),
                        f"stage 1 {report.stage1_losses[-1]!r} after "
                        f"{report.stage1_epochs} epochs")]
        checks.append(Check("segment repeats agree",
                            all(np.array_equal(maps[0], m) for m in maps[1:]),
                            f"{len(maps)} maps"))
        _check_map(hs, "cae map", maps[0], truth, self.classes, checks)
        if self.nmi_floor is not None:
            checks.append(Check(f"nmi >= {self.nmi_floor}", scores["nmi"] >= self.nmi_floor,
                                f"nmi {scores['nmi']:.4f}"))
        patches = int((cube.labels > 0).sum())
        epochs = report.stage1_epochs + len(report.stage2_losses)
        return OpResult(seconds={"train": [train_s], "segment": segment_s},
                        work={"patch_steps": patches * epochs, "pixels": truth.size},
                        nmi=None if self.nmi_floor is None else scores["nmi"],
                        checks=checks)


# ---------------------------------------------------------------------------
# baselines: {PCA, S-MSI} x {k-means, GMM}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineWorkload:
    """The paper's comparison grid on one scene, every map scored.

    EM and k-means run fixed iteration counts (``tol=-inf``).  Run to a
    tolerance, EM took from 2 iterations to its 200 cap and k-means from 5
    to 52 between seeds of this scene shape, and the grid's time varied
    with them.  The k-means start inside ``gmm_em`` keeps the library's
    stopping rule, which its API does not expose; it is a few percent of
    the time.  The k-means fits are also timed on their own, because EM is
    nearly all of the grid's time and would hide a change to k-means.  One
    k-means fit takes about 60 ms, so after the grid each reduction's
    k-means fit runs ``kmeans_repeats`` more times: a run then holds about a
    hundred k-means samples, spread over its whole length, and their median
    does not rest on the few that a brief slow spell of the host hits.
    """

    width: int
    height: int
    bands: int
    classes: int
    noise: float
    dims: int
    kmeans_iterations: int
    em_iterations: int
    kmeans_repeats: int
    nmi_floor: float

    def prepare(self, hs, seed: int) -> dict:
        cube = hs.cube.normalize(hs.synth.generate_cube(
            self.width, self.height, self.bands, self.classes, seed=seed, noise=self.noise))
        return {"cube": cube, "truth": cube.labels, "seed": seed}

    def run(self, hs, inputs: dict) -> OpResult:
        cube, truth, seed = inputs["cube"], inputs["truth"], inputs["seed"]
        kmeans_s = []
        results = []
        started = time.perf_counter()
        # looked up on every call, so that traced runs see the wrapped functions
        reducers = {"pca": hs.reduction.pca_reduce, "smsi": hs.reduction.smsi_reduce}
        fitters = {"kmeans": (hs.clustering.kmeans, self.kmeans_iterations),
                   "gmm": (hs.clustering.gmm_em, self.em_iterations)}
        reduced = {}
        for reduction, reduce in reducers.items():
            pixels = reduced[reduction] = reduce(cube, self.dims).pixel_matrix()
            for method, (fit, iterations) in fitters.items():
                fit_started = time.perf_counter()
                model, labels = fit(pixels, self.classes, seed=seed, tol=-np.inf,
                                    max_iter=iterations)
                if method == "kmeans":
                    kmeans_s.append(time.perf_counter() - fit_started)
                label_map = labels.reshape(truth.shape) + 1
                scores = hs.metrics.evaluate_labelings(label_map, truth)
                results.append((f"{reduction}-{method}", model, label_map, scores))
        total_s = time.perf_counter() - started

        checks: list[Check] = []
        for reduction, pixels in reduced.items():
            first = next(m for name, _, m, _ in results if name == f"{reduction}-kmeans")
            agree = True
            for _ in range(self.kmeans_repeats):
                fit_started = time.perf_counter()
                _, labels = hs.clustering.kmeans(pixels, self.classes, seed=seed,
                                                 tol=-np.inf, max_iter=self.kmeans_iterations)
                kmeans_s.append(time.perf_counter() - fit_started)
                agree &= np.array_equal(labels.reshape(truth.shape) + 1, first)
            checks.append(Check(f"{reduction}-kmeans: repeats agree", agree,
                                f"{self.kmeans_repeats} repeats"))
        for name, model, label_map, _ in results:
            _check_map(hs, name, label_map, truth, self.classes, checks)
            if hasattr(model, "log_likelihood_trace"):
                trace = np.asarray(model.log_likelihood_trace)
                drops = -np.diff(trace) / np.maximum(1.0, np.abs(trace[1:]))
                worst = float(drops.max(initial=0.0))
                checks.append(Check(f"{name}: EM log-likelihood never decreases",
                                    worst <= EM_DROP_TOL,
                                    f"largest relative drop {worst:.2e} over "
                                    f"{len(trace)} iterations"))
        worst_nmi = min(scores["nmi"] for *_, scores in results)
        checks.append(Check(f"lowest map nmi >= {self.nmi_floor}",
                            worst_nmi >= self.nmi_floor, f"nmi {worst_nmi:.4f}"))
        return OpResult(seconds={"total": [total_s], "kmeans": kmeans_s},
                        work={"pixel_maps": truth.size * len(results), "pixels": truth.size},
                        nmi=worst_nmi, checks=checks)


WORKLOADS = {
    # the criterion-5 scene and model at a fixed 5+2 epochs (56 Adam steps):
    # many small steps, so per-op, tape and layout-copy overheads show.  Split
    # 4+3, some seeds merged two stripes (NMI 0.63) before the centres were set
    "train-small": CaeWorkload(
        width=32, height=32, bands=40, classes=3, noise=0.02,
        layout="stripes", kernels=16, batch=128, lr=1e-3, stage1_epochs=5,
        stage2_epochs=2, segment_repeats=4, nmi_floor=NMI_FLOOR),
    # paper shape (103 bands, 32 kernels, batch 256): one batch of labelled
    # pixels trained for the two-epoch minimum, then a segment over more
    # pixels than one inference chunk; large GEMMs and inference memory
    "paper-scene": CaeWorkload(
        width=64, height=65, bands=103, classes=9, noise=0.05,
        layout="voronoi", kernels=32, batch=256, lr=1e-4, stage1_epochs=2,
        stage2_epochs=0, segment_repeats=1, labelled=256),
    # no autodiff at all: the control for changes to the network code
    "baselines": BaselineWorkload(
        width=64, height=64, bands=103, classes=9, noise=0.5,
        dims=25, kmeans_iterations=30, em_iterations=20, kmeans_repeats=8,
        nmi_floor=0.5),
}

# the same code paths on tiny inputs, for the benchmark's own tests
SMOKE_WORKLOADS = {
    "train-small": CaeWorkload(
        width=12, height=12, bands=20, classes=3, noise=0.02,
        layout="stripes", kernels=4, batch=32, lr=1e-2, stage1_epochs=3,
        stage2_epochs=1, segment_repeats=2, nmi_floor=0.4),  # a model this small reaches ~0.6-1
    "paper-scene": CaeWorkload(
        width=12, height=11, bands=20, classes=3, noise=0.05,
        layout="voronoi", kernels=4, batch=32, lr=1e-4, stage1_epochs=2,
        stage2_epochs=0, segment_repeats=1, labelled=32),
    "baselines": BaselineWorkload(
        width=12, height=12, bands=30, classes=3, noise=0.5,
        dims=5, kmeans_iterations=5, em_iterations=5, kmeans_repeats=1,
        nmi_floor=0.5),
}
