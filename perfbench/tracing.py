"""In-memory spans and counts recorded around calls into hsiseg's modules.

The library itself carries no timers.  A :class:`Tracer` replaces public
module attributes (``hsiseg.autodiff.conv3d``, ``hsiseg.train.extract_patches``,
``hsiseg.clustering.kmeans``, ...) with wrappers that open a span on entry
and close it on exit, and wraps ``Tape.record`` so that the backward closure
each op leaves on the tape gets a span of its own when ``Tape.backward``
runs it.  Attributes are patched where callers look them up: ``train`` binds
``extract_patches`` by name and ``cae`` binds ``kmeans``, so those bindings
are wrapped in ``train`` and ``cae`` as well.

Spans are kept as ``[name, start, end, parent]`` rows and written out when
the run ends; per-layer figures are computed from them afterwards.  The
computed counts (conv FLOPs, materialised patch bytes) are derived from
array shapes, not measured.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT = -1  # parent index of a span opened with no enclosing span

# span name -> public attributes it wraps, as (module, attribute)
_CALL_SPANS = {
    "autodiff.tape.backward": [("autodiff", "Tape.backward")],
    "cae.encode_batch": [("cae", "encode_batch")],
    "cae.decode_batch": [("cae", "decode_batch")],
    "cae.reconstruction_loss": [("cae", "reconstruction_loss")],
    "cae.soft_assign": [("cae", "soft_assign")],
    "cae.target_distribution": [("cae", "target_distribution")],
    "cae.clustering_loss": [("cae", "clustering_loss")],
    "cae.init_centers": [("cae", "init_centers")],
    "train.run_training": [("train", "run_training")],
    "train.train_stage1": [("train", "train_stage1")],
    "train.train_stage2": [("train", "train_stage2")],
    "train.embed_all": [("train", "embed_all")],
    "train.adam_step": [("train", "adam_step")],
    "train.segment": [("train", "segment")],
    "cube.normalize": [("cube", "normalize")],
    "cube.extract_patches": [("cube", "extract_patches"), ("train", "extract_patches")],
    "reduction.pca_reduce": [("reduction", "pca_reduce")],
    "reduction.pca_fit": [("reduction", "pca_fit")],
    "reduction.pca_transform": [("reduction", "pca_transform")],
    "reduction.smsi_reduce": [("reduction", "smsi_reduce")],
    "clustering.kmeans": [("clustering", "kmeans"), ("cae", "kmeans")],
    "clustering.gmm_em": [("clustering", "gmm_em")],
    "metrics.evaluate_labelings": [("metrics", "evaluate_labelings")],
}

# differentiable primitives; each gets "autodiff.<op>" forward spans and,
# through Tape.record, "autodiff.<op>.bwd" spans for its backward closure
AUTODIFF_OPS = ("conv3d", "conv3d_transpose", "dense", "dropout", "reshape",
                "add", "sub", "mul", "scale", "sum_all",
                "pairwise_sqdist", "student_t_rows", "kl_divergence")
CONV_OPS = ("conv3d", "conv3d_transpose")


def conv_flops(kernel_shape, small_shape) -> int:
    """Floating-point operations of one unit-stride valid 3D convolution.

    ``small_shape`` is the K-channel side of the convolution: the output of
    a forward ``conv3d`` or the input of a ``conv3d_transpose``.  Every one
    of its P*K*h'*w'*d' elements takes C*kh*kw*kd multiply-adds, two FLOPs
    each: 2*P*K*C*kh*kw*kd*h'*w'*d'.  Bias adds are not counted.
    """
    if len(kernel_shape) == 5:
        channels, kvol = kernel_shape[1], _prod(kernel_shape[2:])
    else:  # rank-4 kernels act on a single input channel
        channels, kvol = 1, _prod(kernel_shape[1:])
    return 2 * _prod(small_shape) * channels * kvol


def _prod(shape) -> int:
    out = 1
    for extent in shape:
        out *= int(extent)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping or out-of-range children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent != ROOT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- instrumentation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap the public attributes of ``package``'s modules in spans."""
        modules = {name: getattr(package, name) for name in
                   ("autodiff", "cae", "train", "cube", "reduction",
                    "clustering", "metrics")}
        counters = {
            "cube.extract_patches": self._count_patch_bytes,
            "clustering.kmeans": self._count_kmeans,
            "clustering.gmm_em": self._count_gmm,
            "train.adam_step": self._count_step,
        }
        for span_name, targets in _CALL_SPANS.items():
            for module_name, attr in targets:
                owner = modules[module_name]
                if "." in attr:  # a method, patched on its class
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(getattr(owner, attr), span_name,
                                                   counters.get(span_name)))
        autodiff = modules["autodiff"]
        for op in AUTODIFF_OPS:
            after = self._count_conv_forward(op) if op in CONV_OPS else None
            self._patch(autodiff, op, self.wrap(getattr(autodiff, op),
                                                f"autodiff.{op}", after))
        tape_cls = autodiff.Tape
        record = tape_cls.record
        tracer = self

        def traced_record(tape, output, inputs, backward):
            op = backward.__qualname__.split(".<locals>")[0]
            tracer.counts["autodiff.tape.records"] += 1
            if op in CONV_OPS:
                grads = int(inputs[0].requires_grad) + int(inputs[1].requires_grad)
                small = output.data.shape if op == "conv3d" else inputs[0].data.shape
                tracer.counts["autodiff.conv.flop"] += \
                    grads * conv_flops(inputs[1].data.shape, small)
            return record(tape, output, inputs, tracer.wrap(backward, f"autodiff.{op}.bwd"))

        self._patch(tape_cls, "record", traced_record)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    # -- counters ----------------------------------------------------------

    def _count_conv_forward(self, op: str):
        # hsiseg passes the input and kernels positionally, as Tensors or arrays
        def after(args, kwargs, result):
            x, kernels = (np.shape(getattr(a, "data", a)) for a in args[:2])
            small = result.shape if op == "conv3d" else x
            self.counts["autodiff.conv.flop"] += conv_flops(kernels, small)
        return after

    def _count_patch_bytes(self, args, kwargs, result) -> None:
        self.counts["cube.patch_bytes"] += result.patches.nbytes

    def _count_kmeans(self, args, kwargs, result) -> None:
        self.counts["clustering.kmeans.iterations"] += result[0].iterations

    def _count_gmm(self, args, kwargs, result) -> None:
        self.counts["clustering.gmm.iterations"] += len(result[0].log_likelihood_trace)

    def _count_step(self, args, kwargs, result) -> None:
        self.counts["train.steps"] += 1


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

OP_SPAN = "bench.op"  # the benchmark's own span around one workload operation

_LOSS_OPS = ("sub", "mul", "sum_all", "scale", "add")
_HEAD_OPS = ("pairwise_sqdist", "student_t_rows", "kl_divergence")
_TRAIN_SELF = ("train.run_training", "train.train_stage1", "train.train_stage2",
               "train.embed_all", "train.segment")


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-layer figures of a traced run, per workload operation.

    Spans inside ``bench.op`` spans are summed and divided by ``ops``; spans
    outside them (set-up) are added once, so set-up work such as
    normalisation is reported as it happened.  Call sites named in
    ``_CALL_SPANS`` report self time where the metric says ``self`` and
    total (inclusive) time otherwise; the autodiff ops have no child spans,
    so their totals are their self times.
    """
    counts = Counter(counts)
    selfs = self_times(spans)
    in_op = _inside(spans, OP_SPAN)
    total: Counter = Counter()
    own: Counter = Counter()
    for idx, (name, start, end, _) in enumerate(spans):
        if name == OP_SPAN:
            continue
        weight = 1.0 / ops if in_op[idx] else 1.0
        total[name] += (end - start) * weight
        own[name] += selfs[idx] * weight

    def fwd_bwd(op):
        return total[f"autodiff.{op}"] + total[f"autodiff.{op}.bwd"]

    conv_s = sum(fwd_bwd(op) for op in CONV_OPS)
    gflop = counts["autodiff.conv.flop"] / ops / 1e9
    gmm_iters = counts["clustering.gmm.iterations"] / ops
    out = {
        "autodiff.conv3d.fwd_s": total["autodiff.conv3d"],
        "autodiff.conv3d.bwd_s": total["autodiff.conv3d.bwd"],
        "autodiff.conv3d_transpose.fwd_s": total["autodiff.conv3d_transpose"],
        "autodiff.conv3d_transpose.bwd_s": total["autodiff.conv3d_transpose.bwd"],
        "autodiff.dense.fwd_s": total["autodiff.dense"],
        "autodiff.dense.bwd_s": total["autodiff.dense.bwd"],
        "autodiff.dropout_s": fwd_bwd("dropout"),
        "autodiff.loss_ops_s": sum(fwd_bwd(op) for op in _LOSS_OPS),
        "autodiff.head_ops_s": sum(fwd_bwd(op) for op in _HEAD_OPS),
        "autodiff.tape.backward_self_s": own["autodiff.tape.backward"],
        "autodiff.tape.records": counts["autodiff.tape.records"] / ops,
        "autodiff.conv.gflop": gflop,
        "autodiff.conv.gflop_per_s": gflop / conv_s if conv_s > 0 else 0.0,
        "cae.encode_batch_s": own["cae.encode_batch"],
        "cae.decode_batch_s": own["cae.decode_batch"],
        "cae.soft_assign_s": own["cae.soft_assign"],
        "cae.init_centers_s": own["cae.init_centers"],
        "train.adam_step_s": total["train.adam_step"],
        "train.self_s": sum(own[name] for name in _TRAIN_SELF),
        "train.embed_all_s": total["train.embed_all"],
        "train.segment_s": total["train.segment"],
        "train.stage1_s": total["train.train_stage1"],
        "train.stage2_s": total["train.train_stage2"],
        "train.steps": counts["train.steps"] / ops,
        "cube.normalize_s": total["cube.normalize"],
        "cube.extract_patches_s": total["cube.extract_patches"],
        "cube.patch_bytes": counts["cube.patch_bytes"] / ops,
        "reduction.pca_fit_s": total["reduction.pca_fit"],
        "reduction.pca_transform_s": total["reduction.pca_transform"],
        "reduction.smsi_reduce_s": total["reduction.smsi_reduce"],
        "clustering.kmeans_s": total["clustering.kmeans"],
        "clustering.kmeans.iterations": counts["clustering.kmeans.iterations"] / ops,
        "clustering.gmm_em_s": own["clustering.gmm_em"],
        "clustering.gmm.iterations": gmm_iters,
        "clustering.gmm.s_per_iter": own["clustering.gmm_em"] / gmm_iters if gmm_iters else 0.0,
        "metrics.evaluate_labelings_s": total["metrics.evaluate_labelings"],
    }
    op_idx = [i for i, s in enumerate(spans) if s[0] == OP_SPAN]
    op_wall = sum(spans[i][2] - spans[i][1] for i in op_idx)
    out["trace.uncovered_share"] = sum(selfs[i] for i in op_idx) / op_wall if op_wall else 0.0
    return out


def _inside(spans, name: str) -> list[bool]:
    """Whether each span has an ancestor (or is itself) named ``name``."""
    flags: list[bool] = []
    for span_name, _, _, parent in spans:
        flags.append(span_name == name or (parent != ROOT and flags[parent]))
    return flags
