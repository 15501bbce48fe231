"""Tests of the benchmark itself: FLOP formula, span arithmetic, smoke runs.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

import hsiseg  # noqa: E402
from tracing import OP_SPAN, ROOT, Tracer, conv_flops, layer_metrics, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# conv FLOPs
# ---------------------------------------------------------------------------

def brute_force_conv(x, kernels):
    """Valid cross-correlation by explicit loops, counting every multiply-add."""
    P, C, h, w, d = x.shape
    K, _, kh, kw, kd = kernels.shape
    out = np.zeros((P, K, h - kh + 1, w - kw + 1, d - kd + 1))
    macs = 0
    for p, k, i, j, l in itertools.product(*map(range, out.shape)):
        for c, a, b, e in itertools.product(range(C), range(kh), range(kw), range(kd)):
            out[p, k, i, j, l] += x[p, c, i + a, j + b, l + e] * kernels[k, c, a, b, e]
            macs += 1
    return out, 2 * macs


def brute_force_transpose(y, kernels):
    """Transposed convolution by scattering each input element, counting multiply-adds."""
    P, K, hp, wp, dp = y.shape
    _, C, kh, kw, kd = kernels.shape
    out = np.zeros((P, C, hp + kh - 1, wp + kw - 1, dp + kd - 1))
    macs = 0
    for p, k, i, j, l in itertools.product(*map(range, y.shape)):
        for c, a, b, e in itertools.product(range(C), range(kh), range(kw), range(kd)):
            out[p, c, i + a, j + b, l + e] += y[p, k, i, j, l] * kernels[k, c, a, b, e]
            macs += 1
    return out, 2 * macs


def test_conv_flops_match_brute_force_count():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4, 3, 5))
    kernels = rng.normal(size=(2, 3, 2, 2, 3))
    expected, flops = brute_force_conv(x, kernels)
    out = hsiseg.autodiff.conv3d(x, kernels, np.zeros(2))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    assert conv_flops(kernels.shape, out.shape) == flops

    y = rng.normal(size=(2, 2, 3, 2, 3))
    expected, flops = brute_force_transpose(y, kernels)
    out = hsiseg.autodiff.conv3d_transpose(y, kernels, np.zeros(3))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    assert conv_flops(kernels.shape, y.shape) == flops


def test_tracer_counts_conv_flops_forward_and_backward():
    rng = np.random.default_rng(1)
    x = hsiseg.autodiff.Tensor(rng.normal(size=(2, 3, 4, 3, 5)), requires_grad=True)
    kernels = hsiseg.autodiff.Tensor(rng.normal(size=(2, 3, 2, 2, 3)), requires_grad=True)
    bias = hsiseg.autodiff.Tensor(np.zeros(2), requires_grad=True)
    _, flops = brute_force_conv(x.data, kernels.data)
    tracer = Tracer()
    with tracer.installed(hsiseg):
        tape = hsiseg.autodiff.Tape()
        out = hsiseg.autodiff.conv3d(x, kernels, bias, tape)
        tape.backward(hsiseg.autodiff.sum_all(out, tape))
    # forward once, backward once per input that needs an adjoint (x, kernels)
    assert tracer.counts["autodiff.conv.flop"] == 3 * flops
    assert tracer.counts["autodiff.tape.records"] == 2
    names = [span[0] for span in tracer.spans]
    assert "autodiff.conv3d.bwd" in names and "autodiff.tape.backward" in names
    assert hsiseg.autodiff.conv3d.__name__ == "conv3d"  # uninstalled on exit
    assert not hasattr(hsiseg.autodiff.conv3d, "__wrapped__")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_merged_children_clipped_to_parent():
    spans = [
        ["a", 0.0, 10.0, ROOT],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],      # overlaps b: covered part of a is 1..6
        ["d", 5.0, 5.5, 2],
        ["e", 9.0, 12.0, 0],     # runs past a's end: only 9..10 counts
        ["f", 20.0, 21.0, ROOT],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3.0, 2.5, 0.5, 3.0, 1.0])


def test_layer_metrics_per_op_setup_once_and_uncovered_share():
    spans = [
        ["bench.setup", 0.0, 1.0, ROOT],
        ["cube.normalize", 0.2, 0.6, 0],
        [OP_SPAN, 2.0, 6.0, ROOT],
        ["cae.encode_batch", 2.0, 5.0, 2],
        ["autodiff.conv3d", 2.5, 4.0, 3],
        [OP_SPAN, 6.0, 8.0, ROOT],
        ["cae.encode_batch", 6.0, 7.0, 5],
        ["autodiff.conv3d", 6.0, 6.5, 6],
    ]
    counts = {"autodiff.conv.flop": 4e9, "train.steps": 6}
    metrics = layer_metrics(spans, counts, ops=2)
    assert metrics["cube.normalize_s"] == pytest.approx(0.4)          # set-up, once
    assert metrics["autodiff.conv3d.fwd_s"] == pytest.approx(1.0)     # (1.5+0.5)/2
    assert metrics["cae.encode_batch_s"] == pytest.approx(1.0)        # self (1.5+0.5)/2
    assert metrics["autodiff.conv.gflop"] == pytest.approx(2.0)
    assert metrics["autodiff.conv.gflop_per_s"] == pytest.approx(2.0)
    assert metrics["train.steps"] == 3
    assert metrics["trace.uncovered_share"] == pytest.approx(2.0 / 6.0)


# ---------------------------------------------------------------------------
# smoke runs: every declared metric is emitted, with its unit
# ---------------------------------------------------------------------------

def declared(kind):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-small", "paper-scene", "baselines"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
