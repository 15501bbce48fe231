"""Tests for the reverse-mode engine: brute-force oracles, adjoint
identities, and finite-difference gradient checks for every primitive."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hsiseg import autodiff
from hsiseg.autodiff import (Tape, Tensor, add, conv3d, conv3d_dropout_dense,
                             conv3d_transpose, dense, dropout, grad_check,
                             kl_divergence, mul, pairwise_sqdist, reshape, scale,
                             student_t_rows, sub, sum_all)
from hsiseg.errors import ParameterError, ShapeError


def traced_peak(step) -> int:
    """Peak bytes allocated while ``step()`` runs, after one untraced warm-up call."""
    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def conv3d_loop_oracle(x, kernels, bias):
    """Six-nested-loop reference convolution of one (C, h, w, d) volume."""
    C, h, w, d = x.shape
    K, _, kh, kw, kd = kernels.shape
    out = np.empty((K, h - kh + 1, w - kw + 1, d - kd + 1))
    for k in range(K):
        for i in range(h - kh + 1):
            for j in range(w - kw + 1):
                for l in range(d - kd + 1):
                    window = x[:, i:i + kh, j:j + kw, l:l + kd]
                    out[k, i, j, l] = bias[k] + float((window * kernels[k]).sum())
    return out


def correlate_reference(x, kernels):
    """Valid correlation of (P, C, h, w, d) by (K, C, kh, kw, kd): one einsum
    over every window, with no GEMM layout in common with the library."""
    win = sliding_window_view(x, kernels.shape[2:], axis=(2, 3, 4))
    return np.einsum("pcxyzijl,kcijl->pkxyz", win, kernels)


def full_convolve_reference(y, kernels):
    """The adjoint of ``correlate_reference``: correlate the zero-padded
    (P, K, ...) volume with the flipped kernels, channel axes swapped."""
    kh, kw, kd = kernels.shape[2:]
    padded = np.pad(y, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (kd - 1, kd - 1)))
    return correlate_reference(padded, kernels[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))


def kernel_adjoint_reference(x, g, kshape):
    """d<correlate(x, W), g>/dW as one einsum over the windows of x."""
    win = sliding_window_view(x, kshape[2:], axis=(2, 3, 4))
    return np.einsum("pcxyzijl,pkxyz->kcijl", win, g)


def assert_close_to_reference(actual, expected):
    """Within 1e-12 of the reference, relative to its largest magnitude."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


# (P, C, K, volume extents, kernel extents): C = 1 with odd extents; P = 1 with
# a single output band (kd = d) and kh = h; a batch with every extent distinct.
# The cores window the narrower of kh*kw*C and K, so the last three cases put
# K above, at and (with C = 1) above kh*kw*C; the first three put it below.
REFERENCE_CASES = [
    (2, 1, 3, (5, 7, 9), (3, 3, 4)),
    (1, 3, 2, (3, 5, 4), (3, 2, 4)),
    (3, 2, 4, (5, 3, 7), (2, 3, 3)),
    (2, 2, 12, (4, 5, 6), (2, 2, 3)),
    (1, 2, 8, (4, 4, 5), (2, 2, 2)),
    (2, 1, 12, (5, 4, 7), (3, 3, 3)),
]


def _adjoints(op, inp, kernels, bias, upstream):
    """The op's output and the adjoints of its input and kernels under <out, upstream>."""
    tensors = [Tensor(a, requires_grad=True) for a in (inp, kernels, bias)]
    tape = Tape()
    out = op(*tensors, tape)
    tape.backward(sum_all(mul(out, Tensor(upstream), tape), tape))
    return out.data, tensors[0].grad, tensors[1].grad


class TestConvAgainstReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_conv3d(self, case):
        P, C, K, extents, kext = case
        rng = np.random.default_rng(sum(extents))
        x = rng.normal(size=(P, C) + extents)
        kernels = rng.normal(size=(K, C) + kext)
        out_extents = tuple(e - k + 1 for e, k in zip(extents, kext))
        g = rng.normal(size=(P, K) + out_extents)
        out, dx, dk = _adjoints(conv3d, x, kernels, np.zeros(K), g)
        assert_close_to_reference(out, correlate_reference(x, kernels))
        assert_close_to_reference(dx, full_convolve_reference(g, kernels))
        assert_close_to_reference(dk, kernel_adjoint_reference(x, g, kernels.shape))

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_conv3d_transpose(self, case):
        P, C, K, extents, kext = case
        rng = np.random.default_rng(sum(extents) + 1)
        out_extents = tuple(e - k + 1 for e, k in zip(extents, kext))
        y = rng.normal(size=(P, K) + out_extents)
        kernels = rng.normal(size=(K, C) + kext)
        g = rng.normal(size=(P, C) + extents)
        out, dy, dk = _adjoints(conv3d_transpose, y, kernels, np.zeros(C), g)
        assert_close_to_reference(out, full_convolve_reference(y, kernels))
        assert_close_to_reference(dy, correlate_reference(g, kernels))
        assert_close_to_reference(dk, kernel_adjoint_reference(g, y, kernels.shape))


class TestChunking:
    """A row's result does not depend on how the cores split their rows."""

    # (C, K): kh*kw*C = 36 > K windows the output side of the forward tap
    # GEMM and the input side of the transposed one; kh*kw*C = 9 < K the reverse
    @pytest.mark.parametrize("channels", [(4, 3), (1, 12)])
    def test_outputs_independent_of_workspace(self, monkeypatch, channels):
        C, K = channels
        rng = np.random.default_rng(C + K)
        x = rng.normal(size=(3, C, 5, 4, 9))
        y = rng.normal(size=(3, K, 3, 2, 7))
        kernels = rng.normal(size=(K, C, 3, 3, 3))
        outputs = []
        for workspace in (1 << 8, 1 << 10, 1 << 17, 1 << 20):
            monkeypatch.setattr(autodiff, "WORKSPACE", workspace)
            outputs.append((conv3d(x, kernels, np.zeros(K)).data,
                            conv3d_transpose(y, kernels, np.zeros(C)).data))
        for forward, transposed in outputs[1:]:
            np.testing.assert_array_equal(forward, outputs[0][0])
            np.testing.assert_array_equal(transposed, outputs[0][1])


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4, 4, 6))
        out = conv3d(x, np.ones((1, 1, 1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(out.data[0], x[0])

    def test_all_ones_kernel_constant_input(self):
        c, b = 3.5, 0.25
        x = np.full((1, 4, 5, 6), c)
        out = conv3d(x, np.ones((1, 1, 2, 2, 2)), np.array([b]))
        np.testing.assert_allclose(out.data, 8 * c + b)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 4, 5))
        kernels = rng.normal(size=(2, 1, 3, 3, 2))
        bias = rng.normal(size=2)
        expected = conv3d_loop_oracle(x, kernels, bias)
        np.testing.assert_allclose(conv3d(x, kernels, bias).data, expected, atol=1e-12)

    def test_multichannel_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5, 5, 7))
        kernels = rng.normal(size=(4, 3, 3, 3, 4))
        bias = rng.normal(size=4)
        expected = conv3d_loop_oracle(x, kernels, bias)
        np.testing.assert_allclose(conv3d(x, kernels, bias).data, expected, atol=1e-12)

    def test_batch_axis_matches_per_patch(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2, 5, 5, 8))
        kernels = rng.normal(size=(3, 2, 3, 3, 4))
        bias = rng.normal(size=3)
        batched = conv3d(x, kernels, bias).data
        for p in range(6):
            np.testing.assert_allclose(batched[p], conv3d(x[p], kernels, bias).data)

    def test_empty_batch(self):
        x = Tensor(np.zeros((0, 2, 5, 5, 6)), requires_grad=True)
        k = Tensor(np.ones((3, 2, 3, 3, 4)), requires_grad=True)
        tape = Tape()
        y = conv3d(x, k, np.zeros(3), tape)
        out = conv3d_transpose(y, k, np.zeros(2), tape)
        assert y.data.shape == (0, 3, 3, 3, 3) and out.data.shape == x.data.shape
        tape.backward(sum_all(out, tape))
        np.testing.assert_array_equal(k.grad, np.zeros(k.data.shape))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            conv3d(np.zeros((1, 2, 2, 2)), np.zeros((1, 1, 3, 3, 3)), np.zeros(1))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv3d(np.zeros((2, 4, 4, 4)), np.zeros((1, 3, 2, 2, 2)), np.zeros(1))

    def test_rank3_input_rejected(self):
        """A volume without its channel axis is not guessed to be single-channel."""
        with pytest.raises(ShapeError):
            conv3d(np.zeros((4, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1))

    def test_rank4_kernels_rejected(self):
        with pytest.raises(ShapeError):
            conv3d(np.zeros((1, 4, 4, 4)), np.zeros((1, 2, 2, 2)), np.zeros(1))


class TestConv3dTranspose:
    def test_output_extent_grows_by_kernel_minus_one(self):
        y = np.zeros((2, 3, 4, 5))
        out = conv3d_transpose(y, np.zeros((2, 1, 3, 2, 4)), np.zeros(1))
        assert out.data.shape == (1, 3 + 2, 4 + 1, 5 + 3)  # the channel axis stays

    def test_one_by_one_kernel_scales(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(1, 3, 3, 4))
        out = conv3d_transpose(y, np.full((1, 1, 1, 1, 1), 2.0), np.array([0.5]))
        np.testing.assert_allclose(out.data, 2.0 * y + 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        """<conv(x, W), y> == <x, conv_transpose(y, W)> for random shapes."""
        rng = np.random.default_rng(seed)
        c, k = rng.integers(1, 4), rng.integers(1, 4)
        kh, kw, kd = rng.integers(1, 4, size=3)
        h, w, d = kh + rng.integers(0, 4), kw + rng.integers(0, 4), kd + rng.integers(0, 5)
        x = rng.normal(size=(int(c), int(h), int(w), int(d)))
        kernels = rng.normal(size=(int(k), int(c), int(kh), int(kw), int(kd)))
        y = rng.normal(size=(int(k), int(h - kh + 1), int(w - kw + 1), int(d - kd + 1)))
        lhs = float((conv3d(x, kernels, np.zeros(int(k))).data * y).sum())
        rtensor = conv3d_transpose(y, kernels, np.zeros(int(c))).data
        rhs = float((x * rtensor.reshape(x.shape)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_rank3_input_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_transpose(np.zeros((3, 3, 3)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1))

    def test_rank4_kernels_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_transpose(np.zeros((1, 3, 3, 3)), np.zeros((1, 2, 2, 2)), np.zeros(1))


@st.composite
def stacked_convolutions(draw):
    """An input and the kernels of two convolutions run back to back: channel
    counts 1-4 (C -> J -> K), spatial extents 1-3, spectral extents 1-4."""
    c, j, k = (draw(st.integers(1, 4)) for _ in range(3))
    inner, outer = (tuple(draw(st.integers(1, hi)) for hi in (3, 3, 4)) for _ in range(2))
    volume = tuple(a + b - 1 + draw(st.integers(0, 2)) for a, b in zip(inner, outer))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    return (rng.normal(size=(draw(st.integers(1, 3)), c) + volume),
            rng.normal(size=(j, c) + inner), rng.normal(size=(k, j) + outer))


class TestComposedKernels:
    """Two convolutions run back to back equal one convolution by their
    composite kernel, the transposed convolution of one kernel by the other."""

    @given(stacked_convolutions())
    @settings(max_examples=60, deadline=None)
    def test_stacked_transposed_convolutions(self, case):
        x, inner, outer = case
        y = correlate_reference(correlate_reference(x, inner), outer)  # K channels
        stacked = conv3d_transpose(conv3d_transpose(y, outer, np.zeros(inner.shape[0])),
                                   inner, np.zeros(inner.shape[1])).data
        composite = conv3d_transpose(outer, inner, np.zeros(inner.shape[1]))
        assert_close_to_reference(
            conv3d_transpose(y, composite, np.zeros(inner.shape[1])).data, stacked)

    @given(stacked_convolutions())
    @settings(max_examples=60, deadline=None)
    def test_stacked_convolutions(self, case):
        x, inner, outer = case
        stacked = conv3d(conv3d(x, inner, np.zeros(len(inner))), outer, np.zeros(len(outer))).data
        composite = conv3d_transpose(outer, inner, np.zeros(inner.shape[1]))
        assert_close_to_reference(conv3d(x, composite, np.zeros(len(outer))).data, stacked)

    def test_gradient_reaches_both_kernels(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 2, 4, 3, 6))
        inner = Tensor(rng.normal(size=(3, 2, 2, 1, 3)), requires_grad=True)
        outer = Tensor(rng.normal(size=(2, 3, 2, 2, 2)), requires_grad=True)
        f = _quadratic_through(lambda tape: conv3d(
            x, conv3d_transpose(outer, inner, np.zeros(2), tape), np.zeros(2), tape), None)
        assert grad_check(f, [inner, outer]) <= 1e-4


class TestConvDropoutDense:
    """The batch-layer primitive equals conv3d, dropout and dense run one by
    one with the same draw: output and every adjoint."""

    @staticmethod
    def composed(x, kernels, bias, p, rng, weights, offset, tape):
        h = dropout(conv3d(x, kernels, bias, tape), p, rng, tape)
        return dense(reshape(h, (len(x.data), -1), tape), weights, offset, tape)

    # dropout 1/(1-p) is a power of two at p = 0.5 only
    @pytest.mark.parametrize("p,seed", [(0.5, 5), (0.3, 6), (0.0, 7)])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_composed_ops(self, case, p, seed):
        P, C, K, extents, kext = case
        rng = np.random.default_rng(sum(extents) + 2)
        flat = K * int(np.prod([e - k + 1 for e, k in zip(extents, kext)]))
        x = rng.normal(size=(P, C) + extents)
        params = [rng.normal(size=shape) for shape in
                  ((K, C) + kext, (K,), (3, flat), (3,))]
        upstream = rng.normal(size=(P, 3))
        results = []
        for op in (self.composed, conv3d_dropout_dense):
            tensors = [Tensor(a, requires_grad=True) for a in params]
            tape = Tape()
            out = op(x, *tensors[:2], p, np.random.default_rng(seed), *tensors[2:], tape)
            tape.backward(sum_all(mul(out, Tensor(upstream), tape), tape))
            results.append([out.data] + [t.grad for t in tensors])
        for actual, expected in zip(results[1], results[0]):
            assert_close_to_reference(actual, expected)

    def test_input_adjoint_rejected(self):
        x = Tensor(np.ones((1, 1, 3, 3, 4)), requires_grad=True)
        with pytest.raises(ParameterError):
            conv3d_dropout_dense(x, np.ones((2, 1, 3, 3, 2)), np.zeros(2), 0.5,
                                 np.random.default_rng(0), np.ones((1, 6)), np.zeros(1), Tape())

    def test_invalid_arguments(self):
        x, k, b = np.ones((1, 1, 3, 3, 4)), np.ones((2, 1, 3, 3, 2)), np.zeros(2)
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            conv3d_dropout_dense(x, k, b, 1.0, rng, np.ones((1, 6)), np.zeros(1))
        with pytest.raises(ShapeError):  # the output has 2*1*1*3 = 6 values
            conv3d_dropout_dense(x, k, b, 0.5, rng, np.ones((1, 8)), np.zeros(1))


class TestDense:
    def test_identity_weights(self):
        x = np.arange(4.0)[None]
        out = dense(x, np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weights_returns_bias(self):
        bias = np.array([1.0, -2.0])
        out = dense(np.ones((1, 3)), np.zeros((2, 3)), bias)
        np.testing.assert_array_equal(out.data, bias[None])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=(1, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
        expected = np.array([[b[i] + sum(w[i, j] * x[0, j] for j in range(4))
                              for i in range(3)]])
        np.testing.assert_allclose(dense(x, w, b).data, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))

    def test_vector_input_rejected(self):
        """A single input is a (1, n) batch, never an (n,) vector."""
        with pytest.raises(ShapeError):
            dense(np.zeros(4), np.zeros((2, 4)), np.zeros(2))


class TestDropout:
    def test_p_zero_train_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 10))
        out = dropout(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x)

    def test_inverted_scaling_preserves_mean(self):
        """Law of large numbers: the sample mean stays within 1% of 1."""
        x = np.ones(1_000_000)
        out = dropout(x, 0.5, np.random.default_rng(7))
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_deterministic_under_seed(self):
        x = np.ones(100)
        a = dropout(x, 0.5, np.random.default_rng(8)).data
        b = dropout(x, 0.5, np.random.default_rng(8)).data
        np.testing.assert_array_equal(a, b)

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            dropout(np.ones(3), 1.0, np.random.default_rng(0))

    def test_training_holds_a_boolean_mask(self):
        """Beyond its output, a training call keeps less than a quarter of its
        input's bytes for backward: a boolean mask is an eighth."""
        x = Tensor(np.random.default_rng(9).normal(size=(64, 4096)), requires_grad=True)
        tape = Tape()
        tracemalloc.start()
        try:
            out = dropout(x, 0.5, np.random.default_rng(10), tape)
            held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < x.data.nbytes / 4


class TestSmallTapeSteps:
    """A tape step through tiny layers allocates about its own arithmetic:
    the engine pads no product up to a BLAS kernel's size."""

    BOUND = 256 * 1024  # bytes

    def test_dense_step(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 8)), requires_grad=True)

        def step():
            tape = Tape()
            tape.backward(sum_all(dense(x, weights, np.zeros(6), tape), tape))

        assert traced_peak(step) < self.BOUND

    def test_convolution_step(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(1, 1, 5, 5, 8)), requires_grad=True)
        kernels = Tensor(rng.normal(size=(4, 1, 3, 3, 3)), requires_grad=True)

        def step():
            tape = Tape()
            y = conv3d(x, kernels, np.zeros(4), tape)
            u = conv3d_transpose(y, kernels, np.zeros(1), tape)
            tape.backward(sum_all(u, tape))

        assert traced_peak(step) < self.BOUND


class TestTapeSemantics:
    def test_fanout_adjoints_sum(self):
        """d/dx of (f(x) + f(x)) must equal 2 f'(x)."""
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        tape = Tape()
        y = mul(x, x, tape)
        total = sum_all(add(y, y, tape), tape)
        tape.backward(total)
        np.testing.assert_allclose(x.grad, 4.0 * x.data)

    def test_fanout_of_a_shared_adjoint(self):
        """add hands one adjoint array to both inputs.  Taking a first
        adjoint as it is is safe only if no later one updates it in place:
        here a's second adjoint must not leak into b's."""
        a = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        b = Tensor(np.array([3.0, 0.5, -1.0]), requires_grad=True)
        tape = Tape()
        c = add(a, b, tape)
        d = add(c, a, tape)
        tape.backward(sum_all(d, tape))
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_backward_releases_interior_adjoints(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        w = Tensor(np.array([0.5, 3.0]), requires_grad=True)
        tape = Tape()
        h = mul(x, w, tape)
        y = mul(h, h, tape)
        loss = sum_all(y, tape)
        tape.backward(loss)
        assert h.grad is None and y.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * x.data * w.data ** 2)
        np.testing.assert_allclose(w.grad, 2.0 * w.data * x.data ** 2)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        y = mul(x, x, tape)
        with pytest.raises(ParameterError):
            tape.backward(y)

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        mul(x, x, None)
        assert len(tape) == 0


class TestGradCheck:
    def test_sum_of_squares(self):
        """f(x) = sum(x^2) has gradient 2x; the checker must agree closely."""
        x = Tensor(np.linspace(-1.0, 2.0, 7), requires_grad=True)

        def f(tape):
            return sum_all(mul(x, x, tape), tape)

        assert grad_check(f, x, eps=1e-5) <= 1e-8

    def test_constant_function_zero_error(self):
        x = Tensor(np.ones(3), requires_grad=True)

        def f(tape):
            return Tensor(4.0)

        assert grad_check(f, x) == 0.0

    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ParameterError):
            grad_check(lambda tape: mul(x, x, tape), x)

    def test_rejects_bad_eps(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ParameterError):
            grad_check(lambda tape: sum_all(x, tape), x, eps=0.0)


def _quadratic_through(op_builder, params):
    """Scalar loss sum(op(...)^2) for gradient checking an op."""

    def f(tape):
        out = op_builder(tape)
        return sum_all(mul(out, out, tape), tape)

    return f


class TestPrimitiveGradients:
    """Central-difference checks, one primitive at a time."""

    def test_conv3d(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 2, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        f = _quadratic_through(lambda tape: conv3d(x, k, b, tape), None)
        assert grad_check(f, [x, k, b]) <= 1e-4

    def test_conv3d_transpose(self):
        rng = np.random.default_rng(11)
        y = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        f = _quadratic_through(lambda tape: conv3d_transpose(y, k, b, tape), None)
        assert grad_check(f, [y, k, b]) <= 1e-4

    def test_dense(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        f = _quadratic_through(lambda tape: dense(x, w, b, tape), None)
        assert grad_check(f, [x, w, b]) <= 1e-4

    def test_dropout_frozen_mask(self):
        """With the mask frozen (fixed seed), dropout is linear and checkable."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

        def f(tape):
            out = dropout(x, 0.5, np.random.default_rng(99), tape)
            return sum_all(mul(out, out, tape), tape)

        assert grad_check(f, x) <= 1e-4

    def test_conv3d_dropout_dense_frozen_mask(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 1, 3, 3, 5))
        k = Tensor(rng.normal(size=(3, 1, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3 * 2 * 2 * 4)), requires_grad=True)
        c = Tensor(rng.normal(size=2), requires_grad=True)
        f = _quadratic_through(lambda tape: conv3d_dropout_dense(
            x, k, b, 0.3, np.random.default_rng(98), w, c, tape), None)
        assert grad_check(f, [k, b, w, c]) <= 1e-4

    def test_pairwise_sqdist(self):
        rng = np.random.default_rng(14)
        z = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        f = _quadratic_through(lambda tape: pairwise_sqdist(z, c, tape), None)
        assert grad_check(f, [z, c]) <= 1e-4

    def test_student_t_rows(self):
        rng = np.random.default_rng(15)
        d = Tensor(rng.uniform(0.1, 4.0, size=(4, 3)), requires_grad=True)
        f = _quadratic_through(lambda tape: student_t_rows(d, tape), None)
        assert grad_check(f, d) <= 1e-4

    def test_kl_divergence(self):
        rng = np.random.default_rng(16)
        z = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        raw = rng.uniform(0.05, 1.0, size=(4, 3))
        target = raw / raw.sum(axis=1, keepdims=True)

        def f(tape):
            q = student_t_rows(pairwise_sqdist(z, c, tape), tape)
            return kl_divergence(target, q, tape)

        assert grad_check(f, [z, c]) <= 1e-4

    def test_reshape_scale_sub(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        other = rng.normal(size=(3, 4))

        def f(tape):
            r = reshape(x, (3, 4), tape)
            diff = sub(r, Tensor(other), tape)
            return scale(sum_all(mul(diff, diff, tape), tape), 0.25, tape)

        assert grad_check(f, x) <= 1e-4


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(3, 4, 4, 6))
        k = rng.normal(size=(2, 3, 2, 2, 3))
        b = rng.normal(size=2)

        def run(seed):
            xt = Tensor(x, requires_grad=True)
            tape = Tape()
            h = conv3d(xt, Tensor(k, requires_grad=True), Tensor(b, requires_grad=True), tape)
            h = dropout(h, 0.3, np.random.default_rng(seed), tape)
            loss = sum_all(mul(h, h, tape), tape)
            tape.backward(loss)
            return loss.data.copy(), xt.grad.copy()

        la, ga = run(42)
        lb, gb = run(42)
        assert la == lb
        np.testing.assert_array_equal(ga, gb)
