"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: it provides exactly the primitives the
3D convolutional autoencoder and its clustering head need, recorded on an
explicit :class:`Tape`.  Every op takes an optional ``tape`` argument; when
``tape`` is ``None`` the op runs forward-only, which is what inference uses.

Convolution layout (all unit stride, no padding): activations are
channels-first batches ``(P, C, h, w, d)`` and kernels are ``(K, C, kh,
kw, kd)``.  A single ``(C, h, w, d)`` volume is accepted as a batch of one
and comes back without the batch axis; the channel axis is always explicit,
also when it has size one.  A transposed convolution consumes the K-channel
output of the matching forward convolution and produces a C-channel
volume, so the same kernel tensor serves both directions.  ``dense`` maps
``(P, n)`` rows.

Inside the convolution cores the layout is channels last, one row per
(pixel, band): row ``((p*h' + y)*w' + x)*d + z`` holds the kh*kw*C values
of the spatial window at valid position (y, x) and input band z.  Spectral
tap l of a correlation then reads the rows shifted by l, so all kd taps are
one GEMM per chunk of rows.  That GEMM copies kd-row windows of whichever
side is narrower, chosen by operand shape alone: the input rows when they
are no wider than the output, else the output, whose kd shifted column
blocks are then summed.  The last kd - 1 rows of each band run have windows
that cross into the next run; they are invalid, dropped from every
channels-first output, and carry zero adjoint, which makes the two adjoints
the same tap GEMMs.  This row layout with the invalid rows kept is the run
layout; an adjoint in it is also led by kd - 1 zero rows.

One op runs over a batch of patches in training: :func:`conv3d_dropout_dense`,
the autoencoder's first convolution, dropout and the encoder fold's dense map
in one.  Its activation and adjoint stay in the run layout, so neither is
copied into the channels-first layout of the public ops.  It and
:func:`dropout` always draw a mask; at inference dropout is an identity and
the encoder is one dense map.  In the folds of :mod:`hsiseg.cae` the other
convolutions run over ``embedding_dim`` items, or over one layer's kernels to
build the composite kernel of two layers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError

LOG_CLAMP = 1e-12  # lower clamp applied inside log() of the KL divergence
WORKSPACE = 1 << 17  # float64 values per chunk of convolution tap windows (1 MiB)


class Tensor:
    """A dense float64 array plus an adjoint slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of executed primitives, replayed in reverse for adjoints.

    Each record holds the op's output, its input tensors, and a closure
    mapping the output adjoint to per-input adjoints.  ``backward`` walks
    the records in exact reverse execution order and accumulates adjoints
    additively, so fan-out sums as it must.  A tensor's first adjoint becomes
    its ``grad`` as it is and a later one makes a new sum, never an in-place
    update: one array can be the adjoint of two inputs (``add`` passes the
    same ``g`` to both).  A record's output is never a leaf and its adjoint
    is complete once its record is reached, so it is released there: after
    ``backward`` only the leaves hold a ``grad``.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._records.append((output, inputs, backward))

    def backward(self, output: Tensor) -> None:
        """Seed d(output)/d(output) = 1 and propagate to every leaf."""
        if output.data.ndim != 0:
            raise ParameterError("backward requires a scalar output")
        output.grad = np.asarray(1.0)
        for out, inputs, fn in reversed(self._records):
            g, out.grad = out.grad, None
            if g is None:
                continue
            for tensor, adj in zip(inputs, fn(g)):
                if adj is not None:
                    tensor.grad = adj if tensor.grad is None else tensor.grad + adj


def _emit(tape: Tape | None, out_data: np.ndarray, inputs: tuple[Tensor, ...],
          backward: Callable) -> Tensor:
    tracked = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tape is not None and tracked:
        tape.record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# convolution cores (pure numpy, shared by forward and adjoint passes)
# ---------------------------------------------------------------------------

def _spatial_rows(x5: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The (P*h'*w'*d, kh*kw*C) spatial-window rows of a (P, C, h, w, d) volume.

    Row ``((p*h' + y)*w' + x)*d + z`` holds ``x5[p, :, y:y+kh, x:x+kw, z]``
    in (i, j, c) order, channels last: every input band of every valid
    spatial position, so spectral tap l of a correlation reads the rows
    shifted by l.
    """
    P, C, h, w, d = x5.shape
    hp, wp = h - kh + 1, w - kw + 1
    win = sliding_window_view(x5, (kh, kw), axis=(2, 3))                  # (P,C,h',w',d,kh,kw)
    rows = np.ascontiguousarray(win.transpose(0, 2, 3, 4, 5, 6, 1))
    return rows.reshape(P * hp * wp * d, kh * kw * C)


def _band_runs(g5: np.ndarray, kd: int) -> np.ndarray:
    """A (P, K, h', w', d') adjoint in run layout: (kd - 1 + P*h'*w'*d, K) rows.

    ``d = d' + kd - 1``: each band run carries the d' adjoint values and
    then kd - 1 zeros, in the places of the rows a correlation drops.  The
    runs follow kd - 1 zero rows, which a tap GEMM with reversed taps reads
    as the window of the first rows.
    """
    P, K, hp, wp, dp = g5.shape
    runs = np.zeros((kd - 1 + P * hp * wp * (dp + kd - 1), K))
    runs[kd - 1:].reshape(P, hp, wp, dp + kd - 1, K)[:, :, :, :dp] = g5.transpose(0, 2, 3, 4, 1)
    return runs


def _chunk_bounds(n: int, width: int) -> list[int]:
    """Bounds that split n rows of ``width`` values evenly into chunks of about WORKSPACE values.

    BLAS picks its kernel by operand size, and a short last chunk could
    round differently from the rest.
    """
    if n < 1:
        return []
    chunks = -(-n // max(1, WORKSPACE // width))
    return [n * c // chunks for c in range(chunks + 1)]


def _tap_windows(rows: np.ndarray, kd: int):
    """Yield ``(start, windows)``: row r of ``windows`` is ``rows[start+r : start+r+kd]``.

    Each chunk is copied contiguously as (rows, kd*q) with the tap axis
    outer, split evenly by :func:`_chunk_bounds`.
    """
    q = rows.shape[1]
    bounds = _chunk_bounds(len(rows) - kd + 1, kd * q)
    if not bounds:  # an empty batch
        return
    win = sliding_window_view(rows, kd, axis=0).transpose(0, 2, 1)       # (n, kd, q)
    for a, b in zip(bounds, bounds[1:]):
        yield a, np.ascontiguousarray(win[a:b]).reshape(b - a, kd * q)


def _tap_gemm(rows: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``out[r] = sum_l rows[r+l] @ taps[l]`` for (m, q) rows and (kd, q, K) taps.

    The narrower side is windowed.  With q <= K each row's kd-row input
    window is copied and multiplied by the taps stacked as (kd*q, K).  With
    q > K each chunk of rows, plus the kd - 1 rows after it, is multiplied
    once by the taps side by side as (q, kd*K), and the kd shifted (rows, K)
    column blocks are added in tap order.  The last kd - 1 rows of ``out``
    have no full window and are zero.  Either way a row's result does not
    depend on where a chunk starts.
    """
    kd, q, K = taps.shape
    n = len(rows) - kd + 1
    out = np.empty((len(rows), K))
    out[n:] = 0.0
    if q <= K:
        flat = taps.reshape(kd * q, K)
        for a, windows in _tap_windows(rows, kd):
            np.matmul(windows, flat, out=out[a:a + len(windows)])
        return out
    wide = taps.transpose(1, 0, 2).reshape(q, kd * K)
    bounds = _chunk_bounds(n, kd * K)
    for a, b in zip(bounds, bounds[1:]):
        cols = rows[a:b + kd - 1] @ wide
        block = out[a:b]
        block[:] = cols[:b - a, :K]
        for l in range(1, kd):
            block += cols[l:l + b - a, l * K:(l + 1) * K]
    return out


def _correlate_runs(rows: np.ndarray, k5: np.ndarray) -> np.ndarray:
    """Valid cross-correlation by (K, C, kh, kw, kd) kernels in run layout.

    One tap GEMM over the spatial-window rows of :func:`_spatial_rows`: row
    ``((p*h' + y)*w' + x)*d + z`` of the (P*h'*w'*d, K) result holds the K
    outputs at (y, x, z).  The last kd - 1 rows of each band run mix two runs
    and are invalid.
    """
    K, C, kh, kw, kd = k5.shape
    return _tap_gemm(rows, k5.transpose(4, 2, 3, 1, 0).reshape(kd, kh * kw * C, K))


def _correlate(x5: np.ndarray, k5: np.ndarray) -> np.ndarray:
    """Valid cross-correlation: (P,C,h,w,d) x (K,C,kh,kw,kd) -> (P,K,h',w',d').

    :func:`_correlate_runs` with the invalid rows dropped, channels first.
    """
    P, C, h, w, d = x5.shape
    K, _, kh, kw, kd = k5.shape
    hp, wp, dp = h - kh + 1, w - kw + 1, d - kd + 1
    out = _correlate_runs(_spatial_rows(x5, kh, kw), k5).reshape(P, hp, wp, d, K)
    return np.ascontiguousarray(out[:, :, :, :dp].transpose(0, 4, 1, 2, 3))


def _full_convolve(y5: np.ndarray, k5: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_correlate`: (P,K,h',w',d') -> (P,C,h,w,d).

    Row s of the spatial-window adjoint is ``sum_l g[s-l] @ W_l.T`` over the
    zero-padded band runs g, one tap GEMM with the taps reversed; kh*kw
    block adds then fold the window rows back onto the volume.
    """
    P, K, hp, wp, dp = y5.shape
    _, C, kh, kw, kd = k5.shape
    h, w, d = hp + kh - 1, wp + kw - 1, dp + kd - 1
    taps = k5[..., ::-1].transpose(4, 0, 2, 3, 1).reshape(kd, K, kh * kw * C)
    cols = _tap_gemm(_band_runs(y5, kd), taps)[:P * hp * wp * d]
    cols = cols.reshape(P, hp, wp, d, kh, kw, C)
    out = np.zeros((P, h, w, d, C))
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + hp, j:j + wp] += cols[:, :, :, :, i, j]
    return np.ascontiguousarray(out.transpose(0, 4, 1, 2, 3))


def _kernel_adjoint(rows: np.ndarray, runs: np.ndarray, kshape: tuple[int, ...]) -> np.ndarray:
    """d(loss)/d(kernels) of a correlation, reduced over batch and positions.

    ``rows`` are the input's spatial-window rows (:func:`_spatial_rows`) and
    ``runs`` the output adjoint in run layout (:func:`_band_runs`): kd - 1
    zero rows, then one row per row of ``rows``, zero on the invalid rows.
    Tap l is ``rows[l:l+n].T @ g`` summed chunk by chunk, and the narrower
    side is windowed.  With kh*kw*C <= K that is the kd-row windows of the
    spatial rows against g.  Otherwise it is the spatial rows against the
    kd-row windows of the runs, whose tap blocks come out in reverse order.
    """
    K, C, kh, kw, kd = kshape
    q = kh * kw * C
    if q <= K:
        g = runs[kd - 1:]
        dk = np.zeros((kd * q, K))
        for a, windows in _tap_windows(rows, kd):
            dk += windows.T @ g[a:a + len(windows)]
        return dk.reshape(kd, kh, kw, C, K).transpose(4, 3, 1, 2, 0)
    dk = np.zeros((q, kd * K))
    for a, windows in _tap_windows(runs, kd):
        dk += rows[a:a + len(windows)].T @ windows
    return dk.reshape(kh, kw, C, kd, K)[:, :, :, ::-1].transpose(4, 2, 0, 1, 3)


def _conv_operands(x: Tensor, kernels: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The (P, C, h, w, d) input and the (K, C, kh, kw, kd) kernels of a convolution."""
    if x.data.ndim not in (4, 5):
        raise ShapeError("convolution input must be (P, C, h, w, d) or (C, h, w, d), "
                         f"got rank {x.data.ndim}")
    if kernels.data.ndim != 5:
        raise ShapeError("convolution kernels must be (K, C, kh, kw, kd), "
                         f"got rank {kernels.data.ndim}")
    return x.data.reshape((-1,) + x.data.shape[-4:]), kernels.data


def _correlation_operands(x: Tensor, kernels: Tensor,
                          bias: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_conv_operands` of a forward convolution, checked against each other and ``bias``."""
    x5, k5 = _conv_operands(x, kernels)
    if k5.shape[1] != x5.shape[1]:
        raise ShapeError(
            f"kernel channels {k5.shape[1]} do not match input channels {x5.shape[1]}")
    if any(ke > xe for ke, xe in zip(k5.shape[2:], x5.shape[2:])):
        raise ShapeError(f"kernel extents {k5.shape[2:]} exceed input extents {x5.shape[2:]}")
    if bias.data.shape != (k5.shape[0],):
        raise ShapeError(f"bias must have shape ({k5.shape[0]},), got {bias.data.shape}")
    return x5, k5


def _check_dropout(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must lie in [0, 1), got {p}")


# ---------------------------------------------------------------------------
# differentiable primitives
# ---------------------------------------------------------------------------

def conv3d(x, kernels, bias, tape: Tape | None = None) -> Tensor:
    """Valid 3D convolution with unit stride.

    Output spatial extents shrink by ``kernel extent - 1`` per axis; the C
    input channels are reduced and the K output channels form the axis after
    the batch axis.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    x5, k5 = _correlation_operands(x, kernels, bias)
    kh, kw, kd = k5.shape[2:]

    out5 = _correlate(x5, k5)
    out5 += bias.data[None, :, None, None, None]

    def backward(g):
        g5 = g.reshape(out5.shape)
        dx = _full_convolve(g5, k5).reshape(x.data.shape) if x.requires_grad else None
        dk = (_kernel_adjoint(_spatial_rows(x5, kh, kw), _band_runs(g5, kd), k5.shape)
              if kernels.requires_grad else None)
        db = g5.sum(axis=(0, 2, 3, 4)) if bias.requires_grad else None
        return dx, dk, db

    return _emit(tape, out5.reshape(x.data.shape[:-4] + out5.shape[1:]),
                 (x, kernels, bias), backward)


def conv3d_transpose(y, kernels, bias, tape: Tape | None = None) -> Tensor:
    """Transposed 3D convolution: the linear adjoint of :func:`conv3d`.

    Consumes a K-channel volume and produces a C-channel volume whose
    extents grow by ``kernel extent - 1`` per axis.
    """
    y, kernels, bias = as_tensor(y), as_tensor(kernels), as_tensor(bias)
    y5, k5 = _conv_operands(y, kernels)
    if k5.shape[0] != y5.shape[1]:
        raise ShapeError(
            f"kernel count {k5.shape[0]} does not match input channels {y5.shape[1]}")
    if bias.data.shape != (k5.shape[1],):
        raise ShapeError(f"bias must have shape ({k5.shape[1]},), got {bias.data.shape}")
    kh, kw, kd = k5.shape[2:]

    out5 = _full_convolve(y5, k5)
    out5 += bias.data[None, :, None, None, None]

    def backward(g):
        g5 = g.reshape(out5.shape)
        dy = _correlate(g5, k5).reshape(y.data.shape) if y.requires_grad else None
        # the forward-conv kernel adjoint with the roles of activation and
        # adjoint swapped
        dk = (_kernel_adjoint(_spatial_rows(g5, kh, kw), _band_runs(y5, kd), k5.shape)
              if kernels.requires_grad else None)
        db = g5.sum(axis=(0, 2, 3, 4)) if bias.requires_grad else None
        return dy, dk, db

    return _emit(tape, out5.reshape(y.data.shape[:-4] + out5.shape[1:]),
                 (y, kernels, bias), backward)


def dense(x, weights, bias, tape: Tape | None = None) -> Tensor:
    """Affine map ``x @ weights.T + bias`` of a (P, n) batch of rows."""
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    w, b = weights.data, bias.data
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ShapeError(f"weights {w.shape} and bias {b.shape} disagree")
    if x.data.ndim != 2 or x.data.shape[1] != w.shape[1]:
        raise ShapeError(f"input {x.data.shape} does not match weights {w.shape}")

    out_data = x.data @ w.T
    out_data += b

    def backward(g):
        dx = g @ w if x.requires_grad else None
        dw = g.T @ x.data if weights.requires_grad else None
        db = g.sum(axis=0) if bias.requires_grad else None
        return dx, dw, db

    return _emit(tape, out_data, (x, weights, bias), backward)


def dropout(x, p: float, rng: np.random.Generator, tape: Tape | None = None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    It runs in training only: at inference it is an identity, and the
    encoder is then :func:`hsiseg.cae.encoder_map`.  It draws one uniform
    variate per element from ``rng`` even when p == 0, so a fixed seed gives
    a bit-identical run regardless of the dropout setting.
    """
    _check_dropout(p)
    x = as_tensor(x)
    keep = rng.random(x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    out_data = x.data * scale
    out_data *= keep  # a multiply, so a dropped entry keeps the sign of x * 0.0

    def backward(g):
        if not x.requires_grad:
            return (None,)
        dx = g * scale
        dx *= keep
        return (dx,)

    return _emit(tape, out_data, (x,), backward)


def conv3d_dropout_dense(x, kernels, bias, p: float, rng: np.random.Generator,
                         dense_weights, dense_bias, tape: Tape | None = None) -> Tensor:
    """``dense(reshape(dropout(conv3d(x, kernels, bias), p, rng), (P, -1)), dense_weights,
    dense_bias)`` as one primitive over a (P, C, h, w, d) batch with no adjoint.

    The (n, K*h'*w'*d') dense weights read the channels-first convolution
    output.  The convolution output and its adjoint stay in the run layout
    of :func:`_correlate_runs` instead, invalid rows included, so neither is
    copied into another layout.  The dense weights are permuted once to that
    layout, with zeros on the invalid rows and dropout's 1/(1-p) folded in.
    Dropout draws its mask from ``rng`` as :func:`dropout` does, in the
    channels-first order, and multiplies the convolution output by it in
    place.  The dense input adjoint then already is the zero-tailed run
    layout that :func:`_kernel_adjoint` reads, against the spatial rows of
    the forward pass.  This is the training op; at inference the encoder is
    :func:`hsiseg.cae.encoder_map`.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    weights, offset = as_tensor(dense_weights), as_tensor(dense_bias)
    if x.requires_grad:
        raise ParameterError("conv3d_dropout_dense gives its input no adjoint")
    _check_dropout(p)
    x5, k5 = _correlation_operands(x, kernels, bias)
    P, _, h, w, d = x5.shape
    K, _, kh, kw, kd = k5.shape
    hp, wp, dp = h - kh + 1, w - kw + 1, d - kd + 1
    wd, ob = weights.data, offset.data
    if wd.ndim != 2 or wd.shape[1] != K * hp * wp * dp or ob.shape != (wd.shape[0],):
        raise ShapeError(f"dense weights {wd.shape} and bias {ob.shape} do not match "
                         f"the convolution output {(P, K, hp, wp, dp)}")
    n, width = len(wd), hp * wp * d * K  # width: one item's run-layout values

    drawn = rng.random((P, K, hp, wp, dp)) >= p
    keep = np.zeros((P, hp, wp, d, K), dtype=bool)
    keep[:, :, :, :dp] = drawn.transpose(0, 2, 3, 4, 1)
    keep, scale = keep.reshape(-1, K), 1.0 / (1.0 - p)
    perm = np.zeros((n, hp, wp, d, K))
    perm[:, :, :, :dp] = wd.reshape(n, K, hp, wp, dp).transpose(0, 2, 3, 4, 1)
    perm = perm.reshape(n, width)
    perm *= scale
    rows = _spatial_rows(x5, kh, kw)
    act = _correlate_runs(rows, k5)
    act += bias.data
    act *= keep
    out_data = act.reshape(P, width) @ perm.T
    out_data += ob

    def backward(g):
        dw = dk = db = None
        if weights.requires_grad:
            dw = (g.T @ act.reshape(P, width)).reshape(n, hp, wp, d, K)[:, :, :, :dp]
            dw = np.multiply(dw.transpose(0, 4, 1, 2, 3), scale, order="C").reshape(n, -1)
        if kernels.requires_grad or bias.requires_grad:
            runs = np.empty((kd - 1 + len(act), K))
            runs[:kd - 1] = 0.0
            np.matmul(g, perm, out=runs[kd - 1:].reshape(P, width))
            runs[kd - 1:] *= keep
            dk = _kernel_adjoint(rows, runs, k5.shape) if kernels.requires_grad else None
            db = runs.sum(axis=0) if bias.requires_grad else None
        return None, dk, db, dw, g.sum(axis=0) if offset.requires_grad else None

    return _emit(tape, out_data, (x, kernels, bias, weights, offset), backward)


def reshape(x, shape: Sequence[int], tape: Tape | None = None) -> Tensor:
    x = as_tensor(x)
    old = x.data.shape
    out_data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(old) if x.requires_grad else None,)

    return _emit(tape, out_data, (x,), backward)


def _elementwise(a, b, op_name: str):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op_name} requires equal shapes, got {a.data.shape} vs {b.data.shape}")
    return a, b


def add(a, b, tape: Tape | None = None) -> Tensor:
    a, b = _elementwise(a, b, "add")

    def backward(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _emit(tape, a.data + b.data, (a, b), backward)


def sub(a, b, tape: Tape | None = None) -> Tensor:
    a, b = _elementwise(a, b, "sub")

    def backward(g):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _emit(tape, a.data - b.data, (a, b), backward)


def mul(a, b, tape: Tape | None = None) -> Tensor:
    a, b = _elementwise(a, b, "mul")

    def backward(g):
        da = g * b.data if a.requires_grad else None
        db = g * a.data if b.requires_grad else None
        return da, db

    return _emit(tape, a.data * b.data, (a, b), backward)


def scale(x, factor: float, tape: Tape | None = None) -> Tensor:
    x = as_tensor(x)
    factor = float(factor)

    def backward(g):
        return (g * factor if x.requires_grad else None,)

    return _emit(tape, x.data * factor, (x,), backward)


def sum_all(x, tape: Tape | None = None) -> Tensor:
    x = as_tensor(x)

    def backward(g):
        return (np.broadcast_to(g, x.data.shape).copy() if x.requires_grad else None,)

    return _emit(tape, x.data.sum(), (x,), backward)


def pairwise_sqdist(z, centers, tape: Tape | None = None) -> Tensor:
    """Squared Euclidean distances between rows of z (P,n) and centers (J,n)."""
    z, centers = as_tensor(z), as_tensor(centers)
    zd, cd = z.data, centers.data
    if zd.ndim != 2 or cd.ndim != 2 or zd.shape[1] != cd.shape[1]:
        raise ShapeError(f"incompatible shapes {zd.shape} and {cd.shape}")
    sq = (zd * zd).sum(axis=1)[:, None] + (cd * cd).sum(axis=1)[None, :] - 2.0 * zd @ cd.T
    np.maximum(sq, 0.0, out=sq)

    def backward(g):
        dz = 2.0 * (zd * g.sum(axis=1, keepdims=True) - g @ cd) if z.requires_grad else None
        dc = 2.0 * (cd * g.sum(axis=0)[:, None] - g.T @ zd) if centers.requires_grad else None
        return dz, dc

    return _emit(tape, sq, (z, centers), backward)


def student_t_rows(sqdist, tape: Tape | None = None) -> Tensor:
    """Row-normalized Student's-t kernel: (1+d)^-1 scaled so each row sums to 1."""
    sqdist = as_tensor(sqdist)
    u = 1.0 / (1.0 + sqdist.data)
    s = u.sum(axis=1, keepdims=True)
    q = u / s

    def backward(g):
        if not sqdist.requires_grad:
            return (None,)
        du = (g - (g * q).sum(axis=1, keepdims=True)) / s
        return (-(u * u) * du,)

    return _emit(tape, q, (sqdist,), backward)


def kl_divergence(target: np.ndarray, q, tape: Tape | None = None) -> Tensor:
    """KL(target || q) with the convention 0*log(0/q) = 0 and q clamped at 1e-12.

    The target is a constant: no adjoint flows into it, matching its role as
    a per-epoch snapshot rather than a trainable quantity.
    """
    q = as_tensor(q)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != q.data.shape:
        raise ShapeError(f"target {t.shape} and q {q.data.shape} disagree")
    qc = np.maximum(q.data, LOG_CLAMP)
    val = np.where(t > 0.0, t * (np.log(np.maximum(t, LOG_CLAMP)) - np.log(qc)), 0.0).sum()

    def backward(g):
        return ((-t / qc) * g if q.requires_grad else None,)

    return _emit(tape, val, (q,), backward)


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[Tape | None], Tensor],
               params: Tensor | Iterable[Tensor],
               eps: float = 1e-3) -> float:
    """Compare analytic adjoints of ``f`` against central differences.

    ``f(tape)`` must rebuild a scalar from the current values of ``params``;
    it is invoked once with a fresh tape for the analytic pass and then
    twice per coordinate with ``tape=None`` for the numeric probes.
    Returns the max over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if eps <= 0:
        raise ParameterError(f"finite-difference step must be positive, got {eps}")
    param_list = [params] if isinstance(params, Tensor) else list(params)
    for p in param_list:
        p.zero_grad()

    tape = Tape()
    out = f(tape)
    if out.data.ndim != 0:
        raise ParameterError("grad_check requires a scalar-valued function")
    tape.backward(out)

    worst = 0.0
    for p in param_list:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            f_plus = float(f(None).data)
            p.data[idx] = orig - eps
            f_minus = float(f(None).data)
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[idx])
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst
