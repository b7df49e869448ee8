"""Minimal dense tensor engine with reverse-mode differentiation.

Values live in contiguous numpy float32 buffers (float64 for gradient
checking); image-like tensors are laid out [batch, height, width, channels].
Every differentiable op records an entry on the current tape, the one
whose ``with Tape():`` block is innermost; inside ``no_grad`` there is no
current tape and ops record nothing. The tape is the graph: ``backward``
replays the current tape in reverse from the loss's entry to populate
``grad`` buffers on the leaves. It releases each entry once the entry has
run, so an op's saved arrays die as soon as its input grads are out, and an
activation dies once no entry still to run holds it, not when the tape's
block ends. A tape can therefore be walked once; the block's exit drops
only what the walk never reached.

Ownership on the tape: an entry keeps, per input, only where that input's
grad goes (the producer's entry, the leaf, or nowhere), never the input
tensor, and an op's backward closure keeps only the arrays it reads. So an
activation no backward reads (``add``'s operands, a ``linear`` output
without its ReLU) dies in the forward once the model drops it, and an array
a backward can rebuild bit for bit from what it keeps is not kept
(attention's P, rebuilt from its row max and row sum). A backward
returns arrays it does not keep, and it may overwrite a writeable grad it
is handed (``layer_norm`` writes its input grad there, ``linear`` its
ReLU-masked grad): the walk owns every grad it hands on, and makes one it
hands to two producers (``add``'s) read-only for both. A caller that runs a
backward directly and keeps its grad passes a read-only view.

The ops are the ones the model and the losses record, each with one call
form: add, reshape, broadcast_batch, ``linear`` (x·w + b as one op
and one 2-D GEMM; ``relu=True`` applies a following ReLU in the same op),
matmul_nt (a·bᵀ), layer_norm (``relu=True`` applies a following ReLU in the
same op), conv2d (im2col GEMM, with its bias), ``upsample2x_conv3x3`` (a
nearest 2x upsample fused into the following 3x3 conv, computed one output
phase at a time), multi-head attention (one op with a hand-written
backward) and the sine position embedding. Both convolutions keep only
their input for the backward, which rebuilds the im2col columns (and the
up-conv its folded weight) from it, one op at a time, rather than holding
every op's columns on the tape; each gets its input grad as col2im of the
column grad (``_col2im``, the adjoint of ``_im2col``). The one op defined
elsewhere, the batch loss ``losses.total_loss``, records through
``_make_result`` too. No model op records a standalone ``relu``; only the
acceptance suite's network calls it.

There is no broadcasting beyond ``linear``'s and ``conv2d``'s bias;
mismatched shapes fail loudly with the shapes named.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class ConfigError(ValueError):
    """Invalid structural configuration (e.g. odd embedding channels)."""


class ContractError(RuntimeError):
    """An op was called outside its stated preconditions."""


_FLOAT_DTYPES = (np.float32, np.float64)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class _TapeEntry:
    """One recorded op: its inputs' grad routes and the closure that maps its output grad to theirs.

    ``routes[i]`` is where input i's grad goes: the entry that produced the
    input, the input itself if it is a leaf that requires grad, or None. So
    an entry holds no input tensor, and an input's array lives only as long
    as the model, or a closure that reads it, holds it. The output points at
    its entry, not the other way round, so a tensor and its entry form no
    cycle. ``op`` is the closure's qualified name, kept to name the op once
    the closure is gone.
    """

    __slots__ = ("index", "op", "routes", "backward_fn")

    def __init__(self, index, inputs, backward_fn):
        self.index = index
        self.op = backward_fn.__qualname__
        self.routes = tuple(t._entry or (t if t.requires_grad else None) for t in inputs)
        self.backward_fn = backward_fn

    def release(self):
        """Drop the routes and the closure, and with them every array the op saved."""
        self.routes = self.backward_fn = None


class Tape:
    """Ordered record of executed ops; replaying it backward fills gradients.

    The current tape is one module slot shared by every thread, so use
    tapes from one thread. Entering a tape makes it current and exiting
    restores the outer one, so tapes nest (the trainer opens one per step).
    With no current tape (outside every tape, or in ``no_grad``) ops record
    nothing, and ``backward`` on their result raises ``ContractError``.
    ``backward`` releases each entry it runs, so a tape can be walked once:
    a second walk that reaches a released entry raises ``ContractError``. On
    exit the tape releases the entries the walk never reached (an op after
    the loss, or one whose grad never arrived) and drops its list, so the
    step's activations are freed by reference counting rather than by a
    later cyclic collection. Run ``backward`` inside the block.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []

    def record(self, inputs, output, backward_fn) -> None:
        """Append the op that made ``output`` from ``inputs``, and link ``output`` to it."""
        output._entry = _TapeEntry(len(self.entries), inputs, backward_fn)
        self.entries.append(output._entry)

    def clear(self):
        """Release every entry (those the walk ran already hold nothing) and drop them."""
        for entry in self.entries:
            entry.release()
        self.entries.clear()

    def __enter__(self):
        global _TAPE
        self._outer, _TAPE = _TAPE, self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _TAPE
        _TAPE = self._outer
        self.clear()
        return False


_TAPE: Tape | None = None   # the tape ops record on; None outside every tape and in no_grad


class no_grad:
    """Context manager with no current tape, so ops record nothing (inference / matching)."""

    def __enter__(self):
        global _TAPE
        self._outer, _TAPE = _TAPE, None
        return self

    def __exit__(self, exc_type, exc, tb):
        global _TAPE
        _TAPE = self._outer
        return False


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------

class Tensor:
    """Dense n-dimensional float array with optional gradient buffer.

    Immutable after construction except for ``grad``; ops return new tensors.
    """

    __slots__ = ("data", "requires_grad", "grad", "_entry")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._entry: _TapeEntry | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _result_dtype(*arrays):
    return np.float64 if any(a.dtype == np.float64 for a in arrays) else np.float32


def _make_result(data, inputs, backward_fn) -> Tensor:
    """Wrap an op result, recording on the current tape when an input requires grad."""
    out = Tensor(data)
    if _TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.record(inputs, out, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf that ``loss`` depends on.

    ``loss`` must be a scalar recorded on the current tape. ``backward``
    replays that tape in reverse from the loss's entry; an entry runs its
    ``backward_fn`` only once its output holds a grad, so ops that do not
    feed the loss are skipped, and leaves they alone read get no grad. Each
    entry is released once it has run, so its saved arrays die mid-walk and
    the tape can be walked once: a walk that reaches an entry an earlier
    ``backward`` consumed, such as a repeat on the same loss, raises
    ``ContractError`` naming the op. The walk owns each pending grad and
    hands it to exactly one backward, which may overwrite it; a grad routed
    to two producers is read-only for both, and a leaf's ``grad`` is a copy.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._entry is None:
        if loss.requires_grad:
            # a bare leaf: d loss / d loss = 1
            _accumulate_leaf(loss, np.ones_like(loss.data))
            return
        raise ContractError("loss is not connected to a tape")
    entries = _TAPE.entries if _TAPE is not None else []
    last = loss._entry.index
    if last >= len(entries) or entries[last] is not loss._entry:
        raise ContractError("loss is not on the current tape")

    # keyed by the entry that produced the tensor the grad is for
    grads: dict[_TapeEntry, np.ndarray] = {loss._entry: np.ones_like(loss.data)}
    for entry in reversed(entries[:last + 1]):
        out_grad = grads.pop(entry, None)
        if out_grad is not None:
            _run_entry(entry, out_grad, grads)


def _run_entry(entry: _TapeEntry, out_grad: np.ndarray, grads: dict) -> None:
    """Run one entry's backward, route its input grads into ``grads`` and leaves, release it.

    The walk owns ``out_grad`` (it was popped from ``grads``), so the
    backward may overwrite it if it is writeable. An input grad that may
    share memory with another the entry routes, such as ``add``'s ``(g, g)``,
    goes on as a read-only view, so neither producer can write it under the
    other. A function of its own so that none of its locals (the grads)
    outlives the call into the next entry's backward.
    """
    if entry.backward_fn is None:
        op = entry.op.split(".<locals>")[0]
        raise ContractError(f"backward reached the {op} op, which an earlier backward "
                            f"already consumed; a tape can be walked once")
    routed = [(route, g) for route, g in zip(entry.routes, entry.backward_fn(out_grad))
              if route is not None and g is not None]
    entry.release()
    for route, g in routed:
        if sum(np.may_share_memory(g, h) for _, h in routed) > 1:
            g = g.view()
            g.flags.writeable = False
        if isinstance(route, Tensor):
            _accumulate_leaf(route, g)
        elif route in grads:
            grads[route] = grads[route] + g
        else:
            grads[route] = g


def _accumulate_leaf(t: Tensor, g: np.ndarray):
    g = np.asarray(g, dtype=t.data.dtype)
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} != tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape {a.shape} does not match shape {b.shape}")
    dt = _result_dtype(a.data, b.data)
    return _make_result(a.data.astype(dt, copy=False) + b.data.astype(dt, copy=False), (a, b),
                        lambda g: (g, g))


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _make_result(np.maximum(xd, 0), (x,), lambda g: (g * (xd > 0),))


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size and -1 not in shape:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}")
    old = x.shape
    return _make_result(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def broadcast_batch(x: Tensor, batch: int) -> Tensor:
    """Repeat x along a new leading batch axis; gradient sums it away."""
    out = np.broadcast_to(x.data, (int(batch),) + x.shape).copy()
    return _make_result(out, (x,), lambda g: (g.sum(axis=0),))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a·bᵀ, [..., m, k] x [..., n, k] -> [..., m, n]; BLAS reads bᵀ as a strided view."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-1]:
        raise ShapeError(f"matmul_nt: shapes {a.shape} and {b.shape} are not [..., m, k] and [..., n, k]")
    out = np.matmul(ad, bd.swapaxes(-1, -2))
    return _make_result(out, (a, b), lambda g: (g @ bd, g.swapaxes(-1, -2) @ ad))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x[..., in] @ w[in, out] + b[out], one op; w and b are shared across the leading dims.

    The leading dims flatten into the rows of one 2-D GEMM, forward and
    backward, so neither a per-image batched matmul nor a transposed copy
    of x is made. ``relu=True`` is ``relu(linear(...))`` as one op: the
    output is clamped at 0 in place, and the backward zeroes the incoming
    grad where the output is not positive, in place if the grad is
    writeable. Only then does the backward keep the output.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: input {x.shape}, weights {w.shape} and bias {b.shape} do not match")
    x2 = xd.reshape(math.prod(xd.shape[:-1]), wd.shape[0])
    out = x2 @ wd
    out += b.data
    rows = out.shape
    if relu:
        np.maximum(out, 0, out=out)
    kept = out if relu else None

    def bwd(g):
        g2 = g.reshape(rows)
        if relu:
            g2 = np.multiply(g2, kept > 0, out=g2 if g2.flags.writeable else None)
        return (g2 @ wd.T).reshape(xd.shape), x2.T @ g2, g2.sum(axis=0)

    return _make_result(out.reshape(xd.shape[:-1] + wd.shape[1:]), (x, w, b), bwd)


# ---------------------------------------------------------------------------
# Layer normalization
# ---------------------------------------------------------------------------

# Rows per layer_norm block: _LN_BLOCK // c rows of float64 are 512 KB, so a
# block's two (forward) or three (backward) buffers stay in a 2 MB L2 cache.
_LN_BLOCK = 65536


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5,
               relu: bool = False) -> Tensor:
    """Normalize over the last axis, then apply learnable scale/shift (and a ReLU).

    Statistics are always computed in float64; reduced-precision normalization
    is a known convergence hazard. Forward and backward run over blocks of
    ``max(1, _LN_BLOCK // c)`` rows in reused float64 buffers, never a
    full-size float64 copy. Per row the arithmetic is the plain np.mean /
    np.var formula in the same order, so the blocking changes no bit. The
    backward keeps only the per-row mean and 1/std ([n, 1] float64) and
    recomputes xhat block by block.

    ``relu=True`` is ``relu(layer_norm(...))`` as one op: each float64 block
    is clamped at 0 before its store, and the backward zeroes the incoming
    grad where the output is not positive, block by block, so neither a
    second full-size output nor a mask is kept; without the ReLU the
    backward keeps no output. The backward writes the input grad into the
    incoming grad if that is writeable and of the input's dtype, each block
    of the grad read before it is overwritten, so it allocates no second
    input-sized array.
    """
    c = x.shape[-1]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError(
            f"layer_norm: scale {scale.shape} / shift {shift.shape} do not match channels ({c},)"
        )
    xd, sd = x.data.reshape(-1, c), scale.data
    shape, shift_dtype = x.shape, shift.dtype           # the backward keeps no tensor
    n = xd.shape[0]
    rows = max(1, _LN_BLOCK // c)
    mean = np.empty((n, 1))
    inv = np.empty((n, 1))
    out = np.empty(xd.shape, dtype=x.dtype)
    xb = np.empty((min(rows, n), c))
    tb = np.empty_like(xb)
    for i in range(0, n, rows):
        k = min(rows, n - i)
        xh, t, m, v = xb[:k], tb[:k], mean[i:i + k], inv[i:i + k]
        xh[...] = xd[i:i + k]
        np.mean(xh, axis=-1, keepdims=True, out=m)
        xh -= m
        np.multiply(xh, xh, out=t)
        np.sum(t, axis=-1, keepdims=True, out=v)
        v /= c
        v += eps
        np.sqrt(v, out=v)
        np.divide(1.0, v, out=v)
        xh *= v
        np.multiply(xh, sd, out=t)
        t += shift.data
        if relu:
            np.maximum(t, 0.0, out=t)
        out[i:i + k] = t
    kept = out if relu else None

    def bwd(g):
        g = g.reshape(-1, c)
        dx = g if g.flags.writeable and g.dtype == xd.dtype else np.empty_like(xd)
        xb = np.empty((min(rows, n), c))
        # rows 1..k of gb / pb hold a block of g / g*xhat; from the second
        # block on, row 0 carries the column sums so far, so the sums add the
        # rows in the same sequence as one sum(axis=0) over all n rows
        gb = np.empty((xb.shape[0] + 1, c))
        pb = np.empty_like(gb)
        for i in range(0, n, rows):
            k = min(rows, n - i)
            xh, gk, pk, v = xb[:k], gb[1:k + 1], pb[1:k + 1], inv[i:i + k]
            xh[...] = xd[i:i + k]
            xh -= mean[i:i + k]
            xh *= v
            gk[...] = g[i:i + k]
            if relu:
                gk *= kept[i:i + k] > 0
            np.multiply(gk, xh, out=pk)
            if i:
                pb[0], gb[0] = d_scale, d_shift
            first = 0 if i else 1
            d_scale = pb[first:k + 1].sum(axis=0)
            d_shift = gb[first:k + 1].sum(axis=0)
            gk *= sd                                              # dxhat
            m1 = gk.mean(axis=-1, keepdims=True)
            np.multiply(gk, xh, out=pk)
            m2 = pk.mean(axis=-1, keepdims=True)
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            gk -= m1
            xh *= m2
            gk -= xh
            gk *= v
            dx[i:i + k] = gk
        return dx.reshape(shape), d_scale.astype(sd.dtype), d_shift.astype(shift_dtype)

    return _make_result(out.reshape(x.shape), (x, scale, shift), bwd)


# ---------------------------------------------------------------------------
# Convolution (NHWC): conv2d and the fused upsample2x_conv3x3
# ---------------------------------------------------------------------------

def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int):
    # xp: padded [B, H, W, C] -> col [B*Ho*Wo, kh*kw*C]
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))       # [B,Ho',Wo',C,kh,kw]
    win = win[:, ::stride, ::stride]
    b, ho, wo = win.shape[:3]
    col = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))  # [B,Ho,Wo,kh,kw,C]
    return col.reshape(b * ho * wo, kh * kw * xp.shape[3]), ho, wo


def _col2im(gcol: np.ndarray, shape, stride: int) -> np.ndarray:
    # adjoint of _im2col: scatter-add gcol [B,Ho,Wo,kh,kw,C] into a zero
    # [B,H,W,C] array, one strided slice per kernel tap
    _, ho, wo, kh, kw, _ = gcol.shape
    hs, ws = stride * (ho - 1) + 1, stride * (wo - 1) + 1
    gx = np.zeros(shape, dtype=gcol.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + hs:stride, j:j + ws:stride] += gcol[:, :, :, i, j]
    return gx


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution plus bias, NHWC input, weights [kh, kw, cin, cout], bias [cout].

    One im2col GEMM. The tape keeps the input, not the column matrix: the
    backward rebuilds the columns with the same ``_im2col`` call for the
    weight grad and frees them before the col2im of the input grad, so the
    grads are the same bits and a backward holds one op's columns at a time.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input/weights, got {x.shape} and {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(f"conv2d: input channels {x.shape} do not match weights {w.shape}")
    stride = int(stride)
    padding = int(padding)
    xd, wd = x.data, w.data
    kh, kw, cin, cout = wd.shape
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match out channels ({cout},)")
    bsz, hin, win_ = xd.shape[0], xd.shape[1], xd.shape[2]
    needs_dx = x.requires_grad
    pad = ((0, 0), (padding, padding), (padding, padding), (0, 0))

    def columns():  # the padded copy dies in _im2col
        return _im2col(np.pad(xd, pad) if padding else xd, kh, kw, stride)

    col, ho, wo = columns()
    out = (col @ wd.reshape(kh * kw * cin, cout)).reshape(bsz, ho, wo, cout)
    out += b.data

    def bwd(g):
        g = np.ascontiguousarray(g).reshape(-1, cout)
        # weight grad: col^T @ g, with the columns rebuilt from the kept input
        col = columns()[0]
        gw = (col.T @ g).reshape(kh, kw, cin, cout)
        del col
        gb = g.sum(axis=0)
        if not needs_dx:  # e.g. the image: skip the full-resolution input grad
            return None, gw, gb
        # input grad: col2im of the column grad g·Wᵀ, then crop the padding
        gcol = (g @ wd.reshape(kh * kw * cin, cout).T).reshape(bsz, ho, wo, kh, kw, cin)
        gx = _col2im(gcol, (bsz, hin + 2 * padding, win_ + 2 * padding, cin), stride)
        return gx[:, padding:padding + hin, padding:padding + win_], gw, gb

    return _make_result(out, (x, w, b), bwd)


# Along one axis, a nearest 2x upsample followed by a pad-1 3-tap kernel
# (k0, k1, k2) is a 2-tap kernel on the low-resolution rows: even outputs
# apply (k0, k1+k2) to rows (i-1, i), odd outputs (k0+k1, k2) to rows
# (i, i+1).

def _fold_taps(k, out):
    """Fold taps k[0..2] into out[phase][tap]: (k0, k1+k2), then (k0+k1, k2)."""
    out[0][0][...] = k[0]
    np.add(k[1], k[2], out=out[0][1])
    np.add(k[0], k[1], out=out[1][0])
    out[1][1][...] = k[2]


def _unfold_taps(g, out):
    """Adjoint of ``_fold_taps``: out[k] sums the g[phase][tap] that k entered."""
    np.add(g[0][0], g[1][0], out=out[0])
    np.add(g[0][1], g[1][0], out=out[1])
    np.add(g[0][1], g[1][1], out=out[2])


def _fold(wd: np.ndarray) -> np.ndarray:
    """3x3 kernel [ky, kx, cin, cout] -> per-phase 2x2 kernels [tr, tc, cin, p, q, cout].

    Rows fold first, then columns, by slab adds; a folded tap sums one to
    four kernel taps.
    """
    _, _, cin, cout = wd.shape
    rows = np.empty((2, 2, 3, cin, cout), dtype=wd.dtype)      # [p, tr, kx, cin, cout]
    _fold_taps(wd, rows)
    wf = np.empty((2, 2, cin, 2, 2, cout), dtype=wd.dtype)
    for p in (0, 1):
        for tr in (0, 1):
            _fold_taps(rows[p, tr], wf[tr, :, :, p].transpose(2, 0, 1, 3))  # [q, tc, cin, cout]
    return wf


def _fold_adjoint(gwf: np.ndarray) -> np.ndarray:
    """Adjoint of ``_fold``: [tr, tc, cin, p, q, cout] -> [ky, kx, cin, cout], rows first."""
    _, _, cin, _, _, cout = gwf.shape
    gy = np.empty((3, 2, cin, 2, cout), dtype=gwf.dtype)       # [ky, tc, cin, q, cout]
    _unfold_taps(gwf.transpose(3, 0, 1, 2, 4, 5), gy)
    gw = np.empty((3, 3, cin, cout), dtype=gwf.dtype)
    for ky in range(3):
        _unfold_taps(gy[ky].transpose(2, 0, 1, 3), gw[ky])       # [q, tc, cin, cout]
    return gw


def upsample2x_conv3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """conv2d(nearest 2x upsample of x, w, b, padding=1), never upsampling x.

    Each output phase (row parity p, column parity q) is a 2x2 conv on the
    1-padded low-resolution input, as in sub-pixel convolution (Shi et al.
    2016): 16 instead of 36 MACs per 2x2 output block per cin*cout. One 2x2
    im2col feeds one GEMM per phase against that phase's columns of the
    folded [4*cin, 4*cout] weight. The phases run one at a time through one
    reused [B*(h+1)*(w+1), cout] buffer, and each is written to its strided
    slice of the output with the bias added, so the four phases never exist
    at once. Output [B, 2h, 2w, cout]. As in ``conv2d``, the tape keeps the
    input, not the columns or the folded weight: the backward rebuilds both
    with the same calls, freeing the columns before the input grad.
    """
    if x.ndim != 4 or w.ndim != 4 or w.shape[:2] != (3, 3) or x.shape[3] != w.shape[2]:
        raise ShapeError(f"upsample2x_conv3x3: input {x.shape} does not match 3x3 weights {w.shape}")
    if b.shape != (w.shape[3],):
        raise ShapeError(f"upsample2x_conv3x3: bias shape {b.shape} does not match weights {w.shape}")
    xd, wd = x.data, w.data
    bsz, h, wdt, cin = xd.shape
    cout = wd.shape[3]

    def folded():  # rows (tr,tc,cin), cols (p,q,cout)
        return _fold(wd).reshape(4 * cin, 4 * cout)

    def columns():
        # window (i, j) covers source rows i-1, i and cols j-1, j; the padded copy dies here
        return _im2col(np.pad(xd, ((0, 0), (1, 1), (1, 1), (0, 0))), 2, 2, 1)[0]

    wf, col = folded(), columns()
    dt = _result_dtype(xd, wd)
    phase = np.empty((col.shape[0], cout), dtype=dt)
    grid = phase.reshape(bsz, h + 1, wdt + 1, cout)
    out = np.empty((bsz, 2 * h, 2 * wdt, cout), dtype=dt)
    for k, (p, q) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.matmul(col, wf[:, k * cout:(k + 1) * cout], out=phase)
        np.add(grid[:, p:p + h, q:q + wdt], b.data, out=out[:, p::2, q::2])

    def bwd(g):
        gph = np.zeros((bsz, h + 1, wdt + 1, 2, 2, cout), dtype=g.dtype)
        for p in (0, 1):
            for q in (0, 1):
                gph[:, p:p + h, q:q + wdt, p, q] = g[:, p::2, q::2]
        gph = gph.reshape(-1, 4 * cout)
        # weight grad: col^T @ g on the folded weight, then the fold's adjoint,
        # with the columns rebuilt from the kept input
        col = columns()
        gw = _fold_adjoint((col.T @ gph).reshape(2, 2, cin, 2, 2, cout))
        del col
        # input grad: col2im of the column grad, one slice per 2x2 tap
        gcol = (gph @ folded().T).reshape(bsz, h + 1, wdt + 1, 2, 2, cin)
        gxp = _col2im(gcol, (bsz, h + 2, wdt + 2, cin), 1)
        return (gxp[:, 1:-1, 1:-1], gw, g.sum(axis=(0, 1, 2)))

    return _make_result(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

# Scores per attention backward block: _P_BLOCK float32 scores are 256 KB, so
# a block's rebuilt P and its dS stay in a 2 MB L2 cache, like _LN_BLOCK's.
_P_BLOCK = 1 << 16


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Scaled dot-product attention over [B, N, C] streams, softmax on keys.

    One tape op. Heads are views of the inputs and outputs that BLAS reads
    and writes in place; the softmax runs in place on the [B, h, Nq, Nk]
    scores, s = scale·Q·Kᵀ, s −= row max, exp, s /= row sum, and that P dies
    once O = P·V is out. The backward keeps the row max and row sum
    ([B, h, Nq, 1] each) and rebuilds P from them and the q and k views with
    the same ops in the same order, so P and every grad come back bit for bit
    (Dao et al. 2022's backward without the tiled forward; a log-sum-exp
    rebuild, exp(s − m − log l), would move bits). It runs over blocks of
    ``max(1, _P_BLOCK // (h·Nq·Nk))`` whole images in two reused block
    buffers, and an image slice repeats the forward's per-matrix products.
    Each block writes its rows of the full-size grads:
    dV = Pᵀ·dO, dS = P ⊙ (dO·Vᵀ − rowsum(dO ⊙ O)) · scale, dQ = dS·K and
    dK = dSᵀ·Q, where rowsum(dO ⊙ O) equals rowsum(dP ⊙ P) at less cost.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attention expects [B,N,C] inputs, got {q.shape}, {k.shape}, {v.shape}")
    bsz, nq, c = q.shape
    nk = k.shape[1]
    if k.shape != (bsz, nk, c) or v.shape != (bsz, nk, c):
        raise ShapeError(f"attention: mismatched key/value shapes {k.shape}, {v.shape}")
    if c % num_heads != 0:
        raise ConfigError(f"hidden size {c} not divisible by {num_heads} heads")
    dh = c // num_heads
    scale = 1.0 / math.sqrt(dh)
    dt = _result_dtype(q.data, k.data, v.data)

    def heads(a, n):                                        # [B, n, C] -> [B, h, n, dh]
        return a.reshape(bsz, n, num_heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q.data, nq), heads(k.data, nk), heads(v.data, nk)
    p = np.matmul(qh, kh.swapaxes(-1, -2))                 # [B, h, Nq, Nk]
    p *= scale
    row_max = p.max(axis=-1, keepdims=True)
    p -= row_max
    np.exp(p, out=p)
    row_sum = p.sum(axis=-1, keepdims=True)
    p /= row_sum
    out = np.empty((bsz, nq, c), dtype=dt)
    oh = heads(out, nq)
    np.matmul(p, vh, out=oh)
    del p
    images = max(1, _P_BLOCK // max(1, num_heads * nq * nk))

    def bwd(g):
        gh = heads(g, nq)
        dq, dk, dv = (np.empty((bsz, n, c), dtype=dt) for n in (nq, nk, nk))
        dqh, dkh, dvh = heads(dq, nq), heads(dk, nk), heads(dv, nk)
        pb = np.empty((min(images, bsz), num_heads, nq, nk), dtype=dt)
        db = np.empty_like(pb)
        for i in range(0, bsz, images):
            b = slice(i, min(i + images, bsz))
            p, ds = pb[:b.stop - i], db[:b.stop - i]
            np.matmul(qh[b], kh[b].swapaxes(-1, -2), out=p)   # the forward's P, rebuilt
            p *= scale
            p -= row_max[b]
            np.exp(p, out=p)
            p /= row_sum[b]
            np.matmul(p.swapaxes(-1, -2), gh[b], out=dvh[b])
            np.matmul(gh[b], vh[b].swapaxes(-1, -2), out=ds)  # dP, then dS in place
            ds -= (gh[b] * oh[b]).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            np.matmul(ds, kh[b], out=dqh[b])
            np.matmul(ds.swapaxes(-1, -2), qh[b], out=dkh[b])
        return dq, dk, dv

    return _make_result(out, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# Position embedding
# ---------------------------------------------------------------------------

def sine_position_embedding(h: int, w: int, channels: int,
                            temperature: float = 10000.0,
                            eps: float = 1e-6) -> Tensor:
    """Deterministic float32 sine/cosine grid embedding, shape [1, h, w, channels].

    channels/2 frequencies per spatial axis; coordinates run 1..extent and are
    normalized to (0, 2*pi].
    """
    if channels % 2 != 0:
        raise ConfigError(f"position embedding needs an even channel count, got {channels}")
    half = channels // 2
    ys = np.arange(1, h + 1, dtype=np.float64)[:, None] * np.ones((1, w))
    xs = np.arange(1, w + 1, dtype=np.float64)[None, :] * np.ones((h, 1))
    ys = ys / (h + eps) * (2.0 * np.pi)
    xs = xs / (w + eps) * (2.0 * np.pi)
    idx = np.arange(half, dtype=np.float64)
    dim_t = temperature ** (2.0 * (idx // 2) / half)

    def interleave(p):
        out = np.empty_like(p)
        out[..., 0::2] = np.sin(p[..., 0::2])
        out[..., 1::2] = np.cos(p[..., 1::2])
        return out

    emb = np.concatenate(
        [interleave(ys[..., None] / dim_t), interleave(xs[..., None] / dim_t)], axis=-1
    )[None]
    return Tensor(emb.astype(np.float32))
