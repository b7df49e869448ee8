import gc
import hashlib
import inspect
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from setseg import tensor as T
from setseg.tensor import Tensor, backward

from conftest import central_difference, inner, max_rel_error


def _buffer_hash(t):
    return hashlib.sha256(t.data.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Forward values
# ---------------------------------------------------------------------------

class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul_nt(a, Tensor(np.eye(2)))
        assert np.allclose(out.data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        bt = Tensor([[5.0, 7.0], [6.0, 8.0]])   # b = [[5, 6], [7, 8]], given transposed
        out = T.matmul_nt(a, bt)
        assert np.allclose(out.data, [[19, 22], [43, 50]])

    def test_empty_inner_dim(self):
        a = Tensor(np.zeros((1, 0)))
        b = Tensor(np.zeros((3, 0)))
        out = T.matmul_nt(a, b)
        assert out.shape == (1, 3)
        assert np.all(out.data == 0.0)

    def test_shape_mismatch_names_both_shapes(self):
        # a vector is not [..., m, k]
        with pytest.raises(T.ShapeError) as err:
            T.matmul_nt(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))))
        assert "(3,)" in str(err.value) and "(2, 3)" in str(err.value)

    def test_linear_shape_mismatch_names_all_shapes(self):
        for w, b in (((3, 5), (5,)), ((4, 5), (4,)), ((4, 5, 1), (5,))):
            with pytest.raises(T.ShapeError) as err:
                T.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(w)), Tensor(np.zeros(b)))
            assert all(str(s) in str(err.value) for s in ((2, 3, 4), w, b))

    def test_stacked_leading_dims(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((5, 6))
        b = rng.standard_normal(6)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w + b, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_relu_equals_relu_of_linear(self, dtype):
        rng = np.random.default_rng(10)
        # 3 images of 50 rows; about half the outputs are negative
        x = rng.standard_normal((3, 50, 24)).astype(dtype)
        w = rng.standard_normal((24, 40)).astype(dtype)
        b = rng.standard_normal(40).astype(dtype)
        g = rng.standard_normal((3, 50, 40)).astype(dtype)
        results = []
        for fused in (True, False):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            out = (T.linear(xt, wt, bt, relu=True) if fused
                   else T.relu(T.linear(xt, wt, bt)))
            backward(inner(out, Tensor(g)))
            results.append((out.data, xt.grad, wt.grad, bt.grad))
        assert 0.3 < (results[1][0] == 0).mean() < 0.7
        for fused, composed in zip(*results):
            assert fused.dtype == dtype and np.array_equal(fused, composed)

    def test_nt_equals_matmul_of_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        b = rng.standard_normal((2, 3, 6, 5)).astype(np.float32)
        out = T.matmul_nt(Tensor(a), Tensor(b))
        assert out.shape == (2, 3, 4, 6)
        assert np.allclose(out.data, a @ b.swapaxes(-1, -2), rtol=1e-6, atol=1e-6)

    def test_nt_shape_mismatch_names_both_shapes(self):
        for b in ((2, 4, 4), (3, 5, 3)):
            with pytest.raises(T.ShapeError) as err:
                T.matmul_nt(Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros(b)))
            assert "(2, 5, 3)" in str(err.value) and str(b) in str(err.value)


def _attend_scores(logits, v=None, dtype=np.float32):
    """One-head attention whose scores are ``logits``: q = logits * sqrt(dh), k = I.

    With v = I (the default) the output is the softmax of each row itself.
    """
    logits = np.asarray(logits, dtype=np.float64)
    nk = logits.shape[-1]
    q = Tensor((logits * math.sqrt(nk))[None], dtype=dtype)
    k = Tensor(np.eye(nk)[None], dtype=dtype)
    v = Tensor(np.eye(nk)[None] if v is None else v[None], dtype=dtype)
    return T.multi_head_attention(q, k, v, num_heads=1).data[0]


class TestSoftmax:
    """The max-subtracted softmax inside ``multi_head_attention``."""

    def test_uniform(self):
        v = np.random.default_rng(0).standard_normal((3, 3))
        out = _attend_scores([[0.0, 0.0, 0.0]], v=v)
        assert np.allclose(out, v.mean(axis=0, keepdims=True), atol=1e-6)

    def test_large_logit_stability(self):
        out = _attend_scores([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, [[1.0, 0.0]])

    def test_hand_value(self):
        out = _attend_scores([[math.log(2.0), 0.0]], dtype=np.float64)
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = _attend_scores(rng.standard_normal((7, 11)) * 5)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_nan_propagates(self):
        out = _attend_scores([[np.nan, 0.0], [0.0, 0.0]])
        assert np.isnan(out[0]).all()
        assert np.allclose(out[1], [0.5, 0.5])


def _reference_attention(q, k, v, num_heads, g):
    """Float64 attention and its textbook adjoint, composed from copied transposes."""
    q, k, v, g = (np.asarray(a, dtype=np.float64) for a in (q, k, v, g))
    bsz, nq, c = q.shape
    dh = c // num_heads

    def split(a):
        return np.ascontiguousarray(a.reshape(bsz, -1, num_heads, dh).transpose(0, 2, 1, 3))

    def merge(a):
        return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(bsz, -1, c)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    s = qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2)) / math.sqrt(dh)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = gh @ vh.transpose(0, 1, 3, 2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) / math.sqrt(dh)
    return (merge(p @ vh),
            merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh), merge(p.transpose(0, 1, 3, 2) @ gh))


def _attention_keeping_p(q, k, v, num_heads, g):
    """The op as it was while it kept P for the backward: its output and q, k, v grads."""
    bsz, nq, c = q.shape
    nk, dh = k.shape[1], c // num_heads
    scale = 1.0 / math.sqrt(dh)

    def heads(a, n):
        return a.reshape(bsz, n, num_heads, dh).transpose(0, 2, 1, 3)

    def merged_matmul(a, b, n):
        out = np.empty((bsz, n, c), dtype=q.dtype)
        np.matmul(a, b, out=heads(out, n))
        return out

    qh, kh, vh, gh = heads(q, nq), heads(k, nk), heads(v, nk), heads(g, nq)
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merged_matmul(p, vh, nq)
    dv = merged_matmul(p.swapaxes(-1, -2), gh, nk)
    ds = np.matmul(gh, vh.swapaxes(-1, -2))
    ds -= (gh * heads(out, nq)).sum(axis=-1, keepdims=True)
    ds *= p
    ds *= scale
    return out, merged_matmul(ds, kh, nq), merged_matmul(ds.swapaxes(-1, -2), qh, nk), dv


class TestAttention:
    @pytest.mark.parametrize("nq, nk", [(6, 6), (5, 9)], ids=["self", "cross"])
    def test_matches_composed_reference(self, nq, nk):
        rng = np.random.default_rng(40)
        arrays = [rng.standard_normal(s).astype(np.float32) for s in
                  ((2, nq, 16), (2, nk, 16), (2, nk, 16), (2, nq, 16))]
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
        out = T.multi_head_attention(q, k, v, num_heads=4)
        backward(inner(out, Tensor(arrays[3])))
        ref = _reference_attention(*arrays[:3], 4, arrays[3])
        for got, want in zip((out.data, q.grad, k.grad, v.grad), ref):
            assert got.dtype == np.float32
            assert np.allclose(got, want, rtol=1e-5, atol=2e-6)

    # B = 3 images of 2·5·7 = 70 scores: one block under the default bound,
    # three one-image blocks, or a two-image block and a partial last one
    @pytest.mark.parametrize("p_block", [None, 70, 140], ids=["one", "several", "partial"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_rebuilds_p_bit_for_bit(self, monkeypatch, dtype, p_block):
        if p_block is not None:
            monkeypatch.setattr(T, "_P_BLOCK", p_block)
        rng = np.random.default_rng(42)
        arrays = [(rng.standard_normal(s) * 3).astype(dtype) for s in
                  ((3, 5, 8), (3, 7, 8), (3, 7, 8), (3, 5, 8))]
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
        out = T.multi_head_attention(q, k, v, num_heads=2)
        backward(inner(out, Tensor(arrays[3])))
        ref = _attention_keeping_p(*arrays[:3], 2, arrays[3])
        for got, want in zip((out.data, q.grad, k.grad, v.grad), ref):
            assert got.dtype == dtype and np.array_equal(got, want)

    def test_tape_keeps_no_scores(self):
        # 2·2·5·7 = 140 scores; no input, output or row statistic has 140 values
        rng = np.random.default_rng(43)
        q = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        kv = Tensor(rng.standard_normal((2, 7, 8)), requires_grad=True)
        out = T.multi_head_attention(q, kv, kv, num_heads=2)
        held, closures = [], [out._entry.backward_fn]
        while closures:
            for cell in closures.pop().__closure__ or ():
                value = cell.cell_contents
                if inspect.isfunction(value):
                    closures.append(value)
                elif isinstance(value, np.ndarray):
                    held += [value] + ([value.base] if isinstance(value.base, np.ndarray) else [])
        assert held and all(a.size != 2 * 2 * 5 * 7 for a in held)

    def test_backward_peak_is_its_grads_and_two_score_blocks(self):
        # 4·128·128 = _P_BLOCK scores per image, so a block is one image and
        # the batch's P would be four blocks
        rng = np.random.default_rng(44)
        q, k, v = (Tensor(rng.standard_normal((4, 128, 32)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        out = T.multi_head_attention(q, k, v, num_heads=4)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = out._entry.backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block = 4 * 128 * 128 * 4
        # the rest is the block's rowsum(dO ⊙ O) product and matmul's buffers
        assert peak <= sum(a.nbytes for a in grads) + 2 * block + block // 4
        assert T._P_BLOCK == 4 * 128 * 128

    def test_one_tape_entry_per_call(self):
        rng = np.random.default_rng(41)
        q = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        kv = Tensor(rng.standard_normal((2, 7, 8)), requires_grad=True)
        with T.Tape() as tape:
            T.multi_head_attention(q, kv, kv, num_heads=2)
            assert len(tape.entries) == 1


class TestSinePositionEmbedding:
    def test_grid_mean_matches_reference(self):
        emb = T.sine_position_embedding(20, 20, 256)
        assert emb.shape == (1, 20, 20, 256)
        assert abs(float(emb.data.mean()) - 0.4937) < 1e-3

    def test_shape_contract(self):
        assert T.sine_position_embedding(3, 5, 8).shape == (1, 3, 5, 8)

    def test_deterministic(self):
        a = T.sine_position_embedding(6, 7, 32)
        b = T.sine_position_embedding(6, 7, 32)
        assert a.data.tobytes() == b.data.tobytes()

    def test_odd_channels_rejected(self):
        with pytest.raises(T.ConfigError):
            T.sine_position_embedding(4, 4, 7)


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 6, 32)) * 3 + 1)
        ones = Tensor(np.ones(32))
        zeros = Tensor(np.zeros(32))
        out = T.layer_norm(x, ones, zeros)
        mu = out.data.mean(axis=-1)
        var = out.data.var(axis=-1)
        assert np.abs(mu).max() <= 1e-5
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_scale_shift_mismatch(self):
        x = Tensor(np.zeros((2, 8)))
        with pytest.raises(T.ShapeError):
            T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(8)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact_against_np_var_formula(self, dtype):
        rng = np.random.default_rng(5)
        # 70 rows fit one block; 3000 rows of 256 are 12 blocks, the last partial
        for shape in ((2, 5, 7, 48), (3, 1000, 256)):
            c, axes = shape[-1], tuple(range(len(shape) - 1))
            x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
            s = rng.standard_normal(c).astype(dtype)
            b = rng.standard_normal(c).astype(dtype)
            g = rng.standard_normal(x.shape).astype(dtype)
            xt, st, bt = (Tensor(a, requires_grad=True) for a in (x, s, b))
            backward(inner(T.layer_norm(xt, st, bt), Tensor(g)))
            out = T.layer_norm(Tensor(x), Tensor(s), Tensor(b))

            # reference: the textbook float64 formula with np.var and its backward
            xd = x.astype(np.float64)
            inv = 1.0 / np.sqrt(xd.var(axis=-1, keepdims=True) + 1e-5)
            xhat = (xd - xd.mean(axis=-1, keepdims=True)) * inv
            g64 = g.astype(np.float64)
            dxhat = g64 * s
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            assert np.array_equal(out.data, (xhat * s + b).astype(dtype))
            assert np.array_equal(xt.grad, dx.astype(dtype))
            assert np.array_equal(st.grad, (g64 * xhat).sum(axis=axes).astype(dtype))
            assert np.array_equal(bt.grad, g64.sum(axis=axes).astype(dtype))

    def test_no_full_size_float64_buffers(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((1, 128, 128, 64)).astype(np.float32), requires_grad=True)
        s = Tensor(np.ones(64, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with T.no_grad():
                T.layer_norm(x, s, b)
            peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            out = T.layer_norm(x, s, b)      # recorded: what backward keeps stays allocated
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.data.nbytes
        assert kept <= 0.1 * x.data.nbytes

    def test_backward_writes_the_input_grad_into_its_incoming_grad(self):
        # the walk hands the norm a writeable float32 grad of the input's size;
        # the backward allocates its float64 blocks, not a second such array
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((4, 64, 64, 64)).astype(np.float32), requires_grad=True)
        s = Tensor(rng.standard_normal(64).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(64).astype(np.float32), requires_grad=True)
        out = T.layer_norm(x, s, b, relu=True)
        bwd, peaks = out._entry.backward_fn, []

        def probe(g):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = bwd(g)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return grads

        out._entry.backward_fn = probe
        w = Tensor(rng.standard_normal(x.shape).astype(np.float32))
        tracemalloc.start()
        try:
            backward(inner(out, w))
        finally:
            tracemalloc.stop()
        blocks = 3 * (T._LN_BLOCK // 64 + 1) * 64 * 8       # xb, gb and pb, float64
        assert len(peaks) == 1 and peaks[0] <= blocks + 0.1 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_relu_equals_relu_of_norm(self, dtype):
        rng = np.random.default_rng(9)
        # 3000 rows of 256 are 12 row blocks; about half the outputs are negative
        x = (rng.standard_normal((3, 1000, 256)) * 3 + 1).astype(dtype)
        s, b = (rng.standard_normal(256).astype(dtype) for _ in range(2))
        g = rng.standard_normal(x.shape).astype(dtype)
        results = []
        for fused in (True, False):
            xt, st, bt = (Tensor(a, requires_grad=True) for a in (x, s, b))
            out = (T.layer_norm(xt, st, bt, relu=True) if fused
                   else T.relu(T.layer_norm(xt, st, bt)))
            backward(inner(out, Tensor(g)))
            results.append((out.data, xt.grad, st.grad, bt.grad))
        assert 0.3 < (results[1][0] == 0).mean() < 0.7
        for fused, composed in zip(*results):
            assert fused.dtype == dtype and np.array_equal(fused, composed)


# The four-phase fold by 0/1 tap products: _PHASE_TAPS[phase, tap, k] says
# which kernel taps k each of a phase's 2 taps sums
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]])


def _tap_product_fold(w):
    taps = _PHASE_TAPS.astype(w.dtype)
    wf = np.tensordot(taps, np.tensordot(taps, w, axes=(2, 0)), axes=(2, 2))  # [q,tc,p,tr,cin,cout]
    return wf.transpose(3, 1, 4, 2, 0, 5)                                     # [tr,tc,cin,p,q,cout]


def _tap_product_fold_adjoint(gwf):
    taps = _PHASE_TAPS.astype(gwf.dtype)
    gwy = np.tensordot(taps, gwf, axes=([0, 1], [3, 0]))                      # [ky,tc,cin,q,cout]
    return np.tensordot(taps, gwy, axes=([0, 1], [3, 1])).transpose(1, 0, 2, 3)


def _four_phase_upsample_conv(x, w, b):
    """The up-conv as one GEMM for all four phases into a [rows, 4*cout] buffer."""
    bsz, h, wd, cin = x.shape
    cout = w.shape[3]
    wf = _tap_product_fold(w).reshape(4 * cin, 4 * cout)
    col, _, _ = T._im2col(np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))), 2, 2, 1)
    phases = (col @ wf).reshape(bsz, h + 1, wd + 1, 2, 2, cout)
    out = np.empty((bsz, 2 * h, 2 * wd, cout), dtype=phases.dtype)
    for p in (0, 1):
        for q in (0, 1):
            out[:, p::2, q::2] = phases[:, p:p + h, q:q + wd, p, q]
    out += b
    return out


class TestUpsampleConv:
    def test_equals_four_phase_single_gemm(self):
        rng = np.random.default_rng(7)
        for shape, cout in (((2, 3, 5, 4), 6), ((1, 20, 20, 64), 64)):
            x = rng.standard_normal(shape).astype(np.float32)
            w = rng.standard_normal((3, 3, shape[3], cout)).astype(np.float32)
            b = rng.standard_normal(cout).astype(np.float32)
            out = T.upsample2x_conv3x3(Tensor(x), Tensor(w), Tensor(b))
            assert np.array_equal(out.data, _four_phase_upsample_conv(x, w, b))

    def test_fold_equals_tap_products(self):
        # each folded tap sums one or two kernel taps per axis, so slab adds
        # give the same bits as the 0/1 tap products
        rng = np.random.default_rng(8)
        for c in (4, 64, 256):
            w = rng.standard_normal((3, 3, c, c)).astype(np.float32)
            gwf = rng.standard_normal((2, 2, c, 2, 2, c)).astype(np.float32)
            assert np.array_equal(T._fold(w), _tap_product_fold(w))
            assert np.array_equal(T._fold_adjoint(gwf), _tap_product_fold_adjoint(gwf))

    def test_no_four_phase_buffer(self):
        # cin = cout: the im2col, one phase and the output come to about
        # 2.45x the output; a [rows, 4*cout] buffer of all four phases adds
        # another 1x
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 48, 48, 64)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 3, 64, 64)).astype(np.float32))
        b = Tensor(np.zeros(64, dtype=np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.upsample2x_conv3x3(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * out.data.nbytes

    def test_equals_conv2d_of_repeated_input(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 4, 6)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        fused = T.upsample2x_conv3x3(Tensor(x), Tensor(w), Tensor(b))
        up = x.repeat(2, axis=1).repeat(2, axis=2)
        ref = T.conv2d(Tensor(up), Tensor(w), Tensor(b), padding=1)
        assert fused.shape == (2, 6, 10, 6) and fused.dtype == np.float32
        # the same products summed in another order: a few float32 ulps apart
        ulp = np.finfo(np.float32).eps * np.abs(ref.data).max()
        assert np.abs(fused.data - ref.data).max() <= 8 * ulp

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 2, 3)))
        with pytest.raises(T.ShapeError):
            T.upsample2x_conv3x3(x, Tensor(np.zeros((3, 3, 4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(T.ShapeError):
            T.upsample2x_conv3x3(x, Tensor(np.zeros((2, 2, 3, 5))), Tensor(np.zeros(5)))
        with pytest.raises(T.ShapeError):
            T.upsample2x_conv3x3(x, Tensor(np.zeros((3, 3, 3, 5))), Tensor(np.zeros(4)))


class TestShapes:
    def test_conv2d_stride2(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 8, 8, 3)))
        w = Tensor(rng.standard_normal((3, 3, 3, 5)))
        out = T.conv2d(x, w, Tensor(np.zeros(5)), stride=2, padding=1)
        assert out.shape == (2, 4, 4, 5)

    def test_attention_shape(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((2, 5, 16)))
        kv = Tensor(rng.standard_normal((2, 9, 16)))
        out = T.multi_head_attention(q, kv, kv, num_heads=4)
        assert out.shape == (2, 5, 16)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(inner(x, Tensor(np.ones(3))))
        assert np.allclose(x.grad, [1, 1, 1])

    def test_square_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(inner(x, x))
        assert np.allclose(x.grad, [2, 4, 6])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.ContractError):
            backward(T.add(x, x))

    def test_unreached_leaf_gets_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([-3.0, -4.0], requires_grad=True)
        used = inner(x, Tensor([2.0, 2.0]))
        dead = T.relu(T.add(used, Tensor([[-100.0]])))  # cuts the path to x via this branch
        loss = T.add(used, T.add(dead, inner(T.relu(y), Tensor([1.0, 1.0]))))
        backward(loss)
        assert np.allclose(x.grad, [2, 2])
        assert np.allclose(y.grad, [0, 0])

    def test_ops_outside_a_tape_record_nothing(self, monkeypatch):
        monkeypatch.setattr(T, "_TAPE", None)
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = inner(x, x)
        assert not loss.requires_grad and loss._entry is None
        with pytest.raises(T.ContractError, match="not connected to a tape"):
            backward(loss)
        assert x.grad is None

    def test_tapes_nest_and_no_grad_has_no_current_tape(self):
        outer = T._TAPE
        with T.Tape() as tape:
            assert T._TAPE is tape
            with T.no_grad():
                assert T._TAPE is None
            assert T._TAPE is tape
        assert T._TAPE is outer

    def test_loss_on_an_outer_tape_is_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = inner(x, x)
        with T.Tape():
            with pytest.raises(T.ContractError, match="not on the current tape"):
                backward(loss)
        assert x.grad is None

    def test_ops_not_feeding_the_loss_never_run_their_backward(self):
        calls = []

        def counted(t):
            bwd = t._entry.backward_fn
            t._entry.backward_fn = lambda g: calls.append(g) or bwd(g)
            return t

        x = Tensor([1.0, 2.0], requires_grad=True)
        counted(T.relu(x))                      # recorded before the loss
        loss = inner(x, x)
        counted(T.add(x, x))                    # recorded after it
        backward(loss)
        assert calls == []
        assert np.allclose(x.grad, [2, 4])

    def test_conv2d_skips_input_grad_of_constant_input(self):
        rng = np.random.default_rng(7)
        image = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        w0 = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        b0 = rng.standard_normal(4).astype(np.float32)
        grads = []
        for needs_grad in (True, False):
            x = Tensor(image, requires_grad=needs_grad)
            w, b = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
            out = T.conv2d(x, w, b, stride=2, padding=1)
            grads.append(out._entry.backward_fn(2.0 * out.data))  # d sum(out^2) / d out
            backward(inner(out, out))
            assert (x.grad is None) != needs_grad
        (gx, gw, gb), (gx_const, gw_const, gb_const) = grads
        assert gx is not None and gx_const is None
        assert np.array_equal(gw, gw_const) and np.array_equal(gb, gb_const)

    def test_conv2d_backward_rebuilds_columns(self, monkeypatch):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        w0 = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        b0 = rng.standard_normal(4).astype(np.float32)
        g = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        # reference: the grads from the forward's stored columns
        col, ho, wo = T._im2col(np.pad(x0, ((0, 0), (1, 1), (1, 1), (0, 0))), 3, 3, 2)
        g2, w2 = g.reshape(-1, 4), w0.reshape(-1, 4)
        gcol = (g2 @ w2.T).reshape(2, ho, wo, 3, 3, 3)
        want = (T._col2im(gcol, (2, 10, 10, 3), 2)[:, 1:-1, 1:-1],
                (col.T @ g2).reshape(w0.shape), g2.sum(axis=0))
        calls = []
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda *a: calls.append(a[1:]) or im2col(*a))
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = T.conv2d(x, w, b, stride=2, padding=1)
        assert calls == [(3, 3, 2)]
        got = out._entry.backward_fn(g)
        # the backward rebuilds the columns once; the input grad is col2im of g·Wᵀ
        assert calls == [(3, 3, 2)] * 2
        for grad, ref in zip(got, want):
            assert grad.dtype == ref.dtype and np.array_equal(grad, ref)

    @staticmethod
    def _kept_beyond_output(op, **kw):
        """(bytes a recorded call keeps beyond its output, the input's bytes)."""
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((1, 64, 64, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 32, 32)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(x, w, b, **kw)     # recorded: what backward keeps stays allocated
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out._entry is not None
        return kept, x.data.nbytes

    def test_conv2d_keeps_no_padded_input_copy(self):
        # nor its columns, 2.25x the input at stride 2
        kept, x_nbytes = self._kept_beyond_output(T.conv2d, stride=2, padding=1)
        assert kept <= 0.1 * x_nbytes

    def test_upsample_conv_keeps_no_columns_or_folded_weight(self):
        # the columns are 4.1x the input, the folded weight 0.125x
        kept, x_nbytes = self._kept_beyond_output(T.upsample2x_conv3x3)
        assert kept <= 0.1 * x_nbytes

    def test_tape_frees_graph_on_exit(self):
        gc.disable()  # only reference counting may free the intermediate
        try:
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            with T.Tape():
                y = T.add(x, x)
                backward(inner(y, y))
            ref = weakref.ref(y.data)
            del y
            assert ref() is None
        finally:
            gc.enable()

    def test_backward_frees_activations_before_tape_exit(self):
        gc.disable()  # only reference counting may free the intermediate
        try:
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            with T.Tape() as tape:
                y = T.add(x, x)
                loss = inner(y, y)
                ref = weakref.ref(y.data)
                del y
                assert ref() is not None    # the ops that read y still hold it
                backward(loss)
                assert ref() is None        # released by the walk, the block still open
                assert all(e.routes is None and e.backward_fn is None for e in tape.entries)
            assert np.allclose(x.grad, 8.0)  # d sum((2x)^2) / dx
        finally:
            gc.enable()

    def test_backward_fn_error_leaves_the_tape_clean(self):
        outer = T._TAPE
        x = Tensor([1.0, 2.0], requires_grad=True)

        def fail(g):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            with T.Tape() as tape:
                y = T.add(x, x)
                y._entry.backward_fn = fail
                backward(inner(y, y))       # matmul_nt and both reshapes run, then add raises
        assert T._TAPE is outer and tape.entries == []
        assert y._entry.routes is None and y._entry.backward_fn is None
        assert x.grad is None
        with T.Tape():
            backward(inner(x, x))
        assert np.allclose(x.grad, [2, 4])

    def test_grad_accumulates_once_per_call(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):      # a tape is walked once, so each call builds its loss
            backward(inner(x, Tensor([3.0])))
        assert np.allclose(x.grad, [6.0])

    def test_repeat_backward_raises_naming_the_op(self):
        x = Tensor([2.0], requires_grad=True)
        loss = inner(x, Tensor([3.0]))
        backward(loss)
        with pytest.raises(T.ContractError, match="matmul_nt op.*walked once"):
            backward(loss)
        assert np.allclose(x.grad, [3.0])

    def test_backward_reaching_a_consumed_entry_raises(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        y = T.relu(x)
        backward(inner(y, Tensor([1.0, 1.0])))
        with pytest.raises(T.ContractError, match="relu op"):
            backward(inner(y, Tensor([2.0, 2.0])))


class TestSharedGrads:
    """``add`` hands one grad to both its producers; a backward that may write
    its grad in place must not write that one under the other producer. Each
    case compares with a reference in which every consumer runs on its own
    tape against its own copy of the same grad."""

    @staticmethod
    def _leaves(rng, *shapes):
        return [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                for s in shapes]

    @staticmethod
    def _separately(w, *branches):
        """Each branch's leaf grads when it alone feeds inner(·, w)."""
        for branch in branches:
            with T.Tape():
                backward(inner(branch(), w))

    def test_two_norms(self):
        rng = np.random.default_rng(40)
        x1, x2, s, b = self._leaves(rng, (3, 5, 8), (3, 5, 8), (8,), (8,))
        w = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        backward(inner(T.add(T.layer_norm(x1, s, b), T.layer_norm(x2, s, b)), w))

        refs = [Tensor(t.data, requires_grad=True) for t in (x1, x2, s, b)]
        r1, r2, rs, rb = refs
        self._separately(w, lambda: T.layer_norm(r2, rs, rb), lambda: T.layer_norm(r1, rs, rb))
        for t, ref in zip((x1, x2, s, b), refs):
            assert np.array_equal(t.grad, ref.grad)

    def test_norm_and_leaf(self):
        rng = np.random.default_rng(41)
        x, y, s, b = self._leaves(rng, (4, 8), (4, 8), (8,), (8,))
        w = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        backward(inner(T.add(y, T.layer_norm(x, s, b, relu=True)), w))

        refs = [Tensor(t.data, requires_grad=True) for t in (x, y, s, b)]
        rx, ry, rs, rb = refs
        self._separately(w, lambda: T.layer_norm(rx, rs, rb, relu=True), lambda: T.reshape(ry, ry.shape))
        assert np.array_equal(y.grad, w.data) and y.grad.flags.owndata   # a copy of the grad
        for t, ref in zip((x, y, s, b), refs):
            assert np.array_equal(t.grad, ref.grad)

    def test_relu_linear_and_another_consumer(self):
        # the linear comes second on the tape, so the walk runs it first
        rng = np.random.default_rng(42)
        x, y, wt, bt = self._leaves(rng, (6, 5), (6, 4), (5, 4), (4,))
        w = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        backward(inner(T.add(T.relu(y), T.linear(x, wt, bt, relu=True)), w))
        with T.no_grad():
            assert 0 < (T.linear(x, wt, bt, relu=True).data == 0).mean() < 1

        refs = [Tensor(t.data, requires_grad=True) for t in (x, y, wt, bt)]
        rx, ry, rw, rb = refs
        self._separately(w, lambda: T.linear(rx, rw, rb, relu=True), lambda: T.relu(ry))
        for t, ref in zip((x, y, wt, bt), refs):
            assert np.array_equal(t.grad, ref.grad)


# ---------------------------------------------------------------------------
# Finite-difference checks (64-bit), 20 random tensors per op
# ---------------------------------------------------------------------------

def _fd_check(builder, n_inputs, shapes, seed, tol=1e-4, trials=20):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        arrays = [rng.standard_normal(s).astype(np.float64) for s in shapes(rng)[:n_inputs]]
        tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
        loss = builder(*tensors)
        backward(loss)

        def scalar_fn(*arrs):
            with T.no_grad():
                return builder(*[Tensor(a, dtype=np.float64) for a in arrs]).item()

        for i, t in enumerate(tensors):
            numeric = central_difference(scalar_fn, arrays, i)
            assert t.grad is not None
            assert max_rel_error(t.grad, numeric) <= tol


class TestFiniteDifferences:
    def test_add(self):
        def builder(a, b):
            out = T.add(a, b)
            return inner(out, out)

        _fd_check(builder, 2, lambda r: [(3, 4), (3, 4)], seed=10)

    def test_mul(self):
        # sum(a ⊙ b), the reduction every other check here ends in
        _fd_check(inner, 2, lambda r: [(4, 3), (4, 3)], seed=12)

    def test_matmul(self):
        def builder(a, b):
            out = T.matmul_nt(a, b)
            return inner(out, out)

        _fd_check(builder, 2, lambda r: [(3, 4), (2, 4)], seed=14)

    def test_matmul_stacked(self):
        def builder(a, b):
            out = T.matmul_nt(a, b)
            return inner(out, out)

        _fd_check(builder, 2, lambda r: [(2, 2, 3, 4), (2, 2, 2, 4)], seed=15)

    def test_relu(self):
        # keep inputs away from the kink at 0 where FD is ill-defined
        def builder(a):
            out = T.relu(a)
            return inner(out, out)

        rng = np.random.default_rng(18)
        for _ in range(20):
            arr = rng.standard_normal((4, 4)) + 0.3
            arr = arr[np.abs(arr) > 1e-2][:8]
            if arr.size == 0:
                continue
            x = Tensor(arr, requires_grad=True, dtype=np.float64)
            backward(builder(x))
            numeric = central_difference(
                lambda a: builder(Tensor(a, dtype=np.float64)).item(), [arr], 0
            )
            assert max_rel_error(x.grad, numeric) <= 1e-4

    def test_matmul_nt(self):
        def builder(a, b):
            out = T.matmul_nt(a, b)
            return inner(out, out)

        _fd_check(builder, 2, lambda r: [(2, 3, 4), (2, 5, 4)], seed=16)

    def test_softmax(self):
        # v = I: the gradient reaches q and k through the softmax adjoint alone
        eye = Tensor(np.broadcast_to(np.eye(5), (2, 5, 5)), dtype=np.float64)

        def builder(q, k):
            out = T.multi_head_attention(q, k, eye, 1)
            return inner(out, out)

        _fd_check(builder, 2, lambda r: [(2, 4, 5), (2, 5, 5)], seed=20, trials=5)

    def test_layer_norm(self):
        def builder(x, s, b):
            return inner(T.layer_norm(x, s, b), x)

        _fd_check(builder, 3, lambda r: [(2, 3, 5), (5,), (5,)], seed=22)

    def test_layer_norm_relu(self):
        def builder(x, s, b):
            return inner(T.layer_norm(x, s, b, relu=True), x)

        _fd_check(builder, 3, lambda r: [(2, 3, 5), (5,), (5,)], seed=32)

    def test_conv2d(self):
        # stride 2: padded 5x5; padded even h != w, as every backbone stage
        # sees; unpadded 6x7, whose last row lies in no window
        for shape, padding in (((1, 5, 5, 2), 1), ((1, 6, 8, 2), 1), ((2, 6, 7, 2), 0)):
            def builder(x, w, b):
                return inner(T.conv2d(x, w, b, stride=2, padding=padding),
                             T.conv2d(x, w, b, stride=2, padding=padding))

            _fd_check(builder, 3, lambda r: [shape, (3, 3, 2, 3), (3,)], seed=23, trials=5)
        x = Tensor(np.ones((2, 6, 7, 2)), requires_grad=True, dtype=np.float64)
        w = Tensor(np.ones((3, 3, 2, 3)), dtype=np.float64)
        out = T.conv2d(x, w, Tensor(np.zeros(3)), stride=2)
        backward(inner(out, out))
        assert not x.grad[:, 5].any() and x.grad[:, :5].all()

    def test_conv2d_stride1_no_pad(self):
        def builder(x, w):
            out = T.conv2d(x, w, Tensor(np.zeros(3)))
            return inner(out, out)

        _fd_check(builder, 2, lambda r: [(2, 4, 4, 2), (2, 2, 2, 3)], seed=24, trials=5)

    def test_upsample2x_conv3x3(self):
        def builder(x, w, b):
            out = T.upsample2x_conv3x3(x, w, b)
            return inner(out, out)

        _fd_check(builder, 3, lambda r: [(2, 2, 3, 2), (3, 3, 2, 3), (3,)], seed=25, trials=3)

    def test_attention(self):
        def builder(q, k, v):
            return inner(T.multi_head_attention(q, k, v, 2),
                         T.multi_head_attention(q, k, v, 2))

        _fd_check(builder, 3, lambda r: [(1, 3, 4), (1, 5, 4), (1, 5, 4)], seed=26, trials=5)

    def test_self_attention(self):
        def builder(x):
            out = T.multi_head_attention(x, x, x, 2)
            return inner(out, out)

        _fd_check(builder, 1, lambda r: [(2, 4, 6)], seed=30, trials=5)

    def test_linear(self):
        def builder(x, w, b):
            out = T.linear(x, w, b)
            return inner(out, out)

        _fd_check(builder, 3, lambda r: [(2, 3, 4), (4, 5), (5,)], seed=27)

    def test_reshape(self):
        def builder(x):
            y = T.reshape(x, (6, 2))
            return inner(y, T.reshape(x, (6, 2)))

        _fd_check(builder, 1, lambda r: [(3, 4)], seed=28)

    def test_broadcast_batch(self):
        def builder(x):
            return inner(T.broadcast_batch(x, 3), T.broadcast_batch(x, 3))

        _fd_check(builder, 1, lambda r: [(2, 4)], seed=29)


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------

class TestPurity:
    def test_ops_leave_inputs_unmodified(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((2, 4, 4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 3, 4)), requires_grad=True)
        s = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        before = [_buffer_hash(t) for t in (x, w, s, b)]
        out = T.conv2d(T.layer_norm(T.relu(x), s, b), w, Tensor(np.zeros(4)), stride=1, padding=1)
        backward(inner(out, out))
        after = [_buffer_hash(t) for t in (x, w, s, b)]
        assert before == after

    def test_attention_leaves_inputs_and_grad_unmodified(self):
        rng = np.random.default_rng(32)
        q = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        v = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        g = Tensor(rng.standard_normal((2, 3, 8)))
        before = [_buffer_hash(t) for t in (q, k, v, g)]
        out = T.multi_head_attention(q, k, v, num_heads=2)
        first = out._entry.backward_fn(g.data)
        second = out._entry.backward_fn(g.data)   # the kept row statistics are unchanged
        backward(inner(out, g))
        assert [_buffer_hash(t) for t in (q, k, v, g)] == before
        for a, b, leaf in zip(first, second, (q, k, v)):
            assert np.array_equal(a, b) and np.array_equal(a, leaf.grad)

    @pytest.mark.parametrize("op", ["layer_norm", "linear"])
    def test_backward_leaves_a_read_only_grad_unmodified(self, op):
        # both may write a writeable incoming grad; a caller keeps its own by
        # passing a read-only view, and gets the same grads either way
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32), requires_grad=True)
        if op == "layer_norm":
            s, b = (Tensor(rng.standard_normal(8).astype(np.float32), requires_grad=True)
                    for _ in range(2))
            out = T.layer_norm(x, s, b, relu=True)
        else:
            w = Tensor(rng.standard_normal((8, 6)).astype(np.float32), requires_grad=True)
            out = T.linear(x, w, Tensor(np.zeros(6, dtype=np.float32)), relu=True)
        g = rng.standard_normal(out.shape).astype(np.float32)
        kept = g.view()
        kept.flags.writeable = False
        before = g.copy()
        first = out._entry.backward_fn(kept)
        second = out._entry.backward_fn(kept)
        assert np.array_equal(g, before)
        owned = out._entry.backward_fn(g.copy())
        for a, b2, c in zip(first, second, owned):
            assert np.array_equal(a, b2) and np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Scope
# ---------------------------------------------------------------------------

def test_every_public_function_is_used_by_training():
    """An op only tests call is pure verification cost: model, losses or trainer call each one.

    ``relu`` is exempt: the acceptance criteria's reference network calls
    ``T.relu``, while the training path applies its ReLUs inside ``linear``
    and ``layer_norm``.
    """
    src = Path(T.__file__).parent
    text = "".join((src / name).read_text() for name in ("model.py", "losses.py", "trainer.py"))
    public = [name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")]
    assert "relu" in public
    assert [name for name in public
            if name != "relu" and not re.search(rf"\b{name}\(", text)] == []
