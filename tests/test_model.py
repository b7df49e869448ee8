import numpy as np
import pytest

from setseg import tensor as T
from setseg.losses import LossConfig, total_loss
from setseg.matcher import build_cost_matrix, hungarian
from setseg.model import (
    MaskClassificationModel, ModelConfig, load_checkpoint, save_checkpoint,
)
from setseg.records import RecordParseError, write_shards
from setseg.tensor import Tape, Tensor, backward

from conftest import inner, targets as target_set


def toy_config(**overrides):
    base = dict(
        input_size=64, n_queries=8, hidden_size=32, backbone_channels=32,
        num_encoder_layers=2, num_decoder_layers=2, num_heads=4,
        num_classes=4, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestShapes:
    def test_toy_shape_suite(self):
        cfg = toy_config()
        model = MaskClassificationModel(cfg)
        with T.no_grad():
            image = Tensor(np.random.default_rng(0).standard_normal((1, 64, 64, 3)))
            feats = model.backbone_stub(image)
            assert feats.shape == (1, 2, 2, 32)
            encoded, mask_features = model.pixel_decoder(feats)
            assert encoded.shape == (1, 2, 2, 32)
            assert mask_features.shape == (1, 16, 16, 32)
            dec = model.transformer_decoder(encoded)
            assert dec.shape == (1, 8, 32)
            out = model.heads(dec, mask_features)
            assert out.mask_logits.shape == (1, 8, 16, 16)
            assert out.class_logits.shape == (1, 8, 5)

    def test_batch_broadcast(self):
        model = MaskClassificationModel(toy_config())
        with T.no_grad():
            image = Tensor(np.zeros((2, 64, 64, 3), dtype=np.float32))
            out = model.forward(image)
        assert out.mask_logits.shape == (2, 8, 16, 16)
        assert out.class_logits.shape == (2, 8, 5)

    def test_position_embedding_once_per_forward(self, monkeypatch):
        calls = []
        embed = T.sine_position_embedding
        monkeypatch.setattr(T, "sine_position_embedding",
                            lambda *a, **k: calls.append(a) or embed(*a, **k))
        model = MaskClassificationModel(toy_config())
        image = Tensor(np.random.default_rng(4).standard_normal((2, 64, 64, 3)))
        with T.no_grad():
            out = model.forward(image)
            assert calls == [(2, 2, 32)]
            # the stages called alone embed the grid themselves, with the same result
            encoded, mask_features = model.pixel_decoder(model.backbone_stub(image))
            staged = model.heads(model.transformer_decoder(encoded), mask_features)
        assert len(calls) == 3
        assert np.array_equal(out.mask_logits.data, staged.mask_logits.data)
        assert np.array_equal(out.class_logits.data, staged.class_logits.data)

    def test_indivisible_input_rejected(self):
        model = MaskClassificationModel(toy_config())
        with pytest.raises(T.ConfigError):
            model.backbone_stub(Tensor(np.zeros((1, 60, 60, 3))))


class TestIdentityStacks:
    def test_zero_encoder_layers(self):
        cfg = toy_config(num_encoder_layers=0)
        model = MaskClassificationModel(cfg)
        with T.no_grad():
            feats = Tensor(np.random.default_rng(1).standard_normal((1, 2, 2, 32)))
            p = model.params
            projected = T.conv2d(feats, p["pixel_decoder.proj.w"], p["pixel_decoder.proj.b"])
            pos = T.sine_position_embedding(2, 2, 32)
            encoded, _ = model.pixel_decoder(feats)
        assert np.allclose(encoded.data, projected.data + pos.data, atol=1e-6)

    def test_zero_decoder_layers_returns_queries(self):
        cfg = toy_config(num_decoder_layers=0)
        model = MaskClassificationModel(cfg)
        with T.no_grad():
            encoded = Tensor(np.random.default_rng(2).standard_normal((2, 2, 2, 32)))
            out = model.transformer_decoder(encoded)
        q = model.params["decoder.queries"].data
        assert np.array_equal(out.data[0], q)
        assert np.array_equal(out.data[1], q)


def per_image_decoder(model, encoded):
    """The transformer decoder with every op at the batch size, layer 0's query block included."""
    p, cfg = model.params, model.cfg
    b, h, w, c = encoded.shape

    def lin(x, pre, name):
        return T.linear(x, p[f"{pre}.w{name}"], p[f"{pre}.b{name}"])

    def norm(x, pre):
        return T.layer_norm(x, p[f"{pre}.scale"], p[f"{pre}.shift"])

    def attn(x, keys, values, pre):
        out = T.multi_head_attention(lin(x, pre, "q"), lin(keys, pre, "k"), lin(values, pre, "v"),
                                     cfg.num_heads)
        return lin(out, pre, "o")

    pos = model.position_embedding(h, w).reshape(1, h * w, c)
    x = T.broadcast_batch(p["decoder.queries"], b)
    enc_tokens = T.reshape(encoded, (b, h * w, c))
    keys = T.add(enc_tokens, Tensor(np.broadcast_to(pos, (b, h * w, c)).copy()))
    for i in range(cfg.num_decoder_layers):
        pre = f"decoder.layer{i}"
        t = norm(x, f"{pre}.norm1")
        x = T.add(x, attn(t, t, t, f"{pre}.self_attn"))
        t = norm(x, f"{pre}.norm2")
        x = T.add(x, attn(t, keys, enc_tokens, f"{pre}.cross_attn"))
        t = norm(x, f"{pre}.norm3")
        x = T.add(x, lin(T.relu(lin(t, f"{pre}.ffn", "1")), f"{pre}.ffn", "2"))
    return x


class TestDecoderQueryBlock:
    """Layer 0's query block runs once at batch 1 and equals the per-image decoder."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_per_image_decoder(self, batch, layers, dtype):
        model = MaskClassificationModel(toy_config(num_decoder_layers=layers))
        for t in model.params.values():
            t.data = t.data.astype(dtype)
        rng = np.random.default_rng(10 * batch + layers)
        encoded = rng.standard_normal((batch, 2, 2, 32)).astype(dtype)
        g = Tensor(rng.standard_normal((batch, 8, 32)).astype(dtype))
        results = []
        for decoder in (model.transformer_decoder, lambda e: per_image_decoder(model, e)):
            model.zero_grad()
            enc = Tensor(encoded, requires_grad=True)
            with Tape():
                out = decoder(enc)
                backward(inner(out, g))
            results.append((out.data, {"encoded": enc.grad, **{
                name: t.grad for name, t in model.params.items() if name.startswith("decoder.")}}))
        (out, grads), (ref_out, ref_grads) = results
        assert out.dtype == dtype and out.shape == (batch, 8, 32)
        assert np.array_equal(out, ref_out)
        if dtype == np.float64:
            # analytically zero grads (the key biases) are rounding noise: atol on the largest grad
            scale = max(np.abs(r).max() for r in ref_grads.values() if r is not None)
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                assert (grads[name] is None) == (ref is None), name
                if ref is not None:
                    np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                               atol=1e-12 * scale, err_msg=name)

    def test_layer0_self_attention_runs_at_batch_one(self, monkeypatch):
        model = MaskClassificationModel(toy_config())
        recorded = []
        record = T.Tape.record
        monkeypatch.setattr(T.Tape, "record",
                            lambda tape, *a: recorded.append(a) or record(tape, *a))
        encoded = Tensor(np.random.default_rng(7).standard_normal((3, 2, 2, 32)),
                         requires_grad=True)
        assert model.transformer_decoder(encoded).shape == (3, 8, 32)
        attention = [inputs for inputs, _, fn in recorded
                     if fn.__qualname__.startswith("multi_head_attention.")]
        # layer 0: self (batch 1), cross (batch 3); layer 1: self and cross at batch 3
        assert [[t.shape[0] for t in inputs] for inputs in attention] == [
            [1, 1, 1], [3, 3, 3], [3, 3, 3], [3, 3, 3]]


class TestHeads:
    def test_orthogonal_embedding_gives_zero_logits(self):
        model = MaskClassificationModel(toy_config())
        with T.no_grad():
            dec = Tensor(np.zeros((1, 8, 32), dtype=np.float32))
            mf = Tensor(np.random.default_rng(3).standard_normal((1, 16, 16, 32)))
            # zero the MLP so the mask embedding is exactly zero
            for l in range(3):
                model.params[f"heads.mask_mlp.w{l}"].data[...] = 0.0
                model.params[f"heads.mask_mlp.b{l}"].data[...] = 0.0
            out = model.heads(dec, mf)
        assert np.all(out.mask_logits.data == 0.0)
        p = 1.0 / (1.0 + np.exp(-out.mask_logits.data))
        assert np.allclose(p, 0.5)

    def test_one_hot_embedding_selects_channel(self):
        model = MaskClassificationModel(toy_config())
        c = 32
        with T.no_grad():
            mf = Tensor(np.random.default_rng(4).standard_normal((1, 16, 16, c)))
            for l in range(2):
                model.params[f"heads.mask_mlp.w{l}"].data[...] = 0.0
                model.params[f"heads.mask_mlp.b{l}"].data[...] = 0.0
            # final layer maps the (zeroed) hidden state to a constant one-hot bias
            model.params["heads.mask_mlp.w2"].data[...] = 0.0
            bias = np.zeros(c, dtype=np.float32)
            channel = 5
            bias[channel] = 1.0
            model.params["heads.mask_mlp.b2"].data[...] = bias
            out = model.heads(Tensor(np.zeros((1, 8, c), dtype=np.float32)), mf)
        for q in range(8):
            assert np.allclose(out.mask_logits.data[0, q], mf.data[0, :, :, channel], atol=1e-6)


class TestDeterminism:
    def test_same_seed_bit_identical_forward(self):
        cfg = toy_config(seed=7)
        image = np.random.default_rng(5).standard_normal((1, 64, 64, 3)).astype(np.float32)
        with T.no_grad():
            out1 = MaskClassificationModel(cfg).forward(Tensor(image))
            out2 = MaskClassificationModel(toy_config(seed=7)).forward(Tensor(image))
        assert out1.mask_logits.data.tobytes() == out2.mask_logits.data.tobytes()
        assert out1.class_logits.data.tobytes() == out2.class_logits.data.tobytes()

    def test_different_seed_differs(self):
        image = np.zeros((1, 64, 64, 3), dtype=np.float32)
        with T.no_grad():
            out1 = MaskClassificationModel(toy_config(seed=0)).forward(Tensor(image))
            out2 = MaskClassificationModel(toy_config(seed=1)).forward(Tensor(image))
        assert out1.class_logits.data.tobytes() != out2.class_logits.data.tobytes()


def reference_trunc_normal(rng, shape, std=0.02, redraws=None):
    """The whole-array form of the init: rescan every value each round."""
    out = rng.standard_normal(shape)
    for _ in range(8):
        bad = np.abs(out) > 2.0
        if not bad.any():
            break
        out[bad] = rng.standard_normal(int(bad.sum()))
        if redraws is not None:
            redraws.append(int(bad.sum()))
    return out * std


class TestTruncNormalInit:
    # the README toy config, and package defaults cut to one encoder layer:
    # one default-size attention block and a [256, 1024] FFN weight
    @pytest.mark.parametrize("cfg", [
        toy_config(n_queries=16, hidden_size=64, backbone_channels=64, seed=0),
        toy_config(n_queries=16, hidden_size=64, backbone_channels=64, seed=5),
        ModelConfig(num_encoder_layers=1, num_decoder_layers=0, seed=1),
    ], ids=["toy-seed0", "toy-seed5", "default-attention"])
    def test_every_parameter_matches_the_whole_array_redraw(self, cfg, monkeypatch):
        model = MaskClassificationModel(cfg)
        monkeypatch.setattr(MaskClassificationModel, "_trunc_normal",
                            lambda self, shape, std=0.02:
                            reference_trunc_normal(self._rng, shape, std))
        ref = MaskClassificationModel(cfg)
        assert list(model.params) == list(ref.params)
        for name, p in model.params.items():
            assert p.data.dtype == ref.params[name].data.dtype, name
            assert p.data.tobytes() == ref.params[name].data.tobytes(), name
        assert model._rng.bit_generator.state == ref._rng.bit_generator.state

    def test_standalone_call_matches_over_several_rounds(self):
        model = MaskClassificationModel(toy_config())
        model._rng = np.random.default_rng(3)
        out = model._trunc_normal((512, 512))
        ref_rng, redraws = np.random.default_rng(3), []
        ref = reference_trunc_normal(ref_rng, (512, 512), redraws=redraws)
        assert len(redraws) >= 3
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert model._rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.count_nonzero(np.abs(out) > 0.04) == np.count_nonzero(np.abs(ref) > 0.04)


class TestGradientFlow:
    def test_every_parameter_receives_nonzero_grad(self):
        cfg = toy_config()
        model = MaskClassificationModel(cfg)
        rng = np.random.default_rng(6)
        image = Tensor(rng.standard_normal((1, 64, 64, 3)).astype(np.float32))
        # targets at the 16x16 mask resolution of the 64 px input
        gt = np.zeros((16, 16), dtype=np.uint8)
        gt[2:10, 2:10] = 1
        gt2 = np.zeros((16, 16), dtype=np.uint8)
        gt2[12:15, 1:5] = 1
        targets = target_set([gt, gt2], [1, 3])
        valid = np.ones((16, 16), dtype=bool)
        with Tape():
            outputs = model.forward(image)
            cm = build_cost_matrix(outputs, targets, valid, LossConfig())
            assignment = hungarian(cm)
            bundle = total_loss(outputs, [cm], [assignment], LossConfig())
            backward(bundle.total_tensor)
        dead = [name for name, p in model.params.items()
                if p.grad is None or not np.abs(p.grad).any()]
        assert dead == []


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        model = MaskClassificationModel(toy_config(seed=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = MaskClassificationModel(toy_config(seed=9))
        load_checkpoint(other, path)
        for name, t in model.params.items():
            assert np.array_equal(t.data, other.params[name].data), name

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        model = MaskClassificationModel(toy_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        bigger = MaskClassificationModel(toy_config(num_decoder_layers=3))
        with pytest.raises(T.ConfigError):
            load_checkpoint(bigger, path)

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path):
        class ReadFails:
            def __init__(self, shape):
                self.shape = shape

            def __array__(self, *args, **kwargs):
                raise OSError("parameter unreadable")

        path = tmp_path / "model.ckpt"
        save_checkpoint(MaskClassificationModel(toy_config(seed=3)), path)
        old = path.read_bytes()
        model = MaskClassificationModel(toy_config(seed=9))
        # the writer streams keys in sorted order, so this fails after the first parameter
        second = model.params[sorted(model.params)[1]]
        second.data = ReadFails(second.shape)
        with pytest.raises(OSError):
            save_checkpoint(model, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("damage", ["truncate", "flip_tail"])
    def test_damaged_checkpoint_named(self, tmp_path, damage):
        model = MaskClassificationModel(toy_config(seed=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            del data[len(data) // 2:]
        else:
            data[-8:] = bytes(b ^ 0xFF for b in data[-8:])
        path.write_bytes(bytes(data))
        before = {name: t.data.copy() for name, t in model.params.items()}
        with pytest.raises(RecordParseError) as err:
            load_checkpoint(model, path)
        assert "model.ckpt" in str(err.value)
        for name, t in model.params.items():
            assert np.array_equal(t.data, before[name]), name

    def test_shard_file_rejected_as_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [{
            "image/height": np.array([2]), "image/width": np.array([2]),
            "image/encoded": rng.bytes(12), "segmentation/contiguous_mask": bytes(8),
            "segmentation/instance_mask": bytes(8), "image/id": np.array([i]),
        } for i in range(3)]
        shard_set = write_shards(entries, 1, tmp_path)
        with pytest.raises(RecordParseError) as err:
            load_checkpoint(MaskClassificationModel(toy_config()), shard_set.shard_paths[0])
        assert "shard-00000.mfr" in str(err.value)

    def test_parameter_count_reported(self):
        model = MaskClassificationModel(toy_config())
        info = model.info()
        assert f"parameters: {model.parameter_count()}" in info
        assert model.parameter_count() > 0
