"""Toy mask-classification network preserving the full-scale shape contracts.

Stages: a five-stage strided conv backbone stub (stride 32), a pixel decoder
(transformer encoder over the stride-32 grid plus three fused nearest-2x
upsample + 3x3 conv stages back to stride 4), a transformer decoder over
learned queries, and heads producing per-query mask logits
[B, N_q, H/4, W/4] and class logits [B, N_q, K+1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .records import RecordParseError, payload_parts, read_records, write_records
from .tensor import ConfigError, Tensor


@dataclass
class ModelConfig:
    input_size: int = 640
    n_queries: int = 100
    hidden_size: int = 256
    backbone_channels: int = 256
    num_encoder_layers: int = 6
    num_decoder_layers: int = 6
    num_heads: int = 8
    num_classes: int = 4
    seed: int = 0


@dataclass
class ModelOutputs:
    mask_logits: Tensor    # [B, N_q, H/4, W/4]
    class_logits: Tensor   # [B, N_q, K+1]


class MaskClassificationModel:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(cfg.seed)
        self._build()

    # -- initialization ----------------------------------------------------

    def _param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data.astype(np.float32), requires_grad=True)
        self.params[name] = t
        return t

    def _trunc_normal(self, shape, std=0.02):
        """N(0, 1) draws, each redrawn while |z| > 2 for at most 8 rounds, then
        scaled by ``std``. A round draws one value per out-of-range position,
        in ascending flat-index order, so only those positions are rescanned."""
        out = self._rng.standard_normal(shape)
        flat = out.reshape(-1)
        # |z| > 2 as two compares: np.abs would allocate a float64 temporary
        bad = np.flatnonzero((flat < -2.0) | (flat > 2.0))
        for _ in range(8):
            if not bad.size:
                break
            flat[bad] = self._rng.standard_normal(bad.size)
            bad = bad[np.abs(flat[bad]) > 2.0]
        out *= std
        return out

    def _fanin_uniform(self, shape):
        fan_in = int(np.prod(shape[:-1]))
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        return self._rng.uniform(-bound, bound, size=shape)

    def _conv_block(self, prefix, cin, cout):
        self._param(f"{prefix}.conv.w", self._fanin_uniform((3, 3, cin, cout)))
        self._param(f"{prefix}.conv.b", np.zeros(cout))
        self._param(f"{prefix}.norm.scale", np.ones(cout))
        self._param(f"{prefix}.norm.shift", np.zeros(cout))

    def _norm_block(self, prefix, c):
        self._param(f"{prefix}.scale", np.ones(c))
        self._param(f"{prefix}.shift", np.zeros(c))

    def _attn_block(self, prefix, c):
        for name in ("wq", "wk", "wv", "wo"):
            self._param(f"{prefix}.{name}", self._trunc_normal((c, c)))
        for name in ("bq", "bk", "bv", "bo"):
            self._param(f"{prefix}.{name}", np.zeros(c))

    def _ffn_block(self, prefix, c):
        self._param(f"{prefix}.w1", self._trunc_normal((c, 4 * c)))
        self._param(f"{prefix}.b1", np.zeros(4 * c))
        self._param(f"{prefix}.w2", self._trunc_normal((4 * c, c)))
        self._param(f"{prefix}.b2", np.zeros(c))

    def _build(self):
        cfg = self.cfg
        cb, c = cfg.backbone_channels, cfg.hidden_size
        stage_channels = [max(cb // 8, 4), max(cb // 4, 8), max(cb // 2, 16), cb, cb]
        cin = 3
        for i, cout in enumerate(stage_channels):
            self._conv_block(f"backbone.stage{i}", cin, cout)
            cin = cout

        self._param("pixel_decoder.proj.w", self._fanin_uniform((1, 1, cb, c)))
        self._param("pixel_decoder.proj.b", np.zeros(c))
        for i in range(cfg.num_encoder_layers):
            p = f"pixel_decoder.enc{i}"
            self._norm_block(f"{p}.norm1", c)
            self._attn_block(f"{p}.attn", c)
            self._norm_block(f"{p}.norm2", c)
            self._ffn_block(f"{p}.ffn", c)
        for j in range(3):
            self._conv_block(f"pixel_decoder.up{j}", c, c)

        self._param("decoder.queries", self._trunc_normal((cfg.n_queries, c)))
        for i in range(cfg.num_decoder_layers):
            p = f"decoder.layer{i}"
            self._norm_block(f"{p}.norm1", c)
            self._attn_block(f"{p}.self_attn", c)
            self._norm_block(f"{p}.norm2", c)
            self._attn_block(f"{p}.cross_attn", c)
            self._norm_block(f"{p}.norm3", c)
            self._ffn_block(f"{p}.ffn", c)

        # head initialization is the known sensitivity point: fan-in scaled
        self._param("heads.classifier.w", self._fanin_uniform((c, cfg.num_classes + 1)))
        self._param("heads.classifier.b", np.zeros(cfg.num_classes + 1))
        for l in range(3):
            self._param(f"heads.mask_mlp.w{l}", self._fanin_uniform((c, c)))
            self._param(f"heads.mask_mlp.b{l}", np.zeros(c))

    # -- stages ------------------------------------------------------------

    def _norm(self, x, prefix, relu=False):
        return T.layer_norm(x, self.params[f"{prefix}.scale"], self.params[f"{prefix}.shift"],
                            relu=relu)

    def _conv_stage(self, x, prefix):
        x = T.conv2d(x, self.params[f"{prefix}.conv.w"], self.params[f"{prefix}.conv.b"],
                     stride=2, padding=1)
        return self._norm(x, f"{prefix}.norm", relu=True)

    def _linear(self, x, prefix, name, relu=False):
        p = self.params
        return T.linear(x, p[f"{prefix}.w{name}"], p[f"{prefix}.b{name}"], relu=relu)

    def _attn(self, q, keys, values, prefix):
        """Attention of the projected queries ``q`` over keys and values, then the output projection."""
        k = self._linear(keys, prefix, "k")
        v = self._linear(values, prefix, "v")
        return self._linear(T.multi_head_attention(q, k, v, self.cfg.num_heads), prefix, "o")

    def _self_attn(self, x, prefix):
        return self._attn(self._linear(x, prefix, "q"), x, x, prefix)

    def _ffn(self, x, prefix):
        return self._linear(self._linear(x, prefix, "1", relu=True), prefix, "2")

    def backbone_stub(self, image: Tensor) -> Tensor:
        """Five stride-2 conv+norm+relu stages: [B,H,W,3] -> [B,H/32,W/32,C_b]."""
        if image.shape[1] % 32 != 0 or image.shape[2] % 32 != 0:
            raise ConfigError(f"input spatial dims {image.shape} not divisible by 32")
        x = image
        for i in range(5):
            x = self._conv_stage(x, f"backbone.stage{i}")
        return x

    def position_embedding(self, h: int, w: int) -> np.ndarray:
        """The [1, h, w, hidden] sine embedding of the stride-32 grid."""
        return T.sine_position_embedding(h, w, self.cfg.hidden_size).data

    def pixel_decoder(self, features: Tensor,
                      pos: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Project + position-embed + encode, then upsample to stride 4.

        ``pos`` is ``position_embedding`` of the feature grid; ``forward``
        computes it once for this stage and the transformer decoder.
        """
        p = self.params
        x = T.conv2d(features, p["pixel_decoder.proj.w"], p["pixel_decoder.proj.b"])
        b, h, w, c = x.shape
        if pos is None:
            pos = self.position_embedding(h, w)
        x = T.add(x, Tensor(np.broadcast_to(pos, x.shape).copy()))
        tokens = T.reshape(x, (b, h * w, c))
        for i in range(self.cfg.num_encoder_layers):
            pre = f"pixel_decoder.enc{i}"
            t = self._norm(tokens, f"{pre}.norm1")
            tokens = T.add(tokens, self._self_attn(t, f"{pre}.attn"))
            t = self._norm(tokens, f"{pre}.norm2")
            tokens = T.add(tokens, self._ffn(t, f"{pre}.ffn"))
        encoded = T.reshape(tokens, (b, h, w, c))
        y = encoded
        for j in range(3):
            pre = f"pixel_decoder.up{j}"
            y = T.upsample2x_conv3x3(y, p[f"{pre}.conv.w"], p[f"{pre}.conv.b"])
            y = self._norm(y, f"{pre}.norm", relu=True)
        return encoded, y

    def transformer_decoder(self, encoded: Tensor, pos: np.ndarray | None = None) -> Tensor:
        """Decode the learned queries against encoded tokens (pos added to keys): [B, N_q, C].

        Every image starts from the same queries, so layer 0 runs at batch 1
        up to where image data enters: its ``norm1``, self-attention block
        and residual add, its ``norm2`` and its cross-attention query
        projection. The residual stream and the projected queries are then
        broadcast to the batch, and ``broadcast_batch``'s backward sums the
        per-image grads once. With no layers the queries are broadcast as
        they are.
        """
        b, h, w, c = encoded.shape
        queries = self.params["decoder.queries"]
        if not self.cfg.num_decoder_layers:
            return T.broadcast_batch(queries, b)
        if pos is None:
            pos = self.position_embedding(h, w)
        nq = queries.shape[0]
        enc_tokens = T.reshape(encoded, (b, h * w, c))
        pos_tokens = np.broadcast_to(pos.reshape(1, h * w, c), (b, h * w, c)).copy()
        keys = T.add(enc_tokens, Tensor(pos_tokens))
        x = T.reshape(queries, (1, nq, c))
        for i in range(self.cfg.num_decoder_layers):
            pre = f"decoder.layer{i}"
            t = self._norm(x, f"{pre}.norm1")
            x = T.add(x, self._self_attn(t, f"{pre}.self_attn"))
            t = self._norm(x, f"{pre}.norm2")
            q = self._linear(t, f"{pre}.cross_attn", "q")
            if i == 0:
                x, q = (T.broadcast_batch(T.reshape(a, (nq, c)), b) for a in (x, q))
            x = T.add(x, self._attn(q, keys, enc_tokens, f"{pre}.cross_attn"))
            t = self._norm(x, f"{pre}.norm3")
            x = T.add(x, self._ffn(t, f"{pre}.ffn"))
        return x

    def heads(self, decoder_out: Tensor, mask_features: Tensor) -> ModelOutputs:
        """Linear classifier plus 3-layer MLP mask embedding dotted with features."""
        class_logits = self._linear(decoder_out, "heads.classifier", "")
        e = decoder_out
        for l in range(2):
            e = self._linear(e, "heads.mask_mlp", str(l), relu=True)
        mask_embed = self._linear(e, "heads.mask_mlp", "2")
        b, hm, wm, c = mask_features.shape
        mf = T.reshape(mask_features, (b, hm * wm, c))
        logits = T.matmul_nt(mask_embed, mf)                  # [B, N_q, hm*wm]
        mask_logits = T.reshape(logits, (b, self.cfg.n_queries, hm, wm))
        return ModelOutputs(mask_logits=mask_logits, class_logits=class_logits)

    def forward(self, image: Tensor) -> ModelOutputs:
        features = self.backbone_stub(image)
        pos = self.position_embedding(features.shape[1], features.shape[2])
        encoded, mask_features = self.pixel_decoder(features, pos)
        decoder_out = self.transformer_decoder(encoded, pos=pos)
        return self.heads(decoder_out, mask_features)

    # -- bookkeeping ---------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def info(self) -> str:
        lines = [f"parameters: {self.parameter_count()}"]
        for name, t in self.params.items():
            lines.append(f"  {name} {list(t.shape)}")
        return "\n".join(lines)


def save_checkpoint(model: MaskClassificationModel, path) -> None:
    """Write every parameter and its shape as one record; a failed write leaves ``path`` as it was."""
    entry = {}
    for name, t in model.params.items():
        entry[name] = t.data
        entry[f"{name}/shape"] = np.array(t.shape, dtype=np.int64)
    write_records(path, [payload_parts(entry)])


def load_checkpoint(model: MaskClassificationModel, path) -> None:
    """Load every parameter from ``path``; a corrupt or mismatched file raises before any changes."""
    entries = list(read_records(path))
    if len(entries) != 1:
        raise RecordParseError(f"{path}: {len(entries)} records, a checkpoint holds one")
    (entry,) = entries
    expected = {key for name in model.params for key in (name, f"{name}/shape")}
    missing = expected - entry.keys()
    extra = entry.keys() - expected
    if missing or extra:
        raise ConfigError(f"{path}: checkpoint mismatch: "
                          f"missing={sorted(missing)} extra={sorted(extra)}")
    for name, t in model.params.items():
        shape = tuple(entry[f"{name}/shape"].tolist())
        if shape != t.shape or entry[name].size != t.size:
            raise ConfigError(f"{path}: checkpoint shape mismatch for {name}: "
                              f"{shape} != {t.shape}")
    for name, t in model.params.items():
        # copy one parameter at a time: the peak holds one parameter twice, not two models
        t.data = entry[name].reshape(t.shape).copy()
