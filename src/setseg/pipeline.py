"""Sample records, class-ID densification, resize/crop/pad, target building.

This module alone knows a sample record's keys; ``records`` frames its bytes.
Class IDs are densified once, at ingest, into the shard manifest's
``class_mapping``, and each record stores each instance's class once;
``parse`` passes the labels through unchecked, and the class head's K
(``model.num_classes``) checks them where they meet it.

All geometry uses nearest-neighbor resampling with pixel-center index
mapping, so a parse at scale 1.0 is the identity on pixel values. Such
resamples compose exactly (``g[a][b] == g[a[b]]``), so the crop, its resize
and the fit are one source index per axis, and ``parse`` gathers each record
grid once. Images are padded bottom/right to a square target. ``parse``
alone knows the mask logits' stride ``MASK_STRIDE``: the targets and the
validity mask (the top-left rectangle of resized content, to which every
mask loss restricts its sums) come out at mask resolution. The targets are
one id grid, in which pixel value ``i + 1`` is target ``i`` and 0 is none,
so they are disjoint by construction and zero wherever the validity mask is
False. Targets and labels are chosen at parse resolution, so a target's id
can own no pixel at mask resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


class PipelineError(ValueError):
    pass


MASK_STRIDE = 4   # image pixels per mask-logit pixel along each side


# ---------------------------------------------------------------------------
# Contiguous ID mapping
# ---------------------------------------------------------------------------

def build_id_mapper(original_ids) -> dict[int, int]:
    """Order-preserving densification of sparse class IDs: original ID -> 1..K."""
    ids = list(original_ids)
    if not ids:
        raise PipelineError("cannot build an ID mapper from an empty ID set")
    if len(set(ids)) != len(ids):
        raise PipelineError("duplicate IDs in mapper input")
    if any(i <= 0 for i in ids):
        raise PipelineError("class IDs must be positive")
    return {orig: k + 1 for k, orig in enumerate(sorted(ids))}


# ---------------------------------------------------------------------------
# Parser configuration and outputs
# ---------------------------------------------------------------------------

@dataclass
class ParserConfig:
    target_size: int = 640
    crop_probability: float = 0.5
    crop_sizes: tuple[int, ...] = (400, 500, 600)
    mean: tuple[float, float, float] = (0.485, 0.456, 0.406)
    std: tuple[float, float, float] = (0.229, 0.224, 0.225)


@dataclass
class PanopticSample:
    image: Tensor                 # [1, H, W, 3] normalized floats
    valid_mask: np.ndarray        # [H/4, W/4] bool, False on padding
    image_id: int


@dataclass
class TargetSet:
    ids: np.ndarray               # int [H/4, W/4]: i + 1 on target i's pixels, 0 elsewhere
    labels: list[int]             # target i's contiguous class ID, 1..K
    dropped: int = 0              # record instances labelled 0 or lost to crop/resize

    @property
    def count(self) -> int:
        return len(self.labels)

    @property
    def empty(self) -> int:
        """Targets whose id owns no pixel: lost to the stride at mask resolution."""
        area = np.bincount(self.ids.ravel(), minlength=self.count + 1)
        return int(np.count_nonzero(area[1:] == 0))


# ---------------------------------------------------------------------------
# Sample records
# ---------------------------------------------------------------------------

SAMPLE_KEYS = ("image/height", "image/width", "image/id", "image/encoded",
               "segmentation/instance_mask", "segmentation/instance_classes")


def encode_entry(rgb, inst, classes, image_id: int) -> dict:
    """An image's record: rgb, instance ids, ``classes[i]`` instance i's class (0: none)."""
    h, w = np.shape(inst)
    return {
        "image/height": np.array([h], dtype=np.int64),
        "image/width": np.array([w], dtype=np.int64),
        "image/id": np.array([image_id], dtype=np.int64),
        "image/encoded": np.ascontiguousarray(rgb, dtype=np.uint8).tobytes(),
        "segmentation/instance_mask": np.ascontiguousarray(inst, dtype="<u2").tobytes(),
        "segmentation/instance_classes": np.asarray(classes, dtype=np.int64),
    }


def decode_entry(entry: dict):
    """(rgb, inst, classes, image_id) of a sample record, as views of its values.

    A missing key, a grid of the wrong byte count or a class table without the
    largest instance id raises ``PipelineError`` naming the image id.
    """
    image_id = int(entry["image/id"][0]) if "image/id" in entry else "?"

    def fail(reason):
        raise PipelineError(f"image {image_id}: {reason}")

    for key in SAMPLE_KEYS:
        if key not in entry:
            fail(f"record has no {key!r}")
    h, w = int(entry["image/height"][0]), int(entry["image/width"][0])
    for key, size in (("image/encoded", 3 * h * w), ("segmentation/instance_mask", 2 * h * w)):
        if len(entry[key]) != size:
            fail(f"{key} has {len(entry[key])} bytes, expected {size} for {h}x{w}")
    rgb = np.frombuffer(entry["image/encoded"], dtype=np.uint8).reshape(h, w, 3)
    inst = np.frombuffer(entry["segmentation/instance_mask"], dtype="<u2").reshape(h, w)
    classes = entry["segmentation/instance_classes"]
    if len(classes) <= inst.max(initial=0):
        fail(f"class table has {len(classes)} entries, but instance id {inst.max()} needs one")
    return rgb, inst, classes, image_id


# ---------------------------------------------------------------------------
# Parse
# ---------------------------------------------------------------------------

def nearest_index(n: int, new_n: int) -> np.ndarray:
    """Source indices of a nearest-neighbor resample of n samples to new_n (identity at n)."""
    return np.minimum(((np.arange(new_n) + 0.5) * (n / new_n)).astype(np.int64), n - 1)


def parse(entry: dict, cfg: ParserConfig, rng_seed: int) -> tuple[PanopticSample, TargetSet]:
    """Decode, geometrically normalize, and label-prepare one record.

    Deterministic given (entry, cfg, rng_seed). With probability
    ``cfg.crop_probability`` a random crop is taken and its shortest side
    resized to one of ``cfg.crop_sizes``; afterwards the longer side is fitted
    to ``cfg.target_size`` and the result zero-padded bottom/right to a square.
    The rgb and instance grids are gathered once, through one composed index
    per axis, and each kept instance's label is its entry in the class table.
    Targets and the validity mask are at mask resolution (see the module
    docstring); ``cfg.target_size`` must be a multiple of ``MASK_STRIDE``.
    """
    target = cfg.target_size
    if target % MASK_STRIDE:
        raise PipelineError(f"target_size {target} is not a multiple of the "
                            f"mask stride {MASK_STRIDE}")
    rgb, inst, classes, image_id = decode_entry(entry)
    source_count = int(np.count_nonzero(np.bincount(inst.reshape(-1))[1:]))

    h, w = inst.shape
    rows, cols = np.arange(h), np.arange(w)
    rng = np.random.default_rng(rng_seed)
    if rng.random() < cfg.crop_probability:
        ch = int(rng.integers(max(1, h // 2), h + 1))
        cw = int(rng.integers(max(1, w // 2), w + 1))
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        short = int(rng.choice(np.asarray(cfg.crop_sizes)))
        scale = short / min(ch, cw)
        sh, sw = max(1, round(ch * scale)), max(1, round(cw * scale))
        if ch <= cw:
            sh = short
        else:
            sw = short
        rows, cols = top + nearest_index(ch, sh), left + nearest_index(cw, sw)

    h, w = len(rows), len(cols)
    scale = target / max(h, w)
    new_h = target if h >= w else max(1, round(h * scale))
    new_w = target if w >= h else max(1, round(w * scale))
    rows, cols = rows[nearest_index(h, new_h)], cols[nearest_index(w, new_w)]

    image = np.zeros((target, target, 3), dtype=np.float32)
    content = image[:new_h, :new_w]
    content[...] = rgb.take(rows, axis=0).take(cols, axis=1)
    content /= 255.0
    content -= np.asarray(cfg.mean, dtype=np.float32)
    content /= np.asarray(cfg.std, dtype=np.float32)

    # a resample of the padded square to 1/MASK_STRIDE would pick each stride
    # cell's pixel centre; pick them from the content, then pad
    inst = inst.take(rows, axis=0).take(cols, axis=1)
    centre = MASK_STRIDE // 2
    picked = inst[centre::MASK_STRIDE, centre::MASK_STRIDE]
    ph, pw = picked.shape
    small = np.zeros((target // MASK_STRIDE,) * 2, dtype=picked.dtype)
    small[:ph, :pw] = picked
    valid = np.zeros(small.shape, dtype=bool)
    valid[:ph, :pw] = True

    # the kept instances, those with a class, become ids 1..N in instance order, the rest 0
    ids = np.unique(inst)
    labels = classes[ids]
    keep = (ids != 0) & (labels != 0)
    lut = np.zeros(int(ids[-1]) + 1, np.int64)
    lut[ids[keep]] = np.arange(1, int(keep.sum()) + 1)
    targets = TargetSet(ids=lut[small], labels=[int(label) for label in labels[keep]],
                        dropped=source_count - int(keep.sum()))
    return PanopticSample(image=Tensor(image[None]), valid_mask=valid, image_id=image_id), targets


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    images: Tensor                  # [B, H, W, 3]
    valid_masks: np.ndarray         # [B, H/4, W/4] bool
    target_sets: list[TargetSet]    # one per sample; label lists are ragged
    image_ids: list[int]

    @property
    def size(self) -> int:
        return self.images.shape[0]


def batch(samples: list[PanopticSample], targets: list[TargetSet]) -> Batch:
    """Stack padded samples along the batch axis; target sets stay ragged."""
    if not samples:
        raise PipelineError("cannot batch zero samples")
    shapes = {s.image.shape[1:] for s in samples}
    if len(shapes) != 1:
        raise PipelineError(f"mixed spatial sizes in batch: {sorted(shapes)}")
    images = Tensor(np.concatenate([s.image.data for s in samples], axis=0))
    valid = np.stack([s.valid_mask for s in samples], axis=0)
    return Batch(images, valid, list(targets), [s.image_id for s in samples])
