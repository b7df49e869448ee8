"""Synthetic shape dataset: colored geometry with exact instance masks.

Four classes using deliberately sparse original category IDs (so ingestion
exercises the contiguous mapping): circle=7, rectangle=21, triangle=33, and
a background stuff region=90. Each image is written as raw RGB8 plus a raw
u16 instance-mask file; annotations.jsonl lists per-image segments.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CIRCLE = 7
RECTANGLE = 21
TRIANGLE = 33
STUFF = 90

CLASS_IDS = (CIRCLE, RECTANGLE, TRIANGLE, STUFF)
CLASS_NAMES = {CIRCLE: "circle", RECTANGLE: "rectangle", TRIANGLE: "triangle", STUFF: "stuff"}

ANNOTATIONS_NAME = "annotations.jsonl"


def _paint_circle(rng, inst, canvas, iid, color):
    h, w = inst.shape
    r = int(rng.integers(max(3, min(h, w) // 8), max(4, min(h, w) // 3)))
    cy = int(rng.integers(r, h - r + 1))
    cx = int(rng.integers(r, w - r + 1))
    yy, xx = np.ogrid[:h, :w]
    m = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    inst[m] = iid
    canvas[m] = color


def _paint_rectangle(rng, inst, canvas, iid, color):
    h, w = inst.shape
    rh = int(rng.integers(max(3, h // 8), max(4, h // 2)))
    rw = int(rng.integers(max(3, w // 8), max(4, w // 2)))
    top = int(rng.integers(0, h - rh + 1))
    left = int(rng.integers(0, w - rw + 1))
    inst[top:top + rh, left:left + rw] = iid
    canvas[top:top + rh, left:left + rw] = color


def _paint_triangle(rng, inst, canvas, iid, color):
    h, w = inst.shape
    for _ in range(20):
        pts = np.stack([rng.integers(0, h, size=3), rng.integers(0, w, size=3)], axis=1)
        area2 = abs(
            (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
            - (pts[2][0] - pts[0][0]) * (pts[1][1] - pts[0][1])
        )
        if area2 >= (h * w) // 16:
            break
    yy, xx = np.mgrid[:h, :w]

    def half_plane(a, b):
        return (b[0] - a[0]) * (xx - a[1]) - (b[1] - a[1]) * (yy - a[0])

    d0 = half_plane(pts[0], pts[1])
    d1 = half_plane(pts[1], pts[2])
    d2 = half_plane(pts[2], pts[0])
    m = ((d0 >= 0) & (d1 >= 0) & (d2 >= 0)) | ((d0 <= 0) & (d1 <= 0) & (d2 <= 0))
    inst[m] = iid
    canvas[m] = color


_PAINTERS = {CIRCLE: _paint_circle, RECTANGLE: _paint_rectangle, TRIANGLE: _paint_triangle}


def generate_image(rng, height: int, width: int):
    """One image: (rgb uint8 [h,w,3], instance u16 [h,w], {instance: category})."""
    canvas = np.empty((height, width, 3), dtype=np.uint8)
    canvas[:] = rng.integers(20, 100, size=3, dtype=np.uint8)
    inst = np.ones((height, width), dtype=np.uint16)   # instance 1 = stuff background
    categories = {1: STUFF}
    n_things = int(rng.integers(1, 4))
    for i in range(n_things):
        iid = i + 2
        kind = int(rng.choice(np.asarray([CIRCLE, RECTANGLE, TRIANGLE])))
        color = rng.integers(110, 255, size=3, dtype=np.uint8)
        _PAINTERS[kind](rng, inst, canvas, iid, color)
        categories[iid] = kind
    # later shapes may fully cover earlier ones; keep only surviving instances
    present = set(int(v) for v in np.unique(inst))
    categories = {iid: cat for iid, cat in categories.items() if iid in present}
    return canvas, inst, categories


def synth(n_images: int, out_dir, seed: int = 0,
          min_size: int = 48, max_size: int = 96) -> Path:
    """Write images, instance masks, and a JSON-lines annotation file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ann_path = out_dir / ANNOTATIONS_NAME
    with open(ann_path, "w") as ann:
        for i in range(n_images):
            height = int(rng.integers(min_size, max_size + 1))
            width = int(rng.integers(min_size, max_size + 1))
            rgb, inst, categories = generate_image(rng, height, width)
            image_file = f"img_{i:05d}.rgb"
            mask_file = f"img_{i:05d}.inst"
            (out_dir / image_file).write_bytes(rgb.tobytes())
            (out_dir / mask_file).write_bytes(inst.astype("<u2").tobytes())
            record = {
                "image_id": i,
                "height": height,
                "width": width,
                "image_file": image_file,
                "instance_mask_file": mask_file,
                "segments": [
                    {"instance_id": iid, "category_id": cat}
                    for iid, cat in sorted(categories.items())
                ],
            }
            ann.write(json.dumps(record, sort_keys=True) + "\n")
    return ann_path


def read_annotations(ann_path):
    """Yield (line number, record) per non-blank line; a non-JSON line raises ``ValueError``."""
    ann_path = Path(ann_path)
    for number, line in enumerate(ann_path.read_text().splitlines(), 1):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{ann_path}:{number}: not JSON ({err.msg} at column "
                                 f"{err.colno})") from None
            yield number, record


def load_annotation_arrays(ann_path, record: dict):
    base = Path(ann_path).parent
    h, w = record["height"], record["width"]
    rgb = np.frombuffer((base / record["image_file"]).read_bytes(),
                        dtype=np.uint8).reshape(h, w, 3)
    inst = np.frombuffer((base / record["instance_mask_file"]).read_bytes(),
                         dtype="<u2").reshape(h, w)
    return rgb, inst
