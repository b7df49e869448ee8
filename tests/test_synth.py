import hashlib
from collections import Counter
from pathlib import Path

import numpy as np

from setseg import synth


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class TestSynth:
    def test_deterministic_per_seed(self, tmp_path):
        synth.synth(1, tmp_path / "a", seed=7)
        synth.synth(1, tmp_path / "b", seed=7)
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_different_seeds_differ(self, tmp_path):
        synth.synth(1, tmp_path / "a", seed=1)
        synth.synth(1, tmp_path / "b", seed=2)
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")

    def test_masks_disjoint_and_in_bounds(self, tmp_path):
        ann_path = synth.synth(10, tmp_path, seed=3)
        for _, rec in synth.read_annotations(ann_path):
            rgb, inst = synth.load_annotation_arrays(ann_path, rec)
            assert rgb.shape == (rec["height"], rec["width"], 3)
            assert inst.shape == (rec["height"], rec["width"])
            listed = {seg["instance_id"] for seg in rec["segments"]}
            present = {int(v) for v in np.unique(inst)}
            assert present == listed          # instance grid is a partition
            assert 0 not in present           # stuff background covers base

    def test_all_classes_appear_over_200_images(self, tmp_path):
        ann_path = synth.synth(200, tmp_path, seed=11, min_size=48, max_size=96)
        hist = Counter()
        for _, rec in synth.read_annotations(ann_path):
            for seg in rec["segments"]:
                hist[seg["category_id"]] += 1
        for cid in synth.CLASS_IDS:
            assert hist[cid] > 0, synth.CLASS_NAMES[cid]

    def test_labels_consistent_per_instance(self, tmp_path):
        ann_path = synth.synth(5, tmp_path, seed=4)
        for _, rec in synth.read_annotations(ann_path):
            by_instance = {seg["instance_id"]: seg["category_id"]
                           for seg in rec["segments"]}
            assert len(by_instance) == len(rec["segments"])
            assert all(c in synth.CLASS_IDS for c in by_instance.values())
