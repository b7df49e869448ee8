import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from setseg import pipeline
from setseg.pipeline import ParserConfig, build_id_mapper, parse


def make_entry(rgb, cont, inst, image_id=0):
    h, w = rgb.shape[:2]
    return {
        "image/height": np.array([h], dtype=np.int64),
        "image/width": np.array([w], dtype=np.int64),
        "image/encoded": np.ascontiguousarray(rgb, dtype=np.uint8).tobytes(),
        "segmentation/contiguous_mask": np.ascontiguousarray(cont, dtype="<u2").tobytes(),
        "segmentation/instance_mask": np.ascontiguousarray(inst, dtype="<u2").tobytes(),
        "image/id": np.array([image_id], dtype=np.int64),
    }


class TestBuildIdMapper:
    def test_order_preserving_densification(self):
        assert build_id_mapper({1, 3, 7}) == {1: 1, 3: 2, 7: 3}

    def test_singleton(self):
        assert build_id_mapper({5}) == {5: 1}

    def test_gap_set_bijection(self):
        missing = {12, 26, 29, 30, 45, 66, 68, 69, 71, 83}
        ids = [i for i in range(1, 91) if i not in missing]
        m = build_id_mapper(ids)
        assert len(m) == 80
        assert sorted(m.values()) == list(range(1, 81))

    def test_empty_rejected(self):
        with pytest.raises(pipeline.PipelineError):
            build_id_mapper(set())

    def test_duplicates_rejected(self):
        with pytest.raises(pipeline.PipelineError):
            build_id_mapper([4, 4, 5])


class TestParseGeometry:
    def test_tall_image_pads_bottom(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 255, size=(320, 640, 3), dtype=np.uint8)
        cont = np.ones((320, 640), dtype=np.uint16)
        inst = np.ones((320, 640), dtype=np.uint16)
        cfg = ParserConfig(target_size=640, crop_probability=0.0)
        sample, _ = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert sample.image.shape == (1, 640, 640, 3)
        assert sample.valid_mask.shape == (160, 160)   # mask resolution
        assert sample.valid_mask[:80, :].all()
        assert not sample.valid_mask[80:, :].any()

    def test_already_target_size_is_identity_up_to_normalization(self):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 255, size=(64, 64, 3), dtype=np.uint8)
        cont = rng.integers(0, 3, size=(64, 64)).astype(np.uint16)
        inst = cont.copy()
        cfg = ParserConfig(target_size=64, crop_probability=0.0)
        sample, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert sample.valid_mask.all()
        mean = np.asarray(cfg.mean, dtype=np.float32)
        std = np.asarray(cfg.std, dtype=np.float32)
        expected = (rgb.astype(np.float32) / 255.0 - mean) / std
        assert np.array_equal(sample.image.data[0], expected)
        # instance i has class i, so the targets paint the class map at mask resolution
        painted = np.array([0, *targets.labels])[targets.ids]
        assert np.array_equal(painted, cont[2::4, 2::4])

    def test_two_by_two_targets(self):
        # an 8 px parse of a 2x2 record: each pixel is one 4x4 stride cell
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        cont = np.array([[1, 1], [0, 2]], dtype=np.uint16)
        inst = np.array([[1, 1], [0, 2]], dtype=np.uint16)
        cfg = ParserConfig(target_size=8, crop_probability=0.0)
        _, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert targets.count == 2
        assert targets.labels == [1, 2]
        assert np.array_equal(targets.ids, [[1, 1], [0, 2]])

    def test_labels_pass_through_unchecked(self):
        # the class head's K checks labels, in the matcher and in evaluate
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        cont = np.full((4, 4), 9, dtype=np.uint16)
        inst = np.ones((4, 4), dtype=np.uint16)
        cfg = ParserConfig(target_size=4, crop_probability=0.0)
        _, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert targets.labels == [9]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 255, size=(50, 70, 3), dtype=np.uint8)
        cont = rng.integers(0, 4, size=(50, 70)).astype(np.uint16)
        inst = cont.copy()
        cfg = ParserConfig(target_size=48, crop_probability=1.0, crop_sizes=(24, 32))
        s1, t1 = parse(make_entry(rgb, cont, inst), cfg, rng_seed=123)
        s2, t2 = parse(make_entry(rgb, cont, inst), cfg, rng_seed=123)
        assert np.array_equal(s1.image.data, s2.image.data)
        assert np.array_equal(s1.valid_mask, s2.valid_mask)
        assert t1.labels == t2.labels
        assert np.array_equal(t1.ids, t2.ids)

    def test_crop_path_changes_output(self):
        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 255, size=(60, 60, 3), dtype=np.uint8)
        cont = np.ones((60, 60), dtype=np.uint16)
        inst = np.ones((60, 60), dtype=np.uint16)
        cfg_no = ParserConfig(target_size=32, crop_probability=0.0, crop_sizes=(16,))
        cfg_yes = ParserConfig(target_size=32, crop_probability=1.0, crop_sizes=(16,))
        s_no, _ = parse(make_entry(rgb, cont, inst), cfg_no, rng_seed=7)
        s_yes, _ = parse(make_entry(rgb, cont, inst), cfg_yes, rng_seed=7)
        assert not np.array_equal(s_no.image.data, s_yes.image.data)

    def test_valid_mask_coverage_matches_geometry(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            h = int(rng.integers(20, 90))
            w = int(rng.integers(20, 90))
            rgb = rng.integers(0, 255, size=(h, w, 3), dtype=np.uint8)
            cont = np.ones((h, w), dtype=np.uint16)
            inst = np.ones((h, w), dtype=np.uint16)
            cfg = ParserConfig(target_size=64, crop_probability=0.0)
            sample, _ = parse(make_entry(rgb, cont, inst), cfg, rng_seed=seed)
            scale = 64 / max(h, w)
            exp_h = 64 if h >= w else max(1, round(h * scale))
            exp_w = 64 if w >= h else max(1, round(w * scale))
            covered = np.zeros((64, 64), dtype=bool)
            covered[:exp_h, :exp_w] = True
            assert np.array_equal(sample.valid_mask, covered[2::4, 2::4])


class TestTargetInvariants:
    def test_union_of_masks_equals_instance_pixels(self):
        rng = np.random.default_rng(5)
        inst = rng.integers(0, 5, size=(40, 40)).astype(np.uint16)
        cont = np.where(inst > 0, ((inst - 1) % 3) + 1, 0).astype(np.uint16)
        rgb = np.zeros((40, 40, 3), dtype=np.uint8)
        cfg = ParserConfig(target_size=40, crop_probability=0.0)
        sample, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        expected = sample.valid_mask & (inst[2::4, 2::4] != 0)
        assert np.array_equal(targets.ids != 0, expected)

    def test_zero_area_instance_dropped_and_counted(self):
        rgb = np.zeros((32, 32, 3), dtype=np.uint8)
        inst = np.zeros((32, 32), dtype=np.uint16)
        inst[31, 31] = 2        # single pixel that vanishes after 4x downscale
        inst[:16, :16] = 1
        cont = np.where(inst > 0, 1, 0).astype(np.uint16)
        cfg = ParserConfig(target_size=8, crop_probability=0.0)
        _, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert targets.labels == [1]
        assert targets.dropped == 1

    def test_instance_invisible_at_mask_resolution_stays_a_target(self):
        # at parse resolution the pixel survives, so it is a target; the
        # stride-4 sample misses it, so its id owns no pixel
        rgb = np.zeros((8, 8, 3), dtype=np.uint8)
        inst = np.zeros((8, 8), dtype=np.uint16)
        inst[7, 7] = 2
        inst[:4, :4] = 1
        cont = np.where(inst > 0, inst, 0).astype(np.uint16)
        cfg = ParserConfig(target_size=8, crop_probability=0.0)
        _, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert targets.labels == [1, 2] and targets.dropped == 0
        assert np.array_equal(targets.ids, [[1, 0], [0, 0]])
        assert targets.empty == 1

    def test_target_size_off_the_mask_stride_rejected(self):
        rgb = np.zeros((8, 8, 3), dtype=np.uint8)
        inst = np.ones((8, 8), dtype=np.uint16)
        cfg = ParserConfig(target_size=10, crop_probability=0.0)
        with pytest.raises(pipeline.PipelineError, match="10"):
            parse(make_entry(rgb, inst, inst), cfg, rng_seed=0)

    def test_nearest_index_identity(self):
        for n in (1, 2, 3, 7, 64, 640):
            assert np.array_equal(pipeline.nearest_index(n, n), np.arange(n))

    @pytest.mark.parametrize("crop", [0.0, 1.0], ids=["crop_off", "crop_on"])
    def test_transient_memory_within_three_output_images(self, crop):
        rng = np.random.default_rng(6)
        rgb = rng.integers(0, 255, size=(480, 640, 3), dtype=np.uint8)
        inst = rng.integers(0, 9, size=(480, 640)).astype(np.uint16)
        cont = np.where(inst > 0, inst % 4 + 1, 0).astype(np.uint16)
        entry = make_entry(rgb, cont, inst)
        cfg = ParserConfig(target_size=640, crop_probability=crop)
        tracemalloc.start()
        try:
            sample, _ = parse(entry, cfg, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sample.image.data.nbytes


class TestBatch:
    def _sample(self, size, image_id=0, n_targets=1):
        rgb = np.zeros((size, size, 3), dtype=np.uint8)
        inst = np.zeros((size, size), dtype=np.uint16)
        for i in range(n_targets):
            inst[i, :] = i + 1
        cont = np.where(inst > 0, 1, 0).astype(np.uint16)
        cfg = ParserConfig(target_size=size, crop_probability=0.0)
        return parse(make_entry(rgb, cont, inst, image_id), cfg, rng_seed=0)

    def test_stacks_along_batch_axis(self):
        s1, t1 = self._sample(16, 0)
        s2, t2 = self._sample(16, 1)
        b = pipeline.batch([s1, s2], [t1, t2])
        assert b.images.shape == (2, 16, 16, 3)
        assert b.valid_masks.shape == (2, 4, 4)

    def test_singleton_batch_equals_input(self):
        s, t = self._sample(8)
        b = pipeline.batch([s], [t])
        assert np.array_equal(b.images.data, s.image.data)

    def test_ragged_targets_preserved(self):
        s1, t1 = self._sample(16, 0, n_targets=3)
        s2, t2 = self._sample(16, 1, n_targets=5)
        b = pipeline.batch([s1, s2], [t1, t2])
        assert [ts.count for ts in b.target_sets] == [3, 5]

    def test_mixed_sizes_rejected(self):
        s1, t1 = self._sample(16)
        s2, t2 = self._sample(32)
        with pytest.raises(pipeline.PipelineError):
            pipeline.batch([s1, s2], [t1, t2])


# ---------------------------------------------------------------------------
# Differential: parse against full-resolution targets, then downsampled
# ---------------------------------------------------------------------------

def reference_resize(grid, new_h, new_w):
    h, w = grid.shape[:2]
    rows = np.minimum(((np.arange(new_h) + 0.5) * (h / new_h)).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(new_w) + 0.5) * (w / new_w)).astype(np.int64), w - 1)
    return grid[rows][:, cols]


def reference_downsample(mask, factor):
    h, w = mask.shape
    return reference_resize(mask, h // factor, w // factor)


def reference_targets(contiguous_mask, instance_mask, valid_mask, source_count):
    """Targets built at full resolution, one per distinct instance in the valid region."""
    masks, labels = [], []
    region = valid_mask & (instance_mask != 0)
    for iid in np.unique(instance_mask[region]):
        m = (instance_mask == iid) & valid_mask
        label = int(contiguous_mask[m][0])
        if label == 0:
            continue
        masks.append(m.astype(np.uint8))
        labels.append(label)
    return masks, labels, source_count - len(masks)


def random_record(rng):
    """A record whose rgb carries (instance, class, 255) per pixel.

    Instances are rectangles from one pixel up to half the image, some of
    class 0; about one pixel in eight of an instance has another class, so
    the first-pixel label rule is exercised.
    """
    h, w = int(rng.integers(12, 90)), int(rng.integers(12, 90))
    inst = np.zeros((h, w), dtype=np.uint16)
    for iid in range(1, int(rng.integers(1, 9))):
        rh, rw = int(rng.integers(1, h // 2 + 1)), int(rng.integers(1, w // 2 + 1))
        top, left = int(rng.integers(0, h - rh + 1)), int(rng.integers(0, w - rw + 1))
        inst[top:top + rh, left:left + rw] = iid
    lut = rng.integers(0, 5, size=9).astype(np.uint16)
    cont = np.where(rng.random((h, w)) < 0.125, rng.integers(0, 5, (h, w)), lut[inst])
    cont = np.where(inst > 0, cont, 0).astype(np.uint16)
    rgb = np.stack([inst, cont, np.full_like(inst, 255)], axis=-1).astype(np.uint8)
    return make_entry(rgb, cont, inst), inst


def test_parse_matches_full_resolution_targets_downsampled():
    rng = np.random.default_rng(20)
    vanished = 0
    for crop in (0.0, 1.0):
        for seed in range(60):
            entry, inst = random_record(rng)
            cfg = ParserConfig(target_size=int(rng.choice([32, 48, 64])), crop_probability=crop,
                               crop_sizes=(16, 24, 40))
            sample, targets = parse(entry, cfg, rng_seed=seed)
            # the image went through the same resampling as the masks, so it
            # gives back the full-resolution grids; channel 2 marks content
            rgb = np.rint((sample.image.data[0] * np.asarray(cfg.std, np.float32)
                           + np.asarray(cfg.mean, np.float32)) * 255.0).astype(np.int64)
            valid = rgb[..., 2] == 255
            full_inst, full_cont = np.where(valid, rgb[..., 0], 0), np.where(valid, rgb[..., 1], 0)
            source = int(np.count_nonzero(np.bincount(inst.reshape(-1))[1:]))
            masks, labels, dropped = reference_targets(full_cont, full_inst, valid, source)

            small = [reference_downsample(m, 4) for m in masks]
            assert targets.labels == labels and targets.dropped == dropped
            for i, want in enumerate(small):
                assert np.array_equal(targets.ids == i + 1, want)
            assert np.array_equal(sample.valid_mask,
                                  reference_downsample(valid.astype(np.uint8), 4).astype(bool))
            vanished += sum(not m.any() for m in small)
    assert vanished > 0


@pytest.mark.parametrize("crop", [0.0, 1.0], ids=["crop_off", "crop_on"])
def test_target_ids_are_labelled_and_zero_off_the_valid_mask(crop):
    # match_segments counts a void pixel outside every gt segment
    rng = np.random.default_rng(21)
    padded = 0
    for seed in range(60):
        entry, _ = random_record(rng)
        cfg = ParserConfig(target_size=int(rng.choice([32, 48, 64])), crop_probability=crop,
                           crop_sizes=(16, 24, 40))
        sample, targets = parse(entry, cfg, rng_seed=seed)
        assert targets.ids.shape == sample.valid_mask.shape
        assert targets.ids.min() >= 0 and targets.ids.max() <= len(targets.labels)
        assert not targets.ids[~sample.valid_mask].any()
        padded += int(np.count_nonzero(~sample.valid_mask))
    assert padded > 0


def test_only_pipeline_resamples_to_mask_resolution():
    """The stride-4 downsample has one home: no other module resamples or derives the stride."""
    src = Path(pipeline.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        text = path.read_text()
        assert not re.search(r"\b(nearest_index|resize_nearest|downsample_mask)\b", text), path.name
        if path.name != "verify.py":
            assert "MASK_STRIDE" not in text, path.name
            assert not re.search(r"shape\[[^\]]*\]\s*//", text), path.name
