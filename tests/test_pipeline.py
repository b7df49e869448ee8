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


class TestIdMapper:
    def test_order_preserving_densification(self):
        m = build_id_mapper({1, 3, 7})
        assert m.original_to_contiguous == {1: 1, 3: 2, 7: 3}

    def test_singleton(self):
        m = build_id_mapper({5})
        assert m.original_to_contiguous == {5: 1}
        assert m.to_original(1) == 5

    def test_gap_set_bijection(self):
        missing = {12, 26, 29, 30, 45, 66, 68, 69, 71, 83}
        ids = [i for i in range(1, 91) if i not in missing]
        m = build_id_mapper(ids)
        assert m.num_classes == 80
        assert sorted(m.original_to_contiguous.values()) == list(range(1, 81))
        for orig in ids:
            assert m.to_original(m.to_contiguous(orig)) == orig

    def test_empty_rejected(self):
        with pytest.raises(pipeline.PipelineError):
            build_id_mapper(set())

    def test_duplicates_rejected(self):
        with pytest.raises(pipeline.PipelineError):
            build_id_mapper([4, 4, 5])

    def test_unknown_id_named_in_error(self):
        m = build_id_mapper({1, 2})
        with pytest.raises(pipeline.PipelineError) as err:
            m.to_contiguous(9)
        assert "9" in str(err.value)


class TestParseGeometry:
    def test_tall_image_pads_bottom(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 255, size=(320, 640, 3), dtype=np.uint8)
        cont = np.ones((320, 640), dtype=np.uint16)
        inst = np.ones((320, 640), dtype=np.uint16)
        cfg = ParserConfig(target_size=640, crop_probability=0.0)
        sample, _ = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert sample.image.shape == (1, 640, 640, 3)
        assert sample.valid_mask[:320, :].all()
        assert not sample.valid_mask[320:, :].any()

    def test_already_target_size_is_identity_up_to_normalization(self):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 255, size=(64, 64, 3), dtype=np.uint8)
        cont = rng.integers(0, 3, size=(64, 64)).astype(np.uint16)
        inst = cont.copy()
        cfg = ParserConfig(target_size=64, crop_probability=0.0)
        sample, _ = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert sample.valid_mask.all()
        mean = np.asarray(cfg.mean, dtype=np.float32)
        std = np.asarray(cfg.std, dtype=np.float32)
        expected = (rgb.astype(np.float32) / 255.0 - mean) / std
        assert np.array_equal(sample.image.data[0], expected)
        assert np.array_equal(sample.contiguous_mask, cont)

    def test_two_by_two_targets(self):
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        cont = np.array([[1, 1], [0, 2]], dtype=np.uint16)
        inst = np.array([[1, 1], [0, 2]], dtype=np.uint16)
        cfg = ParserConfig(target_size=2, crop_probability=0.0)
        _, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert targets.count == 2
        assert targets.labels == [1, 2]
        assert np.array_equal(targets.masks[0], [[1, 1], [0, 0]])
        assert np.array_equal(targets.masks[1], [[0, 0], [0, 1]])

    def test_unknown_class_id_errors(self):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        cont = np.full((4, 4), 9, dtype=np.uint16)
        inst = np.ones((4, 4), dtype=np.uint16)
        cfg = ParserConfig(target_size=4, crop_probability=0.0, num_classes=4)
        with pytest.raises(pipeline.PipelineError) as err:
            parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert "9" in str(err.value)

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
        assert all(np.array_equal(a, b) for a, b in zip(t1.masks, t2.masks))

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
            assert sample.valid_mask.sum() == exp_h * exp_w


class TestTargetInvariants:
    def test_union_of_masks_equals_instance_pixels(self):
        rng = np.random.default_rng(5)
        inst = rng.integers(0, 5, size=(40, 40)).astype(np.uint16)
        cont = np.where(inst > 0, ((inst - 1) % 3) + 1, 0).astype(np.uint16)
        rgb = np.zeros((40, 40, 3), dtype=np.uint8)
        cfg = ParserConfig(target_size=40, crop_probability=0.0)
        sample, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        union = np.zeros((40, 40), dtype=bool)
        for m in targets.masks:
            assert not (union & m.astype(bool)).any()   # pixel-disjoint
            union |= m.astype(bool)
        expected = sample.valid_mask & (sample.instance_mask != 0)
        assert np.array_equal(union, expected)

    def test_zero_area_instance_dropped_and_counted(self):
        rgb = np.zeros((8, 8, 3), dtype=np.uint8)
        inst = np.zeros((8, 8), dtype=np.uint16)
        inst[7, 7] = 2          # single pixel that vanishes after 4x downscale
        inst[:4, :4] = 1
        cont = np.where(inst > 0, 1, 0).astype(np.uint16)
        cfg = ParserConfig(target_size=2, crop_probability=0.0)
        _, targets = parse(make_entry(rgb, cont, inst), cfg, rng_seed=0)
        assert targets.labels == [1]
        assert targets.dropped == 1

    def test_resize_nearest_identity(self):
        g = np.arange(12).reshape(3, 4)
        assert np.array_equal(pipeline.resize_nearest(g, 3, 4), g)


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
        assert b.valid_masks.shape == (2, 16, 16)

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
