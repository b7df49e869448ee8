import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setseg import records
from setseg.pipeline import encode_entry


def make_entry(rng, h=4, w=4, image_id=1, extra=None):
    rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    inst = rng.integers(0, 4, size=(h, w))
    return encode_entry(rgb, inst, np.arange(4), image_id) | (extra or {})


def entries_equal(a, b):
    if set(a) != set(b):
        return False
    for k in a:
        va, vb = a[k], b[k]
        if isinstance(va, bytes) != isinstance(vb, bytes):
            return False
        if isinstance(va, bytes):
            if va != vb:
                return False
        else:
            if not np.array_equal(np.asarray(va), np.asarray(vb)):
                return False
    return True


class TestRoundTrip:
    def test_single_record_single_shard(self, tmp_path):
        rng = np.random.default_rng(0)
        entry = make_entry(rng)
        ss = records.write_shards([entry], 1, tmp_path)
        assert ss.record_count == 1
        assert ss.shards[0].record_count == 1
        out = list(records.read_shards(ss))
        assert len(out) == 1
        assert entries_equal(out[0], entry)

    def test_ten_random_entries_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = [
            make_entry(
                rng,
                h=int(rng.integers(2, 6)),
                w=int(rng.integers(2, 6)),
                image_id=i,
                extra={"aux/floats": rng.standard_normal(3).astype(np.float32)},
            )
            for i in range(10)
        ]
        ss = records.write_shards(entries, 3, tmp_path)
        out = list(records.read_shards(ss))
        assert len(out) == 10
        read_by_id = {int(e["image/id"][0]): e for e in out}
        for e in entries:
            assert entries_equal(read_by_id[int(e["image/id"][0])], e)

    def test_truncation_detected_with_offset(self, tmp_path):
        rng = np.random.default_rng(2)
        ss = records.write_shards([make_entry(rng)], 1, tmp_path)
        path = ss.shard_paths[0]
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(records.RecordParseError) as err:
            list(records.read_shards(ss))
        assert "byte 8" in str(err.value)

    def test_checksum_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(3)
        ss = records.write_shards([make_entry(rng)], 1, tmp_path)
        path = ss.shard_paths[0]
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(records.RecordParseError) as err:
            list(records.read_shards(ss))
        assert "checksum" in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.mfr"
        path.write_bytes(b"XXXX" + b"\x01\x00\x00\x00")
        with pytest.raises(records.RecordParseError) as err:
            list(records.read_records(path))
        assert "magic" in str(err.value)

    def test_header_only_shard_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.mfr"
        path.write_bytes(records.MAGIC + (1).to_bytes(4, "little"))
        assert list(records.read_records(path)) == []

    def test_any_keys_are_framed(self, tmp_path):
        # records reads no key: an entry without a sample's keys round-trips too
        entry = {"a": b"\x00\x01", "b/c": np.arange(3)}
        out = list(records.read_shards(records.write_shards([entry], 1, tmp_path)))
        assert len(out) == 1 and entries_equal(out[0], entry)

    def test_rejected_entry_creates_no_directory(self, tmp_path):
        rng = np.random.default_rng(6)
        bad = make_entry(rng, extra={"aux/text": np.array(["not a number"])})
        with pytest.raises(records.RecordFormatError, match="aux/text"):
            records.write_shards([make_entry(rng), bad], 2, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestBalance:
    def test_equal_records_split_evenly(self, tmp_path):
        rng = np.random.default_rng(6)
        entries = [make_entry(rng, h=4, w=4, image_id=i) for i in range(100)]
        ss = records.write_shards(entries, 4, tmp_path)
        assert [s.record_count for s in ss.shards] == [25, 25, 25, 25]
        assert ss.byte_balance() == 1.0

    def test_skewed_sizes_match_reference_greedy(self, tmp_path):
        # reference simulation of greedy packing, written independently
        sizes = list(range(1, 101))
        loads = [0, 0, 0, 0]
        for s in sorted(sizes, reverse=True):
            j = loads.index(min(loads))
            loads[j] += s
        expected_ratio = max(loads) / min(loads)
        assert expected_ratio <= 1.10

        assignment = records.greedy_shard_assignment(sizes, 4)
        got = [0, 0, 0, 0]
        for size, shard in zip(sizes, assignment):
            got[shard] += size
        assert sorted(got) == sorted(loads)

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=100, max_value=500), min_size=100, max_size=300),
        shard_count=st.integers(min_value=1, max_value=6),
    )
    def test_balance_property_on_random_sizes(self, sizes, shard_count):
        # the 1.10 guarantee is for realistic record-size spreads (bounded
        # skew); a single record dominating the total defeats any packing
        assignment = records.greedy_shard_assignment(sizes, shard_count)
        loads = [0] * shard_count
        for size, shard in zip(sizes, assignment):
            loads[shard] += size
        loads = [l for l in loads if l > 0]
        assert max(loads) / min(loads) <= 1.10 + 1e-9

    def test_every_record_in_exactly_one_shard(self, tmp_path):
        rng = np.random.default_rng(7)
        entries = [make_entry(rng, h=int(rng.integers(2, 8)), w=4, image_id=i) for i in range(40)]
        ss = records.write_shards(entries, 5, tmp_path)
        ids = sorted(int(e["image/id"][0]) for e in records.read_shards(ss))
        assert ids == list(range(40))


class TestDeterminism:
    def test_same_input_bit_identical_files(self, tmp_path):
        rng = np.random.default_rng(8)
        entries = [make_entry(rng, h=int(rng.integers(2, 8)), w=5, image_id=i) for i in range(20)]
        ss1 = records.write_shards(entries, 3, tmp_path / "a")
        ss2 = records.write_shards(entries, 3, tmp_path / "b")
        for p1, p2 in zip(ss1.shard_paths, ss2.shard_paths):
            assert p1.read_bytes() == p2.read_bytes()


class TestPayloadCodec:
    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=20),
            st.one_of(
                st.binary(max_size=64),
                st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=8).map(
                    lambda v: np.array(v, dtype=np.int64)
                ),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=8
                ).map(lambda v: np.array(v, dtype=np.float32)),
            ),
            max_size=6,
        )
    )
    def test_payload_round_trip(self, entry):
        payload = b"".join(records.payload_parts(entry))
        out = records.deserialize_entry(payload)
        assert entries_equal(out, entry)


class TestManifest:
    def test_manifest_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        entries = [make_entry(rng, image_id=i) for i in range(7)]
        ss = records.write_shards(entries, 2, tmp_path, class_mapping={7: 1, 21: 2})
        loaded = records.load_manifest(tmp_path)
        assert loaded.record_count == 7
        assert loaded.class_mapping == {7: 1, 21: 2}
        assert [s.name for s in loaded.shards] == [s.name for s in ss.shards]
        assert [s.byte_size for s in loaded.shards] == [s.byte_size for s in ss.shards]
        assert len(list(records.read_shards(loaded))) == 7

    def test_shard_cut_at_record_boundary_named(self, tmp_path):
        rng = np.random.default_rng(10)
        entries = [make_entry(rng, image_id=i) for i in range(6)]
        records.write_shards(entries, 2, tmp_path)
        path = tmp_path / "shard-00000.mfr"
        data = path.read_bytes()
        (length,) = struct.unpack_from("<Q", data, 8)
        path.write_bytes(data[:8 + 12 + length])   # header + first record only
        with pytest.raises(records.RecordParseError) as err:
            list(records.read_shards(records.load_manifest(tmp_path)))
        assert "shard-00000.mfr" in str(err.value)

    @pytest.mark.parametrize("line", [
        "record_count abc", "shard s.mfr records=1", "class_mapping 7-1",
    ])
    def test_malformed_line_named(self, tmp_path, line):
        manifest = tmp_path / records.MANIFEST_NAME
        manifest.write_text(f"{line}\n")
        with pytest.raises(records.RecordParseError) as err:
            records.load_manifest(tmp_path)
        assert str(manifest) in str(err.value) and line in str(err.value)

    def test_record_count_mismatch_named(self, tmp_path):
        rng = np.random.default_rng(11)
        entries = [make_entry(rng, image_id=i) for i in range(6)]
        records.write_shards(entries, 2, tmp_path)
        manifest = tmp_path / records.MANIFEST_NAME
        text = manifest.read_text()
        assert "shard-00001.mfr records=3" in text
        manifest.write_text(text.replace("shard-00001.mfr records=3", "shard-00001.mfr records=4"))
        with pytest.raises(records.RecordParseError) as err:
            list(records.read_shards(records.load_manifest(tmp_path)))
        assert "shard-00001.mfr" in str(err.value)

    def test_manifest_that_lost_shard_lines_named(self, tmp_path):
        rng = np.random.default_rng(12)
        records.write_shards([make_entry(rng, image_id=i) for i in range(20)], 4, tmp_path)
        manifest = tmp_path / records.MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        assert lines[0] == "record_count 20" and len(lines) == 5
        manifest.write_text("\n".join(lines[:3]) + "\n")     # cut after the second shard line
        with pytest.raises(records.RecordParseError) as err:
            list(records.read_shards(records.load_manifest(tmp_path)))
        assert str(manifest) in str(err.value) and "record_count 20" in str(err.value)

    @pytest.mark.parametrize("text", ["", "record_count 0\n"], ids=["empty", "no_shard_lines"])
    def test_manifest_without_shard_lines_named(self, tmp_path, text):
        manifest = tmp_path / records.MANIFEST_NAME
        manifest.write_text(text)
        with pytest.raises(records.RecordParseError) as err:
            records.load_manifest(tmp_path)
        assert str(manifest) in str(err.value) and "no shard lines" in str(err.value)
