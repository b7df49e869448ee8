"""Bit-exact binary record format with size-balanced sharding.

Wire format
-----------
file    = magic "MFR1" + u32-LE version + record*
record  = u64-LE payload length + u32-LE CRC32(payload) + payload
payload = u32-LE key count, then per key:
          u16-LE key length, key bytes (UTF-8),
          u8 type tag (0 = bytes, 1 = i64 list, 2 = f32 list),
          u32-LE count (byte count for bytes, element count for lists),
          little-endian values.

Records are assigned to shards greedily, largest record to the currently
smallest shard (ties to the lowest shard index), so shard byte sizes stay
approximately equal; uneven shards starve parallel readers.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"MFR1"
VERSION = 1

TAG_BYTES = 0
TAG_I64 = 1
TAG_F32 = 2

REQUIRED_KEYS = (
    "image/height",
    "image/width",
    "image/encoded",
    "segmentation/contiguous_mask",
    "segmentation/instance_mask",
    "image/id",
)

_MAX_RECORD_BYTES = 2**32

MANIFEST_NAME = "manifest.txt"


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Write through a sibling temp file that replaces ``path`` only if the block completes.

    A failed write removes the temp file and leaves any file at ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class RecordFormatError(ValueError):
    """A record entry violates the format contract (keys, types, sizes)."""


class RecordParseError(ValueError):
    """Shard bytes are malformed; message names the shard and byte offset."""


def validate_entry(entry: dict) -> None:
    """Check the required-key contract for a panoptic sample entry."""
    for key in REQUIRED_KEYS:
        if key not in entry:
            raise RecordFormatError(f"entry missing required key {key!r}")
    h = int(entry["image/height"][0])
    w = int(entry["image/width"][0])
    if len(entry["image/encoded"]) != 3 * h * w:
        raise RecordFormatError(
            f"image/encoded has {len(entry['image/encoded'])} bytes, expected {3 * h * w}"
        )
    for key in ("segmentation/contiguous_mask", "segmentation/instance_mask"):
        if len(entry[key]) != 2 * h * w:
            raise RecordFormatError(f"{key} has {len(entry[key])} bytes, expected {2 * h * w}")


def serialize_entry(entry: dict) -> bytes:
    """Encode a key-value entry into a record payload."""
    parts = [struct.pack("<I", len(entry))]
    for key in sorted(entry):
        value = entry[key]
        kb = key.encode("utf-8")
        if len(kb) > 0xFFFF:
            raise RecordFormatError(f"key too long: {key!r}")
        parts.append(struct.pack("<H", len(kb)) + kb)
        if isinstance(value, (bytes, bytearray)):
            parts.append(struct.pack("<BI", TAG_BYTES, len(value)))
            parts.append(bytes(value))
        else:
            arr = np.asarray(value)
            if arr.dtype.kind in "iu":
                arr = arr.astype("<i8")
                parts.append(struct.pack("<BI", TAG_I64, arr.size))
                parts.append(arr.tobytes())
            elif arr.dtype.kind == "f":
                arr = arr.astype("<f4")
                parts.append(struct.pack("<BI", TAG_F32, arr.size))
                parts.append(arr.tobytes())
            else:
                raise RecordFormatError(f"unsupported value type for key {key!r}: {arr.dtype}")
    payload = b"".join(parts)
    if len(payload) >= _MAX_RECORD_BYTES:
        raise RecordFormatError(f"record payload of {len(payload)} bytes exceeds 2^32")
    return payload


def deserialize_entry(payload: bytes, context: str = "<payload>") -> dict:
    def fail(offset, reason):
        raise RecordParseError(f"{context}: byte {offset}: {reason}")

    pos = 0
    if len(payload) < 4:
        fail(pos, "truncated key count")
    (count,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    entry = {}
    for _ in range(count):
        if pos + 2 > len(payload):
            fail(pos, "truncated key length")
        (klen,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        if pos + klen + 5 > len(payload):
            fail(pos, "truncated key or value header")
        key = payload[pos:pos + klen].decode("utf-8")
        pos += klen
        tag, n = struct.unpack_from("<BI", payload, pos)
        pos += 5
        if tag == TAG_BYTES:
            end = pos + n
        elif tag == TAG_I64:
            end = pos + 8 * n
        elif tag == TAG_F32:
            end = pos + 4 * n
        else:
            fail(pos - 5, f"unknown type tag {tag}")
        if end > len(payload):
            fail(pos, f"value for key {key!r} runs past payload end")
        raw = payload[pos:end]
        pos = end
        if tag == TAG_BYTES:
            entry[key] = raw
        elif tag == TAG_I64:
            entry[key] = np.frombuffer(raw, dtype="<i8").copy()
        else:
            entry[key] = np.frombuffer(raw, dtype="<f4").copy()
    return entry


def _record_bytes(payload: bytes) -> bytes:
    return struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload


@dataclass
class ShardInfo:
    name: str
    record_count: int
    byte_size: int


@dataclass
class ShardSet:
    directory: Path
    shards: list[ShardInfo]
    record_count: int
    class_mapping: dict[int, int] = field(default_factory=dict)

    @property
    def shard_paths(self) -> list[Path]:
        return [self.directory / s.name for s in self.shards]

    def byte_balance(self) -> float:
        sizes = [s.byte_size for s in self.shards if s.record_count > 0]
        if not sizes:
            return 1.0
        return max(sizes) / min(sizes)


def greedy_shard_assignment(sizes, shard_count: int):
    """Largest record to the smallest shard; ties go to the lowest shard index.

    Returns per-record shard indices. Deterministic for a fixed input order.
    """
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    loads = [0] * shard_count
    assignment = [0] * len(sizes)
    for i in order:
        target = min(range(shard_count), key=lambda s: (loads[s], s))
        assignment[i] = target
        loads[target] += sizes[i]
    return assignment


def write_shards(entries, shard_count: int, out_dir, class_mapping=None) -> ShardSet:
    """Serialize entries into ``shard_count`` balanced shard files plus a manifest."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    payloads = []
    for entry in entries:
        validate_entry(entry)
        payloads.append(serialize_entry(entry))
    if not payloads:
        raise ValueError("write_shards requires at least one entry")

    # assignment pass is serial so output is deterministic
    record_sizes = [len(p) + 12 for p in payloads]
    assignment = greedy_shard_assignment(record_sizes, shard_count)

    shard_names = [f"shard-{i:05d}.mfr" for i in range(shard_count)]
    paths = [out_dir / n for n in shard_names]
    counts = [0] * shard_count
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_open(p)) for p in paths]
        header = MAGIC + struct.pack("<I", VERSION)
        for f in handles:
            f.write(header)
        for payload, shard in zip(payloads, assignment):
            handles[shard].write(_record_bytes(payload))
            counts[shard] += 1

    shards = [
        ShardInfo(name=n, record_count=c, byte_size=p.stat().st_size)
        for n, c, p in zip(shard_names, counts, paths)
    ]
    shard_set = ShardSet(
        directory=out_dir,
        shards=shards,
        record_count=len(payloads),
        class_mapping=dict(class_mapping or {}),
    )
    write_manifest(shard_set)
    return shard_set


def write_manifest(shard_set: ShardSet) -> None:
    lines = [f"record_count {shard_set.record_count}"]
    if shard_set.class_mapping:
        pairs = " ".join(
            f"{orig}:{cont}" for orig, cont in sorted(shard_set.class_mapping.items())
        )
        lines.append(f"class_mapping {pairs}")
    for s in shard_set.shards:
        lines.append(f"shard {s.name} records={s.record_count} bytes={s.byte_size}")
    with atomic_open(shard_set.directory / MANIFEST_NAME, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_manifest(directory) -> ShardSet:
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise RecordParseError(f"manifest not found: {path}")
    record_count = 0
    mapping: dict[int, int] = {}
    shards: list[ShardInfo] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "record_count":
            record_count = int(rest)
        elif head == "class_mapping":
            for pair in rest.split():
                orig, cont = pair.split(":")
                mapping[int(orig)] = int(cont)
        elif head == "shard":
            name, *attrs = rest.split()
            kv = dict(a.split("=") for a in attrs)
            shards.append(ShardInfo(name, int(kv["records"]), int(kv["bytes"])))
        else:
            raise RecordParseError(f"{path}: unknown manifest line {line!r}")
    return ShardSet(directory=directory, shards=shards,
                    record_count=record_count, class_mapping=mapping)


def read_shard_file(path):
    """Yield entries from one shard file, validating magic and checksums."""
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != MAGIC:
        raise RecordParseError(f"{path.name}: byte 0: bad magic {data[:4]!r}")
    if len(data) < 8:
        raise RecordParseError(f"{path.name}: byte 4: truncated header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise RecordParseError(f"{path.name}: byte 4: unsupported version {version}")
    pos = 8
    while pos < len(data):
        if pos + 12 > len(data):
            raise RecordParseError(f"{path.name}: byte {pos}: truncated record header")
        length, crc = struct.unpack_from("<QI", data, pos)
        start = pos + 12
        end = start + length
        if end > len(data):
            raise RecordParseError(f"{path.name}: byte {pos}: truncated record body")
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            raise RecordParseError(f"{path.name}: byte {pos}: checksum mismatch")
        yield deserialize_entry(payload, context=f"{path.name}@{start}")
        pos = end


def read_shards(shard_set: ShardSet):
    """Yield all entries in (shard index, record index) order.

    Each shard must match its manifest line in byte size and record count,
    so a shard cut at a record boundary raises instead of reading short.
    """
    for info, path in zip(shard_set.shards, shard_set.shard_paths):
        entries = list(read_shard_file(path))
        found = (path.stat().st_size, len(entries))
        if found != (info.byte_size, info.record_count):
            raise RecordParseError(f"{info.name}: {found[0]} bytes and {found[1]} records, "
                                   f"manifest says {info.byte_size} and {info.record_count}")
        yield from entries
