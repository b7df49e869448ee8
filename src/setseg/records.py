"""Bit-exact binary record format with size-balanced sharding.

This module alone frames bytes on disk, and it reads no key: a data shard
holds one record per sample (its keys are ``pipeline``'s), a model
checkpoint one record, each parameter an f32 list under its name and its
shape an i64 list under ``<name>/shape``.

Wire format
-----------
file    = magic "MFR1" + u32-LE version + record*
record  = u64-LE payload length + u32-LE CRC32(payload) + payload
payload = u32-LE key count, then per key (in sorted key order):
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"MFR1"
VERSION = 1

TAG_BYTES = 0
TAG_I64 = 1
TAG_F32 = 2
_WIRE_DTYPES = {TAG_BYTES: np.dtype("u1"), TAG_I64: np.dtype("<i8"), TAG_F32: np.dtype("<f4")}

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
    """An entry cannot be framed: a value of an unsupported type, or a key or payload too long."""


class RecordParseError(ValueError):
    """An MFR1 file or manifest is malformed; the message names the file (and byte offset)."""


def payload_parts(entry: dict):
    """Yield the payload of ``entry`` as bytes-like parts, in wire order.

    An array already in its wire dtype and C order is yielded as it is, not copied.
    """
    yield struct.pack("<I", len(entry))
    for key in sorted(entry):
        value = entry[key]
        kb = key.encode("utf-8")
        if len(kb) > 0xFFFF:
            raise RecordFormatError(f"key too long: {key!r}")
        if isinstance(value, (bytes, bytearray)):
            tag, count = TAG_BYTES, len(value)
        else:
            arr = np.asarray(value)
            if arr.dtype.kind not in "iuf":
                raise RecordFormatError(f"unsupported value type for key {key!r}: {arr.dtype}")
            tag = TAG_F32 if arr.dtype.kind == "f" else TAG_I64
            value = np.ascontiguousarray(arr, dtype=_WIRE_DTYPES[tag])
            count = value.size
        yield struct.pack(f"<H{len(kb)}sBI", len(kb), kb, tag, count)
        yield value


def deserialize_entry(payload: bytes, context: str = "<payload>") -> dict:
    """Decode a record payload; list values are read-only views over ``payload``."""
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
        key = str(payload[pos:pos + klen], "utf-8")
        pos += klen
        tag, n = struct.unpack_from("<BI", payload, pos)
        pos += 5
        if tag not in _WIRE_DTYPES:
            fail(pos - 5, f"unknown type tag {tag}")
        dtype = _WIRE_DTYPES[tag]
        end = pos + dtype.itemsize * n
        if end > len(payload):
            fail(pos, f"value for key {key!r} runs past payload end")
        raw = payload[pos:end]
        pos = end
        entry[key] = bytes(raw) if tag == TAG_BYTES else np.frombuffer(raw, dtype)
    return entry


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


def write_records(path, payloads) -> None:
    """Write an ``MFR1`` file: the header, then each payload framed as length + CRC32.

    A payload is an iterable of bytes-like parts (``payload_parts``); the CRC
    runs over the parts and they are written one by one, never joined. A failed
    write leaves any file at ``path`` as it was (``atomic_open``).
    """
    # a large buffer coalesces record headers and small parts into few write calls
    with atomic_open(path, buffering=1 << 20) as f:
        f.write(MAGIC + struct.pack("<I", VERSION))
        for parts in payloads:
            parts = list(parts)
            length = sum(memoryview(part).nbytes for part in parts)
            if length >= _MAX_RECORD_BYTES:
                raise RecordFormatError(f"record payload of {length} bytes exceeds 2^32")
            crc = 0
            for part in parts:
                crc = zlib.crc32(part, crc)
            f.write(struct.pack("<QI", length, crc))
            f.writelines(parts)


def write_shards(entries, shard_count: int, out_dir, class_mapping=None) -> ShardSet:
    """Serialize entries into ``shard_count`` balanced shard files plus a manifest.

    ``out_dir`` is created only once every entry has been serialized, so an
    entry that fails leaves no new directory behind.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    # small: cheaper joined than streamed
    payloads = [b"".join(payload_parts(entry)) for entry in entries]
    if not payloads:
        raise ValueError("write_shards requires at least one entry")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # assignment pass is serial so output is deterministic
    record_sizes = [len(p) + 12 for p in payloads]
    assignment = greedy_shard_assignment(record_sizes, shard_count)

    shards = []
    for shard in range(shard_count):
        path = out_dir / f"shard-{shard:05d}.mfr"
        write_records(path, ([p] for p, s in zip(payloads, assignment) if s == shard))
        shards.append(ShardInfo(path.name, assignment.count(shard), path.stat().st_size))
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
        if head not in ("record_count", "class_mapping", "shard"):
            raise RecordParseError(f"{path}: unknown manifest line {line!r}")
        try:
            if head == "record_count":
                record_count = int(rest)
            elif head == "class_mapping":
                for pair in rest.split():
                    orig, cont = pair.split(":")
                    mapping[int(orig)] = int(cont)
            else:
                name, *attrs = rest.split()
                kv = dict(a.split("=") for a in attrs)
                shards.append(ShardInfo(name, int(kv["records"]), int(kv["bytes"])))
        except (ValueError, KeyError):
            raise RecordParseError(f"{path}: malformed manifest line {line!r}") from None
    if not shards:  # write_shards always writes at least one
        raise RecordParseError(f"{path}: record_count {record_count}, but no shard lines")
    return ShardSet(directory=directory, shards=shards,
                    record_count=record_count, class_mapping=mapping)


def read_records(path):
    """Yield the entries of one ``MFR1`` file, validating magic and checksums."""
    path = Path(path)
    data = memoryview(path.read_bytes())
    if data[:4] != MAGIC:
        raise RecordParseError(f"{path.name}: byte 0: bad magic {bytes(data[:4])!r}")
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
    so a shard cut at a record boundary raises instead of reading short; after
    the last shard, the records read must add up to the manifest's
    ``record_count``, so a manifest that lost shard lines raises too.
    """
    read = 0
    for info, path in zip(shard_set.shards, shard_set.shard_paths):
        # own every array, so that kept entries do not pin the shard's bytes
        entries = [{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in e.items()}
                   for e in read_records(path)]
        found = (path.stat().st_size, len(entries))
        if found != (info.byte_size, info.record_count):
            raise RecordParseError(f"{info.name}: {found[0]} bytes and {found[1]} records, "
                                   f"manifest says {info.byte_size} and {info.record_count}")
        read += len(entries)
        yield from entries
    if read != shard_set.record_count:
        raise RecordParseError(f"{shard_set.directory / MANIFEST_NAME}: record_count "
                               f"{shard_set.record_count}, but its shards hold {read} records")
