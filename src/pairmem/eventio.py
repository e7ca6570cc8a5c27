"""Event-stream serialization: the binary wire format.

Binary layout (little-endian): magic ``PMEV``, version u16, seed u64,
duration u64 (ps), model digest (32 raw sha256 bytes), record count u64,
then per record a channel byte (0 = signal, 1 = idler) and a u64
timestamp in picoseconds, records sorted by timestamp.  Readers reject
other channel codes and timestamps that go backwards.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import EventFormatError
from .montecarlo import CH_IDLER, CH_SIGNAL, EventStream

MAGIC = b"PMEV"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ32sQ")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])
_UNKNOWN_CHANNEL = np.ones(256, dtype=bool)   # indexed by channel byte
_UNKNOWN_CHANNEL[[CH_SIGNAL, CH_IDLER]] = False


def write_events(stream: EventStream, path) -> None:
    digest_hex = stream.metadata.get("model_digest", "00" * 32)
    rec = np.empty(len(stream), dtype=_RECORD_DTYPE)
    rec["channel"] = stream.channels
    rec["timestamp_ps"] = stream.timestamps_ps
    header = _HEADER.pack(MAGIC, VERSION, int(stream.metadata.get("seed", 0)),
                          int(stream.metadata["duration_ps"]),
                          bytes.fromhex(digest_hex), len(stream))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(header)
        f.write(rec.tobytes())
    os.replace(tmp, path)


def read_events(path) -> EventStream:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise EventFormatError("file too short for an event header")
    magic, version, seed, duration_ps, digest, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise EventFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise EventFormatError(f"unsupported event-format version {version}")
    body = raw[_HEADER.size:]
    if len(body) != count * _RECORD_DTYPE.itemsize:
        raise EventFormatError(
            f"truncated event file: expected {count} records, "
            f"got {len(body) / _RECORD_DTYPE.itemsize:.1f}")
    rec = np.frombuffer(body, dtype=_RECORD_DTYPE)
    channels, ts = rec["channel"].copy(), rec["timestamp_ps"].copy()
    bad = np.flatnonzero(_UNKNOWN_CHANNEL[channels])
    if len(bad):
        raise EventFormatError(
            f"record {bad[0]}: unknown channel byte {channels[bad[0]]}")
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if len(back):
        i = back[0] + 1
        raise EventFormatError(
            f"record {i}: timestamp {ts[i]} ps precedes {ts[i - 1]} ps")
    meta = {"seed": seed, "duration_ps": duration_ps,
            "model_digest": digest.hex()}
    return EventStream(channels=channels, timestamps_ps=ts, metadata=meta)
