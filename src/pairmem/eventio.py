"""Event-stream serialization: binary wire format and CSV interchange.

Binary layout (little-endian): magic ``PMEV``, version u16, seed u64,
duration u64 (ps), model digest (32 raw sha256 bytes), record count u64,
then per record a channel byte (0 = signal, 1 = idler) and a u64
timestamp in picoseconds, records sorted by timestamp.  Readers reject
other channel codes and timestamps that go backwards.
"""

from __future__ import annotations

import io
import os
import struct

import numpy as np

from .errors import EventFormatError
from .montecarlo import EventStream

MAGIC = b"PMEV"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ32sQ")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])


def _scalar_seed(meta: dict) -> int:
    seed = meta.get("seed", 0)
    return int(seed) if isinstance(seed, int) else 0


def write_events(stream: EventStream, path) -> None:
    digest_hex = stream.metadata.get("model_digest", "00" * 32)
    rec = np.empty(len(stream), dtype=_RECORD_DTYPE)
    rec["channel"] = stream.channels
    rec["timestamp_ps"] = stream.timestamps_ps
    header = _HEADER.pack(MAGIC, VERSION, _scalar_seed(stream.metadata),
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
    meta = {"seed": seed, "duration_ps": duration_ps,
            "model_digest": digest.hex()}
    return _checked_stream(rec["channel"].copy(), rec["timestamp_ps"].copy(),
                           meta)


def _checked_stream(channels: np.ndarray, ts: np.ndarray,
                    meta: dict) -> EventStream:
    """EventStream of decoded records; rejects channel codes other than
    0/1 and timestamps that go backwards."""
    bad = np.flatnonzero(channels > 1)
    if len(bad):
        raise EventFormatError(
            f"record {bad[0]}: unknown channel byte {channels[bad[0]]}")
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if len(back):
        i = back[0] + 1
        raise EventFormatError(
            f"record {i}: timestamp {ts[i]} ps precedes {ts[i - 1]} ps")
    return EventStream(channels=channels, timestamps_ps=ts, metadata=meta)


_CH_NAME = {0: "signal", 1: "idler"}
_CH_CODE = {"signal": 0, "idler": 1}


def write_events_csv(stream: EventStream, path) -> None:
    buf = io.StringIO()
    buf.write("channel,timestamp_ps\n")
    for ch, ts in zip(stream.channels, stream.timestamps_ps):
        buf.write(f"{_CH_NAME[int(ch)]},{int(ts)}\n")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(buf.getvalue())
    os.replace(tmp, path)


def read_events_csv(path, duration_ps: int | None = None) -> EventStream:
    channels, times = [], []
    with open(path) as f:
        header = f.readline().strip()
        if header != "channel,timestamp_ps":
            raise EventFormatError(f"unexpected CSV header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            name, ts = line.split(",")
            if name not in _CH_CODE:
                raise EventFormatError(f"unknown channel {name!r}")
            channels.append(_CH_CODE[name])
            times.append(int(ts))
    ts = np.array(times, dtype=np.uint64)
    meta = {"duration_ps": duration_ps if duration_ps is not None
            else (int(ts.max()) if len(ts) else 0)}
    return _checked_stream(np.array(channels, dtype=np.uint8), ts, meta)
