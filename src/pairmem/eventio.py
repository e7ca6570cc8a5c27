"""Event-stream serialization: the binary wire format.

Binary layout (little-endian): magic ``PMEV``, version u16, seed u64,
duration u64 (ps), model digest (32 raw sha256 bytes), record count u64,
then per record a channel byte (0 = signal, 1 = idler) and a u64
timestamp in picoseconds, records sorted by timestamp, signal first among
equal ones.  Readers reject other channel codes and timestamps that go
backwards.  Only this module knows the merged order: write_events merges
a stream's two channel arrays, and read_events splits them again.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import EventFormatError
from .montecarlo import EventStream

MAGIC = b"PMEV"
VERSION = 1
CH_SIGNAL = 0
CH_IDLER = 1
_HEADER = struct.Struct("<4sHQQ32sQ")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])
_UNKNOWN_CHANNEL = np.ones(256, dtype=bool)   # indexed by channel byte
_UNKNOWN_CHANNEL[[CH_SIGNAL, CH_IDLER]] = False


def _merge_channels(sig_ps: np.ndarray, idl_ps: np.ndarray):
    """(channels, timestamps) of two sorted channels merged, ordered as
    ``np.lexsort((ch, ts))`` orders them: by timestamp, signal first.  A
    signal event lands after the signal events before it and the idler
    events strictly earlier."""
    at = np.arange(len(sig_ps)) + np.searchsorted(idl_ps, sig_ps, side="left")
    ch = np.full(len(sig_ps) + len(idl_ps), CH_IDLER, np.uint8)
    ch[at] = CH_SIGNAL
    ts = np.empty(len(ch), np.uint64)
    ts[at] = sig_ps
    ts[ch == CH_IDLER] = idl_ps
    return ch, ts


def write_events(stream: EventStream, path) -> None:
    ch, ts = _merge_channels(stream.signal_ps, stream.idler_ps)
    rec = np.empty(len(ch), dtype=_RECORD_DTYPE)
    rec["channel"] = ch
    rec["timestamp_ps"] = ts
    header = _HEADER.pack(MAGIC, VERSION, stream.seed, stream.duration_ps,
                          bytes.fromhex(stream.model_digest), len(rec))
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
    n_bytes = len(raw) - _HEADER.size
    if n_bytes != count * _RECORD_DTYPE.itemsize:
        raise EventFormatError(
            f"truncated event file: expected {count} records, "
            f"got {n_bytes / _RECORD_DTYPE.itemsize:.1f}")
    rec = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    channels, ts = rec["channel"], rec["timestamp_ps"]
    bad = np.flatnonzero(_UNKNOWN_CHANNEL[channels])
    if len(bad):
        raise EventFormatError(
            f"record {bad[0]}: unknown channel byte {channels[bad[0]]}")
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if len(back):
        i = back[0] + 1
        raise EventFormatError(
            f"record {i}: timestamp {ts[i]} ps precedes {ts[i - 1]} ps")
    sig = channels == CH_SIGNAL
    return EventStream(signal_ps=ts[sig], idler_ps=ts[~sig],
                       duration_ps=duration_ps, seed=seed,
                       model_digest=digest.hex())
