"""Event-stream serialization: the binary wire format.

Binary layout (little-endian): magic ``PMEV``, version u16, seed u64,
duration u64 (ps), model digest (32 raw sha256 bytes), record count u64,
then per record a channel byte (0 = signal, 1 = idler) and a u64
timestamp in picoseconds, records sorted by timestamp, signal first among
equal ones.  Readers reject other channel codes, timestamps that go
backwards or past the duration, and durations from 2**63 ps.  Only this
module knows the merged order: chunks walks a stream's two channel
arrays ``_CHUNK`` records at a time, from one array of signal positions,
write_events merges each of those blocks, and read_chunks splits them
again, ``_CHUNK`` records at a time through one reused buffer.  Each
chunk is checked before it is passed on, against the last timestamp of
the chunk before it too, so a fault names its record as a whole-file
read would; read_events joins the chunks.
"""

from __future__ import annotations

import os
import struct
from dataclasses import replace

import numpy as np

from .errors import EventFormatError
from .montecarlo import EventStream

MAGIC = b"PMEV"
VERSION = 1
CH_SIGNAL = 0
CH_IDLER = 1
_HEADER = struct.Struct("<4sHQQ32sQ")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])
_CHUNK = 1 << 15   # records per write or read: ~0.6 MiB of record and channel arrays


def _signal_records(sig_ps: np.ndarray, idl_ps: np.ndarray) -> np.ndarray:
    """Record index of each signal event when two sorted channels are
    merged by timestamp, signal first: it lands after the signal events
    before it and the idler events strictly earlier."""
    at = np.searchsorted(idl_ps, sig_ps, side="left")
    at += np.arange(len(at))
    return at


def _merge_channels(sig_ps: np.ndarray, idl_ps: np.ndarray):
    """(channels, timestamps) of two sorted channels merged, ordered as
    ``np.lexsort((ch, ts))`` orders them."""
    at = _signal_records(sig_ps, idl_ps)
    ch = np.full(len(sig_ps) + len(idl_ps), CH_IDLER, np.uint8)
    ch[at] = CH_SIGNAL
    ts = np.empty(len(ch), np.uint64)
    ts[at] = sig_ps
    ts[ch == CH_IDLER] = idl_ps
    return ch, ts


def chunks(stream: EventStream):
    """The blocks, views of its arrays, that ``read_chunks`` yields for the
    file of ``stream``; each is a run of the merged order, so merging its
    two channels gives its records."""
    sig, idl = stream.signal_ps, stream.idler_ps
    n = len(stream)
    at = _signal_records(sig, idl)
    for a in range(0, max(n, 1), _CHUNK):
        b = min(a + _CHUNK, n)
        i, j = np.searchsorted(at, (a, b))   # the signals in records [a, b)
        yield replace(stream, signal_ps=sig[i:j], idler_ps=idl[a - i:b - j])


def write_events(stream: EventStream, path) -> None:
    header = _HEADER.pack(MAGIC, VERSION, stream.seed, stream.duration_ps,
                          bytes.fromhex(stream.model_digest), len(stream))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(header)
        for block in chunks(stream):
            rec = np.empty(len(block), dtype=_RECORD_DTYPE)
            rec["channel"], rec["timestamp_ps"] = _merge_channels(
                block.signal_ps, block.idler_ps)
            f.write(rec)
    os.replace(tmp, path)


def read_chunks(path):
    """The records of an event file as consecutive EventStream blocks of
    at most ``_CHUNK`` records (one empty block for an empty file), read
    into one reused buffer and checked as they come."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise EventFormatError("file too short for an event header")
        magic, version, seed, duration_ps, digest, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise EventFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise EventFormatError(f"unsupported event-format version {version}")
        if duration_ps >= 2 ** 63:   # the estimators read timestamps as int64
            raise EventFormatError(f"duration {duration_ps} ps is not below 2**63")
        n_bytes = os.fstat(f.fileno()).st_size - _HEADER.size
        if n_bytes != count * _RECORD_DTYPE.itemsize:
            raise EventFormatError(
                f"truncated event file: expected {count} records, "
                f"got {n_bytes / _RECORD_DTYPE.itemsize:.1f}")
        buf = np.empty(min(count, _CHUNK), dtype=_RECORD_DTYPE)
        prev = 0   # the last timestamp read
        for a in range(0, max(count, 1), _CHUNK):   # an empty file: one block
            rec = buf[:min(_CHUNK, count - a)]
            if f.readinto(rec) != rec.nbytes:
                raise EventFormatError(f"truncated event file at record {a}")
            channels, ts = rec["channel"], rec["timestamp_ps"]
            bad = np.flatnonzero(channels > CH_IDLER)   # codes are 0 and 1
            if len(bad):
                raise EventFormatError(
                    f"record {a + bad[0]}: unknown channel byte {channels[bad[0]]}")
            back = [0] if len(ts) and ts[0] < prev \
                else np.flatnonzero(ts[1:] < ts[:-1]) + 1
            if len(back):
                i = back[0]
                raise EventFormatError(f"record {a + i}: timestamp {ts[i]} ps "
                                       f"precedes {ts[i - 1] if i else prev} ps")
            if len(ts) and ts[-1] > duration_ps:   # ts is sorted: search it
                i = int(np.searchsorted(ts, np.uint64(duration_ps), side="right"))
                raise EventFormatError(f"record {a + i}: timestamp {ts[i]} ps "
                                       f"exceeds the duration {duration_ps} ps")
            prev = ts[-1] if len(ts) else prev
            sig = channels == CH_SIGNAL
            yield EventStream(signal_ps=ts[sig], idler_ps=ts[~sig],
                              duration_ps=duration_ps, seed=seed,
                              model_digest=digest.hex())


def read_events(path) -> EventStream:
    """The whole stream of an event file: its ``read_chunks`` joined."""
    blocks = list(read_chunks(path))
    return replace(blocks[-1], **{
        ch: np.concatenate([getattr(b, ch) for b in blocks])
        for ch in ("signal_ps", "idler_ps")})
