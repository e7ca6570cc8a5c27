"""Event-stream serialization: the binary wire format.

Binary layout (little-endian): magic ``PMEV``, version u16, seed u64,
duration u64 (ps), model digest (32 raw sha256 bytes), event count u64,
then blocks ``[end_ps u64][n_signal u32][n_idler u32][signal u64 ...]
[idler u64 ...]`` of picosecond timestamps.  Every timestamp of block k
lies in [end of block k-1, end of block k); the last block ends at the
duration plus one.  Only this module knows the layout: ``chunks`` is the
one cutter, a block ends wherever either channel passes another
``_CHUNK`` events, write_events writes its views as they are, and
read_chunks yields the blocks a file holds.  Readers check a block's
counts against the bytes left before they allocate it, then each
channel's order, the duration and the block bounds, and at the end the
header's count; a fault names its block and index.  They reject other
versions (version 1 interleaved the channels into 9-byte records) and
durations from 2**63 ps; read_events joins the blocks.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import replace

import numpy as np

from .errors import EventFormatError
from .montecarlo import EventStream

MAGIC = b"PMEV"
VERSION = 2
_HEADER = struct.Struct("<4sHQQ32sQ")
_BLOCK = struct.Struct("<QII")   # end_ps, n_signal, n_idler
_CHUNK = 1 << 15   # events per channel per block: at most 0.5 MiB of timestamps


def chunks(stream: EventStream):
    """(end_ps, block) of each time-cut block of ``stream``, views of its
    arrays: the blocks ``read_chunks`` yields for the file of ``stream``.
    There is at least one, also for an empty stream."""
    sig, idl = stream.signal_ps, stream.idler_ps
    i = j = 0
    while True:
        cuts = [ch[k + _CHUNK] for ch, k in ((sig, i), (idl, j)) if k + _CHUNK < len(ch)]
        if not cuts:
            yield stream.duration_ps + 1, replace(stream, signal_ps=sig[i:], idler_ps=idl[j:])
            return
        # equal times share one block, which holds at least the first of them
        first = min(ch[k] for ch, k in ((sig, i), (idl, j)) if k < len(ch))
        end = max(min(cuts), first + 1)   # a uint64: searched without a cast
        i2, j2 = np.searchsorted(sig, end), np.searchsorted(idl, end)
        yield int(end), replace(stream, signal_ps=sig[i:i2], idler_ps=idl[j:j2])
        i, j = i2, j2


@contextlib.contextmanager
def _atomic_open(path, mode):
    """``open(path, mode)`` through a temp file beside ``path``, moved onto
    it once written: a write that raises leaves ``path`` as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:   # after a failed write, the temp file goes too
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_events(stream: EventStream, path) -> None:
    header = _HEADER.pack(MAGIC, VERSION, stream.seed, stream.duration_ps,
                          bytes.fromhex(stream.model_digest), len(stream))
    with _atomic_open(path, "wb") as f:
        f.write(header)
        for end, block in chunks(stream):
            f.write(_BLOCK.pack(end, len(block.signal_ps), len(block.idler_ps)))
            f.write(np.ascontiguousarray(block.signal_ps, "<u8"))
            f.write(np.ascontiguousarray(block.idler_ps, "<u8"))


def _check_block(where, ts, start, end, duration_ps):
    """Raise on the first fault of one channel ``ts`` of a block spanning
    [start, end); ``where`` names the block and the channel."""
    if not len(ts):
        return
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if len(back):
        i = back[0] + 1
        raise EventFormatError(f"{where} {i}: timestamp {ts[i]} ps precedes {ts[i - 1]} ps")
    if ts[-1] > duration_ps:
        i = int(np.searchsorted(ts, np.uint64(duration_ps), side="right"))
        raise EventFormatError(f"{where} {i}: timestamp {ts[i]} ps exceeds "
                               f"the duration {duration_ps} ps")
    if ts[0] < start or ts[-1] >= end:
        i = 0 if ts[0] < start else int(np.searchsorted(ts, np.uint64(end)))
        raise EventFormatError(f"{where} {i}: timestamp {ts[i]} ps is outside "
                               f"[{start}, {end}) ps")


def read_chunks(path):
    """The blocks of an event file as EventStreams in time order, each in
    arrays of its own, checked as they come."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise EventFormatError("file too short for an event header")
        magic, version, seed, duration_ps, digest, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise EventFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise EventFormatError(f"unsupported event-format version {version} "
                                   f"(this reader reads version {VERSION})")
        if duration_ps >= 2 ** 63:   # the estimators read timestamps as int64
            raise EventFormatError(f"duration {duration_ps} ps is not below 2**63")
        left = os.fstat(f.fileno()).st_size - _HEADER.size
        k = start = total = 0
        while k == 0 or left:   # at least one block
            head = f.read(_BLOCK.size)
            if len(head) < _BLOCK.size:
                raise EventFormatError(f"block {k}: truncated block header")
            end, n_sig, n_idl = _BLOCK.unpack(head)
            left -= _BLOCK.size + 8 * (n_sig + n_idl)
            if left < 0:
                raise EventFormatError(f"block {k}: truncated: {n_sig} signal and "
                                       f"{n_idl} idler events pass the end of the file")
            sig, idl = (np.fromfile(f, "<u8", n) for n in (n_sig, n_idl))
            _check_block(f"block {k}: signal", sig, start, end, duration_ps)
            _check_block(f"block {k}: idler", idl, start, end, duration_ps)
            yield EventStream(signal_ps=sig, idler_ps=idl, duration_ps=duration_ps,
                              seed=seed, model_digest=digest.hex())
            k, start, total = k + 1, max(start, end), total + n_sig + n_idl
        if total != count:
            raise EventFormatError(f"the blocks hold {total} events, the header {count}")


def read_events(path) -> EventStream:
    """The whole stream of an event file: its ``read_chunks`` joined."""
    blocks = list(read_chunks(path))
    return replace(blocks[-1], **{
        ch: np.concatenate([getattr(b, ch) for b in blocks])
        for ch in ("signal_ps", "idler_ps")})
