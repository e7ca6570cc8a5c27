import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.eventio import (CH_IDLER, CH_SIGNAL, MAGIC, VERSION, _HEADER,
                             _RECORD_DTYPE, _merge_channels, read_events,
                             write_events)
from pairmem.errors import EventFormatError
from pairmem.montecarlo import EventStream


def make_stream(signal_ps, idler_ps, seed=7, duration_ps=10**12):
    return EventStream(signal_ps=np.asarray(signal_ps, dtype=np.uint64),
                       idler_ps=np.asarray(idler_ps, dtype=np.uint64),
                       duration_ps=duration_ps, seed=seed,
                       model_digest="ab" * 32)


def test_binary_roundtrip(tmp_path):
    ev = make_stream([100, 300], [200, 400])
    path = tmp_path / "events.bin"
    write_events(ev, path)
    back = read_events(path)
    assert np.array_equal(back.signal_ps, ev.signal_ps)
    assert np.array_equal(back.idler_ps, ev.idler_ps)
    assert back.seed == 7
    assert back.duration_ps == 10**12
    assert back.model_digest == "ab" * 32


def test_binary_empty_stream(tmp_path):
    ev = make_stream([], [])
    path = tmp_path / "empty.bin"
    write_events(ev, path)
    back = read_events(path)
    assert len(back) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=12),
       st.lists(st.integers(0, 6), max_size=12))
def test_merge_channels_matches_lexsort(sig, idl):
    # few distinct values: equal timestamps within and across channels
    sig_ps = np.sort(np.array(sig, dtype=np.uint64))
    idl_ps = np.sort(np.array(idl, dtype=np.uint64))
    ch = np.concatenate([np.full(len(sig_ps), CH_SIGNAL, np.uint8),
                         np.full(len(idl_ps), CH_IDLER, np.uint8)])
    ts = np.concatenate([sig_ps, idl_ps])
    order = np.lexsort((ch, ts))
    got_ch, got_ts = _merge_channels(sig_ps, idl_ps)
    assert got_ch.dtype == np.uint8 and got_ts.dtype == np.uint64
    assert np.array_equal(got_ch, ch[order])
    assert np.array_equal(got_ts, ts[order])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**60), min_size=1, max_size=8),
       st.lists(st.integers(0, 20), max_size=30),
       st.lists(st.integers(0, 20), max_size=30),
       st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.binary(min_size=32, max_size=32))
def test_binary_roundtrip_property(tmp_path_factory, values, sig, idl, seed,
                                   duration_ps, digest):
    # timestamps drawn from a few values: ties within and across channels
    sig_ps = np.sort(np.array([values[i % len(values)] for i in sig], np.uint64))
    idl_ps = np.sort(np.array([values[i % len(values)] for i in idl], np.uint64))
    ev = EventStream(signal_ps=sig_ps, idler_ps=idl_ps, duration_ps=duration_ps,
                     seed=seed, model_digest=digest.hex())
    path = tmp_path_factory.mktemp("ev") / "r.bin"
    write_events(ev, path)
    back = read_events(path)
    assert np.array_equal(back.signal_ps, sig_ps)
    assert np.array_equal(back.idler_ps, idl_ps)
    assert (back.duration_ps, back.seed, back.model_digest) \
        == (duration_ps, seed, digest.hex())
    # the records are both channels in np.lexsort((ch, ts)) order
    ch = np.repeat(np.array([CH_SIGNAL, CH_IDLER], np.uint8),
                   [len(sig_ps), len(idl_ps)])
    ts = np.concatenate([sig_ps, idl_ps])
    order = np.lexsort((ch, ts))
    rec = np.empty(len(ts), dtype=_RECORD_DTYPE)
    rec["channel"], rec["timestamp_ps"] = ch[order], ts[order]
    assert path.read_bytes()[_HEADER.size:] == rec.tobytes()


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(EventFormatError, match="magic"):
        read_events(path)


def test_binary_rejects_truncation(tmp_path):
    ev = make_stream([1], [2])
    path = tmp_path / "t.bin"
    write_events(ev, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(EventFormatError, match="truncated"):
        read_events(path)


def test_binary_rejects_short_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"PM")
    with pytest.raises(EventFormatError, match="short"):
        read_events(path)


def test_binary_rejects_future_version(tmp_path):
    ev = make_stream([1], [])
    path = tmp_path / "v.bin"
    write_events(ev, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(EventFormatError, match="version"):
        read_events(path)


def test_binary_rejects_unknown_channel(tmp_path):
    ev = make_stream([1, 3], [2])
    path = tmp_path / "ch.bin"
    write_events(ev, path)
    raw = bytearray(path.read_bytes())
    raw[-9] = 7  # channel byte of the last record
    path.write_bytes(bytes(raw))
    with pytest.raises(EventFormatError, match="record 2: unknown channel"):
        read_events(path)


def test_binary_rejects_backwards_timestamps(tmp_path):
    # write_events only writes ordered files: build the records by hand
    path = tmp_path / "order.bin"
    rec = np.array([(0, 5), (1, 9), (0, 7), (1, 11)], dtype=_RECORD_DTYPE)
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 7, 10**12, bytes(32), len(rec))
                     + rec.tobytes())
    with pytest.raises(EventFormatError, match="record 2: timestamp 7 ps"):
        read_events(path)
    # equal timestamps are allowed (a signal and an idler in one picosecond)
    write_events(make_stream([5], [5, 6]), path)
    back = read_events(path)
    assert (back.signal_ps.tolist(), back.idler_ps.tolist()) == ([5], [5, 6])


def test_binary_matches_simulation_output(tmp_path):
    from dataclasses import replace
    s = replace(pm.default_scenario(), duration_s=0.02, reference_run=False)
    ev = pm.simulate(s)
    path = tmp_path / "sim.bin"
    write_events(ev, path)
    back = read_events(path)
    assert np.array_equal(back.signal_ps, ev.signal_ps)
    assert np.array_equal(back.idler_ps, ev.idler_ps)
    assert back.model_digest == ev.model_digest


def test_binary_reserialization_byte_identical_large(tmp_path):
    rng = np.random.default_rng(17)
    n = 1_000_000
    ts = np.sort(rng.integers(0, 2**50, size=n, dtype=np.uint64))
    ch = rng.integers(0, 2, size=n, dtype=np.uint8)
    ev = make_stream(ts[ch == CH_SIGNAL], ts[ch == CH_IDLER])
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_events(ev, p1)
    write_events(read_events(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
