import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.eventio import read_events, write_events
from pairmem.errors import EventFormatError
from pairmem.montecarlo import EventStream


def make_stream(channels, times_ps, seed=7, duration_ps=10**12):
    return EventStream(
        channels=np.asarray(channels, dtype=np.uint8),
        timestamps_ps=np.asarray(times_ps, dtype=np.uint64),
        metadata={"seed": seed, "duration_ps": duration_ps,
                  "model_digest": "ab" * 32})


def test_binary_roundtrip(tmp_path):
    ev = make_stream([0, 1, 0, 1], [100, 200, 300, 400])
    path = tmp_path / "events.bin"
    write_events(ev, path)
    back = read_events(path)
    assert np.array_equal(back.channels, ev.channels)
    assert np.array_equal(back.timestamps_ps, ev.timestamps_ps)
    assert back.metadata["seed"] == 7
    assert back.metadata["duration_ps"] == 10**12
    assert back.metadata["model_digest"] == "ab" * 32


def test_binary_empty_stream(tmp_path):
    ev = make_stream([], [])
    path = tmp_path / "empty.bin"
    write_events(ev, path)
    back = read_events(path)
    assert len(back) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.integers(min_value=0, max_value=2**60)),
                max_size=50))
def test_binary_roundtrip_property(tmp_path_factory, records):
    records = sorted(records, key=lambda r: r[1])  # the format is time-ordered
    ch = [c for c, _ in records]
    ts = [t for _, t in records]
    path = tmp_path_factory.mktemp("ev") / "r.bin"
    ev = make_stream(ch, ts)
    write_events(ev, path)
    back = read_events(path)
    assert back.channels.tolist() == ch
    assert back.timestamps_ps.tolist() == ts


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(EventFormatError, match="magic"):
        read_events(path)


def test_binary_rejects_truncation(tmp_path):
    ev = make_stream([0, 1], [1, 2])
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
    ev = make_stream([0], [1])
    path = tmp_path / "v.bin"
    write_events(ev, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(EventFormatError, match="version"):
        read_events(path)


def test_binary_rejects_unknown_channel(tmp_path):
    ev = make_stream([0, 1, 0], [1, 2, 3])
    path = tmp_path / "ch.bin"
    write_events(ev, path)
    raw = bytearray(path.read_bytes())
    raw[-9] = 7  # channel byte of the last record
    path.write_bytes(bytes(raw))
    with pytest.raises(EventFormatError, match="record 2: unknown channel"):
        read_events(path)


def test_binary_rejects_backwards_timestamps(tmp_path):
    path = tmp_path / "order.bin"
    write_events(make_stream([0, 1, 0, 1], [5, 9, 7, 11]), path)
    with pytest.raises(EventFormatError, match="record 2: timestamp 7 ps"):
        read_events(path)
    # equal timestamps are allowed (a signal and an idler in one picosecond)
    write_events(make_stream([0, 1, 1], [5, 5, 6]), path)
    assert read_events(path).timestamps_ps.tolist() == [5, 5, 6]


def test_binary_matches_simulation_output(tmp_path):
    from dataclasses import replace
    s = replace(pm.default_scenario(), duration_s=0.02, reference_run=False)
    ev = pm.simulate(s)
    path = tmp_path / "sim.bin"
    write_events(ev, path)
    back = read_events(path)
    assert np.array_equal(back.timestamps_ps, ev.timestamps_ps)
    assert back.metadata["model_digest"] == ev.metadata["model_digest"]


def test_binary_reserialization_byte_identical_large(tmp_path):
    rng = np.random.default_rng(17)
    n = 1_000_000
    ts = np.sort(rng.integers(0, 2**50, size=n, dtype=np.uint64))
    ch = rng.integers(0, 2, size=n, dtype=np.uint8)
    ev = make_stream(ch, ts)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_events(ev, p1)
    write_events(read_events(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
