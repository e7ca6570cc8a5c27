import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.analysis import PairCounter
from pairmem.eventio import (CH_IDLER, CH_SIGNAL, MAGIC, VERSION, _HEADER,
                             _RECORD_DTYPE, _merge_channels, chunks,
                             read_chunks, read_events, write_events)
from pairmem.scenario import _count
from pairmem.errors import EstimationError, EventFormatError, ParameterError
from pairmem.montecarlo import EventStream

from conftest import default_record


def g2_or_error(counter, duration_ps, window, center):
    """``counter.g2``, or the type of the error it raises."""
    try:
        return counter.g2(duration_ps, window, center)
    except (EstimationError, ParameterError) as exc:
        return type(exc)


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
       st.integers(0, 2**64 - 1), st.integers(0, 2**62), st.binary(min_size=32, max_size=32))
def test_binary_roundtrip_property(tmp_path_factory, values, sig, idl, seed,
                                   past_last, digest):
    # timestamps drawn from a few values: ties within and across channels;
    # the run lasts at least until the last of them
    sig_ps = np.sort(np.array([values[i % len(values)] for i in sig], np.uint64))
    idl_ps = np.sort(np.array([values[i % len(values)] for i in idl], np.uint64))
    duration_ps = max(values) + past_last
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


def test_binary_rejects_timestamps_past_duration(tmp_path):
    path = tmp_path / "long.bin"
    write_events(make_stream([5, 10], [10], duration_ps=10), path)
    back = read_events(path)   # a timestamp may equal the duration
    assert back.signal_ps.tolist() == [5, 10]
    write_events(make_stream([5, 11], [10], duration_ps=10), path)
    with pytest.raises(EventFormatError,
                       match="record 2: timestamp 11 ps exceeds the duration"):
        read_events(path)
    # int64 views of the timestamps are exact: no duration reaches 2**63
    write_events(make_stream([5], [], duration_ps=2**63), path)
    with pytest.raises(EventFormatError, match="2\\*\\*63"):
        read_events(path)


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
    ev = make_stream(ts[ch == CH_SIGNAL], ts[ch == CH_IDLER], duration_ps=2**50)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_events(ev, p1)
    write_events(read_events(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def record_file(path, records, duration_ps=10**12):
    """An event file of hand-made (channel, timestamp) records."""
    rec = np.array(records, dtype=_RECORD_DTYPE)
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 7, duration_ps, bytes(32),
                                  len(rec)) + rec.tobytes())
    return path


# ten records 10 ps apart, signal and idler in turn, and one fault each
# past the first chunk of four: (records, duration, the whole-file message)
ORDERED = [(k % 2, 10 * (k + 1)) for k in range(10)]
FAULTS = {
    "channel": ([*ORDERED[:6], (7, 70), *ORDERED[7:]], 10**12,
                "record 6: unknown channel byte 7"),
    "backwards": ([*ORDERED[:4], (0, 25), *ORDERED[5:]], 10**12,
                  "record 4: timestamp 25 ps precedes 40 ps"),
    "duration": (ORDERED, 95,
                 "record 9: timestamp 100 ps exceeds the duration 95 ps"),
}


@pytest.mark.parametrize("chunk", [1, 3, 4, 2**15])
@pytest.mark.parametrize("fault", FAULTS)
def test_chunked_reader_names_each_fault_as_a_whole_read(tmp_path, monkeypatch,
                                                         fault, chunk):
    # a fault in a later chunk, or across a chunk edge, keeps the message
    # and the record index of the one-chunk read
    monkeypatch.setattr(pm.eventio, "_CHUNK", chunk)
    records, duration_ps, message = FAULTS[fault]
    path = record_file(tmp_path / "bad.bin", records, duration_ps)
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == message


@st.composite
def stream_cases(draw):
    """Two sorted channels over a few whole ps (ties within and across
    channels, and at chunk edges), a histogram range with lo < 0 < hi or
    lo > 0, a g2 window inside it, and a short gating cycle or none."""
    times = st.lists(st.integers(0, 60), max_size=25)
    sig, idl = sorted(draw(times)), sorted(draw(times))
    width = draw(st.integers(1, 7))
    if draw(st.booleans()):
        lo, hi = draw(st.integers(-40, -1)), draw(st.integers(1, 40))
    else:
        lo = draw(st.integers(1, 40))
        hi = lo + draw(st.integers(1, 40))
    end = int(pm.analysis.histogram_edges(width, (lo, hi))[-1])
    window = draw(st.integers(1, max(end - lo - 1, 1)))
    center = draw(st.integers(lo + window // 2, end - 1 - window // 2))
    gating = draw(st.sampled_from(
        [None, default_record("gating", cycle=20e-12, break_time=1e-12)]))
    return sig, idl, (width, (lo, hi)), window, center, gating


@settings(max_examples=150, deadline=None)
@given(case=stream_cases())
def test_streamed_counts_equal_the_whole_stream(tmp_path_factory, case):
    # a file read in chunks of 1, 2, 3 and the shipped size, each chunk
    # fed to one counter, counts what the whole stream does
    sig, idl, bins, window, center, gating = case
    ev = make_stream(sig, idl, duration_ps=60)
    path = tmp_path_factory.getbasetemp() / "stream.bin"
    write_events(ev, path)
    hist = pm.build_histogram(ev, *bins)
    whole = PairCounter(hist.bin_edges_ps, gating).add(ev).close()
    g2 = g2_or_error(whole, ev.duration_ps, window, center)
    for chunk in (1, 2, 3, 2**15):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pm.eventio, "_CHUNK", chunk)
            counter = PairCounter(hist.bin_edges_ps, gating)
            for block in read_chunks(path):
                counter.add(block)
            counter.close()
        assert counter.counts.tolist() == hist.counts.tolist()
        assert ((counter.starts, counter.stops)
                == (hist.total_start_counts, hist.total_stop_counts))
        if gating is not None:
            assert ((counter.gated_starts, counter.gated_stops)
                    == tuple(int(np.count_nonzero(gating.measuring(
                        np.array(c, np.int64)))) for c in (idl, sig)))
        assert g2_or_error(counter, ev.duration_ps, window, center) == g2


@settings(max_examples=100, deadline=None)
@given(sig=st.lists(st.integers(0, 60), max_size=25),
       idl=st.lists(st.integers(0, 60), max_size=25))
def test_stream_chunks_are_the_file_chunks(tmp_path_factory, sig, idl):
    # few distinct times (20 ns apart, within a histogram of the default
    # scenario): ties within and across channels and at chunk edges.  The
    # file holds the records in merged order, the in-memory walker yields
    # the blocks that reading the file yields, and the report's count over
    # them is the count of the whole stream as one block
    step = 20_000
    ev = make_stream(np.sort(sig) * step, np.sort(idl) * step,
                     duration_ps=60 * step)
    s = pm.default_scenario()
    whole = _count(s, [ev], s.gating)[0]
    path = tmp_path_factory.getbasetemp() / "walked.bin"
    for chunk in (1, 3, 2**15):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pm.eventio, "_CHUNK", chunk)
            write_events(ev, path)
            walked, read = list(chunks(ev)), list(read_chunks(path))
            counter, last = _count(s, ev, s.gating)
        rec = np.fromfile(path, dtype=_RECORD_DTYPE, offset=_HEADER.size)
        ch, ts = _merge_channels(ev.signal_ps, ev.idler_ps)
        assert rec["channel"].tolist() == ch.tolist()
        assert rec["timestamp_ps"].tolist() == ts.tolist()
        assert len(walked) == len(read) == max(-(-len(ev) // chunk), 1)
        for w, r in zip(walked, read):
            assert w.signal_ps.dtype == w.idler_ps.dtype == np.uint64
            assert w.signal_ps.tolist() == r.signal_ps.tolist()
            assert w.idler_ps.tolist() == r.idler_ps.tolist()
            assert ((w.duration_ps, w.seed, w.model_digest)
                    == (r.duration_ps, r.seed, r.model_digest))
        assert ((last.duration_ps, last.seed, last.model_digest)
                == (ev.duration_ps, ev.seed, ev.model_digest))
        assert counter.counts.tolist() == whole.counts.tolist()
        assert ((counter.starts, counter.stops,
                 counter.gated_starts, counter.gated_stops)
                == (whole.starts, whole.stops,
                    whole.gated_starts, whole.gated_stops))


@pytest.mark.parametrize("role", ["--events", "--reference-events"])
@pytest.mark.parametrize("fault", FAULTS)
def test_analyze_of_a_faulty_file_writes_nothing(tmp_path, monkeypatch, capsys,
                                                 fault, role):
    # the fault lies past the first chunk, yet analyze exits 5 before it
    # writes a report or a histogram
    from pairmem.cli import main
    monkeypatch.setattr(pm.eventio, "_CHUNK", 4)
    records, duration_ps, message = FAULTS[fault]
    bad = record_file(tmp_path / "bad.bin", records, duration_ps)
    good = record_file(tmp_path / "good.bin", ORDERED)
    files = {"--events": good, "--reference-events": bad} \
        if role == "--reference-events" else {"--events": bad}
    out = tmp_path / "out"
    argv = ["analyze", "--out", str(out)]
    for flag, path in files.items():
        argv += [flag, str(path)]
    assert main(argv) == 5
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "histogram.csv").exists()


def test_a_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # event and text writers alike: a write that raises part way removes
    # its temp file and leaves the file it would replace as it was
    from pairmem.cli import _write_text
    monkeypatch.setattr(pm.eventio, "_CHUNK", 2)
    merged = []

    def merge_once(sig, idl):   # the second block's merge raises
        if merged:
            raise MemoryError("second block")
        merged.append(1)
        return _merge_channels(sig, idl)

    monkeypatch.setattr(pm.eventio, "_merge_channels", merge_once)
    events, text = tmp_path / "events.bin", tmp_path / "report.json"
    events.write_bytes(b"old events")
    text.write_text("old report")
    with pytest.raises(MemoryError):
        write_events(make_stream([100, 300], [200, 400]), events)
    with pytest.raises(TypeError):
        _write_text(text, b"not text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.bin",
                                                          "report.json"]
    assert events.read_bytes() == b"old events"
    assert text.read_text() == "old report"
