"""Sliding-window streaming tests: geometry, batch equivalence, wire formats."""

import io
import re
import socket
import struct
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from intentcnn import cli, dataset, streaming
from intentcnn.cli import main
from intentcnn.dataset import StandardizationStats, parse_trace_csv, save_stats
from intentcnn.errors import ConfigError, FormatError, InputError
from intentcnn.model import NetworkConfig, build_network, save_model
from intentcnn.numerics import softmax
from intentcnn.streaming import (
    EXCERPT_CHARS,
    LINE_CHARS,
    READ_BYTES,
    StreamErrorRecord,
    StreamPrediction,
    WindowConfig,
    Window,
    classify_window,
    format_error_record,
    format_prediction,
    format_probs,
    open_line_source,
    stream_classify,
    stream_classify_batches,
    window_extract,
)

from oracles import forward_full_width

# shared by the property tests; a failure prints its @reproduce_failure blob
_SETTINGS = settings(max_examples=200, deadline=None, database=None, print_blob=True)

NET_CONFIG = NetworkConfig(channels=2, input_frames=40, conv_filters=(2, 2),
                           kernel_width=3, pool=2, pool_stride=2, fc_sizes=(8,),
                           num_classes=3)


def make_config(window=20, hop=5, class_names=None):
    network = build_network(NET_CONFIG, seed=4)
    stats = StandardizationStats(mean=np.array([0.5, -0.25]),
                                 std=np.array([2.0, 0.5]))
    return WindowConfig(network=network, stats=stats, window_frames=window,
                        hop_frames=hop, class_names=class_names)


def buffer_lines(buffer):
    """Render a (channels, frames) buffer in the frame wire format."""
    return [",".join(f"{v:.9g}" for v in buffer[:, t]) + "\n"
            for t in range(buffer.shape[1])]


def frame_of(line, channels):
    """The frame rule, independently: the float32 frame of a line with
    ``channels`` values that ``float()`` reads and whose float32 roundings are
    finite, else None."""
    tokens = line.strip().split(",")
    if len(tokens) != channels:
        return None
    try:
        values = np.array([float(token) for token in tokens])
    except ValueError:
        return None
    with np.errstate(over="ignore"):
        frame = values.astype(np.float32)
    return frame if np.isfinite(frame).all() else None


def reference_input(cfg, buffer, end):
    """Independent construction of the standardized padded window at frame end."""
    window, input_frames = cfg.window_frames, cfg.network.config.input_frames
    real = min(end + 1, window)
    padded = np.zeros((cfg.channels, input_frames), dtype=np.float32)
    chunk = buffer[:, end + 1 - real: end + 1].astype(np.float64)
    standardized = (chunk - cfg.stats.mean[:, None]) / cfg.stats.std[:, None]
    padded[:, window - real:window] = standardized.astype(np.float32)
    return padded


def reference_probs(cfg, buffer, end):
    return cfg.network.predict_proba(reference_input(cfg, buffer, end)[None, :, :])[0]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_window_config_validation():
    with pytest.raises(ConfigError):
        make_config(window=20, hop=21)          # hop exceeds window
    with pytest.raises(ConfigError):
        make_config(window=0, hop=0)
    with pytest.raises(ConfigError):
        make_config(window=41, hop=5)           # window exceeds model input
    with pytest.raises(ConfigError):
        make_config(class_names=("a", "b"))     # 2 names for 3 classes
    network = build_network(NET_CONFIG, seed=4)
    bad_stats = StandardizationStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(InputError):
        WindowConfig(network=network, stats=bad_stats)


@pytest.mark.parametrize("stats_path, prefix", [(None, ""),
                                                 ("run 3/stats.csv", "run 3/stats.csv: ")])
def test_a_wrong_channel_count_names_the_stats_file_it_came_from(stats_path, prefix):
    network = build_network(NET_CONFIG, seed=4)
    bad_stats = StandardizationStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(InputError) as info:
        WindowConfig(network=network, stats=bad_stats, stats_path=stats_path)
    assert str(info.value) == f"{prefix}statistics cover 3 channels but the model expects 2"


def test_class_name_fallback():
    probs = np.array([0.25, 0.5, 0.25], dtype=np.float32)
    assert format_probs(2, probs, None) == "2,class2,0.25,0.5,0.25"
    assert format_probs(1, probs, ("grasp", "survey", "other")) == "1,survey,0.25,0.5,0.25"


# ---------------------------------------------------------------------------
# window extraction
# ---------------------------------------------------------------------------

def test_window_extract_thousand_frame_example():
    cfg = make_config(window=20, hop=5)
    # scaled version of the 1000/1000/100 example: 20-frame window, hop 5,
    # exactly window-length buffer -> warm-ups at every hop before the last
    buffer = np.random.default_rng(0).normal(size=(2, 20)).astype(np.float32)
    windows = window_extract(buffer, cfg)
    assert [w.frame_index for w in windows] == [4, 9, 14, 19]
    assert [w.warm_up for w in windows] == [True, True, True, False]
    assert [w.real_frames for w in windows] == [5, 10, 15, 20]
    first = windows[0]
    assert np.all(first.values[:, :15] == 0.0)
    np.testing.assert_array_equal(first.values[:, 15:], buffer[:, :5])
    np.testing.assert_array_equal(windows[-1].values, buffer)


def test_window_extract_counts_and_edges():
    cfg = make_config(window=20, hop=5)
    empty = window_extract(np.zeros((2, 0), dtype=np.float32), cfg)
    assert empty == []
    for total in (1, 4, 5, 23, 47):
        buffer = np.zeros((2, total), dtype=np.float32)
        assert len(window_extract(buffer, cfg)) == total // 5


def test_window_extract_tiling_when_hop_equals_window():
    cfg = make_config(window=10, hop=10)
    buffer = np.arange(60, dtype=np.float32).reshape(2, 30)
    windows = window_extract(buffer, cfg)
    assert [w.frame_index for w in windows] == [9, 19, 29]
    assert all(not w.warm_up for w in windows)
    np.testing.assert_array_equal(windows[1].values, buffer[:, 10:20])


def test_window_extract_channel_mismatch():
    cfg = make_config()
    with pytest.raises(InputError):
        window_extract(np.zeros((3, 10), dtype=np.float32), cfg)
    with pytest.raises(InputError):
        window_extract(np.zeros(10, dtype=np.float32), cfg)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_window_matches_batch_predict_bitwise():
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(1).normal(size=(2, 47)).astype(np.float32)
    for window in window_extract(buffer, cfg):
        prediction = classify_window(window, cfg)
        expected = reference_probs(cfg, buffer, window.frame_index)
        assert prediction.probs.tobytes() == expected.tobytes()
        assert prediction.label == int(np.argmax(expected))


def test_stream_classify_matches_window_extract():
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(2).normal(size=(2, 47)).astype(np.float32)
    streamed = list(stream_classify(buffer_lines(buffer), cfg))
    assert all(isinstance(p, StreamPrediction) for p in streamed)
    offline = [classify_window(w, cfg) for w in window_extract(buffer, cfg)]
    assert len(streamed) == len(offline) == 47 // 5
    for live, batch in zip(streamed, offline):
        assert live.frame_index == batch.frame_index
        assert live.warm_up == batch.warm_up
        assert live.probs.tobytes() == batch.probs.tobytes()


_RING_SHAPES = [(7, 3), (5, 2), (10, 10), (20, 1),
                (NET_CONFIG.input_frames, NET_CONFIG.input_frames)]


@pytest.mark.parametrize(
    "window, hop, batched",
    [pytest.param(w, h, False, id=f"{w}-{h}") for w, h in _RING_SHAPES]
    + [pytest.param(w, h, True, id=f"{w}-{h}-one-batch") for w, h in _RING_SHAPES])
def test_stream_ring_wraps_like_window_extract(window, hop, batched):
    cfg = make_config(window=window, hop=hop)
    frames = 3 * window + 2 * hop + 1
    buffer = np.random.default_rng(window + hop).normal(size=(2, frames)).astype(np.float32)
    lines = buffer_lines(buffer)
    # the ring moves its last window to the front before accepting frame k*window
    for wrap in (2 * window, window):
        lines.insert(wrap + 1, "0.5,oops\n")
        lines.insert(wrap, "1.0\n")
    if batched:          # then blocks of up to a hop of frames meet the ring's end
        events = list(stream_classify_batches([lines], cfg))
    else:
        events = list(stream_classify(lines, cfg))
    assert sum(isinstance(e, StreamErrorRecord) for e in events) == 4
    streamed = [e for e in events if isinstance(e, StreamPrediction)]
    offline = [classify_window(w, cfg) for w in window_extract(buffer, cfg)]
    assert len(streamed) == len(offline) == frames // hop
    for live, batch in zip(streamed, offline):
        assert (live.frame_index, live.warm_up) == (batch.frame_index, batch.warm_up)
        assert live.probs.tobytes() == batch.probs.tobytes()


@pytest.mark.parametrize("window, hop", [(NET_CONFIG.input_frames, 7), (6, 2)],
                         ids=["window-is-the-input", "window-shorter-than-field"])
def test_stream_equals_predict_proba_at_both_ends_of_the_live_prefix(window, hop):
    # a full window leaves no tail padding, so the forward runs over the whole
    # input; a window shorter than one pooled column's field is all tail copy
    cfg = make_config(window=window, hop=hop)
    assert (window == cfg.network.config.input_frames) != (window < cfg.network.field)
    buffer = np.random.default_rng(window).normal(size=(2, 2 * window + 3)).astype(np.float32)
    streamed = list(stream_classify(buffer_lines(buffer), cfg))
    assert len(streamed) == buffer.shape[1] // hop
    for prediction in streamed:
        x = reference_input(cfg, buffer, prediction.frame_index)[None]
        assert prediction.probs.tobytes() == cfg.network.predict_proba(x)[0].tobytes()
        if window == cfg.network.config.input_frames:
            full = softmax(forward_full_width(cfg.network, x))[0]
            assert prediction.probs.tobytes() == full.tobytes()


def test_stream_hop_that_overflows_is_an_error_record():
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(5).normal(size=(2, 50)).astype(np.float32)
    lines = buffer_lines(buffer)
    lines.insert(10, "0,3e38\n")      # fits float32, but (3e38 + 0.25) / 0.5 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events = list(stream_classify(lines, cfg))
    errors = [e for e in events if isinstance(e, StreamErrorRecord)]
    # the frame is accepted as frame 10; the four hops whose window holds it fail
    assert [(e.line_number, e.message) for e in errors] == \
        [(n, "standardized window overflows float32") for n in (15, 20, 25, 30)]
    hops = [e for e in events if isinstance(e, StreamPrediction)]
    assert [h.frame_index for h in hops] == [4, 9, 34, 39, 44, 49]
    clean = buffer_lines(np.insert(buffer, 10, 0.0, axis=1))
    want = {p.frame_index: p for p in stream_classify(clean, cfg)}
    for hop in hops[2:]:
        assert hop.probs.tobytes() == want[hop.frame_index].probs.tobytes()


def test_stream_classify_skips_malformed_lines():
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(3).normal(size=(2, 10)).astype(np.float32)
    lines = buffer_lines(buffer)
    lines.insert(3, "1.0\n")                 # wrong channel count
    lines.insert(7, "0.5,oops\n")            # non-numeric
    lines.append("\n")                       # blank: ignored silently
    events = list(stream_classify(lines, cfg))
    errors = [e for e in events if isinstance(e, StreamErrorRecord)]
    predictions = [e for e in events if isinstance(e, StreamPrediction)]
    assert [e.line_number for e in errors] == [4, 8]
    assert "expected 2" in errors[0].message
    assert "non-numeric" in errors[1].message
    # 10 valid frames still produce floor(10/5) = 2 predictions at frames 4, 9
    assert [p.frame_index for p in predictions] == [4, 9]
    clean = list(stream_classify(buffer_lines(buffer), cfg))
    for got, want in zip(predictions, clean):
        assert got.probs.tobytes() == want.probs.tobytes()


def test_stream_classify_skips_non_finite_lines():
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(3).normal(size=(2, 10)).astype(np.float32)
    lines = buffer_lines(buffer)
    lines.insert(3, "nan,0.5\n")            # NaN
    lines.insert(7, "0.5,1e39\n")           # finite text, but overflows float32
    events = list(stream_classify(lines, cfg))
    errors = [e for e in events if isinstance(e, StreamErrorRecord)]
    predictions = [e for e in events if isinstance(e, StreamPrediction)]
    assert [e.line_number for e in errors] == [4, 8]
    assert all("non-finite" in e.message for e in errors)
    assert [p.frame_index for p in predictions] == [4, 9]
    clean = list(stream_classify(buffer_lines(buffer), cfg))
    for got, want in zip(predictions, clean):
        assert got.probs.tobytes() == want.probs.tobytes()


def test_stream_classify_deterministic_output():
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(4).normal(size=(2, 25)).astype(np.float32)
    lines = buffer_lines(buffer)
    first = [format_prediction(p, cfg) for p in stream_classify(lines, cfg)]
    second = [format_prediction(p, cfg) for p in stream_classify(lines, cfg)]
    assert first == second


_NUMBER = st.floats(-1e6, 1e6).map(repr)
_TOKENS = st.one_of(_NUMBER, st.floats().map(repr), st.sampled_from(
    ["", " 1.5", "1e39", "-nan", "inf", "3.40282357e38", "3e38", "-2e38", "\u0661\u0662",
     "1_000", "0x10", "\ufffd", "\x00", "1\r", "oops", "1\x1c", "\x1d1", "1\x1e5", "\x1f",
     "\x851", "1\xa0", "\u20031\u2003", "\u0663"]))
_LINES = st.one_of(st.text(max_size=12), st.lists(_TOKENS, min_size=1, max_size=3).map(",".join),
                   st.tuples(_NUMBER, _NUMBER).map(",".join),
                   st.tuples(_NUMBER, st.sampled_from(["3e38", "-2e38"])).map(",".join))
_FUZZ_CONFIG = make_config(window=4, hop=2)


@_SETTINGS
@given(lines=st.lists(_LINES, max_size=30))
def test_stream_classify_survives_arbitrary_text(lines):
    cfg = _FUZZ_CONFIG
    consumed = []

    def source():
        for line in lines:
            consumed.append(line)
            yield line

    def parses(line):
        return frame_of(line, cfg.channels) is not None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for event in stream_classify(source(), cfg):
            accepted = sum(map(parses, consumed))
            if isinstance(event, StreamErrorRecord):
                assert event.line_number == len(consumed)
                if not parses(consumed[-1]):
                    continue                # a skipped line; otherwise a failed hop
            else:
                assert isinstance(event, StreamPrediction)
                assert event.frame_index + 1 == accepted
            assert accepted % cfg.hop_frames == 0


_SMALL = st.floats(-4, 4).map(repr)     # large frames saturate the softmax alike
_FEED_LINES = st.one_of(
    st.tuples(_SMALL, _SMALL).map(",".join),                      # valid
    st.sampled_from(["1.5", "1,2,3", "0.5,oops", "\u00e9,1", "\u20ac,2", "\U0001d7d9,2",
                     "nan,0.5", "0.5,1e39", "", "  ", "3e38,3e38", "\xff\xfe,1",
                     # U+001C-U+001F, which NumPy's reader strips and float() does
                     # not, other Unicode whitespace, and spellings only float() reads
                     "\x1c1,2", "1\x1f,2", "1,\x1d2", "1\x1e5,2", "\x1e", "\x851,\xa02",
                     "\u20031,2\u2003", "1_000,2", "\u0661,2", " \t "]))
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_BATCH_CONFIGS = [make_config(window=w, hop=h) for w, h in ((7, 3), (5, 2), (4, 4), (5, 1))]


def _event_key(event):
    if isinstance(event, StreamErrorRecord):
        return ("error", event.line_number, event.message, event.raw)
    return ("hop", event.frame_index, event.label, event.warm_up, event.probs.tobytes())


@_SETTINGS
@given(feed=st.lists(st.tuples(_FEED_LINES, _LINE_ENDS), max_size=60),
       last_end=st.booleans(), sizes=st.lists(st.integers(1, 200), min_size=1, max_size=6),
       config=st.sampled_from(_BATCH_CONFIGS))
def test_stream_batches_equal_the_line_path(feed, last_end, sizes, config):
    text = "".join(line + end for line, end in feed)
    if feed and not last_end:
        text = text[:-len(feed[-1][1])]
    # "\xff\xfe" stands for two bytes that are not UTF-8
    data = text.encode("utf-8").replace("\xff\xfe".encode("utf-8"), b"\xff\xfe")
    chunks, at = [], 0
    while at < len(data):                 # reads of the sizes in turn, 1 byte and up
        chunks.append(data[at:at + sizes[len(chunks) % len(sizes)]])
        at += len(chunks[-1])
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(sys, "stdin", SimpleNamespace(buffer=Reads(chunks)))
        got = list(stream_classify_batches(open_line_source("-"), config))
        lines = re.split("\r\n|\r|\n", data.decode("utf-8", errors="replace"))
        want = list(stream_classify(lines, config))
    assert list(map(_event_key, got)) == list(map(_event_key, want))


def test_stream_reads_odd_spellings_in_a_segment_as_float_does():
    """Odd lines among valid ones, in one batch (so segments go to NumPy's
    reader whole), give the hops of their float() readings and an error
    record where float() rejects a value; blank lines are skipped."""
    cfg = make_config(window=8, hop=4)
    odd = ["\x1c1.5,2", "1.5\x1c,2", "1.5,2\x1f", "1\x1d5,2", "1,\x1e2", "\x851.5,\xa02",
           "\u20031.5\u2003,2", "1_000,2", "\u0661,\u0662.5", "", " \t ", "\x1f"]
    base = buffer_lines(np.random.default_rng(5).normal(size=(2, 3 * len(odd)))
                        .astype(np.float32))
    lines, plain = [], []
    for i, line in enumerate(odd):
        frame = frame_of(line, cfg.channels)
        lines += base[3 * i:3 * i + 3] + [line]
        plain += base[3 * i:3 * i + 3] + [
            line if not line.strip() else "x" if frame is None else
            ",".join(map(repr, frame.tolist()))]

    def key(event):
        return ("error", event.line_number) if isinstance(event, StreamErrorRecord) \
            else _event_key(event)

    got = list(stream_classify_batches([lines], cfg))
    assert list(map(key, got)) == list(map(key, stream_classify_batches([plain], cfg)))
    assert [(e.line_number, e.message, e.raw) for e in got
            if isinstance(e, StreamErrorRecord)] == [
        (8, "non-numeric value in frame", "1.5\x1c,2"),
        (16, "non-numeric value in frame", "1\x1d5,2"),
        (20, "non-numeric value in frame", "1,\x1e2")]


def test_stream_reads_a_segment_numpy_misreads_by_float():
    cfg = make_config(window=20, hop=10)
    lines = buffer_lines(np.random.default_rng(6).normal(size=(2, 20)).astype(np.float32))
    want = list(stream_classify_batches([lines[:13] + ["1000,2"] + lines[14:]], cfg))
    lines[13] = "1_000,\u0662"              # float() reads it, NumPy's reader does not
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(dataset, "_cells", wraps=dataset._cells) as per_row:
        got = list(stream_classify_batches([lines], cfg))
    assert list(map(_event_key, got)) == list(map(_event_key, want))
    assert loadtxt.call_count == 2              # one conversion per ten-line segment
    assert [call.args[0] for call in per_row.call_args_list] == \
        [line.strip() for line in lines[10:]]      # float() reads the odd line's segment


def test_stream_reads_one_line_segments_without_numpys_reader():
    cfg = make_config(window=20, hop=10)
    lines = buffer_lines(np.random.default_rng(7).normal(size=(2, 30)).astype(np.float32))
    with mock.patch.object(dataset, "_cells", wraps=dataset._cells) as per_row:
        want = list(stream_classify_batches([lines], cfg))
    assert per_row.call_count == 0              # clean segments: NumPy's reader only
    with mock.patch.object(np, "loadtxt") as numpy_reader:
        got = list(stream_classify_batches([[line] for line in lines], cfg))
    numpy_reader.assert_not_called()
    assert list(map(_event_key, got)) == list(map(_event_key, want))


def test_stream_names_a_wrong_value_count_before_a_bad_value():
    cfg = make_config(window=4, hop=2)
    odd = ["1,2,3", "4,5,6", "x,1,2", "1", "1,nan,2", "1e39"]
    want = [StreamErrorRecord(i + 1, "expected 2 comma-separated values, got "
                              f"{line.count(',') + 1}", line) for i, line in enumerate(odd)]
    assert list(stream_classify(odd, cfg)) == want
    with mock.patch.object(streaming, "_read_rows", wraps=streaming._read_rows) as read:
        assert list(stream_classify_batches([odd], cfg)) == want
        assert list(stream_classify_batches([odd[:2]], cfg)) == want[:2]
    assert read.call_count == 4                 # once per two-line segment


# a fault's kind in a trace file's FormatError and in a stream error record
_FAULT_KINDS = (("count", r"has \d+ cells|comma-separated values"),
                ("non-numeric", "non-numeric value"), ("non-finite", "non-finite value"))


def _fault_kind(text):
    kinds = [kind for kind, pattern in _FAULT_KINDS if re.search(pattern, text)]
    assert len(kinds) == 1, text
    return kinds[0]


@pytest.mark.parametrize("bad", [["3"], ["x,3"], ["3,1e39"], ["inf,nan"], ["1,2,3", "x,1"],
                                 ["nan,x", "3"], ["x,1", "inf,2", "4"]],
                         ids=["count", "non-numeric", "non-finite", "non-finite-pair",
                              "count-then-non-numeric", "non-numeric-beats-nan", "mixed"])
def test_trace_files_and_streams_name_the_same_first_bad_line(tmp_path, bad):
    lines = ["1.5,2", "-0.5,1"] + bad + ["0.25,3"]
    path = tmp_path / "trace.csv"
    path.write_text("t,a,b\n" + "".join(f"{i / 100:.4f},{line}\n" for i, line in enumerate(lines)))
    with pytest.raises(FormatError) as got:
        parse_trace_csv(str(path))
    message = str(got.value)
    row = int(re.search(r"row (\d+)", message).group(1))
    cfg = make_config(window=4, hop=2)
    for events in (stream_classify(lines, cfg), stream_classify_batches([lines], cfg)):
        first = next(e for e in events if isinstance(e, StreamErrorRecord))
        assert first.line_number == row - 1         # the file's row 2 is line 1
        assert _fault_kind(first.message) == _fault_kind(message)


def test_prediction_probs_must_sum_to_one():
    with pytest.raises(InputError):
        StreamPrediction(frame_index=0, label=0,
                         probs=np.array([0.5, 0.4], dtype=np.float32),
                         warm_up=False)


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def _only_event(line):
    """The one event of a one-line stream at window 1, hop 1."""
    events = list(stream_classify([line], make_config(window=1, hop=1)))
    assert len(events) == 1
    return events[0]


def test_stream_frame_line_rule():
    cfg = make_config(window=1, hop=1)
    want = reference_probs(cfg, np.array([[1.5], [-2.25]], dtype=np.float32), 0)
    assert _only_event("1.5,-2.25\n").probs.tobytes() == want.tobytes()
    assert _only_event("1.5\n") == StreamErrorRecord(
        1, "expected 2 comma-separated values, got 1", "1.5")
    assert _only_event(" 1.5,x \r\n") == StreamErrorRecord(
        1, "non-numeric value in frame", "1.5,x")


def test_stream_frame_line_float32_range():
    largest = np.finfo(np.float32).max
    assert frame_of("3.40282347e+38,-3.40282347e+38", 2).tolist() == [largest, -largest]
    cfg = make_config(window=1, hop=1)
    lines = ["3.40282347e+38,-3.40282347e+38", "3.4028236e38,0", "0,-1e39", "inf,0", "0,nan"]
    events = list(stream_classify(lines, cfg))
    assert [(e.line_number, e.message) for e in events] == \
        [(1, "standardized window overflows float32")] + \
        [(n, "non-finite value in frame") for n in (2, 3, 4, 5)]


def test_format_prediction_fields():
    cfg = make_config(class_names=("grasp", "survey", "other"))
    probs = np.array([0.20000002, 0.30000001, 0.5], dtype=np.float32)
    probs = probs / probs.sum()
    line = format_prediction(StreamPrediction(frame_index=99, label=2,
                                              probs=probs, warm_up=True), cfg)
    fields = line.split(",")
    assert fields[0] == "99"
    assert fields[1] == "2"
    assert fields[2] == "other"
    assert fields[-1] == "1"
    assert len(fields) == 3 + 3 + 1
    # %.9g round-trips float32 exactly
    recovered = np.array([np.float32(f) for f in fields[3:6]], dtype=np.float32)
    assert recovered.tobytes() == probs.tobytes()


def test_format_error_record():
    line = format_error_record(StreamErrorRecord(line_number=7, message="bad frame",
                                                 raw="x"))
    assert line == "error,line=7,message=bad frame"
    assert line.split(",")[0] == "error"


# ---------------------------------------------------------------------------
# line sources
# ---------------------------------------------------------------------------

class Reads:
    """A binary stream whose ``read1`` returns the given chunks, then b''."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.sizes = []

    def read1(self, size):
        self.sizes.append(size)
        return self.chunks.pop(0) if self.chunks else b""


def test_open_line_source_stdin_and_rejects(monkeypatch):
    reads = Reads([b"1,2\n3,", b"4\r", b"\n5,6\r7,8", b"\n\n9,"])
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=reads))
    batches = open_line_source("-")
    # a read ending in \r waits for the next to tell \r from \r\n
    assert list(batches) == [["1,2"], ["3,4", "5,6"], ["7,8", ""], ["9,"]]
    assert set(reads.sizes) == {65536}
    with pytest.raises(ConfigError):
        open_line_source("udp:1:2")
    with pytest.raises(ConfigError):
        open_line_source("tcp:localhost")
    with pytest.raises(ConfigError):
        open_line_source("tcp:localhost:notaport")


def _serve_once(*chunks):
    """A TCP server that sends ``chunks`` in turn to its first client and
    closes; returns (source, join)."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(30)

    def serve():
        conn, _ = server.accept()
        for chunk in chunks:
            conn.sendall(chunk)
        conn.close()

    thread = threading.Thread(target=serve)
    thread.start()

    def join():
        thread.join(timeout=30)
        server.close()
        assert not thread.is_alive()
    return f"tcp:127.0.0.1:{server.getsockname()[1]}", join


def test_open_line_source_tcp_roundtrip():
    source, join = _serve_once(b"1.0,2.0\n3.0,4.0\r\n5.0,6.0\r7.0,8.0")
    batches = open_line_source(source)
    lines = [line for batch in batches for line in batch]
    batches.close()
    join()
    assert lines == ["1.0,2.0", "3.0,4.0", "5.0,6.0", "7.0,8.0"]


@pytest.mark.parametrize("tcp", [False, True])
def test_both_sources_break_lines_at_cr_lf_and_crlf(monkeypatch, tcp):
    cfg = make_config(window=20, hop=5)
    buffer = np.random.default_rng(12).normal(size=(2, 30)).astype(np.float32)
    texts = [line.rstrip("\n") for line in buffer_lines(buffer)]
    ends = ["\r", "\n", "\r\n"]
    payload = "".join(text + ends[i % 3] for i, text in enumerate(texts)).encode()
    if tcp:
        source, join = _serve_once(payload)
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload)))
    batches = open_line_source(source if tcp else "-")
    events = list(stream_classify_batches(batches, cfg))
    batches.close()
    if tcp:
        join()
    want = list(stream_classify(texts, cfg))
    assert [e.frame_index for e in events] == [e.frame_index for e in want] == \
        [4, 9, 14, 19, 24, 29]
    assert [e.probs.tobytes() for e in events] == [e.probs.tobytes() for e in want]


def test_tcp_stream_turns_undecodable_bytes_into_an_error_record():
    cfg = make_config()
    buffer = np.random.default_rng(9).normal(size=(2, 20)).astype(np.float32)
    good = [line.encode() for line in buffer_lines(buffer)]
    source, join = _serve_once(b"".join(good[:7]) + b"\xff\xfe,0.3\n" + b"".join(good[7:]))
    batches = open_line_source(source)
    out = list(stream_classify_batches(batches, cfg))
    batches.close()
    join()
    errors = [r for r in out if isinstance(r, StreamErrorRecord)]
    hops = [r for r in out if isinstance(r, StreamPrediction)]
    assert [(r.line_number, r.message) for r in errors] == [(8, "non-numeric value in frame")]
    want = list(stream_classify(buffer_lines(buffer), cfg))
    assert [h.frame_index for h in hops] == [h.frame_index for h in want] == [4, 9, 14, 19]
    for got, ref in zip(hops, want):
        assert got.probs.tobytes() == ref.probs.tobytes()


def _long_line_events(monkeypatch, tcp, chunks, cfg):
    """The events of a stream of ``chunks`` from stdin or TCP, and the peak
    of traced memory while it is read and classified."""
    if tcp:
        source, join = _serve_once(*chunks)
    else:
        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=Reads(chunks)))
    tracemalloc.start()
    try:
        batches = open_line_source(source if tcp else "-")
        events = list(stream_classify_batches(batches, cfg))
        batches.close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if tcp:
        join()
    return events, peak


@pytest.mark.parametrize("tcp", [False, True])
def test_line_past_the_cap_is_one_error_record_in_bounded_memory(monkeypatch, tcp):
    cfg = make_config(window=20, hop=5)
    lines = buffer_lines(np.random.default_rng(14).normal(size=(2, 30)).astype(np.float32))
    junk = b"7" * READ_BYTES
    chunks = [junk] * 1024 + [b"\n" + "".join(lines).encode()]    # 64 MiB with no line end
    events, peak = _long_line_events(monkeypatch, tcp, chunks, cfg)
    errors = [e for e in events if isinstance(e, StreamErrorRecord)]
    assert [(e.line_number, e.message, e.raw) for e in errors] == \
        [(1, f"line longer than {LINE_CHARS} characters", "7" * EXCERPT_CHARS)]
    hops = [(e.frame_index, e.probs.tobytes()) for e in events if isinstance(e, StreamPrediction)]
    want = [(e.frame_index, e.probs.tobytes()) for e in stream_classify(lines, cfg)]
    assert hops == want and len(hops) == 6
    # the line is never held whole: LINE_CHARS plus a few reads' buffers at
    # most (about 3 reads on stdin, 6 on TCP, whose socket file adds its own)
    assert LINE_CHARS < 3 * READ_BYTES and peak < 8 * READ_BYTES


def test_line_at_the_cap_still_parses(monkeypatch):
    cfg = make_config(window=20, hop=5)
    texts = [line.rstrip("\n") for line in
             buffer_lines(np.random.default_rng(15).normal(size=(2, 10)).astype(np.float32))]
    at_cap = texts[0].rjust(LINE_CHARS)             # leading blanks: the same frame
    past_cap = texts[1].rjust(LINE_CHARS + 1)
    data = "\n".join([at_cap, past_cap] + texts[1:]).encode()
    chunks = [data[at:at + READ_BYTES] for at in range(0, len(data), READ_BYTES)]
    events, _ = _long_line_events(monkeypatch, False, chunks, cfg)
    errors = [e for e in events if isinstance(e, StreamErrorRecord)]
    assert [(e.line_number, e.message, e.raw) for e in errors] == \
        [(2, f"line longer than {LINE_CHARS} characters", " " * EXCERPT_CHARS)]
    hops = [(e.frame_index, e.probs.tobytes()) for e in events if isinstance(e, StreamPrediction)]
    want = [(e.frame_index, e.probs.tobytes()) for e in stream_classify(texts, cfg)]
    assert hops == want and len(hops) == 2


def test_a_line_past_the_cap_is_a_record_when_given_directly_too():
    cfg = make_config(window=1, hop=1)
    assert list(stream_classify(["1.5,-2".rjust(LINE_CHARS + 1)], cfg)) == [StreamErrorRecord(
        1, f"line longer than {LINE_CHARS} characters", " " * EXCERPT_CHARS)]
    at_cap = list(stream_classify(["1.5,-2".rjust(LINE_CHARS)], cfg))
    assert len(at_cap) == 1 and isinstance(at_cap[0], StreamPrediction)


def test_open_line_source_tcp_refused():
    with pytest.raises(InputError):
        open_line_source("tcp:127.0.0.1:1")      # nothing listens on port 1


def _stream_from_peer(tmp_path, capsys, monkeypatch, payload, reset):
    """``intentcnn stream`` over TCP from a peer that sends ``payload`` and then
    closes (FIN) or resets (RST) the connection; returns (exit code, out, err)."""
    cfg = make_config()
    save_model(cfg.network, str(tmp_path / "model.intc"))
    save_stats(cfg.stats, ("a", "b"), str(tmp_path / "stats.csv"))
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(30)
    source = f"tcp:127.0.0.1:{server.getsockname()[1]}"
    connected = threading.Event()

    def serve():
        conn, _ = server.accept()
        # a reset that overtakes connect() would fail the connect instead
        connected.wait(30)
        conn.sendall(payload)
        if reset:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        lines = open_line_source(source)
        connected.set()
        monkeypatch.setattr(cli, "open_line_source", lambda _: lines)
        code = main(["stream", "--model", str(tmp_path / "model.intc"),
                     "--stats", str(tmp_path / "stats.csv"), "--window", "20", "--hop", "5",
                     "--source", source])
        lines.close()
    finally:
        connected.set()
        thread.join(timeout=30)
        server.close()
    assert not thread.is_alive()
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def test_tcp_stream_dropped_by_its_peer(tmp_path, capsys, monkeypatch):
    buffer = np.random.default_rng(11).normal(size=(2, 250)).astype(np.float32)
    payload = "".join(buffer_lines(buffer)).encode() + b"0.25,"
    code, out, err = _stream_from_peer(tmp_path, capsys, monkeypatch, payload,
                                       reset=False)
    assert (code, err) == (0, "")
    assert len(out) == 250 // 5 + 1
    assert [int(line.split(",")[0]) for line in out[:-1]] == list(range(4, 250, 5))
    assert out[-1] == "error,line=251,message=non-numeric value in frame"

    code, reset_out, err = _stream_from_peer(tmp_path, capsys, monkeypatch, payload,
                                             reset=True)
    assert (code, err) == (4, "error: [Errno 104] Connection reset by peer\n")
    assert reset_out == out[:len(reset_out)]
