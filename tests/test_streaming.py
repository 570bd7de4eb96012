"""Sliding-window streaming tests: geometry, batch equivalence, wire formats."""

import socket
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from intentcnn.dataset import StandardizationStats
from intentcnn.errors import ConfigError, StreamError
from intentcnn.model import NetworkConfig, build_network
from intentcnn.streaming import (
    StreamErrorRecord,
    StreamPrediction,
    WindowConfig,
    Window,
    classify_window,
    format_error_record,
    format_prediction,
    open_line_source,
    parse_frame_line,
    stream_classify,
    window_extract,
)

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


def reference_probs(cfg, buffer, end):
    """Independent construction of the standardized padded window at frame end."""
    window, input_frames = cfg.window_frames, cfg.network.config.input_frames
    real = min(end + 1, window)
    padded = np.zeros((cfg.channels, input_frames), dtype=np.float32)
    chunk = buffer[:, end + 1 - real: end + 1].astype(np.float64)
    standardized = (chunk - cfg.stats.mean[:, None]) / cfg.stats.std[:, None]
    padded[:, window - real:window] = standardized.astype(np.float32)
    return cfg.network.predict_proba(padded[None, :, :])[0]


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
    with pytest.raises(StreamError):
        WindowConfig(network=network, stats=bad_stats)


def test_class_name_fallback():
    cfg = make_config()
    assert cfg.class_name(2) == "class2"
    named = make_config(class_names=("grasp", "survey", "other"))
    assert named.class_name(1) == "survey"


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
    with pytest.raises(StreamError):
        window_extract(np.zeros((3, 10), dtype=np.float32), cfg)
    with pytest.raises(StreamError):
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
    ["", " 1.5", "1e39", "-nan", "inf", "3.40282357e38", "\u0661\u0662", "1_000", "0x10",
     "\ufffd", "\x00", "1\r", "oops"]))
_LINES = st.one_of(st.text(max_size=12), st.lists(_TOKENS, min_size=1, max_size=3).map(",".join),
                   st.tuples(_NUMBER, _NUMBER).map(",".join))
_FUZZ_CONFIG = make_config(window=4, hop=2)


@settings(max_examples=200, deadline=None, database=None)
@given(lines=st.lists(_LINES, max_size=30))
def test_stream_classify_survives_arbitrary_text(lines):
    cfg = _FUZZ_CONFIG
    consumed = []

    def source():
        for line in lines:
            consumed.append(line)
            yield line

    errors = 0
    for event in stream_classify(source(), cfg):
        if isinstance(event, StreamErrorRecord):
            errors += 1
            assert event.line_number == len(consumed)
        else:
            assert isinstance(event, StreamPrediction)
            accepted = sum(1 for line in consumed if line.strip()) - errors
            assert event.frame_index + 1 == accepted and accepted % cfg.hop_frames == 0


def test_prediction_probs_must_sum_to_one():
    with pytest.raises(StreamError):
        StreamPrediction(frame_index=0, label=0,
                         probs=np.array([0.5, 0.4], dtype=np.float32),
                         warm_up=False)


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def test_parse_frame_line():
    frame = parse_frame_line("1.5,-2.25", channels=2)
    np.testing.assert_array_equal(frame, np.array([1.5, -2.25], dtype=np.float32))
    with pytest.raises(StreamError):
        parse_frame_line("1.5", channels=2)
    with pytest.raises(StreamError):
        parse_frame_line("1.5,x", channels=2)


def test_parse_frame_line_float32_range():
    largest = np.finfo(np.float32).max
    frame = parse_frame_line("3.40282347e+38,-3.40282347e+38", channels=2)
    np.testing.assert_array_equal(frame, np.array([largest, -largest], dtype=np.float32))
    for text in ("3.4028236e38,0", "0,-1e39", "inf,0", "0,nan"):
        with pytest.raises(StreamError, match="non-finite"):
            parse_frame_line(text, channels=2)


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

def test_open_line_source_stdin_and_rejects():
    import sys
    assert open_line_source("-") is sys.stdin
    with pytest.raises(ConfigError):
        open_line_source("udp:1:2")
    with pytest.raises(ConfigError):
        open_line_source("tcp:localhost")
    with pytest.raises(ConfigError):
        open_line_source("tcp:localhost:notaport")


def test_open_line_source_tcp_roundtrip():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        conn, _ = server.accept()
        conn.sendall(b"1.0,2.0\n3.0,4.0\n")
        conn.close()

    thread = threading.Thread(target=serve)
    thread.start()
    fh = open_line_source(f"tcp:127.0.0.1:{port}")
    lines = list(fh)
    fh.close()
    thread.join()
    server.close()
    assert lines == ["1.0,2.0\n", "3.0,4.0\n"]


def test_tcp_stream_turns_undecodable_bytes_into_an_error_record():
    cfg = make_config()
    buffer = np.random.default_rng(9).normal(size=(2, 20)).astype(np.float32)
    good = [line.encode() for line in buffer_lines(buffer)]
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        conn, _ = server.accept()
        conn.sendall(b"".join(good[:7]) + b"\xff\xfe,0.3\n" + b"".join(good[7:]))
        conn.close()

    thread = threading.Thread(target=serve)
    thread.start()
    fh = open_line_source(f"tcp:127.0.0.1:{port}")
    out = list(stream_classify(fh, cfg))
    fh.close()
    thread.join()
    server.close()
    errors = [r for r in out if isinstance(r, StreamErrorRecord)]
    hops = [r for r in out if isinstance(r, StreamPrediction)]
    assert [(r.line_number, r.message) for r in errors] == [(8, "non-numeric value in frame")]
    want = list(stream_classify(buffer_lines(buffer), cfg))
    assert [h.frame_index for h in hops] == [h.frame_index for h in want] == [4, 9, 14, 19]
    for got, ref in zip(hops, want):
        assert got.probs.tobytes() == ref.probs.tobytes()


def test_open_line_source_tcp_refused():
    with pytest.raises(StreamError):
        open_line_source("tcp:127.0.0.1:1")      # nothing listens on port 1
