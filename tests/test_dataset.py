"""Tests for trace ingestion, preprocessing, splitting and synthesis."""

import csv
import io
import math
import re
import warnings
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from intentcnn import dataset
from intentcnn.config import parse_kv_file
from intentcnn.dataset import (
    LabeledDataset,
    SplitSpec,
    StandardizationStats,
    SynthSpec,
    Trace,
    label_from_filename,
    largest_remainder_counts,
    load_csv_dir,
    load_stats,
    merge_datasets,
    pad_traces,
    padded_length,
    parse_synth_spec,
    parse_trace_csv,
    prepare_input,
    relabel_binary,
    rename_classes,
    save_stats,
    select_classes,
    standardize_apply,
    standardize_fit,
    stratified_split,
    synth_generate,
    template_waveform,
    write_trace_csv,
)
from intentcnn.errors import ConfigError, FormatError, InputError, NumericError

import oracles

# shared by the property tests; a failure prints its @reproduce_failure blob
_SETTINGS = settings(max_examples=200, deadline=None, database=None, print_blob=True)


def make_dataset(class_sizes, channels=2, frames=10, vocab=None, seed=0):
    """Small handmade dataset: class k gets values offset by k for separability."""
    rng = np.random.default_rng(seed)
    traces, labels = [], []
    names = tuple(f"c{c}" for c in range(channels))
    for k, size in enumerate(class_sizes):
        for _ in range(size):
            values = rng.normal(float(k), 0.1, size=(channels, frames)).astype(np.float32)
            traces.append(Trace(values=values, channel_names=names))
            labels.append(k)
    if vocab is None:
        vocab = tuple(f"task{k + 1}" for k in range(len(class_sizes)))
    return LabeledDataset(traces=traces, labels=np.array(labels), vocab=vocab)


# ---------------------------------------------------------------------------
# Trace / LabeledDataset validation
# ---------------------------------------------------------------------------

def test_trace_basic_properties():
    trace = Trace(values=np.zeros((3, 7)), channel_names=("a", "b", "c"))
    assert trace.channels == 3
    assert trace.frames == 7
    assert trace.source_frames == 7
    assert trace.values.dtype == np.float32


def test_trace_rejects_bad_shapes_and_values():
    with pytest.raises(InputError):
        Trace(values=np.zeros(5), channel_names=("a",))
    with pytest.raises(InputError):
        Trace(values=np.zeros((2, 4)), channel_names=("a",))
    with pytest.raises(NumericError):
        Trace(values=np.array([[np.nan, 0.0]]), channel_names=("a",))
    with pytest.raises(InputError):
        Trace(values=np.zeros((1, 4)), channel_names=("a",), source_frames=5)


def test_dataset_rejects_mismatched_traces():
    t1 = Trace(values=np.zeros((2, 4)), channel_names=("a", "b"))
    t2 = Trace(values=np.zeros((3, 4)), channel_names=("a", "b", "c"))
    with pytest.raises(InputError, match="must share channel count"):
        LabeledDataset(traces=[t1, t2], labels=np.array([0, 1]), vocab=("x", "y"))
    with pytest.raises(InputError, match=re.escape("labels must lie in [0, 2)")):
        LabeledDataset(traces=[t1], labels=np.array([2]), vocab=("x", "y"))


# ---------------------------------------------------------------------------
# CSV round trip and validation
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 5.0, size=(4, 50)).astype(np.float32)
    trace = Trace(values=values, channel_names=("fx", "fy", "fz", "px"))
    path = str(tmp_path / "task1_trial01.csv")
    write_trace_csv(trace, path)
    back = parse_trace_csv(path)
    npt.assert_array_equal(back.values, values)
    assert back.channel_names == ("fx", "fy", "fz", "px")


# 9th-digit ties, which "%.9g" rounds half to even (1048576.125 is 1048576.12),
# and the edges of fixed notation: float32(1e-4) is 9.99999975e-05, the next
# float32 0.000100000005, and float32(1e9) is 1e+09
_TIES = [1048576.125, 1048576.375, 131072.0625, 131072.1875, 2.0 ** -13, 3 * 2.0 ** -13]
_POWERS_OF_TEN = np.array([10.0 ** k for k in range(-6, 11)], dtype=np.float32)
_EDGES = np.concatenate([np.float32(_TIES), _POWERS_OF_TEN,
                         np.nextafter(_POWERS_OF_TEN, np.float32(np.inf)),
                         np.nextafter(_POWERS_OF_TEN, np.float32(0.0)),
                         np.float32([1e-4, 1.00000005e-4, 999999936.0, 1e9])])


def test_write_trace_csv_is_byte_identical_to_the_per_row_csv_writer(tmp_path):
    rng = np.random.default_rng(1000)
    bits = rng.integers(0, 2 ** 32, size=(24, 400), dtype=np.uint64).astype(np.uint32)
    values = bits.view(np.float32)                  # every exponent, subnormals included
    values[~np.isfinite(values)] = 0.0
    info = np.finfo(np.float32)
    values[:, :8] = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                     info.tiny, -info.tiny, info.max, -info.max]
    values[:, 8:40] = rng.normal(0.0, 5.0, size=(24, 32))
    # one edge value per frame, its sign alternating across channels
    values[:, 40:40 + len(_EDGES)] = _EDGES * np.where(np.arange(24) % 2, -1, 1)[:, None]
    # every fixed-notation exponent, in frames of fixed-notation cells only
    values[:, 120:250] = 10.0 ** rng.uniform(-4, 9, size=(24, 130)) * rng.choice([-1, 1], (24, 130))
    names = ("a,b", 'say "hi"', "two\nlines", " lead", "fx") + tuple(f"c{c}" for c in range(5, 24))
    for channels in (1, 5, 24):
        trace = Trace(values=values[:channels], channel_names=names[:channels])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trace_csv(trace, str(got))
        oracles.write_trace_csv(trace, str(want))
        assert got.read_bytes() == want.read_bytes()


def test_write_trace_csv_stamps_stay_right_across_stamp_blocks(tmp_path):
    # the stamp column is cached for one block count and grows in 4096-frame
    # blocks; the last frame holds a 0, whose row gets its cells from "%"
    dataset._stamp_column.cache_clear()
    rng = np.random.default_rng(11)
    for frames in (10, 5000, 10):
        values = rng.normal(size=(3, frames)).astype(np.float32)
        values[1, -1] = 0.0
        trace = Trace(values=values, channel_names=("a", "b", "c"))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trace_csv(trace, str(got))
        oracles.write_trace_csv(trace, str(want))
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("error", [-1e-9, 1e-9])
def test_write_trace_csv_corrects_a_log10_an_ulp_low_at_a_power_of_ten(
        tmp_path, monkeypatch, error):
    # this host's log10 is exact at powers of ten; another's may be an ulp off,
    # a million times less than this
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    values = np.concatenate([_POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, np.float32(0.0))])
    trace = Trace(values=np.stack([values, -values]), channel_names=("a", "b"))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trace_csv(trace, str(got))
    monkeypatch.undo()
    oracles.write_trace_csv(trace, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_trace_csv_round_trips_at_the_sample_rate(tmp_path):
    values = np.random.default_rng(3).normal(size=(2, 400)).astype(np.float32)
    path = str(tmp_path / "task1_trial01.csv")
    write_trace_csv(Trace(values=values, channel_names=("fx", "fy")), path)
    back = parse_trace_csv(path)
    assert back.values.tobytes() == values.tobytes()


# the trace reader strips whitespace around header names, so none sits at either end
_CHANNEL_NAMES = st.lists(st.text(st.sampled_from('ab \r\n,"'), min_size=1, max_size=6)
                          .filter(lambda name: name == name.strip()),
                          min_size=1, max_size=3, unique=True)


@_SETTINGS
@given(names=_CHANNEL_NAMES)
def test_channel_names_with_quotes_commas_and_line_breaks_read_back(tmp_path_factory, names):
    channels = len(names)
    trace = Trace(values=np.arange(2 * channels, dtype=np.float32).reshape(channels, 2),
                  channel_names=names)
    trace_path = str(tmp_path_factory.getbasetemp() / "names.csv")
    write_trace_csv(trace, trace_path)
    back = parse_trace_csv(trace_path)
    assert back.channel_names == tuple(names)
    assert back.values.tobytes() == trace.values.tobytes()
    stats_path = str(tmp_path_factory.getbasetemp() / "names_stats.csv")
    save_stats(StandardizationStats(mean=np.zeros(channels), std=np.ones(channels)), names,
               stats_path)
    assert load_stats(stats_path)[1] == tuple(names)


# everything csv.reader or str.splitlines treats specially, except the quote
_UNQUOTED_CHARS = ",\x00\x0b\x0c\x1c\x85\u2028 0123456789.e-"
_UNQUOTED_RECORD = st.text(st.sampled_from(_UNQUOTED_CHARS), max_size=8)
_TERMINATOR = st.sampled_from(["\n", "\r", "\r\n"])


@_SETTINGS
@given(data=st.data())
def test_quote_free_text_is_split_as_csv_reader_splits_it_without_csv(tmp_path_factory, data):
    draw = data.draw
    if draw(st.booleans()):
        records = draw(st.lists(_UNQUOTED_RECORD, max_size=6))     # blank ones included
        text = "".join(record + draw(_TERMINATOR) for record in records)
        if records and draw(st.booleans()):
            text = text.rstrip("\r\n")                            # no final terminator
    else:
        text = draw(st.text(st.sampled_from(_UNQUOTED_CHARS + "\r\n"), max_size=40))
    want = list(csv.reader(io.StringIO(text, newline="")))
    path = tmp_path_factory.getbasetemp() / "unquoted.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(dataset.csv, "reader", side_effect=AssertionError("csv.reader")):
        assert dataset._read_csv_rows(str(path)) == want


def test_parse_trace_csv_rejects_malformed(tmp_path):
    cases = {
        "empty.csv": "",
        "no_header.csv": "0.00,1.0\n0.01,2.0\n",
        "no_rows.csv": "t,a\n",
        "one_col.csv": "t\n0.0\n",
        "dup_names.csv": "t,a,a\n0.0,1,2\n0.01,3,4\n",
        "bad_cell.csv": "t,a\n0.0,1\n0.01,oops\n",
        "ragged.csv": "t,a\n0.0,1\n0.01\n",
        "time_back.csv": "t,a\n0.0,1\n0.02,2\n0.01,3\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError):
            parse_trace_csv(str(path))


def test_parse_trace_csv_checks_sample_rate(tmp_path):
    path = tmp_path / "task1_trial01.csv"
    write_trace_csv(Trace(values=np.ones((1, 20)), channel_names=("a",)), str(path))
    parse_trace_csv(str(path))
    path.write_text("t,a\n" + "".join(f"{f / 50:.4f},1\n" for f in range(20)))
    with pytest.raises(FormatError, match=r"inferred sample rate 50\.000 Hz is outside 1% "
                                          r"of expected 100 Hz"):
        parse_trace_csv(str(path))


# cells that probe the number rule: blanks, non-finite and float32-overflowing
# values, the float32 boundary, spellings float() accepts or rejects, U+001C-U+001F
# (which NumPy's text reader strips and float() does not) inside and around a
# value, other Unicode whitespace as padding, and text that needs CSV quoting
_ODD_CELLS = ("", " ", "nan", "-nan", "inf", "-Infinity", "1e39", "-1e39", "3.40282357e38",
              "3.4028235e38", "\u0661\u0662", "\u0663.5", "1_000", "0x10", " 1.5 ", "1e-50",
              "oops", "1,5", "2\n5", '"', "1\x1c", "\x1d1", "1\x1e5", "\x1f", "\x851.5",
              "2\xa0", "\u20033\u2003")
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.floats(width=32, allow_nan=False, allow_infinity=False)
                     .map(lambda v: f"{v:.9g}"),
                     st.integers(-10 ** 6, 10 ** 6).map(str))


def _draw_cell(draw) -> str:
    return draw(st.sampled_from(_ODD_CELLS) if draw(st.integers(0, 7)) == 0 else _NUMBERS)


def _csv_field(cell: str, quote: bool) -> str:
    if quote or any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@_SETTINGS
@given(data=st.data(), channels=st.integers(1, 3), frames=st.integers(1, 5),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_parse_trace_csv_matches_per_cell_oracle(tmp_path_factory, data, channels, frames,
                                                 newline):
    draw = data.draw
    header = ["t", "a", "b", "c"][:channels + 1]
    if draw(st.integers(0, 15)) == 0:
        header = [_draw_cell(draw) for _ in header]
    rows = [header]
    for i in range(frames):
        time = f"{i / 100:.4f}" if draw(st.integers(0, 7)) else _draw_cell(draw)
        row = [time] + [_draw_cell(draw) for _ in range(channels)]
        ragged = draw(st.integers(0, 19))
        if ragged == 2:
            row = [draw(st.sampled_from(["", " ", "\t \x0b"]))]     # a blank line
        rows.append(row[:-1] if ragged == 0 else row + ["0"] if ragged == 1 else row)
    text = newline.join(",".join(_csv_field(cell, draw(st.integers(0, 3)) == 0) for cell in row)
                        for row in rows)
    path = tmp_path_factory.getbasetemp() / "grid.csv"
    path.write_text(text + draw(st.sampled_from(["", newline])), encoding="utf-8", newline="")
    try:
        want_values, want_names = oracles.parse_trace_csv_cells(str(path))
    except FormatError as exc:
        want_values, want_error = None, str(exc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want_values is None:
            with pytest.raises(FormatError) as got:
                parse_trace_csv(str(path))
            assert str(got.value) == want_error
        else:
            trace = parse_trace_csv(str(path))
            assert trace.values.shape == want_values.shape
            assert trace.values.tobytes() == want_values.tobytes()
            assert trace.channel_names == want_names


# text where NumPy's text reader and float() could part: signs, exponents,
# underscores, non-ASCII digits, NUL, and every kind of whitespace and line end
_READER_TEXT = st.text(st.sampled_from("0123456789.eE+-_ \t\x0b\x0c\r\n\x00\x1c\x1d\x1e"
                                       "\x1f\x85\xa0\u2003\u0661infatyINF"), max_size=10)
_READER_CELL = st.one_of(_NUMBERS, st.sampled_from(_ODD_CELLS), _READER_TEXT,
                         st.tuples(_READER_TEXT, _NUMBERS, _READER_TEXT).map("".join))


def _first_fault(line, width):
    """The fault _read_rows names for a comma-separated line, found per cell
    with float(): (cells, None) for the wrong count, (cells, column) for the
    first cell float() rejects; None for a line that reads."""
    cells = line.split(",") if line else []
    if len(cells) != width:
        return cells, None
    for c, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return cells, c
    return None


@_SETTINGS
@given(data=st.data(), width=st.integers(1, 3))
def test_read_numbers_is_float_per_cell(data, width):
    draw = data.draw
    lines = draw(st.lists(st.one_of(
        st.lists(_READER_CELL, min_size=width, max_size=width).map(",".join),
        _READER_TEXT), min_size=1, max_size=6))
    want_faults = {r: fault for r, line in enumerate(lines)
                   if (fault := _first_fault(line, width)) is not None}
    good = [r for r in range(len(lines)) if r not in want_faults]
    want = np.array([[float(cell) for cell in lines[r].split(",")] for r in good]
                    ).reshape(len(good), width)
    with warnings.catch_warnings(), \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        warnings.simplefilter("error")
        values, fits, faults = dataset._read_rows(lines, width)
    assert faults == want_faults
    assert values[good].tobytes() == want.tobytes()
    with np.errstate(over="ignore"):
        npt.assert_array_equal(fits[good], np.isfinite(want.astype(np.float32)))
    assert not fits[list(faults)].any()
    assert all(len(call.args[0]) > 1 for call in loadtxt.call_args_list)


def test_read_rows_sends_no_line_break_to_numpy():
    # NumPy's reader warns "input contained no data" when every row is a line break
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, fits, faults = dataset._read_rows(["\n", "\n"], 1)
    assert faults == {0: (["\n"], 0), 1: (["\n"], 0)} and not fits.any()


def test_read_numbers_leaves_what_numpy_misreads_to_float():
    lines = ["1.5,2", "-3e2,4"]
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(dataset, "_cells", wraps=dataset._cells) as per_row:
        values, _, faults = dataset._read_rows(lines, 2)
        npt.assert_array_equal(values, [[1.5, 2], [-300, 4]])
        assert not faults and loadtxt.call_count == 1 and per_row.call_count == 0
        assert dataset._read_rows(lines + ["1_000,\u0661"], 2)[0][2].tolist() == [1000, 1]
        assert loadtxt.call_count == 2 and per_row.call_count == 3   # NumPy rejects it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for odd in ("1\x1c", "\x1f1", "1\x1d5"):
            assert dataset._read_rows(lines + [f"{odd},5"], 2)[2] == {2: ([odd, "5"], 0)}
        for blank in ("", " "):
            fault = (dataset._cells(blank), None)
            assert dataset._read_rows([blank] + lines, 2)[2] == {0: fault}
            assert dataset._read_rows(lines + [blank], 2)[2] == {2: fault}


_ROWS = "".join(f"{i / 100:.4f},{i * 0.37!r},{-i}\n" for i in range(6))


@pytest.mark.parametrize("header", ['t,"c,01",c02\n', '"t","c01",c02\r\n', 't,"c\r\n01",c02\r'],
                         ids=["comma", "quoted-names", "line-break"])
def test_a_quoted_header_leaves_quote_free_rows_to_the_number_reader(tmp_path, header):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    names = next(csv.reader(io.StringIO(header, newline="")))

    def write(rows):
        plain.write_text("t,c01,c02\n" + rows, newline="")
        quoted.write_text(header + rows, newline="")

    write(_ROWS)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as fast:
        want, got = parse_trace_csv(str(plain)), parse_trace_csv(str(quoted))
    assert fast.call_count == 2
    assert got.channel_names == tuple(names[1:])
    assert got.values.tobytes() == want.values.tobytes()
    for bad_row, message in (("0.0600,1\n", "row 8 has 2 cells, expected 3"),
                             ("0.0600,1,x\n", "row 8, column 'c02': non-numeric value 'x'"),
                             ("0.0600,1,1e39\n", "row 8, column 'c02': non-finite value '1e39'")):
        write(_ROWS + bad_row)
        for path in (plain, quoted):
            with pytest.raises(FormatError) as info:
                parse_trace_csv(str(path))
            assert str(info.value) == f"{path}: {message}"
    write(_ROWS + '0.0600,"2.5",3\n')                 # a quote in a data row: csv reads it
    with mock.patch.object(np, "loadtxt") as fast:
        trace = parse_trace_csv(str(quoted))
    fast.assert_not_called()
    assert trace.values[:, -1].tolist() == [2.5, 3.0]


def test_parse_trace_csv_names_the_first_non_finite_cell(tmp_path):
    path = tmp_path / "trace.csv"
    for text, message in (
            ("t,a,b\n0.00,1,2\n0.01,1e39,nan\n", "row 3, column 'a': non-finite value '1e39'"),
            ("t,a,b\n0.00,1,3.40282357e38\n", "row 2, column 'b': non-finite value '3.40282357e38'"),
            ("t,a\ninf,1\n0.01,nan\n", "row 2, column 't': non-finite value 'inf'"),
            ("t,a\n0.00,nan\n0.01,x\n", "row 3, column 'a': non-numeric value 'x'")):
        path.write_text(text)
        with pytest.raises(FormatError) as got:
            parse_trace_csv(str(path))
        assert str(got.value) == f"{path}: {message}"
    path.write_text("t,a\n0.00,3.4028235e38\n0.01,-3.4028235e38\n")
    largest = np.finfo(np.float32).max
    npt.assert_array_equal(parse_trace_csv(str(path)).values, [[largest, -largest]])


def test_parse_trace_csv_time_deltas_beyond_float64_are_a_rate_error(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,a\n-1e308,1\n1e308,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="inferred sample rate 0.000 Hz"):
            parse_trace_csv(str(path))


@pytest.mark.parametrize("reader, header", [(parse_trace_csv, "t,a\n"),
                                             (load_stats, "channel,mean,std\n")])
@pytest.mark.parametrize("bad_at", [0, 9000])     # past the first 8 KiB read block
def test_non_utf8_csv_is_a_format_error_naming_the_byte(tmp_path, reader, header, bad_at):
    path = tmp_path / "file.csv"
    good = (header + "".join(f"{i / 100:.2f},{i}\n" for i in range(2000))).encode()
    assert len(good) > bad_at
    path.write_bytes(good[:bad_at] + b"\xff\xfe" + good[bad_at:])
    with pytest.raises(FormatError) as got:
        reader(str(path))
    assert str(got.value) == f"{path}: not UTF-8 at byte {bad_at}"
    assert got.value.__cause__ is None and got.value.__suppress_context__


def test_label_from_filename():
    assert label_from_filename("task3_trial07.csv") == (3, 7)
    assert label_from_filename("/some/dir/task12_trial00.csv") == (12, 0)
    for bad in ("trial01_task1.csv", "task_trial01.csv", "task1_trial2.txt", "task1.csv"):
        with pytest.raises(InputError):
            label_from_filename(bad)


def test_load_csv_dir_round_trip(tmp_path):
    spec = SynthSpec(num_classes=2, trials_per_class=3, channels=3,
                     frame_min=20, frame_max=30, seed=5)
    data = synth_generate(spec)
    trial_counter = {}
    for trace, label in zip(data.traces, data.labels):
        m = trial_counter.get(int(label), 0) + 1
        trial_counter[int(label)] = m
        write_trace_csv(trace, str(tmp_path / f"task{label + 1}_trial{m:02d}.csv"))
    back = load_csv_dir(str(tmp_path))
    assert back.vocab == ("task1", "task2")
    assert len(back) == 6
    npt.assert_array_equal(np.sort(back.labels), np.repeat([0, 1], 3))
    # file order is sorted by name, which matches generation order here
    for orig, reread in zip(data.traces, back.traces):
        npt.assert_array_equal(orig.values, reread.values)


def test_load_csv_dir_requires_files(tmp_path):
    with pytest.raises(FormatError):
        load_csv_dir(str(tmp_path))


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------

def test_padded_length():
    assert padded_length(1700, 1000) == 2000
    assert padded_length(1000, 1000) == 1000
    assert padded_length(999, 1000) == 1000
    assert padded_length(1001, 1000) == 2000
    assert padded_length(1, 1000) == 1000


def test_pad_traces_appends_zeros():
    trace = Trace(values=np.array([[1.0, 2.0, 3.0]]), channel_names=("a",))
    data = LabeledDataset(traces=[trace], labels=np.array([0]), vocab=("x",))
    padded = pad_traces(data, block_frames=5)
    npt.assert_array_equal(padded.traces[0].values, [[1.0, 2.0, 3.0, 0.0, 0.0]])
    assert padded.traces[0].source_frames == 3
    assert padded.traces[0].frames == 5


def test_pad_traces_common_length_and_target_override():
    t1 = Trace(values=np.ones((1, 30)), channel_names=("a",))
    t2 = Trace(values=np.ones((1, 45)), channel_names=("a",))
    data = LabeledDataset(traces=[t1, t2], labels=np.array([0, 0]), vocab=("x",))
    padded = pad_traces(data, block_frames=20)
    assert all(t.frames == 60 for t in padded.traces)
    forced = pad_traces(data, block_frames=20, target_frames=100)
    assert all(t.frames == 100 for t in forced.traces)
    with pytest.raises(InputError):
        pad_traces(data, block_frames=20, target_frames=40)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_fit_frozen_values():
    # population stats of {2, 4, 6}: mean 4, std sqrt(8/3)
    trace = Trace(values=np.array([[2.0, 4.0, 6.0]]), channel_names=("a",))
    data = LabeledDataset(traces=[trace], labels=np.array([0]), vocab=("x",))
    stats = standardize_fit(data)
    npt.assert_allclose(stats.mean, [4.0], rtol=0, atol=1e-12)
    npt.assert_allclose(stats.std, [1.6329931618554518], rtol=1e-12)
    out = standardize_apply(data, stats)
    npt.assert_allclose(out.traces[0].values,
                        [[-1.224744871391589, 0.0, 1.224744871391589]], rtol=1e-6)


def test_standardize_ignores_padded_frames():
    # same {2,4,6} payload but padded to 6 frames: stats and output must not change
    values = np.array([[2.0, 4.0, 6.0, 0.0, 0.0, 0.0]], dtype=np.float32)
    trace = Trace(values=values, channel_names=("a",), source_frames=3)
    data = LabeledDataset(traces=[trace], labels=np.array([0]), vocab=("x",))
    stats = standardize_fit(data)
    npt.assert_allclose(stats.mean, [4.0], atol=1e-12)
    npt.assert_allclose(stats.std, [1.6329931618554518], rtol=1e-12)
    out = standardize_apply(data, stats)
    npt.assert_array_equal(out.traces[0].values[:, 3:], np.zeros((1, 3)))
    npt.assert_allclose(out.traces[0].values[:, :3],
                        [[-1.224744871391589, 0.0, 1.224744871391589]], rtol=1e-6)


def test_standardize_pools_across_traces():
    t1 = Trace(values=np.array([[1.0, 1.0]]), channel_names=("a",))
    t2 = Trace(values=np.array([[3.0, 3.0, 3.0, 3.0, 3.0, 3.0]]), channel_names=("a",))
    data = LabeledDataset(traces=[t1, t2], labels=np.array([0, 0]), vocab=("x",))
    stats = standardize_fit(data)
    # pooled mean over 8 frames: (2*1 + 6*3) / 8 = 2.5
    npt.assert_allclose(stats.mean, [2.5], atol=1e-12)


def test_standardize_constant_channel_gets_unit_std():
    trace = Trace(values=np.full((1, 5), 7.0), channel_names=("a",))
    data = LabeledDataset(traces=[trace], labels=np.array([0]), vocab=("x",))
    stats = standardize_fit(data)
    npt.assert_array_equal(stats.std, [1.0])
    out = standardize_apply(data, stats)
    npt.assert_allclose(out.traces[0].values, np.zeros((1, 5)), atol=1e-6)


def test_standardize_apply_checks_channels():
    trace = Trace(values=np.ones((2, 4)), channel_names=("a", "b"))
    data = LabeledDataset(traces=[trace], labels=np.array([0]), vocab=("x",))
    stats = StandardizationStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(InputError):
        standardize_apply(data, stats)



def test_standardization_stats_reject_non_finite():
    for mean, std in (([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]),
                      ([np.inf, 0.0], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0])):
        with pytest.raises(InputError, match="finite"):
            StandardizationStats(mean=np.array(mean), std=np.array(std))


def test_prepare_input_standardizes_into_zero_frame():
    stats = StandardizationStats(mean=np.array([1.0, -2.0]), std=np.array([2.0, 0.5]))
    raw = np.array([[1.0, 3.0], [-2.0, -1.0]], dtype=np.float32)
    out = prepare_input(raw, stats, input_frames=5, offset=2)
    assert out.dtype == np.float32 and out.shape == (2, 5)
    npt.assert_array_equal(out, [[0, 0, 0, 1, 0], [0, 0, 0, 2, 0]])
    with pytest.raises(InputError, match="do not fit an input of 3 frames"):
        prepare_input(raw, stats, input_frames=3, offset=2)
    with pytest.raises(InputError, match="stats cover 2 channels but the input has 1"):
        prepare_input(raw[:1], stats, input_frames=5)


def _per_step_formula(raw, stats, input_frames, offset=0):
    """The criterion 8 recipe, allocating a float64 temporary per step."""
    out = np.zeros((raw.shape[0], input_frames), dtype=np.float32)
    out[:, offset:offset + raw.shape[1]] = (
        (raw.astype(np.float64) - stats.mean[:, None]) / stats.std[:, None]).astype(np.float32)
    return out


def test_prepare_input_is_the_criterion_8_recipe_bit_for_bit():
    rng = np.random.default_rng(8)
    stats = StandardizationStats(mean=np.array([0.1, -0.2, 0.3, 0.05]),
                                 std=np.array([1.5, 0.7, 2.0, 1.1]))
    buffer = rng.normal(0.0, 3.0, size=(4, 1300)).astype(np.float32)
    window, input_frames = 1000, 2000
    for end in (0, 99, 499, 998, 999, 1299):                # warm-up, then full windows
        real = min(end + 1, window)
        chunk = buffer[:, end + 1 - real: end + 1]
        recipe = _per_step_formula(chunk, stats, input_frames, window - real)
        got = prepare_input(chunk, stats, input_frames, offset=window - real)
        assert got.dtype == np.float32 and got.tobytes() == recipe.tobytes()


def test_prepare_input_is_the_per_step_formula_bit_for_bit():
    rng = np.random.default_rng(15)
    stats = StandardizationStats(mean=rng.normal(0.0, 2.0, 6), std=rng.uniform(0.1, 3.0, 6))
    trace = rng.normal(0.0, 3.0, size=(6, 1200)).astype(np.float32)
    ring = np.zeros((6, 2000), dtype=np.float32)
    ring[:, 300:1300] = trace[:, :1000]
    cases = [(trace, 2000, 0),                            # contiguous trace
             (trace.astype(np.float64), 1200, 0),         # float64 input, no padding
             (ring[:, 700:1300], 1000, 400),              # strided ring view at an offset
             (np.asfortranarray(trace)[:, ::3], 500, 50)]  # column-major, every third frame
    for raw, input_frames, offset in cases:
        got = prepare_input(raw, stats, input_frames, offset=offset)
        want = _per_step_formula(raw, stats, input_frames, offset)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    assert ring[:, 300:1300].tobytes() == trace[:, :1000].tobytes()      # input untouched


def test_prepare_input_overflow_is_inf_without_a_warning_when_silenced():
    stats = StandardizationStats(mean=np.array([-3e38, 0.0]), std=np.array([0.5, 1.0]))
    raw = np.array([[3e38, -3e38, 1.0], [1.0, 2.0, 3.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            got = prepare_input(raw, stats, input_frames=4, offset=1)
            want = _per_step_formula(raw, stats, 4, 1)
    assert got.tobytes() == want.tobytes()
    assert np.isposinf(got[0, [1, 3]]).all() and np.isfinite(got[0, 2])
    npt.assert_array_equal(got[1], [0.0, 1.0, 2.0, 3.0])


def test_stats_csv_round_trip_is_exact(tmp_path):
    stats = StandardizationStats(mean=np.array([0.1, -2.75, 1e-7]),
                                 std=np.array([1.5, 0.3333333333333333, 42.0]))
    path = str(tmp_path / "stats.csv")
    save_stats(stats, ("a", "b", "c"), path)
    back, names = load_stats(path)
    npt.assert_array_equal(back.mean, stats.mean)
    npt.assert_array_equal(back.std, stats.std)
    assert names == ("a", "b", "c")


# stats files and what load_stats reads from them: (names, means, stds), or
# the message after "<path>: "
_STATS_CORPUS = {
    "good": ("channel,mean,std\na,0.5,2.0\nb,-1e-3,0.25\n",
             (("a", "b"), [0.5, -1e-3], [2.0, 0.25])),
    "quoted_name": ('channel,mean,std\n"a,""b",0.5,2.0\nc,1,3\n',
                    (('a,"b', "c"), [0.5, 1.0], [2.0, 3.0])),
    "crlf": ("channel,mean,std\r\na,0.5,2.0\r\nb,1,3\r\n", (("a", "b"), [0.5, 1.0], [2.0, 3.0])),
    "underscore": ("channel,mean,std\na,1_0,2\n", (("a",), [10.0], [2.0])),   # as float() reads
    "blank_row": ("channel,mean,std\na,0.5,2.0\n\nb,1,3\n", "row 3 has 0 cells, expected 3"),
    "nan_mean": ("channel,mean,std\na,nan,1.0\n",
                 "row 2: means and standard deviations must be finite"),
    "inf_std": ("channel,mean,std\na,0.5,2.0\nb,0.5,inf\n",
                "row 3: means and standard deviations must be finite"),
    "zero_std": ("channel,mean,std\na,0.5,0\n", "row 2: standard deviations must be positive"),
    "negative_std": ("channel,mean,std\na,0.5,2.0\nb,0.5,-1e-3\n",
                     "row 3: standard deviations must be positive"),
    "short_row": ("channel,mean,std\na,0.5\n", "row 2 has 2 cells, expected 3"),
    "long_row": ("channel,mean,std\na,0.5,2.0,1\n", "row 2 has 4 cells, expected 3"),
    "non_numeric": ("channel,mean,std\na,1.0,zz\n", "row 2: non-numeric statistic"),
    "bad_header": ("wrong,header,here\na,0.5,2.0\n", "expected header 'channel,mean,std'"),
    "header_only": ("channel,mean,std\n", "no channel rows"),
    "empty": ("", "expected header 'channel,mean,std'"),
}


@pytest.mark.parametrize("name", sorted(_STATS_CORPUS))
def test_load_stats_on_the_stats_corpus(tmp_path, name):
    text, want = _STATS_CORPUS[name]
    path = tmp_path / "stats.csv"
    path.write_text(text, encoding="utf-8", newline="")
    if isinstance(want, str):
        with pytest.raises(FormatError) as info:
            load_stats(str(path))
        assert str(info.value) == f"{path}: {want}"
        with pytest.raises(FormatError, match=re.escape(want)):
            oracles.load_stats_per_row(str(path))
        return
    stats, names = load_stats(str(path))
    assert (names, stats.mean.tolist(), stats.std.tolist()) == want
    oracle, _ = oracles.load_stats_per_row(str(path))
    assert stats.mean.tobytes() == oracle.mean.tobytes()
    assert stats.std.tobytes() == oracle.std.tobytes()



@pytest.mark.parametrize("mean, std", [("nan", "1.0"), ("0.5", "nan"), ("0.5", "inf"),
                                       ("0.5", "0")])
def test_load_stats_rejects_unusable_values_with_row(tmp_path, mean, std):
    path = tmp_path / "stats.csv"
    path.write_text(f"channel,mean,std\na,0.0,1.0\nb,{mean},{std}\n")
    with pytest.raises(FormatError, match=r"stats\.csv: row 3"):
        load_stats(str(path))


def test_load_stats_names_the_first_bad_row_in_file_order(tmp_path):
    rows = [f"c{r:02d},{0.1 * r!r},{1.0 + r!r}" for r in range(2, 12)]
    rows[1] = "c03,0.5,-2.0"            # row 3: non-positive std
    rows[8] = "c10,oops,1.0"            # row 10: non-numeric
    path = tmp_path / "stats.csv"
    path.write_text("channel,mean,std\n" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError) as info:
        load_stats(str(path))
    assert str(info.value) == f"{path}: row 3: standard deviations must be positive"


_STATS_ROWS = st.one_of(
    st.tuples(st.sampled_from(["a", "fx", "c 01", '"q,uoted"']),
              st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.floats(min_value=1e-300, allow_infinity=False).map(repr)).map(",".join),
    st.sampled_from(["b,nan,1.0", "b,0.5,inf", "b,0.5,0", "b,0.5,-1e-3", "b,zz,1.0",
                     "b,0.5,", "b,0.5", "b,0.5,1.0,2.0", ""]))


@_SETTINGS
@given(rows=st.lists(_STATS_ROWS, max_size=8))
def test_load_stats_is_the_per_row_reader(tmp_path_factory, rows):
    path = str(tmp_path_factory.getbasetemp() / "stats_rows.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("channel,mean,std\n" + "".join(row + "\n" for row in rows))
    try:
        want = oracles.load_stats_per_row(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            load_stats(path)
        assert str(info.value) == str(exc)
        return
    got = load_stats(path)
    assert got[1] == want[1]
    assert got[0].mean.tobytes() == want[0].mean.tobytes()
    assert got[0].std.tobytes() == want[0].std.tobytes()


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_spec_validation():
    SplitSpec(0.8, 0.1, 0.1)
    with pytest.raises(ConfigError):
        SplitSpec(0.8, 0.1, 0.2)
    with pytest.raises(ConfigError):
        SplitSpec(1.0, 0.0, 0.0)


def test_largest_remainder_counts():
    assert largest_remainder_counts(20, (0.8, 0.1, 0.1)) == [16, 2, 2]
    assert largest_remainder_counts(20, (0.7, 0.15, 0.15)) == [14, 3, 3]
    assert largest_remainder_counts(20, (0.6, 0.2, 0.2)) == [12, 4, 4]
    # 7 * (0.8, 0.1, 0.1) -> 5.6 / 0.7 / 0.7: leftovers go to the larger
    # remainders, ties broken toward the earlier slot
    assert largest_remainder_counts(7, (0.8, 0.1, 0.1)) == [5, 1, 1]
    assert largest_remainder_counts(3, (0.34, 0.33, 0.33)) == [1, 1, 1]
    assert sum(largest_remainder_counts(13, (0.6, 0.2, 0.2))) == 13


def test_stratified_split_frozen_counts():
    data = make_dataset([20] * 6)
    train, val, test = stratified_split(data, SplitSpec(0.8, 0.1, 0.1, seed=3))
    assert (len(train), len(val), len(test)) == (96, 12, 12)
    npt.assert_array_equal(train.class_counts(), [16] * 6)
    npt.assert_array_equal(val.class_counts(), [2] * 6)
    npt.assert_array_equal(test.class_counts(), [2] * 6)


def test_stratified_split_disjoint_and_exhaustive():
    data = make_dataset([10, 13, 7])
    train, val, test = stratified_split(data, SplitSpec(0.7, 0.15, 0.15, seed=9))
    assert len(train) + len(val) + len(test) == 30
    # identify samples by their values (unique by construction)
    seen = set()
    for part in (train, val, test):
        for trace in part.traces:
            key = trace.values.tobytes()
            assert key not in seen
            seen.add(key)
    assert len(seen) == 30


def test_stratified_split_is_deterministic():
    data = make_dataset([8, 8])
    a = stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed=4))
    b = stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed=4))
    for part_a, part_b in zip(a, b):
        npt.assert_array_equal(part_a.labels, part_b.labels)
        for ta, tb in zip(part_a.traces, part_b.traces):
            npt.assert_array_equal(ta.values, tb.values)
    c = stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed=5))
    same = all(np.array_equal(ta.values, tb.values)
               for ta, tb in zip(a[0].traces, c[0].traces))
    assert not same  # different seed shuffles differently


def test_stratified_split_needs_support():
    data = make_dataset([5, 2])
    with pytest.raises(InputError):
        stratified_split(data, SplitSpec(0.8, 0.1, 0.1))



def test_stratified_split_rejects_empty_partition():
    # three per class at 0.8/0.1/0.1 apportions 3/0/0: nothing left to validate on
    data = make_dataset([3, 3])
    with pytest.raises(InputError, match="0.8/0.1/0.1.*validation"):
        stratified_split(data, SplitSpec(0.8, 0.1, 0.1))

# ---------------------------------------------------------------------------
# relabel / select / rename / merge
# ---------------------------------------------------------------------------

def test_relabel_binary_maps_and_names():
    data = make_dataset([3, 3, 3], vocab=("task2", "task4", "extra"))
    out = relabel_binary(data, ["task4"])
    assert out.vocab == ("neg(task2+extra)", "pos(task4)")
    npt.assert_array_equal(out.labels, [0, 0, 0, 1, 1, 1, 0, 0, 0])


def test_relabel_binary_rejects_bad_sets():
    data = make_dataset([3, 3], vocab=("task1", "task2"))
    with pytest.raises(InputError, match="empty"):
        relabel_binary(data, [])
    with pytest.raises(InputError, match="covers every class"):
        relabel_binary(data, ["task2", "task1"])
    with pytest.raises(InputError, match=re.escape(
            "positive class name(s) ['task6'] not in vocab ['task1', 'task2']")):
        relabel_binary(data, ["task1", "task6"])


def test_select_classes_keeps_vocab_order():
    data = make_dataset([2, 3, 4], vocab=("task1", "task2", "task3"))
    out = select_classes(data, ["task3", "task1"])
    assert out.vocab == ("task1", "task3")
    assert len(out) == 6
    npt.assert_array_equal(out.labels, [0, 0, 1, 1, 1, 1])
    with pytest.raises(InputError):
        select_classes(data, ["task9"])


def test_rename_classes():
    data = make_dataset([2, 2], vocab=("task3", "task4"))
    out = rename_classes(data, {"task3": "gridsurvey"})
    assert out.vocab == ("gridsurvey", "task4")
    npt.assert_array_equal(out.labels, data.labels)
    with pytest.raises(InputError):
        rename_classes(data, {"nope": "x"})


def test_merge_datasets_unions_by_name():
    a = make_dataset([2, 2], vocab=("task2", "shared"), frames=30)
    b = make_dataset([2, 2], vocab=("shared", "task9"), frames=50)
    merged = merge_datasets(a, b)
    assert merged.vocab == ("task2", "shared", "task9")
    npt.assert_array_equal(merged.labels, [0, 0, 1, 1, 1, 1, 2, 2])
    assert [t.frames for t in merged.traces] == [30] * 4 + [50] * 4    # padding is pad_traces'
    assert all(t is u for t, u in zip(merged.traces, a.traces + b.traces))


def test_merge_datasets_channel_mismatch():
    a = make_dataset([2], channels=2)
    b = make_dataset([2], channels=3)
    with pytest.raises(InputError):
        merge_datasets(a, b)


def test_merge_with_empty_side():
    a = make_dataset([2, 2], frames=25)
    empty = LabeledDataset(traces=[], labels=np.array([], dtype=np.int64), vocab=())
    assert merge_datasets(a, empty) is a
    assert merge_datasets(empty, a) is a


# ---------------------------------------------------------------------------
# synthetic traces
# ---------------------------------------------------------------------------

def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(num_classes=1)
    with pytest.raises(ConfigError):
        SynthSpec(frame_min=5, frame_max=100)
    with pytest.raises(ConfigError):
        SynthSpec(frame_min=100, frame_max=50)
    with pytest.raises(ConfigError):
        SynthSpec(noise_std=-0.1)
    for prefix in ("a\rb", "a\nb", "a\r\n"):       # labels.txt holds one name per line
        with pytest.raises(ConfigError, match="class_prefix must not hold a line break"):
            SynthSpec(class_prefix=prefix)


def test_synth_generate_shapes_and_labels():
    spec = SynthSpec(num_classes=3, trials_per_class=4, channels=5,
                     frame_min=40, frame_max=60, seed=1)
    data = synth_generate(spec)
    assert len(data) == 12
    assert data.vocab == ("task1", "task2", "task3")
    npt.assert_array_equal(data.class_counts(), [4, 4, 4])
    assert data.channels == 5
    for trace in data.traces:
        assert 40 <= trace.frames <= 60
        assert trace.values.dtype == np.float32


def test_synth_generate_is_bit_deterministic():
    spec = SynthSpec(num_classes=2, trials_per_class=3, channels=4,
                     frame_min=30, frame_max=50, seed=7)
    a = synth_generate(spec)
    b = synth_generate(spec)
    for ta, tb in zip(a.traces, b.traces):
        npt.assert_array_equal(ta.values, tb.values)
    c = synth_generate(SynthSpec(num_classes=2, trials_per_class=3, channels=4,
                                 frame_min=30, frame_max=50, seed=8))
    assert not all(ta.values.shape == tc.values.shape and np.array_equal(ta.values, tc.values)
                   for ta, tc in zip(a.traces, c.traces))


def _template_parameters(spec):
    """The (num_classes, channels, 4) template parameters a spec's seed draws first."""
    return dataset._draw_templates(np.random.default_rng(spec.seed), spec)


_E5_DATA2 = dict(num_classes=6, trials_per_class=20, channels=24)


@pytest.mark.parametrize("spec", [
    *(SynthSpec(**_E5_DATA2, seed=seed + 101) for seed in range(5)),      # e5 "data2"
    SynthSpec(num_classes=2, trials_per_class=24, channels=24, seed=202),  # "data3"
    SynthSpec(num_classes=3, trials_per_class=3, channels=4, frame_min=37, frame_max=37, seed=4),
    SynthSpec(num_classes=3, trials_per_class=5, channels=5, frame_min=10, frame_max=4000, seed=9),
    SynthSpec(num_classes=3, trials_per_class=5, channels=5, frame_min=10, frame_max=4000,
              noise_std=0.0, seed=11),
], ids=lambda spec: f"{spec.num_classes}x{spec.trials_per_class}-"
                    f"({spec.frame_min}, {spec.frame_max})-"
                    f"noise{spec.noise_std:g}-seed{spec.seed}")
def test_synth_generate_is_the_per_trial_template_bit_for_bit(spec):
    got, want = synth_generate(spec), oracles.synth_generate_per_trial(spec)
    assert got.vocab == want.vocab
    assert got.labels.tobytes() == want.labels.tobytes()
    assert len(got.traces) == len(want.traces)
    for g, w in zip(got.traces, want.traces):
        assert g.values.shape == w.values.shape and g.source_frames == w.source_frames
        assert g.values.dtype == np.float32 and g.values.tobytes() == w.values.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 101, 2**40 + 3])
@pytest.mark.parametrize("shape", [(2, 1), (6, 24), (3, 5)])
def test_template_draw_is_the_scalar_loop_bit_for_bit(seed, shape):
    spec = SynthSpec(num_classes=shape[0], channels=shape[1])
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = dataset._draw_templates(got_rng, spec)
    want = oracles.draw_templates(want_rng, spec)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state   # trials draw next


@pytest.mark.parametrize("frame_max", [681 * 10 ** 39, 10 ** 42, 10 ** 400],
                         ids=["6.81e41", "1e42", "1e400"])
def test_a_frame_max_whose_templates_overflow_float32_is_a_config_error(frame_max):
    # the largest template value is about 2 + 0.05 * (frame_max - 1) / 100
    with pytest.raises(ConfigError, match=r"^frame_max must be below 6\.81e\+41, or template "
                                          r"values overflow float32, got \d+$"):
        SynthSpec(frame_min=10, frame_max=frame_max)
    SynthSpec(frame_min=10, frame_max=680 * 10 ** 39)         # at most 3.4e38: it fits


@pytest.mark.parametrize("noise_std", [2.7e37, 1e39, math.inf, math.nan])
def test_a_noise_std_whose_trials_overflow_float32_is_a_config_error(noise_std):
    # a trial value is at most the template's 2.0055 plus 13 standard deviations;
    # nan breaks noise_std's declared bound before that
    message = (r"^noise_std must be >= 0, got nan$" if math.isnan(noise_std) else
               r"^noise_std must be below 2\.62e\+37 for frame_max=12, or trial values overflow "
               r"float32")
    with pytest.raises(ConfigError, match=message):
        SynthSpec(frame_min=10, frame_max=12, noise_std=noise_std)


@pytest.mark.parametrize("noise_std", [2.6e37, 1e30])
def test_a_noise_std_whose_trials_fit_float32_generates_without_warnings(noise_std):
    spec = SynthSpec(num_classes=2, trials_per_class=2, channels=3, frame_min=10, frame_max=12,
                     noise_std=noise_std, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = synth_generate(spec)
    assert all(np.isfinite(t.values).all() for t in data.traces)


def test_synth_noise_free_matches_template():
    spec = SynthSpec(num_classes=2, trials_per_class=4, channels=3,
                     frame_min=25, frame_max=60, noise_std=0.0, seed=3)
    data = synth_generate(spec)
    params = _template_parameters(spec)
    for trace, label in zip(data.traces, data.labels):
        expected = template_waveform(params[label], trace.frames)
        npt.assert_array_equal(trace.values, expected.astype(np.float32))


def test_synth_templates_separate_classes():
    # class templates must differ far beyond the trial noise level
    spec = SynthSpec(num_classes=6, trials_per_class=1, channels=24, seed=0)
    params = _template_parameters(spec)
    frames = 400
    waves = [template_waveform(params[k], frames) for k in range(spec.num_classes)]
    for i in range(len(waves)):
        for j in range(i + 1, len(waves)):
            rms = math.sqrt(float(np.mean((waves[i] - waves[j]) ** 2)))
            assert rms > 3.0 * spec.noise_std


def test_synth_class_prefix_names():
    spec = SynthSpec(num_classes=2, trials_per_class=3, channels=2,
                     frame_min=20, frame_max=20, class_prefix="move", seed=2)
    assert synth_generate(spec).vocab == ("move1", "move2")


def test_parse_synth_spec_from_dict_and_unknown_keys():
    spec = parse_synth_spec({"num_classes": "4", "trials_per_class": "6",
                             "channels": "8", "frame_min": "100", "frame_max": "200",
                             "noise_std": "0.05", "seed": "42"})
    assert spec.num_classes == 4
    assert (spec.frame_min, spec.frame_max) == (100, 200)
    assert spec.noise_std == pytest.approx(0.05)
    with pytest.raises(ConfigError):
        parse_synth_spec({"num_clases": "4"})  # typo must be caught


def test_parse_synth_spec_from_file(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("# comment\nnum_classes = 3\nseed = 9\n")
    spec = parse_synth_spec(parse_kv_file(str(path)), origin=str(path))
    assert spec.num_classes == 3
    assert spec.seed == 9
    assert spec.trials_per_class == 20  # default preserved
