"""Command-line interface tests: subcommands, exit codes, override layering."""

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import math
import os
import queue
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from intentcnn import cli, dataset, errors, streaming
from intentcnn.cli import main
from intentcnn.config import csv_text, parse_kv_file, render_kv
from intentcnn.dataset import (StandardizationStats, SynthSpec, Trace, load_csv_dir,
                               parse_synth_spec, save_stats, synth_generate, write_trace_csv)
from intentcnn.evaluation import ExperimentSpec, parse_experiment_config
from intentcnn.model import (DATA_DERIVED_FIELDS, NetworkConfig, TrainSpec, build_network,
                             load_model, save_model, serialize)

import oracles

TINY_EXPERIMENT = """
experiment.id = tinycli
experiment.ratios = 0.8/0.1/0.1
experiment.block_frames = 10
source.1.kind = synth
source.1.num_classes = 3
source.1.trials_per_class = 10
source.1.channels = 2
source.1.frame_min = 30
source.1.frame_max = 40
model.conv_filters = 2, 2
model.kernel_width = 3
model.fc_sizes = 8
train.epochs = 2
train.batch_size = 4
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_GENERATE = """
num_classes = 2
trials_per_class = 10
channels = 2
frame_min = 10
frame_max = 12
noise_std = 0.05
"""


def _set_stdin(monkeypatch, text):
    """Standard input as the interpreter makes it: a strict UTF-8 text file
    over a byte buffer."""
    data = text if isinstance(text, bytes) else text.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                      errors="strict", newline="\n"))


def write_config(tmp_path, text, name="config.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# dispatch and exit codes
# ---------------------------------------------------------------------------

def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["generate", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_config_error_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "experiment.id = x\nsource.1.kind = synth\n"
                                    "source.1.trails_per_class = 4\n")
    assert main(["train", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_data_error_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "nope.intc")
    stats = str(tmp_path / "nope.csv")
    trace = str(tmp_path / "nope_trace.csv")
    assert main(["predict", "--model", missing, "--stats", stats,
                 "--trace", trace]) == 3
    assert "error:" in capsys.readouterr().err


def _documented_exit_codes() -> dict[str, int | None]:
    """errors.py's docstring map, e.g. {'ConfigError': 2, 'DataError': 3, ...,
    'ExperimentError': None}; None stands for "its cause's code"."""
    text = " ".join(errors.__doc__.split())
    return {name: int(code) if code.isdigit() else None
            for name, code in re.findall(r"(\w+Error)\b[^>]*?-> (\d|its cause's code)", text)}


_ERROR_CLASSES = {name: cls for name, cls in vars(errors).items()
                  if isinstance(cls, type) and cls.__module__ == errors.__name__}


TINY_NETWORK = NetworkConfig(channels=2, input_frames=40, conv_filters=(2, 2), kernel_width=3,
                             fc_sizes=(8,), num_classes=3)


def _unknown_config_key(tmp_path):
    config = write_config(tmp_path, TINY_EXPERIMENT + "model.kernel_widht = 3\n")
    return ["train", "--config", config, "--out", str(tmp_path / "out")], "unknown"


def _truncated_model_file(tmp_path):
    model = tmp_path / "model.intc"
    model.write_bytes(serialize(build_network(TINY_NETWORK))[:-6])
    return ["predict", "--model", str(model), "--stats", str(tmp_path / "stats.csv"),
            "--trace", str(tmp_path / "trace.csv")], "truncated"


def _diverging_training(tmp_path):
    config = write_config(tmp_path, TINY_EXPERIMENT + "train.learning_rate = 1e30\n")
    return ["train", "--config", config, "--out", str(tmp_path / "out")], "non-finite"


@pytest.mark.parametrize("failure, make_argv", [("ConfigError", _unknown_config_key),
                                                ("DataError", _truncated_model_file),
                                                ("TrainingError", _diverging_training)])
def test_exit_codes_follow_the_documented_map(tmp_path, capsys, failure, make_argv):
    argv, reason = make_argv(tmp_path)
    with np.errstate(all="ignore"):
        code = main(argv)
    err = capsys.readouterr().err
    assert code == _documented_exit_codes()[failure]
    assert err.startswith("error: ") and reason in err


def test_the_exit_code_map_names_every_error_class():
    assert _documented_exit_codes().keys() == _ERROR_CLASSES.keys()


@pytest.mark.parametrize("name, cause", [(name, None) for name in _ERROR_CLASSES
                                         if name != "ExperimentError"] +
                         [("ExperimentError", name) for name in _ERROR_CLASSES
                          if name != "ExperimentError"])
def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch,
                                                          name, cause):
    # an ExperimentError takes the code of the error it wraps
    codes = _documented_exit_codes()
    error = _ERROR_CLASSES[cause or name]("stats unusable")
    if cause:
        error = errors.ExperimentError("tiny", "standardize", error)

    def load_stats(path):
        raise error

    monkeypatch.setattr(cli, "load_stats", load_stats)
    model = str(tmp_path / "model.intc")
    save_model(build_network(TINY_NETWORK), model)
    code = main(["predict", "--model", model, "--stats", "s.csv", "--trace", "t.csv"])
    assert (codes[name] is None) == (cause is not None)
    assert code == codes[cause or name]
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", [("generate", "noise_std"),
                                          ("train", "train.learning_rate")])
def test_a_non_finite_float_key_exits_2_and_writes_nothing(tmp_path, capsys, command, key, value):
    # NaN passes every "<= 0" range check, so a non-finite value is refused where it is read
    config = TINY_GENERATE if command == "generate" else TINY_EXPERIMENT
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, config), "--out", str(out),
            "--set", f"{key}={value}"]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and f"key '{key}' expects a finite number, got '{value}'" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_dataset_and_manifest(tmp_path, capsys):
    config = write_config(tmp_path, TINY_GENERATE)
    out = tmp_path / "data"
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.csv" in files
    assert "task1_trial01.csv" in files
    assert "task2_trial10.csv" in files
    assert len(files) == 21                      # 2 classes x 10 trials + manifest
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "filename,class_name,frames"
    assert len(manifest) == 21
    data = load_csv_dir(str(out))
    assert data.vocab == ("task1", "task2")
    assert len(data.traces) == 20
    assert all(10 <= t.frames <= 12 for t in data.traces)


def test_generate_deterministic(tmp_path):
    config = write_config(tmp_path, TINY_GENERATE)
    for name in ("a", "b"):
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path / name)]) == 0
    first = (tmp_path / "a" / "task1_trial01.csv").read_bytes()
    second = (tmp_path / "b" / "task1_trial01.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_writes_the_bytes_of_the_per_row_writer(tmp_path, capsys, seed):
    # 6 classes x 2 trials of synth6's 24 channels, with shorter trials
    recipe = parse_kv_file(str(CONFIGS / "synth6.cfg"))
    recipe.update(trials_per_class="2", frame_min="100", frame_max="200", seed=str(seed))
    config = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in recipe.items()))
    out = tmp_path / "data"
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    data = synth_generate(parse_synth_spec(recipe))
    want, manifest = tmp_path / "want.csv", ["filename,class_name,frames"]
    for n, (trace, label) in enumerate(zip(data.traces, data.labels)):
        name = f"task{label + 1}_trial{n % 2 + 1:02d}.csv"
        oracles.write_trace_csv(trace, str(want))
        assert (out / name).read_bytes() == want.read_bytes(), name
        manifest.append(f"{name},{data.vocab[label]},{trace.frames}")
    assert (out / "manifest.csv").read_text() == "\n".join(manifest) + "\n"
    assert len(list(out.iterdir())) == 13


def _csv_cells(path) -> list[list[str]]:
    """A written CSV's cells as csv.reader reads them; csv_text renders them
    back to the file's bytes."""
    text = path.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert csv_text(rows) == text
    return rows


def test_every_written_csv_reads_back_cell_for_cell(tmp_path, capsys):
    # trace headers and stats.csv carry channel names, manifest.csv and
    # report.csv class names, history.csv numbers
    names, prefix = ("a,b", 'say "hi"'), 'p,"q'
    write_trace_csv(Trace(values=np.full((2, 3), 0.5, np.float32), channel_names=names),
                    str(tmp_path / "trace.csv"))
    save_stats(StandardizationStats(mean=[0.5, -0.25], std=[2.0, 1.5]), names,
               str(tmp_path / "stats.csv"))
    data, model, reports = tmp_path / "data", tmp_path / "model", tmp_path / "reports"
    assert main(["generate", "--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                 "--set", f"class_prefix={prefix}", "--out", str(data)]) == 0
    config = write_config(tmp_path, TINY_EXPERIMENT + f"source.1.class_prefix = {prefix}\n")
    assert main(["train", "--config", config, "--out", str(model)]) == 0
    assert main(["eval", "--config", config, "--out", str(reports)]) == 0
    capsys.readouterr()

    assert _csv_cells(tmp_path / "trace.csv") == [["t", *names], ["0.0000", "0.5", "0.5"],
                                                 ["0.0100", "0.5", "0.5"], ["0.0200", "0.5", "0.5"]]
    assert _csv_cells(tmp_path / "stats.csv") == [
        ["channel", "mean", "std"], ["a,b", "0.5", "2.0"], ['say "hi"', "-0.25", "1.5"]]
    manifest = _csv_cells(data / "manifest.csv")
    assert manifest[0] == ["filename", "class_name", "frames"]
    assert sorted(manifest[1:]) == sorted(
        [path.name, f"{prefix}{path.name[4]}", str(len(path.read_text().splitlines()) - 1)]
        for path in data.glob("task*_trial*.csv"))
    history = _csv_cells(model / "history.csv")
    assert history[0] == ["epoch", "train_loss", "val_loss", "val_macro_f1"] and len(history) > 1
    assert all(row == [str(int(row[0]))] + [repr(float(cell)) for cell in row[1:]]
               for row in history[1:])
    report = _csv_cells(reports / "tinycli_report.csv")
    assert [row[2] for row in report] == ["class_name", *(f"{prefix}{k}" for k in (1, 2, 3)),
                                          "MACRO"]
    assert {len(row) for row in report} == {8}


@pytest.mark.parametrize("argv", [
    ["generate", "--set", "class_prefix=a\rb"],
    ["eval", "--set", "source.1.class_prefix=a\nb"],
    ["eval", "--set", "source.1.rename=task1:a\rb"],   # rename items split at whitespace
], ids=["generate", "eval-prefix", "eval-rename"])
def test_a_class_name_holding_a_line_break_is_a_config_error(tmp_path, capsys, argv):
    # labels.txt and report.txt hold one class name per line
    config = TINY_GENERATE if argv[0] == "generate" else TINY_EXPERIMENT
    argv = [argv[0], "--config", write_config(tmp_path, config), *argv[1:],
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_generate_override_precedence(tmp_path, capsys):
    config = write_config(tmp_path, "seed = 5\n")

    def effective_seed(argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line.startswith("seed")][0]

    base = ["generate", "--config", config, "--show-config"]
    assert effective_seed(base) == "seed = 5"                     # file beats default
    assert effective_seed(base + ["--set", "seed=7"]) == "seed = 7"   # set beats file
    assert effective_seed(base + ["--set", "seed=7", "--seed", "9"]) == "seed = 9"


def test_generate_show_config_includes_defaults(tmp_path, capsys):
    assert main(["generate", "--show-config"]) == 0
    out = capsys.readouterr().out
    assert "num_classes = 6" in out
    assert "trials_per_class = 20" in out
    assert "channels = 24" in out


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path, capsys):
    config = write_config(tmp_path, TINY_EXPERIMENT)
    out = tmp_path / "trained"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    for name in ("model.intc", "stats.csv", "history.csv", "labels.txt"):
        assert (out / name).exists()
    assert (out / "labels.txt").read_text().splitlines() == ["task1", "task2", "task3"]
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,val_macro_f1"
    assert len(history) == 3                     # header + 2 epochs
    network = load_model(str(out / "model.intc"))
    assert network.num_classes == 3
    assert "trained tinycli" in capsys.readouterr().out


def test_eval_writes_reports(tmp_path, capsys):
    config = write_config(tmp_path, TINY_EXPERIMENT)
    out = tmp_path / "reports"
    assert main(["eval", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("experiment: tinycli")
    assert (out / "tinycli_report.txt").exists()
    assert (out / "tinycli_report.csv").exists()
    assert (out / "tinycli_80-10-10.intc").exists()


def test_eval_csv_format_flag(tmp_path, capsys):
    config = write_config(tmp_path, TINY_EXPERIMENT)
    out = tmp_path / "reports"
    assert main(["eval", "--config", config, "--out", str(out),
                 "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == ("experiment_id,split_ratio,class_name,"
                                      "precision,recall,f1,support,macro_f1")


def test_eval_jobs_do_not_change_outputs(tmp_path):
    config_a = write_config(tmp_path, TINY_EXPERIMENT, "a.cfg")
    config_b = write_config(tmp_path,
                            TINY_EXPERIMENT.replace("tinycli", "othercli"), "b.cfg")
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["eval", "--config", config_a, config_b, "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["eval", "--config", config_a, config_b, "--out", str(out2),
                 "--jobs", "2"]) == 0
    for name in ("tinycli_report.txt", "othercli_report.txt",
                 "tinycli_report.csv", "tinycli_80-10-10.intc"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eval_seed_flag_changes_data(tmp_path):
    config = write_config(tmp_path, TINY_EXPERIMENT)
    out1, out2, out3 = (tmp_path / n for n in ("s0", "s1", "s0again"))
    assert main(["eval", "--config", config, "--out", str(out1)]) == 0
    assert main(["eval", "--config", config, "--out", str(out2), "--seed", "1"]) == 0
    assert main(["eval", "--config", config, "--out", str(out3)]) == 0
    base = (out1 / "tinycli_report.txt").read_bytes()
    assert base != (out2 / "tinycli_report.txt").read_bytes()
    assert base == (out3 / "tinycli_report.txt").read_bytes()


# ---------------------------------------------------------------------------
# the full chain: generate -> train -> predict -> stream
# ---------------------------------------------------------------------------

def test_generate_train_predict_stream_chain(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "data"
    gen_config = write_config(tmp_path, TINY_GENERATE, "gen.cfg")
    assert main(["generate", "--config", gen_config, "--out", str(data_dir)]) == 0

    train_config = write_config(tmp_path, f"""
experiment.id = chain
experiment.ratios = 0.8/0.1/0.1
experiment.block_frames = 10
source.1.kind = csv
source.1.path = {data_dir}
model.conv_filters = 2, 2
model.kernel_width = 3
model.fc_sizes = 8
train.epochs = 2
train.batch_size = 4
""", "train.cfg")
    model_dir = tmp_path / "model"
    assert main(["train", "--config", train_config, "--out", str(model_dir)]) == 0
    capsys.readouterr()

    trace_path = data_dir / "task1_trial01.csv"
    assert main(["predict",
                 "--model", str(model_dir / "model.intc"),
                 "--stats", str(model_dir / "stats.csv"),
                 "--labels", str(model_dir / "labels.txt"),
                 "--trace", str(trace_path)]) == 0
    line = capsys.readouterr().out.strip()
    fields = line.split(",")
    assert len(fields) == 2 + 2                  # label, name, p_0, p_1
    assert fields[1] in ("task1", "task2")
    probs = [float(p) for p in fields[2:]]
    assert abs(sum(probs) - 1.0) < 1e-6

    # stream the same trace over stdin, hop 5: floor(frames/5) predictions
    rows = trace_path.read_text().splitlines()[1:]          # drop header
    frames = [",".join(row.split(",")[1:]) for row in rows]  # drop time column
    _set_stdin(monkeypatch, "\n".join(frames) + "\n")
    assert main(["stream",
                 "--model", str(model_dir / "model.intc"),
                 "--stats", str(model_dir / "stats.csv"),
                 "--labels", str(model_dir / "labels.txt"),
                 "--window", "10", "--hop", "5"]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == len(frames) // 5
    first = out_lines[0].split(",")
    assert first[0] == "4"                        # frame index of first hop
    assert first[2] in ("task1", "task2")
    assert first[-1] in ("0", "1")


def test_stream_reports_bad_lines(tmp_path, capsys, monkeypatch):
    # reuse the chain fixtures cheaply: tiny model trained on synthetic config
    train_config = write_config(tmp_path, TINY_EXPERIMENT)
    model_dir = tmp_path / "model"
    assert main(["train", "--config", train_config, "--out", str(model_dir)]) == 0
    capsys.readouterr()
    lines = ["0.1,0.2"] * 4 + ["oops"] + ["0.1,0.2"] * 6
    _set_stdin(monkeypatch, "\n".join(lines) + "\n")
    assert main(["stream",
                 "--model", str(model_dir / "model.intc"),
                 "--stats", str(model_dir / "stats.csv"),
                 "--window", "10", "--hop", "5"]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    errors = [l for l in out_lines if l.startswith("error,")]
    predictions = [l for l in out_lines if not l.startswith("error,")]
    assert len(errors) == 1
    assert "line=5" in errors[0]
    assert len(predictions) == 2                 # 10 valid frames, hop 5
    fields = predictions[0].split(",")
    assert fields[2] == f"class{fields[1]}"      # fallback names: no labels file


def test_predict_and_stream_quote_a_class_name_holding_a_comma_or_quote(tmp_path, capsys,
                                                                       monkeypatch):
    names = ("a,b", 'c"d', 'e,"f"')                 # every class: whichever is predicted
    inputs = {**_predict_inputs(), "labels": "".join(f"{n}\n" for n in names).encode()}
    for name, blob in inputs.items():
        (tmp_path / name).write_bytes(blob)
    files = [f"--{name}={tmp_path / name}" for name in ("model", "stats", "labels")]
    assert main(["predict", *files, f"--trace={tmp_path / 'trace'}"]) == 0
    [row] = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(row) == len(names) + 2 and row[1] == names[int(row[0])]

    frames = [line.split(",", 1)[1] for line in inputs["trace"].decode().splitlines()[1:]]
    _set_stdin(monkeypatch, "\n".join(frames) + "\n")
    assert main(["stream", *files, "--window", "10", "--hop", "5"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(frames) // 5
    assert all(len(row) == len(names) + 4 and row[2] == names[int(row[1])] for row in rows)


@pytest.mark.parametrize("show_config", [False, True], ids=["run", "show-config"])
@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["foo", "CSV", ""])
def test_a_source_kind_other_than_synth_or_csv_is_a_config_error(tmp_path, capsys, kind,
                                                                 command, show_config):
    config = write_config(tmp_path, TINY_EXPERIMENT.replace("source.1.kind = synth",
                                                            f"source.1.kind = {kind}"))
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    assert main(argv + ["--show-config"] * show_config) == 2
    assert capsys.readouterr() == ("", f"error: {config}: key 'source.1.kind' must be "
                                       f"'synth' or 'csv', got {kind!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("frame_max", str(10 ** 42), "frame_max must be below 6.81e+41, or template values overflow "
                                 "float32, got " + str(10 ** 42)),
    ("noise_std", "1e39", "noise_std must be below 2.62e+37 for frame_max=12, or trial values "
                          "overflow float32, got 1e+39")], ids=["frame_max", "noise_std"])
def test_generate_with_values_that_overflow_float32_exits_2(tmp_path, capsys, key, value,
                                                           message):
    argv = ["generate", "--out", str(tmp_path / "out"),
            *(f"--set={k}={v}" for k, v in _MUTATED_SETS.items()), "--set", f"{key}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_stream_turns_non_utf8_stdin_bytes_into_an_error_record(tmp_path, capsys,
                                                                 monkeypatch):
    net_config = NetworkConfig(channels=2, input_frames=40, conv_filters=(2, 2),
                               kernel_width=3, pool=2, pool_stride=2, fc_sizes=(8,),
                               num_classes=3)
    save_model(build_network(net_config, seed=4), str(tmp_path / "model.intc"))
    save_stats(StandardizationStats(mean=np.array([0.5, -0.25]), std=np.array([2.0, 0.5])),
               ("a", "b"), str(tmp_path / "stats.csv"))
    argv = ["stream", "--model", str(tmp_path / "model.intc"),
            "--stats", str(tmp_path / "stats.csv"), "--window", "10", "--hop", "5"]
    frames = [f"{0.1 * i:.3f},{-0.2 * i:.3f}\n".encode() for i in range(20)]
    _set_stdin(monkeypatch, b"".join(frames))
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    _set_stdin(monkeypatch, b"".join(frames[:12]) + b"\xff\xfe,1\n" + b"".join(frames[12:]))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == clean[:2] + ["error,line=13,message=non-numeric value in frame"] \
        + clean[2:]


# ---------------------------------------------------------------------------
# defaults and data errors found on the command line
# ---------------------------------------------------------------------------

GENERATE_SHOW_CONFIG = """\
channels = 24
class_prefix = task
frame_max = 1600
frame_min = 800
noise_std = 0.1
num_classes = 6
seed = 0
trials_per_class = 20
"""

TRAIN_SHOW_CONFIG = """\
experiment.block_frames = 1000
experiment.ratios = 0.8/0.1/0.1, 0.7/0.15/0.15, 0.6/0.2/0.2
experiment.seed = 0
model.batchnorm_position = after_last_conv
model.conv_filters = 16, 32, 64, 64
model.fc_sizes = 128, 64
model.kernel_width = 5
model.pool = 2
model.pool_stride = 2
train.batch_size = 8
train.epochs = 60
train.learning_rate = 0.001
train.optimizer = adam
train.patience = 10
train.seed = 0
"""


def test_show_config_defaults_text(capsys):
    assert main(["generate", "--show-config"]) == 0
    assert capsys.readouterr().out == GENERATE_SHOW_CONFIG
    assert main(["train", "--show-config"]) == 0
    assert capsys.readouterr().out == TRAIN_SHOW_CONFIG


def test_predict_with_non_finite_stats_exits_3(tmp_path, capsys):
    model_dir = tmp_path / "model"
    assert main(["train", "--config", write_config(tmp_path, TINY_EXPERIMENT),
                 "--out", str(model_dir)]) == 0
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                 "--out", str(data_dir)]) == 0
    stats = tmp_path / "nan_stats.csv"
    stats.write_text("channel,mean,std\nc01,0.0,1.0\nc02,0.0,nan\n")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_dir / "model.intc"), "--stats", str(stats),
                 "--trace", str(data_dir / "task1_trial01.csv")]) == 3
    err = capsys.readouterr().err
    assert "nan_stats.csv" in err and "row 3" in err


def test_predict_with_renamed_channels_exits_3(tmp_path, capsys):
    model_dir = tmp_path / "model"
    assert main(["train", "--config", write_config(tmp_path, TINY_EXPERIMENT),
                 "--out", str(model_dir)]) == 0
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                 "--out", str(data_dir)]) == 0
    trace = data_dir / "task1_trial01.csv"
    header, body = trace.read_text().split("\n", 1)
    assert header == "t,c01,c02"
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("t,c01,fx\n" + body)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_dir / "model.intc"),
                 "--stats", str(model_dir / "stats.csv"), "--trace", str(renamed)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "renamed.csv: channel 2 is 'fx'" in captured.err and "'c02'" in captured.err


def test_train_with_an_empty_split_partition_exits_3(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                 "--set", "trials_per_class=3", "--out", str(data_dir)]) == 0
    config = write_config(tmp_path, f"""
experiment.id = tiny
experiment.ratios = 0.8/0.1/0.1
experiment.block_frames = 10
source.1.kind = csv
source.1.path = {data_dir}
model.conv_filters = 2, 2
model.kernel_width = 3
model.fc_sizes = 8
train.epochs = 2
train.batch_size = 4
""", "train.cfg")
    capsys.readouterr()
    assert main(["train", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert "validation partition empty" in capsys.readouterr().err


def test_predict_with_a_nan_weight_exits_3_naming_the_record(tmp_path, capsys):
    model_dir = tmp_path / "model"
    assert main(["train", "--config", write_config(tmp_path, TINY_EXPERIMENT),
                 "--out", str(model_dir)]) == 0
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                 "--out", str(data_dir)]) == 0
    blob = bytearray((model_dir / "model.intc").read_bytes())
    blob[48:52] = np.float32(np.nan).tobytes()      # first CONV weight; the record is at 28
    corrupt = tmp_path / "nan.intc"
    corrupt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["predict", "--model", str(corrupt), "--stats", str(model_dir / "stats.csv"),
                 "--trace", str(data_dir / "task1_trial01.csv")]) == 3
    assert "record 1 at byte 28 (CONV) holds a NaN or Inf value" in capsys.readouterr().err


def test_a_model_file_with_64_mb_of_trailing_bytes_is_never_read_whole(tmp_path, capsys):
    model, stats, trace = (str(tmp_path / name) for name in ("m.intc", "s.csv", "t.csv"))
    save_model(build_network(TINY_NETWORK), model)
    size = os.path.getsize(model)
    os.truncate(model, size + 64 * 2 ** 20)         # sparse: no page of the tail is written
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), stats)
    Path(trace).write_text("t,c01,c02\n0.00,1,2\n0.01,2,3\n")
    message = f"{64 * 2 ** 20} trailing bytes after the last record (at byte {size})"
    tracemalloc.start()
    try:
        with pytest.raises(errors.FormatError, match=re.escape(message)):
            load_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20                       # reading the file whole takes 64 MB
    assert main(["predict", "--model", model, "--stats", stats, "--trace", trace]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_loaded_network_keeps_its_weights_when_train_writes_over_its_file(tmp_path, capsys):
    config, out = write_config(tmp_path, TINY_EXPERIMENT), tmp_path / "out"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    loaded = load_model(str(out / "model.intc"))
    blob = (out / "model.intc").read_bytes()
    assert main(["train", "--config", config, "--seed", "1", "--out", str(out)]) == 0
    assert (out / "model.intc").read_bytes() != blob
    assert serialize(loaded) == blob
    assert not list(out.glob("*.tmp"))


def test_a_stream_keeps_its_weights_when_its_model_file_is_rewritten_in_place(tmp_path, capsys,
                                                                             monkeypatch):
    model, stats = str(tmp_path / "m.intc"), str(tmp_path / "s.csv")
    save_model(build_network(TINY_NETWORK, seed=1), model)
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), stats)
    argv = ["stream", "--model", model, "--stats", stats, "--window", "10", "--hop", "5"]
    rng = np.random.default_rng(7)
    feeds = ["".join(f"{a:.3f},{b:.3f}\n" for a, b in rng.normal(size=(5, 2))) for _ in range(3)]
    _set_stdin(monkeypatch, "".join(feeds))
    assert main(argv) == 0
    expected = capsys.readouterr().out.splitlines(keepends=True)
    assert len(expected) == 3                       # one prediction per feed of 5 frames

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    printed: queue.Queue = queue.Queue()
    with subprocess.Popen([sys.executable, "-m", "intentcnn", *argv], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as proc:
        threading.Thread(target=lambda: [*map(printed.put, proc.stdout), printed.put("")],
                         daemon=True).start()

        def hop(feed):
            proc.stdin.write(feed)
            proc.stdin.flush()
            line = printed.get(timeout=60)
            assert line, f"stream exited {proc.wait()}: {proc.stderr.read()}"
            return line

        try:
            got = [hop(feeds[0])]
            with open(model, "r+b") as fh:
                fh.truncate(0)                      # a process that reads the mapped file
                got.append(hop(feeds[1]))           # now dies of SIGBUS
                fh.write(serialize(build_network(TINY_NETWORK, seed=2)))
            got.append(hop(feeds[2]))
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
        finally:
            proc.kill()
    assert got == expected


def test_predict_on_a_non_utf8_trace_exits_3_without_echoing_it(tmp_path, capsys):
    model, stats, trace = (str(tmp_path / name) for name in ("m.intc", "s.csv", "t.csv"))
    save_model(build_network(TINY_NETWORK), model)
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), stats)
    rows = "t,c01,c02\n" + "".join(f"{i / 100:.2f},0.5,-0.5\n" for i in range(30))
    bad_at = len(rows) // 2
    with open(trace, "wb") as fh:
        fh.write(rows[:bad_at].encode() + b"\xff" + rows[bad_at:].encode())
    assert main(["predict", "--model", model, "--stats", stats, "--trace", trace]) == 3
    assert capsys.readouterr() == ("", f"error: {trace}: not UTF-8 at byte {bad_at}\n")


@pytest.mark.parametrize("command", ["predict", "stream"])
def test_stats_for_another_channel_count_exit_3_before_any_frame_is_read(tmp_path, capsys,
                                                                         command):
    model, stats = str(tmp_path / "m.intc"), str(tmp_path / "s.csv")
    save_model(build_network(TINY_NETWORK), model)
    save_stats(StandardizationStats(mean=[0.0] * 3, std=[1.0] * 3), ("c01", "c02", "c03"), stats)
    frames = (["--trace", str(tmp_path / "missing.csv")] if command == "predict"
              else ["--window", "10", "--hop", "5"])       # stdin is never read
    assert main([command, "--model", model, "--stats", stats, *frames]) == 3
    assert capsys.readouterr() == ("", f"error: {stats}: statistics cover 3 channels but the "
                                       f"model expects 2\n")


_HUGE = "1" * 140_000                   # longer than csv's field limit of 131,072


@pytest.mark.parametrize("trace_text, stats_text, message", [
    ('t,"c01",c02\n0.00,1,2\n0.01,' + _HUGE + ',2\n', None,
     "{trace}: line 3: field larger than field limit (131072)"),
    ("t,c01,c02\n0.00,1,2\n0.01,2,3\n",
     'channel,mean,std\n"c01,0.0,1.0\n' + "c02,0.0,1.0\n" * 15_000,
     # the open field passes 131,072 characters on line 1 + ceil(131,073 / 12)
     "{stats}: line 10924: field larger than field limit (131072)"),
    ("t,c01,c02\n0.00,1,2\n0.01," + _HUGE + ",2\n", None,
     "{trace}: row 3, column 'c01': non-finite value '" + _HUGE[:40] + "'... "
     "(140000 characters)"),
], ids=["quoted-trace", "unterminated-quote-in-stats", "quote-free-trace"])
def test_predict_on_an_oversized_csv_field_exits_3_naming_where(tmp_path, capsys, trace_text,
                                                                stats_text, message):
    model, stats, trace = (str(tmp_path / name) for name in ("m.intc", "s.csv", "t.csv"))
    save_model(build_network(TINY_NETWORK), model)
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), stats)
    if stats_text is not None:
        Path(stats).write_text(stats_text)
    Path(trace).write_text(trace_text)
    assert main(["predict", "--model", model, "--stats", stats, "--trace", trace]) == 3
    assert capsys.readouterr() == ("", f"error: {message.format(trace=trace, stats=stats)}\n")


@pytest.mark.parametrize("header, cell", [("t,c01,c02", _HUGE), ("t,c01,c02", "x" * 140_000),
                                          ("t,c01," + "c" * 140_000, "2")],
                         ids=["non-finite", "non-numeric", "channel-name"])
def test_predict_error_lines_stay_short_however_long_the_cell(tmp_path, monkeypatch, capsys,
                                                              header, cell):
    monkeypatch.chdir(tmp_path)
    save_model(build_network(TINY_NETWORK), "m.intc")
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), "s.csv")
    Path("t.csv").write_text(f"{header}\n0.00,1,2\n0.01,{cell},2\n")
    assert main(["predict", "--model", "m.intc", "--stats", "s.csv", "--trace", "t.csv"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200
    assert "140000 characters" in err


def test_predict_reports_an_overflowing_standardized_value_without_warnings(tmp_path, capsys):
    model, stats, trace = (str(tmp_path / name) for name in ("m.intc", "s.csv", "t.csv"))
    save_model(build_network(TINY_NETWORK), model)
    argv = ["predict", "--model", model, "--stats", stats, "--trace", trace]
    cells = {(3, 2): "3e38", (4, 1): "-3e38"}       # (frame, column): rows 5 and 6 of the file
    Path(trace).write_text("t,c01,c02\n" + "".join(
        f"{i / 100:.2f},{cells.get((i, 1), '0.5')},{cells.get((i, 2), '0.5')}\n"
        for i in range(30)))
    for std, expected in ((0.5, f"{trace}: row 5, column 'c02': standardized value overflows "
                                "float32"),
                          (1.0, "logits contains NaN or Inf")):
        save_stats(StandardizationStats(mean=[0.0, 0.0], std=[std, std]), ("c01", "c02"), stats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {expected}\n")


def test_predict_names_the_non_finite_cell_and_prints_nothing_else(tmp_path, capsys):
    model_dir = tmp_path / "model"
    assert main(["train", "--config", write_config(tmp_path, TINY_EXPERIMENT),
                 "--out", str(model_dir)]) == 0
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                 "--out", str(data_dir)]) == 0
    rows = (data_dir / "task1_trial01.csv").read_text().splitlines()
    assert rows[0] == "t,c01,c02"
    for cell in ("1e39", "nan"):
        corrupt = tmp_path / f"corrupt_{cell}.csv"
        time, c01, _ = rows[3].split(",")
        corrupt.write_text("\n".join(rows[:3] + [f"{time},{c01},{cell}"] + rows[4:]) + "\n")
        argv = ["predict", "--model", str(model_dir / "model.intc"),
                "--stats", str(model_dir / "stats.csv"), "--trace", str(corrupt)]
        expected = f"error: {corrupt}: row 4, column 'c02': non-finite value '{cell}'\n"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        assert capsys.readouterr() == ("", expected)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr() == ("", expected)


def _config_argv(tmp_path, path):
    return ["train", "--config", path, "--out", str(tmp_path / "out")]


def _labels_argv(tmp_path, path):
    model, stats = str(tmp_path / "m.intc"), str(tmp_path / "s.csv")
    save_model(build_network(TINY_NETWORK), model)
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), stats)
    return ["predict", "--model", model, "--stats", stats, "--labels", path,
            "--trace", str(tmp_path / "t.csv")]


@pytest.mark.parametrize("text, make_argv", [(TINY_EXPERIMENT, _config_argv),
                                             ("task1\ntask2\ntask3\n", _labels_argv)],
                         ids=["config", "labels"])
def test_a_non_utf8_config_or_labels_file_exits_2_without_echoing_it(tmp_path, capsys,
                                                                    text, make_argv):
    path = str(tmp_path / "input.txt")
    bad_at = len(text) // 2
    with open(path, "wb") as fh:
        fh.write(text[:bad_at].encode() + b"\xff" + text[bad_at:].encode())
    assert main(make_argv(tmp_path, path)) == 2
    assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 at byte {bad_at}\n")


def test_a_config_comment_holding_a_form_feed_stays_a_comment(tmp_path):
    path = write_config(tmp_path, "# comment\f seed = 1\r\nseed = 2\x85\nbogus line\n")
    with pytest.raises(errors.ConfigError, match=r"config\.cfg:3: expected 'key = value'"):
        parse_kv_file(path)
    path = write_config(tmp_path, "# comment\f seed = 1\rnum_classes = 3\vx\n")
    assert parse_kv_file(path) == {"num_classes": "3\vx"}


def test_a_labels_name_holding_a_file_separator_stays_one_name(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("one\x1cname\r\ntwo \rthree\n", encoding="utf-8", newline="")
    assert cli._read_labels(str(path)) == ("one\x1cname", "two", "three")


@pytest.mark.parametrize("config", [TINY_EXPERIMENT + "x" * 140_000,
                                    TINY_EXPERIMENT + "train.patience = " + "1" * 140_000,
                                    TINY_EXPERIMENT + "train.learning_rate = " + "1x" * 70_000,
                                    TINY_EXPERIMENT.replace("fc_sizes = 8", "fc_sizes = 8" * 20_000
                                                            + ", x")],
                         ids=["no-equals", "integer", "number", "integer-list"])
def test_config_error_lines_stay_short_however_long_the_line(tmp_path, capsys, config):
    path = write_config(tmp_path, config)
    assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 300
    assert re.search(r"\.\.\. \(\d{5,} characters\)\n$", err)


def test_config_errors_name_their_file(tmp_path, capsys):
    good = write_config(tmp_path, TINY_EXPERIMENT, "good.cfg")
    bad = write_config(tmp_path, TINY_EXPERIMENT + "model.bogus = 1\n", "bad.cfg")
    for argv in (["train", "--config", bad], ["eval", "--config", good, bad]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: unknown key(s): model.bogus\n")


_SOURCE_BLOCK = "experiment.id = x\nsource.1.kind = synth\n"
_RATIOS = "expects ratios like 0.8/0.1/0.1, each in (0, 1), summing to 1"
# each model key that the data decides, set for train and for eval
_DATA_DERIVED_KEYS = [(command, key) for command in ("train", "eval")
                      for key in DATA_DERIVED_FIELDS]


@pytest.mark.parametrize("argv, config, message", [
    (["generate", "--set", "channels=abc"], None,
     "--set: key 'channels' expects an integer, got 'abc'"),
    (["train", "--set", "train.epochs=abc"], "e5.cfg",
     "--set: key 'train.epochs' expects an integer, got 'abc'"),
    (["eval", "--set", "train.learning_rate=fast"], "e5.cfg",
     "--set: key 'train.learning_rate' expects a finite number, got 'fast'"),
    (["train", "--set", "experiment.ratios=1/2"], "e5.cfg",
     f"--set: key 'experiment.ratios' {_RATIOS}, got '1/2'"),
    (["train", "--set", "experiment.ratios=0.5/0.2/0.2"], "e5.cfg",
     f"--set: key 'experiment.ratios' {_RATIOS}, got '0.5/0.2/0.2'"),
    (["eval"], _SOURCE_BLOCK + "experiment.ratios = 0.8/0.1/0.1, 1.2/-0.1/-0.1\n",
     f"{{config}}: key 'experiment.ratios' {_RATIOS}, got '0.8/0.1/0.1, 1.2/-0.1/-0.1'"),
    (["train"], _SOURCE_BLOCK.replace("synth", "CSV"),
     "{config}: key 'source.1.kind' must be 'synth' or 'csv', got 'CSV'"),
    (["eval", "--set", "source.1.kind=CSV"], _SOURCE_BLOCK,
     "--set: key 'source.1.kind' must be 'synth' or 'csv', got 'CSV'"),
    (["eval"], _SOURCE_BLOCK.replace("synth", ""),
     "{config}: key 'source.1.kind' must be 'synth' or 'csv', got ''"),
    (["train", "--set", "source.1.kind="], _SOURCE_BLOCK,
     "--set: key 'source.1.kind' must be 'synth' or 'csv', got ''"),
    (["eval", "--set", "experiment.standard=e9"], "e5.cfg",
     "--set: key 'experiment.standard' expects one of e1, e2, e3, e4, e5, e6, e7, e8, got 'e9'"),
    (["train"], _SOURCE_BLOCK + "model.conv_filters =\n",
     "{config}: key 'model.conv_filters' must not be empty"),
    (["train", "--set", "source.1.rename=ab"], _SOURCE_BLOCK,
     "--set: key 'source.1.rename' expects old:new pairs, got 'ab'"),
    (["train", "--set", "experiment.id=a/b"], "e5.cfg",
     "--set: key 'experiment.id' expects a non-empty file-name-safe token, got 'a/b'"),
    (["eval"], _SOURCE_BLOCK.replace("synth", "csv"),
     "{config}: key 'source.1.path' must name a directory for a csv source"),
    (["train", "--set", "source.1.rename=task1:x"], "e5.cfg",
     "--set: key 'source.1.kind' is required"),
    (["eval", "--set", "source.2.rename=task1:x"], "e5.cfg",
     "--set: source blocks must be numbered 1..N without gaps, got [2]"),
    (["eval", "--set", "source.1.channels=two"], _SOURCE_BLOCK,
     "--set: key 'source.1.channels' expects an integer, got 'two'"),
    (["train", "--set", "bogus=1", "--set", "zz=2"], "e5.cfg", "--set: unknown key(s): bogus, zz"),
    (["train", "--set", "zz=2"], _SOURCE_BLOCK + "model.bogus = 1\n",
     "{config}: unknown key(s): model.bogus"),
    (["generate", "--set", "noise_std=0.1"], "channels = abc\n",
     "{config}: key 'channels' expects an integer, got 'abc'"),
    (["generate", "--set", "sample_rate_hz=100"], None, "--set: unknown key(s): sample_rate_hz"),
    (["train"], _SOURCE_BLOCK + "source.1.sample_rate_hz = 100\n",
     "{config}: unknown key(s): source.1.sample_rate_hz"),
    *(([command, "--set", f"model.{key}=2"], "e5.cfg", f"--set: unknown key(s): model.{key}")
      for command, key in _DATA_DERIVED_KEYS),
    (["eval", "--jobs", "0"], "e5.cfg", "--jobs must be >= 1, got 0"),
    (["eval", "--jobs", "-1"], "e5.cfg", "--jobs must be >= 1, got -1"),
], ids=["generate", "train", "eval", "train-ratio", "train-ratio-sum", "eval-ratio-range",
        "train-kind-file", "eval-kind-set", "eval-empty-kind-file", "train-empty-kind-set",
        "eval-standard", "train-empty-conv_filters", "train-rename", "train-id", "eval-csv-path",
        "train-rename-only-block", "eval-block-gap", "eval-source-key", "train-unknown",
        "file-key-first", "file-value", "generate-sample-rate", "source-sample-rate",
        *(f"{command}-model.{key}" for command, key in _DATA_DERIVED_KEYS),
        "eval-jobs-0", "eval-jobs--1"])
def test_a_config_error_names_the_origin_of_the_value(tmp_path, capsys, argv, config, message):
    if config is None:
        path = None
    elif config.endswith(".cfg"):
        path = str(CONFIGS / config)
    else:
        path = write_config(tmp_path, config)
    argv = argv + (["--config", path] if path else []) + ["--seed", "3"]
    rejected = ("", f"error: {message.format(config=path)}\n")
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == rejected
    assert main(argv + ["--show-config"]) == 2
    assert capsys.readouterr() == rejected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, key", [("generate", None, "channels"),
                                                  ("train", "e5.cfg", "train.epochs"),
                                                  ("eval", "e5.cfg", "train.epochs")])
def test_repeated_main_calls_carry_no_overrides_over(capsys, command, config, key):
    show = [command, "--show-config"] + (["--config", str(CONFIGS / config)] if config else [])
    cli._build_parser.cache_clear()
    assert main(show) == 0
    fresh = capsys.readouterr()
    parser = cli._build_parser()
    assert main(show + ["--set", f"{key}=3", "--seed", "5"]) == 0
    overridden = capsys.readouterr().out
    assert f"{key} = 3\n" in overridden and "seed = 5\n" in overridden
    assert main(show) == 0
    assert capsys.readouterr() == fresh
    assert cli._build_parser() is parser


def test_a_usage_error_leaves_the_next_predict_as_a_predict_alone(tmp_path, capsys):
    model, stats, trace = (str(tmp_path / name) for name in ("m.intc", "s.csv", "t.csv"))
    save_model(build_network(TINY_NETWORK, seed=3), model)
    save_stats(StandardizationStats(mean=[0.0, 0.0], std=[1.0, 1.0]), ("c01", "c02"), stats)
    values = np.random.default_rng(4).normal(size=(2, 30))
    write_trace_csv(Trace(values=values, channel_names=("c01", "c02")), trace)
    argv = ["predict", "--model", model, "--stats", stats, "--trace", trace]
    cli._build_parser.cache_clear()
    assert main(argv) == 0
    alone = capsys.readouterr()
    assert alone.out.count("\n") == 1 and alone.err == ""
    for bad in (["predict", "--model", model], argv + ["--bogus"], ["predict", "--trace"],
                ["generate", "--set", "channels=3", "--seed", "x"], ["stream", "--hop", "1"]):
        assert main(bad) == 2
        assert "usage" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr() == alone


@pytest.mark.parametrize("command, config, parse", [("train", "e5.cfg", parse_experiment_config),
                                                    ("generate", "synth6.cfg", parse_synth_spec)])
def test_show_config_is_a_fixed_point(tmp_path, capsys, command, config, parse):
    config = str(CONFIGS / config)
    assert main([command, "--config", config, "--show-config"]) == 0
    shown = capsys.readouterr().out
    path = write_config(tmp_path, shown, "shown.cfg")
    assert main([command, "--config", path, "--show-config"]) == 0
    assert capsys.readouterr().out == shown
    assert parse(parse_kv_file(path)) == parse(parse_kv_file(config))


def test_show_config_rejects_what_its_command_rejects(tmp_path, capsys):
    synth6 = str(CONFIGS / "synth6.cfg")
    for argv in (["train", "--config", synth6], ["eval", "--config", synth6],
                 ["generate", "--set", "bogus=1"], ["train", "--set", "train.epochs=3"]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        rejected = capsys.readouterr()
        assert rejected.err.startswith("error: ")
        assert main(argv + ["--show-config"]) == 2
        assert capsys.readouterr() == rejected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--seed", "-1"], "--seed: key 'seed' must be >= 0, got -1"),
    (["generate", "--set", "seed=-2"], "--set: key 'seed' must be >= 0, got -2"),
], ids=["generate", "generate-set"])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, argv, message):
    """Without ``--config`` the defaults are checked too, and the bad seed is
    named by the option that gave it."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(argv + ["--show-config"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _bounded_keys(cls, prefix="", skip=()):
    """``(prefix + name, a value just outside its bound)`` for each field of
    ``cls`` not in ``skip`` that declares a bound in its metadata; ``""`` for
    a bound that is only ``nonempty``."""
    for f in dataclasses.fields(cls):
        bound = f.metadata
        if not bound or f.name in skip:
            continue
        yield prefix + f.name, ("bogus" if "choices" in bound else
                                str(bound["min"] - 1) if "min" in bound else
                                str(bound["above"]) if "above" in bound else "")


_GENERATION_BOUNDS = list(_bounded_keys(SynthSpec))
_EXPERIMENT_BOUNDS = [*_bounded_keys(NetworkConfig, "model.", DATA_DERIVED_FIELDS),
                      *_bounded_keys(TrainSpec, "train."),
                      *_bounded_keys(ExperimentSpec, "experiment."),
                      *_bounded_keys(SynthSpec, "source.1.")]
_BOUNDED = [("generate", "synth6.cfg", "seed", *bound) for bound in _GENERATION_BOUNDS] + [
    (command, "e5.cfg", "experiment.seed", *bound)
    for command in ("train", "eval") for bound in _EXPERIMENT_BOUNDS]


@pytest.mark.parametrize("command, config, seed_key, key, value", _BOUNDED,
                         ids=[f"{command}-{key}" for command, _, _, key, _ in _BOUNDED])
def test_a_value_outside_its_bound_names_its_key_and_origin(tmp_path, capsys, monkeypatch,
                                                            command, config, seed_key, key,
                                                            value):
    def work(spec):
        raise AssertionError(f"{command} accepted {key} = {value}")

    monkeypatch.setattr(cli, "synth_generate", work)
    monkeypatch.setattr(cli, "run_experiment", work)
    pairs = parse_kv_file(str(CONFIGS / config))
    if key.startswith("source.1."):
        pairs["source.1.kind"] = "synth"
    base = write_config(tmp_path, render_kv(pairs), "base.cfg")
    given = write_config(tmp_path, render_kv({**pairs, key: value}), "given.cfg")
    origins = [("--set", [base, "--set", f"{key}={value}"]), (given, [given])]
    if key == seed_key:
        origins.append(("--seed", [base, "--seed", value]))
    for origin, options in origins:
        argv = [command, "--config", *options]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        rejected = capsys.readouterr()
        assert rejected.out == "" and rejected.err.count("\n") == 1
        assert rejected.err.startswith(f"error: {origin}: key {key!r} must "), rejected.err
        assert main(argv + ["--show-config"]) == 2
        assert capsys.readouterr() == rejected
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [("generate", "synth6.cfg"), ("train", "e5.cfg"),
                                             ("eval", "e5.cfg")], ids=["generate", "train", "eval"])
def test_an_out_that_names_a_file_exits_4_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, config):
    def work(spec):
        raise AssertionError(f"{command} did its work")

    monkeypatch.setattr(cli, "synth_generate", work)
    monkeypatch.setattr(cli, "run_experiment", work)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out, message in ((taken, "[Errno 17] File exists"),
                         (taken / "sub", "[Errno 20] Not a directory")):   # below a file
        argv = [command, "--config", str(CONFIGS / config), "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr() == ("", f"error: {message}: '{out}'\n")
        assert main(argv + ["--show-config"]) == 0            # which writes nothing
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "a file\n"


# ---------------------------------------------------------------------------
# the error contract under any one mutation, for every command
# ---------------------------------------------------------------------------

_CONFIG, _DATA, _RUNTIME = (_documented_exit_codes()[name]
                            for name in ("ConfigError", "DataError", "TrainingError"))
_BAD_VALUES = st.one_of(
    st.integers(-1000, -1).map(str), st.sampled_from(["-0.5", "-1e3", "-inf"]),   # negative
    st.sampled_from(["0", "-0", "0.0", "+0", "0e0"]),                             # zero
    st.just(""),                                                                  # empty
    st.text(st.sampled_from("abefinx_.+-"), min_size=1, max_size=5),              # non-numeric
    st.sampled_from(["nan", "inf", "+inf", "NaN", "Infinity"]))                   # non-finite
# a --window or --hop value: zero, negative, non-integer, or an integer that
# may make hop > window or window > TINY_NETWORK's 40 input frames
_STREAM_SIZES = st.one_of(st.sampled_from(["0", "-0", "+0", "1.5", "1e1", "x", "", " 7 "]),
                          st.integers(-50, 60).map(str))
# generate's recipe: the sizes as --set options, so that dropping one leaves a
# small corpus, and the other keys in the config file, whose seed --seed beats
_MUTATED_SETS = {"num_classes": "2", "trials_per_class": "1", "channels": "2",
                 "frame_min": "10", "frame_max": "12"}
_MUTATED_FILE = {"noise_std": "0.05", "class_prefix": "task", "seed": "3"}
# train's and eval's config: a synthetic and a csv source, and at least one key
# of every typed kind
_MUTATED_EXPERIMENT = dict(line.split(" = ") for line in """experiment.id = tiny
experiment.seed = 3
experiment.ratios = 0.8/0.1/0.1
experiment.block_frames = 10
source.1.kind = synth
source.1.num_classes = 3
source.1.trials_per_class = 10
source.1.channels = 2
source.1.frame_min = 30
source.1.frame_max = 40
source.1.noise_std = 0.1
source.2.kind = csv
source.2.path = traces
source.2.take = task1
source.2.rename = task1:extra
model.conv_filters = 2, 2
model.kernel_width = 3
model.fc_sizes = 8
train.epochs = 2
train.batch_size = 4
train.learning_rate = 0.01""".splitlines())


def _parsed(value: str, kind):
    try:
        return kind(value)
    except ValueError:
        return None


def _generate_accepts(pairs: dict[str, str]) -> bool:
    """Whether SynthSpec takes these key=value pairs, by the rules README gives."""
    ints = {key: _parsed(pairs[key], int) for key in (*_MUTATED_SETS, "seed")}
    noise_std = _parsed(pairs["noise_std"], float)
    if None in ints.values() or noise_std is None or not math.isfinite(noise_std):
        return False
    return (ints["num_classes"] >= 2 and ints["trials_per_class"] >= 1 and ints["channels"] >= 1
            and 10 <= ints["frame_min"] <= ints["frame_max"] and ints["seed"] >= 0
            and noise_std >= 0)


def _generate_pairs(options, recipe) -> dict[str, str]:
    """The pairs generate should see: defaults < config file < --set < --seed."""
    given, pairs = dict(options), cli._rendered_defaults(SynthSpec())
    pairs.update(recipe if "--config" in given else {})
    pairs.update(item.partition("=")[::2] for flag, item in options if flag == "--set")
    if "--seed" in given:
        pairs["seed"] = str(int(given["--seed"]))
    return pairs


def _passes_checks(command: str, options, config) -> bool:
    """Whether a run whose input files hold what they should gets past its
    command's checks, before --out is looked at."""
    given = dict(options)
    if given.get("--config") == "missing":
        return False
    if command == "generate":
        return _generate_accepts(_generate_pairs(options, config))
    if command == "stream":
        window = int(given.get("--window", streaming.DEFAULT_WINDOW_FRAMES))
        hop = int(given.get("--hop", streaming.DEFAULT_HOP_FRAMES))
        return 1 <= hop <= window <= TINY_NETWORK.input_frames
    if command in ("train", "eval"):                # the bare defaults name no source
        return ("--config" in given and int(given.get("--seed", 0)) >= 0
                and int(given.get("--jobs", 1)) >= 1)
    return True


@dataclass(frozen=True)
class _Run:
    """A valid run of one command.  A bad ``files["labels"]`` or config file
    (written from ``config``) exits 2, any other bad input file 3.  ``options``
    holds one (flag, value) per option; ``values`` draws a value in place of an
    option's own, and ``keys`` are the config keys a ``_BAD_VALUES`` value is
    carried to."""
    files: dict
    options: tuple
    required: tuple = ()
    values: dict = field(default_factory=dict)
    config: dict | None = None
    keys: tuple = ()


# --out values the run refuses, each with its one error line: the file
# "taken", written for every run, and a path below it
_TAKEN_OUTS = {"taken": "error: [Errno 17] File exists: 'taken'\n",
               "taken/sub": "error: [Errno 20] Not a directory: 'taken/sub'\n"}


@functools.cache
def _predict_inputs() -> dict[str, bytes]:
    """A valid predict's input files: a small model, its stats, a trace, labels."""
    with tempfile.TemporaryDirectory() as tmp:
        stats, trace = Path(tmp, "stats.csv"), Path(tmp, "trace.csv")
        save_stats(StandardizationStats(mean=[0.5, -0.25], std=[2.0, 1.5]), ("c01", "c02"),
                   str(stats))
        values = np.random.default_rng(5).normal(0.0, 2.0, (2, 30)).astype(np.float32)
        write_trace_csv(Trace(values=values, channel_names=("c01", "c02")), str(trace))
        return {"model": serialize(build_network(TINY_NETWORK)), "stats": stats.read_bytes(),
                "trace": trace.read_bytes(), "labels": b"task1\ntask2\ntask3\n"}


@functools.cache
def _runs() -> dict[str, _Run]:
    inputs = _predict_inputs()
    chosen = {"--config": st.just("missing"), "--out": st.sampled_from(list(_TAKEN_OUTS)),
              "--seed": _BAD_VALUES}
    experiment = (("--config", "config"), ("--out", "out"), ("--seed", "3"),
                  ("--set", "train.epochs=2"))
    return {
        "generate": _Run({}, (("--config", "config"), ("--out", "out"), ("--seed", "1"),
                              *(("--set", f"{key}={value}") for key, value in _MUTATED_SETS.items())),
                         values=chosen, config=_MUTATED_FILE, keys=dataset.SYNTH_KEYS),
        "train": _Run({}, experiment, values=chosen, config=_MUTATED_EXPERIMENT,
                      keys=tuple(_MUTATED_EXPERIMENT)),
        "eval": _Run({}, (*experiment, ("--format", "csv"), ("--jobs", "2")), ("--config",),
                     {**chosen, "--format": st.sampled_from(["text", "json", ""]),
                      "--jobs": st.one_of(st.sampled_from(["0", "-1", "x", ""]),
                                          st.integers(-3, 3).map(str))},
                     _MUTATED_EXPERIMENT, tuple(_MUTATED_EXPERIMENT)),
        "predict": _Run(inputs, tuple((f"--{name}", name) for name in inputs),
                        ("--model", "--stats", "--trace")),
        "stream": _Run({name: inputs[name] for name in ("model", "stats", "labels")},
                       (("--model", "model"), ("--stats", "stats"), ("--labels", "labels"),
                        ("--window", "10"), ("--hop", "5"), ("--source", "-")),
                       ("--model", "--stats"), {"--window": _STREAM_SIZES, "--hop": _STREAM_SIZES}),
    }


_FILE_KINDS = ("truncate", "insert", "change", "drop line", "repeat line")


def _mutated_bytes(draw, kind: str, blob: bytes) -> bytes:
    if kind in ("drop line", "repeat line"):
        lines = blob.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        return blob + lines[at] if kind == "repeat line" else b"".join(lines[:at] + lines[at + 1:])
    at = draw(st.integers(0, len(blob) - (kind != "insert")))
    if kind == "truncate":
        return blob[:at]
    if kind == "insert":                # the text inputs are ASCII: never UTF-8 after this
        return blob[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + blob[at:]
    return blob[:at] + bytes([draw(st.integers(0, 255).filter(lambda b: b != blob[at]))]) + \
        blob[at + 1:]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class _Reached(Exception):
    """Raised by the stand-in for run_experiment: the run got past every check."""


@pytest.mark.parametrize("command", ["generate", "train", "eval", "predict", "stream"])
@settings(max_examples=200, deadline=None, database=None, print_blob=True)
@given(data=st.data())
def test_every_command_keeps_the_error_contract_under_any_one_mutation(command, data):
    """One mutation of a valid run, drawn from:

    - an input file (config, model, stats, trace, labels) truncated; a text
      input given a non-UTF-8 byte, one changed byte, or one line dropped or
      repeated (a model file is only truncated: a changed weight still loads);
    - an option dropped or repeated, --config and --set among them;
    - an option's value: --config naming a missing file, --out naming an
      existing file or a path below it, a ``_BAD_VALUES`` --seed, eval's
      --format outside its choices and --jobs 0, -1 or not an integer,
      stream's --window or --hop out of range;
    - a ``_BAD_VALUES`` value for a generate or experiment key, carried by
      the config file or --set.

    The run exits with the documented code.  On failure it prints nothing to
    stdout and no traceback, writes no file, and prints one ``error:`` line,
    or argparse's usage and one ``: error:`` line.  ``--show-config`` exits 0
    where the run gets past its checks (it ignores --out) and otherwise gives
    the run's error.  train and eval call a stand-in for run_experiment.
    """
    run, draw = _runs()[command], data.draw
    config, options, mutated = dict(run.config or {}), [list(o) for o in run.options], None
    kind = draw(st.sampled_from(["file", "drop", "repeat"] + ["option"] * bool(run.values)
                                + ["key"] * bool(run.keys)))
    kind = draw(st.sampled_from(_FILE_KINDS)) if kind == "file" else kind
    if kind == "key":
        key, value = draw(st.sampled_from(sorted(run.keys))), draw(_BAD_VALUES)
        if draw(st.booleans()):
            config[key] = value
        else:
            options.append(["--set", f"{key}={value}"])
    files = dict(run.files)
    if run.config is not None:
        files["config"] = "".join(f"{key} = {value}\n" for key, value in config.items()).encode()
    if kind in _FILE_KINDS:
        mutated = draw(st.sampled_from([name for name in files
                                        if kind == "truncate" or name != "model"]))
        files[mutated] = _mutated_bytes(draw, kind, files[mutated])
    elif kind == "drop":
        del options[draw(st.integers(0, len(options) - 1))]
    elif kind == "repeat":
        options.append(options[draw(st.integers(0, len(options) - 1))])
    elif kind == "option":
        flag = draw(st.sampled_from(sorted(run.values)))
        [option] = [option for option in options if option[0] == flag]
        option[1] = draw(run.values[flag])

    given = dict(options)
    usage = (any(flag not in given for flag in run.required)           # argparse's rules
             or any(_parsed(given[flag], int) is None
                    for flag in ("--seed", "--jobs", "--window", "--hop") if flag in given)
             or given.get("--format", "text") not in ("text", "csv"))
    if usage:
        want = {_CONFIG}
    elif mutated is not None:
        code = _CONFIG if mutated in ("config", "labels") else _DATA
        # a changed digit or a dropped last line can leave a valid file
        want = {code} if kind == "insert" or mutated == "model" else {0, code}
    elif kind == "key" and command in ("train", "eval"):
        want = {0, _CONFIG}                     # the experiment parser's rules decide
    elif _passes_checks(command, options, config):
        want = {_RUNTIME if given.get("--out") in _TAKEN_OUTS else 0}
    else:
        want = {_CONFIG}

    reached = []

    def run_experiment(spec):
        reached.append(spec)
        raise _Reached()

    frames = [row.split(",", 1)[1] for row in _predict_inputs()["trace"].decode().splitlines()[1:]]
    argv = [command, *(word for option in options for word in option)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)                        # a dropped --out writes below the directory
        patch.setattr(cli, "run_experiment", run_experiment)
        _set_stdin(patch, "\n".join(frames) + "\n")
        for name, blob in {**files, "taken": b"a file\n"}.items():
            Path(name).write_bytes(blob)
        before = set(Path().rglob("*"))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = _run(argv)
            written = set(Path().rglob("*")) - before
            shown = _run(argv + ["--show-config"]) if run.config is not None else None
        assert set(Path().rglob("*")) - before == written          # --show-config writes none
        read = parse_kv_file("config") if reached else {}

    if reached:                 # main reports the stand-in's exception as a runtime error
        assert (code, stdout, err, written) == (_RUNTIME, "", "error: _Reached()\n", set())
        read.update(item.partition("=")[::2] for flag, item in options if flag == "--set")
        [spec] = reached
        assert {n: source.kind for n, source in enumerate(spec.sources, start=1)} == {
            int(key.split(".")[1]): value for key, value in read.items()
            if re.fullmatch(r"source\.\d+\.kind", key)}
        code = 0                # the run got past every check
    assert code in want
    if code != 0:
        assert stdout == "" and written == set() and "Traceback" not in err
        lines = err.splitlines()
        if usage:                               # argparse's usage, then its one error line
            assert lines[0].startswith("usage: ") and ": error: " in lines[-1]
            assert sum(": error: " in line for line in lines) == 1
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        assert (code == _RUNTIME) == (err == _TAKEN_OUTS.get(given.get("--out")))
    elif command == "generate":
        traces = [path for path in written if path.match("task*_trial*.csv")]
        pairs = _generate_pairs(options, config)
        assert len(traces) == int(pairs["num_classes"]) * int(pairs["trials_per_class"])
        assert err == "" and stdout == (f"wrote {len(traces)} trace files and manifest.csv to "
                                        f"{given.get('--out', 'generated')}\n")
    elif command == "predict":
        assert err == "" and re.fullmatch(r"[0-2],[^\n]*(,[^,\n]+){3}\n", stdout)
    elif command == "stream":
        lines = stdout.split("\n")              # a class name may hold \v or \x85
        hop = int(given.get("--hop", streaming.DEFAULT_HOP_FRAMES))
        assert err == "" and lines.pop() == "" and len(lines) == len(frames) // hop
        assert all(re.fullmatch(r"\d+,[0-2],[^\n]*(,[^,\n]+){3},[01]", line) for line in lines)
    if shown is not None and code in (0, _RUNTIME):     # a taken --out is not read
        assert shown[0] == 0 and shown[2] == ""
        if command == "generate" and mutated is None:
            assert shown[1] == cli.render_kv(_generate_pairs(options, config))
    elif shown is not None:
        assert shown == (code, "", err)


def test_every_option_a_subcommand_accepts_is_read(tmp_path, capsys, monkeypatch):
    read: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    data, model = tmp_path / "data", tmp_path / "model"
    trace = data / "task1_trial01.csv"
    train_config = write_config(tmp_path, TINY_EXPERIMENT, "train.cfg")
    trained = ["--model", str(model / "model.intc"), "--stats", str(model / "stats.csv"),
               "--labels", str(model / "labels.txt")]
    runs = {
        "generate": ["--config", write_config(tmp_path, TINY_GENERATE, "gen.cfg"),
                     "--out", str(data)],
        "train": ["--config", train_config, "--out", str(model)],
        "eval": ["--config", train_config, "--out", str(tmp_path / "reports")],
        "predict": trained + ["--trace", str(trace)],
        "stream": trained + ["--window", "10", "--hop", "5"],
    }
    parser = cli._build_parser()
    for command, argv in runs.items():
        if command == "stream":
            frames = [row.split(",", 1)[1] for row in trace.read_text().splitlines()[1:]]
            _set_stdin(monkeypatch, "\n".join(frames) + "\n")
        args = parser.parse_args([command, *argv], namespace=Recording())
        read.clear()
        assert cli._COMMANDS[command](args) == 0
        accepted = set(vars(args)) - {"subcommand"}
        assert accepted <= read, f"{command} never reads {sorted(accepted - read)}"
    capsys.readouterr()
    assert main(["predict", *runs["predict"], "--show-config"]) == 2
    assert main(["stream", *runs["stream"], "--seed", "1"]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments") == 2
