"""Experiment runner tests: presets, protocol order, determinism, reports."""

import csv as csv_module
import io
import warnings
from dataclasses import replace

import numpy as np
import pytest

from intentcnn.config import parse_kv_file
from intentcnn.dataset import SynthSpec, Trace, load_stats, padded_length, write_trace_csv
from intentcnn.errors import ConfigError, ExperimentError, InputError, NumericError
from intentcnn.evaluation import (
    DEFAULT_RATIOS,
    ExperimentSpec,
    SourceSpec,
    load_source,
    parse_experiment_config,
    render_report,
    run_experiment,
    standard_experiment,
    write_experiment_outputs,
)
from intentcnn.model import NetworkConfig, TrainSpec, load_model, serialize

SMALL_NET = NetworkConfig(channels=2, input_frames=40, conv_filters=(2, 2),
                          kernel_width=3, pool=2, pool_stride=2, fc_sizes=(8,),
                          num_classes=3)
SMALL_TRAIN = TrainSpec(epochs=2, batch_size=4, patience=2)


def small_synth(seed=7, classes=3):
    return SynthSpec(num_classes=classes, trials_per_class=10, channels=2,
                     frame_min=30, frame_max=40, noise_std=0.05, seed=seed)


def small_spec(**overrides):
    base = dict(
        experiment_id="tiny",
        sources=(SourceSpec(kind="synth", synth=small_synth()),),
        ratios=((0.8, 0.1, 0.1),),
        seed=3,
        network=SMALL_NET,
        train=SMALL_TRAIN,
        block_frames=10,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def shaped_spec():
    """Two sources, select, binary relabel: exercises every shaping stage."""
    extra = SourceSpec(kind="synth", synth=small_synth(seed=11),
                       take=("task1",), rename=(("task1", "extra"),))
    return small_spec(
        experiment_id="shaped",
        sources=(SourceSpec(kind="synth", synth=small_synth()), extra),
        select=("task2", "extra"),
        relabel_positive=("extra",),
    )


# ---------------------------------------------------------------------------
# sources and presets
# ---------------------------------------------------------------------------

def test_load_source_take_and_rename():
    source = SourceSpec(kind="synth", synth=small_synth(), take=("task2",),
                        rename=(("task2", "gridsurvey"),))
    data = load_source(source)
    assert data.vocab == ("gridsurvey",)
    assert len(data.traces) == 10


def test_source_spec_validation():
    with pytest.raises(ConfigError):
        SourceSpec(kind="synth")                 # missing recipe
    with pytest.raises(ConfigError):
        SourceSpec(kind="csv")                   # missing path
    with pytest.raises(ConfigError):
        SourceSpec(kind="parquet", path="x")     # unknown kind


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(experiment_id="")
    with pytest.raises(ConfigError):
        small_spec(experiment_id="has space")
    with pytest.raises(ConfigError):
        small_spec(sources=())
    with pytest.raises(ConfigError):
        small_spec(ratios=())
    with pytest.raises(ConfigError):
        small_spec(ratios=((0.5, 0.2, 0.2),))    # does not sum to 1
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        small_spec(seed=-1)                      # once a runtime error in split


def test_standard_experiment_binary_pairings():
    for name, grasp in (("e1", "task1"), ("e2", "task2"), ("e3", "task3"),
                        ("e4", "task6")):
        spec = standard_experiment(name)
        assert spec.experiment_id == name
        assert len(spec.sources) == 1
        assert spec.select == (grasp, "task4")
        assert spec.relabel_positive == ("task4",)
        assert spec.ratios == DEFAULT_RATIOS


def test_standard_experiment_multiclass_and_fusion():
    e5 = standard_experiment("e5")
    assert len(e5.sources) == 1 and e5.select is None and e5.relabel_positive is None
    assert e5.sources[0].synth.num_classes == 6
    assert e5.sources[0].synth.trials_per_class == 20

    e6 = standard_experiment("e6")
    assert len(e6.sources) == 2
    assert e6.select == ("task2", "task4", "gridsurvey")
    assert e6.relabel_positive is None
    assert e6.sources[1].take == ("task1",)
    assert e6.sources[1].rename == (("task1", "gridsurvey"),)
    assert e6.sources[1].synth.trials_per_class == 24

    e7 = standard_experiment("e7")
    assert "task4" not in e7.select
    assert e7.select == ("task1", "task2", "task3", "task5", "task6", "gridsurvey")
    assert e7.relabel_positive == ("gridsurvey",)

    e8 = standard_experiment("e8")
    assert e8.select is None
    assert e8.relabel_positive == ("gridsurvey",)
    assert len(e8.sources) == 2


def test_standard_experiment_seed_spacing():
    spec = standard_experiment("e6", seed=40)
    assert spec.seed == 40
    assert spec.sources[0].synth.seed == 141
    assert spec.sources[1].synth.seed == 242


def test_standard_experiment_unknown_name():
    with pytest.raises(ConfigError):
        standard_experiment("e9")


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def test_run_experiment_basic_report():
    report = run_experiment(small_spec())
    assert report.experiment_id == "tiny"
    assert report.vocab == ("task1", "task2", "task3")
    assert report.channel_names == ("c01", "c02")
    assert report.seed == 3
    assert len(report.outcomes) == 1
    outcome = report.outcomes[0]
    assert outcome.confusion.shape == (3, 3)
    assert int(outcome.confusion.sum()) == 3          # one test trace per class
    assert len(outcome.per_class) == 3
    assert 0.0 <= outcome.macro_f1 <= 1.0
    assert outcome.split_seed == 3
    assert report.network_config.channels == 2
    assert report.network_config.input_frames == 40   # padded to block multiple
    assert report.network_config.num_classes == 3


def test_run_experiment_stage_order_plain():
    report = run_experiment(small_spec())
    assert report.stages == ("generate", "split", "standardize_fit",
                             "standardize_apply", "pad", "build", "train",
                             "evaluate")


def test_run_experiment_stage_order_with_shaping():
    report = run_experiment(shaped_spec())
    assert report.stages == ("generate", "merge", "select", "relabel", "split",
                             "standardize_fit", "standardize_apply", "pad",
                             "build", "train", "evaluate")
    assert report.vocab == ("neg(task2)", "pos(extra)")
    assert report.outcomes[0].confusion.shape == (2, 2)


def test_run_experiment_pads_merged_sources_to_the_longest_trace():
    longer = SourceSpec(kind="synth", take=("task1",), rename=(("task1", "extra"),),
                        synth=replace(small_synth(seed=11), frame_min=45, frame_max=52))
    spec = small_spec(sources=(SourceSpec(kind="synth", synth=small_synth()), longer))
    lengths = [[t.frames for t in load_source(s).traces] for s in spec.sources]
    assert max(lengths[0]) <= 40 < 45 <= min(lengths[1])     # merged traces differ in length
    report = run_experiment(spec)
    assert report.network_config.input_frames == padded_length(max(lengths[1]), 10) == 60


def test_run_experiment_multiple_ratios():
    spec = small_spec(ratios=((0.8, 0.1, 0.1), (0.6, 0.2, 0.2)))
    report = run_experiment(spec)
    assert [o.fractions for o in report.outcomes] == [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2)]
    assert [o.split_seed for o in report.outcomes] == [3, 4]
    assert report.outcomes[0].ratio_tag() == "0.8/0.1/0.1"
    assert report.outcomes[0].file_tag() == "80-10-10"
    assert report.outcomes[1].file_tag() == "60-20-20"
    assert int(report.outcomes[1].confusion.sum()) == 6   # 2 test traces per class


def test_run_experiment_deterministic():
    first = run_experiment(shaped_spec())
    second = run_experiment(shaped_spec())
    assert render_report(first, "text") == render_report(second, "text")
    assert render_report(first, "csv") == render_report(second, "csv")
    for a, b in zip(first.outcomes, second.outcomes):
        assert np.array_equal(a.confusion, b.confusion)
        assert serialize(a.network) == serialize(b.network)


def test_run_experiment_wraps_stage_errors():
    spec = small_spec(select=("task1", "nosuch"))
    with pytest.raises(ExperimentError) as excinfo:
        run_experiment(spec)
    err = excinfo.value
    assert err.experiment_id == "tiny"
    assert err.stage == "select"
    assert isinstance(err.cause, InputError)
    assert "tiny" in str(err) and "select" in str(err)


def test_run_experiment_reports_an_unknown_positive_class_by_name():
    with pytest.raises(ExperimentError) as excinfo:
        run_experiment(small_spec(relabel_positive=("task2", "nosuch")))
    assert excinfo.value.stage == "relabel" and isinstance(excinfo.value.cause, InputError)
    assert str(excinfo.value.cause) == ("positive class name(s) ['nosuch'] not in vocab "
                                        "['task1', 'task2', 'task3']")


def _run_with_one_huge_value(tmp_path, std, trace, seed):
    """Run a 12-trace, 2-channel CSV source whose trace number ``trace`` holds
    one 3e38 value, with warnings as errors; return the ExperimentError."""
    rng = np.random.default_rng(0)
    for n in range(12):
        values = rng.normal(0.0, std, (2, 30)).astype(np.float32)
        if n == trace:
            values[1, 7] = 3e38
        write_trace_csv(Trace(values=values, channel_names=("c01", "c02")),
                        str(tmp_path / f"task{n % 2 + 1}_trial{n // 2 + 1:02d}.csv"))
    spec = small_spec(experiment_id="ovf", sources=(SourceSpec(kind="csv", path=str(tmp_path)),),
                      ratios=((0.6, 0.2, 0.2),), seed=seed)
    with warnings.catch_warnings(), pytest.raises(ExperimentError) as excinfo:
        warnings.simplefilter("error")
        run_experiment(spec)
    return excinfo.value


def test_a_trace_that_standardizes_past_float32_fails_its_stage_without_a_warning(tmp_path):
    # small channel spreads put the one 3e38 value past float32 once it is
    # standardized; at seed 0 its trace lands outside the training part
    err = _run_with_one_huge_value(tmp_path, std=0.1, trace=0, seed=0)
    assert err.stage == "standardize_apply"
    assert isinstance(err.cause, NumericError)
    assert str(err.cause) == "trace values contain NaN or Inf"


@pytest.mark.parametrize("trace,stage", [(0, "evaluate"), (5, "train")])
def test_an_input_that_overflows_the_forward_pass_fails_its_stage_without_a_warning(
        tmp_path, trace, stage):
    # with unit spreads the 3e38 value standardizes to a finite float32, which
    # overflows inside the network; at seed 5 trace 0 lands in the test part
    # and trace 5 in the validation part, which training evaluates each epoch
    err = _run_with_one_huge_value(tmp_path, std=1.0, trace=trace, seed=5)
    assert err.stage == stage
    assert isinstance(err.cause, NumericError)
    assert str(err.cause) == "logits contains NaN or Inf"


def test_run_experiment_wraps_load_errors(tmp_path):
    spec = small_spec(sources=(SourceSpec(kind="csv", path=str(tmp_path / "missing")),))
    with pytest.raises(ExperimentError) as excinfo:
        run_experiment(spec)
    assert excinfo.value.stage == "load"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_text_structure_binary():
    report = run_experiment(shaped_spec())
    text = render_report(report, "text")
    lines = text.splitlines()
    assert lines[0] == "experiment: shaped"
    assert any(line.startswith("stages: ") for line in lines)
    # the confusion grid of a 2-class run carries exactly 4 count cells
    grid_start = lines.index("  confusion matrix (rows true, columns predicted):")
    rows = lines[grid_start + 2: grid_start + 4]
    cells = [cell for row in rows for cell in row.split()[1:]]
    assert len(cells) == 4
    assert all(cell.isdigit() for cell in cells)
    assert sum(int(c) for c in cells) == int(report.outcomes[0].confusion.sum())
    # one f1 per class plus the macro line
    assert sum(1 for line in lines if "f1=" in line) == 3
    assert any(line.strip().startswith("MACRO") for line in lines)
    assert any(line.strip().startswith("accuracy=") for line in lines)
    assert text.endswith("\n")
    assert "seconds" not in text


def test_render_csv_schema_and_values():
    report = run_experiment(small_spec(ratios=((0.8, 0.1, 0.1), (0.6, 0.2, 0.2))))
    rows = list(csv_module.reader(io.StringIO(render_report(report, "csv"))))
    assert rows[0] == ["experiment_id", "split_ratio", "class_name", "precision",
                       "recall", "f1", "support", "macro_f1"]
    body = rows[1:]
    assert len(body) == 2 * (3 + 1)               # per ratio: 3 classes + MACRO
    first = body[0]
    outcome = report.outcomes[0]
    assert first[0] == "tiny"
    assert first[1] == "0.8/0.1/0.1"
    assert first[2] == "task1"
    assert abs(float(first[3]) - outcome.per_class[0].precision) < 1e-6
    assert abs(float(first[5]) - outcome.per_class[0].f1) < 1e-6
    assert int(first[6]) == outcome.per_class[0].support
    macro_row = body[3]
    assert macro_row[2] == "MACRO"
    assert macro_row[3] == "" and macro_row[4] == ""
    assert abs(float(macro_row[5]) - outcome.macro_f1) < 1e-6
    assert int(macro_row[6]) == int(outcome.confusion.sum())
    second_tags = {row[1] for row in body[4:]}
    assert second_tags == {"0.6/0.2/0.2"}


def test_render_report_rejects_unknown_format():
    report = run_experiment(small_spec())
    with pytest.raises(ConfigError):
        render_report(report, "json")


def test_write_experiment_outputs(tmp_path):
    report = run_experiment(small_spec())
    written = write_experiment_outputs(report, str(tmp_path))
    assert written == ["tiny_report.txt", "tiny_report.csv", "tiny_labels.txt",
                       "tiny_80-10-10.intc", "tiny_80-10-10_stats.csv"]
    labels = (tmp_path / "tiny_labels.txt").read_text().splitlines()
    assert labels == ["task1", "task2", "task3"]
    assert (tmp_path / "tiny_report.txt").read_text() == render_report(report, "text")
    reloaded = load_model(str(tmp_path / "tiny_80-10-10.intc"))
    assert serialize(reloaded) == serialize(report.outcomes[0].network)
    stats, names = load_stats(str(tmp_path / "tiny_80-10-10_stats.csv"))
    assert names == ("c01", "c02")
    np.testing.assert_allclose(stats.mean, report.outcomes[0].stats.mean)
    np.testing.assert_allclose(stats.std, report.outcomes[0].stats.std)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_experiment_config_explicit():
    spec = parse_experiment_config({
        "experiment.id": "custom",
        "experiment.seed": "5",
        "experiment.ratios": "0.8/0.1/0.1, 0.6/0.2/0.2",
        "experiment.select": "task1, task2",
        "experiment.relabel_positive": "task2",
        "experiment.block_frames": "10",
        "source.1.kind": "synth",
        "source.1.num_classes": "3",
        "source.1.trials_per_class": "10",
        "source.1.channels": "2",
        "source.1.frame_min": "30",
        "source.1.frame_max": "40",
        "model.conv_filters": "2, 2",
        "model.kernel_width": "3",
        "model.fc_sizes": "8",
        "train.epochs": "2",
        "train.batch_size": "4",
    })
    assert spec.experiment_id == "custom"
    assert spec.seed == 5
    assert spec.ratios == ((0.8, 0.1, 0.1), (0.6, 0.2, 0.2))
    assert spec.select == ("task1", "task2")
    assert spec.relabel_positive == ("task2",)
    assert spec.block_frames == 10
    assert spec.sources[0].synth.num_classes == 3
    assert spec.sources[0].synth.seed == 5 + 101     # derived when not given
    assert spec.network.conv_filters == (2, 2)
    assert spec.train.epochs == 2


def test_parse_experiment_config_standard_base():
    spec = parse_experiment_config({
        "experiment.standard": "e3",
        "experiment.seed": "9",
        "train.epochs": "5",
    })
    assert spec.experiment_id == "e3"
    assert spec.select == ("task3", "task4")
    assert spec.relabel_positive == ("task4",)
    assert spec.sources[0].synth.seed == 9 + 101
    assert spec.train.epochs == 5
    assert spec.network.conv_filters == (16, 32, 64, 64)


def test_parse_experiment_config_two_sources():
    spec = parse_experiment_config({
        "experiment.id": "fused",
        "source.1.kind": "synth",
        "source.2.kind": "synth",
        "source.2.num_classes": "2",
        "source.2.take": "task1",
        "source.2.rename": "task1:gridsurvey",
    })
    assert len(spec.sources) == 2
    assert spec.sources[0].synth.seed == 101
    assert spec.sources[1].synth.seed == 202
    assert spec.sources[1].take == ("task1",)
    assert spec.sources[1].rename == (("task1", "gridsurvey"),)


def test_parse_experiment_config_explicit_source_seed():
    spec = parse_experiment_config({
        "experiment.id": "seeded",
        "source.1.kind": "synth",
        "source.1.seed": "77",
    })
    assert spec.sources[0].synth.seed == 77


def test_parse_experiment_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# tiny experiment\n"
        "experiment.id = filecfg\n"
        "experiment.ratios = 0.8/0.1/0.1\n"
        "source.1.kind = synth\n"
        "source.1.num_classes = 3\n"
        "train.epochs = 2\n"
    )
    spec = parse_experiment_config(parse_kv_file(str(path)), origin=str(path))
    assert spec.experiment_id == "filecfg"
    assert spec.ratios == ((0.8, 0.1, 0.1),)
    assert spec.train.epochs == 2


def test_parse_experiment_config_rejections():
    with pytest.raises(ConfigError):
        parse_experiment_config({"source.1.kind": "synth"})       # no id
    with pytest.raises(ConfigError):
        parse_experiment_config({"experiment.id": "x"})           # no sources
    with pytest.raises(ConfigError):
        parse_experiment_config({"experiment.id": "x",
                                 "source.2.kind": "synth"})       # gap in numbering
    with pytest.raises(ConfigError):
        parse_experiment_config({"experiment.id": "x",
                                 "source.1.kind": "synth",
                                 "experiment.ratios": "0.8/0.2"})  # malformed ratio
    with pytest.raises(ConfigError):
        parse_experiment_config({"experiment.id": "x",
                                 "source.1.kind": "synth",
                                 "source.1.trails_per_class": "4"})  # typo
