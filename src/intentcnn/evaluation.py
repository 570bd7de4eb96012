"""Experiment assembly and execution: sources, protocol stages, reports.

An experiment describes where labeled traces come from (synthetic recipes
and/or CSV directories), how classes are reshaped (merge, select, binary
relabel), and how the classifier is trained and scored.  The runner executes
the fixed protocol for every requested split ratio::

    load/generate -> merge -> select -> relabel -> split
        -> standardize_fit (train only) -> standardize_apply -> pad
        -> build -> train -> evaluate

and reports a confusion matrix plus per-class precision/recall/F1 and
macro-F1 per ratio.  Reports render to text or CSV; both renderings are
byte-deterministic for a given spec and seed.

The eight standard experiment presets pair manipulation classes against the
survey class in various ways over two synthetic sources ("data2", a six-class
set, and "data3", a one-class grid-survey set merged in), using the class
numbering convention task1..task6 with task4 as the survey class.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import KeyReader, check_bounds, csv_text, items_of, write_utf8
from .dataset import (
    DEFAULT_BLOCK_FRAMES,
    SYNTH_KEYS,
    LabeledDataset,
    SplitSpec,
    StandardizationStats,
    SynthSpec,
    format_ratio,
    load_csv_dir,
    merge_datasets,
    pad_traces,
    padded_length,
    relabel_binary,
    rename_classes,
    save_stats,
    select_classes,
    standardize_apply,
    standardize_fit,
    stratified_split,
    synth_generate,
)
from .errors import ConfigError, ExperimentError, InputError
from .metrics import ClassMetrics, accuracy, confusion_matrix, macro_f1, per_class_metrics
from .model import (
    EpochRecord,
    Network,
    NetworkConfig,
    TrainSpec,
    build_network,
    parse_network_config,
    parse_train_spec,
    save_model,
    train,
)

log = logging.getLogger(__name__)

DEFAULT_RATIOS: tuple[tuple[float, float, float], ...] = (
    (0.8, 0.1, 0.1),
    (0.7, 0.15, 0.15),
    (0.6, 0.2, 0.2),
)

STANDARD_EXPERIMENTS = ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8")

# seed spacing between generated sources, so source k defaults to
# experiment seed + k * SOURCE_SEED_STRIDE
SOURCE_SEED_STRIDE = 101


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpec:
    """One dataset source: a synthetic recipe or a directory of trace CSVs.

    ``take`` keeps only the named classes right after loading; ``rename``
    maps class names (applied after ``take``), letting a generated class pose
    as a differently-named task before fusion.
    """

    kind: str = field(metadata={"choices": ("synth", "csv")})
    synth: SynthSpec | None = None
    path: str | None = None
    take: tuple[str, ...] | None = None
    rename: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        check_bounds(self)
        if self.kind == "synth" and self.synth is None:
            raise ConfigError("synth source needs a generation recipe")
        if self.kind == "csv" and not self.path:
            raise ConfigError("csv source needs a directory path")


def _experiment_id(text: str) -> str:
    """``text``, if it can name an experiment's output files."""
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", text):
        raise ConfigError(f"experiment id must be a non-empty file-name-safe token, got {text!r}")
    return text


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one experiment end to end."""

    experiment_id: str
    sources: tuple[SourceSpec, ...]
    select: tuple[str, ...] | None = None
    relabel_positive: tuple[str, ...] | None = None
    ratios: tuple[tuple[float, float, float], ...] = field(default=DEFAULT_RATIOS,
                                                          metadata={"nonempty": True})
    seed: int = field(default=0, metadata={"min": 0})
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainSpec = field(default_factory=TrainSpec)
    block_frames: int = field(default=DEFAULT_BLOCK_FRAMES, metadata={"min": 1})

    def __post_init__(self):
        check_bounds(self)
        _experiment_id(self.experiment_id)
        if not self.sources:
            raise ConfigError("an experiment needs at least one dataset source")
        for fractions in self.ratios:
            SplitSpec(*fractions)  # validates each triple sums to 1


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class RatioOutcome:
    """Everything produced for one split ratio."""

    fractions: tuple[float, float, float]
    split_seed: int
    stats: StandardizationStats
    confusion: np.ndarray
    per_class: tuple[ClassMetrics, ...]
    macro_f1: float
    accuracy: float
    history: list[EpochRecord]
    best_epoch: int
    stopped_early: bool
    network: Network

    def ratio_tag(self) -> str:
        return format_ratio(self.fractions)

    def file_tag(self) -> str:
        return "-".join(str(round(f * 100)) for f in self.fractions)


@dataclass
class EvaluationReport:
    """Per-ratio outcomes plus the configuration echo."""

    experiment_id: str
    vocab: tuple[str, ...]
    channel_names: tuple[str, ...]
    seed: int
    stages: tuple[str, ...]
    network_config: NetworkConfig
    train_spec: TrainSpec
    outcomes: list[RatioOutcome]


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def load_source(source: SourceSpec) -> LabeledDataset:
    """Materialize one source, applying its take/rename shaping."""
    if source.kind == "synth":
        data = synth_generate(source.synth)
    else:
        data = load_csv_dir(source.path)
    if source.take is not None:
        data = select_classes(data, source.take)
    if source.rename is not None:
        data = rename_classes(data, dict(source.rename))
    return data


def run_experiment(spec: ExperimentSpec) -> EvaluationReport:
    """Execute the full protocol for every split ratio; deterministic per seed.

    Any failure is re-raised as ExperimentError carrying the experiment id and
    the protocol stage that failed.
    """
    stages: list[str] = []

    def stage(name, fn):
        if name not in stages:
            stages.append(name)
        try:
            return fn()
        except ExperimentError:
            raise
        except Exception as exc:
            raise ExperimentError(spec.experiment_id, name, exc) from exc

    datasets = [stage("generate" if source.kind == "synth" else "load",
                      lambda source=source: load_source(source))
                for source in spec.sources]
    data = datasets[0]
    for other in datasets[1:]:
        data = stage("merge", lambda a=data, b=other: merge_datasets(a, b))
    if spec.select is not None:
        data = stage("select", lambda: select_classes(data, spec.select))
    if spec.relabel_positive is not None:
        data = stage("relabel", lambda: relabel_binary(data, spec.relabel_positive))
    if not data.traces:
        raise ExperimentError(spec.experiment_id, "select",
                              InputError("no traces left after source shaping"))

    target_frames = padded_length(max(t.frames for t in data.traces), spec.block_frames)
    config = replace(spec.network, channels=data.channels, input_frames=target_frames,
                     num_classes=len(data.vocab))
    outcomes: list[RatioOutcome] = []
    for index, fractions in enumerate(spec.ratios):
        split_seed = spec.seed + index
        split_spec = SplitSpec(*fractions, seed=split_seed)
        parts = stage("split", lambda: stratified_split(data, split_spec))
        stats = stage("standardize_fit", lambda: standardize_fit(parts[0]))
        parts = stage("standardize_apply",
                      lambda: tuple(standardize_apply(p, stats) for p in parts))
        parts = stage("pad", lambda: tuple(
            pad_traces(p, spec.block_frames, target_frames) for p in parts))
        network = stage("build", lambda: build_network(config, seed=spec.seed))
        arrays = [(np.stack([t.values for t in p.traces]), p.labels) for p in parts]
        result = stage("train", lambda: train(network, arrays[0][0], arrays[0][1],
                                              arrays[1][0], arrays[1][1], spec.train))
        outcome = stage("evaluate", lambda: _evaluate_ratio(
            network, arrays[2][0], arrays[2][1], fractions, split_seed, stats, result))
        outcomes.append(outcome)
        log.info("experiment %s ratio %s: macro_f1=%.4f (%d epochs)",
                 spec.experiment_id, outcome.ratio_tag(), outcome.macro_f1,
                 len(outcome.history))
    return EvaluationReport(
        experiment_id=spec.experiment_id,
        vocab=data.vocab,
        channel_names=data.channel_names,
        seed=spec.seed,
        stages=tuple(stages),
        network_config=config,
        train_spec=spec.train,
        outcomes=outcomes,
    )


def _evaluate_ratio(network: Network, test_x, test_y, fractions, split_seed, stats,
                    result) -> RatioOutcome:
    preds = network.predict(test_x)
    matrix = confusion_matrix(np.asarray(test_y), preds, network.num_classes)
    return RatioOutcome(
        fractions=tuple(fractions),
        split_seed=split_seed,
        stats=stats,
        confusion=matrix,
        per_class=per_class_metrics(matrix),
        macro_f1=macro_f1(matrix),
        accuracy=accuracy(matrix),
        history=result.history,
        best_epoch=result.best_epoch,
        stopped_early=result.stopped_early,
        network=network,
    )


# ---------------------------------------------------------------------------
# standard experiment presets
# ---------------------------------------------------------------------------

def standard_experiment(name: str, seed: int = 0,
                        train_spec: TrainSpec | None = None) -> ExperimentSpec:
    """The eight preset experiments over the two synthetic stand-in sources.

    Source "data2" is a six-class set (task1..task6, 20 trials each, seed =
    experiment seed + 101); "data3" contributes one extra survey-style class
    named gridsurvey (24 trials, seed = experiment seed + 202).  task4 plays
    the survey class among task1..task6.
    """
    key = name.lower()
    if key not in STANDARD_EXPERIMENTS:
        raise ConfigError(f"unknown standard experiment {name!r}; expected one of "
                          f"{', '.join(STANDARD_EXPERIMENTS)}")
    data2 = SourceSpec(kind="synth", synth=SynthSpec(
        num_classes=6, trials_per_class=20, channels=24, seed=seed + SOURCE_SEED_STRIDE))
    data3 = SourceSpec(kind="synth", synth=SynthSpec(
        num_classes=2, trials_per_class=24, channels=24, seed=seed + 2 * SOURCE_SEED_STRIDE),
        take=("task1",), rename=(("task1", "gridsurvey"),))
    survey = "task4"
    pairings = {"e1": "task1", "e2": "task2", "e3": "task3", "e4": "task6"}
    if key in pairings:
        select = (pairings[key], survey)
        spec = dict(sources=(data2,), select=select, relabel_positive=(survey,))
    elif key == "e5":
        spec = dict(sources=(data2,), select=None, relabel_positive=None)
    elif key == "e6":
        spec = dict(sources=(data2, data3), select=("task2", survey, "gridsurvey"),
                    relabel_positive=None)
    elif key == "e7":
        keep = ("task1", "task2", "task3", "task5", "task6", "gridsurvey")
        spec = dict(sources=(data2, data3), select=keep,
                    relabel_positive=("gridsurvey",))
    else:  # e8
        spec = dict(sources=(data2, data3), select=None,
                    relabel_positive=("gridsurvey",))
    return ExperimentSpec(experiment_id=key, seed=seed,
                          train=train_spec if train_spec is not None else TrainSpec(), **spec)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_SOURCE_KEY_RE = re.compile(r"^source\.(\d+)\.(.+)$")


def parse_experiment_config(pairs: dict[str, str], origin: str = "<config>",
                            origins: dict[str, str] | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from key=value pairs; errors name ``origins[key]`` or ``origin``.

    Recognized keys: ``experiment.id`` (required), ``experiment.seed``,
    ``experiment.ratios`` (comma list of a/b/c triples), ``experiment.select``,
    ``experiment.relabel_positive``, ``experiment.block_frames``,
    ``experiment.standard`` (an e1..e8 preset name supplying the id, sources,
    select and relabel_positive that the explicit keys leave out), per-source
    ``source.N.*`` blocks (numbered from 1), and the ``model.*`` / ``train.*``
    blocks, whose ``model.*`` keys leave out the network's DATA_DERIVED_FIELDS:
    the runner takes those from the data.  Every other field takes its
    ExperimentSpec default.  A generated source without an explicit
    ``source.N.seed`` uses experiment seed + 101*N.
    """
    reader = KeyReader(pairs, origin, origins)
    seed = reader.take_field(ExperimentSpec, "experiment.", "seed")
    preset = reader.take("experiment.standard", None, lambda name: standard_experiment(name, seed),
                         f"one of {', '.join(STANDARD_EXPERIMENTS)}")

    experiment_id = reader.take("experiment.id", preset and preset.experiment_id,
                                _experiment_id, "a non-empty file-name-safe token")
    if experiment_id is None:
        raise ConfigError(f"{origin}: key 'experiment.id' is required")
    ratios = reader.take_field(ExperimentSpec, "experiment.", "ratios", types=(
        items_of(_parse_ratio), "ratios like 0.8/0.1/0.1, each in (0, 1), summing to 1"))
    select = reader.take_list("experiment.select")
    relabel = reader.take_list("experiment.relabel_positive")
    block_frames = reader.take_field(ExperimentSpec, "experiment.", "block_frames")

    sources = _parse_sources(pairs, reader, seed) or (preset and preset.sources)
    if not sources:
        raise ConfigError(f"{origin}: at least one source.N.kind block is required")

    network = parse_network_config(reader)
    train_spec = parse_train_spec(reader)
    reader.reject_unknown()
    return ExperimentSpec(
        experiment_id=experiment_id,
        sources=sources,
        select=select if select is not None else preset and preset.select,
        relabel_positive=relabel if relabel is not None else preset and preset.relabel_positive,
        ratios=ratios,
        seed=seed,
        network=network,
        train=train_spec,
        block_frames=block_frames,
    )


def _parse_ratio(item: str) -> tuple[float, float, float]:
    train, val, test = item.split("/")          # a ValueError unless three parts
    return SplitSpec(float(train), float(val), float(test)).fractions


def _parse_sources(pairs, reader: KeyReader, experiment_seed: int) -> tuple[SourceSpec, ...]:
    numbers = sorted({int(m.group(1)) for key in pairs
                      if (m := _SOURCE_KEY_RE.match(key))})
    sources = []
    for n in numbers:
        prefix = f"source.{n}."         # a block's errors name where its first key came from
        block_origin = reader.origin_of(min(key for key in pairs if key.startswith(prefix)))
        if n != len(sources) + 1:
            raise ConfigError(f"{block_origin}: source blocks must be numbered 1..N without "
                              f"gaps, got {numbers}")
        if prefix + "kind" not in pairs:
            raise ConfigError(f"{block_origin}: key '{prefix}kind' is required")
        kind = reader.take_field(SourceSpec, prefix, "kind")
        take = reader.take_list(prefix + "take")
        rename = reader.take_list(prefix + "rename", None, _parse_rename, "old:new pairs")
        path = synth = None
        if kind == "csv":
            path = reader.take(prefix + "path")
            if not path:                # blame an empty path, else the csv kind
                blamed = prefix + ("kind" if path is None else "path")
                raise ConfigError(f"{reader.origin_of(blamed)}: key '{prefix}path' must "
                                  f"name a directory for a csv source")
        else:
            synth = reader.take_fields(SynthSpec(seed=experiment_seed + SOURCE_SEED_STRIDE * n),
                                       prefix, SYNTH_KEYS)
        sources.append(SourceSpec(kind=kind, synth=synth, path=path, take=take or None,
                                  rename=rename))
    return tuple(sources)


def _parse_rename(item: str) -> tuple[str, str]:
    old, new = item.split(":", 1)               # a ValueError without a ':'
    return old.strip(), new.strip()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(report: EvaluationReport, format: str = "text") -> str:
    """Render a report deterministically; format is 'text' or 'csv'."""
    if format == "text":
        return _render_text(report)
    if format == "csv":
        return _render_csv(report)
    raise ConfigError(f"report format must be 'text' or 'csv', got {format!r}")


def _network_echo(config: NetworkConfig) -> str:
    """``field=value`` for each NetworkConfig field in order, tuples joined with ``/``."""
    return " ".join(f"{key}={'/'.join(map(str, v)) if isinstance(v, tuple) else v}"
                    for key, v in asdict(config).items())


def _train_echo(spec: TrainSpec) -> str:
    return (f"optimizer={spec.optimizer} epochs={spec.epochs} "
            f"batch_size={spec.batch_size} learning_rate={spec.learning_rate:g} "
            f"patience={spec.patience} seed={spec.seed}")


def _render_text(report: EvaluationReport) -> str:
    lines = [
        f"experiment: {report.experiment_id}",
        f"classes: {', '.join(report.vocab)}",
        f"channels: {len(report.channel_names)} ({', '.join(report.channel_names)})",
        f"seed: {report.seed}",
        f"stages: {' -> '.join(report.stages)}",
        f"network: {_network_echo(report.network_config)}",
        f"train: {_train_echo(report.train_spec)}",
    ]
    name_width = max(len(name) for name in report.vocab + ("MACRO",))
    for outcome in report.outcomes:
        lines.append("")
        lines.append(f"split {outcome.ratio_tag()} (split_seed={outcome.split_seed}):")
        lines.append(f"  epochs_run={len(outcome.history)} best_epoch={outcome.best_epoch} "
                     f"early_stop={'yes' if outcome.stopped_early else 'no'}")
        count_width = max(len(str(int(outcome.confusion.max()))),
                          *(len(name) for name in report.vocab))
        lines.append("  confusion matrix (rows true, columns predicted):")
        header = " ".join(name.rjust(count_width) for name in report.vocab)
        lines.append(f"  {'':{name_width}}  {header}")
        for k, name in enumerate(report.vocab):
            row = " ".join(str(int(c)).rjust(count_width) for c in outcome.confusion[k])
            lines.append(f"  {name:{name_width}}  {row}")
        lines.append("  metrics:")
        for name, m in zip(report.vocab, outcome.per_class):
            flag = "  [0/0]" if m.zero_division else ""
            lines.append(f"  {name:{name_width}}  precision={m.precision:.6f} "
                         f"recall={m.recall:.6f} f1={m.f1:.6f} support={m.support}{flag}")
        lines.append(f"  {'MACRO':{name_width}}  f1={outcome.macro_f1:.6f}")
        lines.append(f"  accuracy={outcome.accuracy:.6f}")
    return "\n".join(lines) + "\n"


def _render_csv(report: EvaluationReport) -> str:
    rows = [("experiment_id", "split_ratio", "class_name", "precision", "recall", "f1",
             "support", "macro_f1")]
    for outcome in report.outcomes:
        tag, macro = outcome.ratio_tag(), f"{outcome.macro_f1:.6f}"
        rows += [(report.experiment_id, tag, name, f"{m.precision:.6f}", f"{m.recall:.6f}",
                  f"{m.f1:.6f}", m.support, macro)
                 for name, m in zip(report.vocab, outcome.per_class)]
        rows.append((report.experiment_id, tag, "MACRO", "", "", macro,
                     int(outcome.confusion.sum()), macro))
    return csv_text(rows)


def write_experiment_outputs(report: EvaluationReport, out_dir: str) -> list[str]:
    """Write report files, per-ratio models and stats, and the label list.

    Returns the written paths (relative to out_dir) in a fixed order.
    """
    os.makedirs(out_dir, exist_ok=True)
    texts = {"report.txt": render_report(report, "text"),
             "report.csv": render_report(report, "csv"),
             "labels.txt": "".join(f"{name}\n" for name in report.vocab)}
    written = [f"{report.experiment_id}_{suffix}" for suffix in texts]
    for name, text in zip(written, texts.values()):
        write_utf8(os.path.join(out_dir, name), text)
    for outcome in report.outcomes:
        model_name = f"{report.experiment_id}_{outcome.file_tag()}.intc"
        save_model(outcome.network, os.path.join(out_dir, model_name))
        written.append(model_name)
        stats_name = f"{report.experiment_id}_{outcome.file_tag()}_stats.csv"
        save_stats(outcome.stats, report.channel_names,
                   os.path.join(out_dir, stats_name))
        written.append(stats_name)
    return written
