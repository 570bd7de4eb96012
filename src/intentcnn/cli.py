"""Command-line entry point: generate / train / eval / predict / stream.

One binary, five subcommands.  ``generate``, ``train`` and ``eval`` share one
configuration story: flat ``key = value`` files layered under command-line
``--set key=value`` overrides and ``--seed`` (command line beats file, file
beats built-in defaults).  ``--show-config`` parses the effective merged
configuration and prints it without running anything.  ``predict`` and
``stream`` take only their own options.

Exit codes: 0 success, 2 configuration error (including unknown flags),
3 data error, 4 training or other runtime error.  The ``INTENT_LOG``
environment variable (``debug`` | ``info`` | ``error``) sets log verbosity;
logs go to stderr so machine-readable stdout stays clean.  :func:`main` may be
called any number of times in one process; it builds its parser once.
"""

from __future__ import annotations

import argparse
import copy
import errno
import functools
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from itertools import zip_longest

import numpy as np

from .config import csv_text, parse_kv_file, read_utf8, render_kv, split_lines, write_utf8
from .dataset import (
    SynthSpec,
    format_ratio,
    load_stats,
    parse_synth_spec,
    parse_trace_csv,
    prepare_input,
    save_stats,
    synth_generate,
    write_trace_csv,
)
from .errors import (ConfigError, DataError, ExperimentError, InputError, IntentCnnError,
                     NumericError, excerpt)
from .evaluation import (
    ExperimentSpec,
    parse_experiment_config,
    render_report,
    run_experiment,
    write_experiment_outputs,
)
from .model import DATA_DERIVED_FIELDS, NetworkConfig, TrainSpec, load_model, save_model
from .streaming import (
    DEFAULT_HOP_FRAMES,
    DEFAULT_WINDOW_FRAMES,
    StreamPrediction,
    WindowConfig,
    check_model_inputs,
    format_error_record,
    format_prediction,
    format_probs,
    open_line_source,
    stream_classify_batches,
)

log = logging.getLogger(__name__)

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "error": logging.ERROR}


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("INTENT_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# defaults, layering, shared plumbing
# ---------------------------------------------------------------------------

def _rendered_defaults(obj, prefix: str = "", skip=()) -> dict[str, str]:
    """``prefix + field`` -> the dataclass field's value as text, for each
    field not in ``skip``; tuples become comma lists."""
    return {prefix + key: ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for key, v in asdict(obj).items() if key not in skip}


def _experiment_defaults() -> dict[str, str]:
    experiment = {f.name: f.default for f in fields(ExperimentSpec)}
    return {
        "experiment.seed": str(experiment["seed"]),
        "experiment.block_frames": str(experiment["block_frames"]),
        "experiment.ratios": ", ".join(map(format_ratio, experiment["ratios"])),
        **_rendered_defaults(NetworkConfig(), "model.", DATA_DERIVED_FIELDS),
        **_rendered_defaults(TrainSpec(), "train."),
    }


def _effective_pairs(args, defaults: dict[str, str], seed_key: str,
                     path: str | None) -> tuple[dict[str, str], dict[str, str]]:
    """defaults < config file ``path`` < --set < --seed, and for each key the
    command line sets, the option that set it ("--set" or "--seed")."""
    given: dict[str, str] = {}
    for item in args.set or ():
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        given[key] = value
    origins = dict.fromkeys(given, "--set")
    if args.seed is not None:
        given[seed_key], origins[seed_key] = str(args.seed), "--seed"
    return {**defaults, **(parse_kv_file(path) if path else {}), **given}, origins


def _check_out(path: str) -> None:
    try:                                # before the work, not after it
        os.lstat(path)                  # NotADirectoryError below a file
    except FileNotFoundError:
        return
    if not os.path.isdir(path):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)


def _read_labels(path: str | None) -> tuple[str, ...] | None:
    if path is None:
        return None
    names = [line.strip() for line in split_lines(read_utf8(path, ConfigError)) if line.strip()]
    if not names:
        raise ConfigError(f"labels file {path!r} is empty")
    return tuple(names)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    pairs, origins = _effective_pairs(args, _rendered_defaults(SynthSpec()), "seed", args.config)
    spec = parse_synth_spec(pairs, args.config or "<defaults>", origins)
    if args.show_config:
        sys.stdout.write(render_kv(pairs))
        return 0
    _check_out(args.out)
    data = synth_generate(spec)
    os.makedirs(args.out, exist_ok=True)
    manifest_rows = [("filename", "class_name", "frames")]
    trial_counter = [0] * len(data.vocab)
    for trace, label in zip(data.traces, data.labels):
        trial_counter[label] += 1
        filename = f"task{label + 1}_trial{trial_counter[label]:02d}.csv"
        write_trace_csv(trace, os.path.join(args.out, filename))
        manifest_rows.append((filename, data.vocab[label], trace.frames))
    write_utf8(os.path.join(args.out, "manifest.csv"), csv_text(manifest_rows))
    print(f"wrote {len(data.traces)} trace files and manifest.csv to {args.out}")
    return 0


def _cmd_train(args) -> int:
    defaults = _experiment_defaults()
    pairs, origins = _effective_pairs(args, defaults, "experiment.seed", args.config)
    # the bare defaults name no source; --show-config prints them as a template
    spec = None if args.show_config and pairs == defaults else parse_experiment_config(
        {"experiment.id": "train", **pairs}, args.config or "<defaults>", origins)
    if args.show_config:
        sys.stdout.write(render_kv(pairs))
        return 0
    _check_out(args.out)
    spec = replace(spec, ratios=(spec.ratios[0],))
    report = run_experiment(spec)
    outcome = report.outcomes[0]
    os.makedirs(args.out, exist_ok=True)
    save_model(outcome.network, os.path.join(args.out, "model.intc"))
    save_stats(outcome.stats, report.channel_names, os.path.join(args.out, "stats.csv"))
    write_utf8(os.path.join(args.out, "history.csv"), csv_text(
        [("epoch", "train_loss", "val_loss", "val_macro_f1"),
         *((r.epoch, r.train_loss, r.val_loss, r.val_macro_f1) for r in outcome.history)]))
    write_utf8(os.path.join(args.out, "labels.txt"), "".join(f"{name}\n" for name in report.vocab))
    for name in ("model.intc", "stats.csv", "history.csv", "labels.txt"):
        print(name)
    print(f"trained {spec.experiment_id}: epochs_run={len(outcome.history)} "
          f"best_epoch={outcome.best_epoch} test_macro_f1={outcome.macro_f1:.6f}")
    return 0


def _cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    defaults = _experiment_defaults()
    all_pairs = [_effective_pairs(args, defaults, "experiment.seed", path)
                 for path in args.config]
    specs = [parse_experiment_config(pairs, path, origins)
             for path, (pairs, origins) in zip(args.config, all_pairs)]
    if args.show_config:
        for path, (pairs, _) in zip(args.config, all_pairs):
            print(f"# {path}")
            sys.stdout.write(render_kv(pairs))
        return 0
    _check_out(args.out)
    if args.jobs == 1:
        reports = [run_experiment(spec) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(run_experiment, specs))
    os.makedirs(args.out, exist_ok=True)
    for report in reports:                      # spec order, regardless of --jobs
        write_experiment_outputs(report, args.out)
        sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_predict(args) -> int:
    network = load_model(args.model)
    stats, channel_names = load_stats(args.stats)
    class_names = _read_labels(args.labels)
    check_model_inputs(network, stats, class_names)
    trace = parse_trace_csv(args.trace)
    for k, (got, want) in enumerate(zip_longest(trace.channel_names, channel_names), start=1):
        if got != want:
            raise InputError(f"{args.trace}: channel {k} is {excerpt(got)} where {args.stats} "
                             f"has {excerpt(want)}")
    x = prepare_input(trace.values, stats, network.config.input_frames)
    overflowed = ~np.isfinite(x[:, :trace.frames].T)
    if overflowed.any():
        r, c = divmod(int(np.argmax(overflowed)), trace.channels)
        raise NumericError(f"{args.trace}: row {r + 2}, column "
                           f"{excerpt(trace.channel_names[c])}: standardized value "
                           f"overflows float32")
    probs = network.predict_proba(x[None, :, :])[0]
    print(format_probs(int(np.argmax(probs)), probs, class_names))
    return 0


def _cmd_stream(args) -> int:
    network = copy.deepcopy(load_model(args.model))     # shares no page with the file
    stats, _ = load_stats(args.stats)
    cfg = WindowConfig(network=network, stats=stats, window_frames=args.window,
                       hop_frames=args.hop, class_names=_read_labels(args.labels))
    batches = open_line_source(args.source)
    for event in stream_classify_batches(batches, cfg):
        if isinstance(event, StreamPrediction):
            print(format_prediction(event, cfg), flush=True)
        else:
            print(format_error_record(event), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

@functools.cache                 # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intentcnn",
        description="Train and run intent classifiers over multichannel "
                    "robot-arm traces.")
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p):
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--show-config", action="store_true",
                       help="print the effective merged config and exit")
        p.add_argument("--seed", type=int, default=None,
                       help="override the experiment/generation seed")

    p = sub.add_parser("generate", help="write a synthetic trace dataset as CSVs")
    p.add_argument("--config", help="key=value generation recipe")
    p.add_argument("--out", default="generated", help="output directory")
    add_common(p)

    p = sub.add_parser("train", help="train one model and save its artifacts")
    p.add_argument("--config", help="key=value experiment description")
    p.add_argument("--out", default="trained", help="output directory")
    add_common(p)

    p = sub.add_parser("eval", help="run experiments and write report files")
    p.add_argument("--config", nargs="+", required=True,
                   help="one or more experiment config files")
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument("--format", choices=("text", "csv"), default="text",
                   help="report format echoed to stdout")
    p.add_argument("--jobs", type=int, default=1,
                   help="experiments to run concurrently")
    add_common(p)

    p = sub.add_parser("predict", help="classify one trace CSV")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--stats", required=True, help="standardization stats CSV")
    p.add_argument("--trace", required=True, help="trace CSV to classify")
    p.add_argument("--labels", help="class-name file (one per line)")

    p = sub.add_parser("stream", help="classify a live frame stream per hop")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--stats", required=True, help="standardization stats CSV")
    p.add_argument("--labels", help="class-name file (one per line)")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW_FRAMES,
                   help="window length in frames")
    p.add_argument("--hop", type=int, default=DEFAULT_HOP_FRAMES,
                   help="hop length in frames")
    p.add_argument("--source", default="-",
                   help="'-' for standard input or tcp:HOST:PORT")
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "stream": _cmd_stream,
}


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:        # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    if args.subcommand is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.subcommand](args)
    except BrokenPipeError:
        return 0                     # downstream consumer closed the pipe
    except Exception as exc:         # every failure maps to an exit code
        expected = isinstance(exc, (IntentCnnError, OSError, RuntimeError))
        print(f"error: {exc}" if expected else f"error: {exc!r}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, ExperimentError) else exc
        return 2 if isinstance(cause, ConfigError) else 3 if isinstance(cause, DataError) else 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
