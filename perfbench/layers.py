"""Per-layer metrics of a traced run, computed from its spans.

Every figure comes from the timed part of the run where that part exercises
the layer, and otherwise from the set-up (for example, backward timings on
predict-csv come from its set-up train).  A layer the run never reaches
reads 0.  Times are medians per call unless the name says otherwise.
FLOPs, bytes and shares marked ``computed`` are derived from tensor shapes,
not measured.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import SETUP, TIMED

STAGES = {
    "generate": "evaluation.load_source",
    "split": "dataset.stratified_split",
    "standardize_fit": "dataset.standardize_fit",
    "standardize_apply": "dataset.standardize_apply",
    "pad": "dataset.pad_traces",
    "build": "model.build_network",
    "train": "model.train",
    "evaluate": "evaluation._evaluate_ratio",
}
DATASET_CALLS = {
    "synth_ms": "dataset.synth_generate",
    "split_ms": "dataset.stratified_split",
    "standardize_fit_ms": "dataset.standardize_fit",
    "standardize_apply_ms": "dataset.standardize_apply",
    "pad_ms": "dataset.pad_traces",
    "parse_csv_ms": "dataset.parse_trace_csv",
    "load_stats_ms": "dataset.load_stats",
}
MODEL_CALLS = {
    "backward_ms": ("model.Network.backward",),
    "forward_ms": ("model.Network.forward_train", "model.Network.forward_infer"),
    "snapshot_ms": ("model.Network.snapshot",),
    "validate_ms": ("model._validate",),
    "predict_proba_ms": ("model.Network.predict_proba",),
    "load_ms": ("model.load_model",),
    "save_ms": ("model.save_model",),
}
LAYER_CALLS = {          # numerics call -> (layer kind, direction, key of its shapes)
    "numerics.conv1d_forward": ("conv", "fwd", lambda s: (s[0][1:], s[1])),
    "numerics.conv1d_backward": ("conv", "bwd", lambda s: (s[0][1:], s[1])),
    "numerics.maxpool1d_forward": ("pool", "fwd", lambda s: s[0][1:]),
    "numerics.maxpool1d_backward": ("pool", "bwd", lambda s: s[0][1:]),
    "numerics.dense_forward": ("fc", "fwd", lambda s: s[1]),
    "numerics.dense_backward": ("fc", "bwd", lambda s: s[1]),
    "numerics.batchnorm_forward_train": ("batchnorm", "fwd", lambda s: ()),
    "numerics.batchnorm_forward_infer": ("batchnorm", "fwd", lambda s: ()),
    "numerics.batchnorm_backward": ("batchnorm", "bwd", lambda s: ()),
}
LOSS_CALLS = ("numerics.softmax", "numerics.categorical_cross_entropy",
              "numerics.softmax_cce_logit_grad")
CONV_LAYERS, FC_LAYERS = 4, ("fc1", "fc2", "output")


def names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for n in range(1, CONV_LAYERS + 1):
        for kind in ("conv", "pool"):
            out += [(f"numerics.{kind}{n}.fwd_ms", "ms"), (f"numerics.{kind}{n}.bwd_ms", "ms")]
    for layer in ("batchnorm",) + FC_LAYERS:
        out += [(f"numerics.{layer}.fwd_ms", "ms"), (f"numerics.{layer}.bwd_ms", "ms")]
    out += [("numerics.softmax_loss_ms", "ms"), ("numerics.flops_per_step", "computed-flop"),
            ("numerics.bytes_per_step", "computed-byte"),
            ("numerics.pad_frame_share", "computed-ratio")]
    out += [("model.step_ms_p50", "ms"), ("model.step_ms_p90", "ms"),
            ("model.optimizer_ms", "ms")]
    out += [(f"model.{key}", "ms") for key in MODEL_CALLS]
    out += [("model.useful_epoch_share", "computed-ratio")]
    out += [(f"dataset.{key}", "ms") for key in DATASET_CALLS]
    out += [("dataset.parse_csv_mb_per_s", "MB/s"), ("metrics.calls", "count"),
            ("metrics.ms", "ms")]
    out += [(f"evaluation.stage.{stage}_s", "s") for stage in STAGES]
    out += [("evaluation.write_outputs_ms", "ms")]
    out += [("streaming.parse_us", "us"), ("streaming.classify_ms", "ms"),
            ("streaming.hop_self_ms", "ms"), ("streaming.read_wait_ms", "ms"),
            ("streaming.sender_lag_ms_max", "ms"), ("streaming.error_records", "count"),
            ("streaming.restarts", "count"), ("streaming.warmup_share", "computed-ratio")]
    out += [("cli.predict_self_ms", "ms"), ("cli.format_us", "us")]
    out += [("trace.latency_ms_p50", "ms"), ("trace.spans_per_op", "count"),
            ("trace.span_cost_us", "us"), ("trace.overhead_share", "computed-ratio")]
    return out


class Spans:
    """Column view of a tracer's spans with durations and self times."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.name = np.array(tracer.name, dtype=np.int64)
        self.start = np.array(tracer.start)
        self.dur = np.array(tracer.end) - self.start
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.phase = np.array(tracer.phase, dtype=np.int64)
        has_parent = self.parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def ids(self, *names: str) -> list[int]:
        return [self.tracer._name_ids[n] for n in names if n in self.tracer._name_ids]

    def select(self, *names: str) -> np.ndarray:
        """Indices of the named spans in the timed part, or else in the set-up."""
        mask = np.isin(self.name, self.ids(*names))
        for phase in (TIMED, SETUP):
            found = np.flatnonzero(mask & (self.phase == phase))
            if found.size:
                return found
        return found

    def under(self, index: np.ndarray, *names: str) -> np.ndarray:
        """Spans with one of ``names`` whose parent is one of ``index``."""
        mask = np.isin(self.name, self.ids(*names)) & np.isin(self.parent, index)
        return np.flatnonzero(mask)

    def ancestor(self, *names: str) -> np.ndarray:
        """For every span, the nearest enclosing span (itself included) named
        one of ``names``, or -1."""
        is_op = np.isin(self.name, self.ids(*names))
        found = np.where(is_op, np.arange(len(self.name)), -1)
        cursor = self.parent.copy()
        while True:
            pending = (found < 0) & (cursor >= 0)
            if not pending.any():
                return found
            hit = pending & is_op[np.maximum(cursor, 0)]
            found[hit] = cursor[hit]
            cursor = np.where(pending & ~hit, self.parent[np.maximum(cursor, 0)], -1)


def _med(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def _per_group(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Sum of values per distinct group id (ignoring group -1)."""
    keep = groups >= 0
    if not keep.any():
        return np.zeros(0)
    _, inverse = np.unique(groups[keep], return_inverse=True)
    return np.bincount(inverse, weights=values[keep])


def compute(tracer, op: str, result, span_cost: float) -> dict[str, float]:
    """All per-layer metrics; ``op`` names the span that is one request of the
    workload (a training step, a predict command, a completed stream push)."""
    s = Spans(tracer)
    m: dict[str, float] = {}
    _numerics(s, op, m)
    _model(s, m)
    m["model.useful_epoch_share"] = result.layer_inputs.get("model.useful_epoch_share", 0.0)
    for key, name in DATASET_CALLS.items():
        m[f"dataset.{key}"] = _med(s.dur[s.select(name)]) * 1e3
    parsed = s.select("dataset.parse_trace_csv")
    sizes = [os.path.getsize(tracer.shapes[i][0]) for i in parsed
             if os.path.exists(tracer.shapes.get(i, ("",))[0])]
    m["dataset.parse_csv_mb_per_s"] = (sum(sizes) / 1e6 / s.dur[parsed].sum()
                                       if sizes else 0.0)
    metric_spans = s.select(*[n for n in tracer.names if n.startswith("metrics.")])
    m["metrics.calls"] = float(metric_spans.size)
    m["metrics.ms"] = float(s.dur[metric_spans].sum()) * 1e3
    runs = s.select("evaluation.run_experiment")
    for stage, name in STAGES.items():
        within = s.under(runs, name)
        m[f"evaluation.stage.{stage}_s"] = _med(_per_group(s.dur[within], s.parent[within]))
    trains = s.select("cli._cmd_train")
    inner = s.under(trains, "evaluation.run_experiment")
    ends = {int(s.parent[i]): s.start[i] + s.dur[i] for i in inner}
    m["evaluation.write_outputs_ms"] = _med(
        [s.start[t] + s.dur[t] - ends[t] for t in trains if t in ends]) * 1e3
    _streaming(s, result, m)
    calls = s.select("cli.main")
    commands = s.under(calls, "cli._cmd_predict")
    predict_calls = s.parent[commands]
    owner = s.ancestor("cli.main")
    cli_spans = np.flatnonzero(np.isin(s.name, s.ids(*[n for n in tracer.names
                                                        if n.startswith("cli.")])))
    cli_spans = cli_spans[np.isin(owner[cli_spans], predict_calls)]
    m["cli.predict_self_ms"] = _med(_per_group(s.self_time[cli_spans], owner[cli_spans])) * 1e3
    m["cli.format_us"] = _med(s.dur[s.select("streaming.format_prediction",
                                             "streaming.format_error_record")]) * 1e6
    timed = s.phase == TIMED
    ops = np.flatnonzero(np.isin(s.name, s.ids(op)) & timed)
    m["trace.latency_ms_p50"] = result.metrics.get("latency_ms_p50", (0.0, ""))[0]
    m["trace.spans_per_op"] = float(timed.sum()) / max(1, ops.size)
    m["trace.span_cost_us"] = span_cost * 1e6
    top = timed & (s.parent < 0)
    m["trace.overhead_share"] = (float(timed.sum()) * span_cost / s.dur[top].sum()
                                 if top.any() else 0.0)
    return m


def _numerics(s: Spans, op: str, m: dict[str, float]) -> None:
    tracer = s.tracer
    # Name layers in the order a forward pass meets them.
    order: dict[tuple, str] = {}
    counts = {"conv": 0, "pool": 0, "fc": 0}
    fc_keys = []
    forward_names = [n for n, (_, d, _) in LAYER_CALLS.items() if d == "fwd"]
    for i in np.flatnonzero(np.isin(s.name, s.ids(*forward_names))):
        name = tracer.names[s.name[i]]
        kind, _, key_of = LAYER_CALLS[name]
        key = (kind, key_of(tracer.shapes[i]))
        if key in order or kind == "batchnorm":
            continue
        counts[kind] += 1
        order[key] = f"{kind}{counts[kind]}"
        if kind == "fc":
            fc_keys.append(key)
    for n, key in enumerate(fc_keys):
        order[key] = FC_LAYERS[-1] if n == len(fc_keys) - 1 else f"fc{n + 1}"
    samples: dict[tuple[str, int], list[float]] = {}
    for name, (kind, direction, key_of) in LAYER_CALLS.items():
        for i in s.select(name):
            layer = "batchnorm" if kind == "batchnorm" else order.get(
                (kind, key_of(tracer.shapes[i])))
            if layer is not None:
                metric = f"numerics.{layer}.{direction}_ms"
                samples.setdefault((metric, int(s.phase[i])), []).append(s.dur[i])
    layers = [f"{kind}{n}" for n in range(1, CONV_LAYERS + 1) for kind in ("conv", "pool")]
    for layer in layers + ["batchnorm", *FC_LAYERS]:
        for direction in ("fwd", "bwd"):
            metric = f"numerics.{layer}.{direction}_ms"
            chosen = samples.get((metric, TIMED)) or samples.get((metric, SETUP), [])
            m[metric] = _med(chosen) * 1e3
    steps = s.select("model.step")
    losses = s.under(steps, *LOSS_CALLS)
    m["numerics.softmax_loss_ms"] = _med(_per_group(s.dur[losses], s.parent[losses])) * 1e3

    owner = s.ancestor(op)
    numeric = np.flatnonzero(np.isin(s.name, s.ids(*[n for n in tracer.names
                                                     if n.startswith("numerics.")])))
    outer = numeric[~np.isin(s.parent[numeric], numeric)]   # not inside another numerics call
    outer = outer[(owner[outer] >= 0) & (s.phase[np.maximum(owner[outer], 0)] == TIMED)]
    if outer.size == 0:
        outer = numeric[~np.isin(s.parent[numeric], numeric)]
        outer = outer[owner[outer] >= 0]
    flops = np.zeros(outer.size)
    traffic = np.zeros(outer.size)
    for j, i in enumerate(outer):
        flops[j], traffic[j] = _cost(tracer.names[s.name[i]], tracer.shapes.get(i, ()))
    m["numerics.flops_per_step"] = _med(_per_group(flops, owner[outer]))
    m["numerics.bytes_per_step"] = _med(_per_group(traffic, owner[outer]))
    pads = [(z, t) for phase, z, t in tracer.pad_frames if phase == TIMED] or \
        [(z, t) for _, z, t in tracer.pad_frames]
    m["numerics.pad_frame_share"] = (sum(z for z, _ in pads) / sum(t for _, t in pads)
                                     if pads else 0.0)


def _cost(name: str, shapes: tuple) -> tuple[float, float]:
    """FLOPs and bytes moved (float32) of one numerics call, from its shapes."""
    size = lambda shape: float(np.prod(shape)) if isinstance(shape, tuple) else 0.0
    f = name.rpartition(".")[2]
    if f in ("conv1d_forward", "conv1d_backward"):
        (b, c, frames), (o, _, k) = shapes[0], shapes[1]
        t = frames - k + 1
        macs = b * o * c * k * t
        inputs = b * c * frames + o * c * k + b * o * t
        if f == "conv1d_forward":
            return 2.0 * macs, 4.0 * (inputs + o)
        return 4.0 * macs + b * o * t, 4.0 * (inputs + b * c * frames + o * c * k + o)
    if f in ("maxpool1d_forward", "maxpool1d_backward"):
        (b, c, frames), pool, stride = shapes[0], shapes[1], shapes[2]
        out = b * c * ((frames - pool) // stride + 1)
        if f == "maxpool1d_forward":
            return float(out * (pool - 1)), 4.0 * (b * c * frames + out)
        return float(out * pool), 4.0 * (2 * b * c * frames + out)
    if f in ("dense_forward", "dense_backward"):
        (b, i), (o, _) = shapes[0], shapes[1]
        if f == "dense_forward":
            return 2.0 * b * o * i, 4.0 * (b * i + o * i + o + b * o)
        return 4.0 * b * o * i + b * o, 4.0 * (2 * b * i + 2 * o * i + b * o + o)
    per_element = {"relu_forward": (1, 8), "relu_backward": (1, 12),
                   "batchnorm_forward_train": (8, 8), "batchnorm_forward_infer": (4, 8),
                   "batchnorm_backward": (10, 12), "softmax": (4, 8),
                   "categorical_cross_entropy": (3, 8), "softmax_cce_logit_grad": (2, 12),
                   "one_hot": (1, 4)}
    if f in per_element and shapes:
        n = size(shapes[-1] if f == "batchnorm_backward" else shapes[0])
        ops, nbytes = per_element[f]
        return ops * n, nbytes * n
    return 0.0, 0.0


def _model(s: Spans, m: dict[str, float]) -> None:
    steps = s.select("model.step")
    m["model.step_ms_p50"] = _med(s.dur[steps]) * 1e3
    m["model.step_ms_p90"] = (float(np.percentile(s.dur[steps], 90)) * 1e3
                              if steps.size else 0.0)
    parts = s.under(steps, "model.Network.forward_train", "model.Network.backward",
                    "model.Network.update_running_stats")
    covered = np.zeros(len(s.dur))
    np.add.at(covered, s.parent[parts], s.dur[parts])
    m["model.optimizer_ms"] = _med(s.dur[steps] - covered[steps]) * 1e3
    for key, span_names in MODEL_CALLS.items():
        m[f"model.{key}"] = _med(s.dur[s.select(*span_names)]) * 1e3


def _streaming(s: Spans, result, m: dict[str, float]) -> None:
    hops = s.select("streaming._StreamState.push")
    m["streaming.parse_us"] = _med(s.dur[s.select("streaming.parse_frame_line")]) * 1e6
    m["streaming.classify_ms"] = _med(s.dur[s.select("streaming.classify_window")]) * 1e3
    m["streaming.hop_self_ms"] = _med(s.self_time[hops]) * 1e3
    m["streaming.read_wait_ms"] = (s.tracer.read_wait / hops.size * 1e3) if hops.size else 0.0
    for key in ("streaming.sender_lag_ms_max", "streaming.error_records",
                "streaming.restarts", "streaming.warmup_share"):
        m[key] = float(result.layer_inputs.get(key, 0.0))
