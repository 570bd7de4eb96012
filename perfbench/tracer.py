"""Span recording around intentcnn's functions, installed from outside the package.

The tracer replaces module attributes with timing wrappers, so every call a
module makes through its own namespace (``intentcnn.model.conv1d_forward``,
``intentcnn.cli.load_model``, ...) becomes a span: name, start, end, parent
span and request id.  Spans live in compact in-memory arrays and are written
out once, when the run ends.  Anything the installer cannot find is skipped,
so a refactored program still runs; the metrics of a missing hook read 0.

The untraced runs install only :class:`StepClock`, two timestamps per
training step, which is what the step latency needs, plus one run of the
host-speed calibration kernel between steps.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

# Modules whose functions are traced, in the order the per-layer report uses.
MODULES = ("numerics", "dataset", "model", "metrics", "evaluation", "streaming", "cli")

# Private callables that mark a protocol stage, a command or a hop; everything
# public is wrapped as well.
EXTRA_FUNCTIONS = {
    "model": ("_validate",),
    "evaluation": ("_evaluate_ratio",),
}
METHODS = {
    ("model", "Network"): ("forward_train", "forward_infer", "backward",
                           "update_running_stats", "snapshot", "restore",
                           "predict_proba", "predict"),
}

SETUP, TIMED = 0, 1


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.phase = array("b")
        self.shapes: dict[int, tuple] = {}     # span -> argument shapes (numerics)
        self.pad_frames: list[tuple[int, int, int]] = []  # (phase, zero frames, frames) at conv1
        self.read_wait = 0.0                   # seconds blocked on the stream source
        self.current_request = 0
        self.current_phase = SETUP
        self._stack: list[int] = []
        self._first_conv_pending = False
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        now = time.perf_counter()
        stack = self._stack
        while stack and stack[-1] != index:    # an open step ends with its parent
            self.end[stack.pop()] = now
        if stack:
            stack.pop()
        self.end[index] = now

    def top_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def discard(self, index: int) -> None:
        """Forget the newest span (a stream push that did not complete a hop)."""
        if index == len(self.start) - 1:
            for arr in (self.name, self.start, self.end, self.parent, self.request,
                        self.phase):
                arr.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, record_shapes: bool):
        tracer = self
        nid = self.name_id(name)
        step_nid = self.name_id("model.step")
        is_forward_train = name == "model.Network.forward_train"
        ends_step = is_forward_train or name == "model._validate"
        is_forward = name in ("model.Network.forward_train", "model.Network.forward_infer")
        is_conv = name == "numerics.conv1d_forward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ends_step and tracer.top_name() == "model.step":
                tracer.close(tracer._stack[-1])
            if is_forward_train and tracer.top_name() == "model.train":
                tracer.current_request += 1
                tracer.open(step_nid)
            if is_forward:
                tracer._first_conv_pending = True
            if is_conv and tracer._first_conv_pending:
                tracer._first_conv_pending = False
                x = args[0]
                if getattr(x, "ndim", 0) == 3:
                    zero = int((~x.any(axis=1)).sum())
                    tracer.pad_frames.append((tracer.current_phase, zero,
                                              x.shape[0] * x.shape[2]))
            index = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if record_shapes:
                    tracer.shapes[index] = tuple(_describe(a) for a in args)
        return wrapper

    def _wrap_push(self, fn):
        """A stream push is a span only when it completes a hop; the hop is the
        request that the lines parsed before it belong to."""
        tracer = self
        nid = self.name_id("streaming._StreamState.push")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index)
            if result is None:
                tracer.discard(index)
            else:
                tracer.current_request += 1
            return result
        return wrapper

    def _wrap_source(self, fn):
        """Time how long the stream waits on its line source."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            source = fn(*args, **kwargs)

            def timed_lines():
                it = iter(source)
                clock = time.perf_counter
                while True:
                    t0 = clock()
                    try:
                        line = next(it)
                    except StopIteration:
                        tracer.read_wait += clock() - t0
                        return
                    tracer.read_wait += clock() - t0
                    yield line
            return timed_lines()
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every traced function in every namespace of ``package`` that binds it."""
        modules = {name: getattr(package, name, None) for name in MODULES}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            if module is None:
                continue
            wanted = set(EXTRA_FUNCTIONS.get(short, ()))
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or inspect.isgeneratorfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home not in modules or not value.__module__.startswith(package.__name__):
                    continue
                if attr.startswith("_") and attr not in wanted:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(
                        value, f"{home}.{value.__name__}",
                        record_shapes=home == "numerics" or value.__name__ == "parse_trace_csv")
                if short == "cli" and attr == "open_line_source":
                    self._replace(module, attr, self._wrap_source(value))
                else:
                    self._replace(module, attr, wrappers[id(value)])
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules.get(short), cls_name, None)
            for method in methods:
                if cls is not None and method in vars(cls):
                    self._replace(cls, method, self._wrap(
                        vars(cls)[method], f"{short}.{cls_name}.{method}", False))
        state_cls = getattr(modules.get("streaming"), "_StreamState", None)
        if state_cls is not None and "push" in vars(state_cls):
            self._replace(state_cls, "push", self._wrap_push(vars(state_cls)["push"]))
        cli = modules.get("cli")
        commands = getattr(cli, "_COMMANDS", None)
        if isinstance(commands, dict):
            for key, fn in list(commands.items()):
                commands[key] = self._wrap(fn, f"cli.{fn.__name__}", False)
            self._restore.append((commands, None, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if attr is None:                    # the cli command table
                for key, fn in list(owner.items()):
                    owner[key] = getattr(fn, "__wrapped__", fn)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\tphase\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.request[i]}\t{self.phase[i]}\n")

    def span_cost_seconds(self, calls: int = 20000) -> float:
        """Cost one wrapper adds to a call, measured on a no-op function."""
        def noop():
            return None
        wrapped = self._wrap(noop, "trace.calibration", False)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        cost = (time.perf_counter() - t0 - bare) / calls
        for arr in (self.name, self.start, self.end, self.parent, self.request, self.phase):
            del arr[len(arr) - calls:]
        return cost


def _describe(arg):
    """What the per-layer report needs of an argument, without keeping it alive."""
    if hasattr(arg, "shape"):
        return tuple(arg.shape)
    return arg if isinstance(arg, (int, float, str)) else None


class StepClock:
    """Training-step latency without tracing.

    A step runs from one ``Network.forward_train`` call to the next, or to the
    validation pass (``forward_infer``) that ends the epoch.  The calibration
    kernel runs before each step, outside the step's interval.
    """

    def __init__(self, network_cls, calib):
        self.cls = network_cls
        self.calib = calib
        self.steps: list[float] = []
        self.step_ends: list[float] = []
        self._started: float | None = None
        self._originals = {}

    def install(self) -> None:
        clock = self
        for method, opens in (("forward_train", True), ("forward_infer", False)):
            original = vars(self.cls).get(method)
            if original is None:
                continue
            self._originals[method] = original

            def wrapper(*args, _original=original, _opens=opens, **kwargs):
                now = time.perf_counter()
                if clock._started is not None:
                    clock.steps.append(now - clock._started)
                    clock.step_ends.append(now)
                clock._started = None
                if _opens:
                    clock.calib.run()
                    clock._started = time.perf_counter()
                return _original(*args, **kwargs)
            setattr(self.cls, method, wrapper)

    def uninstall(self) -> None:
        for method, original in self._originals.items():
            setattr(self.cls, method, original)
        self._originals.clear()
