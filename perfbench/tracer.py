"""Per-layer tracing of gwxlab from outside the package.

The tracer wraps the public functions of the gwxlab modules in every
module namespace that binds them, plus ``PsdModel.evaluate`` and
``PsdModel.continuum``, and counts calls at the ``numpy.fft`` and
``scipy.fft`` entry points.  Each wrapped call records one span (layer,
name, start, end, parent span, op id) in memory; FFT counts are charged
to the innermost open span.  Per-layer numbers are derived from the
spans afterwards, so nothing under ``src/`` changes.

Install it only for traced ops: the wrappers cost a few microseconds a
call, which the benchmark reports as ``trace.overhead_frac``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import math
import os
import sys
import time

# layer name -> gwxlab module; ``detection`` is split by engine below
LAYER_MODULES = {
    "simulation": "gwxlab.simulation",
    "templates": "gwxlab.templates",
    "conditioning": "gwxlab.conditioning",
    "series": "gwxlab.series",
    "detection": "gwxlab.detection",
    "scenarios": "gwxlab.scenarios",
    "cli": "gwxlab.cli",
}
CCF_FUNCTIONS = frozenset({
    "normalized_ccf", "running_window_ccf", "decorrelation_time",
    "ccf_decorrelation_time", "peak_ratio_r3",
})
LAYERS = ("simulation", "templates", "conditioning", "series",
          "detection.mf", "detection.ccf", "scenarios", "cli")
FFT_LAYERS = ("simulation", "conditioning", "series", "detection.mf", "detection.ccf")
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
OP_LAYER = "op"


class Span:
    __slots__ = ("span_id", "parent", "op_id", "layer", "name", "start", "end",
                 "error", "fft_calls", "fft_points", "count")

    def __init__(self, span_id, parent, op_id, layer, name, start):
        self.span_id = span_id
        self.parent = parent
        self.op_id = op_id
        self.layer = layer
        self.name = name
        self.start = start
        self.end = math.nan
        self.error = False
        self.fft_calls = 0
        self.fft_points = 0
        self.count = 0  # bytes moved, windows produced or report bytes, by name


def _layer_of(module_layer: str, func_name: str) -> str:
    if module_layer != "detection":
        return module_layer
    return "detection.ccf" if func_name in CCF_FUNCTIONS else "detection.mf"


def _fft_points(kind: str, args, kwargs) -> int:
    """Samples transformed by one FFT call, computed from the arguments."""
    shape = getattr(args[0], "shape", None) if args else None
    if shape is None:
        return 0
    size = math.prod(shape)
    if kind in FFT_1D:
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        m = shape[axis] if shape else 1
        if n is None:
            n = 2 * (m - 1) if kind in ("irfft", "hfft") else m
        return int(n) * (size // max(m, 1))
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    default_axes = (-2, -1) if kind.endswith("2") else None
    axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
    if axes is None:
        axes = range(-len(s), 0) if s is not None else range(len(shape))
    axes = list(axes)
    covered = math.prod(shape[a] for a in axes) if shape else 1
    if s is None:
        s = [shape[a] for a in axes]
        if kind.startswith("irfft"):
            s[-1] = 2 * (s[-1] - 1)
    return int(math.prod(s)) * (size // max(covered, 1))


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_fft = False
        self.op_id = None

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.op_id, layer, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """One traced op: the root span of its calls."""
        self.op_id = op_id
        span = self._open(OP_LAYER, "op")
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)
            self.op_id = None

    def wrap(self, fn, layer: str, name: str, counter=None):
        """``fn`` recording a span per call; ``counter(args, kwargs, result)``
        gives the span's ``count`` after a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer._close(span)
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._in_fft or not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._stack[-1]
            span.fft_calls += 1
            span.fft_points += _fft_points(kind, args, kwargs)
            tracer._in_fft = True
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_fft = False

        return counted

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap gwxlab's public functions and the FFT entry points."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.fft
        import scipy.fft

        import gwxlab.cli  # noqa: F401  (binds every layer module)
        from gwxlab.simulation import PsdModel

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "gwxlab" or n.startswith("gwxlab."))]
        wrappers = {}
        for module_layer, module_name in LAYER_MODULES.items():
            module = sys.modules[module_name]
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module_name):
                    continue
                layer = _layer_of(module_layer, name)
                wrappers[id(obj)] = self.wrap(obj, layer, name, _COUNTERS.get(name))
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(module, name, wrapper)
        for method in ("evaluate", "continuum"):
            original = vars(PsdModel)[method]
            self._patch(PsdModel, method,
                        self.wrap(original, "simulation", f"PsdModel.{method}"))
        for module in (numpy.fft, scipy.fft):
            for kind in FFT_1D + FFT_ND:
                self._patch(module, kind, self._wrap_fft(getattr(module, kind), kind))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one CSV line."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("span_id,parent,op_id,layer,name,start_s,end_s,error,"
                     "fft_calls,fft_points,count\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.span_id},{parent},{s.op_id},{s.layer},{s.name},"
                         f"{s.start!r},{s.end!r},{int(s.error)},{s.fft_calls},"
                         f"{s.fft_points},{s.count}\n")


def _path_size(args, kwargs, position: int) -> int:
    """Size of the file named by the ``path`` argument at ``position``."""
    return os.path.getsize(args[position] if len(args) > position else kwargs["path"])


# span.count for the functions whose work the benchmark counts
_COUNTERS = {
    "load_strain": lambda a, k, r: _path_size(a, k, 0),
    "load_psd_csv": lambda a, k, r: _path_size(a, k, 0),
    "save_strain": lambda a, k, r: _path_size(a, k, 1),
    "save_psd_csv": lambda a, k, r: _path_size(a, k, 1),
    "running_window_ccf": lambda a, k, r: len(r),
    "emit_report": lambda a, k, r: sum(os.path.getsize(p) for p in r),
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-op layer numbers derived from the spans of ``n_ops`` traced ops.

    A span's self time is its duration minus its children's durations;
    a layer's self time is the sum over its spans.  ``trace.self_sum_frac``
    is the layers' self time over the traced op time: what the wrapped
    layers account for, the rest being benchmark code inside the op.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    per = collections.defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0,
                                           "fft_calls": 0, "fft_points": 0})
    by_name: dict[str, list[Span]] = collections.defaultdict(list)
    op_time = 0.0
    for s in spans:
        acc = per[s.layer]
        acc["self_s"] += (s.end - s.start) - child_time[s.span_id]
        acc["fft_calls"] += s.fft_calls
        acc["fft_points"] += s.fft_points
        if s.layer == OP_LAYER:
            op_time += s.end - s.start
            continue
        acc["calls"] += 1
        acc["errors"] += int(s.error)
        by_name[s.name].append(s)

    def total(name):
        return sum(s.count for s in by_name[name])

    n = max(n_ops, 1)
    out = {}
    for layer in LAYERS:
        acc = per[layer]
        out[f"{layer}.self_ms"] = 1e3 * acc["self_s"] / n
        out[f"{layer}.calls"] = acc["calls"] / n
        out[f"{layer}.errors"] = acc["errors"] / n
    for layer in FFT_LAYERS:
        out[f"{layer}.fft_calls"] = per[layer]["fft_calls"] / n
        out[f"{layer}.fft_points"] = per[layer]["fft_points"] / n
    out["simulation.continuum_evals"] = len(by_name["PsdModel.continuum"]) / n
    out["detection.ccf.windows"] = total("running_window_ccf") / n
    out["series.bytes_read"] = (total("load_strain") + total("load_psd_csv")) / n
    out["series.bytes_written"] = (total("save_strain") + total("save_psd_csv")) / n
    out["scenarios.report_ms"] = 1e3 * sum(s.end - s.start for s in by_name["emit_report"]) / n
    out["scenarios.report_bytes"] = total("emit_report") / n
    layer_self = sum(per[layer]["self_s"] for layer in per if layer != OP_LAYER)
    out["trace.self_sum_frac"] = layer_self / op_time if op_time > 0 else math.nan
    return out
