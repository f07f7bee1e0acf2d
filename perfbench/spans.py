"""Spans around calls into abflux's modules, recorded from outside the
program, and the per-layer metrics made from them.

``install`` replaces public names in the module namespaces where they are
called (``abflux.cli.fit_mle``, ``abflux.inference.pattern_components``,
...) by wrappers that record a span: name, start, end and parent.  The one
private name wrapped is ``abflux.slits._fresnel_ei_array``: it is the
boundary between the slits and fresnel layers, and slits calls no public
fresnel function.  Spans stay in memory; the worker reduces them to
metrics after each pass.

Layer seconds are summed over spans, so work in sweep's thread pool counts
thread-seconds.  A span's self time is its duration minus the part of it
that its child spans cover.  A span opened on a pool thread has no parent
on that thread; it is parented to the CLI command span that is open.
"""

import functools
import os
import threading
import time

# (module, attribute, layer, what the span counts)
TARGETS = (
    ("abflux.cli", "sample_hits", "sampling.sample", "hits"),
    ("abflux.cli", "fit_mle", "inference.fit", None),
    ("abflux.cli", "run_discriminate", "inference.discriminate", None),
    ("abflux", "log_likelihood", "inference.loglik", None),
    ("abflux.cli", "density_grid", "pattern.density", None),
    ("abflux.pattern", "density", "pattern.density", None),
    ("abflux.sampling", "density", "pattern.density", None),
    ("abflux.cli", "pattern_components", "pattern.components", "positions"),
    ("abflux.pattern", "pattern_components", "pattern.components", "positions"),
    ("abflux.inference", "pattern_components", "pattern.components", "positions"),
    ("abflux.pattern", "slit_amplitude_pair", "slits.amplitudes", None),
    ("abflux.slits", "_fresnel_ei_array", "fresnel.pipeline", "args"),
    ("abflux.cli", "write_hits_csv", "io.write_hits", "written"),
    ("abflux.cli", "read_hits_csv", "io.read_hits", "read"),
    ("abflux.io", "read_hits_csv", "io.read_hits", "read"),
    ("abflux.cli", "write_surface_csv", "io.write_surface", "written"),
    ("abflux.cli", "write_pattern_csv", "io.write_pattern", "written"),
    ("abflux.cli", "write_panel_csv", "io.write_panel", "written"),
    ("abflux.cli", "write_pgm", "io.write_pgm", "written"),
    ("abflux.cli", "write_hypothesis_csv", "io.write_comparison", "written"),
)

CLI_COMMANDS = ("simulate", "infer", "discriminate", "sweep", "figure3", "figure4")
IO_LAYERS = ("write_hits", "read_hits", "write_surface", "write_pattern",
             "write_panel", "write_pgm", "write_comparison")

# Per-layer metric names with units, in BENCHMARK.json order.
METRICS = (
    [("fresnel.eval_s", "s"), ("fresnel.args_per_s", "1/s"), ("fresnel.pipeline_s", "s"),
     ("slits.amplitudes_s", "s"), ("slits.calls", "count"),
     ("pattern.components_s", "s"), ("pattern.components_calls", "count"),
     ("pattern.positions", "count"), ("pattern.density_s", "s"),
     ("sampling.sample_s", "s"), ("sampling.hits_per_s", "1/s"),
     ("inference.fit_s", "s"), ("inference.discriminate_s", "s"),
     ("inference.loglik_s", "s"), ("inference.context_s", "s"),
     ("inference.search_s", "s")]
    + [(f"io.{layer}_s", "s") for layer in IO_LAYERS]
    + [("io.bytes_written", "B"), ("io.bytes_read", "B")]
    + [(f"cli.{command}_s", "s") for command in CLI_COMMANDS]
    + [("cli.self_s", "s"), ("cli.import_s", "s")]
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = 0


class Recorder:
    """In-memory spans of one pass."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._command = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self._command)
        stack.append(span)
        if name.startswith("cli."):
            self._command = span
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span is self._command:
            self._command = None
        with self._lock:
            self.spans.append(span)

    def reset(self):
        self.spans = []


def _counter(kind, args, result):
    if kind == "hits":
        return len(result)
    if kind == "positions":
        return len(args[1])
    if kind == "args":
        return len(args[0])
    return os.path.getsize(args[0])  # bytes written or read


def install(recorder):
    """Replace every target by a wrapper that records a span."""
    import importlib

    for module_name, attr, layer, kind in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, _original=original, _layer=layer, _kind=kind, **kwargs):
            span = recorder.open(_layer)
            try:
                result = _original(*args, **kwargs)
            finally:
                recorder.close(span)
            if _kind is not None:
                span.count = _counter(_kind, args, result)
            return result

        setattr(module, attr, functools.wraps(original)(wrapper))


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans):
    """Per-layer numbers of one pass (every per-layer metric except the
    fresnel kernel timing and cli.import_s, which the worker adds)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def duration(span):
        return span.end - span.start

    def self_time(span):
        kids = [(max(k.start, span.start), min(k.end, span.end))
                for k in children.get(id(span), ())]
        return duration(span) - _covered([k for k in kids if k[1] > k[0]])

    def outermost(name):
        return [s for s in spans if s.name == name
                and not (s.parent is not None and s.parent.name == name)]

    def total(name):
        return sum(duration(s) for s in outermost(name))

    def self_total(prefix):
        return sum(self_time(s) for s in spans if s.name.startswith(prefix))

    def under_inference(span):
        parent = span.parent
        while parent is not None:
            if parent.name.startswith("inference."):
                return True
            parent = parent.parent
        return False

    components = [s for s in spans if s.name == "pattern.components"]
    sample_s = total("sampling.sample")
    hits = sum(s.count for s in outermost("sampling.sample"))
    out = {
        "fresnel.pipeline_s": total("fresnel.pipeline"),
        "slits.amplitudes_s": self_total("slits.amplitudes"),
        "slits.calls": sum(1 for s in spans if s.name == "slits.amplitudes"),
        "pattern.components_s": total("pattern.components"),
        "pattern.components_calls": len(components),
        "pattern.positions": sum(s.count for s in components),
        "pattern.density_s": self_total("pattern.density"),
        "sampling.sample_s": sample_s,
        "sampling.hits_per_s": hits / sample_s if sample_s > 0 else 0.0,
        "inference.fit_s": total("inference.fit"),
        "inference.discriminate_s": total("inference.discriminate"),
        "inference.loglik_s": total("inference.loglik"),
        "inference.context_s": sum(duration(s) for s in components if under_inference(s)),
        "inference.search_s": self_total("inference."),
        "io.bytes_written": sum(s.count for s in spans
                                if s.name.startswith("io.write_")),
        "io.bytes_read": sum(s.count for s in spans if s.name == "io.read_hits"),
        "cli.self_s": self_total("cli."),
    }
    for layer in IO_LAYERS:
        out[f"io.{layer}_s"] = total(f"io.{layer}")
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = total(f"cli.{command}")
    return out
