"""In-memory span tracing of the graphgame layers, installed from outside.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, both at its definition site and at every module attribute
that imports it by name (so `graphgame.cli.simulate_repeated` and
`graphgame.repeated.simulate_repeated` share one wrapper). `restore` puts
every original attribute back. Spans are recorded only inside
`Tracer.recording`, so the benchmark's own correctness checks, which call the
same functions, never show up as layer work.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

PACKAGE = "graphgame"
LAYERS = ("graphs", "games", "mixed", "chains", "simulate", "repeated", "formats", "cli")

# Helpers called once per stage, per matrix entry or per node pair. Wrapping
# them would time the wrapper, not the layer; their cost stays in the
# caller's self time.
PER_ELEMENT = frozenset(
    {
        "simulate.draw_index",
        "formats.fmt_float",
        "graphs.are_adjacent",
        "graphs.split_label",
    }
)
# Public methods that are layer boundaries in their own right.
METHODS = (("simulate", "Trace", "prefix_counts"),)


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    parent: int | None  # index of the enclosing span, None for a root
    start: float
    end: float = 0.0
    tag: str | None = None  # the workload's label for the running operation
    counts: dict[str, float] | None = None  # computed from arguments or outputs


def _stage_steps(args, kwargs, result) -> dict[str, float]:
    config = args[0]
    return {"stage_steps": config.stages * config.game.r}


def _deviation_steps(args, kwargs, result) -> dict[str, float]:
    config = args[0]
    t_eval = kwargs["t_eval"] if "t_eval" in kwargs else args[3]
    replicas = kwargs["replicas"] if "replicas" in kwargs else args[4]
    # each replica runs every coalition's equilibrium path plus the deviation
    return {"stage_steps": replicas * (config.game.r + 1) * t_eval}


def _product_steps(args, kwargs, result) -> dict[str, float]:
    spec = args[0]
    return {"steps": spec.steps * len(spec.components)}


def _trace_csv(args, kwargs, result) -> dict[str, float]:
    trace, path = args[0], args[1]
    return {"rows": trace.length + 1, "bytes": os.path.getsize(path)}


def _dobrushin_bytes(args, kwargs, result) -> dict[str, float]:
    kernel = args[0]
    n = kernel.n if hasattr(kernel, "n") else len(kernel)
    return {"bytes": 8 * n**3}  # the n x n x n overlap buffer


def _product_pairs(args, kwargs, result) -> dict[str, float]:
    n = 1
    for factor in args[0]:
        n *= factor.n
    return {"pairs": n * (n - 1) // 2}


# computed counts, keyed by span name; each sees (args, kwargs, result)
COUNTERS: dict[str, Callable[..., dict[str, float]]] = {
    "repeated.simulate_repeated": _stage_steps,
    "repeated.deviation_test": _deviation_steps,
    "simulate.run_product": _product_steps,
    "formats.dump_trace_csv": _trace_csv,
    "chains.dobrushin": _dobrushin_bytes,
    "graphs.strong_product": _product_pairs,
}


def layer_modules() -> dict[str, Any]:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


class Tracer:
    """Wraps the layer functions and records spans while recording is on."""

    def __init__(self):
        self.package = importlib.import_module(PACKAGE)
        self.modules = layer_modules()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._tag: str | None = None
        self._active = False
        self._saved: list[tuple[Any, str, Any]] = []

    def _span_names(self) -> dict[int, str]:
        """id(original function) -> span name, for every public function
        defined in a layer module."""
        names: dict[int, str] = {}
        for layer, module in self.modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in PER_ELEMENT:
                    names[id(value)] = name
        return names

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, 0.0, tag=tracer._tag)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.perfbench_span = name
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        names = self._span_names()
        wrappers: dict[int, Callable] = {}
        sites = [self.package, *self.modules.values()]
        for module in sites:
            for attr, value in list(vars(module).items()):
                name = names.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, name)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"{layer}.{attr}"))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def recording(self, tag: str | None):
        """Record spans of the calls made inside this block, labelled `tag`."""
        self._active, self._tag = True, tag
        try:
            yield
        finally:
            self._active, self._tag = False, None

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def leftovers() -> list[str]:
    """Attributes of the package and its layer modules that still hold a
    tracing wrapper; empty once `Tracer.restore` has run."""
    modules = layer_modules()
    owners = [importlib.import_module(PACKAGE), *modules.values()]
    owners += [getattr(modules[layer], cls) for layer, cls, _ in METHODS]
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if hasattr(value, "perfbench_span")
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
