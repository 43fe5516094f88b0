"""Outside-in span tracer for the netsde benchmark.

The tracer records spans from the benchmark's side of each layer
boundary: it replaces a public netsde function with a wrapper that opens a
span around the call, at every netsde module attribute that holds that
function, so callers inside the package go through the wrapper no matter
which module they look the name up in (lsa_solve, for instance, is called
both as netsde.lasso.lsa_solve from lambda_path and as
netsde.experiments.lsa_solve from select_graph).  Nothing under src/ is
changed, and the per-step drift and diffusion closures are never wrapped:
they run inside the simulator's step loop and are measured through it.

A span records its name, start, end, parent span and op id.  Self time is
the span's duration minus the durations of its direct children; the spans
of one op nest, so the self times of every span under an op's root sum to
the root's duration.  Warnings and log records are charged to the
innermost open span, which is how psd_project clips, validation_loss size
warnings and lambda_path's active-count lines are counted without
matching on message text.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import logging
import pkgutil
import time
import warnings
from collections import Counter
from dataclasses import dataclass


class TraceTargetError(RuntimeError):
    """A function the tracer was told to wrap is missing or not a function."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: object


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    module and attr name the function where it is defined.  span is the
    span name, or a callable (bound arguments -> name) for functions whose
    calls play different roles.  on_return(tracer, bound, result) records
    counts once the call has returned; it runs outside the span.
    """

    module: str
    attr: str
    span: object
    on_return: object = None


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self.counts: dict[object, Counter] = {}
        self.peaks: dict[object, dict[str, float]] = {}
        self._stack: list[int] = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, op):
        """Open the root span of one op (or of the set-up) and tag its spans."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        self.op = op
        try:
            with self.span(name) as rec:
                yield rec
        finally:
            self.op = None

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of self.spans."""
        child_total = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec.parent >= 0:
                child_total[rec.parent] += rec.end - rec.start
        return [rec.end - rec.start - child_total[i]
                for i, rec in enumerate(self.spans)]

    # -- counters ---------------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        self.counts.setdefault(self.op, Counter())[key] += value

    def peak(self, key: str, value: float) -> None:
        peaks = self.peaks.setdefault(self.op, {})
        peaks[key] = max(peaks.get(key, value), value)

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, target: Target, signature):
        tracer = self
        name_of = target.span if callable(target.span) else None
        on_return = target.on_return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if name_of is not None or on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.count("trace.bound_calls")
            name = name_of(bound) if name_of is not None else target.span
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore.

        Raises TraceTargetError when a target's module or attribute no
        longer exists, or when it is not a function, so a renamed or
        removed public name stops the traced run instead of silently
        leaving its layer unmeasured.
        """
        modules = _netsde_modules()
        replaced = []
        try:
            for target in targets:
                try:
                    home = importlib.import_module(target.module)
                except ImportError as exc:
                    raise TraceTargetError(f"trace target module "
                                           f"{target.module} is gone: {exc}") from None
                original = getattr(home, target.attr, None)
                if original is None:
                    raise TraceTargetError(f"trace target {target.module}."
                                           f"{target.attr} no longer exists")
                if not inspect.isfunction(original):
                    raise TraceTargetError(
                        f"trace target {target.module}.{target.attr} is not a "
                        f"function (got {type(original).__name__})")
                wrapper = self._wrap(original, target,
                                     inspect.signature(original))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            with self._capture_diagnostics():
                yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def _capture_diagnostics(self):
        tracer = self

        class _Handler(logging.Handler):
            def emit(self, record):
                tracer.count(f"log:{tracer.innermost()}")

        handler = _Handler(level=logging.WARNING)
        logger = logging.getLogger("netsde")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = (
                lambda *args, **kwargs: tracer.count(f"warn:{tracer.innermost()}"))
            logger.addHandler(handler)
            try:
                yield
            finally:
                logger.removeHandler(handler)


def _netsde_modules() -> list:
    root = importlib.import_module("netsde")
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__, "netsde."):
        mods.append(importlib.import_module(info.name))
    return mods


def wrapper_costs() -> tuple[float, float]:
    """Seconds a traced call adds over a plain one: (plain, with binding).

    The second figure is for targets whose span name or counters need the
    bound arguments.  Each is the median of five batches of 20000 calls.
    """
    samples = 20000
    def plain():
        return None

    out = []
    for target in (Target("calibration", "plain", "calibration.plain"),
                   Target("calibration", "plain", "calibration.plain",
                          on_return=lambda tracer, bound, result: None)):
        tracer = Tracer()
        wrapped = tracer._wrap(plain, target, inspect.signature(plain))
        costs = []
        for _ in range(5):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(samples):
                plain()
            t1 = time.perf_counter()
            for _ in range(samples):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / samples)
        costs.sort()
        out.append(max(costs[len(costs) // 2], 0.0))
    return out[0], out[1]
