"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry functions of each ``repro``
layer listed in :data:`TARGETS`.  A function is replaced wherever a
loaded ``repro`` module binds it by name (``engine.backends`` binds
``simulate_trace_vectorized``, ``repro.experiments`` re-exports
``run_experiment``), and methods are replaced on their class, so every
caller goes through the wrapper.  Modules imported later read the
replaced attribute from the defining module.

Each wrapper keeps a span on a per-thread stack.  A layer's self time
is the span's duration minus the durations of the wrapped calls made
inside it; counters are taken at the same boundary.  Spans stay in
memory and are summarised by :meth:`Tracer.report` at the end of the
pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict


# Counter hooks: called after a traced call returns, with the layer,
# the call's arguments bound to the signature, its result and duration.
def _batch_jobs(tracer, layer, bound, result, elapsed) -> None:
    tracer.count(layer, "jobs", len(bound.arguments["jobs"]))


def _vector_accesses(tracer, layer, bound, result, elapsed) -> None:
    tracer.count(layer, "accesses", len(bound.arguments["addresses"]))


def _edc_reads(tracer, layer, bound, result, elapsed) -> None:
    array = bound.arguments["self"]
    tracer.count(layer, "reads", array.words * bound.arguments["rounds"])


def _session(tracer, layer, bound, result, elapsed) -> None:
    session = bound.arguments["self"]
    with tracer.lock:
        tracer.sessions[id(session)] = session


def _store_get(tracer, layer, bound, result, elapsed) -> None:
    tracer.count(layer, "gets", 1)
    tracer.count(layer, "hits", result is not None)


def _experiment(tracer, layer, bound, result, elapsed) -> None:
    experiment = bound.arguments["experiment_id"]
    tracer.count("experiments", experiment, elapsed)
    with tracer.lock:
        tracer.paper_rows.extend(
            (row.paper, row.measured) for row in result.comparisons
        )


#: (layer, defining module, function or Class.method, counter hook).
TARGETS = (
    ("core.methodology", "repro.core.methodology", "design_scenario", None),
    ("explore.candidates", "repro.explore.candidates", "build_candidate",
     None),
    ("workloads.mediabench", "repro.workloads.mediabench", "generate_trace",
     None),
    ("engine.jobs", "repro.engine.jobs", "job_key", None),
    ("engine.jobs", "repro.engine.jobs", "execute_job", None),
    ("engine.session", "repro.engine.session", "SimulationSession.run_jobs",
     _session),
    ("engine.batch", "repro.engine.batch", "execute_group", _batch_jobs),
    ("engine.backends", "repro.engine.backends", "simulate_cache", None),
    ("engine.plan", "repro.engine.plan", "build_stream_plan", None),
    ("engine.vectorized", "repro.engine.vectorized",
     "simulate_trace_vectorized", _vector_accesses),
    ("cpu.chip", "repro.cpu.chip", "Chip.run", None),
    ("cache.edc_layer", "repro.cache.edc_layer", "ProtectedArray.exercise",
     _edc_reads),
    ("reliability.fault_maps", "repro.reliability.fault_maps",
     "generate_fault_map", None),
    ("explore.surrogate", "repro.explore.surrogate", "MetricSurrogate.fit",
     None),
    ("explore.surrogate", "repro.explore.surrogate",
     "MetricSurrogate.predict", None),
    ("explore.frontier", "repro.explore.frontier", "hypervolume", None),
    ("faults.sampling", "repro.faults.sampling", "sample_population", None),
    ("runtime.simulator", "repro.runtime.simulator", "ScheduleSimulator.run",
     None),
    ("service.store", "repro.service.store", "ShardedResultStore.get",
     _store_get),
    ("service.store", "repro.service.store", "ShardedResultStore.put", None),
    ("service.scheduler", "repro.service.scheduler", "ServiceScheduler.submit",
     None),
    ("service.client", "repro.service.client", "ServiceClient.submit", None),
    ("service.client", "repro.service.client", "ServiceClient.stream", None),
    ("experiments.registry", "repro.experiments.registry", "run_experiment",
     _experiment),
)

#: The layers :data:`TARGETS` report under, in order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_rest in TARGETS))


class _Frame:
    __slots__ = ("started", "children")

    def __init__(self, started: float):
        self.started = started
        self.children = 0.0


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.enabled = False
        self.lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.sessions: dict[int, object] = {}
        self.paper_rows: list[tuple[float, float]] = []
        self._local = threading.local()

    def start(self) -> None:
        """Record spans from now on."""
        self.enabled = True

    def stop(self) -> None:
        """Stop recording (checks after the timed region stay out)."""
        self.enabled = False

    def count(self, layer: str, counter: str, value: float) -> None:
        """Add ``value`` to one of a layer's counters."""
        with self.lock:
            self.counters[layer][counter] += value

    # ------------------------------------------------------------ spans
    def _enter(self) -> _Frame:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = _Frame(time.perf_counter())
        stack.append(frame)
        return frame

    def _leave(self, layer: str, frame: _Frame) -> float:
        elapsed = time.perf_counter() - frame.started
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].children += elapsed
        with self.lock:
            self.self_s[layer] += elapsed - frame.children
            self.calls[layer] += 1
        return elapsed

    def wrap(self, layer: str, fn, hook):
        """A span-recording stand-in for ``fn``."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if not tracer.enabled:
                    return (yield from fn(*args, **kwargs))
                frame = tracer._enter()
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer._leave(layer, frame)

            return generator

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._leave(layer, frame)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, layer, bound, result, elapsed)
            return result

        return wrapper

    # ----------------------------------------------------------- report
    def report(self, wall_s: float) -> dict:
        """The pass's per-layer summary (JSON-able)."""
        sessions = defaultdict(int)
        for session in self.sessions.values():
            for field in ("executed", "memo_hits", "disk_hits",
                          "deduplicated"):
                sessions[field] += getattr(session.stats, field)
        counters = {k: dict(v) for k, v in self.counters.items()}
        counters["engine.session"] = dict(sessions)
        return {
            "wall_s": wall_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": counters,
            "paper_rows": self.paper_rows,
        }


def install() -> Tracer:
    """Wrap every target in every loaded ``repro`` module; disabled."""
    tracer = Tracer()
    replaced = {}
    for layer, module_name, qualname, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *classes, attribute = qualname.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = inspect.getattr_static(owner, attribute)
        wrapper = tracer.wrap(layer, original, hook)
        setattr(owner, attribute, wrapper)
        if not classes:
            replaced[id(original)] = (original, wrapper)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                namespace[attribute] = entry[1]
    return tracer
