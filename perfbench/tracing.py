"""Span tracing by wrapping snapdetect's public functions where they are imported.

Nothing under ``src/`` is edited: each function is replaced, for the
duration of a ``with`` block, by a wrapper in every module namespace (or
class) that the program calls it through, and restored on exit.  Spans
are ``[id, name, parent id, start, end]`` lists kept in memory; a layer's
self time is its span time minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (module under snapdetect, attribute path, span name).  A function
# imported into two modules is wrapped in both under one name.
SITES = (
    ("experiment", "load_spec", "experiment.load_spec"),
    ("experiment", "run_sweep", "experiment.run_sweep"),
    ("experiment", "read_results", "experiment.read_results"),
    ("experiment", "summarize", "experiment.summarize"),
    ("experiment", "generate_trace", "simulate.generate_trace"),
    ("experiment", "ground_truth", "simulate.ground_truth"),
    ("experiment", "run_trace", "simulate.run_trace"),
    ("experiment", "score", "metrics.score"),
    ("simulate", "generate_trace", "simulate.generate_trace"),
    ("simulate", "ground_truth", "simulate.ground_truth"),
    ("simulate", "run_trace", "simulate.run_trace"),
    ("simulate", "vector_detect", "detectors.vector_detect"),
    ("simulate", "physical_detect", "detectors.physical_detect"),
    ("simulate", "violation_filter", "detectors.violation_filter"),
    ("metrics", "score", "metrics.score"),
    ("tracefile", "save_trace", "tracefile.save_trace"),
    ("tracefile", "load_trace", "tracefile.load_trace"),
    ("detectors", "SnapshotDetector.check_consistency", "detectors.check_consistency"),
)

# Layers reported by inclusive time, and layers reported by self time
# (their children are listed above and reported on their own).
HOST_LAYERS = (
    "simulate.generate_trace",
    "simulate.ground_truth",
    "detectors.vector_detect",
    "detectors.check_consistency",
    "detectors.physical_detect",
    "detectors.violation_filter",
    "metrics.score",
    "tracefile.load_trace",
    "tracefile.save_trace",
    "experiment.load_spec",
    "experiment.read_results",
    "experiment.summarize",
)
SELF_LAYERS = (
    "simulate.run_trace.snapshot",
    "simulate.run_trace.vector",
    "simulate.run_trace.physical",
    "experiment.run_sweep",
)

# Spans the benchmark records around its own checks; they count as
# nobody's layer time and are left out of the traced wall time.
BENCH_PREFIX = "bench."

_MISSING = object()


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore every one on exit.

    Raises ``RuntimeError`` on exit if an attribute could not be put back
    exactly as it was, so no wrapper outlives its block.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, old in saved
            if vars(owner).get(attr, _MISSING) is not old
        ]
        if leaked:
            raise RuntimeError(f"wrappers not restored: {leaked}")


def _family_name(args, kwargs) -> str:
    family = args[1] if len(args) > 1 else kwargs["family"]
    return family.value


class Tracer:
    """Records nested spans of the wrapped calls made inside ``tracing``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        by_family = name == "simulate.run_trace"

        def traced(*args, **kwargs):
            label = f"{name}.{_family_name(args, kwargs)}" if by_family else name
            span = [len(spans), label, stack[-1] if stack else None, time.perf_counter(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def tracing(self, modules, extra=()):
        """Context that wraps every site in ``SITES`` plus ``extra`` triples.

        ``modules`` maps the short module names used in ``SITES`` to the
        imported modules.  ``extra`` holds ``(owner, attr, span name)``.
        """
        replacements = []
        for module, path, name in SITES:
            owner = modules[module]
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            replacements.append((owner, attr, self.wrap(name, getattr(owner, attr))))
        for owner, attr, name in extra:
            replacements.append((owner, attr, self.wrap(name, getattr(owner, attr))))
        return patched(replacements)


def layer_metrics(spans) -> dict:
    """Per-layer host seconds and call counts over a list of spans."""
    covered = defaultdict(float)
    for span in spans:
        if span[2] is not None:
            covered[span[2]] += span[4] - span[3]
    host = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        duration = span[4] - span[3]
        host[span[1]] += duration
        own[span[1]] += duration - covered[span[0]]
        calls[span[1]] += 1
    out = {}
    for name in HOST_LAYERS:
        out[f"{name}.host_s"] = host[name]
        out[f"{name}.calls"] = calls[name]
    for name in SELF_LAYERS:
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.calls"] = calls[name]
    out["layer_self_s"] = sum(v for k, v in own.items() if not k.startswith(BENCH_PREFIX))
    return out


def span_records(spans) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from the first start."""
    t0 = spans[0][3] if spans else 0.0
    return [
        {"id": s[0], "name": s[1], "parent": s[2], "start_s": s[3] - t0, "end_s": s[4] - t0}
        for s in spans
    ]
