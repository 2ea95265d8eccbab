"""Spans around the calls into each layer of ``otfsnoma``.

The tracer replaces module-level names with wrappers that record a span
(name, start, end, parent) per call.  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover; calls nest strictly in one process, so that is
the sum of the children's durations.
"""

import functools
import importlib
import json
import time

# (namespace module, name) pairs to wrap.  ``harness`` binds the layer
# functions it calls into its own namespace, and ``equalizers`` does the
# same for the dense-matrix helpers, so the wrappers go where the callers
# look the names up.
TRACED = (
    ("harness", "parse_config_file"),
    ("harness", "run_scenario"),
    ("harness", "emit_csv"),
    ("harness", "substream"),
    ("harness", "sample_gain_matrix"),
    ("harness", "spectrum_from_taps"),
    ("harness", "static_spectrum_from_taps"),
    ("harness", "batch_dfe_lambdas"),
    ("harness", "batch_static_lambdas"),
    ("harness", "batch_schedule"),
    ("equalizers", "gram_taps_from_gains"),
    ("equalizers", "static_gram_taps"),
    ("equalizers", "dense_block_circulant"),
)


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Installs span-recording wrappers; ``restore`` puts the originals back.

    ``after`` maps a layer name to a callback ``(args, kwargs, result)`` run
    after each call in a span of its own, ``bench.<layer name>``, so that its
    time counts against no layer.
    """

    def __init__(self, after: dict | None = None):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._after = after or {}
        self._stack: list = []
        self._originals: list = []

    def install(self):
        for module_name, attr in TRACED:
            module = importlib.import_module(f"otfsnoma.{module_name}")
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def restore(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _span(self, name: str, call):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def _wrap(self, fn):
        name = _layer_name(fn)
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, lambda: fn(*args, **kwargs))
            if after is not None:
                self._span(f"bench.{name}", lambda: after(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> dict:
        """{layer name: [self time of each call in seconds]}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out.setdefault(name, []).append(end - start - covered)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in self.spans], fh)
