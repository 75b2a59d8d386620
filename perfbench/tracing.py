"""Span tracer that wraps ionctrl's public entry points from outside the package.

`Tracer.install()` replaces every public function of the ten layer modules
(plus `Objective.score`) with a timing wrapper, in every namespace where the
function is looked up: module globals of all `ionctrl` modules (so
`optimize.propagate`, `cli.propagate` and `dynamics.control_raising`, which
are imported by name, are caught), the `ionctrl` package namespace through
which the benchmark calls, and module-level dicts such as the CLI's task
table.  `uninstall()` restores the originals.

Spans (id, name, start, end, parent id, run id, self time) are kept in
memory.  Self time is a span's duration minus the time its direct children
cover; the run is single-threaded and serial, so children never overlap and
their coverage is the sum of their durations.  After SPAN_CAP calls along one
(parent, name) path, further calls on that path are folded into counts and
totals instead of one span each: `control_raising` and `propagate` under
`optimize` run 10^4 to 10^5 times in a bell_search run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import logging
import sys
import time
from pathlib import Path

LAYERS = (
    "laguerre",
    "fock",
    "model",
    "graph",
    "liealg",
    "dynamics",
    "optimize",
    "scenario",
    "csvio",
    "cli",
)
SPAN_CAP = 1000
# Methods are entry points too, but only these are wrapped; `Objective.score`
# is the per-candidate objective of the search.
METHODS = {"optimize": ("Objective.score",)}


def _result_counts(name: str, result) -> dict[str, float]:
    """Work counts read off a layer's return value."""
    if name == "liealg.dynamical_lie_algebra":
        return {"liealg.dimension": result.dimension, "liealg.generations": result.generations}
    if name == "csvio.write_csv":
        return {"csvio.bytes": Path(result).stat().st_size}
    return {}


class DiscardCounter(logging.Handler):
    """Counts the "discarding candidate" warnings of the ionctrl.optimize logger.

    The search logs a warning for every candidate whose propagation raised, so
    the count is available to untraced runs as well."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0
        logging.getLogger("ionctrl.optimize").addHandler(self)

    def emit(self, record):
        if record.getMessage().startswith("discarding candidate"):
            self.count += 1

    def detach(self) -> None:
        logging.getLogger("ionctrl.optimize").removeHandler(self)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.paths: dict[tuple[str, str], list[float]] = {}  # (parent, name) -> same
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, name, start, child_s]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._discards: DiscardCounter | None = None
        self.paused = False

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        self_s = duration - child
        parent_id, parent_name = 0, ""
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id, parent_name = parent[0], parent[1]
        for table, key in ((self.stats, name), (self.paths, (parent_name, name))):
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += self_s
        if row[0] <= SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent_id, self.run_id, self_s))

    @contextlib.contextmanager
    def pause(self):
        """Call through the wrappers without recording, e.g. for the
        benchmark's own checks, which run outside the traced passes."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def cover_child(self, seconds: float) -> None:
        """Count `seconds` spent in another process as child time of the open span."""
        self._stack[-1][3] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            for key, value in _result_counts(name, result).items():
                tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions wherever they are looked up."""
        self._discards = DiscardCounter()
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ionctrl.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                replacements[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{dotted}", original))

        namespaces = [m for n, m in sys.modules.items() if n == "ionctrl" or n.startswith("ionctrl.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            self._patches.append((value, key, entry))
                            value[key] = replacements[id(entry)]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        if self._discards is not None:
            self._discards.detach()
            self.counts["optimize.failed_evals"] = self._discards.count
            self._discards = None

    # -- results -----------------------------------------------------------

    def merge(self, other: dict) -> None:
        """Fold in the `summary()` of a tracer that ran in another process."""
        for name, row in other["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += row[i]
        for key, row in other["paths"]:
            mine = self.paths.setdefault(tuple(key), [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += row[i]
        for key, value in other["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.spans.extend(tuple(s) for s in other["spans"])

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "paths": [[list(k), v] for k, v in self.paths.items()],
            "counts": self.counts,
            "spans": self.spans,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ["id", "name", "start", "end", "parent", "run_id", "self_s"]
        path.write_text(json.dumps({"columns": columns, **self.summary()}), encoding="utf-8")

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_calls(self, layer: str) -> int:
        return int(sum(row[0] for name, row in self.stats.items() if name.startswith(layer + ".")))

    def layer_self_s(self, layer: str) -> float:
        return sum(row[2] for name, row in self.stats.items() if name.startswith(layer + "."))

    def path_calls(self, parent: str, name: str) -> int:
        return int(self.paths.get((parent, name), (0, 0.0, 0.0))[0])
