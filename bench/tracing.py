"""In-memory span tracer that wraps riscreen's public functions from outside.

The traced functions are looked up in their defining modules and replaced
by a timing wrapper in every ``riscreen`` module namespace that holds them,
so names bound with ``from .baseline_game import ...`` are traced too.
Spans live in flat arrays (name, parent, start, end) until the run ends.
A span's self time is its duration minus the durations of its direct
children; one "unit" root span per benchmark unit ties a unit's spans
together.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

#: (defining module, function) of every traced layer boundary
TARGETS = (
    ("ri_core", "solve_binary_ri"),
    ("ri_core", "mutual_information"),
    ("baseline_game", "optimal_signal"),
    ("baseline_game", "profit"),
    ("baseline_game", "equilibrium_set"),
    ("baseline_game", "most_profitable"),
    ("baseline_game", "thresholds"),
    ("quota_policy", "find_multiplier"),
    ("quota_policy", "subsidized_signal"),
    ("quota_policy", "quota_equilibrium_set"),
    ("multitask", "multitask_equilibrium_set"),
    ("multitask", "multitask_most_profitable"),
    ("variants", "commitment_solve"),
    ("variants", "bind_high_effort"),
    ("variants", "mixed_equilibria"),
    ("variants", "heterogeneous_equilibrium_set"),
    ("variants", "continuous_effort_equilibria"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)
#: measured from -X importtime and a bare interpreter, not from spans
STARTUP_METRICS = ("import.riscreen_ms", "import.numpy_ms", "python.start_ms")


def layer_metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_ms"] = "ms"
    for name in STARTUP_METRICS:
        out[name] = "ms"
    return out


class Tracer:
    def __init__(self):
        self.names = ["unit", *SPAN_NAMES]
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patched = []

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self):
        """Root span of one benchmark unit."""
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, nid: int, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def install(self) -> None:
        """Patch every target in every loaded riscreen module."""
        modules = [m for name, m in sys.modules.items() if name == "riscreen" or name.startswith("riscreen.")]
        for nid, (mod, fn) in enumerate(TARGETS, start=1):
            original = getattr(sys.modules[f"riscreen.{mod}"], fn)
            wrapper = self._wrap(nid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict:
        """{span name: [calls, self seconds]} over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return out

    @classmethod
    def load(cls, path) -> "Tracer":
        """Read back a file written by :meth:`dump`."""
        data = json.loads(open(path).read())
        tracer = cls()
        tracer.names = data["names"]
        for nid, parent, start_us, end_us in data["spans"]:
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.start.append(start_us * 1e-6)
            tracer.end.append(end_us * 1e-6)
        return tracer

    def dump(self, path) -> None:
        """Write the spans as JSON: names, then [name, parent, start_us, end_us] rows."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write('{"names": %s, "spans": [\n' % json.dumps(self.names))
            fh.write(",\n".join(
                f"[{self.name_id[i]},{self.parent[i]},{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f}]"
                for i in range(len(self.start))
            ))
            fh.write("\n]}\n")


def merge_totals(into: dict, more: dict) -> None:
    for name, (calls, self_s) in more.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s


def per_unit_metrics(totals: dict, units: int) -> dict:
    """calls and self_ms per unit for every traced span name."""
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / units
        out[f"{name}.self_ms"] = self_s * 1e3 / units
    return out
