"""Outside-in tracing of armplan's public functions.

The tracer replaces every public module-level function of the traced layers
with a wrapper, in every ``armplan`` module that holds a reference to it, so
calls made inside the package are caught as well as the benchmark's own.
Nothing under ``src/`` changes. A call stack gives each function its self
time (its duration minus the time its traced children took), and per-call
hooks read counts from arguments and return values at the layer boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_LAYERS = ("collision", "robot", "roadmap", "baselines", "seedprep",
                 "optimizer", "scenarios", "bench")

# Scopes a call is attributed to when it runs inside one of them, so that
# e.g. the edge checks of a roadmap build are counted apart from a query's.
SCOPES = ("build_roadmap", "rrt_plan", "generate_test_suite", "optimize", "query")


class FnStats:
    __slots__ = ("calls", "total", "self", "samples")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive seconds
        self.self = 0.0   # exclusive seconds
        self.samples: list[float] = []


class Tracer:
    """Collects per-function call counts, inclusive and self time, and
    counters keyed by name. ``hooks`` maps a function name to a callable
    ``hook(tracer, args, kwargs, result, inclusive_s)``."""

    def __init__(self, hooks=None, keep_samples=()):
        self.stats: dict[str, FnStats] = defaultdict(FnStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.hooks = dict(hooks or {})
        self.keep_samples = set(keep_samples)
        self._stack: list[list] = []  # [name, child_seconds]
        self._undo: list[tuple[object, str, object]] = []

    def scope(self) -> str | None:
        """Name of the innermost open frame that is one of SCOPES."""
        for name, _ in reversed(self._stack):
            if name in SCOPES:
                return name
        return None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        hook = self.hooks.get(name)
        keep = name in self.keep_samples
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.self += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep:
                    stats.samples.append(dt)
            if hook is not None:
                hook(self, args, kwargs, result, dt)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every public function of the traced layers in every loaded
        module of ``package`` (the package namespace included)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        originals = {}
        for layer in TRACED_LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = (attr, obj, self._wrap(attr, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[1] is obj:
                    setattr(mod, attr, entry[2])
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)


class Capture:
    """Keeps the return values of ``query``, ``rrt_plan`` and ``optimize``
    as ``bench.run_case`` sees them, keyed by the case being run, so the
    output checks can inspect the paths that ``RunRecord`` does not carry.
    Costs one extra Python call per planner call and takes no timings."""

    NAMES = ("query", "rrt_plan", "optimize")

    def __init__(self, bench_module):
        self.by_case: dict[int, dict[str, object]] = {}
        self.case: int | None = None
        self._mod = bench_module
        self._saved = {n: getattr(bench_module, n) for n in self.NAMES}
        for n, fn in self._saved.items():
            setattr(bench_module, n, self._wrap(n, fn))

    def _wrap(self, name, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.by_case.setdefault(self.case, {})[name] = result
            return result
        return captured

    def uninstall(self) -> None:
        for n, fn in self._saved.items():
            setattr(self._mod, n, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
