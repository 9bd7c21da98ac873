"""Spans around the public functions of the library, installed from outside.

Every public function of ``graphs``, ``core``, ``activities``,
``bijection``, ``tutte`` and ``verify`` is replaced by a wrapper that
records a span (name, start, end, parent span) in memory.  Modules bind
these names at import time (``from .core import reorient``), so every
binding in every ``actbij`` module is replaced, not only the defining
one; the checks listed in ``verify.ALL_CHECKS`` get one span name each,
``verify.<check>``.  Cache statistics are read from the original cached
functions.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

TRACED_MODULES = ("graphs", "core", "activities", "bijection", "tutte", "verify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._caches: dict[int, object] = {}  # every lru_cache, once each
        self._bases = None

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "actbij" or name.startswith("actbij.")
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for short in TRACED_MODULES:
            mod = modules[f"actbij.{short}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for mod in modules.values():
            for fn in vars(mod).values():
                if callable(getattr(fn, "cache_info", None)):
                    self._caches[id(fn)] = fn
        self._bases = modules["actbij.core"].bases
        verify = modules["actbij.verify"]
        checks = []
        for check_name, fn in verify.ALL_CHECKS:
            wrapped = self.wrap(f"verify.{check_name}", fn)
            wrappers[id(fn)] = (fn, wrapped)
            checks.append((check_name, wrapped))
        self._set(verify, "ALL_CHECKS", checks)
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                hit = wrappers.get(id(fn))
                if hit is not None and hit[0] is fn:
                    self._set(mod, attr, hit[1])

    def _set(self, mod, attr, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- figures -------------------------------------------------------

    def _durations(self):
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return dur, child

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and total_s per span name (total_s counts only
        the outermost span of a recursion), p50/p99 for the bijection
        maps, nesting figures and cache statistics."""
        dur, child = self._durations()
        out: dict[str, float] = {}
        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(i)
        for name, idx in by_name.items():
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.self_s"] = sum(dur[i] - child[i] for i in idx)
            out[f"{name}.total_s"] = sum(
                dur[i] for i in idx if not self._has_ancestor(i, name)
            )
        for name in ("bijection.active_basis", "bijection.alpha_inverse_class"):
            ms = sorted(dur[i] * 1e3 for i in by_name.get(name, []))
            if len(ms) >= 2:
                out[f"{name}.p50_ms"] = statistics.median(ms)
                out[f"{name}.p99_ms"] = statistics.quantiles(ms, n=100)[98]
        inner = self._nested("core.restrict_contract", "bijection.active_basis", by_name, dur)
        outer = out.get("bijection.active_basis.total_s", 0.0)
        out["bijection.active_basis.restrict_contract_share"] = inner[1] / outer if outer else 0.0
        tested = self._nested("bijection.is_fully_optimal", "bijection.fully_optimal_basis", by_name, dur)
        calls = out.get("bijection.fully_optimal_basis.calls", 0)
        out["bijection.fully_optimal_basis.tested_per_call"] = tested[0] / calls if calls else 0.0
        info = self._bases.cache_info()
        lookups = info.hits + info.misses
        out["core.bases.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["cache.entries"] = sum(fn.cache_info().currsize for fn in self._caches.values())
        return out

    def _nested(self, inner: str, outer: str, by_name, dur) -> tuple[int, float]:
        """Count and summed duration of ``inner`` spans inside an ``outer`` span."""
        hits = [i for i in by_name.get(inner, []) if self._has_ancestor(i, outer)]
        return len(hits), sum(dur[i] for i in hits)

    def write(self, path: str) -> None:
        """All spans as JSON: parallel lists of name, start, end, parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "start_s": [s - t0 for s in self.starts],
                    "end_s": [e - t0 for e in self.ends],
                    "parent": self.parents,
                },
                handle,
            )
