"""In-process tracer that wraps salmetric's functions at their call sites.

A module that did ``from .sampling import farthest_pool`` calls its own
binding, so patching ``salmetric.sampling`` alone would miss it. ``install``
therefore replaces every binding of a target function in every loaded
salmetric module (and the class attribute for a classmethod) and ``restore``
puts the originals back. Nothing in the package itself is edited.

Spans are aggregated in memory per name: calls, total seconds, and self
seconds (total minus the time of wrapped calls made inside it).
"""

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    first_start: float | None = None


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: dict = {}
        self.counts: dict = {}
        self.missing: list = []
        self._stack: list = []  # child seconds accumulated by each open span
        self._patches: list = []

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def _wrap(self, fn, name, after):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                after(self, result, args, kwargs)
                return result
            stats = spans.setdefault(name, SpanStats())
            stack.append(0.0)
            start = perf_counter()
            if stats.first_start is None:
                stats.first_start = start
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(self, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> "Tracer":
        """Wrap each target ``(module, qualname, span name or None, after)``.

        A ``None`` span name wraps without timing, for a hook that only
        counts. ``after(tracer, result, args, kwargs)`` runs once the call has
        returned and its time is booked. A target the package no longer has
        is listed in ``missing`` and its metrics read 0."""
        for module_name, qualname, name, after in targets:
            module = importlib.import_module(f"salmetric.{module_name}")
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = vars(holder).get(attr) if holder is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, after))
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)
                continue
            wrapped = self._wrap(original, name, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "salmetric" or mod_name.startswith("salmetric.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
