"""Spans around calls into spkid's public functions, installed from outside src/.

A wrapper replaces a function under every name that refers to it in a loaded
``spkid`` module, because modules import each other's functions by name (for
example ``evaluate`` calls its own ``train_codebook`` binding and ``mfcc`` its
own ``dct2``); a wrapper on the defining module alone would miss those calls
silently. Calls made once per row are kept as a count plus total time instead
of one span each. Spans live in memory until ``Tracer.dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "spkid.gci"
    func: str
    name: str  # span or counter name
    per_row: bool = False  # count + total time instead of one span per call
    only_in: tuple[str, ...] = ()  # install only in these caller modules
    hook: Callable | None = None  # hook(tracer, args, kwargs, result), run after the clock stops


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, float]] = []  # id, name, start, end, parent, self
        self.stack: list[list] = []  # [span id or -1, child time]
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.keys: dict[str, set] = defaultdict(set)
        self.lookup: dict = {}
        self._next_id = 0

    def wrap(self, target: Target, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if target.per_row:
                frame = [-1, 0.0]
            else:
                frame = [tracer._next_id, 0.0]
                tracer._next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.seconds[target.name] += duration
                tracer.self_seconds[target.name] += duration - frame[1]
                tracer.calls[target.name] += 1
                if not target.per_row:
                    tracer.spans.append(
                        (frame[0], target.name, start, end, parent[0] if parent else -1, duration - frame[1])
                    )
            if target.hook is not None:
                hook_start = time.perf_counter()
                target.hook(tracer, args, kwargs, result)
                if parent is not None:  # bookkeeping, not the parent's own work
                    parent[1] += time.perf_counter() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Replace every binding of each target function in the loaded spkid modules."""
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "spkid"}
        for target in targets:
            fn = getattr(modules[target.module], target.func)
            wrapper = self.wrap(target, fn)
            bound = 0
            for mod_name, mod in modules.items():
                if target.only_in and mod_name not in target.only_in:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{target.module}.{target.func}: no binding found to wrap")

    def sample(self, name: str, every: int) -> bool:
        """True on the 1st, (every+1)-th, ... call of ``name`` so far."""
        return (self.calls[name] - 1) % every == 0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "self"],
                    "spans": self.spans,
                    "calls": dict(self.calls),
                    "seconds": dict(self.seconds),
                    "counts": dict(self.counts),
                },
                fh,
            )
