"""In-memory span recorder and the wrapping that puts spans around ridgecav.

`install` replaces every public function of each ridgecav module with a
wrapper that records a span, both in the module that defines it and in every
ridgecav module that imported it by name.  Calls between modules therefore
become child spans without touching any file under src/.  Spans stay in
memory until `Recorder.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("waveguide", "propagation", "gap", "fields", "cli", "config",
          "cavity", "cqed", "trap")


class Recorder:
    """Spans as (name, start, end, parent index) plus counts made at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.modes = {}  # id(amplitudes) -> amplitudes, held so ids stay unique
        self._stack = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        if inspect.isgeneratorfunction(fn):
            # a generator's span covers only the time spent inside it, laid
            # end to end from its first resume; the consumer's time is not in it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                it = fn(*args, **kwargs)
                first = perf_counter()
                busy = 0.0
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            busy += perf_counter() - t0
                            return
                        busy += perf_counter() - t0
                        if count:
                            count(self, item)
                        yield item
                finally:
                    spans.append((name, first, first + busy, parent))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, perf_counter(), parent)
                stack.pop()
            if count:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks):
        """Wrap ridgecav's public functions; returns a callable that undoes it.

        hooks maps a span name to a count callback: (recorder, args, kwargs,
        result) for functions, (recorder, item) per yielded item for generators.
        """
        pkg = importlib.import_module("ridgecav")
        mods = {layer: importlib.import_module(f"ridgecav.{layer}") for layer in LAYERS}
        holders = [pkg, *mods.values()]
        replaced = []
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, hooks.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
                            replaced.append((holder, key, fn))

        def uninstall():
            for holder, key, fn in replaced:
                setattr(holder, key, fn)

        return uninstall

    @contextlib.contextmanager
    def tracing(self, hooks):
        """Spans around ridgecav's public functions inside the `with` block."""
        uninstall = self.install(hooks)
        try:
            yield
        finally:
            uninstall()

    def as_dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [[n, s, e, p, self.run_id] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "distinct_modes": len(self.modes),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dump(), fh)


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def aggregate(dumps) -> tuple:
    """(total time, self time, calls) per span name, counts and distinct modes, over all runs.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, so their durations simply add up.
    """
    total, self_time, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
    modes = 0
    for dump in dumps:
        spans = dump["spans"]
        covered = defaultdict(float)
        for name, start, end, parent, _run in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _parent, _run) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - covered[i]
            calls[name] += 1
        counts.update(dump["counts"])
        modes += dump["distinct_modes"]
    return total, self_time, calls, counts, modes
