"""Outside-in span tracer for the benchmark's traced runs.

The tracer times calls into the program's public layer functions by
patching them from here, so the program itself carries no tracing
code. Each wrapped call records a span ``(id, name, start, end,
parent, thread)``; spans live in memory and are written as JSON lines
when the run ends. A span's self time is its duration minus the time
its direct children cover. Synchronous spans nest through a
per-thread stack. Coroutine spans cannot nest safely (other tasks run
while one awaits), so they are recorded as roots.

:meth:`Tracer.restore` puts back every patched attribute, so a traced
run leaves the program exactly as it found it.
"""

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Span recorder plus the patch bookkeeping that feeds it."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, thread]
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []  # (owner, attr, had_own_attr, original)

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, nest=True):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = None
        if nest:
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
        record = [span_id, name, time.perf_counter(), None, parent,
                  threading.get_ident()]
        with self._lock:
            self.spans.append(record)
        return record

    def _close(self, record, nest=True):
        record[3] = time.perf_counter()
        if nest:
            self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one nested span around the ``with`` body."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def count(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr``, remembering how to undo it."""
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        self._patches.append((owner, attr, had, original))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls, attr, name, on_result=None):
        """Time every call of ``cls.attr`` as a span called ``name``."""
        self.patch(cls, attr, self._wrapper(getattr(cls, attr), name, on_result))

    def wrap_function(self, module, attr, name, on_result=None):
        """Time a module-level function under every name it is bound to.

        ``from x import f`` copies the binding, so the function is
        replaced in every loaded ``repro`` module that holds it.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, wrapper)

    def _wrapper(self, func, name, on_result):
        tracer = self
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                record = tracer._open(name, nest=False)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(record, nest=False)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -------------------------------------------------------

    def self_times(self):
        """Total self time and call count per span name."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        calls = defaultdict(int)
        for span_id, name, start, end, _, _ in self.spans:
            if end is None:
                continue
            totals[name] += (end - start) - child_time[span_id]
            calls[name] += 1
        return totals, calls

    def durations(self, name):
        return [end - start for _, n, start, end, _, _ in self.spans
                if n == name and end is not None]

    def write_jsonl(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "thread": thread,
                }) + "\n")
