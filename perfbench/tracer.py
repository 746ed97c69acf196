"""In-memory span recorder for traced benchmark runs.

A layer is a public squaretiled function or method.  :meth:`Tracer.install`
replaces the function in every squaretiled module that binds it (so calls
that go through ``from .cylinders import periodic_decomposition`` are seen)
and methods on their class.  Each call records one span: layer, thread id,
start, end, parent span and an optional numeric outcome.

``classify_surface`` analyses its directions on a thread pool, and the pool
does not carry the caller's span across threads.  A span that opens on a
worker thread with nothing open on that thread is therefore parented to the
innermost span open on the thread that installed the tracer, which in a
closed-loop benchmark is the ``classify_surface`` call waiting on the pool.

A span's self time is its duration minus the union of its children's
intervals.  Worker-thread spans run under the interpreter lock, so their
durations include time spent waiting for it while sibling workers run.
"""

import functools
import json
import sys
import threading
import time
from collections import defaultdict

# record fields
LAYER, THREAD, START, END, PARENT, OUTCOME = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._home = threading.get_ident()
        self._undo = []

    def _wrap(self, layer, fn, outcome):
        spans, stacks, home = self.spans, self._stacks, self._home

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                caller = stacks.get(home) if tid != home else None
                parent = caller[-1] if caller else None
            rec = [layer, tid, time.perf_counter(), None, parent, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if outcome is not None:
                rec[OUTCOME] = outcome(result)
            return result

        return traced

    def install(self, layers, outcomes=None):
        """Wrap each ``(layer, module, qualname)``.  A plain function is
        replaced wherever a ``squaretiled`` module binds it; a
        ``Class.method`` is replaced on the class.  Names the package no
        longer has are skipped and report zero calls."""
        outcomes = outcomes or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "squaretiled" or name.startswith("squaretiled.")]
        for layer, module, qualname in layers:
            owner = sys.modules["squaretiled." + module]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            wrapped = self._wrap(layer, fn, outcomes.get(layer))
            targets = [owner] if cls_path else \
                [m for m in modules if getattr(m, attr, None) is fn]
            for target in targets:
                self._undo.append((target, attr, fn))
                setattr(target, attr, wrapped)

    def uninstall(self):
        for target, attr, fn in reversed(self._undo):
            setattr(target, attr, fn)
        self._undo.clear()

    def self_times(self):
        """Self time of every span, in recording order."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[PARENT] is not None:
                children[id(rec[PARENT])].append((rec[START], rec[END]))
        out = []
        for rec in self.spans:
            start, end = rec[START], rec[END]
            covered, reach = 0.0, start
            for a, b in sorted(children.get(id(rec), ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(end - start - covered)
        return out

    def has_ancestor(self, rec, layer):
        rec = rec[PARENT]
        while rec is not None:
            if rec[LAYER] == layer:
                return True
            rec = rec[PARENT]
        return False

    def dump(self, path, header):
        """Write the spans as JSON: ``header`` plus one
        ``[layer, thread, start, end, parent index, outcome]`` row per span,
        times in seconds from the first span."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[rec[LAYER], rec[THREAD], round(rec[START] - t0, 7),
                 round(rec[END] - t0, 7),
                 index[id(rec[PARENT])] if rec[PARENT] is not None else None,
                 rec[OUTCOME]] for rec in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=rows), fh, separators=(",", ":"))
