"""Span tracing of ejmkit's layers, installed from outside the package.

Every public function of the layer modules is wrapped at every binding of
it inside the package (``states.kron`` and ``circuits.kron`` as well as
``linalg.kron``), and three methods are wrapped on their class.  Each call
records one span: function, parent span, request id, start, end and
whether it raised.  Spans stay in memory until ``save``; ``stats`` derives
per-function and per-module counts, busy time and self time from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("cli", "ejm", "states", "circuits", "linalg")
# (module, class, method, span name)
METHODS = (
    ("ejm", "EjmParams", "__post_init__", "ejm.EjmParams"),
    ("circuits", "Gate", "unitary", "circuits.Gate.unitary"),
    ("circuits", "Circuit", "unitary", "circuits.Circuit.unitary"),
)


class Tracer:
    def __init__(self, package):
        self.names = []
        self.request = -1
        self.func = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("q")
        self.end = array("q")
        self.err = array("b")
        self._stack = [-1]
        self._bindings = []  # (owner, attribute, original, wrapper)

        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in (package, *modules.values()):
            for name, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, name, obj, hit[1]))
        for short, cls, method, span in METHODS:
            owner = getattr(modules[short], cls)
            original = owner.__dict__[method]
            self._bindings.append((owner, method, original, self._wrap(span, original)))

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        func, parent, req, start, end, err = (
            self.func, self.parent, self.req, self.start, self.end, self.err)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(func)
            func.append(fid)
            parent.append(stack[-1])
            req.append(tracer.request)
            end.append(0)
            err.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                err[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    @property
    def spans(self) -> int:
        return len(self.func)

    def stats(self) -> dict:
        """``{name: {calls, busy_s, self_s, errors}}`` for every function and module.

        Self time is span time minus the time covered by direct child spans;
        calls are single-threaded, so children never overlap.
        """
        n = len(self.names)
        func = np.frombuffer(self.func, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(func, minlength=n)
        busy = np.bincount(func, weights=dur, minlength=n)
        own = np.bincount(func, weights=dur - covered, minlength=n)
        errors = np.bincount(func, weights=np.frombuffer(self.err, dtype=np.int8), minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(own[i]), "errors": int(errors[i])}
        for mod in MODULES:
            rows = [out[k] for k in self.names if k.split(".", 1)[0] == mod]
            out[mod] = {key: sum(r[key] for r in rows) for key in ("calls", "self_s", "errors")}
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            func=np.frombuffer(self.func, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            error=np.frombuffer(self.err, dtype=np.int8),
        )
