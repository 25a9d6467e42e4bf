"""Run the fracsource CLI with span recording around every public function.

    python3 perfbench/tracer.py SPANS.json -- <fracsource CLI arguments>

Every public function (name without a leading underscore) defined in a
``fracsource`` module is wrapped once, and the wrapper is bound in every
``fracsource.*`` namespace that binds the original, so calls made through
``from .specfun import mittag_leffler_neg_real`` are seen too. Each call
records a span (id, name, start, end, parent, largest array size, scalar
arguments) in memory; the spans are written to SPANS.json when the command
returns. Functions that do not exist simply produce no spans.
"""
from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
import types

import numpy as np


class Recorder:
    """Span store shared by all wrappers of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        names = []
        defaults = {}
        try:
            for p in inspect.signature(fn).parameters.values():
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
                    names.append(p.name)
                if isinstance(p.default, (int, float)):
                    defaults[p.name] = p.default
        except (TypeError, ValueError):
            pass
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost call belongs to the main-thread
            # span that handed out the work
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                size = 0
                params = dict(defaults)
                for key, val in itertools.chain(zip(names, args), kwargs.items()):
                    if isinstance(val, np.ndarray):
                        size = max(size, val.size)
                    elif isinstance(val, (int, float)):
                        params[key] = val
                spans.append((sid, name, t0, t1, parent, size, params))

        return wrapper

    def install(self):
        """Wrap every binding of every public fracsource function."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "fracsource" or n.startswith("fracsource.")) and m is not None]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (not isinstance(obj, types.FunctionType)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith("fracsource")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rpartition(".")[2]
                    wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(mod, attr, wrappers[obj])


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <fracsource CLI arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import fracsource.cli

    rec = Recorder()
    rec.install()
    start = time.perf_counter()
    code = 1
    try:
        code = fracsource.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"start": start, "end": time.perf_counter(), "exit": code,
                       "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
