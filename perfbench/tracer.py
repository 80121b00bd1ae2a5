"""In-memory span tracer for qbl's public functions.

``Tracer.install`` replaces each traced function by a timing wrapper at
every module attribute that is bound to it. Callers import by name (for
example ``engine`` does ``from .channels import apply``), so patching
only the defining module would miss those calls. A traced class is
wrapped at its ``__init__``, which every binding of the class shares.

Each call records one span: function id, parent span, task id (the index
of the top-level call, cli.main, that the span belongs to), start and end.
Self time is a span's duration minus the durations of its direct child
spans; calls are strictly nested because the benchmark is single
threaded, so a stack gives it exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

from layers import LAYER_STATS

PACKAGE = "qbl"


class Tracer:
    def __init__(self):
        # "<module>.<name>" of every traced callable in qbl; a class is
        # wrapped at Class.__init__ and counts constructions
        self.names = [fn for fn, _ in LAYER_STATS]
        self.fid = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.total = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.missing: list[str] = []
        self._task_id = -1
        self._stack: list[list] = []  # [span index, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for i, fn in enumerate(self.names):
            mod_name, name = fn.split(".", 1)
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            target = getattr(mod, name, None) if mod is not None else None
            if target is None:
                self.missing.append(self.names[i])
                continue
            if isinstance(target, type):
                init = target.__dict__["__init__"]
                self._patch(target, "__init__", init, self._wrap(i, init))
                continue
            wrapper = self._wrap(i, target)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is target:
                        self._patch(m, attr, val, wrapper)

    def _patch(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, i: int, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1][0]
            else:  # a top-level call (cli.main) starts a new task
                parent = -1
                self._task_id += 1
            frame = [len(self.start), 0.0]
            self.fid.append(i)
            self.parent.append(parent)
            self.task.append(self._task_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.start[frame[0]] = t0
                self.end[frame[0]] = t1
                self.calls[i] += 1
                self.total[i] += dur
                self.self_time[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-function calls, total seconds and self seconds."""
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
        }

    def calls_within(self, name: str, ancestors: list[str]) -> int:
        """Calls of ``name`` made, directly or not, from inside a call of
        one of ``ancestors``."""
        fid = self.names.index(name)
        outer = {self.names.index(a) for a in ancestors}
        count = 0
        for span, f in enumerate(self.fid):
            if f != fid:
                continue
            parent = self.parent[span]
            while parent >= 0 and self.fid[parent] not in outer:
                parent = self.parent[parent]
            count += parent >= 0
        return count

    def write(self, path: Path) -> None:
        """Write every span as parallel arrays (numpy .npz)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
