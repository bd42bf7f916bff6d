"""Benchmark-side tracing: spans around calls into the optimizer's layers.

The traced run installs wrappers on the public functions listed in
:data:`TARGETS` and removes them afterwards; nothing under ``src/``
changes, and an untraced run calls the original functions.  Each span
is ``(id, name, start, end, parent, request, pid)``: ``parent`` is the
span open when the call began (so a ``plancache.lookup`` inside
``search.optimize`` is its child), ``request`` the id of the timed
request or batch it belongs to (``None`` during set-up).

Batch workers are forked from the traced process, so they inherit the
wrappers and a copy of the recorder.  A recorder that finds itself in a
new process starts an empty span list whose roots hang under the span
that was open at fork time, and spills its spans to a file in
``spill_dir`` whenever a top-level call ends; the parent folds those
files in with :meth:`SpanRecorder.collect_spilled`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: (module, class or None for a module function, attribute, span name).
#: ``copy_plan`` is patched where each caller looks it up: the search
#: engine copies plans on cache hits, ``PlanCache.store`` on the way in.
TARGETS = (
    ("repro.bench.harness", None, "build_oodb_prairie", "prairie.build"),
    ("repro.optimizers.oodb", None, "compile_spec", "prairie.compile"),
    ("repro.bench.harness", None, "translate", "prairie.translate"),
    ("repro.volcano.search", "VolcanoOptimizer", "__init__", "search.construct"),
    ("repro.volcano.search", "VolcanoOptimizer", "optimize", "search.optimize"),
    ("repro.volcano.plancache", "PlanCache", "key_for", "plancache.key"),
    ("repro.volcano.plancache", "PlanCache", "lookup", "plancache.lookup"),
    ("repro.volcano.plancache", "PlanCache", "store", "plancache.store"),
    ("repro.volcano.search", None, "copy_plan", "plancache.copy"),
    ("repro.volcano.plancache", None, "copy_plan", "plancache.copy"),
    ("repro.catalog.schema", "Catalog", "state_token", "catalog.state_token"),
    ("repro.catalog.schema", "Catalog", "add", "catalog.add"),
    ("repro.parallel.batch", "BatchOptimizer", "run", "parallel.run"),
)


def _owner(module_name: str, class_name: "str | None"):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def original_functions() -> dict:
    """``{(module, class, attribute): current attribute}`` for every target,
    as stored on its owner (so staticmethods stay staticmethod objects)."""
    return {
        (module, cls, attr): vars(_owner(module, cls))[attr]
        for module, cls, attr, _ in TARGETS
    }


class SpanRecorder:
    """Collects spans in memory; see the module docstring."""

    def __init__(self, spill_dir: "Path | None" = None) -> None:
        self.spans: list = []
        self.request = None
        #: Wrappers call straight through while this is false; the
        #: benchmark clears it around request generation and checks.
        self.active = True
        self.spill_dir = spill_dir
        self._stack: list = []
        self._root = None
        self._forked = False
        self._reset_ids(os.getpid())

    def _reset_ids(self, pid: int) -> None:
        self._pid = pid
        self._next_id = pid << 32

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            if recorder._pid != os.getpid():
                recorder._adopt_fork()
            stack = recorder._stack
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = stack[-1] if stack else recorder._root
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, recorder.request, recorder._pid)
                )
                if recorder._forked and not stack:
                    recorder._spill()

        return traced

    def _adopt_fork(self) -> None:
        self._root = self._stack[-1] if self._stack else None
        self._stack = []
        self.spans = []
        self._forked = True
        self._reset_ids(os.getpid())

    def _spill(self) -> None:
        if self.spill_dir is None:
            self.spans = []
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_spilled(self) -> int:
        """Fold in (and delete) the span files forked workers left."""
        if self.spill_dir is None:
            return 0
        count = 0
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    self.spans.append(tuple(json.loads(line)))
                    count += 1
            path.unlink()
        return count


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every :data:`TARGETS` function for the duration of the block."""
    patches = []
    try:
        for module, cls, attr, span_name in TARGETS:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                replacement = staticmethod(recorder.wrap(span_name, original.__func__))
            else:
                replacement = recorder.wrap(span_name, original)
            setattr(owner, attr, replacement)
            patches.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """``{span id: duration minus the time its same-process children cover}``.

    Calls nest strictly within one thread, so a span's children are
    disjoint and their durations add up to the part of it they cover.
    """
    pid_of = {span[0]: span[6] for span in spans}
    covered: dict = defaultdict(float)
    for span_id, _name, start, end, parent, _request, pid in spans:
        if parent is not None and pid_of.get(parent) == pid:
            covered[parent] += end - start
    return {span[0]: span[3] - span[2] - covered[span[0]] for span in spans}


def write_spans(path: Path, spans) -> None:
    keys = ("id", "name", "start", "end", "parent", "request", "pid")
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
