"""In-memory span tracer that wraps public callables of the program.

A span is ``[name, start_ns, end_ns, parent_index, pid]``.  Spans live
in memory and are written out once, at the end of a run.  Forked
worker processes (the suite executor's pool) inherit the wrappers;
each worker appends its spans to a per-pid JSONL file in ``child_dir``
when its top-level span closes, because its memory dies with it.  The
parent merges those files with :meth:`Tracer.collect_children`.

Self time of a span is its duration minus the part covered by its
direct children, so per-name self times partition the traced wall time.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self, child_dir: Path) -> None:
        self.child_dir = Path(child_dir)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._owner_pid = os.getpid()
        self._pid = self._owner_pid
        self._patches: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(counts, args, result)`` runs after the call and may add
        to :attr:`counts`; it is how work done (ports down, edges
        mutated, bytes) is recorded at the same boundary as the time.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer._pid:
                # First call in a forked worker: drop the parent's spans
                # inherited through fork, keep only this process's own.
                tracer._pid = pid
                tracer.spans = []
                tracer._stack = []
                tracer.counts = defaultdict(float)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append([name, perf_counter_ns(), 0, parent, pid])
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = perf_counter_ns()
                if pid != tracer._owner_pid and not tracer._stack:
                    tracer._flush_child()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put every wrapped callable back and check that it is back."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- worker processes -----------------------------------------------

    def _flush_child(self) -> None:
        path = self.child_dir / f"spans-child-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"spans": self.spans, "counts": self.counts})
                + "\n"
            )
        self.spans = []
        self.counts = defaultdict(float)

    def collect_children(self) -> None:
        """Merge (and delete) the span files written by forked workers."""
        for path in sorted(self.child_dir.glob("spans-child-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                batch = json.loads(line)
                offset = len(self.spans)
                for name, start, end, parent, pid in batch["spans"]:
                    self.spans.append([
                        name, start, end,
                        parent + offset if parent >= 0 else -1, pid,
                    ])
                for key, value in batch["counts"].items():
                    self.counts[key] += value
            path.unlink()

    # -- analysis ---------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, in nanoseconds."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[0]] += 1
        return totals

    def durations_s(self, name: str) -> list:
        """Durations of the top-level spans called ``name``, in seconds."""
        return [
            (end - start) / 1e9
            for span_name, start, end, parent, _ in self.spans
            if span_name == name and parent < 0
        ]

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for name, start, end, parent, pid in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "pid": pid,
                }) + "\n")
