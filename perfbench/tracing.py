"""Spans recorded from the benchmark's side of dropsim's public functions.

For a traced pass, `Tracer.install` swaps the public layer functions that
`dropsim.cli` and the API operations call for thin wrappers that record a
span (name, start, end, parent) in memory; `uninstall` puts the originals
back, so untraced passes run dropsim untouched. Nothing inside dropsim is
edited. Layers that live inside a single public call (sampling, grad_sum,
schedule draws) are measured by probes instead; the one exception is a
counter on `BatchSchedule.draw`, which gives the exact step count of each
verifier call.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               self._stack[-1] if self._stack else None))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, key: str) -> None:
        for idx in self._stack:
            counts = self.spans[idx].counts
            counts[key] = counts.get(key, 0) + 1

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from dropsim import analytic, cli, sgd, simulate, threshold

        for owner, attr, name in (
            (cli, "read_trace_csv", "latency.read_trace_csv"),
            (cli, "read_comm_csv", "latency.read_comm_csv"),
            (cli, "TraceTensor", "threshold.TraceTensor"),
            (cli, "select_threshold", "threshold.select_threshold"),
            (threshold, "select_threshold", "threshold.select_threshold"),
            (cli, "run_detailed", "simulate.run_detailed"),
            (simulate, "run_detailed", "simulate.run_detailed"),
            (simulate, "run", "simulate.run"),
            (cli, "scale_sweep", "simulate.scale_sweep"),
            (cli, "local_sgd_run", "simulate.local_sgd_run"),
            (analytic, "expected_speedup", "analytic.expected_speedup"),
            (sgd, "verify_convex_bound", "sgd.verify_convex_bound"),
            (sgd, "verify_nonconvex_bound", "sgd.verify_nonconvex_bound"),
        ):
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        for attr in ("quadratic", "logistic_synthetic"):
            factory = sgd.SgdProblem.__dict__[attr].__func__
            self._patch(sgd.SgdProblem, attr,
                        classmethod(self._wrap(factory, "sgd.problem")))
        draw = sgd.BatchSchedule.draw
        tracer = self

        @functools.wraps(draw)
        def counted_draw(*args, **kwargs):
            tracer.count("sgd.draw")
            return draw(*args, **kwargs)

        self._patch(sgd.BatchSchedule, "draw", counted_draw)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def self_time(self, idx: int) -> float:
        """Span duration minus its direct children (they never overlap here)."""
        return self.spans[idx].duration - sum(c.duration for c in self.children(idx))

    def under(self, idx: int) -> list[Span]:
        """Every span nested anywhere below span idx."""
        out, frontier = [], [idx]
        while frontier:
            parent = frontier.pop()
            for i, s in enumerate(self.spans):
                if s.parent == parent:
                    out.append(s)
                    frontier.append(i)
        return out
