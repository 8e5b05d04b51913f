"""Spans around the package's public functions, recorded from outside.

Nothing in `ddfem` is edited: a Tracer replaces module attributes with
timing wrappers and puts the originals back on `restore()`.  The
solvers bind their imports by name, so each wrapper is installed where
the function is looked up (for example `ddfem.solver_fp.nearest_many`,
not only `ddfem.phase_space.nearest_many`).

A span is [name, start, end, parent index]; spans stay in memory until
the run writes them out.  A span's self time is its duration minus the
durations of its direct children, so the self times of a span and all
its descendants add up to that span's duration exactly.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter

# span name -> per-layer self-time metric it is added to
SELF_METRIC = {
    "cli": "cli.self_s",
    "fem.load_mesh": "fem.load_mesh_s",
    "phase_space.load": "phase_space.load_s",
    "solver_fp.solve": "solver_fp.self_s",
    "solver_cs.solve": "solver_cs.self_s",
    "solver_cs.newton": "solver_cs.self_s",
    "multilevel.run": "multilevel.self_s",
    "phase_space.search": "phase_space.search_s",
    "phase_space.refine": "phase_space.refine_s",
    "phase_space.spacing": "phase_space.spacing_s",
    "fem.factor": "fem.factor_s",
    "fem.trisolve": "fem.trisolve_s",
    "fem.gradient": "fem.gradient_s",
    "fem.divergence": "fem.divergence_s",
    "solver_cs.tangent": "solver_cs.tangent_s",
    "solver_cs.residual": "solver_cs.residual_s",
    "tensors.am_defect": "tensors.am_defect_s",
    "report.emit": "report.emit_s",
    "trace": "trace.self_s",
}
SOLVER_SPANS = ("solver_fp.solve", "solver_cs.solve", "multilevel.run")
SETUP_SPANS = ("fem.load_mesh", "phase_space.load")


class Tracer:
    """Records spans and counts for the functions it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._last_search: dict = {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_invocation(self) -> None:
        """Forget the previous invocation's counts and search results."""
        self._last_search.clear()
        self.counts.clear()

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Time every call of module.attr as a span called `name`.

        `after(result, args)` runs inside the span, for counts that are
        cheap to take from the call's arguments and result.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args)
            finally:
                self.close(idx)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- layer-specific wrappers -----------------------------------------

    def wrap_search(self, module) -> None:
        """nearest_many: calls, queries, changed assignments, peak memory."""
        original = module.nearest_many

        def traced(strains, stresses, dataset, *args, **kwargs):
            idx = self.open("phase_space.search")
            try:
                tracemalloc.start()
                try:
                    ids = original(strains, stresses, dataset, *args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
                finally:
                    tracemalloc.stop()
                self._count_search(dataset, ids, peak)
            finally:
                self.close(idx)
            return ids

        module.nearest_many = traced
        self._patched.append((module, "nearest_many", original))

    def _count_search(self, dataset, ids, peak_mb: float) -> None:
        c = self.counts
        c["phase_space.search_calls"] += 1
        c["phase_space.search_queries"] += ids.size
        c["phase_space.search_peak_mb"] = max(c["phase_space.search_peak_mb"], peak_mb)
        # a later pass over the same dataset and points: which ids moved
        key = (id(dataset), ids.size)
        prev = self._last_search.get(key)
        if prev is not None:
            c["search.compared"] += ids.size
            c["search.changed"] += int((prev != ids).sum())
        self._last_search[key] = ids

    def wrap_factorize(self, module) -> None:
        """factorize: calls and fill; the returned LU times its solves."""
        tracer = self

        class TracedLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs):
                idx = tracer.open("fem.trisolve")
                tracer.counts["fem.trisolve_calls"] += 1
                try:
                    return self._lu.solve(rhs)
                finally:
                    tracer.close(idx)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        def after(lu, args):
            self.counts["fem.factor_calls"] += 1
            idx = self.open("trace")        # L and U are built on access
            self.counts["fem.factor_fill"] += lu.L.nnz + lu.U.nnz
            self.close(idx)

        self.wrap(module, "factorize", "fem.factor", after)
        traced = module.factorize
        module.factorize = lambda *a, **k: TracedLU(traced(*a, **k))

    # -- results -----------------------------------------------------------

    def self_times(self, first: int) -> dict:
        """Self time per layer metric over the spans from index `first`."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(spans):
            metric = SELF_METRIC[name]
            out[metric] = out.get(metric, 0.0) + (end - start) - child[i]
        return out

    def total(self, parent: int, names) -> float:
        """Summed duration of the direct children of `parent` named in `names`."""
        return sum(end - start for name, start, end, p in self.spans[parent + 1:]
                   if p == parent and name in names)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
