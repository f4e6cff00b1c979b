"""Outside-in tracing of branchlab's layers, done from the benchmark's own code.

A :class:`Tracer` replaces public functions of branchlab's modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Functions that other modules imported by name
(``harness`` imports from ``process`` and ``estimators``, ``estimators``
from ``exact``) are replaced in every namespace they are called through.
Counters read the call's arguments; their cost, like the wrappers', lands in
the caller's self time and in ``trace.overhead_s``. Spans live in flat
in-memory arrays and are written out by :meth:`Tracer.write` once a run ends.

Spans made in pool worker processes would be lost, so traced runs use one
worker.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _draws(counts, args, kwargs, result):
    counts["randomness.uniforms.draws"] += args[3] if len(args) > 3 else kwargs["count"]


def _entries(counts, args, kwargs, result):
    sizes = np.asarray(args[1] if len(args) > 1 else kwargs["counts"])
    counts["offspring.closure_sums.entries"] += sizes.size
    counts["offspring.closure_sums.live"] += int(np.count_nonzero(sizes > 0))


def _values(counts, args, kwargs, result):
    counts["offspring.inverse_cdf.values"] += np.size(args[1] if len(args) > 1 else kwargs["u"])


def _rows(counts, args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    counts["process.write_trajectories.rows"] += sum(
        len(r.base_sizes) if hasattr(r, "base_sizes") else len(r.sizes) for r in records
    )


def targets() -> list[tuple[str, list[tuple[object, str]], object]]:
    """(span name, every (owner, attribute) it is called through, counter)."""
    from branchlab import estimators, exact, harness, offspring, process, randomness

    source, dist = randomness.RandomnessSource, offspring.OffspringDistribution
    out = [
        ("randomness.uniforms", [(source, "uniforms")], _draws),
        ("randomness.closure_generator", [(source, "closure_generator")], None),
        ("randomness.handle", [(source, "handle")], None),
        ("offspring.closure_sums", [(dist, "closure_sums")], _entries),
        ("offspring.sample_sum", [(dist, "sample_sum")], None),
        ("offspring.inverse_cdf", [(dist, "inverse_cdf")], _values),
        ("exact.mean_m_tau", [(exact, "mean_m_tau"), (estimators, "exact_mean_m_tau")], None),
        ("exact.tau_quantile", [(exact, "tau_quantile"), (estimators, "tau_quantile")], None),
        ("harness.validate", [(harness, "validate")], None),
        ("harness.render_json", [(harness, "render_json")], None),
        ("harness.render_report_csv", [(harness, "render_report_csv")], None),
        ("harness.run", [(harness, "run")], None),
    ]
    for name, counter in (("simulate_coupled", None), ("simulate_path", None), ("write_trajectories", _rows)):
        out.append((f"process.{name}", [(process, name), (harness, name)], counter))
    for name in ("extinction_scaling", "conditional_moment_check"):
        out.append((f"estimators.{name}", [(estimators, name), (harness, name)], None))
    return out


class Tracer:
    """Spans of one traced round, with counters keyed by metric name."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        key = len(self.names)
        self.names.append(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(key)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Replace every target while the block runs; restore them after."""
        saved = []
        for name, owners, counter in targets():
            first_owner, first_attr = owners[0]
            wrapper = self.wrap(name, vars(first_owner)[first_attr], counter)
            for owner, attr in owners:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name.

        A span's self time is its duration minus the durations of its child
        spans; calls in one thread nest, so children never overlap.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return ({n: int(c) for n, c in zip(self.names, calls)},
                {n: float(s) for n, s in zip(self.names, self_s)})

    def layer_metrics(self) -> dict[str, float]:
        """The benchmark's per-layer metrics for this round, bar bytes and overhead."""
        calls, self_s = self.totals()
        c = self.counts
        entries = c["offspring.closure_sums.entries"]

        def layer(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        return {
            "randomness.uniforms.calls": calls["randomness.uniforms"],
            "randomness.uniforms.draws": c["randomness.uniforms.draws"],
            "randomness.uniforms.self_s": self_s["randomness.uniforms"],
            "randomness.closure_generator.calls": calls["randomness.closure_generator"],
            "randomness.closure_generator.self_s": self_s["randomness.closure_generator"],
            "randomness.handle.calls": calls["randomness.handle"],
            "offspring.closure_sums.calls": calls["offspring.closure_sums"],
            "offspring.closure_sums.entries": entries,
            "offspring.closure_sums.live_share": c["offspring.closure_sums.live"] / entries if entries else 0.0,
            "offspring.closure_sums.self_s": self_s["offspring.closure_sums"],
            "offspring.sample_sum.calls": calls["offspring.sample_sum"],
            "offspring.sample_sum.self_s": self_s["offspring.sample_sum"],
            "offspring.inverse_cdf.values": c["offspring.inverse_cdf.values"],
            "offspring.inverse_cdf.self_s": self_s["offspring.inverse_cdf"],
            "process.simulate_coupled.calls": calls["process.simulate_coupled"],
            "process.simulate_coupled.self_s": self_s["process.simulate_coupled"],
            "process.simulate_path.calls": calls["process.simulate_path"],
            "process.simulate_path.self_s": self_s["process.simulate_path"],
            "process.write_trajectories.rows": c["process.write_trajectories.rows"],
            "process.write_trajectories.self_s": self_s["process.write_trajectories"],
            "estimators.self_s": layer("estimators."),
            "exact.self_s": layer("exact."),
            "harness.validate.self_s": self_s["harness.validate"],
            "harness.render.self_s": self_s["harness.render_json"] + self_s["harness.render_report_csv"],
            "harness.run.self_s": self_s["harness.run"],
        }

    def write(self, path: Path) -> None:
        """All spans as CSV; times in seconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (k, s, e, p) in enumerate(zip(self.name_id, self.start, self.end, self.parent)):
                fh.write(f"{i},{self.names[k]},{s - origin:.9f},{e - origin:.9f},{p}\n")
