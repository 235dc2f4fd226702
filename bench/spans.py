"""Span recorder for the traced sample, and the self-time arithmetic over its spans.

Tracer.install() replaces each public function of the traced gossipgp modules
with a timing wrapper, in every gossipgp module namespace that holds it, so
the wrapper sits where each caller looks the name up (for example
``gossipgp.harness.runner.predict_batch`` and ``gossipgp.ensemble.predict_batch``).
``scipy.linalg.cho_factor`` is wrapped too, since info_filter calls it through
that attribute. Nothing in the package is edited: the wrappers live only in
the traced process. Spans (name, start, end, parent) stay in memory until the
sample writes them out at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = (
    "features",
    "info_filter",
    "robust",
    "dynamics",
    "consensus",
    "ensemble",
    "harness.streams",
    "harness.config",
    "harness.metrics",
    "harness.runner",
)

CHO_FACTOR = "info_filter.cho_factor"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == CHO_FACTOR and type(exc).__name__ == "LinAlgError":
                    # info_filter retries a failed factorization once with jitter.
                    self.counts["info_filter.jitter_retries"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import scipy.linalg

        modules = {rel: importlib.import_module(f"gossipgp.{rel}") for rel in TRACED_MODULES}
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "gossipgp" or name.startswith("gossipgp.")
        ]
        for rel, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self.wrap(f"{rel}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        scipy.linalg.cho_factor = self.wrap(CHO_FACTOR, scipy.linalg.cho_factor)


def _observe_feature_matrix(counts, args, kwargs, result):
    counts["features.feature_matrix.rows"] += result.shape[1]


def _observe_cho_factor(counts, args, kwargs, result):
    n = result[0].shape[0]
    counts["computed.cholesky_flops"] += n**3 / 3.0


def _observe_weights_for(counts, args, kwargs, result):
    counts["robust.downweighted"] += int((result < 1.0).sum())
    counts["robust.zeroed"] += int((result == 0.0).sum())


def _observe_consensus_sum(counts, args, kwargs, result):
    values, topo, cfg = args[:3]
    # Each round every agent sends its whole message to each neighbour.
    counts["consensus.floats_sent"] += values[0].size * cfg.rounds
    counts["consensus.messages"] += int(topo.adjacency.sum()) * cfg.rounds


def _observe_materialize_stream(counts, args, kwargs, result):
    counts["harness.streams.rows"] += sum(
        batch.size for batches in result.batches.values() for batch in batches
    )


_OBSERVERS = {
    "features.feature_matrix": _observe_feature_matrix,
    CHO_FACTOR: _observe_cho_factor,
    "robust.weights_for": _observe_weights_for,
    "consensus.consensus_sum": _observe_consensus_sum,
    "harness.runner.materialize_stream": _observe_materialize_stream,
}


def self_times(spans, since: float = float("-inf")):
    """Calls, self seconds and total seconds per span name, over spans starting at or after `since`.

    A span's self time is its duration minus the durations of its direct
    children; spans come from one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        if start >= since:
            calls[name] += 1
            self_s[name] += (end - start) - covered[index]
            total_s[name] += end - start
    return calls, dict(self_s), dict(total_s)
