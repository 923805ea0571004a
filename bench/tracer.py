"""Outside-in call tracing of the evitrust layers.

The tracer changes no program file.  For each public function of a layer
module (its ``__all__``, or its public top-level functions when it has no
``__all__``) it replaces every ``evitrust.*`` module attribute bound to that
function object with a wrapper.  Because modules call each other through
such attributes (``core.certainty`` calls ``numerics.find_unit_crossings``
through ``core``'s own binding), intra-package calls are traced too.

Spans (name, start, end, parent id, run id, ok) are kept in memory and
written out at the end.  Functions called millions of times per run are only
counted, because a span around each of them costs more than the work it
measures.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from typing import Dict, List, Sequence, Tuple

PACKAGE = "evitrust"
LAYERS = ("numerics", "core", "propagation", "updates", "simulation", "amazon", "cli")

# Counted, not timed: about 56 calls per certainty evaluation.
COUNT_ONLY = frozenset({"numerics.log_beta"})
# Not traced at all: three calls per log_beta, 5M per combine run; even a
# counter around it would double the traced run's time.
UNTRACED = frozenset({"numerics.log_gamma"})
# Spans whose first argument is a callable whose calls are counted as
# "<name>.evals" (log-density evaluations of the crossing solve).
EVAL_COUNTED = frozenset({"numerics.find_unit_crossings"})

# The per-layer metrics, as (name, unit).  A metric name is "<span>.<stat>";
# see summarize() for the stats.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("numerics.find_unit_crossings.calls", "count"),
    ("numerics.find_unit_crossings.self_s", "s"),
    ("numerics.find_unit_crossings.evals_per_call", "evals/call"),
    ("numerics.log_beta.calls", "count"),
    ("numerics.regularized_incomplete_beta.calls", "count"),
    ("numerics.regularized_incomplete_beta.self_s", "s"),
    ("core.certainty.calls", "count"),
    ("core.certainty.self_s", "s"),
    ("core.certainty.p50_us", "us"),
    ("core.from_belief.calls", "count"),
    ("core.from_belief.self_s", "s"),
    ("core.from_belief.certainty_per_call", "calls/call"),
    ("core.from_belief.failed", "count"),
    ("propagation.combine_referrals.calls", "count"),
    ("propagation.combine_referrals.self_s", "s"),
    ("propagation.combine_referrals.p50_us", "us"),
    ("updates.update_referrer.calls", "count"),
    ("updates.update_referrer.self_s", "s"),
    ("updates.history_update.calls", "count"),
    ("updates.history_update.self_s", "s"),
    ("simulation.run_history_experiment.calls", "count"),
    ("simulation.run_history_experiment.self_s", "s"),
    ("simulation.run_combination_experiment.self_s", "s"),
    ("simulation.sample_transactions.calls", "count"),
    ("simulation.sample_transactions.self_s", "s"),
    ("simulation.records_to_csv.self_s", "s"),
    ("amazon.predict_feedback.calls", "count"),
    ("amazon.predict_feedback.self_s", "s"),
    ("amazon.predict_feedback.p50_us", "us"),
    ("amazon.predict_feedback.p99_us", "us"),
    ("amazon.run_amazon_experiment.self_s", "s"),
    ("amazon.parse_feedback_csv.self_s", "s"),
    ("cli.cli_main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Span fields, in order.
NAME, START, END, PARENT, RUN, OK = range(6)


def public_functions(layer: str, module: types.ModuleType) -> Dict[str, types.FunctionType]:
    """Traced name -> function for the public functions defined in ``module``."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        fn = getattr(module, n, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            out[f"{layer}.{n}"] = fn
    return out


class Tracer:
    """Patches the layer functions while installed; one instance per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[types.ModuleType, str, object]] = []

    def _span_wrapper(self, name: str, fn, count_evals: bool):
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter
        counters = self.counters
        evals_key = name + ".evals"

        def counting(f):
            def g(*a, **k):
                counters[evals_key] += 1
                return f(*a, **k)
            return g

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_evals and args and callable(args[0]):
                counters.setdefault(evals_key, 0)
                args = (counting(args[0]),) + args[1:]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, True]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(layer, module).items():
                if name in UNTRACED:
                    continue
                if name in COUNT_ONLY:
                    wrappers[id(fn)] = self._count_wrapper(name, fn)
                else:
                    wrappers[id(fn)] = self._span_wrapper(name, fn, name in EVAL_COUNTED)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write the counters, then one span per line (JSON)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "counters": self.counters}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> Tuple[Dict[str, int], List[list]]:
    """Read a file written by :meth:`Tracer.dump`: (counters, spans)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header["counters"], spans


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _has_ancestor(spans: Sequence[Sequence], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def summarize(counters: Dict[str, int], spans: Sequence[Sequence]) -> Dict[str, float]:
    """The span-derived PER_LAYER metrics of one traced run.

    Stats: ``calls`` (spans, or the counter of a count-only function),
    ``self_s`` (summed self time), ``p50_us``/``p99_us`` (percentiles of
    span duration), ``failed`` (spans that raised), ``evals_per_call``
    (counted callable evaluations per span) and ``certainty_per_call``
    (core.certainty spans below the span, per span).  A function that is
    never called reports 0.  ``trace.overhead_s`` needs an untraced run and
    is left to the caller.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    metrics = {}
    for metric, _unit in PER_LAYER:
        target, stat = metric.rsplit(".", 1)
        if target == "trace":
            continue
        idx = by_name.get(target, [])
        durations_us = [(spans[i][END] - spans[i][START]) * 1e6 for i in idx]
        if stat == "calls":
            value = counters.get(target, len(idx))
        elif stat == "self_s":
            value = sum(selfs[i] for i in idx)
        elif stat == "p50_us":
            value = percentile(durations_us, 0.50)
        elif stat == "p99_us":
            value = percentile(durations_us, 0.99)
        elif stat == "failed":
            value = sum(1 for i in idx if not spans[i][OK])
        elif stat == "evals_per_call":
            value = counters.get(target + ".evals", 0) / len(idx) if idx else 0.0
        elif stat == "certainty_per_call":
            below = sum(1 for i in by_name.get("core.certainty", [])
                        if _has_ancestor(spans, i, target))
            value = below / len(idx) if idx else 0.0
        else:
            raise ValueError(f"unknown stat in metric {metric!r}")
        metrics[metric] = value
    return metrics
