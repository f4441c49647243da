"""Outside-in tracing of hedgetest's layers for the benchmark.

Spans are recorded by replacing public hedgetest functions with timing
wrappers at the module attribute each consumer looks them up through, for
example ``hedgetest.harness.stream`` and ``hedgetest.pricing.stream`` rather
than only ``hedgetest.rng.stream``.  No file of the program is edited.

A wrap site whose attribute no longer exists (a refactor removed or renamed
it) is skipped.  Every per-layer metric that depends only on skipped sites is
reported as absent: its value reads 0 and its name is listed in ``absent``.

Spans nest through a stack.  A span's self time is its duration minus the
time its child spans cover; the time no span covers is reported too, so the
self times of all spans plus ``trace.uncovered_s`` add up to the pass.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span and counter aggregates for one traced pass."""

    def __init__(self):
        self._installed = []          # (module, attribute, original)
        self.present = set()          # span names with at least one site
        self.reset()

    def reset(self) -> None:
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # count, total, self
        self.counters = defaultdict(int)
        self.covered = 0.0            # time inside top-level spans
        self._stack = []

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span; hook(tracer, result, args) may
        replace the result and runs after the span closes."""
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]             # time covered by child spans
            stack = self._stack
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                stat = self.spans[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered += duration
            return result if hook is None else hook(self, result, args)

        return traced

    def install(self) -> None:
        for module_name, attr, span, hook in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(span, original, hook))
            self._installed.append((module, attr, original))
            self.present.add(span)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def count(self, span: str) -> int:
        return self.spans[span][0] if span in self.spans else 0

    def total(self, span: str) -> float:
        return self.spans[span][1] if span in self.spans else 0.0

    def self_time(self, span: str) -> float:
        return self.spans[span][2] if span in self.spans else 0.0

    def layer_metrics(self, pass_s: float) -> dict:
        """Per-layer values of one traced pass (workload-level entries excluded)."""
        out = {name: float(fn(self)) for name, (_, _, fn) in LAYER_METRICS.items()
               if fn is not None}
        out["trace.pass_s"] = pass_s
        out["trace.uncovered_s"] = pass_s - self.covered
        return out

    def absent_metrics(self) -> list[str]:
        """Metrics whose every source span lost its wrap site."""
        return [name for name, (_, spans, _) in LAYER_METRICS.items()
                if spans and not any(s in self.present for s in spans)]

    def span_table(self) -> list[tuple[str, int, float, float]]:
        """(span, count, total s, self s) rows, largest self time first."""
        rows = [(name, c, tot, slf) for name, (c, tot, slf) in self.spans.items()]
        return sorted(rows, key=lambda r: -r[3])


class _CountedGenerator:
    """Proxy for a numpy Generator that times and counts every draw."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._generator, attr)
        if not callable(value):
            return value
        return self._tracer.wrap("rng.draw", value, _count_variates)


def _count_variates(tracer, result, args):
    tracer.counters["rng.draws"] += int(np.size(result))
    return result


def _proxy_stream(tracer, generator, args):
    return _CountedGenerator(generator, tracer)


def _count_fractions(tracer, strategy, args):
    counters = tracer.counters

    def counted(*a, **kw):
        counters["strategies.fraction_calls"] += 1
        return strategy(*a, **kw)

    return counted


def _count_episodes(tracer, result, args):
    tracer.counters["harness.episodes"] += int(np.size(result.final_wealth))
    return result


def _count_bytes_in(tracer, result, args):
    tracer.counters["ingest.bytes_in"] += os.path.getsize(args[0])
    return result


# (module, attribute as the consumer looks it up, span, result hook)
SITES = (
    ("hedgetest.cli", "main", "cli", None),
    ("hedgetest.harness", "stream", "rng.stream", _proxy_stream),
    ("hedgetest.pricing", "stream", "rng.stream", _proxy_stream),
    ("hedgetest.pricing", "lattice_price", "pricing.lattice_price", None),
    ("hedgetest.harness", "solve_hedge_strike", "pricing.lattice_strike", None),
    ("hedgetest.harness", "mc_put_strike_solve", "pricing.mc_strike", None),
    ("hedgetest.cli", "mc_price", "pricing.mc_price", None),
    ("hedgetest.cli", "run_process", "wealth.run_process", None),
    ("hedgetest.cli", "fixed", "strategies.build", _count_fractions),
    ("hedgetest.portfolio", "lattice_price", "portfolio.lattice_price", None),
    ("hedgetest.portfolio", "step", "portfolio.step", None),
    ("hedgetest.cli", "run_experiment", "harness.run_experiment", _count_episodes),
    ("hedgetest.harness", "_summarize", "harness.summary", None),
    ("hedgetest.cli", "run_screening", "harness.run_screening", None),
    ("hedgetest.cli", "result_csv", "harness.serialize", None),
    ("hedgetest.cli", "result_json", "harness.serialize", None),
    ("hedgetest.cli", "to_json", "harness.serialize", None),
    ("hedgetest.cli", "format_float", "harness.serialize", None),
    ("hedgetest.ingest", "load_expression_matrix", "ingest.load", _count_bytes_in),
    ("hedgetest.ingest", "transform_to_uniform", "ingest.transform", None),
    ("hedgetest.ingest", "prepare_screening", "ingest.prepare", None),
)

# name -> (unit, spans it needs, value from a traced pass).  The
# workload-level entries (floor_shortfall, bytes_out, pass and overhead
# figures) are filled in by the worker from the pass itself.
LAYER_METRICS = {
    "rng.streams": ("count", ("rng.stream",),
                    lambda t: t.count("rng.stream")),
    "rng.stream_s": ("s", ("rng.stream",),
                     lambda t: t.total("rng.stream")),
    "rng.draws": ("count", ("rng.stream",),
                  lambda t: t.counters["rng.draws"]),
    "rng.draw_s": ("s", ("rng.stream",),
                   lambda t: t.total("rng.draw")),
    "pricing.lattice_strike_s": ("s", ("pricing.lattice_strike",),
                                 lambda t: t.total("pricing.lattice_strike")),
    "pricing.strike_solves": ("count", ("pricing.lattice_strike", "pricing.mc_strike"),
                              lambda t: t.count("pricing.lattice_strike")
                              + t.count("pricing.mc_strike")),
    "pricing.lattice_prices": ("count", ("pricing.lattice_price",),
                               lambda t: t.count("pricing.lattice_price")),
    "pricing.mc_strike_s": ("s", ("pricing.mc_strike",),
                            lambda t: t.total("pricing.mc_strike")),
    "pricing.mc_price_self_s": ("s", ("pricing.mc_price",),
                                lambda t: t.self_time("pricing.mc_price")),
    "pricing.floor_shortfall": ("wealth", (), None),
    "wealth.run_process_calls": ("count", ("wealth.run_process",),
                                 lambda t: t.count("wealth.run_process")),
    "wealth.run_process_s": ("s", ("wealth.run_process",),
                             lambda t: t.total("wealth.run_process")),
    "strategies.fraction_calls": ("count", ("strategies.build",),
                                  lambda t: t.counters["strategies.fraction_calls"]),
    "portfolio.steps": ("count", ("portfolio.step",),
                        lambda t: t.count("portfolio.step")),
    "portfolio.marks": ("count", ("portfolio.lattice_price",),
                        lambda t: t.count("portfolio.lattice_price")),
    "portfolio.step_self_s": ("s", ("portfolio.step",),
                              lambda t: t.self_time("portfolio.step")),
    "harness.experiment_self_s": ("s", ("harness.run_experiment",),
                                  lambda t: t.self_time("harness.run_experiment")),
    "harness.episodes": ("count", ("harness.run_experiment",),
                         lambda t: t.counters["harness.episodes"]),
    "harness.summary_s": ("s", ("harness.summary",),
                          lambda t: t.total("harness.summary")),
    "harness.screening_self_s": ("s", ("harness.run_screening",),
                                 lambda t: t.self_time("harness.run_screening")),
    "harness.serialize_s": ("s", ("harness.serialize",),
                            lambda t: t.self_time("harness.serialize")),
    "harness.bytes_out": ("B", (), None),
    "ingest.load_s": ("s", ("ingest.load",),
                      lambda t: t.total("ingest.load")),
    "ingest.transform_s": ("s", ("ingest.transform",),
                           lambda t: t.total("ingest.transform")),
    "ingest.prepare_s": ("s", ("ingest.prepare",),
                         lambda t: t.total("ingest.prepare")),
    "ingest.bytes_in": ("B", ("ingest.load",),
                        lambda t: t.counters["ingest.bytes_in"]),
    "cli.self_s": ("s", ("cli",), lambda t: t.self_time("cli")),
    "trace.pass_s": ("s", (), None),
    "trace.uncovered_s": ("s", (), None),
    "trace_overhead": ("ratio", (), None),
}
