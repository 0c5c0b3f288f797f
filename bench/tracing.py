"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces chosen public functions of clusterchain with
timing wrappers on every module binding that holds them (for example both
``clusterbuild.min_sources`` and ``optimizer.min_sources``), and
``uninstall()`` puts the originals back.  The program itself is unchanged.

Two kinds of wrapper:

* a *span* records one ``Span`` per call (name, start, end, parent), for the
  calls that are few per pass: design scans, searches, exact evaluations;
* a *leaf* is for boundary calls made up to 10^6 times per pass (the tree
  recursion, the rate formulas, the locus evaluation).  Leaf calls keep no
  record of their own: they add to a (count, total seconds) pair under their
  enclosing span, so memory grows with the number of spans only.  A leaf
  called from inside a leaf of its own layer (``p_x_general`` calling
  ``xi``) is internal to that layer and is passed straight through.

A function's self time is its duration minus the time covered by wrapped
calls made inside it; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


@dataclass
class Span:
    id: int
    parent: int  # -1 for the root
    key: str
    start: float
    end: float = math.nan
    label: str | None = None
    leaves: dict = field(default_factory=dict)  # leaf key -> [count, total_s]


def rebind(original: Callable, replacement: Callable) -> list[tuple[object, str]]:
    """Point every clusterchain module binding of ``original`` at ``replacement``.

    Returns the ``(module, name)`` pairs changed, for undoing.
    """
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "clusterchain" or mod_name.startswith("clusterchain.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed


# ---------------------------------------------------------------- observers
# A "before" hook sees the bound arguments of a call and may return a span
# label; an "after" hook sees the result.  Both run outside the timed frame.

def _before_design_envelopes(tracer: "Tracer", args: dict):
    key = tuple(args.values())
    if key in tracer.seen_design_args:
        tracer.counters["design_envelopes.repeats"] += 1
    tracer.seen_design_args.add(key)


def _after_design_envelopes(tracer: "Tracer", result) -> None:
    tracer.counters["designs_kept"] += len(result)


def _before_exact(tracer: "Tracer", args: dict):
    """Record the GHZ-success window this call starts from.

    Computed here, not read from the program: the window is the binomial
    mean +- 8.5 sigma of ``n_s // 6`` GHZ attempts (one point at ``n_s`` for
    GHZ sources), the program's own starting window.
    """
    consts = args["consts"]
    n_s = args["n_s"]
    if args["ghz_source"]:
        lo = hi = n_s
    else:
        attempts = n_s // 6
        mean = attempts * consts.p_ghz
        sd = math.sqrt(max(mean * (1.0 - consts.p_ghz), 1.0))
        lo = max(0, math.floor(mean - 8.5 * sd))
        hi = min(attempts, math.ceil(mean + 8.5 * sd))
    probs = args["fusion_probs"]
    key = (args["sched"], consts, args["ghz_source"], args["cap"],
           None if probs is None else tuple(probs))
    earlier = tracer.windows.setdefault(key, [])
    tracer.counters["exact.window_points"] += hi - lo + 1
    tracer.counters["exact.window_overlap_points"] += _covered(lo, hi, earlier)
    earlier.append((lo, hi))


def _covered(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Integer points of ``[lo, hi]`` inside the union of ``intervals``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if a <= hi and b >= lo)
    total, reach = 0, lo - 1
    for a, b in clipped:
        a = max(a, reach + 1)
        if b >= a:
            total += b - a + 1
            reach = b
    return total


def _counter_of(name: str, arg: str) -> Callable:
    def before(tracer: "Tracer", args: dict):
        tracer.counters[name] += args[arg]
    return before


def _before_rates_over_n(tracer: "Tracer", args: dict):
    tracer.counters["ratemodel.points"] += len(args["n_values"])


def _before_rate_n(tracer: "Tracer", args: dict):
    tracer.counters["ratemodel.points"] += 1


def _after_checks(tracer: "Tracer", result) -> None:
    tracer.counters["graphstate.checks"] += len(result) if isinstance(result, list) else 1


def _before_cli_main(tracer: "Tracer", args: dict):
    argv = args["argv"]
    return argv[0] if argv else None


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    key: str  # metric key; the layer is everything before the last dot
    leaf: bool = False
    before: Callable | None = None
    after: Callable | None = None


def _targets() -> list[Target]:
    t: list[Target] = []
    for name in ("xi", "p_x_general", "p_z_general", "p_x_depth2", "p_z_depth2"):
        t.append(Target("treecode", name, f"treecode.{name}", leaf=True))
    for name in ("mc_xi", "mc_measurement_probs"):
        t.append(Target("treecode", name, f"treecode.mc.{name}",
                        before=_counter_of("treecode.mc.samples", "samples")))
    for name in ("p_meas", "log_p_meas", "loss_rates", "measurement_probs", "p_bell",
                 "p_end", "r_direct", "mode_divisor", "k_of_design", "cluster_photons",
                 "coefficients_for"):
        t.append(Target("ratemodel", name, f"ratemodel.{name}", leaf=True))
    t.append(Target("ratemodel", "rate_n", "ratemodel.rate_n", leaf=True, before=_before_rate_n))
    t.append(Target("ratemodel", "rates_over_n", "ratemodel.rates_over_n", leaf=True,
                    before=_before_rates_over_n))
    for name in ("analytic_lb", "locus_probs", "repeater_spacing"):
        t.append(Target("envelope", name, f"envelope.{name}", leaf=True))
    for name in ("optimize_z", "numeric_envelope", "crossover_distance", "crossover_analytic"):
        t.append(Target("envelope", name, f"envelope.{name}"))
    t.append(Target("optimizer", "design_envelopes", "optimizer.design_envelopes",
                    before=_before_design_envelopes, after=_after_design_envelopes))
    for name in ("optimize_design", "operating_point", "rate_family"):
        t.append(Target("optimizer", name, f"optimizer.{name}"))
    t.append(Target("clusterbuild", "improved_pc1_exact", "clusterbuild.exact.improved_pc1_exact",
                    before=_before_exact))
    t.append(Target("clusterbuild", "improved_pc1_mc", "clusterbuild.mc.improved_pc1_mc",
                    before=_counter_of("clusterbuild.mc.trials", "trials")))
    t.append(Target("clusterbuild", "min_sources", "clusterbuild.min_sources.min_sources"))
    t.append(Target("clusterbuild", "pcn_curve", "clusterbuild.pcn_curve"))
    for name in ("naive_pc1", "optimize_naive_multiplex"):
        t.append(Target("clusterbuild", name, f"clusterbuild.naive.{name}", leaf=True))
    t.append(Target("graphstate", "run_structure_checks", "graphstate.run_structure_checks"))
    for name in ("check_star_clique", "check_tree_attachment", "verify_reordering_identities"):
        t.append(Target("graphstate", name, f"graphstate.{name}", after=_after_checks))
    for name in ("local_complement", "measure_graph"):
        t.append(Target("graphstate", name, f"graphstate.{name}", leaf=True))
    t.append(Target("cli", "main", "cli.main", before=_before_cli_main))
    return t


def _layer(key: str) -> str:
    return key.rsplit(".", 1)[0]


class Tracer:
    """Span and counter recorder for one pass; see the module docstring."""

    def __init__(self) -> None:
        root = Span(0, -1, "pass", _clock())
        self.spans: list[Span] = [root]
        # frame: [layer, start, child_time, is_leaf, span the time belongs to]
        self.stack: list[list] = [["pass", root.start, 0.0, False, root]]
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, total_s, max_s]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.seen_design_args: set = set()
        self.windows: dict = {}
        self._undo: list[tuple[object, str, Callable]] = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        import clusterchain.cli  # noqa: F401  (loads every module to patch)

        for target in _targets():
            module = sys.modules[f"clusterchain.{target.module}"]
            original = getattr(module, target.name)
            wrapper = self._wrap(original, target)
            for mod, name in rebind(original, wrapper):
                self._undo.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()

    def finish(self) -> None:
        """Close the root span; call after the pass."""
        self.spans[0].end = _clock()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        stack, spans = self.stack, self.spans
        stat = self.stats.setdefault(target.key, [0, 0.0, 0.0, 0.0])
        key, layer = target.key, _layer(target.key)
        signature = inspect.signature(fn)
        before, after = target.before, target.after
        tracer = self

        def bound(args, kwargs) -> dict:
            b = signature.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def close(frame: list) -> float:
            end = _clock()
            stack.pop()
            duration = end - frame[1]
            stack[-1][2] += duration
            stat[0] += 1
            stat[1] += duration - frame[2]
            stat[2] += duration
            if duration > stat[3]:
                stat[3] = duration
            return end

        if target.leaf:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                top = stack[-1]
                if top[3] and top[0] == layer:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(tracer, bound(args, kwargs))
                frame = [layer, _clock(), 0.0, True, top[4]]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = close(frame) - frame[1]
                    agg = frame[4].leaves.get(key)
                    if agg is None:
                        frame[4].leaves[key] = [1, duration]
                    else:
                        agg[0] += 1
                        agg[1] += duration

            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = before(tracer, bound(args, kwargs)) if before is not None else None
            parent = stack[-1][4]
            record = Span(len(spans), parent.id, key, 0.0, label=label)
            spans.append(record)
            frame = [layer, 0.0, 0.0, False, record]
            stack.append(frame)
            record.start = frame[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = close(frame)
            if after is not None:
                after(tracer, result)
            return result

        return span

    # ------------------------------------------------------------ results
    def nesting_problems(self) -> list[str]:
        """Ways the span tree is not well formed; empty when it is.

        Every span must be closed, lie inside its parent's interval, and not
        overlap its siblings; the call stack must be back at the root.
        """
        problems = []
        if len(self.stack) != 1:
            problems.append(f"{len(self.stack) - 1} spans still open")
        children: defaultdict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if math.isnan(span.end) or span.end < span.start:
                problems.append(f"span {span.id} ({span.key}) not closed")
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    problems.append(f"span {span.id} ({span.key}) outside its parent")
                children[span.parent].append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: s.start)
            for a, b in zip(siblings, siblings[1:]):
                if b.start < a.end:
                    problems.append(f"spans {a.id} and {b.id} overlap")
        return problems

    def _sum(self, prefix: str, index: int) -> float:
        return sum(v[index] for k, v in self.stats.items() if _layer(k) == prefix)

    def _stat(self, key: str, index: int) -> float:
        return self.stats.get(key, [0, 0.0, 0.0, 0.0])[index]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (names as in ``BENCHMARK.json``)."""
        c = self.counters
        spans = self.spans
        optimize_z_calls = self._stat("envelope.optimize_z", 0)
        locus_evals = self._stat("envelope.analytic_lb", 0) + self._stat("envelope.locus_probs", 0)
        scanned = sum(
            1 for s in spans
            if s.key == "envelope.optimize_z" and spans[s.parent].key == "optimizer.design_envelopes"
        )
        design_calls = self._stat("optimizer.design_envelopes", 0)
        exact_key = "clusterbuild.exact.improved_pc1_exact"
        per_search: defaultdict[int, int] = defaultdict(int)
        for s in spans:
            if s.key == exact_key and spans[s.parent].key == "clusterbuild.min_sources.min_sources":
                per_search[s.parent] += 1
        window_points = c["exact.window_points"]
        out = {
            "treecode.calls": self._sum("treecode", 0),
            "treecode.self_s": self._sum("treecode", 1),
            "treecode.mc.samples": c["treecode.mc.samples"],
            "treecode.mc.self_s": self._sum("treecode.mc", 1),
            "ratemodel.calls": self._sum("ratemodel", 0),
            "ratemodel.points": c["ratemodel.points"],
            "ratemodel.self_s": self._sum("ratemodel", 1),
            "envelope.optimize_z.calls": optimize_z_calls,
            "envelope.optimize_z.self_s": self._stat("envelope.optimize_z", 1),
            "envelope.locus_evals": locus_evals,
            "envelope.locus_evals_per_design": _ratio(locus_evals, optimize_z_calls),
            "envelope.numeric_envelope.self_s": self._stat("envelope.numeric_envelope", 1),
            "optimizer.design_envelopes.calls": design_calls,
            "optimizer.design_envelopes.self_s": self._stat("optimizer.design_envelopes", 1),
            "optimizer.designs_scanned": scanned,
            "optimizer.designs_kept": c["designs_kept"],
            "optimizer.kept_ratio": _ratio(c["designs_kept"], scanned),
            "optimizer.repeat_class_frac": _ratio(c["design_envelopes.repeats"], design_calls),
            "clusterbuild.exact.calls": self._stat(exact_key, 0),
            "clusterbuild.exact.self_s": self._stat(exact_key, 1),
            "clusterbuild.exact.max_s": self._stat(exact_key, 3),
            "clusterbuild.exact.calls_per_search": _ratio(sum(per_search.values()), len(per_search)),
            "clusterbuild.exact.window_overlap_frac": _ratio(c["exact.window_overlap_points"], window_points),
            "clusterbuild.mc.calls": self._sum("clusterbuild.mc", 0),
            "clusterbuild.mc.trials": c["clusterbuild.mc.trials"],
            "clusterbuild.mc.self_s": self._sum("clusterbuild.mc", 1),
            "clusterbuild.min_sources.calls": self._sum("clusterbuild.min_sources", 0),
            "clusterbuild.min_sources.self_s": self._sum("clusterbuild.min_sources", 1),
            "clusterbuild.naive.self_s": self._sum("clusterbuild.naive", 1),
            "graphstate.checks": c["graphstate.checks"],
            "graphstate.self_s": self._sum("graphstate", 1),
            "trace.spans": len(spans),
            "trace.leaf_calls": sum(agg[0] for s in spans for agg in s.leaves.values()),
        }
        for s in spans:
            if s.key == "cli.main" and s.label:
                name = f"cli.{s.label}.wall_s"
                out[name] = out.get(name, 0.0) + (s.end - s.start)
        return {k: float(v) for k, v in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
