"""Spans around the public functions of each `empeq` module, from outside.

`Tracer.install()` replaces every listed function (and each copy that
another module bound with ``from .x import name``) by a wrapper that
records a span: name, start, end, parent span and op id.  Counts come from
return values and raised exceptions.  Spans stay in memory in flat arrays
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

from stats import self_times

# (module, attribute, span name); an attribute "Cls.meth" wraps a method.
TARGETS = (
    ("game", "expected_utility", "game.expected_utility"),
    ("game", "MixedProfile.__init__", "game.MixedProfile"),
    ("game", "weak_dominance", "game.weak_dominance"),
    ("monotone", "is_weakly_payoff_monotone", "monotone.predicate"),
    ("monotone", "is_payoff_monotone", "monotone.predicate"),
    ("monotone", "is_m_weakly_payoff_monotone", "monotone.predicate"),
    ("monotone", "sample_monotone_region", "monotone.sample_monotone_region"),
    ("nash", "enumerate_nash", "nash.enumerate_nash"),
    ("nash", "Component.distance_to", "nash.Component.distance_to"),
    ("nash", "check_perfect", "nash.check_perfect"),
    ("nash", "check_proper", "nash.check_proper"),
    ("nash", "classify", "nash.classify"),
    ("search", "solve_player_lp", "search.solve_player_lp"),
    ("search", "monotone_pattern_search", "search.pattern_search"),
    ("search", "perfect_pattern_search", "search.pattern_search"),
    ("search", "proper_pattern_search", "search.pattern_search"),
    ("qre", "qre_fixed_point", "qre.qre_fixed_point"),
    ("qre", "trace_logit_path", "qre.trace_logit_path"),
    ("qre", "perturbed_monotone_point", "qre.perturbed_monotone_point"),
    ("ccost", "build_spline", "ccost.build_spline"),
    ("ccost", "induced_qrf", "ccost.induced_qrf"),
    ("ccost", "vanishing_sequence", "ccost.vanishing_sequence"),
    ("ccost", "cc_equilibrium_check", "ccost.cc_equilibrium_check"),
    ("empirical", "empirical_membership", "empirical.empirical_membership"),
)

CLI_COMMANDS = ("nash", "empirical", "trace", "region", "wpm", "ccost")

# Per-layer metrics: name -> unit.  Every run reports all of them.
METRICS = {
    "game.expected_utility.calls": "count",
    "game.expected_utility.self_s": "s",
    "game.MixedProfile.inits": "count",
    "game.MixedProfile.self_s": "s",
    "game.weak_dominance.calls": "count",
    "game.weak_dominance.self_s": "s",
    "monotone.predicate.calls": "count",
    "monotone.predicate.self_s": "s",
    "monotone.sample_monotone_region.self_s": "s",
    "nash.enumerate_nash.calls": "count",
    "nash.enumerate_nash.self_s": "s",
    "nash.Component.distance_to.calls": "count",
    "nash.Component.distance_to.self_s": "s",
    "nash.check_perfect.self_s": "s",
    "nash.check_proper.self_s": "s",
    "nash.classify.self_s": "s",
    "nash.degenerate_faces": "count",
    "search.solve_player_lp.calls": "count",
    "search.solve_player_lp.self_s": "s",
    "search.solve_player_lp.infeasible": "count",
    "search.pattern_search.calls": "count",
    "search.patterns_tried": "count",
    "search.outcome.feasible": "count",
    "search.outcome.refuted": "count",
    "search.outcome.open": "count",
    "search.feasible_per_lp": "ratio",
    "qre.qre_fixed_point.calls": "count",
    "qre.qre_fixed_point.self_s": "s",
    "qre.qre_fixed_point.failed": "count",
    "qre.trace_logit_path.self_s": "s",
    "qre.lambda_bisections": "count",
    "qre.perturbed_monotone_point.calls": "count",
    "qre.perturbed_monotone_point.self_s": "s",
    "ccost.build_spline.calls": "count",
    "ccost.build_spline.failed": "count",
    "ccost.induced_qrf.calls": "count",
    "ccost.induced_qrf.self_s": "s",
    "ccost.vanishing_sequence.calls": "count",
    "ccost.vanishing_sequence.failed": "count",
    "ccost.vanishing_sequence.self_s": "s",
    "ccost.cc_equilibrium_check.calls": "count",
    "empirical.empirical_membership.calls": "count",
    "empirical.empirical_membership.self_s": "s",
    "empirical.decision.member": "count",
    "empirical.decision.non-member": "count",
    "empirical.decision.inconclusive": "count",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
    "trace.uncovered_share": "ratio",
}

FAILURE_COUNTED = ("qre.qre_fixed_point", "ccost.build_spline", "ccost.vanishing_sequence")
DEFAULT_SCHEDULE_LENGTH = 41  # qre.default_lambda_schedule(): 0 plus 40 steps


def _counts_from(name, args, result, error, counts):
    """Counters read off one call's arguments, return value or exception."""
    if error is not None:
        # a deadline interrupt is not the function's own failure
        if isinstance(error, Exception) and name in FAILURE_COUNTED:
            counts[f"{name}.failed"] += 1
        return
    if name == "search.solve_player_lp" and result[0] == -math.inf:
        counts["search.solve_player_lp.infeasible"] += 1
    elif name == "search.pattern_search":
        counts[f"search.outcome.{result.outcome}"] += 1
        counts["search.patterns_tried"] += result.tried
    elif name == "nash.enumerate_nash":
        counts["nash.degenerate_faces"] += sum(
            d.status == "degenerate" for d in result.diagnostics)
    elif name == "empirical.empirical_membership":
        counts[f"empirical.decision.{result.decision}"] += 1
    elif name == "qre.trace_logit_path":
        schedule = args[1] if len(args) > 1 and args[1] is not None else None
        counts["_schedule_points"] += (len(schedule) if schedule is not None
                                       else DEFAULT_SCHEDULE_LENGTH)


class Tracer:
    """Collects spans in memory; one instance per run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.current_op = -1
        self._stack = []
        self._undo = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(clock())
            self.end.append(math.nan)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[sid] = clock()
                stack.pop()
                _counts_from(name, args, None, exc, self.counts)
                raise
            self.end[sid] = clock()
            stack.pop()
            _counts_from(name, args, result, None, self.counts)
            return result

        return traced

    def span(self, name):
        """Context manager for an op-level span opened by the runner."""
        return _Span(self, self._id(name))

    def install(self, package):
        """Wrap every target in `package` and its sibling modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, name))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __len__(self):
        return len(self.start)

    def spans(self):
        """(name, start, end, parent, op) tuples, for tests and output."""
        return [(self.names[self.name_id[i]], self.start[i], self.end[i],
                 self.parent[i], self.op[i]) for i in range(len(self))]

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            parent=np.array(self.parent), op=np.array(self.op),
            start=np.array(self.start), end=np.array(self.end))

    def layer_totals(self):
        """Self time and call count per span name."""
        nid = np.array(self.name_id, dtype=np.int64)
        selfs = self_times(self.start, self.end, self.parent)
        n = len(self.names)
        self_s = np.bincount(nid, weights=selfs, minlength=n)
        calls = np.bincount(nid, minlength=n)
        return (Counter(dict(zip(self.names, self_s.tolist()))),
                Counter(dict(zip(self.names, calls.tolist()))))

    def lambda_bisections(self):
        """Fixed-point calls inside traces beyond the traces' schedule length."""
        trace_id = self._name_ids.get("qre.trace_logit_path")
        fp_id = self._name_ids.get("qre.qre_fixed_point")
        if trace_id is None or fp_id is None:
            return 0
        nid = np.array(self.name_id)
        inside = 0
        for i in np.nonzero(nid == fp_id)[0]:
            p = self.parent[int(i)]
            while p >= 0 and nid[p] != trace_id:
                p = self.parent[p]
            inside += p >= 0
        return max(0, inside - self.counts["_schedule_points"])


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.start)
        t.name_id.append(self.nid)
        t.parent.append(t._stack[-1] if t._stack else -1)
        t.op.append(t.current_op)
        t.start.append(time.perf_counter())
        t.end.append(math.nan)
        t._stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.sid] = time.perf_counter()
        # an interrupted op can leave wrapped frames unpopped
        del t._stack[t._stack.index(self.sid):]
        return False


def wrapper_cost(samples=20000):
    """Seconds one traced call adds over a plain call, measured here."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
        del probe.start[:], probe.end[:], probe.name_id[:], probe.parent[:], probe.op[:]
    return max(best, 0.0)


def layer_metrics(tracer, ops, per_span_cost):
    """Per-layer metric values for a traced run."""
    self_s, calls = tracer.layer_totals()
    counts = tracer.counts
    out = dict.fromkeys(METRICS, 0)
    for name in METRICS:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_s[base]
        elif field == "calls":
            out[name] = calls[base]
        elif name in counts:
            out[name] = counts[name]
    out["game.MixedProfile.inits"] = calls["game.MixedProfile"]
    out["game.MixedProfile.self_s"] = self_s["game.MixedProfile"]
    lps = calls["search.solve_player_lp"]
    feasible = counts["search.outcome.feasible"]
    out["search.feasible_per_lp"] = feasible / lps if lps else 0.0
    out["qre.lambda_bisections"] = tracer.lambda_bisections()
    cli_ops = [op for op in ops if op["kind"] == "cli"]
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = sum(op["wall_s"] for op in cli_ops if op["op"].split()[0] == c)
    out["cli.output_bytes"] = sum(op.get("output_bytes", 0) for op in cli_ops)
    wall = sum(op["wall_s"] for op in ops)
    layer_self = sum(v for k, v in self_s.items() if not k.startswith("op:"))
    out["trace.spans"] = len(tracer)
    out["trace.overhead_share"] = len(tracer) * per_span_cost / wall if wall else 0.0
    out["trace.uncovered_share"] = max(0.0, wall - layer_self) / wall if wall else 0.0
    return out
