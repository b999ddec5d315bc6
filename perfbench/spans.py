"""Span recording for the traced run.

The tracer wraps public functions of the package at the module attribute
where their caller looks them up (``single.sweep_profile_gains`` is the
name ``search_mixed_equilibria`` calls, ``cli.load_game`` the one
``pgame`` calls), so nothing inside the package changes. Each wrapped
call records a span (name, start, end, parent, optional attributes);
the hot scalar penalty functions only bump a counter. Spans stay in
memory and are written out by the runner at the end.

Entering the tracer installs every wrapper; leaving it restores every
original attribute, whatever happened in between.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np
from perception_games.simplex import WEAK_TOL

PKG = "perception_games"


def _tol(args, kwargs, pos: int) -> float:
    return float(args[pos]) if len(args) > pos else float(kwargs.get("tol", WEAK_TOL))


def _sweep_attrs(args, kwargs, result):
    idx = args[2] if len(args) > 2 else kwargs["idx"]
    return {"profiles": int(np.shape(idx)[0])}


def _oracle_attrs(args, kwargs, result):
    return {"confirmed": bool(result.max_gain <= _tol(args, kwargs, 2))}


def _pairs_attrs(args, kwargs, result):
    game = args[0] if args else kwargs["game"]
    p0, p1 = game.players
    return {"profiles": (p0.actions.m ** p0.types.n) * (p1.actions.m ** p1.types.n)}


# span name -> (attribute function, [(module, attribute), ...]); each target
# is the name under which a workload's pass reaches the function
SPANS = {
    "kernels.pack": (None, [("single", "pack_game")]),
    "kernels.sweep": (_sweep_attrs, [("single", "sweep_profile_gains")]),
    "single.oracle": (_oracle_attrs, [("single", "profile_report")]),
    "single.pure": (None, [("single", "enumerate_pure_equilibria"),
                           ("experiments", "enumerate_pure_equilibria")]),
    "single.mixed": (None, [("experiments", "search_mixed_equilibria"),
                            ("cli", "search_mixed_equilibria")]),
    "two_player.eq": (_pairs_attrs, [("two_player", "enumerate_pure_equilibria_2p")]),
    "two_player.bne": (_pairs_attrs, [("two_player", "enumerate_pure_bne")]),
    "experiments.scan_alpha": (None, [("experiments", "scan_alpha")]),
    "cli.main": (None, [("cli", "main")]),
    "docio.load": (None, [("cli", "load_game")]),
    "report.dumps": (None, [("cli", "dumps")]),
}

# counter name -> [(module, attribute), ...]
COUNTERS = {
    "penalties.value": [("model", "penalty_value"), ("two_player", "penalty_value"),
                        ("experiments", "penalty_value")],
    "penalties.range": [("model", "penalty_range"), ("two_player", "penalty_range")],
}


UNITS = {  # per-layer metric -> unit
    "kernels.pack.s": "s",
    "kernels.sweep.calls": "count",
    "kernels.sweep.profiles": "count",
    "kernels.sweep.s": "s",
    "kernels.sweep.profiles_per_s": "1/s",
    "single.oracle.calls": "count",
    "single.oracle.s": "s",
    "single.oracle.us_per_call": "us",
    "single.pure.self_s": "s",
    "single.mixed.self_s": "s",
    "single.rebuild.calls": "count",
    "single.rebuild.confirmed": "count",
    "single.rebuild.yield": "ratio",
    "two_player.eq.pairs": "count",
    "two_player.eq.s": "s",
    "two_player.eq.pairs_per_s": "1/s",
    "two_player.bne.s": "s",
    "penalties.value.calls": "count",
    "penalties.range.calls": "count",
    "experiments.scan_alpha.self_s": "s",
    "cli.main.self_s": "s",
    "docio.load.s": "s",
    "report.dumps.s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counts while installed (``with tracer:``)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []  # targets the package no longer has
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, attrs):
        """``fn`` wrapped so that each call records one span called ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(f"{PKG}.{module}")
        if mod is None or not hasattr(mod, attr):
            self.missing.append(f"{module}.{attr}")
            return
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def __enter__(self) -> "Tracer":
        self.missing.clear()
        for name, (attrs, targets) in SPANS.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, n=name, a=attrs: self._span(n, fn, a))
        for name, targets in COUNTERS.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, n=name: self._count(n, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def summarize(spans: list[list], counts: dict[str, int], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counts of ``passes`` traced passes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    profiles: dict[str, int] = {}
    rebuilt = confirmed = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if attrs and "profiles" in attrs:
            profiles[name] = profiles.get(name, 0) + attrs["profiles"]
        if name == "single.oracle" and parent >= 0 and spans[parent][0] == "single.mixed":
            rebuilt += 1
            confirmed += attrs["confirmed"]

    def per_pass(x: float) -> float:
        return x / passes

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    sweep_s = total.get("kernels.sweep", 0.0)
    oracle_s = total.get("single.oracle", 0.0)
    eq_s = total.get("two_player.eq", 0.0)
    return {
        "kernels.pack.s": per_pass(total.get("kernels.pack", 0.0)),
        "kernels.sweep.calls": per_pass(calls.get("kernels.sweep", 0)),
        "kernels.sweep.profiles": per_pass(profiles.get("kernels.sweep", 0)),
        "kernels.sweep.s": per_pass(sweep_s),
        "kernels.sweep.profiles_per_s": rate(profiles.get("kernels.sweep", 0), sweep_s),
        "single.oracle.calls": per_pass(calls.get("single.oracle", 0)),
        "single.oracle.s": per_pass(oracle_s),
        "single.oracle.us_per_call": 1e6 * rate(oracle_s, calls.get("single.oracle", 0)),
        "single.pure.self_s": per_pass(self_s.get("single.pure", 0.0)),
        "single.mixed.self_s": per_pass(self_s.get("single.mixed", 0.0)),
        "single.rebuild.calls": per_pass(rebuilt),
        "single.rebuild.confirmed": per_pass(confirmed),
        "single.rebuild.yield": rate(confirmed, rebuilt),
        "two_player.eq.pairs": per_pass(profiles.get("two_player.eq", 0)),
        "two_player.eq.s": per_pass(eq_s),
        "two_player.eq.pairs_per_s": rate(profiles.get("two_player.eq", 0), eq_s),
        "two_player.bne.s": per_pass(total.get("two_player.bne", 0.0)),
        "penalties.value.calls": per_pass(counts.get("penalties.value", 0)),
        "penalties.range.calls": per_pass(counts.get("penalties.range", 0)),
        "experiments.scan_alpha.self_s": per_pass(self_s.get("experiments.scan_alpha", 0.0)),
        "cli.main.self_s": per_pass(self_s.get("cli.main", 0.0)),
        "docio.load.s": per_pass(total.get("docio.load", 0.0)),
        "report.dumps.s": per_pass(total.get("report.dumps", 0.0)),
    }
