#!/usr/bin/env python3
"""Layered benchmark of the perception-games solver.

Run from the repository root:

    python3 perfbench/run.py --workload majority-scan --seed 1 --seconds 30 --trace 0

Workloads: ``majority-scan``, ``mixed-cli``, ``pure-enum`` (see
perfbench/README.md). One process, one thread. The run

1. sets up (fresh package import plus seeded inputs) once, five more
   times, and once more after every pass; each of the later set-ups is
   timed between two speed probes, and their median at the reference
   speed is ``setup_s``;
2. checks, before any timing, that the kernel's gains agree with the
   exact oracle on a seeded grid sample (sweep workloads);
3. runs one untimed warm-up pass, then timed passes until ``--seconds``
   would be exceeded, checking every pass's answers and their digest
   outside the timed region. A pass is a few steps; the workload's
   speed probe runs before, after and every half second inside each
   step, and gives the step's time at the reference speed (speed.py);
4. prints one summary line (context, digest, every sample, raw times
   too), then one result line: end-to-end metrics, times at the
   reference speed, with ``--trace 0``; per-layer metrics from wrapped
   calls with ``--trace 1`` (traced passes, without probe ticks,
   alternate with untraced ones, whose difference is
   ``trace.overhead_s``).

The package is imported from ``src/`` next to this directory; without
it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_REPS = 5


def _ours(name: str) -> bool:
    return name in ("workloads", "perception_games") or name.startswith("perception_games.")


def _forget_modules() -> None:
    """Drop the package and the workload module so the next import is fresh."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _context(seed: int) -> dict:
    import numpy
    from perception_games import kernels

    active = getattr(kernels, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": bool(getattr(kernels, "HAVE_NUMBA", False)),
        "backend": active() if active else "numpy",
        "seed": seed,
    }


def _tail(times: list[float]) -> dict | None:
    """Highest of p99/p90/p75/p50 with at least ten samples above it."""
    for p in (99, 90, 75, 50):
        if len(times) * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(times, n=100)[p - 1]}
    return None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _set_up(args):
    """Fresh package import plus seeded inputs; returns the seconds it took
    and the workload module, workload and inputs it built."""
    _forget_modules()
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    work = workloads.WORKLOADS.get(args.workload)
    if work is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    inputs = work.setup(args.seed, OUT)
    return perf_counter() - t0, workloads, work, inputs


def _time_set_up(args) -> tuple[float, float]:
    """Time one more set-up, then put the modules in use back in place.
    Returns its seconds, raw and at the reference speed."""
    live = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    before = speed.timed(speed.interpreter_probe)
    seconds = _set_up(args)[0]
    after = speed.timed(speed.interpreter_probe)
    _forget_modules()
    sys.modules.update(live)
    return seconds, speed.at_reference([seconds], [before, after])


def _passes(workloads, work, inputs, seconds: float, tracer, between):
    """Warm-up pass, then timed passes (alternating traced and untraced
    when ``tracer`` is given) until the next one would overrun ``seconds``.
    ``between`` runs after each pass, outside the timed region."""
    times = {False: [], True: []}
    ref_times = []  # untraced passes at the reference speed
    lengths = []  # whole passes with their probes, to fit the run in ``seconds``
    warmup_s = first_digest = None
    attempted = failed = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and len(times[True]) < len(times[False])
        attempted += 1
        t_pass = perf_counter()
        try:
            # no probe ticks inside traced steps: they would land in the spans
            with tracer if traced else contextlib.nullcontext():
                results, dt, ref = speed.timed_steps(work.steps(inputs), work.probe,
                                                     tick=not traced)
            answer = work.answer(results)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            if attempted == 1:
                warmup_s = dt  # page faults and lazy caches; not timed
            else:
                times[traced].append(dt)
                if not traced:
                    ref_times.append(ref)
            problems = work.check(inputs, answer)
            digest = workloads.digest(work.canonical(inputs, answer))
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append(f"answer digest {digest} differs from {first_digest}")
            if problems:
                failed += 1
                for msg in problems[:20]:
                    print(f"check: {msg}", file=sys.stderr)
        lengths.append(perf_counter() - t_pass)
        between()
        done = times[False] and (tracer is None or times[True])
        if perf_counter() - start + statistics.median(lengths) > seconds and (done or attempted >= 4):
            break
    return {"attempted": attempted, "failed": failed, "answer_digest": first_digest,
            "warmup_s": warmup_s, "untraced": times[False], "traced": times[True],
            "untraced_ref": ref_times}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "perception_games" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    _, workloads, work, inputs = _set_up(args)
    setup_times = [_time_set_up(args) for _ in range(SETUP_REPS)]
    import perception_games
    import spans

    if not Path(perception_games.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {perception_games.__file__}, not {SRC}", file=sys.stderr)
        return 2

    problems = work.agreement(inputs)
    for msg in problems[:20]:
        print(f"agreement: {msg}", file=sys.stderr)
    tracer = spans.Tracer() if args.trace else None
    # one more set-up sample after every pass spreads them over the run
    run = _passes(workloads, work, inputs, args.seconds, tracer,
                  lambda: setup_times.append(_time_set_up(args)))

    untraced, untraced_ref = run["untraced"], run["untraced_ref"]
    wall = statistics.median(untraced_ref) if untraced_ref else float("nan")
    summary = {
        "workload": args.workload,
        "context": _context(args.seed),
        "answer_digest": run["answer_digest"],
        "agreement_ok": not problems,
        "failed_frac": run["failed"] / run["attempted"],
        "warmup_s": run["warmup_s"],
        "wall_s_samples": untraced_ref,
        "wall_s_tail": _tail(untraced_ref),
        "raw_wall_s": statistics.median(untraced) if untraced else None,
        "raw_wall_s_samples": untraced,
        "setup_s_samples": [ref for _, ref in setup_times],
        "raw_setup_s_samples": [raw for raw, _ in setup_times],
    }
    if tracer is None:
        metrics = {
            "wall_s": (wall, "s"),
            "profiles_per_s": (inputs["profiles"] / wall, "1/s"),
            "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # per-layer values are means per traced pass, so the pass time is too
        traced = run["traced"]
        traced_s = statistics.fmean(traced) if traced else float("nan")
        layers = spans.summarize(tracer.spans, tracer.counts, max(len(traced), 1))
        layers["trace.pass_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - (statistics.fmean(untraced) if untraced else float("nan"))
        metrics = {name: (value, spans.UNITS[name]) for name, value in layers.items()}
        summary["trace_missing_targets"] = tracer.missing
        summary["traced_s_samples"] = traced
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"summary": summary, "counts": tracer.counts,
                                    "spans": tracer.spans}))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not problems and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
