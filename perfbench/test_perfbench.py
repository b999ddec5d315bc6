"""Tests of the benchmark itself (not of the package).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from perception_games import model, single  # noqa: E402
from perception_games.docio import canonical_json, to_document  # noqa: E402

GENERATORS = [workloads.mixed_cli_game, workloads.pure_single_game, workloads.pure_two_player_game]


def _text(game) -> str:
    return canonical_json(to_document(game))


def _structure(game):
    """Everything the seed must not change: sizes, labels, penalty kinds and events."""
    if isinstance(game, model.TwoPlayerPerceptionGame):
        return [_side(ps.types.labels, ps.actions.labels, ps.penalties) for ps in game.players]
    return _side(game.types.labels, game.actions.labels, game.utility.penalties)


def _side(types, actions, penalties):
    return (types, actions, [(p.kind, p.marginal_over, len(p.knots or ()), len(p.pieces or ()))
                             for p in penalties])


@pytest.mark.parametrize("make", GENERATORS)
def test_same_seed_same_inputs(make):
    assert _text(make(7)) == _text(make(7))


@pytest.mark.parametrize("make", GENERATORS)
def test_seed_changes_numbers_not_structure(make):
    games = [make(seed) for seed in (0, 1, 2)]
    assert len({_text(g) for g in games}) == 3
    assert all(_structure(g) == _structure(games[0]) for g in games)


def test_generated_games_validate():
    for make in GENERATORS:
        assert model.validate_game(make(3)).ok


TARGETS = [(mod, attr) for _, targets in spans.SPANS.values() for mod, attr in targets]
TARGETS += [(mod, attr) for targets in spans.COUNTERS.values() for mod, attr in targets]


def _originals():
    return {(mod, attr): getattr(sys.modules[f"perception_games.{mod}"], attr)
            for mod, attr in TARGETS}


def test_tracer_restores_every_attribute():
    before = _originals()
    tracer = spans.Tracer()
    with tracer:
        assert single.profile_report is not before[("single", "profile_report")]
    assert _originals() == before
    assert tracer.missing == []
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert _originals() == before


def test_summarize_self_time_and_rebuild_yield():
    recs = [
        ["single.mixed", 0.0, 10.0, -1, None],
        ["kernels.sweep", 1.0, 7.0, 0, {"profiles": 600}],
        ["single.oracle", 7.0, 8.0, 0, {"confirmed": True}],
        ["single.oracle", 8.0, 9.0, 0, {"confirmed": False}],
        ["single.oracle", 20.0, 21.0, -1, {"confirmed": True}],
    ]
    got = spans.summarize(recs, {"penalties.value": 4, "penalties.range": 2}, passes=2)
    assert got["single.mixed.self_s"] == pytest.approx(1.0)
    assert got["kernels.sweep.profiles_per_s"] == pytest.approx(100.0)
    assert got["single.oracle.calls"] == 1.5
    assert got["single.rebuild.calls"] == 1.0
    assert got["single.rebuild.yield"] == 0.5
    assert got["penalties.value.calls"] == 2.0
    assert set(got) | {"trace.pass_s", "trace.overhead_s"} == set(spans.UNITS)


def _small_majority():
    work = workloads.MajorityScan()
    work.alphas = (0.0, 0.6, 1.0)
    return work, work.setup(0, None)


def _small_mixed(tmp_path):
    work = workloads.MixedCli()
    inputs = work.setup(5, tmp_path)
    inputs["argv"][inputs["argv"].index("--step") + 1] = "0.25"
    return work, inputs


def _small_pure():
    work = workloads.PureEnum()
    inputs = work.setup(4, None)
    inputs["single"] = workloads.mixed_cli_game(4)
    return work, inputs


@pytest.mark.parametrize("build", ["majority", "mixed", "pure"])
def test_traced_and_untraced_answers_match(build, tmp_path):
    work, inputs = {"majority": _small_majority, "mixed": lambda: _small_mixed(tmp_path),
                    "pure": _small_pure}[build]()
    plain = workloads.digest(work.canonical(inputs, work.run(inputs)))
    tracer = spans.Tracer()
    with tracer:
        traced = workloads.digest(work.canonical(inputs, work.run(inputs)))
    assert traced == plain
    assert tracer.spans, "the traced pass recorded no spans"


def test_segments_scale_by_the_probes_around_them():
    assert speed.at_reference([2.0, 1.0], [1.0, 3.0, 1.0], ref_s=2.0) == pytest.approx(2.0 + 1.0)
    with pytest.raises(ValueError):
        speed.at_reference([2.0], [1.0], ref_s=2.0)


def test_probe_ticks_split_a_step_and_leave_no_timer():
    old = signal.getsignal(signal.SIGALRM)
    calls = []

    def step():
        end = perf_counter() + 1.2
        while perf_counter() < end:
            pass
        return "done"

    results, raw, ref = speed.timed_steps([step], lambda: calls.append(1))
    assert results == ["done"]
    assert len(calls) >= 2 + 2  # before, after, and a tick every TICK_S inside
    assert raw == pytest.approx(1.2, abs=0.1)
    assert ref > 0
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checks_catch_wrong_answers(tmp_path):
    work, inputs = _small_mixed(tmp_path)
    assert work.check(inputs, (2, "")), "a failed exit must count as a failure"
    game = inputs["game"]
    pure = (np.eye(3)[list(acts)] for acts in itertools.product(range(3), repeat=3))
    bogus = next(s for s in pure if single.profile_report(game, s).max_gain > 1e-6)
    payload = {"total": work.expected_total, "swept": work.expected_swept, "survivor_count": 1,
               "survivors": [{"sigma": [[str(x) for x in row] for row in bogus.tolist()]}]}
    problems = work.check(inputs, (0, json.dumps(payload)))
    assert len(problems) == 1 and "exact gain" in problems[0]


def test_agreement_check_passes_at_head():
    rng = np.random.default_rng(0)
    assert workloads.agreement_problems(workloads.mixed_cli_game(1), rng, 50) == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pure-enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
