#!/usr/bin/env python3
"""Benchmark the numpy profile-gain sweep kernel.

Builds a 3-type, 3-action additive game whose penalty catalog touches
every kernel branch (total variation, exposure, polyline, step), then
times sweep_profile_gains in two regimes:

  * batch-size sweep at a fixed grid, showing per-call latency;
  * resolution sweep at a large fixed batch, showing bulk throughput.

Before any timing, kernel gains on a sample of profiles are checked for
exact (bitwise) agreement with the exact evaluator, profile_report.

Run from the repository root after installing the package:

    python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from perception_games.kernels import pack_game, sweep_profile_gains
from perception_games.model import (
    ActionSpace,
    Belief,
    PenaltySpec,
    PerceptionGame,
    TypeSpace,
    UtilityModel,
)
from perception_games.simplex import SimplexGrid
from perception_games.single import _decode_profile, profile_report


def build_game() -> PerceptionGame:
    """Fixed mid-size game; one penalty of each nontrivial kind."""
    v = np.array([
        [3.0, 1.0, 0.0],
        [0.5, 2.5, 1.5],
        [1.0, 0.0, 3.5],
    ])
    penalties = (
        PenaltySpec.tv_to_prior(1.5),
        PenaltySpec.piecewise_linear(
            knots=((0.0, 1.0), (0.4, 0.0), (1.0, 2.0)),
            over=("t0", "t1"),
            weight=1.2,
        ),
        PenaltySpec.step(
            pieces=((0.3, 0.8, 1.0, True, False),),
            over=("t2",),
            weight=2.0,
        ),
    )
    return PerceptionGame(
        types=TypeSpace.plain(("t0", "t1", "t2")),
        actions=ActionSpace.plain(("a0", "a1", "a2")),
        prior=Belief(np.array([0.5, 0.25, 0.25])),
        utility=UtilityModel(kind="additive_separable", v=v, penalties=penalties),
    )


def best_time(pack, pts, idx, n_runs: int) -> float:
    """Best wall-clock seconds over n_runs."""
    best = float("inf")
    for _ in range(n_runs):
        t0 = time.perf_counter()
        sweep_profile_gains(pack, pts, idx)
        best = min(best, time.perf_counter() - t0)
    return best


def check_exact(game, pack, pts, idx) -> None:
    gains = sweep_profile_gains(pack, pts, idx)
    for code, gain in zip(idx, gains):
        sigma = _decode_profile(int(code), pts.shape[0], pts, game.n)
        if gain != profile_report(game, sigma).max_gain:
            raise SystemExit(f"kernel and profile_report disagree at profile {code}")


def main() -> None:
    print("sweep_profile_gains benchmark (numpy)")
    print("=" * 40)

    game = build_game()
    pack = pack_game(game)
    rng = np.random.default_rng(0)

    pts = SimplexGrid(game.m, 16).points()
    total = pts.shape[0] ** game.n
    check_exact(game, pack, pts, rng.choice(total, size=500, replace=False))
    print("kernel gains equal profile_report on 500 sampled profiles")

    print()
    print("batch-size sweep, resolution 16 grid")
    header = f"{'profiles':<10}{'numpy (us)':>14}"
    print(header)
    print("-" * len(header))
    for take in (64, 512, 4096, 32768):
        idx = rng.choice(total, size=take, replace=False).astype(np.int64)
        print(f"{take:<10}{best_time(pack, pts, idx, n_runs=5) * 1e6:>14.1f}")

    print()
    print("resolution sweep, 200000-profile batch")
    header = f"{'resolution':<10}{'numpy (us)':>14}"
    print(header)
    print("-" * len(header))
    for resolution in (8, 16, 24):
        pts = SimplexGrid(game.m, resolution).points()
        total = pts.shape[0] ** game.n
        take = min(total, 200_000)
        idx = rng.choice(total, size=take, replace=False).astype(np.int64)
        print(f"{resolution:<10}{best_time(pack, pts, idx, n_runs=3) * 1e6:>14.1f}")


if __name__ == "__main__":
    main()
