"""The benchmark's three workloads: seeded inputs, timed steps, checks.

Each workload turns a seed into inputs (``setup``), checks the kernel
against the exact oracle before any timing (``agreement``), and splits
one pass of the program into steps (``steps``, the only timed calls).
``answer`` assembles the steps' results; then, outside the timed
region, ``check`` checks the answers and ``canonical`` reduces them to a
form whose digest identifies the result. ``run`` does a whole pass
untimed.

Each workload also names a speed probe from ``speed``, a fixed loop of
the same kind of work as its hot path, which the runner times around
and inside the steps to follow the shared machine's speed.

The seed draws numbers only (values, priors, weights, knot and piece
positions); structure (n, m, penalty kinds, events) is fixed per
workload, so a pass costs the same on every seed.

Passes call the program through module attributes (``experiments.
scan_alpha``, ``cli.main``, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from perception_games import cli, experiments, kernels, single, two_player
from perception_games.docio import save_game
from perception_games.model import (
    ActionSpace,
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
)
from perception_games.penalties import PenaltySpec
from perception_games.simplex import WEAK_TOL, Belief, SimplexGrid
from speed import interpreter_probe, small_array_probe

AGREE_TOL = 1e-9
STEP = 0.05


def digest(canonical) -> str:
    """Short hash of a canonical answer; equal answers, equal digests."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _prior(rng: np.random.Generator, n: int, denom: int = 64) -> np.ndarray:
    """Dyadic distribution, every entry at least 1/denom."""
    counts = rng.multinomial(denom - n, np.full(n, 1.0 / n)) + 1
    return counts / float(denom)


def _polyline(rng: np.random.Generator, over: tuple[str, ...]) -> PenaltySpec:
    x1 = float(rng.uniform(0.2, 0.8))
    ys = rng.uniform(0.0, 2.0, size=3)
    return PenaltySpec.piecewise_linear(
        knots=((0.0, float(ys[0])), (x1, float(ys[1])), (1.0, float(ys[2]))),
        over=over,
        weight=float(rng.uniform(0.5, 2.0)),
    )


def _step(rng: np.random.Generator, over: tuple[str, ...]) -> PenaltySpec:
    lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
    return PenaltySpec.step(
        pieces=((float(lo), float(hi), float(rng.uniform(0.5, 2.0)), True, False),),
        over=over,
        weight=float(rng.uniform(0.5, 2.0)),
    )


def _catalog_penalty(rng: np.random.Generator, kind: str, t: int, labels) -> PenaltySpec:
    """One penalty of a fixed kind; marginal kinds watch types t and t+1."""
    if kind == "tv_to_prior":
        return PenaltySpec.tv_to_prior(float(rng.uniform(0.5, 3.0)))
    if kind == "exposure":
        return PenaltySpec.exposure(float(rng.uniform(0.5, 3.0)))
    over = (labels[t], labels[(t + 1) % len(labels)])
    return _polyline(rng, over) if kind == "polyline" else _step(rng, over)


CYCLE = ("tv_to_prior", "exposure", "polyline", "step")


def mixed_cli_game(seed: int) -> PerceptionGame:
    """3 types x 3 actions; tv_to_prior, polyline and step penalties."""
    rng = np.random.default_rng([seed, 1])
    labels = _labels("t", 3)
    penalties = (
        PenaltySpec.tv_to_prior(float(rng.uniform(0.5, 2.5))),
        _polyline(rng, labels[:2]),
        _step(rng, labels[2:]),
    )
    return PerceptionGame(
        types=TypeSpace.plain(labels),
        actions=ActionSpace.plain(_labels("a", 3)),
        prior=Belief(_prior(rng, 3)),
        utility=UtilityModel(
            kind="additive_separable",
            v=rng.uniform(0.0, 1.0, size=(3, 3)),
            penalties=penalties,
        ),
        allow_discontinuous=True,
        name=f"bench-mixed-{seed}",
    )


def pure_single_game(seed: int) -> PerceptionGame:
    """8 types x 3 actions; penalty kinds cycle tv/exposure/polyline/step."""
    rng = np.random.default_rng([seed, 2])
    n, m = 8, 3
    labels = _labels("t", n)
    penalties = tuple(
        _catalog_penalty(rng, CYCLE[t % 4], t, labels) for t in range(n)
    )
    return PerceptionGame(
        types=TypeSpace.plain(labels),
        actions=ActionSpace.plain(_labels("a", m)),
        prior=Belief(_prior(rng, n)),
        utility=UtilityModel(
            kind="additive_separable",
            v=rng.uniform(0.0, 1.0, size=(n, m)),
            penalties=penalties,
        ),
        allow_discontinuous=True,
        name=f"bench-pure-{seed}",
    )


def pure_two_player_game(seed: int) -> TwoPlayerPerceptionGame:
    """3 types x 3 actions per side; kinds cycle over the six (player, type) slots."""
    rng = np.random.default_rng([seed, 3])
    n, m = 3, 3
    players = []
    for i, (tp, ap) in enumerate((("u", "U"), ("l", "L"))):
        labels = _labels(tp, n)
        players.append(
            PlayerSpec(
                types=TypeSpace.plain(labels),
                actions=ActionSpace.plain(_labels(ap, m)),
                beliefs=np.stack([_prior(rng, n) for _ in range(n)]),
                v=rng.uniform(0.0, 1.0, size=(n, n, m, m)),
                penalties=tuple(
                    _catalog_penalty(rng, CYCLE[(i * n + t) % 4], t, labels)
                    for t in range(n)
                ),
            )
        )
    return TwoPlayerPerceptionGame(
        players=tuple(players), allow_discontinuous=True, name=f"bench-2p-{seed}"
    )


def _decode(code: int, pts: np.ndarray, n: int) -> np.ndarray:
    """Profile index to (n, m) strategy; type 0 is the most significant digit."""
    G = pts.shape[0]
    sigma = np.empty((n, pts.shape[1]))
    for t in range(n - 1, -1, -1):
        sigma[t] = pts[code % G]
        code //= G
    return sigma


def agreement_problems(
    game: PerceptionGame, rng: np.random.Generator, size: int
) -> list[str]:
    """Kernel gains against the exact oracle on a seeded grid sample.

    Where numba imports, the two kernel backends must also agree bitwise.
    """
    pts = SimplexGrid(game.m, round(1.0 / STEP)).points()
    total = pts.shape[0] ** game.n
    idx = rng.choice(total, size=min(size, total), replace=False).astype(np.int64)
    pack = kernels.pack_game(game)
    gains = kernels.sweep_profile_gains(pack, pts, idx)
    problems = []
    for code, gain in zip(idx, gains):
        exact = single.profile_report(game, _decode(int(code), pts, game.n)).max_gain
        if not abs(gain - exact) <= AGREE_TOL:
            problems.append(
                f"{game.name}: profile {int(code)} kernel {gain!r} oracle {exact!r}"
            )
    if getattr(kernels, "HAVE_NUMBA", False):
        a = kernels.sweep_profile_gains(pack, pts, idx, backend="numpy")
        b = kernels.sweep_profile_gains(pack, pts, idx, backend="numba")
        if not np.array_equal(a, b):
            problems.append(f"{game.name}: numba and numpy gains differ")
    return problems


class Workload:
    """One timed step by default; its result is the answer."""

    probe = staticmethod(interpreter_probe)

    def answer(self, results: list):
        return results[0]

    def run(self, inputs: dict):
        return self.answer([step() for step in self.steps(inputs)])


class MajorityScan(Workload):
    """``pgame majority-scan --step 0.05``: 21 alphas, 21 full-grid sweeps."""

    name = "majority-scan"
    alphas = tuple(round(k * STEP, 10) for k in range(21))
    expected_survivors = [5] + [3] * 10 + [1] * 10
    agreement_sample = 40  # profiles per alpha

    def setup(self, seed: int, workdir: Path) -> dict:
        family = experiments.default_majority_family()
        games = [family.game_for(a) for a in self.alphas]
        res = round(1.0 / STEP)
        return {
            "seed": seed,
            "family": family,
            "games": games,
            "profiles": sum(len(SimplexGrid(g.m, res)) ** g.n for g in games),
        }

    def agreement(self, inputs: dict) -> list[str]:
        rng = np.random.default_rng([inputs["seed"], 10])
        out = []
        for game in inputs["games"]:
            out += agreement_problems(game, rng, self.agreement_sample)
        return out

    def steps(self, inputs: dict) -> list:
        return [lambda: experiments.scan_alpha(
            inputs["family"], self.alphas, mixed_step=STEP, seed=inputs["seed"]
        )]

    def check(self, inputs: dict, answer) -> list[str]:
        problems = []
        if answer.alpha_hat != 0.55:
            problems.append(f"alpha_hat {answer.alpha_hat!r} != 0.55")
        if answer.bound_violations:
            problems.append(f"bound violations at {answer.bound_violations!r}")
        survivors = [r.mixed_survivors for r in answer.rows]
        if survivors != self.expected_survivors:
            problems.append(f"mixed survivors {survivors!r}")
        return problems

    def canonical(self, inputs: dict, answer):
        return {
            "rows": [
                [r.alpha, r.n_equilibria, list(r.labels), r.separation_unique,
                 r.margin_ok, r.mixed_survivors, [list(map(repr, p)) for p in r.payoffs]]
                for r in answer.rows
            ],
            "alpha_hat": answer.alpha_hat,
            "bound": repr(answer.bound),
            "bound_violations": list(answer.bound_violations),
            "monotonicity_violations": list(answer.monotonicity_violations),
        }


class MixedCli(Workload):
    """``pgame equilibria --mode mixed --step 0.05 --format json``, in process."""

    name = "mixed-cli"
    agreement_sample = 800
    expected_total = 231 ** 3
    expected_swept = 2_000_000

    def setup(self, seed: int, workdir: Path) -> dict:
        game = mixed_cli_game(seed)
        path = workdir / f"mixed-cli-{seed}.json"
        save_game(game, path)
        argv = ["equilibria", "--game", str(path), "--mode", "mixed",
                "--step", str(STEP), "--seed", str(seed), "--format", "json"]
        return {"seed": seed, "game": game, "argv": argv, "profiles": self.expected_swept}

    def agreement(self, inputs: dict) -> list[str]:
        rng = np.random.default_rng([inputs["seed"], 10])
        return agreement_problems(inputs["game"], rng, self.agreement_sample)

    def steps(self, inputs: dict) -> list:
        return [lambda: self._main(inputs["argv"])]

    @staticmethod
    def _main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def _payload(answer) -> dict | None:
        code, text = answer
        if code != 0:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return None

    def check(self, inputs: dict, answer) -> list[str]:
        payload = self._payload(answer)
        if payload is None:
            return [f"exit code {answer[0]} or unparseable output"]
        problems = []
        if (payload.get("total"), payload.get("swept")) != (self.expected_total, self.expected_swept):
            problems.append(f"swept {payload.get('swept')} of {payload.get('total')}")
        survivors = payload.get("survivors", [])
        if len(survivors) != min(payload.get("survivor_count", -1), 10_000):
            problems.append("survivor list does not match survivor_count")
        for row in survivors:
            sigma = np.array([[float(x) for x in r] for r in row["sigma"]])
            gain = single.profile_report(inputs["game"], sigma).max_gain
            if gain > WEAK_TOL:
                problems.append(f"survivor {row['sigma']} has exact gain {gain!r}")
        return problems

    def canonical(self, inputs: dict, answer):
        payload = self._payload(answer)
        if payload is not None:
            payload.pop("backend", None)
        return {"exit": answer[0], "payload": payload}


class PureEnum(Workload):
    """Exact pure enumeration: an 8x3 single game and a 3x3-per-side pair."""

    name = "pure-enum"
    probe = staticmethod(small_array_probe)

    def setup(self, seed: int, workdir: Path) -> dict:
        single_game = pure_single_game(seed)
        pair_game = pure_two_player_game(seed)
        p0, p1 = pair_game.players
        pairs = (p0.actions.m ** p0.types.n) * (p1.actions.m ** p1.types.n)
        return {
            "seed": seed,
            "single": single_game,
            "pair": pair_game,
            # enumerate_pure_equilibria, then the 2p and BNE enumerators
            "profiles": single_game.m ** single_game.n + 2 * pairs,
        }

    def agreement(self, inputs: dict) -> list[str]:
        return []

    def steps(self, inputs: dict) -> list:
        pair = inputs["pair"]
        return [
            lambda: single.enumerate_pure_equilibria(inputs["single"]),
            lambda: two_player.enumerate_pure_equilibria_2p(pair),
            lambda: two_player.enumerate_pure_bne(pair, fold_prior_penalty=True),
        ]

    def answer(self, results: list):
        return tuple(results)

    def check(self, inputs: dict, answer) -> list[str]:
        eq, eq2, _ = answer
        problems = []
        for rep in eq:
            if rep.clamped:
                continue
            res = single.verify_equilibrium(inputs["single"], rep.strategy, rep.perceptions)
            if not res.accepted:
                problems.append(f"single {rep.strategy.pure_actions()} rejected")
        for rep in eq2:
            res = two_player.verify_equilibrium_2p(inputs["pair"], rep.strategy, rep.perceptions)
            if not res.accepted:
                problems.append(f"pair {rep.strategy.pure_actions()} rejected")
        return problems

    def canonical(self, inputs: dict, answer):
        eq, eq2, bne = answer
        return {
            "single": [
                [rep.strategy.pure_actions(), rep.label, rep.clamped,
                 repr(rep.max_gain), list(map(repr, rep.payoffs))]
                for rep in eq
            ],
            "pair": [
                [rep.strategy.pure_actions(), repr(rep.max_gain),
                 [list(map(repr, p)) for p in rep.payoffs]]
                for rep in eq2
            ],
            "bne": [
                [r.actions, r.strict, [list(map(repr, p)) for p in r.payoffs]]
                for r in bne
            ],
        }


WORKLOADS = {w.name: w for w in (MajorityScan(), MixedCli(), PureEnum())}
