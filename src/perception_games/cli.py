"""Command line front end.

Subcommands: validate, equilibria, pooling, privacy, welfare,
majority-scan, verify, example. Games and profiles travel as JSON
files; ``--format json`` switches any command's output from prose to
structured data.

Exit codes: 0 on success, 1 for usage problems, invalid input files,
and rejected verifications, 2 for internal failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .docio import (
    GameFormatError,
    canonical_json,
    load_game,
    load_profile,
    profile_to_document,
    save_game,
    to_document,
)
from .experiments import default_majority_family, scan_alpha, welfare_report, welfare_report_2p
from .fixtures import FIXTURE_NAMES, get_fixture
from .model import TwoPlayerPerceptionGame, classify_privacy, validate_game
from .report import Exact, dumps, fmt
from .simplex import WEAK_TOL
from .single import enumerate_pure_equilibria, pooling_check, search_mixed_equilibria, verify_equilibrium
from .two_player import enumerate_pure_equilibria_2p, verify_equilibrium_2p

__all__ = ["main", "build_parser"]

# most points a start:stop:step --alphas range may have; each alpha is a
# full enumeration of the majority game
_MAX_ALPHAS = 10_001


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for crashes
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_vec(labels: Sequence[str], values) -> str:
    return " ".join(f"{lab}={fmt(v)}" for lab, v in zip(labels, values))


def _tolerance(text: str) -> float:
    """``--tol`` and ``--eps``: a finite, nonnegative float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # NaN fails this comparison too
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite, nonnegative number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """``--seed``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _players(game) -> tuple:
    """The per-player blocks of ``game``, each with ``types`` and
    ``actions``: a two-player game's players, or the game itself."""
    return game.players if isinstance(game, TwoPlayerPerceptionGame) else (game,)


def _payoffs(players: tuple, payoffs) -> tuple[list, str]:
    """JSON rows and text of ``payoffs``: one vector per player, or the
    single-player game's one vector, which stays a flat row."""
    per = payoffs if len(players) == 2 else (payoffs,)
    rows = [list(map(float, p)) for p in per]
    text = " | ".join(_fmt_vec(ps.types.labels, p) for ps, p in zip(players, per))
    return (rows if len(players) == 2 else rows[0]), text


def _parse_alphas(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"--alphas range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(x) for x in parts)
        # NaN and infinities fail these comparisons too
        if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
            raise ValueError(f"--alphas start and stop must lie in [0, 1], got {spec!r}")
        if not 0.0 < step < math.inf:
            raise ValueError(f"--alphas step must be positive and finite, got {spec!r}")
        if (stop - start) / step + 1 > _MAX_ALPHAS:
            raise ValueError(f"--alphas range has more than {_MAX_ALPHAS} points, got {spec!r}")
        out = []
        k = 0
        while True:
            val = round(start + k * step, 10)
            if val > stop + 1e-9:
                break
            out.append(val)
            k += 1
        return out
    return [float(x) for x in spec.split(",") if x.strip() != ""]


def build_parser() -> _Parser:
    parser = _Parser(prog="pgame", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, **kwargs):
        p = sub.add_parser(name, help=help_, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("validate", "check a game file and report every problem")
    p.add_argument("--game", required=True)
    p.set_defaults(func=_cmd_validate)

    p = add("equilibria", "enumerate pure equilibria or sweep a mixed grid")
    p.add_argument("--game", required=True)
    p.add_argument("--mode", choices=("pure", "mixed"), default="pure")
    p.add_argument("--step", type=float, default=0.05, help="mixed grid mesh (reciprocal of an integer)")
    p.add_argument("--grid", type=int, default=None, help="mixed grid resolution; overrides --step")
    p.add_argument("--tol", type=_tolerance, default=WEAK_TOL)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_equilibria)

    p = add("pooling", "full-pooling existence by the extremal-set test")
    p.add_argument("--game", required=True)
    p.add_argument("--mode", choices=("upper", "lower"), required=True)
    p.add_argument("--tol", type=_tolerance, default=WEAK_TOL)
    p.set_defaults(func=_cmd_pooling)

    p = add("privacy", "classify the game's privacy direction")
    p.add_argument("--game", required=True)
    p.add_argument("--mode", choices=("upper", "lower"), required=True)
    p.add_argument("--tol", type=_tolerance, default=WEAK_TOL)
    p.set_defaults(func=_cmd_privacy)

    p = add("welfare", "equilibrium payoffs against the unobserved-action baseline")
    p.add_argument("--game", required=True)
    p.add_argument("--tol", type=_tolerance, default=WEAK_TOL)
    p.set_defaults(func=_cmd_welfare)

    p = add("majority-scan", "equilibrium census of the majority family over alpha")
    p.add_argument("--alphas", default="0:1:0.05", help="start:stop:step or comma list")
    p.add_argument("--step", type=float, default=None, help="also sweep mixed profiles at this mesh")
    p.add_argument("--tol", type=_tolerance, default=WEAK_TOL)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_majority_scan)

    p = add("verify", "check a (strategy, perceptions) profile against a game")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--eps", type=_tolerance, default=0.0)
    p.add_argument("--tol", type=_tolerance, default=WEAK_TOL)
    p.set_defaults(func=_cmd_verify)

    p = add("example", "write one of the named example games")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--out", default=None, help="destination file (default: stdout)")
    p.set_defaults(func=_cmd_example)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        print(text)


def _cmd_validate(args) -> int:
    game = load_game(args.game)
    rep = validate_game(game)
    players = _players(game)
    two = len(players) == 2
    payload = {
        "ok": True,
        "kind": "two_player" if two else "single",
        "name": game.name,
        "continuous": rep.continuous,
        "lipschitz_l1": rep.lipschitz_l1,
    }
    blocks = [{"types": list(ps.types.labels), "actions": list(ps.actions.labels)} for ps in players]
    payload.update({"players": blocks} if two else blocks[0])
    shape = " vs ".join(f"{ps.types.n} types x {ps.actions.m} actions" for ps in players)
    lip = "unbounded" if rep.lipschitz_l1 is None else fmt(rep.lipschitz_l1)
    _emit(
        args,
        payload,
        f"ok: {payload['kind']} game {game.name!r}, {shape}, "
        f"{'continuous' if rep.continuous else 'discontinuous'}, "
        f"penalty Lipschitz {lip}",
    )
    return 0


def _cmd_equilibria(args) -> int:
    game = load_game(args.game)
    players = _players(game)
    two = len(players) == 2
    if two and args.mode != "pure":
        raise ValueError("two-player games support --mode pure only")
    if args.mode == "pure":
        solve = enumerate_pure_equilibria_2p if two else enumerate_pure_equilibria
        found = solve(game, tol=args.tol)
        rows = []
        lines = [f"{len(found)} pure equilibria"]
        for rep in found:
            acts = rep.strategy.pure_actions()
            labels = [
                [ps.actions.labels[a] for a in row]
                for ps, row in zip(players, acts if two else (acts,))
            ]
            payoffs, pay = _payoffs(players, rep.payoffs)
            row = {
                "actions": labels if two else labels[0],
                "payoffs": payoffs,
                "max_gain": rep.max_gain,
                "profile": Exact(profile_to_document(rep.strategy, rep.perceptions)),
            }
            head = "/".join(map(",".join, labels))
            if not two:
                # a single-player profile is also named by its label
                row = {"label": rep.label} | row
                head = f"{rep.label} ({head})"
            rows.append(row)
            lines.append(f"- {head}  payoffs: {pay}")
        _emit(args, {"mode": "pure", "count": len(found), "equilibria": rows}, "\n".join(lines))
        return 0
    # past the largest float, 1.0 / args.grid overflows
    if args.grid is not None and not 1 <= args.grid <= sys.float_info.max:
        raise ValueError(
            f"--grid must be a positive integer, at most the largest float, got {args.grid}"
        )
    step = 1.0 / args.grid if args.grid is not None else args.step
    res = search_mixed_equilibria(game, step=step, tol=args.tol, seed=args.seed)
    rows = [
        {
            "label": rep.label,
            "sigma": [list(map(float, row)) for row in rep.strategy.sigma],
            "payoffs": list(map(float, rep.payoffs)),
        }
        for rep in res.survivors
    ]
    payload = {
        "mode": "mixed",
        "step": res.step,
        "total": res.total,
        "swept": res.swept,
        "subsampled": res.subsampled,
        "min_max_gain": res.min_max_gain,
        "survivor_count": res.survivor_count,
        "truncated": res.truncated,
        "survivors": rows,
    }
    lines = [
        f"swept {res.swept} of {res.total} grid profiles "
        f"(step {fmt(res.step)})",
        f"min max-gain {fmt(res.min_max_gain)}; {res.survivor_count} survivors",
    ]
    for rep in res.survivors[:20]:
        lines.append(f"- {rep.label}  {rep.strategy.describe()}")
    if res.survivor_count > 20:
        lines.append(f"... and {res.survivor_count - 20} more")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_pooling(args) -> int:
    game = load_game(args.game)
    if isinstance(game, TwoPlayerPerceptionGame):
        raise ValueError("pooling analysis applies to single-player games")
    rep = pooling_check(game, args.mode, tol=args.tol)
    payload = {
        "mode": rep.mode,
        "exists": rep.exists,
        "actions": list(rep.actions),
        "sets": {k: list(v) for k, v in rep.sets.items()},
        "privacy_holds": rep.privacy.holds,
        "witness_action": rep.witness_action,
        "witness_verified": rep.witness_verified,
    }
    if rep.witness is not None:
        payload["witness"] = Exact(profile_to_document(*rep.witness))
    if rep.exists:
        text = (
            f"full pooling exists ({args.mode}): actions {', '.join(rep.actions)}; "
            f"witness on {rep.witness_action!r} "
            f"{'verified' if rep.witness_verified else 'NOT verified'}"
        )
    else:
        sets = "; ".join(f"{k}: {{{', '.join(v)}}}" for k, v in rep.sets.items())
        text = f"no full-pooling equilibrium ({args.mode}); per-type sets: {sets}"
    _emit(args, payload, text)
    return 0


def _cmd_privacy(args) -> int:
    game = load_game(args.game)
    if isinstance(game, TwoPlayerPerceptionGame):
        raise ValueError("privacy classification applies to single-player games")
    rep = classify_privacy(game, args.mode, tol=args.tol)
    payload = {
        "mode": rep.mode,
        "holds": rep.holds,
        "types": [
            {
                "label": r.label,
                "holds": r.holds,
                "gap": r.gap,
                "witness_action": r.witness_action,
                "witness_belief": None if r.witness_belief is None else list(map(float, r.witness_belief.p)),
            }
            for r in rep.per_type
        ],
    }
    word = "holds" if rep.holds else "fails"
    rows = ", ".join(f"{r.label}: gap {fmt(r.gap)}" for r in rep.per_type)
    _emit(args, payload, f"{rep.mode} privacy {word} ({rows})")
    return 0


def _cmd_welfare(args) -> int:
    game = load_game(args.game)
    if isinstance(game, TwoPlayerPerceptionGame):
        rep = welfare_report_2p(game, tol=args.tol)
        payload = {
            "equilibria_payoffs": [[list(p) for p in pair] for pair in rep.equilibria_payoffs],
            "baseline_payoffs": [[list(p) for p in pair] for pair in rep.baseline_payoffs],
            "baseline_strict": list(rep.baseline_strict),
            "strict_baseline_index": rep.strict_baseline_index,
            "all_types_strictly_better": None
            if rep.all_types_strictly_better is None
            else list(rep.all_types_strictly_better),
        }
        lines = [
            f"{len(rep.equilibria_payoffs)} equilibria, "
            f"{len(rep.baseline_payoffs)} baseline profiles "
            f"({sum(rep.baseline_strict)} strict)"
        ]
        for j, pair in enumerate(rep.equilibria_payoffs):
            extra = ""
            if rep.all_types_strictly_better is not None:
                beats = rep.all_types_strictly_better[j]
                extra = "  beats strict baseline for every type" if beats else ""
            lines.append(f"- payoffs: {_payoffs(game.players, pair)[1]}{extra}")
        _emit(args, payload, "\n".join(lines))
        return 0
    rep = welfare_report(game, tol=args.tol)
    payload = {
        "legislation": {
            "payoffs": list(map(float, rep.legislation.payoffs)),
            "chosen": list(rep.legislation.chosen),
            "total": rep.legislation.total,
        },
        "equilibria": [
            {
                "label": r.label,
                "payoffs": list(map(float, r.payoffs)),
                "delta": list(d),
                "any_type_better_off": b,
            }
            for r, d, b in zip(rep.equilibria, rep.deltas, rep.any_type_better_off)
        ],
        "dominance": rep.dominance,
    }
    lines = [
        "baseline (actions unobserved): "
        + _fmt_vec(game.types.labels, rep.legislation.payoffs)
    ]
    for r, d, b in zip(rep.equilibria, rep.deltas, rep.any_type_better_off):
        tagline = "some type does better in equilibrium" if b else "baseline weakly better for all"
        lines.append(
            f"- {r.label}: payoffs {_fmt_vec(game.types.labels, r.payoffs)}  ({tagline})"
        )
    lines.append(
        "baseline dominates every equilibrium"
        if rep.dominance
        else "baseline does not dominate everywhere"
    )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_majority_scan(args) -> int:
    alphas = _parse_alphas(args.alphas)
    if not alphas:
        raise ValueError("--alphas produced an empty grid")
    rep = scan_alpha(
        default_majority_family(),
        alphas,
        tol=args.tol,
        mixed_step=args.step,
        seed=args.seed,
    )
    payload = {
        "alphas": [r.alpha for r in rep.rows],
        "rows": [
            {
                "alpha": r.alpha,
                "n_equilibria": r.n_equilibria,
                "labels": list(r.labels),
                "separation_unique": r.separation_unique,
                "margin_ok": r.margin_ok,
                "mixed_survivors": r.mixed_survivors,
            }
            for r in rep.rows
        ],
        "alpha_hat": rep.alpha_hat,
        "bound": rep.bound,
        "bound_violations": list(rep.bound_violations),
        "monotonicity_violations": list(rep.monotonicity_violations),
    }
    lines = []
    for r in rep.rows:
        mixed = "" if r.mixed_survivors is None else f"  mixed={r.mixed_survivors}"
        lines.append(
            f"alpha={fmt(r.alpha)}  equilibria={r.n_equilibria} "
            f"[{', '.join(r.labels)}]{mixed}"
        )
    hat = "none" if rep.alpha_hat is None else fmt(rep.alpha_hat)
    lines.append(f"separation unique from alpha {hat}; analytic bound {fmt(rep.bound)}")
    if rep.bound_violations:
        lines.append(f"bound violations at: {', '.join(map(fmt, rep.bound_violations))}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    game = load_game(args.game)
    players = _players(game)
    strategy, perceptions = load_profile(args.profile, game)
    verify = verify_equilibrium_2p if len(players) == 2 else verify_equilibrium
    res = verify(game, strategy, perceptions, tol=args.tol, eps=args.eps)
    payoffs, pay = _payoffs(players, res.payoffs)
    payload = {
        "accepted": res.accepted,
        "consistent": res.consistent,
        "violations": len(res.violations),
        "max_gain": res.max_gain,
        "payoffs": payoffs,
        "eps": res.eps,
    }
    verdict = "accepted" if res.accepted else "rejected"
    why = "" if res.consistent else " (perceptions inconsistent)"
    _emit(
        args,
        payload,
        f"{verdict}{why}: max deviation gain {fmt(res.max_gain)} "
        f"(eps {fmt(res.eps)}); payoffs: {pay}",
    )
    return 0 if res.accepted else 1


def _cmd_example(args) -> int:
    game = get_fixture(args.name)
    if args.out:
        save_game(game, args.out)
        print(f"wrote {args.name} to {args.out}")
    else:
        sys.stdout.write(canonical_json(to_document(game)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameFormatError as exc:
        for path, msg in exc.errors:
            print(f"error: {path or '/'}: {msg}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
