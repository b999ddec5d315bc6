"""Game and profile files.

One JSON document describes one game. The schema mirrors the model
layer: a ``single`` document carries types, actions, prior, and a
utility block; a ``two_player`` document carries two player blocks.
Parsing collects every problem it can find before raising, so a bad
file produces one report instead of a fix-rerun loop; semantic checks
from the model layer's validator are folded into the same report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .model import (
    ActionSpace,
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
    validate_game,
)
from .penalties import PenaltySpec, validate_spec
from .simplex import Belief
from .single import PerceptionMap, Strategy
from .two_player import TwoPlayerPerceptions, TwoPlayerStrategy

FORMAT_VERSION = "1"

__all__ = [
    "FORMAT_VERSION",
    "GameFormatError",
    "parse_game",
    "to_document",
    "canonical_json",
    "load_game",
    "save_game",
    "parse_profile",
    "profile_to_document",
    "load_profile",
]


class GameFormatError(ValueError):
    """All (path, message) problems found in one document."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        detail = "; ".join(f"{path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid document: {detail}")


class _Errors:
    def __init__(self) -> None:
        self.items: list[tuple[str, str]] = []

    def add(self, path: str, msg: str) -> None:
        self.items.append((path, msg))

    def raise_if_any(self) -> None:
        if self.items:
            raise GameFormatError(self.items)


def _labels(value: Any, path: str, errs: _Errors) -> tuple[str, ...] | None:
    if not isinstance(value, list) or not value or not all(isinstance(x, str) for x in value):
        errs.add(path, "must be a nonempty list of strings")
        return None
    return tuple(value)


def _numbers(value: Any) -> bool:
    """Whether ``value`` is a JSON number (no boolean) or nested lists of them."""
    if isinstance(value, list):
        return all(_numbers(x) for x in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(value: Any, ndim: int, path: str, errs: _Errors) -> np.ndarray | None:
    bad = "must be a number" if ndim == 0 else "must be a rectangular numeric array"
    if not _numbers(value):
        errs.add(path, bad)
        return None
    try:
        arr = np.array(value, dtype=np.float64)
    except ValueError:  # ragged
        errs.add(path, bad)
        return None
    except OverflowError:  # an integer literal beyond the float range
        errs.add(path, "entries must be finite numbers")
        return None
    if arr.ndim != ndim:
        errs.add(path, f"must be {ndim}-dimensional, got {arr.ndim}")
        return None
    if not np.isfinite(arr).all():
        errs.add(path, "entries must be finite numbers")
        return None
    return arr


def _check_keys(obj: dict, allowed: set[str], path: str, errs: _Errors) -> None:
    for key in obj:
        if key not in allowed:
            errs.add(f"{path}/{key}", "unknown key")


def _parse_types(value: Any, path: str, errs: _Errors) -> TypeSpace | None:
    if isinstance(value, list):
        labels = _labels(value, path, errs)
        return TypeSpace.plain(labels) if labels else None
    if isinstance(value, dict):
        _check_keys(value, {"outcomes", "privacy", "labels"}, path, errs)
        outcomes = _labels(value.get("outcomes"), f"{path}/outcomes", errs)
        privacy = _labels(value.get("privacy"), f"{path}/privacy", errs)
        if outcomes is None or privacy is None:
            return None
        if "labels" in value:
            labels = _labels(value.get("labels"), f"{path}/labels", errs)
            if labels is None:
                return None
            return TypeSpace(labels=labels, outcome_labels=outcomes, privacy_labels=privacy)
        return TypeSpace.product(outcomes, privacy)
    errs.add(path, "must be a list of labels or an {outcomes, privacy} object")
    return None


def _parse_penalty(value: Any, path: str, errs: _Errors) -> PenaltySpec | None:
    if not isinstance(value, dict):
        errs.add(path, "must be an object")
        return None
    _check_keys(value, {"kind", "weight", "knots", "marginal_over", "pieces"}, path, errs)
    kind = value.get("kind")
    if not isinstance(kind, str):
        errs.add(f"{path}/kind", "must be a string")
        return None
    weight = _floats(value.get("weight", 0.0 if kind == "zero" else 1.0), 0, f"{path}/weight", errs)
    if weight is None:
        return None
    knots = None
    if "knots" in value:
        arr = _floats(value["knots"], 2, f"{path}/knots", errs)
        if arr is None:
            return None
        if arr.shape[1] != 2:
            errs.add(f"{path}/knots", "each knot must be an [x, y] pair")
            return None
        knots = tuple((float(x), float(y)) for x, y in arr)
    over = None
    if "marginal_over" in value:
        over = _labels(value["marginal_over"], f"{path}/marginal_over", errs)
        if over is None:
            return None
    pieces = None
    if "pieces" in value:
        raw = value["pieces"]
        if not isinstance(raw, list) or not all(
            isinstance(p, list) and len(p) == 5 and all(isinstance(f, bool) for f in p[3:])
            for p in raw
        ):
            errs.add(f"{path}/pieces", "must be a list of [lo, hi, value, include_lo, include_hi]")
            return None
        rows = [_floats(p[:3], 1, f"{path}/pieces/{j}", errs) for j, p in enumerate(raw)]
        if any(row is None for row in rows):
            return None
        pieces = tuple((*row.tolist(), *p[3:]) for row, p in zip(rows, raw))
    spec = PenaltySpec(
        kind=kind, weight=float(weight), knots=knots, marginal_over=over, pieces=pieces
    )
    problems = validate_spec(spec)
    for msg in problems:
        errs.add(path, msg)
    return None if problems else spec


def _parse_penalties(raw: Any, path: str, errs: _Errors) -> tuple[PenaltySpec, ...] | None:
    """One penalty per type; None when any entry is bad (all are reported)."""
    if not isinstance(raw, list):
        errs.add(path, "must be a list, one penalty per type")
        return None
    specs = [_parse_penalty(item, f"{path}/{j}", errs) for j, item in enumerate(raw)]
    return None if None in specs else tuple(specs)


def _parse_utility(value: Any, path: str, errs: _Errors) -> UtilityModel | None:
    if not isinstance(value, dict):
        errs.add(path, "must be an object")
        return None
    kind = value.get("kind")
    if kind == "additive_separable":
        _check_keys(value, {"kind", "v", "penalties"}, path, errs)
        v = _floats(value.get("v"), 2, f"{path}/v", errs)
        penalties = _parse_penalties(value.get("penalties"), f"{path}/penalties", errs)
        if v is None or penalties is None:
            return None
        return UtilityModel(kind=kind, v=v, penalties=penalties)
    if kind == "tabulated_grid":
        _check_keys(value, {"kind", "resolution", "values"}, path, errs)
        # the validator reports a bad resolution (SimplexGrid's rule)
        vals = _floats(value.get("values"), 3, f"{path}/values", errs)
        if vals is None:
            return None
        return UtilityModel(kind=kind, resolution=value.get("resolution"), values=vals)
    errs.add(f"{path}/kind", "must be 'additive_separable' or 'tabulated_grid'")
    return None


def _parse_player(value: Any, path: str, errs: _Errors) -> PlayerSpec | None:
    if not isinstance(value, dict):
        errs.add(path, "must be an object")
        return None
    _check_keys(value, {"types", "actions", "beliefs", "v", "penalties"}, path, errs)
    types = _parse_types(value.get("types"), f"{path}/types", errs)
    actions = _labels(value.get("actions"), f"{path}/actions", errs)
    beliefs = _floats(value.get("beliefs"), 2, f"{path}/beliefs", errs)
    v = _floats(value.get("v"), 4, f"{path}/v", errs)
    penalties = _parse_penalties(value.get("penalties"), f"{path}/penalties", errs)
    if any(x is None for x in (types, actions, beliefs, v)) or penalties is None:
        return None
    return PlayerSpec(
        types=types,
        actions=ActionSpace.plain(actions),
        beliefs=beliefs,
        v=v,
        penalties=penalties,
    )


def parse_game(doc: Any) -> PerceptionGame | TwoPlayerPerceptionGame:
    """Build a game from a decoded document, reporting every problem."""
    errs = _Errors()
    if not isinstance(doc, dict):
        errs.add("/", "document must be a JSON object")
        errs.raise_if_any()
    if doc.get("format_version") != FORMAT_VERSION:
        errs.add("/format_version", f"expected {FORMAT_VERSION!r}")
    kind = doc.get("kind")
    name = doc.get("name", "")
    if not isinstance(name, str):
        errs.add("/name", "must be a string")
        name = ""
    allow = doc.get("allow_discontinuous", False)
    if not isinstance(allow, bool):
        errs.add("/allow_discontinuous", "must be a boolean")
        allow = False
    if kind == "single":
        _check_keys(
            doc,
            {"format_version", "kind", "name", "types", "actions", "prior", "utility", "allow_discontinuous"},
            "",
            errs,
        )
        types = _parse_types(doc.get("types"), "/types", errs)
        actions = _labels(doc.get("actions"), "/actions", errs)
        prior = _floats(doc.get("prior"), 1, "/prior", errs)
        utility = _parse_utility(doc.get("utility"), "/utility", errs)
        errs.raise_if_any()
        try:
            game = PerceptionGame(
                types=types,
                actions=ActionSpace.plain(actions),
                prior=Belief(prior),
                utility=utility,
                allow_discontinuous=allow,
                name=name,
            )
        except ValueError as exc:
            raise GameFormatError([("/prior", str(exc))]) from None
    elif kind == "two_player":
        _check_keys(
            doc,
            {"format_version", "kind", "name", "players", "allow_discontinuous"},
            "",
            errs,
        )
        raw = doc.get("players")
        if not isinstance(raw, list) or len(raw) != 2:
            errs.add("/players", "must be a list of exactly 2 player objects")
            errs.raise_if_any()
        players = tuple(
            _parse_player(raw[i], f"/players/{i}", errs) for i in range(2)
        )
        errs.raise_if_any()
        game = TwoPlayerPerceptionGame(
            players=players, allow_discontinuous=allow, name=name
        )
    else:
        errs.add("/kind", "must be 'single' or 'two_player'")
        errs.raise_if_any()
    report = validate_game(game)
    if not report.ok:
        raise GameFormatError(report.errors)
    return game


def _penalty_doc(spec: PenaltySpec) -> dict:
    out: dict[str, Any] = {"kind": spec.kind}
    if spec.kind != "zero":
        out["weight"] = float(spec.weight)
    if spec.knots is not None:
        out["knots"] = [[float(x), float(y)] for x, y in spec.knots]
    if spec.pieces is not None:
        out["pieces"] = [
            [float(lo), float(hi), float(v), bool(il), bool(ih)]
            for lo, hi, v, il, ih in spec.pieces
        ]
    if spec.marginal_over is not None:
        out["marginal_over"] = list(spec.marginal_over)
    return out


def _types_doc(types: TypeSpace) -> Any:
    if not types.factored:
        return list(types.labels)
    return {
        "outcomes": list(types.outcome_labels),
        "privacy": list(types.privacy_labels),
        "labels": list(types.labels),
    }


def to_document(game: PerceptionGame | TwoPlayerPerceptionGame) -> dict:
    """JSON-ready description that parses back to an equal game."""
    if isinstance(game, TwoPlayerPerceptionGame):
        players = []
        for ps in game.players:
            players.append(
                {
                    "types": _types_doc(ps.types),
                    "actions": list(ps.actions.labels),
                    "beliefs": np.asarray(ps.beliefs).tolist(),
                    "v": np.asarray(ps.v).tolist(),
                    "penalties": [_penalty_doc(p) for p in ps.penalties],
                }
            )
        return {
            "format_version": FORMAT_VERSION,
            "kind": "two_player",
            "name": game.name,
            "players": players,
            "allow_discontinuous": game.allow_discontinuous,
        }
    um = game.utility
    if um.kind == "additive_separable":
        utility: dict[str, Any] = {
            "kind": um.kind,
            "v": np.asarray(um.v).tolist(),
            "penalties": [_penalty_doc(p) for p in um.penalties],
        }
    else:
        utility = {
            "kind": um.kind,
            "resolution": int(um.resolution),
            "values": np.asarray(um.values).tolist(),
        }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "single",
        "name": game.name,
        "types": _types_doc(game.types),
        "actions": list(game.actions.labels),
        "prior": game.prior.p.tolist(),
        "utility": utility,
        "allow_discontinuous": game.allow_discontinuous,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _read_json(path: str | Path) -> Any:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError([("/", f"not valid JSON: {exc}")]) from None


def load_game(path: str | Path) -> PerceptionGame | TwoPlayerPerceptionGame:
    return parse_game(_read_json(path))


def save_game(game: PerceptionGame | TwoPlayerPerceptionGame, path: str | Path) -> None:
    Path(path).write_text(canonical_json(to_document(game)))


def parse_profile(doc: Any, game: PerceptionGame | TwoPlayerPerceptionGame):
    """Build a (strategy, perceptions) pair matched to ``game``.

    Single games use ``{"sigma": [type][action], "tau":
    [type][action][type']}``; two-player games use ``{"players":
    [{"sigma": ..., "tau": [t][observer][action][t']}, ...]}``.
    """
    errs = _Errors()
    if not isinstance(doc, dict):
        errs.add("/", "profile must be a JSON object")
        errs.raise_if_any()
    if isinstance(game, TwoPlayerPerceptionGame):
        raw = doc.get("players")
        if not isinstance(raw, list) or len(raw) != 2:
            errs.add("/players", "must be a list of exactly 2 objects")
            errs.raise_if_any()
        sigmas = []
        taus = []
        for i in range(2):
            if not isinstance(raw[i], dict):
                errs.add(f"/players/{i}", "must be an object")
                continue
            sigmas.append(_floats(raw[i].get("sigma"), 2, f"/players/{i}/sigma", errs))
            taus.append(_floats(raw[i].get("tau"), 4, f"/players/{i}/tau", errs))
        errs.raise_if_any()
        try:
            return TwoPlayerStrategy(game, sigmas), TwoPlayerPerceptions(game, taus)
        except ValueError as exc:
            raise GameFormatError([("/players", str(exc))]) from None
    sigma = _floats(doc.get("sigma"), 2, "/sigma", errs)
    tau = _floats(doc.get("tau"), 3, "/tau", errs)
    errs.raise_if_any()
    try:
        return Strategy(game, sigma), PerceptionMap(game, tau)
    except ValueError as exc:
        raise GameFormatError([("/", str(exc))]) from None


def profile_to_document(strategy, perceptions) -> dict:
    if isinstance(strategy, TwoPlayerStrategy):
        return {
            "players": [
                {
                    "sigma": np.asarray(strategy.sigmas[i]).tolist(),
                    "tau": np.asarray(perceptions.taus[i]).tolist(),
                }
                for i in range(2)
            ]
        }
    return {
        "sigma": np.asarray(strategy.sigma).tolist(),
        "tau": np.asarray(perceptions.tau).tolist(),
    }


def load_profile(path: str | Path, game):
    return parse_profile(_read_json(path), game)
