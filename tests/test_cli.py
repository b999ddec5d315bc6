import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perception_games import cli
from perception_games.cli import main
from perception_games.docio import (
    canonical_json,
    profile_to_document,
    save_game,
    to_document,
)
from perception_games.experiments import scan_alpha
from perception_games.fixtures import blog, get_fixture
from perception_games.model import UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.single import (
    PerceptionMap,
    Strategy,
    enumerate_pure_equilibria,
    profile_report,
)
from perception_games.two_player import enumerate_pure_equilibria_2p

from helpers import tabulate


@pytest.fixture
def blog_path(tmp_path):
    path = tmp_path / "blog.json"
    save_game(blog(), path)
    return str(path)


@pytest.fixture
def two_player_path(tmp_path):
    path = tmp_path / "tp.json"
    save_game(get_fixture("two_player"), path)
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestExample:
    def test_stdout_is_canonical_json(self, capsys):
        assert main(["example", "blog"]) == 0
        out = capsys.readouterr().out
        assert out == canonical_json(to_document(blog()))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "g.json"
        assert main(["example", "majority_default", "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["kind"] == "single"
        assert "wrote" in capsys.readouterr().out

    def test_unknown_name_is_usage_error(self, capsys):
        # argparse rejects the choice before our handler runs
        with pytest.raises(SystemExit) as exc:
            main(["example", "nope"])
        assert exc.value.code == 1


class TestValidate:
    def test_text(self, blog_path, capsys):
        assert main(["validate", "--game", blog_path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "2 types x 2 actions" in out

    def test_json(self, blog_path, capsys):
        assert main(["validate", "--game", blog_path, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["ok"] is True
        assert doc["types"] == ["l", "r"]
        assert doc["continuous"] is True

    def test_two_player_json(self, two_player_path, capsys):
        assert main(["validate", "--game", two_player_path, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["kind"] == "two_player"
        assert len(doc["players"]) == 2

    def test_invalid_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = to_document(blog())
        doc["prior"] = [0.7, 0.7]
        path.write_text(canonical_json(doc))
        assert main(["validate", "--game", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        doc = to_document(blog())
        doc["utility"]["v"][0][0] = 10**400
        path.write_text(canonical_json(doc))
        assert main(["validate", "--game", str(path)]) == 1
        assert "error: /utility/v:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--game", "/nonexistent/g.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(["validate", "--game", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal" not in err


class TestEquilibria:
    def test_pure_json(self, blog_path, capsys):
        assert main(["equilibria", "--game", blog_path, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["mode"] == "pure"
        assert doc["count"] == 3
        labels = [e["label"] for e in doc["equilibria"]]
        assert labels == ["pool:L", "separating", "pool:R"]

    def test_pure_text(self, blog_path, capsys):
        assert main(["equilibria", "--game", blog_path]) == 0
        out = capsys.readouterr().out
        assert "pool:L" in out and "separating" in out

    def test_mixed_json(self, blog_path, capsys):
        assert main(
            ["equilibria", "--game", blog_path, "--mode", "mixed", "--step", "0.2", "--format", "json"]
        ) == 0
        doc = _json_out(capsys)
        assert doc["mode"] == "mixed"
        assert doc["survivor_count"] == 3

    def test_mixed_json_tabulated(self, tmp_path, capsys):
        path = tmp_path / "blog-tab.json"
        save_game(tabulate(blog(), 8), path)
        assert main(
            ["equilibria", "--game", str(path), "--mode", "mixed", "--step", "0.25", "--format", "json"]
        ) == 0
        doc = _json_out(capsys)
        assert doc["survivor_count"] == 3
        assert sorted(e["label"] for e in doc["survivors"]) == ["pool:L", "pool:R", "separating"]

    def test_mixed_text_lists_twenty_survivors(self, tmp_path, capsys):
        # with no values and no penalties every one of the 3**4 profiles
        # is an equilibrium
        game = replace(
            get_fixture("majority_default"),
            utility=UtilityModel(kind="additive_separable", v=np.zeros((4, 2)), penalties=(PenaltySpec.zero(),) * 4),
        )
        path = tmp_path / "flat.json"
        save_game(game, path)
        assert main(["equilibria", "--game", str(path), "--mode", "mixed", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "min max-gain 0; 81 survivors"
        assert len(lines) == 2 + 20 + 1 and lines[-1] == "... and 61 more"

    def test_grid_flag_overrides_step(self, blog_path, capsys):
        assert main(
            ["equilibria", "--game", blog_path, "--mode", "mixed", "--grid", "4", "--format", "json"]
        ) == 0
        doc = _json_out(capsys)
        assert doc["step"] == "0.25"

    def test_two_player_pure(self, two_player_path, capsys):
        assert main(["equilibria", "--game", two_player_path, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["count"] == 5

    def test_two_player_mixed_rejected(self, two_player_path, capsys):
        assert main(["equilibria", "--game", two_player_path, "--mode", "mixed"]) == 1
        assert "error:" in capsys.readouterr().err


class TestPoolingPrivacy:
    def test_pooling_upper(self, blog_path, capsys):
        assert main(["pooling", "--game", blog_path, "--mode", "upper", "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["exists"] is True
        assert doc["actions"] == ["L", "R"]

    def test_privacy_modes(self, blog_path, capsys):
        assert main(["privacy", "--game", blog_path, "--mode", "upper", "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["mode"] == "upper" and doc["holds"] is True
        assert main(["privacy", "--game", blog_path, "--mode", "lower", "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["mode"] == "lower"

    def test_mode_is_required(self, blog_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pooling", "--game", blog_path])
        assert exc.value.code == 1

    def test_two_player_rejected(self, two_player_path, capsys):
        assert main(["pooling", "--game", two_player_path, "--mode", "upper"]) == 1
        assert main(["privacy", "--game", two_player_path, "--mode", "lower"]) == 1

    def test_no_pooling_text(self, tmp_path, capsys):
        path = tmp_path / "lsc.json"
        save_game(get_fixture("counterexample_lsc"), path)
        assert main(["pooling", "--game", str(path), "--mode", "lower"]) == 0
        assert capsys.readouterr().out == (
            "no full-pooling equilibrium (lower); per-type sets: l: {L}; r: {R}\n"
        )


class TestWelfare:
    def test_single_json(self, blog_path, capsys):
        assert main(["welfare", "--game", blog_path, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["dominance"] is True

    def test_two_player_json(self, two_player_path, capsys):
        assert main(["welfare", "--game", two_player_path, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["strict_baseline_index"] is not None
        assert any(doc["all_types_strictly_better"])


class TestMajorityScan:
    def test_small_grid_json(self, capsys):
        assert main(["majority-scan", "--alphas", "0,0.75,1", "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert [r["alpha"] for r in doc["rows"]] == ["0", "0.75", "1"]
        assert doc["bound"] == "0.5"

    def test_range_spec(self, capsys):
        assert main(["majority-scan", "--alphas", "0:1:0.5", "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert [r["alpha"] for r in doc["rows"]] == ["0", "0.5", "1"]

    def test_game_flag_rejected(self, blog_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["majority-scan", "--game", blog_path])
        assert exc.value.code == 1

    def test_bound_violations_text(self, monkeypatch, capsys):
        # the majority family has none, so the scan's report is edited
        def scan(*args, **kwargs):
            return replace(scan_alpha(*args, **kwargs), bound_violations=(0.75,))

        monkeypatch.setattr(cli, "scan_alpha", scan)
        assert main(["majority-scan", "--alphas", "0.75"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "bound violations at: 0.75"

    def test_bad_alpha_spec(self, capsys):
        assert main(["majority-scan", "--alphas", "0:1:0"]) == 1

    def test_descending_alphas(self, capsys):
        assert main(["majority-scan", "--alphas", "0.9,0.1"]) == 1
        assert capsys.readouterr().err == "error: alphas must be ascending, got 0.1 after 0.9\n"

    @pytest.mark.parametrize(
        "spec",
        [
            "0:inf:0.5",
            "0:1:nan",
            "-inf:0:1",
            "0:1:inf",
            "nan:1:0.5",
            "0:2:0.5",
            "-0.5:1:0.5",
            "0:1:1e-300",
            "0:1:1e-9",
        ],
    )
    def test_range_outside_unit_interval_scans_nothing(self, monkeypatch, capsys, spec):
        def scan(*args, **kwargs):
            raise AssertionError(f"scanned {args[1]}")

        monkeypatch.setattr(cli, "scan_alpha", scan)
        assert main(["majority-scan", f"--alphas={spec}"]) == 1
        assert capsys.readouterr().err.startswith("error: --alphas")


class TestVerify:
    def _write_profile(self, tmp_path, strategy, perceptions):
        path = tmp_path / "prof.json"
        path.write_text(canonical_json(profile_to_document(strategy, perceptions)))
        return str(path)

    def test_accept(self, blog_path, tmp_path, capsys):
        g = blog()
        rep = profile_report(g, Strategy.pure(g, (0, 0)).sigma)
        prof = self._write_profile(tmp_path, rep.strategy, rep.perceptions)
        assert main(["verify", "--game", blog_path, "--profile", prof]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_reject_inconsistent(self, blog_path, tmp_path, capsys):
        g = blog()
        s = Strategy.pure(g, (0, 1))
        pm = PerceptionMap.constant(g, g.prior)
        prof = self._write_profile(tmp_path, s, pm)
        assert main(["verify", "--game", blog_path, "--profile", prof]) == 1
        assert "rejected" in capsys.readouterr().out

    def test_eps_flips_to_accept(self, blog_path, tmp_path, capsys):
        g = blog()
        s = Strategy.pure(g, (0, 0))
        tau = np.empty((2, 2, 2))
        tau[:, 0] = [0.5, 0.5]
        tau[:, 1] = [0.5, 0.5]  # tempting off-path row, gain 1
        prof = self._write_profile(tmp_path, s, PerceptionMap(g, tau))
        assert main(["verify", "--game", blog_path, "--profile", prof]) == 1
        assert main(["verify", "--game", blog_path, "--profile", prof, "--eps", "1.0"]) == 0

    def test_json_payload(self, blog_path, tmp_path, capsys):
        g = blog()
        rep = profile_report(g, Strategy.pure(g, (0, 1)).sigma)
        prof = self._write_profile(tmp_path, rep.strategy, rep.perceptions)
        assert main(["verify", "--game", blog_path, "--profile", prof, "--format", "json"]) == 0
        doc = _json_out(capsys)
        assert doc["accepted"] is True and doc["consistent"] is True


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", "--frobnicate"])
        assert exc.value.code == 1

    def test_unexpected_exception_is_an_internal_error(self, blog_path, monkeypatch, capsys):
        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "load_game", boom)
        assert main(["validate", "--game", blog_path]) == 2
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_bad_step(self, blog_path, capsys):
        rc = main(["equilibria", "--game", blog_path, "--mode", "mixed", "--step", "0.3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibria", "--mode", "mixed", "--step", "0"],
            ["majority-scan", "--alphas", "0.5", "--step", "0"],
        ],
    )
    def test_zero_step(self, blog_path, capsys, argv):
        if argv[0] == "equilibria":
            argv = argv + ["--game", blog_path]
        assert main(argv) == 1
        assert "step must be the reciprocal of a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    @pytest.mark.parametrize(
        "argv, solver",
        [
            (["equilibria", "--tol"], "enumerate_pure_equilibria"),
            (["equilibria", "--mode", "mixed", "--tol"], "search_mixed_equilibria"),
            (["pooling", "--mode", "upper", "--tol"], "pooling_check"),
            (["privacy", "--mode", "upper", "--tol"], "classify_privacy"),
            (["welfare", "--tol"], "welfare_report"),
            (["majority-scan", "--alphas", "0,1", "--tol"], "scan_alpha"),
            (["verify", "--profile", "p.json", "--tol"], "verify_equilibrium"),
            (["verify", "--profile", "p.json", "--eps"], "verify_equilibrium"),
        ],
    )
    def test_tolerance_must_be_finite_and_nonnegative(
        self, blog_path, monkeypatch, capsys, argv, solver, value
    ):
        def fail(*args, **kwargs):
            raise AssertionError(f"{solver} was called")

        monkeypatch.setattr(cli, solver, fail)
        if argv[0] != "majority-scan":
            argv = argv[:1] + ["--game", blog_path] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 1
        assert "must be a finite, nonnegative number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "1.5", "abc"])
    @pytest.mark.parametrize(
        "argv, solver",
        [
            (["equilibria", "--mode", "mixed", "--seed"], "search_mixed_equilibria"),
            (["majority-scan", "--alphas", "0,1", "--step", "0.5", "--seed"], "scan_alpha"),
        ],
    )
    def test_seed_must_be_a_nonnegative_integer(
        self, blog_path, monkeypatch, capsys, argv, solver, value
    ):
        def fail(*args, **kwargs):
            raise AssertionError(f"{solver} was called")

        monkeypatch.setattr(cli, solver, fail)
        if argv[0] != "majority-scan":
            argv = argv[:1] + ["--game", blog_path] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 1
        assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err

    def test_seed_zero_is_accepted(self, blog_path, capsys):
        argv = ["equilibria", "--game", blog_path, "--mode", "mixed", "--step", "0.25"]
        assert main(argv + ["--seed", "0", "--format", "json"]) == 0
        assert _json_out(capsys)["survivor_count"] == 3

    @pytest.mark.parametrize("grid", ["0", "-4"])
    def test_nonpositive_grid(self, blog_path, capsys, grid):
        rc = main(["equilibria", "--game", blog_path, "--mode", "mixed", "--grid", grid])
        assert rc == 1
        assert "--grid must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [
            # the grid is built lazily, so only its point count is checked
            ("1" + "0" * 20, "grid has 100000000000000000001 points per type"),
            # 1.0 / grid overflows converting the integer to a float
            ("1" + "0" * 400, "--grid must be a positive integer, at most the largest float, got 1000"),
        ],
        ids=["1e20", "1e400"],
    )
    def test_oversized_grid_is_a_usage_error(self, blog_path, capsys, grid, message):
        rc = main(["equilibria", "--game", blog_path, "--mode", "mixed", "--grid", grid])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err


class TestProfileRoundTrip:
    """Profile documents in ``--format json`` output are valid ``verify``
    input, at full precision."""

    def _verify(self, game_path, doc, tmp_path, capsys) -> dict:
        prof = tmp_path / "out-profile.json"
        prof.write_text(json.dumps(doc))
        assert main(["verify", "--game", game_path, "--profile", str(prof), "--format", "json"]) == 0
        return _json_out(capsys)

    @pytest.mark.parametrize("name", ["blog", "two_player"])
    def test_equilibria_profiles_verify(self, name, tmp_path, capsys):
        game = get_fixture(name)
        path = str(tmp_path / "game.json")
        save_game(game, path)
        assert main(["equilibria", "--game", path, "--format", "json"]) == 0
        rows = _json_out(capsys)["equilibria"]
        solve = enumerate_pure_equilibria_2p if name == "two_player" else enumerate_pure_equilibria
        reports = solve(game)
        assert len(rows) == len(reports) > 0
        for row, rep in zip(rows, reports):
            assert row["profile"] == profile_to_document(rep.strategy, rep.perceptions)
            assert self._verify(path, row["profile"], tmp_path, capsys)["accepted"] is True

    def test_pooling_witness_verifies(self, blog_path, tmp_path, capsys):
        assert main(["pooling", "--game", blog_path, "--mode", "upper", "--format", "json"]) == 0
        witness = _json_out(capsys)["witness"]
        assert self._verify(blog_path, witness, tmp_path, capsys)["accepted"] is True


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGolden:
    """Exact text and JSON output on a single- and a two-player game.

    ``golden/<fixture>-<command>.<format>`` holds each expected output;
    ``verify`` checks the first enumerated pure equilibrium.
    """

    @pytest.fixture(params=["blog", "two_player"])
    def game(self, request, tmp_path):
        name = request.param
        g = get_fixture(name)
        path = tmp_path / f"{name}.json"
        save_game(g, path)
        solve = enumerate_pure_equilibria_2p if name == "two_player" else enumerate_pure_equilibria
        first = solve(g)[0]
        prof = tmp_path / "prof.json"
        prof.write_text(canonical_json(profile_to_document(first.strategy, first.perceptions)))
        return name, str(path), str(prof)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["validate", "equilibria", "verify"])
    def test_output(self, game, command, fmt, capsys):
        name, path, prof = game
        argv = [command, "--game", path, "--format", fmt]
        if command == "verify":
            argv += ["--profile", prof]
        assert main(argv) == 0
        want = (GOLDEN / f"{name}-{command}.{'txt' if fmt == 'text' else 'json'}").read_text()
        assert capsys.readouterr().out == want


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_session() -> list[tuple[list[str], list[str]]]:
    """(arguments, output lines) of each ``$ pgame`` command in the
    README's example session, in order."""
    steps: list[tuple[list[str], list[str]]] = []
    for line in README.read_text().splitlines():
        if line.startswith("$ pgame "):
            steps.append((line.split()[2:], []))
        elif steps and line.startswith("```"):
            break
        elif steps:
            steps[-1][1].append(line)
    return steps


def test_readme_synopsis_names_every_subcommand():
    text = README.read_text().split("## Command line", 1)[1].split("```")[1]
    named = {line.split()[1] for line in text.splitlines() if line.startswith("pgame ")}
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == set(sub.choices)


def test_readme_session_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = _readme_session()
    assert [argv[0] for argv, _ in steps] == ["example", "validate", "equilibria", "majority-scan"]
    for argv, want in steps:
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == want
