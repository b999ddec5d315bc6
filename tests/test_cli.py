import json

import numpy as np
import pytest

from perception_games.cli import main
from perception_games.docio import (
    canonical_json,
    profile_to_document,
    save_game,
    to_document,
)
from perception_games.fixtures import blog, get_fixture
from perception_games.single import PerceptionMap, Strategy, profile_report

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

    def test_bad_alpha_spec(self, capsys):
        assert main(["majority-scan", "--alphas", "0:1:0"]) == 1


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

    @pytest.mark.parametrize("grid", ["0", "-4"])
    def test_nonpositive_grid(self, blog_path, capsys, grid):
        rc = main(["equilibria", "--game", blog_path, "--mode", "mixed", "--grid", grid])
        assert rc == 1
        assert "--grid must be a positive integer" in capsys.readouterr().err
