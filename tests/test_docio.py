import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games.docio import (
    GameFormatError,
    canonical_json,
    load_game,
    load_profile,
    parse_game,
    parse_profile,
    profile_to_document,
    save_game,
    to_document,
)
from perception_games.fixtures import FIXTURE_NAMES, get_fixture
from perception_games.model import (
    ActionSpace,
    PerceptionGame,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
)
from perception_games.single import Strategy, profile_report
from perception_games.two_player import enumerate_pure_equilibria_2p

from helpers import catalog_penalties, dyadic_rows, tabulate, two_player_catalog_games
from test_kernels import catalog_games


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_document_fixed_point(self, name):
        game = get_fixture(name)
        doc = to_document(game)
        again = to_document(parse_game(doc))
        assert doc == again

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_file_round_trip(self, name, tmp_path):
        game = get_fixture(name)
        path = tmp_path / f"{name}.json"
        save_game(game, path)
        loaded = load_game(path)
        assert to_document(loaded) == to_document(game)
        if name == "two_player":
            assert isinstance(loaded, TwoPlayerPerceptionGame)
        else:
            assert isinstance(loaded, PerceptionGame)

    def test_canonical_json_shape(self):
        doc = to_document(get_fixture("blog"))
        text = canonical_json(doc)
        assert text.endswith("\n")
        assert json.loads(text) == doc
        assert canonical_json(doc) == canonical_json(doc)


class TestParseErrors:
    def _blog_doc(self):
        return to_document(get_fixture("blog"))

    def test_bad_format_version(self):
        doc = self._blog_doc()
        doc["format_version"] = "99"
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert any("format_version" in p for p, _ in exc.value.errors)

    def test_unknown_top_level_key(self):
        doc = self._blog_doc()
        doc["zzz"] = 1
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert any(p == "/zzz" for p, _ in exc.value.errors)

    def test_multiple_errors_collected(self):
        doc = self._blog_doc()
        doc["format_version"] = "99"
        doc["prior"] = [[0.5], [0.5]]  # wrong dimensionality
        doc["utility"]["penalties"][0]["kind"] = "bogus"
        doc["actions"] = "LR"
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        paths = {p for p, _ in exc.value.errors}
        assert len(exc.value.errors) >= 4
        assert {"/format_version", "/prior", "/utility/penalties/0", "/actions"} <= paths

    def test_mass_error_reported_at_construction(self):
        doc = self._blog_doc()
        doc["prior"] = [0.5, 0.6]
        with pytest.raises(GameFormatError):
            parse_game(doc)

    def test_duplicate_action_labels_reported_by_validation(self):
        doc = self._blog_doc()
        doc["actions"] = ["L", "L"]
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert any("actions" in p for p, _ in exc.value.errors)

    def test_non_dict_rejected(self):
        with pytest.raises(GameFormatError):
            parse_game([1, 2, 3])

    def test_missing_utility(self):
        doc = self._blog_doc()
        del doc["utility"]
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert any("utility" in p or "utility" in m for p, m in exc.value.errors)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError):
            load_game(path)

    def test_two_player_shape_error(self):
        doc = to_document(get_fixture("two_player"))
        doc["players"][0]["v"] = [[0.0, 1.0]]
        with pytest.raises(GameFormatError):
            parse_game(doc)

    def test_validation_errors_folded_in(self):
        doc = self._blog_doc()
        # negative penalty weight parses structurally but fails the
        # deep game validation
        doc["utility"]["penalties"][0]["weight"] = -2.0
        with pytest.raises(GameFormatError):
            parse_game(doc)


class TestProfiles:
    def test_single_round_trip(self, tmp_path):
        g = get_fixture("blog")
        rep = profile_report(g, Strategy.pure(g, (0, 0)).sigma)
        doc = profile_to_document(rep.strategy, rep.perceptions)
        s2, p2 = parse_profile(doc, g)
        np.testing.assert_array_equal(s2.sigma, rep.strategy.sigma)
        np.testing.assert_array_equal(p2.tau, rep.perceptions.tau)
        path = tmp_path / "prof.json"
        path.write_text(canonical_json(doc))
        s3, p3 = load_profile(path, g)
        np.testing.assert_array_equal(s3.sigma, rep.strategy.sigma)
        np.testing.assert_array_equal(p3.tau, rep.perceptions.tau)

    def test_two_player_round_trip(self):
        g = get_fixture("two_player")
        rep = enumerate_pure_equilibria_2p(g)[0]
        doc = profile_to_document(rep.strategy, rep.perceptions)
        s2, p2 = parse_profile(doc, g)
        for i in range(2):
            np.testing.assert_array_equal(s2.sigmas[i], rep.strategy.sigmas[i])
            np.testing.assert_array_equal(p2.taus[i], rep.perceptions.taus[i])

    def test_wrong_shape_rejected(self):
        g = get_fixture("blog")
        with pytest.raises(GameFormatError):
            parse_profile({"sigma": [[1.0, 0.0]], "tau": [[[0.5, 0.5]]]}, g)

    def test_kind_mismatch_rejected(self):
        g2 = get_fixture("two_player")
        with pytest.raises(GameFormatError):
            parse_profile({"sigma": [[1.0, 0.0]], "tau": []}, g2)

    def test_row_mass_rejected(self):
        g = get_fixture("blog")
        doc = {
            "sigma": [[0.9, 0.9], [1.0, 0.0]],
            "tau": np.full((2, 2, 2), 0.5).tolist(),
        }
        with pytest.raises(GameFormatError):
            parse_profile(doc, g)


class TestOutOfRangeNumbers:
    """An integer literal beyond the float range is a bad number like
    any other, reported at its path."""

    @staticmethod
    def _step_penalty(doc, piece):
        doc["utility"]["penalties"][0] = {
            "kind": "step_marginal",
            "marginal_over": [doc["types"][0]],
            "pieces": [piece],
        }

    @pytest.mark.parametrize(
        "path, mutate",
        [
            ("/utility/v", lambda d: d["utility"]["v"][0].__setitem__(0, 10**400)),
            (
                "/utility/penalties/0/weight",
                lambda d: d["utility"]["penalties"][0].__setitem__("weight", 10**400),
            ),
            ("/prior", lambda d: d["prior"].__setitem__(0, -(10**400))),
            (
                "/utility/penalties/0/pieces/0",
                lambda d: TestOutOfRangeNumbers._step_penalty(d, [0, 1, 10**400, True, True]),
            ),
        ],
    )
    def test_reported_at_path(self, path, mutate):
        doc = to_document(get_fixture("blog"))
        mutate(doc)
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert [p for p, _ in exc.value.errors] == [path]

    def test_resolution_beyond_index_range(self):
        doc = to_document(tabulate(get_fixture("blog"), 2))
        doc["utility"]["resolution"] = 10**400
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert [p for p, _ in exc.value.errors] == ["/utility/values"]

    @pytest.mark.parametrize("resolution", [2.5, 2.0, True, 0, "2", None])
    def test_bad_resolution_reported_by_the_validator(self, resolution):
        doc = to_document(tabulate(get_fixture("blog"), 2))
        if resolution is None:
            del doc["utility"]["resolution"]
        else:
            doc["utility"]["resolution"] = resolution
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        assert exc.value.errors == (("/utility/resolution", "resolution must be a positive integer"),)

    def test_booleans_and_strings_are_not_numbers(self):
        doc = to_document(get_fixture("blog"))
        doc["utility"]["v"][0][0] = True
        doc["prior"] = ["0.5", "0.5"]
        self._step_penalty(doc, [0, 1, 0.5, 1, True])
        with pytest.raises(GameFormatError) as exc:
            parse_game(doc)
        paths = [p for p, _ in exc.value.errors]
        assert paths == ["/prior", "/utility/v", "/utility/penalties/0/pieces"]


@st.composite
def factored_games(draw) -> PerceptionGame:
    """A factored type space (possibly a subset of the product) with a
    dyadic prior and catalog penalties."""
    outcomes = tuple(f"o{i}" for i in range(draw(st.integers(1, 3))))
    privacy = tuple(f"p{i}" for i in range(draw(st.integers(1, 2))))
    product = TypeSpace.product(outcomes, privacy).labels
    keep = draw(st.lists(st.booleans(), min_size=len(product), max_size=len(product)).filter(any))
    labels = tuple(x for x, k in zip(product, keep) if k)
    types = TypeSpace(labels=labels, outcome_labels=outcomes, privacy_labels=privacy)
    n, m = len(labels), draw(st.integers(1, 3))
    penalties = tuple(draw(catalog_penalties(labels)) for _ in range(n))
    v = draw(st.lists(st.floats(-5.0, 5.0), min_size=n * m, max_size=n * m))
    return PerceptionGame(
        types=types,
        actions=ActionSpace.plain(tuple(f"a{j}" for j in range(m))),
        prior=draw(dyadic_rows(n)),
        utility=UtilityModel(
            kind="additive_separable", v=np.reshape(v, (n, m)), penalties=penalties
        ),
        allow_discontinuous=any(not p.is_continuous for p in penalties),
    )


any_games = st.one_of(catalog_games(), factored_games(), two_player_catalog_games())

# numbers no float holds, then wrong JSON types and numbers that may
# be out of range where they land
UNREPRESENTABLE = (float("nan"), float("inf"), -float("inf"), 10**400, -(10**400))
OTHER_VALUES = ("x", "0.5", None, True, {}, [], [[[[]]]], -1, 2.5, 1e308)


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _locations(doc):
    """Every (container, key) pair inside ``doc``, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _locations(value)


class TestDocumentProperties:
    @settings(max_examples=100, deadline=None)
    @given(game=any_games)
    def test_round_trip(self, game):
        doc = to_document(game)
        again = to_document(parse_game(json.loads(canonical_json(doc))))
        assert canonical_json(again) == canonical_json(doc)

    @settings(max_examples=300, deadline=None)
    @given(game=any_games, rng=st.randoms(use_true_random=False))
    def test_mutations_raise_only_format_errors(self, game, rng):
        """A mutated document parses or raises ``GameFormatError``. It
        must raise when the mutation adds an unknown key, puts in a
        number no float holds, or changes a value's JSON type; a
        dropped entry (a wrong shape) may leave it valid."""
        doc = json.loads(canonical_json(to_document(game)))
        container, key = rng.choice(list(_locations(doc)))
        mutation = rng.choice(("key", "drop", "value"))
        if mutation == "key":
            (container if isinstance(container, dict) else doc)["zz_unknown"] = 1
            must_fail = True
        elif mutation == "drop":
            del container[key]
            must_fail = False
        else:
            bad = rng.choice(UNREPRESENTABLE + OTHER_VALUES)
            must_fail = any(bad is u for u in UNREPRESENTABLE)
            must_fail = must_fail or _json_kind(bad) != _json_kind(container[key])
            container[key] = bad
        try:
            parse_game(doc)
        except GameFormatError:
            return
        assert not must_fail, "a document with a bad value parsed"
