import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame import formats
from graphgame.cli import main

from graphgame.games import (
    CoalitionStructure,
    GGame,
    coalition_payoff_from_players,
    is_pure_c_equilibrium,
    pure_c_equilibria,
    violation_witness,
)
from graphgame.graphs import Graph, complete_graph, edgeless_graph

from conftest import (
    coordination_game,
    edge_labels,
    game_to_dict,
    matching_pennies,
    random_game,
)


def two_coalition_game(payoff_a, payoff_b, graph_kind="complete"):
    structure = CoalitionStructure((1, 2), ((1,), (2,)))
    spaces = (("a", "b"), ("x", "y"))
    labels = GGame.joint_labels(spaces)
    g = complete_graph(labels) if graph_kind == "complete" else edgeless_graph(labels)
    return GGame(structure, spaces, (np.array(payoff_a, float), np.array(payoff_b, float)), g)


class TestStructure:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            CoalitionStructure((1, 2), ((1,), (1, 2)))
        with pytest.raises(ValueError):
            CoalitionStructure((1, 2, 3), ((1,), (2,)))
        with pytest.raises(ValueError):
            CoalitionStructure((1,), ())


class TestPureEquilibrium:
    def test_isolated_graph_everything_passes(self):
        game = two_coalition_game(
            [[3, 0], [1, 2]], [[0, 5], [2, 2]], graph_kind="edgeless"
        )
        assert pure_c_equilibria(game) == frozenset(game.profiles())

    def test_coordination_diagonal(self):
        game = coordination_game()
        assert is_pure_c_equilibrium(game, (0, 0))
        assert not is_pure_c_equilibrium(game, (0, 1))
        assert pure_c_equilibria(game) == frozenset({(0, 0), (1, 1)})

    def test_matching_pennies_empty(self):
        assert pure_c_equilibria(matching_pennies()) == frozenset()

    def test_grand_coalition_argmax(self):
        rng = random.Random(3)
        for _ in range(20):
            dims = (rng.randint(1, 3), rng.randint(1, 3))
            p1 = np.array(
                [[rng.randint(-5, 5) for _ in range(dims[1])] for _ in range(dims[0])],
                float,
            )
            p2 = np.array(
                [[rng.randint(-5, 5) for _ in range(dims[1])] for _ in range(dims[0])],
                float,
            )
            structure = CoalitionStructure((1, 2), ((1, 2),))
            spaces = (
                tuple(
                    f"{a}|{b}"
                    for a in (f"p{i}" for i in range(dims[0]))
                    for b in (f"q{j}" for j in range(dims[1]))
                ),
            )
            total = (p1 + p2).reshape(-1)
            g = complete_graph(GGame.joint_labels(spaces))
            game = GGame(structure, spaces, (total.copy(),), g)
            eq = pure_c_equilibria(game)
            best = total.max()
            assert eq == frozenset(
                (i,) for i in range(total.size) if total[i] == best
            )
            assert eq  # finiteness guarantees existence for the grand coalition

    def test_singleton_complete_matches_nash_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            game = random_game(rng, graph="complete")
            eq = pure_c_equilibria(game)
            oracle = set()
            for prof in game.profiles():
                ok = True
                for h in range(game.r):
                    for alt in range(game.dims[h]):
                        cand = prof[:h] + (alt,) + prof[h + 1 :]
                        if game.payoff(h, cand) > game.payoff(h, prof):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    oracle.add(prof)
            assert eq == frozenset(oracle)

    def test_edge_removal_grows_equilibria(self):
        rng = random.Random(29)
        for _ in range(30):
            game = random_game(rng, graph="random")
            eq_full = pure_c_equilibria(game)
            edges = sorted(
                tuple(sorted(e)) for e in (tuple(x) for x in edge_labels(game.graph))
            )
            if not edges:
                continue
            kept = [e for e in edges if rng.random() < 0.5]
            smaller = Graph(game.graph.labels, kept)
            shrunk = GGame(game.structure, game.spaces, game.payoffs, smaller)
            assert eq_full <= pure_c_equilibria(shrunk)

    def test_affine_rescaling_invariance(self):
        rng = random.Random(41)
        for _ in range(30):
            game = random_game(rng)
            eq = pure_c_equilibria(game)
            rescaled = tuple(2.5 * t + 7.0 for t in game.payoffs)
            game2 = GGame(game.structure, game.spaces, rescaled, game.graph)
            assert pure_c_equilibria(game2) == eq

    def test_exhaustive_predicate_agreement(self):
        rng = random.Random(53)
        for _ in range(30):
            game = random_game(rng)
            assert int(np.prod(game.dims)) <= 64
            eq = pure_c_equilibria(game)
            for prof in game.profiles():
                assert (prof in eq) == is_pure_c_equilibrium(game, prof)
                witness = violation_witness(game, prof)
                assert (witness is None) == (prof in eq)
                if witness is not None:
                    h, other, gain = witness
                    assert gain > 0
                    cand = prof[:h] + (other[h],) + prof[h + 1 :]
                    assert game.payoff(h, cand) - game.payoff(h, prof) == gain


def reference_analysis(game):
    """`analyze`'s document as built from the scalar predicates: one
    `is_pure_c_equilibrium` scan, then `violation_witness` per violator."""
    equilibria = frozenset(s for s in game.profiles() if is_pure_c_equilibrium(game, s))
    witnesses = {
        prof: violation_witness(game, prof)
        for prof in game.profiles()
        if prof not in equilibria
    }
    doc = {
        "equilibria": sorted(game.label_of(p) for p in equilibria),
        "violations": {
            game.label_of(prof): {
                "coalition": formats.coalition_name(h),
                "adjacent_profile": game.label_of(other),
                "gain": gain,
            }
            for prof, (h, other, gain) in witnesses.items()
        },
    }
    return equilibria, witnesses, doc


class TestOnePassAnalysis:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
        payoffs=st.sampled_from(["ties", "floats"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_reference(self, dims, density, payoffs, seed):
        """Random graphs on the profiles (not strong products), nodes in
        shuffled order; integer payoffs from a small range make ties."""
        rng = random.Random(seed)
        r = len(dims)
        spaces = [[f"c{h}s{i}" for i in range(d)] for h, d in enumerate(dims)]
        labels = GGame.joint_labels(spaces)
        edges = [
            (u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]
            if rng.random() < density
        ]
        rng.shuffle(labels)
        if payoffs == "ties":
            draw = lambda: float(rng.randint(-2, 2))
        else:
            draw = lambda: rng.uniform(-10.0, 10.0)
        tensors = [np.array([draw() for _ in labels]).reshape(dims) for _ in range(r)]
        players = tuple(range(1, r + 1))
        game = GGame(
            CoalitionStructure(players, tuple((p,) for p in players)),
            spaces, tensors, Graph(labels, edges),
        )
        equilibria, witnesses, doc = reference_analysis(game)
        got = pure_c_equilibria(game)
        assert got == equilibria and got.violations == witnesses
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            formats.dump_json(game_to_dict(game), folder / "game.json")
            formats.dump_json(doc, folder / "want.json")
            assert main(["analyze", str(folder / "game.json"), "--out", str(folder / "out")]) == 0
            want = (folder / "want.json").read_bytes()
            assert (folder / "out" / "equilibria.json").read_bytes() == want


class TestCoalitionPayoffs:
    def test_singleton_identity(self):
        cs = CoalitionStructure((1, 2), ((1,), (2,)))
        p1 = np.arange(4.0).reshape(2, 2)
        p2 = np.ones((2, 2))
        out = coalition_payoff_from_players([p1, p2], cs)
        assert np.array_equal(out[0], p1)
        assert np.array_equal(out[1], p2)

    def test_zero_case(self):
        cs = CoalitionStructure((1, 2), ((1, 2),))
        z = np.zeros((4,))
        out = coalition_payoff_from_players([z, z], cs)
        assert np.array_equal(out[0], z)

    def test_constant_sum(self):
        cs = CoalitionStructure((1, 2), ((1, 2),))
        out = coalition_payoff_from_players(
            [np.full((2, 2), 1.0), np.full((2, 2), 2.0)], cs
        )
        assert np.array_equal(out[0], np.full((2, 2), 3.0))

    def test_shape_mismatch(self):
        cs = CoalitionStructure((1, 2), ((1, 2),))
        with pytest.raises(ValueError):
            coalition_payoff_from_players([np.zeros((2, 2)), np.zeros((2, 3))], cs)

    def test_direct_tensors_win_with_warning(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        direct = (np.ones((2, 2)), np.zeros((2, 2)))
        players = [np.zeros((2, 2)), np.zeros((2, 2))]
        g = complete_graph(GGame.joint_labels(spaces))
        with pytest.warns(UserWarning):
            game = GGame(structure, spaces, direct, g, player_payoffs=players)
        assert np.array_equal(game.payoffs[0], np.ones((2, 2)))


class TestValidation:
    def test_graph_nodes_must_match(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        bad = complete_graph(["a|x", "a|y", "b|x", "oops"])
        with pytest.raises(ValueError):
            GGame(structure, spaces, (np.zeros((2, 2)), np.zeros((2, 2))), bad)

    def test_payoff_shape_checked(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        g = complete_graph(GGame.joint_labels(spaces))
        with pytest.raises(ValueError):
            GGame(structure, spaces, (np.zeros((2, 3)), np.zeros((2, 2))), g)

    def test_payoffs_must_be_finite(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        g = complete_graph(GGame.joint_labels(spaces))
        t = np.zeros((2, 2))
        t[0, 0] = np.inf
        with pytest.raises(ValueError):
            GGame(structure, spaces, (t, np.zeros((2, 2))), g)

    def test_label_round_trip(self):
        game = matching_pennies()
        for prof in game.profiles():
            assert game.profile_of_label(game.label_of(prof)) == prof
