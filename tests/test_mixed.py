import random
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from graphgame import mixed
from graphgame.games import CoalitionStructure, GGame, pure_c_equilibria
from graphgame.graphs import Graph, complete_graph
from graphgame.mixed import (
    Distribution,
    MixedProfile,
    NoConvergenceError,
    compute_mixed_equilibrium,
    expected_payoff,
    is_mixed_c_equilibrium,
    payoff_vector,
    total_variation,
    _equalizing_mixture,
)

from conftest import coordination_game, matching_pennies, random_game


def brute_expected(game, profile, coalition):
    """Direct sum over every joint profile."""
    total = 0.0
    for prof in game.profiles():
        weight = 1.0
        for h in range(game.r):
            weight *= profile.parts[h].masses[prof[h]]
        total += weight * game.payoff(coalition, prof)
    return total


class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Distribution(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            Distribution(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Distribution(np.array([bad, 1.0]))

    def test_support_and_builders(self):
        d = Distribution.dirac(3, 1)
        assert d.support() == (1,)
        u = Distribution.uniform(4)
        assert u.support() == (0, 1, 2, 3)
        assert u.masses[0] == 0.25

    def test_total_variation(self):
        a = Distribution(np.array([0.5, 0.5, 0.0]))
        b = Distribution(np.array([0.0, 0.5, 0.5]))
        assert total_variation(a, b) == 0.5
        assert total_variation(a, a) == 0.0


class TestExpectedPayoff:
    def test_dirac_reads_tensor(self, pennies):
        for prof in pennies.profiles():
            mp = MixedProfile.dirac(pennies, prof)
            for h in range(2):
                assert expected_payoff(pennies, mp, h) == pennies.payoff(h, prof)

    def test_constant_payoff(self):
        rng = random.Random(1)
        game = random_game(rng, max_coalitions=2, max_strategies=3)
        const = tuple(np.full(game.dims, 4.25) for _ in range(game.r))
        game2 = GGame(game.structure, game.spaces, const, game.graph)
        mp = MixedProfile.uniform(game2)
        for h in range(game2.r):
            assert expected_payoff(game2, mp, h) == pytest.approx(4.25, abs=1e-12)

    def test_matching_pennies_uniform_is_zero(self, pennies):
        mp = MixedProfile.uniform(pennies)
        for h in range(2):
            assert expected_payoff(pennies, mp, h) == pytest.approx(
                brute_expected(pennies, mp, h), abs=1e-12
            )
            assert expected_payoff(pennies, mp, h) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_random_games(self):
        rng = random.Random(9)
        np_rng = np.random.default_rng(9)
        for _ in range(40):
            game = random_game(rng)
            parts = tuple(
                Distribution(np_rng.dirichlet(np.ones(d))) for d in game.dims
            )
            mp = MixedProfile(parts)
            for h in range(game.r):
                assert expected_payoff(game, mp, h) == pytest.approx(
                    brute_expected(game, mp, h), abs=1e-10
                )

    def test_multilinearity_in_each_coalition(self):
        rng = random.Random(13)
        np_rng = np.random.default_rng(13)
        for _ in range(20):
            game = random_game(rng)
            mp = MixedProfile(
                tuple(Distribution(np_rng.dirichlet(np.ones(d))) for d in game.dims)
            )
            for h in range(game.r):
                v = payoff_vector(game, mp, h)
                # affine identity: E = v . lambda_h for any replacement marginal
                for _ in range(5):
                    repl = Distribution(np_rng.dirichlet(np.ones(game.dims[h])))
                    swapped = MixedProfile(mp.parts[:h] + (repl,) + mp.parts[h + 1 :])
                    assert expected_payoff(game, swapped, h) == pytest.approx(
                        float(v @ repl.masses), abs=1e-12
                    )


def best_replies(game, profile, coalition):
    """The best point-mass reply value and every pure strategy attaining it."""
    v = payoff_vector(game, profile, coalition)
    return float(v.max()), tuple(np.flatnonzero(v == v.max()).tolist())


class TestBestResponse:
    def test_constant_ties_all(self):
        game = coordination_game()
        const = (np.full((2, 2), 1.0), np.full((2, 2), 1.0))
        game2 = GGame(game.structure, game.spaces, const, game.graph)
        assert best_replies(game2, MixedProfile.uniform(game2), 0)[1] == (0, 1)

    def test_dominant_strategy(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        a = np.array([[3.0, 3.0], [1.0, 0.0]])  # row a strictly dominant
        b = np.zeros((2, 2))
        game = GGame(structure, spaces, (a, b), complete_graph(GGame.joint_labels(spaces)))
        for mass in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
            mp = MixedProfile(
                (Distribution.uniform(2), Distribution(np.array(mass)))
            )
            assert best_replies(game, mp, 0)[1] == (0,)

    def test_matching_pennies_vs_uniform_ties(self, pennies):
        assert best_replies(pennies, MixedProfile.uniform(pennies), 0) == (0.0, (0, 1))


class TestIsMixedEquilibrium:
    def test_uniform_pennies_true(self, pennies):
        assert is_mixed_c_equilibrium(pennies, MixedProfile.uniform(pennies), tol=1e-9)

    def test_dirac_pennies_false(self, pennies):
        for prof in pennies.profiles():
            mp = MixedProfile.dirac(pennies, prof)
            assert not is_mixed_c_equilibrium(pennies, mp, tol=1e-9)
            # the profitable pure deviation is worth 2
            loser = 0 if pennies.payoff(0, prof) < 0 else 1
            best, _ = best_replies(pennies, mp, loser)
            assert best - pennies.payoff(loser, prof) == pytest.approx(2.0)

    def test_global_maximizer_true(self, coordination):
        mp = MixedProfile.dirac(coordination, (0, 0))
        assert is_mixed_c_equilibrium(coordination, mp, tol=0.0)

    def test_negative_tol_rejected(self, pennies):
        with pytest.raises(ValueError):
            is_mixed_c_equilibrium(pennies, MixedProfile.uniform(pennies), tol=-1)

    def test_graph_irrelevant(self):
        rng = random.Random(31)
        np_rng = np.random.default_rng(31)
        for _ in range(20):
            game = random_game(rng, graph="complete")
            sparse = Graph(game.graph.labels, [])
            game2 = GGame(game.structure, game.spaces, game.payoffs, sparse)
            mp = MixedProfile(
                tuple(Distribution(np_rng.dirichlet(np.ones(d))) for d in game.dims)
            )
            for tol in (0.0, 1e-6, 0.5):
                assert is_mixed_c_equilibrium(game, mp, tol) == is_mixed_c_equilibrium(
                    game2, mp, tol
                )

    def test_affine_rescaling_argmax_invariance(self):
        rng = random.Random(37)
        np_rng = np.random.default_rng(37)
        for _ in range(20):
            game = random_game(rng)
            rescaled = tuple(2.5 * t + 7.0 for t in game.payoffs)
            game2 = GGame(game.structure, game.spaces, rescaled, game.graph)
            for prof in game.profiles():
                mp = MixedProfile.dirac(game, prof)
                assert is_mixed_c_equilibrium(game, mp, 0.0) == is_mixed_c_equilibrium(
                    game2, mp, 0.0
                )


class TestPureDeviationSufficiency:
    def test_random_mixed_deviations_never_beat_pure_bound(self):
        rng = random.Random(43)
        np_rng = np.random.default_rng(43)
        checked = 0
        for _ in range(10):
            game = random_game(rng)
            mp = MixedProfile(
                tuple(Distribution(np_rng.dirichlet(np.ones(d))) for d in game.dims)
            )
            for h in range(game.r):
                v = payoff_vector(game, mp, h)
                bound, _ = best_replies(game, mp, h)
                devs = np_rng.dirichlet(np.ones(game.dims[h]), size=100)
                values = devs @ v
                assert np.all(values <= bound + 1e-12)
                checked += values.size
        assert checked >= 1000


class TestComputeEquilibrium:
    def test_matching_pennies_exact_uniform(self, pennies):
        mp = compute_mixed_equilibrium(pennies)
        for part in mp.parts:
            assert np.array_equal(part.masses, np.array([0.5, 0.5]))

    def test_dominant_profile_gives_dirac(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        a = np.array([[5.0, 4.0], [1.0, 0.0]])
        b = np.array([[3.0, 1.0], [2.0, 0.0]])
        game = GGame(structure, spaces, (a, b), complete_graph(GGame.joint_labels(spaces)))
        mp = compute_mixed_equilibrium(game)
        assert mp.parts[0].masses[0] == 1.0
        assert mp.parts[1].masses[0] == 1.0
        assert is_mixed_c_equilibrium(game, mp, tol=0.0)

    def test_coordination_certified(self, coordination):
        mp = compute_mixed_equilibrium(coordination)
        assert is_mixed_c_equilibrium(coordination, mp, tol=1e-6)

    def test_random_two_coalition_games_certified(self):
        rng = random.Random(59)
        for _ in range(40):
            game = random_game(rng, max_coalitions=2, max_strategies=3)
            mp = compute_mixed_equilibrium(game)
            assert is_mixed_c_equilibrium(game, mp, tol=1e-6)

    def test_three_coalition_games_certified_or_flagged(self):
        rng = random.Random(61)
        solved = 0
        for _ in range(15):
            game = random_game(rng, max_coalitions=3, max_strategies=2)
            try:
                mp = compute_mixed_equilibrium(game, cap=20_000)
            except NoConvergenceError:
                continue
            assert is_mixed_c_equilibrium(game, mp, tol=1e-6)
            solved += 1
        assert solved >= 10

    def test_single_coalition(self):
        structure = CoalitionStructure((1,), ((1,),))
        spaces = (("a", "b", "c"),)
        t = np.array([1.0, 5.0, 3.0])
        game = GGame(structure, spaces, (t,), complete_graph(GGame.joint_labels(spaces)))
        mp = compute_mixed_equilibrium(game)
        assert mp.parts[0].masses[1] == 1.0


def bimatrix_game(a, b) -> GGame:
    """Two single-player coalitions with payoff matrices a and b."""
    spaces = tuple(tuple(f"c{h}s{i}" for i in range(d)) for h, d in enumerate(a.shape))
    structure = CoalitionStructure((1, 2), ((1,), (2,)))
    return GGame(structure, spaces, (a, b), complete_graph(GGame.joint_labels(spaces)))


def iid_matrices(dims):
    """Independent uniform payoffs from a drawn seed: nondegenerate almost surely."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: tuple(np.random.default_rng(seed).random((2, *dims)))
    )


def small_integer_matrices(dims):
    """Payoffs from {-2, ..., 2}: ties everywhere, so most games are degenerate."""
    return arrays(float, (2, *dims), elements=st.integers(-2, 2).map(float)).map(tuple)


game_dims = st.tuples(st.integers(1, 8), st.integers(1, 8))
# zero-sum equilibria have large supports, so the enumeration tries many
# more pairs there: up to 6x6 keeps the oracle test at a few seconds
zero_sum_dims = st.tuples(st.integers(1, 6), st.integers(1, 6))
property_test = settings(max_examples=100, deadline=None, derandomize=True)


class TestTwoCoalitionContract:
    """Two-coalition games always have a mixed equilibrium, and support
    enumeration certifies one at every size, degenerate games included."""

    @property_test
    @given(game_dims.flatmap(iid_matrices))
    def test_iid_games_certified(self, matrices):
        game = bimatrix_game(*matrices)
        assert is_mixed_c_equilibrium(game, compute_mixed_equilibrium(game), tol=1e-6)

    @property_test
    @given(game_dims.flatmap(small_integer_matrices))
    def test_degenerate_games_certified(self, matrices):
        game = bimatrix_game(*matrices)
        assert is_mixed_c_equilibrium(game, compute_mixed_equilibrium(game), tol=1e-6)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("shift_a, shift_b", [(1, 0), (0, 2)], ids=["pursuit", "shapley"])
    def test_cyclic_games_certified(self, n, shift_a, shift_b):
        eye = np.eye(n)
        game = bimatrix_game(np.roll(eye, shift_a, axis=1), np.roll(eye, shift_b, axis=1))
        assert is_mixed_c_equilibrium(game, compute_mixed_equilibrium(game), tol=1e-6)

    @property_test
    @given(zero_sum_dims.flatmap(iid_matrices))
    def test_zero_sum_value_matches_linear_program(self, matrices):
        a = matrices[0] - 0.5
        game = bimatrix_game(a, -a)
        got = expected_payoff(game, compute_mixed_equilibrium(game), 0)
        # max v subject to x^T a >= v on every column, x in the simplex
        m, n = a.shape
        res = linprog(
            np.r_[np.zeros(m), -1.0],
            A_ub=np.c_[-a.T, np.ones(n)],
            b_ub=np.zeros(n),
            A_eq=np.r_[np.ones(m), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * m + [(None, None)],
        )
        assert res.status == 0
        assert abs(got - -res.fun) <= 1e-7


def pair_by_pair(game: GGame, certify_tol: float = 1e-9) -> MixedProfile:
    """The unscreened search: every support pair, in Porter-Nudelman-Shoham
    order, through the per-pair solve. The screened solver must return
    exactly its profile."""
    a, b = game.payoffs
    m, n = game.dims
    for gap in range(max(m, n)):
        for total in range(gap + 2, m + n + 1, 2):
            for size in sorted({(total - gap) // 2, (total + gap) // 2}):
                if size > m or total - size > n:
                    continue
                supports = product(
                    combinations(range(m), size), combinations(range(n), total - size)
                )
                for supp_x, supp_y in supports:
                    ix, iy = np.array(supp_x), np.array(supp_y)
                    x = _equalizing_mixture(b[ix[:, None], iy].T)
                    if x is None:
                        continue
                    y = _equalizing_mixture(a[ix[:, None], iy])
                    if y is None:
                        continue
                    fx = np.zeros(m)
                    fx[ix] = x
                    fy = np.zeros(n)
                    fy[iy] = y
                    candidate = MixedProfile((Distribution(fx), Distribution(fy)))
                    if is_mixed_c_equilibrium(game, candidate, tol=certify_tol):
                        return candidate
    raise NoConvergenceError("no support pair certified")


def assert_pair_by_pair_profile(game: GGame) -> None:
    got = compute_mixed_equilibrium(game).parts
    want = pair_by_pair(game).parts
    assert all(np.array_equal(g.masses, w.masses) for g, w in zip(got, want))


def cyclic_game(n: int, shift_a: int, shift_b: int) -> GGame:
    eye = np.eye(n)
    return bimatrix_game(np.roll(eye, shift_a, axis=1), np.roll(eye, shift_b, axis=1))


screen_test = settings(max_examples=40, deadline=None, derandomize=True)


class TestScreenedEnumeration:
    """The batched screen drops only pairs the per-pair solve rejects, so the
    first certifying pair and its profile are unchanged, bit for bit."""

    @screen_test
    @given(game_dims.flatmap(iid_matrices))
    def test_iid_games(self, matrices):
        assert_pair_by_pair_profile(bimatrix_game(*matrices))

    @screen_test
    @given(game_dims.flatmap(small_integer_matrices))
    def test_degenerate_games(self, matrices):
        assert_pair_by_pair_profile(bimatrix_game(*matrices))

    @screen_test
    @given(zero_sum_dims.flatmap(iid_matrices))
    def test_zero_sum_games(self, matrices):
        a = matrices[0] - 0.5
        assert_pair_by_pair_profile(bimatrix_game(a, -a))

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("shift_a, shift_b", [(1, 0), (0, 2)], ids=["pursuit", "shapley"])
    def test_cyclic_games(self, n, shift_a, shift_b):
        assert_pair_by_pair_profile(cyclic_game(n, shift_a, shift_b))

    @pytest.mark.parametrize("block", [1, 20])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(small_integer_matrices))
    def test_batch_boundaries_keep_the_order(self, block, matrices):
        with mock.patch.object(mixed, "SCREEN_BLOCK", block):
            assert_pair_by_pair_profile(bimatrix_game(*matrices))

    @pytest.mark.parametrize("block", [1, 20])
    def test_batch_boundaries_on_pursuit(self, block):
        with mock.patch.object(mixed, "SCREEN_BLOCK", block):
            assert_pair_by_pair_profile(cyclic_game(5, 1, 0))

    def test_memory_bounded_by_the_batch(self):
        game = cyclic_game(8, 1, 0)
        tracemalloc.start()
        try:
            compute_mixed_equilibrium(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestPureInMixed:
    def test_identical_interest_maximizer(self, coordination):
        for prof, expected in (((0, 0), True), ((0, 1), False)):
            mp = MixedProfile.dirac(coordination, prof)
            assert is_mixed_c_equilibrium(coordination, mp, tol=0.0) == expected

    def test_pennies_all_false(self, pennies):
        for prof in pennies.profiles():
            assert not is_mixed_c_equilibrium(pennies, MixedProfile.dirac(pennies, prof), tol=0.0)

    def test_complete_graph_berge_correspondence(self):
        rng = random.Random(67)
        for _ in range(40):
            game = random_game(rng, graph="complete")
            pure_eq = pure_c_equilibria(game)
            for prof in game.profiles():
                berge = True
                for h in range(game.r):
                    for alt in range(game.dims[h]):
                        cand = prof[:h] + (alt,) + prof[h + 1 :]
                        if game.payoff(h, cand) > game.payoff(h, prof):
                            berge = False
                            break
                    if not berge:
                        break
                dirac = MixedProfile.dirac(game, prof)
                both = is_mixed_c_equilibrium(game, dirac, tol=0.0) and prof in pure_eq
                assert both == berge
