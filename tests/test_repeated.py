import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame.chains import CaseLabel, SupportSplitError, TransitionKernel
from graphgame.games import CoalitionStructure, GGame, pure_c_equilibria
from graphgame.graphs import (
    Decomposition,
    Graph,
    NotDecomposableError,
    complete_graph,
    edgeless_graph,
    path_graph,
    strong_product,
)
from graphgame.mixed import (
    Distribution,
    MixedProfile,
    compute_mixed_equilibrium,
    expected_payoff,
)
from graphgame.repeated import (
    ConsistencyViolationError,
    ConstantPolicy,
    CustomPolicy,
    InfoModel,
    LazyRandomWalkPolicy,
    MyopicGreedyPolicy,
    PlayersInit,
    Policy,
    RandomWalkPolicy,
    RefereeInit,
    RepeatedConfig,
    TablePolicy,
    _next_hop_table,
    _table_path,
    decompose_game,
    deviation_test,
    equilibrium_policies,
    repeated_payoff,
    simulate_repeated,
    stock_deviation_policies,
    two_stage_check,
)
from graphgame.simulate import (
    ComponentSpec,
    ProductChainSpec,
    make_stream,
    run_product,
    verify_consistency,
)

from conftest import (
    ScriptedPolicy,
    coordination_game,
    edge_labels,
    kernel_table,
    matching_pennies,
    random_connected_graph,
    random_graph,
)


def dist(*masses):
    return Distribution(np.array(masses, dtype=float))


def pennies_config(t_eval=20_000, policies=None, init=None):
    game = matching_pennies()
    dec = decompose_game(game)
    if policies is None:
        mixed = compute_mixed_equilibrium(game)
        policies = equilibrium_policies(game, dec, mixed)
    if init is None:
        init = RefereeInit(distributions=(dist(0.5, 0.5), dist(0.5, 0.5)))
    return RepeatedConfig(
        game=game,
        decomposition=dec,
        policies=policies,
        init=init,
        t_eval=t_eval,
    )


def one_coalition_game(factor: Graph) -> GGame:
    structure = CoalitionStructure((1,), ((1,),))
    spaces = (factor.labels,)
    payoffs = (np.zeros(factor.n),)
    return GGame(structure, spaces, payoffs, factor)


def two_path_game() -> GGame:
    """Two coalitions, each on the path a-b-c, with zero payoffs."""
    factor = path_graph(["a", "b", "c"])
    structure = CoalitionStructure((1, 2), ((1,), (2,)))
    payoffs = (np.zeros((3, 3)), np.zeros((3, 3)))
    return GGame(structure, (factor.labels,) * 2, payoffs, strong_product([factor] * 2))


def sorted_frontier_hops(g: Graph, targets) -> list:
    """The next-hop rule as a layered search that expands each layer in
    ascending node order, each node reached from the first node that finds
    it: the reference for `_next_hop_table`."""
    dist = [None] * g.n
    frontier = sorted(targets)
    hop = [None] * g.n
    for i in frontier:
        dist[i] = 0
    while frontier:
        nxt = []
        for node in frontier:
            for nb in g.neighbors(node):
                if dist[nb] is None:
                    dist[nb] = dist[node] + 1
                    hop[nb] = node
                    nxt.append(nb)
        frontier = sorted(nxt)
    return hop


class TestNextHopTable:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), connected=st.booleans())
    def test_matches_sorted_frontier_reference(self, n, seed, connected):
        """The least neighbour one hop nearer the targets, for any target
        set, in any order, whether or not every node reaches it."""
        rng = random.Random(seed)
        labels = [f"n{i}" for i in range(n)]
        if connected:
            g = random_connected_graph(rng, labels, extra=rng.uniform(0, 0.3))
        else:
            g = random_graph(rng, labels, p_edge=rng.uniform(0, 0.3))
        targets = rng.sample(range(n), rng.randint(1, n))
        assert _next_hop_table(g, targets) == sorted_frontier_hops(g, targets)


class TestDecomposeGame:
    def test_complete_game_decomposes(self):
        game = matching_pennies()
        dec = decompose_game(game)
        assert dec.factors[0] == complete_graph(("H", "T"))
        assert dec.factors[1] == complete_graph(("H", "T"))

    def test_four_cycle_rejected(self):
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("s1", "s2"), ("s1", "s2"))
        g = Graph(
            ["s1|s1", "s1|s2", "s2|s1", "s2|s2"],
            [
                ("s1|s1", "s2|s1"),
                ("s1|s1", "s1|s2"),
                ("s1|s2", "s2|s2"),
                ("s2|s1", "s2|s2"),
            ],
        )
        game = GGame(structure, spaces, (np.zeros((2, 2)), np.zeros((2, 2))), g)
        with pytest.raises(NotDecomposableError):
            decompose_game(game)


class TestRepeatedPayoff:
    def test_constant_trace(self):
        game = coordination_game()
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ScriptedPolicy([0] * 10), ScriptedPolicy([0] * 10)),
            init=PlayersInit((0, 0)),
            horizon=10,
        )
        trace, report = simulate_repeated(config, seed=1)
        for h in range(2):
            assert repeated_payoff(trace, game, h, horizon=10) == game.payoff(h, (0, 0))
            assert report.per_coalition[h].final_average == game.payoff(h, (0, 0))

    def test_two_stage_average(self):
        game = coordination_game()
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ScriptedPolicy([0, 1]), ScriptedPolicy([0, 1])),
            init=PlayersInit((0, 0)),
            horizon=2,
        )
        trace, _ = simulate_repeated(config, seed=1)
        expected = (game.payoff(0, (0, 0)) + game.payoff(0, (1, 1))) / 2
        assert repeated_payoff(trace, game, 0, horizon=2) == expected

    def test_horizon_too_long(self):
        game = coordination_game()
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ScriptedPolicy([0] * 5), ScriptedPolicy([0] * 5)),
            init=PlayersInit((0, 0)),
            horizon=5,
        )
        trace, _ = simulate_repeated(config, seed=1)
        with pytest.raises(ValueError):
            repeated_payoff(trace, game, 0, horizon=6)

    def test_trace_over_other_spaces_rejected(self):
        # a product trace over two 2-node factors holds no 3 x 3 profile index
        comp = ComponentSpec(Distribution.uniform(2), path_graph(["a", "b"]))
        trace = run_product(ProductChainSpec((comp, comp), 10, seed=0))
        for horizon in (10, None):
            with pytest.raises(ValueError, match="strategy spaces"):
                repeated_payoff(trace, two_path_game(), 0, horizon=horizon)

    def test_tail_liminf_close_to_final_for_chains(self):
        config = pennies_config(t_eval=100_000)
        trace, report = simulate_repeated(config, seed=12)
        for h in range(2):
            final = report.per_coalition[h].final_average
            tail = report.per_coalition[h].tail_liminf
            assert tail is not None
            assert tail <= final + 1e-12
            assert abs(final - tail) <= 0.05


class TestSimulateRepeated:
    def test_scripted_replay(self):
        game = coordination_game()
        dec = decompose_game(game)
        s0 = [0, 1, 1, 0]
        s1 = [1, 1, 0, 0]
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ScriptedPolicy(s0), ScriptedPolicy(s1)),
            init=PlayersInit((0, 1)),
            horizon=4,
        )
        trace, _ = simulate_repeated(config, seed=0)
        assert trace.components[0].states.tolist() == s0
        assert trace.components[1].states.tolist() == s1

    def test_kernel_policies_match_run_product(self):
        game = matching_pennies()
        dec = decompose_game(game)
        mixed = compute_mixed_equilibrium(game)
        config = pennies_config(t_eval=30_000)
        trace, _ = simulate_repeated(config, seed=314)
        spec = ProductChainSpec(
            components=tuple(
                ComponentSpec(
                    target=Distribution(mixed.parts[h].masses),
                    graph=dec.factors[h],
                )
                for h in range(2)
            ),
            steps=30_000,
            seed=314,
        )
        product = run_product(spec)
        for mine, ref in zip(trace.components, product.components):
            assert mine.states.tobytes() == ref.states.tobytes()

    def test_joint_trace_consistent_with_product_graph(self):
        config = pennies_config(t_eval=5000)
        trace, _ = simulate_repeated(config, seed=7)
        prod = strong_product(list(config.decomposition.factors))
        assert verify_consistency(trace, prod)

    def test_non_adjacent_script_rejected(self):
        factor = path_graph(["a", "b", "c"])
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ScriptedPolicy([0, 2, 2]),),  # a -> c jump
            init=PlayersInit((0,)),
            horizon=3,
        )
        with pytest.raises(ConsistencyViolationError):
            simulate_repeated(config, seed=0)

    def test_constant_policy_bridges_to_atom(self):
        factor = path_graph(["a", "b", "c"])
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ConstantPolicy(factor, 2),),
            init=PlayersInit((0,)),
            horizon=5,
        )
        trace, _ = simulate_repeated(config, seed=0)
        assert trace.components[0].states.tolist() == [0, 1, 2, 2, 2]

    def test_minimal_info_firewall(self):
        game = matching_pennies()
        dec = decompose_game(game)
        policies = (
            MyopicGreedyPolicy.for_coalition(game, dec, 0),
            LazyRandomWalkPolicy(dec.factors[1]),
        )
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=policies,
            init=PlayersInit((0, 0)),
            t_eval=4000,
        )
        trace, _ = simulate_repeated(config, seed=11)
        # permute the second coalition's payoffs; nothing observable changes
        permuted = (game.payoffs[0], game.payoffs[1][::-1, ::-1].copy())
        game2 = GGame(game.structure, game.spaces, permuted, game.graph)
        dec2 = decompose_game(game2)
        policies2 = (
            MyopicGreedyPolicy.for_coalition(game2, dec2, 0),
            LazyRandomWalkPolicy(dec2.factors[1]),
        )
        config2 = RepeatedConfig(
            game=game2,
            decomposition=dec2,
            policies=policies2,
            init=PlayersInit((0, 0)),
            t_eval=4000,
        )
        trace2, _ = simulate_repeated(config2, seed=11)
        for a, b in zip(trace.components, trace2.components):
            assert a.states.tobytes() == b.states.tobytes()

    def test_maximal_info_passes_joint_history(self):
        game = coordination_game()
        dec = decompose_game(game)
        seen = []

        def spy(t, own, stream, joint):
            seen.append(joint is not None)
            return own[-1]

        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(CustomPolicy(spy), ScriptedPolicy([1] * 4)),
            init=PlayersInit((0, 1)),
            info=InfoModel.MAXIMAL,
            horizon=4,
        )
        simulate_repeated(config, seed=0)
        assert seen and all(seen)

    def test_minimal_info_hides_joint_history(self):
        game = coordination_game()
        dec = decompose_game(game)
        seen = []

        def spy(t, own, stream, joint):
            seen.append(joint is None)
            return own[-1]

        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(CustomPolicy(spy), ScriptedPolicy([1] * 4)),
            init=PlayersInit((0, 1)),
            horizon=4,
        )
        simulate_repeated(config, seed=0)
        assert seen and all(seen)

    def test_kernel_policy_start_matches_run_product(self):
        # X(0) is drawn in node order by both engines, so the paths agree even
        # when the kernel's mass order (b, c, a) differs from node order
        factor = path_graph(["a", "b", "c"])
        target = dist(0.2, 0.5, 0.3)
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=equilibrium_policies(game, dec, MixedProfile((target,))),
            init=RefereeInit(distributions=(target,)),
            t_eval=2000,
        )
        for seed in range(20):
            trace, _ = simulate_repeated(config, seed=seed)
            spec = ProductChainSpec(
                components=(ComponentSpec(target=target, graph=factor),),
                steps=2000,
                seed=seed,
            )
            ref = run_product(spec).components[0]
            assert trace.components[0].states.tobytes() == ref.states.tobytes(), seed

    def test_table_policy_same_path_under_maximal_info(self):
        game = matching_pennies()
        dec = decompose_game(game)
        seen = []

        def watcher(t, own, stream, joint):
            if joint is not None:
                assert len(joint[0]) == t + 1  # coalition 0 already moved at t
                seen.append(joint[0][-1])
            return own[-1]

        paths = {}
        for info in (InfoModel.MINIMAL, InfoModel.MAXIMAL):
            config = RepeatedConfig(
                game=game,
                decomposition=dec,
                policies=(LazyRandomWalkPolicy(dec.factors[0]), CustomPolicy(watcher)),
                init=PlayersInit((0, 0)),
                info=info,
                t_eval=3000,
            )
            trace, _ = simulate_repeated(config, seed=17)
            paths[info] = trace.components[0].states
        assert paths[InfoModel.MAXIMAL].tobytes() == paths[InfoModel.MINIMAL].tobytes()
        assert seen == paths[InfoModel.MAXIMAL][1:].tolist()

    def test_off_edge_table_names_first_bad_stage(self):
        # a kernel on {a, c} of the path a-b-c moves along a non-edge
        factor = path_graph(["a", "b", "c"])
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        kernel = TransitionKernel(np.full((2, 2), 0.5), ("a", "c"), 0.5)
        table = TablePolicy("off-edge", [None] * 3, kernel_table(kernel, factor.labels))

        def stepwise(t, own, stream, joint):
            return (0, 2)[int(stream.next() >= 0.5)]

        messages = []
        for policy in (table, CustomPolicy(stepwise)):
            config = RepeatedConfig(
                game=game,
                decomposition=dec,
                policies=(policy,),
                init=PlayersInit((0,)),
                t_eval=200,
            )
            with pytest.raises(ConsistencyViolationError) as err:
                simulate_repeated(config, seed=9)
            messages.append(str(err.value))
        uniforms = np.random.default_rng(np.random.SeedSequence(9)).random(200)
        first = int(np.flatnonzero(uniforms >= 0.5)[0]) + 1
        assert messages[0] == messages[1]
        assert f"jumped a -> c at stage {first};" in messages[0]

    def test_table_moves_checked_once_per_factor(self):
        factor = path_graph(["a", "b", "c"])
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        eq = equilibrium_policies(game, dec, MixedProfile((dist(0.5, 0.0, 0.5),)))
        kernel = TransitionKernel(np.full((2, 2), 0.5), ("a", "c"), 0.5)
        off_edge = TablePolicy("off-edge", [None] * 3, kernel_table(kernel, factor.labels))
        for policy in (*stock_deviation_policies(game, dec, 0), *eq):
            with mock.patch.object(Graph, "allows", autospec=True, side_effect=Graph.allows) as spy:
                for start in range(3):
                    _table_path(factor, 0, policy, start, make_stream(start), 500)
            assert spy.call_count == 1  # the policy's moves, and no path scan
            assert policy.moves_allowed(factor)
        edgeless = edgeless_graph(factor.labels)
        assert not stock_deviation_policies(game, dec, 0)[2].moves_allowed(edgeless)
        assert not eq[0].moves_allowed(edgeless)  # a realization on another graph
        assert not ConstantPolicy(factor, 1).moves_allowed(edgeless)
        assert not off_edge.moves_allowed(factor)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (2, "coalition 1 jumped a -> c at stage 3; the strategies are not adjacent"),
            (3, "coalition 1 emitted strategy index 3 outside its space at stage 3"),
            (-1, "coalition 1 emitted strategy index -1 outside its space at stage 3"),
        ],
    )
    def test_step_policy_violation_same_under_both_info_models(self, bad, message):
        game = two_path_game()

        def stray(t, own, stream, joint):
            return bad if t == 3 else own[-1]

        for info in InfoModel:
            config = RepeatedConfig(
                game=game,
                decomposition=decompose_game(game),
                policies=(ScriptedPolicy([0, 1, 2, 1, 0, 0]), CustomPolicy(stray)),
                init=PlayersInit((0, 0)),
                info=info,
                horizon=6,
            )
            with pytest.raises(ConsistencyViolationError) as err:
                simulate_repeated(config, seed=0)
            assert str(err.value) == message, info

    def test_maximal_info_call_order(self):
        # coalition 1 sees coalition 0's stage-t move; coalition 0 sees
        # coalition 1 only up to stage t - 1
        game = two_path_game()
        walk = [0, 1, 2, 2, 1, 0, 1, 2]
        seen = {0: [], 1: []}

        def leader(t, own, stream, joint):
            seen[0].append((t, len(joint[0]), len(joint[1])))
            assert joint[0] is own
            return walk[t]

        def follower(t, own, stream, joint):
            seen[1].append((t, len(joint[0]), len(joint[1])))
            assert joint[1] is own
            return joint[0][t]

        config = RepeatedConfig(
            game=game,
            decomposition=decompose_game(game),
            policies=(CustomPolicy(leader), CustomPolicy(follower)),
            init=PlayersInit((0, 0)),
            info=InfoModel.MAXIMAL,
            horizon=len(walk),
        )
        trace, _ = simulate_repeated(config, seed=0)
        stages = range(1, len(walk))
        assert seen[0] == [(t, t, t) for t in stages]
        assert seen[1] == [(t, t + 1, t) for t in stages]
        assert trace.components[0].states.tolist() == walk
        assert trace.components[1].states.tolist() == walk

    def test_two_violations_reported_by_info_model(self):
        # coalition 0 breaks the graph at stage 5 and coalition 1 at stage 2:
        # minimal information plays the coalitions one at a time, so the
        # lower coalition is reported; maximal information plays them stage
        # by stage, so the earlier stage is
        game = two_path_game()

        def late(t, own, stream, joint):
            return 2 if t == 2 else own[-1]

        messages = {}
        for info in InfoModel:
            config = RepeatedConfig(
                game=game,
                decomposition=decompose_game(game),
                policies=(ScriptedPolicy([0, 0, 0, 0, 0, 2]), CustomPolicy(late)),
                init=PlayersInit((0, 0)),
                info=info,
                horizon=6,
            )
            with pytest.raises(ConsistencyViolationError) as err:
                simulate_repeated(config, seed=0)
            messages[info] = str(err.value)
        assert messages[InfoModel.MINIMAL] == (
            "coalition 0 jumped a -> c at stage 5; the strategies are not adjacent"
        )
        assert messages[InfoModel.MAXIMAL] == (
            "coalition 1 jumped a -> c at stage 2; the strategies are not adjacent"
        )

    def test_step_without_joint_history_runs_under_minimal_info(self):
        # minimal information calls step(t, own, stream) and never passes
        # joint_history, so a step that does not take it still runs
        game = two_path_game()

        class Climb(Policy):
            def step(self, t, own_history, stream):
                return min(own_history[-1] + 1, 2)

        config = RepeatedConfig(
            game=game,
            decomposition=decompose_game(game),
            policies=(Climb(), ScriptedPolicy([1, 0, 0, 1])),
            init=PlayersInit((0, 1)),
            horizon=4,
        )
        trace, _ = simulate_repeated(config, seed=0)
        assert trace.components[0].states.tolist() == [0, 1, 2, 2]
        assert trace.components[1].states.tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("info", [InfoModel.MINIMAL, InfoModel.MAXIMAL])
    def test_custom_policy_subclass_runs_its_step(self, info):
        # the engines call a plain CustomPolicy's callback directly; a
        # subclass that overrides step is still called through it
        game = coordination_game()
        calls = []

        class Flipped(CustomPolicy):
            def step(self, t, own_history, stream, joint_history=None):
                calls.append(t)
                return 1 - super().step(t, own_history, stream, joint_history)

        config = RepeatedConfig(
            game=game,
            decomposition=decompose_game(game),
            policies=(Flipped(lambda t, own, stream, joint: own[-1]), ScriptedPolicy([1] * 4)),
            init=PlayersInit((0, 1)),
            info=info,
            horizon=4,
        )
        trace, _ = simulate_repeated(config, seed=0)
        assert calls == [1, 2, 3]
        assert trace.components[0].states.tolist() == [0, 1, 0, 1]

    def test_large_strategy_space_needs_no_dense_matrix(self):
        """Decomposing and playing a 10 000-strategy path game checks its
        moves on the arc keys: no 10^8-cell adjacency matrix."""
        n = 10_000
        factor = path_graph([f"s{i}" for i in range(n)])
        game = one_coalition_game(factor)
        tracemalloc.start()
        try:
            dec = decompose_game(game)
            config = RepeatedConfig(
                game=game,
                decomposition=dec,
                policies=(ConstantPolicy(dec.factors[0], n - 1),),
                init=PlayersInit((0,)),
                horizon=20_000,
            )
            trace, _ = simulate_repeated(config, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = trace.components[0].states
        assert states[:n].tolist() == list(range(n)) and (states[n:] == n - 1).all()
        assert peak < 32_000_000


def ulp_neighbourhood(points, width=3):
    out = []
    for x in points:
        lo = hi = x
        out.append(x)
        for _ in range(width):
            lo = math.nextafter(lo, -math.inf)
            hi = math.nextafter(hi, math.inf)
            out.extend((lo, hi))
    return [u for u in out if 0.0 <= u < 1.0]


class TestWalkRows:
    """The walk tables cut [0, 1) exactly where the per-stage arithmetic
    `min(int(u * d), d - 1)` (lazy walk: `(u - 0.5) * 2 * d` above 1/2)
    changes value; numpy's float64 products round as Python's do."""

    BULK = np.random.default_rng(2024).random(100_000)

    def rows(self, policy_cls, d):
        star = Graph(
            ["hub"] + [f"leaf{i}" for i in range(d)], [("hub", f"leaf{i}") for i in range(d)]
        )
        table = policy_cls(star).chain
        return np.array(table.cum[0]), np.array(table.succ[0])

    def test_walk_rows_match_arithmetic(self):
        for d in range(1, 41):
            cum, succ = self.rows(RandomWalkPolicy, d)
            options = d + 1  # hub plus its leaves, in node order
            u = np.concatenate(
                [self.BULK, ulp_neighbourhood([*cum[:-1], *(k / options for k in range(options))])]
            )
            old = np.minimum((u * options).astype(np.int64), options - 1)
            assert np.array_equal(succ[np.searchsorted(cum, u, side="right")], old), d

    def test_lazy_walk_rows_match_arithmetic(self):
        for d in range(1, 41):
            cum, succ = self.rows(LazyRandomWalkPolicy, d)
            u = np.concatenate(
                [
                    self.BULK,
                    ulp_neighbourhood([*cum[:-1], *(0.5 + k / (2 * d) for k in range(d))]),
                ]
            )
            moved = 1 + np.minimum(((u - 0.5) * 2 * d).astype(np.int64), d - 1)
            old = np.where(u < 0.5, 0, moved)
            assert np.array_equal(succ[np.searchsorted(cum, u, side="right")], old), d

    def test_isolated_node_draws_and_stays(self):
        for policy_cls in (RandomWalkPolicy, LazyRandomWalkPolicy):
            cum, succ = self.rows(policy_cls, 0)
            assert cum.tolist() == [1.0] and succ.tolist() == [0]


class TestEquilibriumPolicies:
    def test_dirac_gives_constant(self):
        game = coordination_game()
        dec = decompose_game(game)
        mixed = MixedProfile.dirac(game, (0, 0))
        policies = equilibrium_policies(game, dec, mixed)
        assert all(p.chain.case is CaseLabel.POINT_MASS for p in policies)

    def test_uniform_connected_gives_stationary(self):
        game = matching_pennies()
        dec = decompose_game(game)
        mixed = compute_mixed_equilibrium(game)
        policies = equilibrium_policies(game, dec, mixed)
        assert all(p.chain.case is CaseLabel.SUPPORT_CONNECTED for p in policies)

    def test_disconnected_support_gives_schedule(self):
        factor = Graph(
            ["s1", "s2", "s3", "s4"], [("s1", "s3"), ("s3", "s4"), ("s2", "s4")]
        )
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        mixed = MixedProfile((dist(0.5, 0.5, 0.0, 0.0),))
        policies = equilibrium_policies(game, dec, mixed)
        assert policies[0].chain.case is CaseLabel.SUPPORT_IN_COMPONENT

    def test_split_support_rejected(self):
        factor = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        game = one_coalition_game(factor)
        dec = decompose_game(game)
        mixed = MixedProfile((dist(0.5, 0.0, 0.5, 0.0),))
        with pytest.raises(SupportSplitError):
            equilibrium_policies(game, dec, mixed)

    def test_uncertified_profile_rejected(self):
        game = matching_pennies()
        dec = decompose_game(game)
        bad = MixedProfile.dirac(game, (0, 0))
        with pytest.raises(ValueError):
            equilibrium_policies(game, dec, bad)

    def test_long_run_average_matches_expected_payoff(self):
        game = matching_pennies()
        dec = decompose_game(game)
        mixed = compute_mixed_equilibrium(game)
        config = pennies_config(t_eval=200_000)
        trace, report = simulate_repeated(config, seed=2024)
        payoff_range = 2.0
        for h in range(2):
            want = expected_payoff(game, mixed, h)
            assert abs(report.per_coalition[h].final_average - want) <= 0.02 * payoff_range


class TestDeviationTest:
    def test_identity_deviation_equal_means(self):
        config = pennies_config(t_eval=3000)
        report = deviation_test(
            config,
            coalition=0,
            deviation=config.policies[0],
            t_eval=3000,
            replicas=4,
            seed=5,
        )
        assert report.deviation_mean == report.equilibrium_mean
        assert report.paired_stderr == 0.0
        assert not report.improved

    def test_pennies_stock_deviations_not_improved(self):
        config = pennies_config()
        game = config.game
        for coalition in range(2):
            for policy in stock_deviation_policies(game, config.decomposition, coalition):
                report = deviation_test(
                    config,
                    coalition=coalition,
                    deviation=policy,
                    t_eval=20_000,
                    replicas=10,
                    seed=42,
                )
                assert not report.improved, (coalition, policy.name, report)

    def test_coordination_dirac_equilibrium_not_improved(self):
        game = coordination_game()
        dec = decompose_game(game)
        mixed = MixedProfile.dirac(game, (0, 0))
        policies = equilibrium_policies(game, dec, mixed)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=policies,
            init=PlayersInit((0, 0)),
            t_eval=2000,
        )
        for coalition in range(2):
            for policy in stock_deviation_policies(game, dec, coalition):
                report = deviation_test(
                    config,
                    coalition=coalition,
                    deviation=policy,
                    t_eval=2000,
                    replicas=4,
                    seed=3,
                )
                assert not report.improved, (coalition, policy.name, report)

    def test_requires_minimal_info(self):
        game = coordination_game()
        dec = decompose_game(game)
        config = RepeatedConfig(
            game=game,
            decomposition=dec,
            policies=(ScriptedPolicy([0] * 10), ScriptedPolicy([0] * 10)),
            init=PlayersInit((0, 0)),
            info=InfoModel.MAXIMAL,
            t_eval=10,
        )
        with pytest.raises(ValueError):
            deviation_test(
                config, 0, ScriptedPolicy([0] * 10), t_eval=10, replicas=2, seed=0
            )


class TestTwoStageCheck:
    def test_isolated_factors_always_pass(self):
        rng = random.Random(2)
        structure = CoalitionStructure((1, 2), ((1,), (2,)))
        spaces = (("a", "b"), ("x", "y"))
        factors = (edgeless_graph(("a", "b")), edgeless_graph(("x", "y")))
        g = strong_product(list(factors))
        payoffs = tuple(
            np.array([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)], float)
            for _ in range(2)
        )
        game = GGame(structure, spaces, payoffs, g)
        dec = decompose_game(game)
        eq = pure_c_equilibria(game)
        assert eq == frozenset(game.profiles())  # no edges, no constraints
        for prof in eq:
            assert two_stage_check(game, prof, dec)

    def test_complete_graph_reduces_to_berge(self):
        game = coordination_game()
        dec = decompose_game(game)
        assert two_stage_check(game, (0, 0), dec)
        assert two_stage_check(game, (1, 1), dec)

    def test_rejects_non_equilibrium(self):
        game = coordination_game()
        dec = decompose_game(game)
        with pytest.raises(ValueError):
            two_stage_check(game, (0, 1), dec)

    def test_matches_restricted_brute_force_on_random_games(self):
        rng = random.Random(13)
        for _ in range(30):
            sizes = (rng.randint(1, 3), rng.randint(1, 3))
            factors = tuple(
                random_graph(rng, [f"c{h}s{i}" for i in range(sizes[h])])
                for h in range(2)
            )
            g = strong_product(list(factors))
            structure = CoalitionStructure((1, 2), ((1,), (2,)))
            spaces = tuple(f.labels for f in factors)
            payoffs = tuple(
                np.array(
                    [
                        [rng.randint(-9, 9) for _ in range(sizes[1])]
                        for _ in range(sizes[0])
                    ],
                    float,
                )
                for _ in range(2)
            )
            game = GGame(structure, spaces, payoffs, g)
            dec = decompose_game(game)
            for prof in pure_c_equilibria(game):
                mine = two_stage_check(game, prof, dec)
                oracle = True
                for h in range(2):
                    for cand in range(sizes[h]):
                        if cand != prof[h] and not (
                            frozenset((spaces[h][cand], spaces[h][prof[h]]))
                            in edge_labels(factors[h])
                        ):
                            continue
                        candidate = prof[:h] + (cand,) + prof[h + 1 :]
                        if game.payoff(h, candidate) > game.payoff(h, prof):
                            oracle = False
                assert mine == oracle
                assert mine  # pure equilibria stay optimal in the restricted stage game


class TestConfigValidation:
    def test_wrong_policy_count(self):
        game = coordination_game()
        dec = decompose_game(game)
        with pytest.raises(ValueError):
            RepeatedConfig(
                game=game,
                decomposition=dec,
                policies=(ScriptedPolicy([0]),),
                init=PlayersInit((0, 0)),
                horizon=1,
            )

    def test_mismatched_decomposition(self):
        game = coordination_game()
        other = decompose_game(matching_pennies())
        with pytest.raises(ValueError):
            RepeatedConfig(
                game=game,
                decomposition=other,
                policies=(ScriptedPolicy([0]), ScriptedPolicy([0])),
                init=PlayersInit((0, 0)),
                horizon=1,
            )

    def test_factor_edges_differ_from_game_graph(self):
        """Right factor nodes, wrong factor edges: the coordination game's
        graph is complete, so edgeless factors do not reproduce it."""
        game = coordination_game()
        factors = tuple(edgeless_graph(space) for space in game.spaces)
        hand_built = Decomposition(factors=factors)
        with pytest.raises(ValueError, match="does not reproduce the game graph"):
            RepeatedConfig(
                game=game,
                decomposition=hand_built,
                policies=(ScriptedPolicy([0]), ScriptedPolicy([0])),
                init=PlayersInit((0, 0)),
                horizon=1,
            )
