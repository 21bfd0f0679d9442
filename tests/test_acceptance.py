"""Acceptance suite: one test per release criterion, fixed seeds, pinned
tolerances. Each test prints a PASS line on success (visible with -s/-rA)."""

import random
import warnings
from itertools import product

import numpy as np
import pytest

from graphgame.chains import (
    Schedule,
    SupportSplitError,
    build_kernel,
    dobrushin,
    dobrushin_bound,
    min_valid_k,
    smooth,
    stationary_distribution,
)
from graphgame.games import pure_c_equilibria
from graphgame.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    factorize,
    path_graph,
    star_graph,
    strong_product,
)
from graphgame.mixed import (
    Distribution,
    MixedProfile,
    compute_mixed_equilibrium,
    expected_payoff,
    is_mixed_c_equilibrium,
    payoff_vector,
    total_variation,
)
from graphgame.repeated import (
    RefereeInit,
    RepeatedConfig,
    decompose_game,
    deviation_test,
    equilibrium_policies,
    simulate_repeated,
    stock_deviation_policies,
    two_stage_check,
)
from graphgame.simulate import (
    ComponentSpec,
    ProductChainSpec,
    empirical_distribution,
    run_homogeneous,
    run_nonhomogeneous,
    run_product,
)

from conftest import (
    coordination_game,
    edge_labels,
    matching_pennies,
    random_connected_graph,
    random_game,
    random_graph,
)

EXAMPLE_GRAPH = Graph(
    ["s1", "s2", "s3", "s4"], [("s1", "s3"), ("s3", "s4"), ("s2", "s4")]
)
EXAMPLE_TARGET = Distribution(np.array([0.5, 0.5, 0.0, 0.0]))

KERNEL_SEED = 20_240_101
CASE_IV_SEEDS = list(range(10))
CASE_II_SEEDS = list(range(5))
COUNTEREXAMPLE_SEEDS = list(range(100))
PRODUCT_SEEDS = list(range(10))
ORACLE_SEED = 777
FOLK_SEED = 2026
ROUND_TRIP_SEED = 4242


def announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def random_kernel_instances(count: int):
    rng = random.Random(KERNEL_SEED)
    np_rng = np.random.default_rng(KERNEL_SEED)
    for _ in range(count):
        n = rng.randint(2, 10)
        labels = [f"n{i}" for i in range(n)]
        g = random_connected_graph(rng, labels)
        target = Distribution(np_rng.dirichlet(np.ones(n)))
        yield g, target, build_kernel(target, g)


def test_criterion_01_kernel_correctness():
    for g, target, kernel in random_kernel_instances(200):
        m = kernel.matrix
        n = g.n
        assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
        assert kernel.p <= 0.5
        assert np.all(np.diag(m) >= 0.5 - 1e-15)
        pi = np.array([target.masses[g.index(lab)] for lab in kernel.state_labels])
        residual = np.abs(pi[:, None] * m - pi[None, :] * m.T).max()
        assert residual <= 1e-12
        edges = edge_labels(g)
        for a in range(n):
            for b in range(n):
                if a != b and m[a, b] != 0.0:
                    assert (
                        frozenset((kernel.state_labels[a], kernel.state_labels[b]))
                        in edges
                    )
    announce(1, "kernel correctness on 200 random instances")


def test_criterion_02_stationarity():
    for g, target, kernel in random_kernel_instances(200):
        pi = stationary_distribution(kernel, tol=1e-12)
        want = np.array([target.masses[g.index(lab)] for lab in kernel.state_labels])
        assert np.all(np.abs(pi - want) <= 1e-9)
    announce(2, "power-iterated stationary law matches the target")


def test_criterion_03_dobrushin_bound():
    shapes = {
        3: [path_graph(list("abc")), cycle_graph(list("abc")), star_graph(list("abc"))],
        4: [path_graph(list("abcd")), cycle_graph(list("abcd")), star_graph(list("abcd"))],
        5: [path_graph(list("abcde")), cycle_graph(list("abcde")), star_graph(list("abcde"))],
    }
    checked = 0
    for n, graphs in shapes.items():
        masses = np.zeros(n)
        masses[0] = 0.5
        masses[-1] = 0.5
        mu = Distribution(masses)
        threshold = max(min_valid_k(mu), n - 1)
        for g in graphs:
            for k in (threshold, 2 * threshold, 10 * threshold):
                kernel = build_kernel(smooth(mu, k).smoothed, g)
                power = np.linalg.matrix_power(kernel.matrix, n - 1)
                assert dobrushin(power) <= dobrushin_bound(n, k), (n, g, k)
                checked += 1
    assert checked == 27
    announce(3, "contraction bound holds at and above the smoothing threshold")


def test_criterion_04_case_iv_convergence():
    g = path_graph(["a", "b", "c", "d", "e"])
    target = Distribution(np.full(5, 0.2))
    kernel = build_kernel(target, g)
    for seed in CASE_IV_SEEDS:
        trace = run_homogeneous(kernel, target, 10**6, seed=seed)
        tv = total_variation(empirical_distribution(trace), target)
        assert tv <= 0.01, (seed, tv)
    announce(4, "connected-support target reached within TV 0.01 at 1e6 steps")


def test_criterion_05_case_ii_convergence():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        schedule = Schedule.power_gap(1, 3)
    init = Distribution(np.full(4, 0.25))
    for seed in CASE_II_SEEDS:
        trace = run_nonhomogeneous(
            EXAMPLE_TARGET, EXAMPLE_GRAPH, schedule, init, 10**7, seed=seed
        )
        tv = total_variation(empirical_distribution(trace), EXAMPLE_TARGET)
        assert tv <= 0.05, (seed, tv)
    announce(5, "schedule-driven chain reaches the split-support target")


def test_criterion_06_counterexample_reproduction():
    schedule = Schedule.counterexample()
    top = Distribution(np.array([1.0, 0.0, 0.0, 0.0]))  # start at the top state
    frozen = 0
    for seed in COUNTEREXAMPLE_SEEDS:
        trace = run_nonhomogeneous(
            EXAMPLE_TARGET, EXAMPLE_GRAPH, schedule, top, 10**5, seed=seed
        )
        if trace.counts[0] / trace.length >= 0.9:
            frozen += 1
    assert frozen >= 95, frozen
    announce(6, f"too-fast smoothing freezes the chain ({frozen}/100 seeds)")


def test_criterion_07_impossibility():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    split = Distribution(np.array([0.5, 0.0, 0.5, 0.0]))
    init = Distribution(np.full(4, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        schedule = Schedule.power_gap(1, 3)
        with pytest.raises(SupportSplitError):
            run_nonhomogeneous(split, g, schedule, init, 100, seed=0)
        with pytest.raises(SupportSplitError):
            run_product(
                ProductChainSpec(
                    components=(ComponentSpec(target=split, graph=g, schedule=schedule),),
                    steps=100,
                    seed=0,
                )
            )
    # exhaustive reachability: no consistent walk touches both components
    comps = connected_components(g)
    comp_of = {lab: idx for idx, comp in enumerate(comps) for lab in comp}
    walks = 0
    for walk in product(range(g.n), repeat=5):
        if all(g.adjacent_indices(walk[i], walk[i + 1]) for i in range(4)):
            walks += 1
            assert len({comp_of[g.labels[i]] for i in walk}) == 1
    assert walks > 0
    announce(7, "split-support targets rejected; components are walk-closed")


def pure_equilibria_oracle(game):
    """Player-level brute force, independent of the library's enumeration."""
    out = set()
    edges = edge_labels(game.graph)
    profiles = list(game.profiles())
    for sbar in profiles:
        ok = True
        for other in profiles:
            if other == sbar:
                continue
            if frozenset((game.label_of(sbar), game.label_of(other))) not in edges:
                continue
            for h in range(game.r):
                swapped = tuple(
                    other[j] if j == h else sbar[j] for j in range(game.r)
                )
                if game.payoff(h, swapped) > game.payoff(h, sbar):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(sbar)
    return frozenset(out)


def test_criterion_08_equilibrium_oracles():
    rng = random.Random(ORACLE_SEED)
    for _ in range(500):
        game = random_game(rng, max_coalitions=3, max_strategies=3, graph="random")
        assert pure_c_equilibria(game) == pure_equilibria_oracle(game)

    np_rng = np.random.default_rng(ORACLE_SEED)
    for _ in range(100):
        game = random_game(rng, max_coalitions=3, max_strategies=3, graph="complete")
        profile = MixedProfile(
            tuple(Distribution(np_rng.dirichlet(np.ones(d))) for d in game.dims)
        )
        sampler_clean = True
        for h in range(game.r):
            v = payoff_vector(game, profile, h)
            current = float(v @ profile.parts[h].masses)
            bound = float(v.max())
            deviations = np_rng.dirichlet(np.ones(game.dims[h]), size=10_000)
            values = deviations @ v
            # no sampled mixed deviation may beat the pure-deviation bound
            assert np.all(values <= bound + 1e-9)
            if float(values.max()) > current + 1e-9:
                sampler_clean = False
        if is_mixed_c_equilibrium(game, profile, tol=1e-9):
            assert sampler_clean
    announce(8, "pure and mixed verdicts agree with independent oracles")


def test_criterion_09_product_chain_independence():
    k2a = complete_graph(["0", "1"])
    k2b = complete_graph(["x", "y"])
    uniform = Distribution(np.array([0.5, 0.5]))
    joint_target = Distribution(np.full(4, 0.25))
    for seed in PRODUCT_SEEDS:
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=uniform, graph=k2a),
                ComponentSpec(target=uniform, graph=k2b),
            ),
            steps=10**6,
            seed=seed,
        )
        trace = run_product(spec)
        tv = total_variation(empirical_distribution(trace), joint_target)
        assert tv <= 0.02, (seed, tv)
    announce(9, "joint empirical law of independent factors hits the product")


def test_criterion_10_folk_desk_check():
    for game_name, game in (
        ("matching-pennies", matching_pennies()),
        ("coordination", coordination_game()),
    ):
        decomposition = decompose_game(game)
        mixed = compute_mixed_equilibrium(game)
        policies = equilibrium_policies(game, decomposition, mixed)
        config = RepeatedConfig(
            game=game,
            decomposition=decomposition,
            policies=policies,
            init=RefereeInit(distributions=tuple(mixed.parts)),
            t_eval=10**6,
        )
        _, report = simulate_repeated(config, FOLK_SEED)
        for h in range(game.r):
            payoff_range = float(game.payoffs[h].max() - game.payoffs[h].min())
            want = expected_payoff(game, mixed, h)
            got = report.per_coalition[h].final_average
            assert abs(got - want) <= 0.02 * payoff_range, (game_name, h, got, want)
        cell = 0
        for h in range(game.r):
            for policy in stock_deviation_policies(game, decomposition, h):
                outcome = deviation_test(
                    config,
                    coalition=h,
                    deviation=policy,
                    t_eval=10**5,
                    replicas=20,
                    seed=FOLK_SEED * 1000 + cell,
                )
                assert not outcome.improved, (game_name, h, policy.name, outcome)
                cell += 1
    announce(10, "chain equilibria match expected payoffs; no deviation improves")


def test_criterion_11_decomposition_round_trip():
    rng = random.Random(ROUND_TRIP_SEED)
    for _ in range(100):
        r = rng.randint(1, 3)
        factors = []
        for h in range(r):
            labels = [f"f{h}n{i}" for i in range(rng.randint(1, 4))]
            factors.append(random_graph(rng, labels))
        prod = strong_product(factors)
        dec = factorize(prod, [f.labels for f in factors])
        assert dec is not None
        assert dec.factors == tuple(factors)
    four_cycle = Graph(
        ["s1|s1", "s1|s2", "s2|s1", "s2|s2"],
        [
            ("s1|s1", "s2|s1"),
            ("s1|s1", "s1|s2"),
            ("s1|s2", "s2|s2"),
            ("s2|s1", "s2|s2"),
        ],
    )
    assert factorize(four_cycle, [["s1", "s2"], ["s1", "s2"]]) is None
    announce(11, "factorization inverts the strong product; 4-cycle rejected")


def decomposable_fixture_games():
    yield "matching-pennies", matching_pennies()
    yield "coordination", coordination_game()
    # isolated strategies: every profile is an equilibrium
    from graphgame.games import CoalitionStructure, GGame
    from graphgame.graphs import edgeless_graph

    structure = CoalitionStructure((1, 2), ((1,), (2,)))
    spaces = (("a", "b"), ("x", "y"))
    payoffs = (
        np.array([[3.0, 0.0], [1.0, 2.0]]),
        np.array([[0.0, 5.0], [2.0, 2.0]]),
    )
    yield "isolated", GGame(
        structure, spaces, payoffs, edgeless_graph(GGame.joint_labels(spaces))
    )
    # path factors with integer payoffs
    rng = random.Random(99)
    from graphgame.games import CoalitionStructure as CS, GGame as GG

    factors = (path_graph(("p0", "p1")), path_graph(("q0", "q1", "q2")))
    g = strong_product(list(factors))
    for idx in range(5):
        payoffs = tuple(
            np.array(
                [[rng.randint(-9, 9) for _ in range(3)] for _ in range(2)], float
            )
            for _ in range(2)
        )
        yield f"path-factors-{idx}", GG(
            CS((1, 2), ((1,), (2,))),
            (factors[0].labels, factors[1].labels),
            payoffs,
            g,
        )


def test_criterion_12_two_stage_theorem():
    checked = 0
    for name, game in decomposable_fixture_games():
        decomposition = decompose_game(game)
        for sbar in pure_c_equilibria(game):
            assert two_stage_check(game, sbar, decomposition), (name, sbar)
            # restricted-neighborhood brute force
            for h in range(game.r):
                factor = decomposition.factors[h]
                for cand in {sbar[h], *factor.neighbors(sbar[h])}:
                    candidate = sbar[:h] + (cand,) + sbar[h + 1 :]
                    assert game.payoff(h, candidate) <= game.payoff(h, sbar)
            checked += 1
    assert checked >= 6
    announce(12, f"one-shot equilibria survive the two-stage game ({checked} profiles)")
