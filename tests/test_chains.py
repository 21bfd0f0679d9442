import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame import chains
from graphgame.chains import (
    DOBRUSHIN_BLOCK,
    CaseLabel,
    EmptyLowSetError,
    NonPositiveTargetError,
    NotConnectedError,
    Schedule,
    ScheduleError,
    TransitionKernel,
    build_kernel,
    chain_case,
    detailed_balance,
    dobrushin,
    dobrushin_bound,
    kernel_level,
    level_dobrushin,
    min_valid_k,
    smooth,
    stationary_distribution,
)
from graphgame.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    edgeless_graph,
    induced_subgraph,
    path_graph,
    star_graph,
)
from graphgame.mixed import Distribution, total_variation

from conftest import edge_labels, random_connected_graph, random_graph


def dist(*masses):
    return Distribution(np.array(masses, dtype=float))


def balance_residual(kernel: TransitionKernel, target: Distribution, g: Graph) -> float:
    pi = np.array([target.masses[g.index(lab)] for lab in kernel.state_labels])
    m = kernel.matrix
    return float(np.abs(pi[:, None] * m - pi[None, :] * m.T).max())


def component_chain_case(g: Graph, mu: Distribution):
    """`chain_case` decided on the label sets of `connected_components`:
    the reference for its breadth-first searches."""
    support = [g.labels[i] for i in mu.support()]
    restricted = induced_subgraph(g, support)
    if len(support) == 1:
        return CaseLabel.POINT_MASS, restricted
    if len(connected_components(restricted)) == 1:
        return CaseLabel.SUPPORT_CONNECTED, restricted
    for comp in connected_components(g):
        if comp.issuperset(support):
            return CaseLabel.SUPPORT_IN_COMPONENT, induced_subgraph(g, comp)
    return CaseLabel.SUPPORT_SPLIT, None


class TestClassify:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), connected=st.booleans())
    def test_matches_component_reference(self, n, seed, connected):
        rng = random.Random(seed)
        labels = [f"n{i}" for i in range(n)]
        if connected:
            g = random_connected_graph(rng, labels, extra=rng.uniform(0, 0.2))
        else:
            g = random_graph(rng, labels, p_edge=rng.uniform(0, 0.3))
        masses = np.zeros(n)
        masses[rng.sample(range(n), rng.randint(1, n))] = 1.0
        mu = Distribution(masses / masses.sum())
        assert chain_case(g, mu) == component_chain_case(g, mu)

    def test_point_mass(self, example_graph):
        assert chain_case(example_graph, dist(0, 0, 1, 0))[0] is CaseLabel.POINT_MASS

    def test_example_graph_split_support_one_component(self, example_graph):
        label = chain_case(example_graph, dist(0.5, 0.5, 0, 0))[0]
        assert label is CaseLabel.SUPPORT_IN_COMPONENT

    def test_two_components_split(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert chain_case(g, dist(0.5, 0, 0.5, 0))[0] is CaseLabel.SUPPORT_SPLIT

    def test_connected_support(self):
        g = path_graph(["a", "b", "c"])
        assert chain_case(g, dist(0.3, 0.7, 0))[0] is CaseLabel.SUPPORT_CONNECTED

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chain_case(path_graph(["a", "b"]), dist(1.0))

    def test_positive_target_lives_on_the_graph_itself(self):
        # a support that spans g restricts to g, not to a copy of it
        for g in (path_graph(["a", "b", "c"]), cycle_graph([f"n{i}" for i in range(6)])):
            case, chain_graph = chain_case(g, Distribution.uniform(g.n))
            assert case is CaseLabel.SUPPORT_CONNECTED
            assert chain_graph is g


class TestSmooth:
    def test_direct_arithmetic(self):
        out = smooth(dist(0.5, 0.5, 0.0), 4)
        assert out.low_set == frozenset({2})
        assert np.array_equal(out.smoothed.masses, np.array([0.375, 0.375, 0.25]))

    def test_empty_low_set(self):
        # uniform masses sit exactly at 1/k for k = N and above it for larger k
        with pytest.raises(EmptyLowSetError):
            smooth(dist(0.25, 0.25, 0.25, 0.25), 4)
        with pytest.raises(EmptyLowSetError):
            smooth(dist(0.25, 0.25, 0.25, 0.25), 8)

    def test_counterexample_family_masses(self):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        for exp in range(1, 12):
            k = 2**exp
            out = smooth(mu, k)
            assert out.low_set == frozenset({2, 3})
            expected = np.array(
                [(k - 1) / (2 * k), (k - 1) / (2 * k), 1 / (2 * k), 1 / (2 * k)]
            )
            assert np.allclose(out.smoothed.masses, expected, atol=1e-15)

    def test_tv_within_one_over_k(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            raw = rng.dirichlet(np.ones(n))
            raw[rng.integers(0, n)] = 0.0
            mu = Distribution(raw / raw.sum())
            for k in (1, 2, 5, 17):
                out = smooth(mu, k)
                assert total_variation(out.smoothed, mu) <= 1.0 / k + 1e-15

    def test_lower_bound_for_large_k(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            raw = rng.dirichlet(np.ones(n))
            raw[rng.integers(0, n)] = 0.0
            mu = Distribution(raw / raw.sum())
            threshold = max(min_valid_k(mu), n - 1)
            for k in (threshold, 2 * threshold, 10 * threshold):
                out = smooth(mu, k)
                assert np.all(out.smoothed.masses >= 1.0 / ((n - 1) * k) - 1e-15)
                assert np.all(out.smoothed.masses > 0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            smooth(dist(1.0, 0.0), 0)

    def test_k_beyond_float_range(self):
        """The largest k that rounds to a float still smooths, as float(k);
        one that overflows is a ValueError, not an OverflowError."""
        mu = dist(0.5, 0.5, 0.0)
        largest = 2**1024 - 2**970 - 1
        out = smooth(mu, largest)
        assert np.array_equal(out.smoothed.masses, smooth(mu, int(float(largest))).smoothed.masses)
        for k in (largest + 1, 10**400):
            with pytest.raises(ValueError, match="too large"):
                smooth(mu, k)


class TestMinValidK:
    @pytest.mark.parametrize(
        "masses, expected",
        [((0.5, 0.5, 0.0, 0.0), 3), ((0.9, 0.1), 11), ((0.25, 0.25, 0.25, 0.25), 5)],
    )
    def test_examples(self, masses, expected):
        assert min_valid_k(dist(*masses)) == expected


class TestBuildKernel:
    def test_two_state_hand_example(self):
        g = path_graph(["a", "b"])
        target = dist(2 / 3, 1 / 3)
        kernel = build_kernel(target, g)
        assert kernel.state_labels == ("a", "b")
        assert kernel.p == pytest.approx(0.25, abs=1e-15)
        assert np.allclose(kernel.matrix, [[0.75, 0.25], [0.5, 0.5]], atol=1e-15)
        assert (2 / 3) * kernel.matrix[0, 1] == pytest.approx(
            (1 / 3) * kernel.matrix[1, 0], abs=1e-15
        )

    def test_uniform_complete_three(self):
        g = complete_graph(["a", "b", "c"])
        kernel = build_kernel(dist(1 / 3, 1 / 3, 1 / 3), g)
        off = kernel.matrix[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.25, atol=1e-15)
        assert np.allclose(np.diag(kernel.matrix), 0.5, atol=1e-15)

    def test_single_node(self):
        kernel = build_kernel(dist(1.0), Graph(["a"]))
        assert kernel.matrix.tolist() == [[1.0]]

    def test_random_instances_properties(self):
        rng = random.Random(7)
        np_rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.randint(2, 10)
            labels = [f"n{i}" for i in range(n)]
            g = random_connected_graph(rng, labels)
            target = Distribution(np_rng.dirichlet(np.ones(n)))
            kernel = build_kernel(target, g)
            m = kernel.matrix
            assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
            assert kernel.p <= 0.5
            assert np.all(np.diag(m) >= 0.5 - 1e-15)
            assert balance_residual(kernel, target, g) <= 1e-12
            for a in range(n):
                for b in range(n):
                    if a != b and m[a, b] > 0:
                        la, lb = kernel.state_labels[a], kernel.state_labels[b]
                        assert frozenset((la, lb)) in edge_labels(g)

    def test_not_connected(self):
        g = edgeless_graph(["a", "b"])
        with pytest.raises(NotConnectedError):
            build_kernel(dist(0.5, 0.5), g)
        # a graph with no nodes has no node to search from
        with pytest.raises(NotConnectedError):
            build_kernel(Distribution.uniform(1), Graph([]))

    def test_non_positive_target(self):
        g = path_graph(["a", "b"])
        with pytest.raises(NonPositiveTargetError):
            build_kernel(dist(1.0, 0.0), g)

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            TransitionKernel(np.array([[0.4, 0.6], [0.5, 0.5]]), ("a", "b"), 0.1)
        with pytest.raises(ValueError):
            TransitionKernel(np.array([[0.9, 0.2], [0.5, 0.5]]), ("a", "b"), 0.1)
        with pytest.raises(ValueError, match="finite"):
            TransitionKernel(np.array([[np.nan, 0.5], [0.5, 0.5]]), ("a", "b"), 0.1)


def blocked_dobrushin(m: np.ndarray) -> float:
    """The blocked row-overlap formula alone, without the disjoint-support
    exit; the reference for `dobrushin`."""
    rows = max(1, DOBRUSHIN_BLOCK // max(1, m.size))
    overlap = min(
        np.minimum(m[i : i + rows, None, :], m[None, :, :]).sum(axis=2).min()
        for i in range(0, m.shape[0], rows)
    )
    return float(1.0 - overlap)


class TestDobrushin:
    def test_identity(self):
        assert dobrushin(np.eye(3)) == 1.0

    def test_equal_rows(self):
        m = np.tile(np.array([0.2, 0.3, 0.5]), (3, 1))
        assert dobrushin(m) == pytest.approx(0.0, abs=1e-15)

    def test_two_state_example(self):
        g = path_graph(["a", "b"])
        kernel = build_kernel(dist(2 / 3, 1 / 3), g)
        assert dobrushin(kernel) == pytest.approx(0.25, abs=1e-15)

    def test_submultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n), size=n)
            q = rng.dirichlet(np.ones(n), size=n)
            assert dobrushin(p @ q) <= dobrushin(p) * dobrushin(q) + 1e-12

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            dobrushin(np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("n", [127, 128, 129, 150])
    def test_blocks_match_direct_formula(self, n):
        """Up to 128 states one block holds every row; from 129 on the rows
        split into blocks, the last one partial."""
        assert (DOBRUSHIN_BLOCK // (n * n) >= n) == (n <= 128)
        rng = np.random.default_rng(n)
        m = rng.dirichlet(np.full(n, 0.2), size=n)
        m[rng.integers(n)] = np.eye(n)[rng.integers(n)]
        direct = 1.0 - np.minimum(m[:, None, :], m[None, :, :]).sum(axis=2).min()
        assert dobrushin(m) == direct

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        shape=st.sampled_from(["star", "path"]),
        n=st.integers(4, 40),
        extra=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_disjoint_supports_give_exactly_one(self, shape, n, extra, seed):
        """A star with any chords has diameter <= 2, so every two states
        share a closed neighbour. A path v0 - ... - v(n-1) with chords only
        among v0..v(n-4) keeps v(n-1) three steps from v(n-4), and the
        kernel rows of those two states are disjoint."""
        rng = random.Random(seed)
        labels = [f"v{i}" for i in range(n)]
        if shape == "star":
            edges = {(0, i) for i in range(1, n)}
            chord_nodes = n
        else:
            edges = {(i, i + 1) for i in range(n - 1)}
            chord_nodes = n - 3
        edges |= {
            (i, j) for i in range(chord_nodes) for j in range(i + 2, chord_nodes)
            if rng.random() < extra
        }
        order = labels[:]
        rng.shuffle(order)
        g = Graph(order, [(labels[i], labels[j]) for i, j in sorted(edges)])
        target = Distribution(np.random.default_rng(seed).dirichlet(np.ones(n)))
        kernel = build_kernel(target, g)
        assert dobrushin(kernel) == blocked_dobrushin(kernel.matrix)
        assert (dobrushin(kernel) == 1.0) == (shape == "path")

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    def test_tiny_negative_entries_take_the_blocked_formula(self, n, seed):
        """Entries down to -1e-9 are accepted. A row with a tiny negative
        entry can overlap a disjoint row by less than 0, so the coefficient
        is not exactly 1.0 and must come from the blocked formula."""
        rng = np.random.default_rng(seed)
        m = np.eye(n)
        col = rng.integers(n, size=n)
        tiny = rng.uniform(1e-15, 1e-10, size=n) * (col != np.arange(n))
        m[np.arange(n), col] -= tiny
        m[np.arange(n), np.arange(n)] += tiny
        assert dobrushin(m) == blocked_dobrushin(m)
        if tiny.any():
            assert dobrushin(m) > 1.0


class TestDobrushinBound:
    def test_constant_for_three_states(self):
        # leading constant 1/(2*(N-1)^2) = 1/8 at N = 3
        assert dobrushin_bound(3, 1) == pytest.approx(1.0 - (1.0 / 8.0) ** 2)

    def test_value_at_k8(self):
        assert dobrushin_bound(3, 8) == pytest.approx(4095.0 / 4096.0, abs=1e-15)

    def test_holds_on_smoothed_path(self):
        g = path_graph(["a", "b", "c"])
        mu = dist(0.5, 0.0, 0.5)
        threshold = max(min_valid_k(mu), 2)
        for k in (threshold, 2 * threshold, 10 * threshold):
            kernel = build_kernel(smooth(mu, k).smoothed, g)
            power = np.linalg.matrix_power(kernel.matrix, 2)
            assert dobrushin(power) <= dobrushin_bound(3, k)

    def test_holds_across_shapes_and_levels(self):
        shapes = {
            3: [path_graph(["a", "b", "c"]), cycle_graph(["a", "b", "c"])],
            4: [path_graph(list("abcd")), cycle_graph(list("abcd")), star_graph(list("abcd"))],
            5: [path_graph(list("abcde")), cycle_graph(list("abcde")), star_graph(list("abcde"))],
        }
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
                    assert dobrushin(power) <= dobrushin_bound(n, k)

    def test_requires_three_states(self):
        with pytest.raises(ValueError):
            dobrushin_bound(2, 5)


class TestStationary:
    def test_matches_target(self):
        rng = random.Random(13)
        np_rng = np.random.default_rng(13)
        for _ in range(30):
            n = rng.randint(2, 10)
            labels = [f"n{i}" for i in range(n)]
            g = random_connected_graph(rng, labels)
            target = Distribution(np_rng.dirichlet(np.ones(n)))
            kernel = build_kernel(target, g)
            pi = stationary_distribution(kernel)
            expected = np.array(
                [target.masses[g.index(lab)] for lab in kernel.state_labels]
            )
            assert np.all(np.abs(pi - expected) <= 1e-9)


class TestLevelReadings:
    """`detailed_balance` and `level_dobrushin` read a level's law and
    coefficient off its arcs and diagonal; the dense `stationary_distribution` and
    `dobrushin` of `build_kernel`'s matrix are their references."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 12),
        masses=st.sampled_from(["dirichlet", "tied", "tiny"]),
        extra=st.sampled_from([0.0, 0.3, 0.8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tree_law_matches_squaring(self, n, masses, extra, seed):
        """Tied masses make hops up and down the mass order weigh the same;
        tiny ones make hop probabilities span nine orders of magnitude."""
        labels = [f"v{i}" for i in range(n)]
        g = random_connected_graph(random.Random(seed), labels, extra)
        rng = np.random.default_rng(seed)
        m = rng.dirichlet(np.ones(n))
        if masses == "tied":
            m = rng.integers(1, 3, size=n).astype(float)
        elif masses == "tiny":
            m[rng.integers(n, size=max(1, n // 3))] = 1e-9
        target = Distribution(m / m.sum())
        kernel = build_kernel(target, g)
        pi, residual = detailed_balance(kernel_level(target, g), target.masses)
        in_mass_order = pi[[g.index(lab) for lab in kernel.state_labels]]
        assert np.abs(in_mass_order - stationary_distribution(kernel)).max() <= 1e-12
        assert residual == balance_residual(kernel, target, g)

    @pytest.mark.parametrize("block", [DOBRUSHIN_BLOCK, 50], ids=["one-block", "blocks"])
    @pytest.mark.parametrize(
        "shape, far",
        [("complete", False), ("star", False), ("cycle4", False), ("path5", True),
         ("ring60", True)],
    )
    def test_graph_rule_matches_dense_bits(self, shape, far, block, monkeypatch):
        """Diameter 2 or less needs the row overlaps: with a 50-value block
        they come in several blocks of rows, the last one partial. Diameter
        3 or more gives exactly 1.0 from the graph alone."""
        monkeypatch.setattr(chains, "DOBRUSHIN_BLOCK", block)
        n = {"complete": 8, "star": 9, "cycle4": 4, "path5": 5, "ring60": 60}[shape]
        labels = [f"v{i}" for i in range(n)]
        build = {"complete": complete_graph, "star": star_graph, "path5": path_graph}
        g = build.get(shape, cycle_graph)(labels)
        for seed in range(5):
            target = Distribution(np.random.default_rng(seed).dirichlet(np.ones(n)))
            coefficient = level_dobrushin(kernel_level(target, g))
            assert coefficient == dobrushin(build_kernel(target, g))
            assert (coefficient == 1.0) == far


class TestSchedule:
    def test_theoretical_times(self):
        sched = Schedule.theoretical(4)
        assert sched.time_at(1) == 1
        assert sched.time_at(2) == 2**20
        assert sched.time_at(3) == 3**20  # exact big integers

    def test_power_gap_gaps(self):
        sched = Schedule.power_gap(c=2, e=3)
        for l in range(1, 20):
            assert sched.time_at(l + 1) - sched.time_at(l) == 2 * l**3

    def test_explicit_validation(self):
        with pytest.raises(ScheduleError):
            Schedule.explicit([1, 1, 2])
        sched = Schedule.explicit([1, 5, 9])
        assert sched.interval_index(5) == 2
        assert sched.interval_index(8) == 2
        with pytest.raises(ScheduleError):
            sched.time_at(4)

    def test_interval_semantics(self):
        sched = Schedule.power_gap()
        for l in (1, 2, 5, 9):
            t = sched.time_at(l)
            assert sched.interval_index(t) == l
            assert sched.interval_index(sched.time_at(l + 1) - 1) == l

    def test_before_first_time(self):
        sched = Schedule.power_gap()
        with pytest.raises(ScheduleError):
            sched.interval_index(0)

    def test_counterexample_indices(self):
        sched = Schedule.counterexample()
        assert [sched.time_at(l) for l in (1, 2, 3)] == [1, 2, 3]
        assert list(sched.segments(3, 1)) == [(1, 8)]  # interval 3 starts at time 3
        assert list(sched.segments(100, 1)) == [(1, 2**50)]  # float-precision cap
        for max_exponent in (1, 5, 50):
            capped = Schedule.counterexample(max_exponent)
            assert capped.interval_index(10**6) == max_exponent

    def test_power_gap_times_cost_constant_each(self):
        sched = Schedule.power_gap(1, 0)
        start = time.perf_counter()
        assert sched.interval_index(20_000) == 20_000
        assert time.perf_counter() - start < 1.0

    def test_empty_switches_rejected(self):
        for make in (lambda: Schedule("empty", iter(())), lambda: Schedule.explicit([])):
            with pytest.raises(ScheduleError):
                make()

    def test_non_increasing_pair_rejected_when_reached(self):
        sched = Schedule("late", iter([(1, 1), (4, 2), (4, 3)]))
        assert sched.time_at(2) == 4
        with pytest.raises(ScheduleError):
            sched.time_at(3)
        with pytest.raises(ScheduleError):
            list(Schedule("late", iter([(1, 1), (4, 2), (3, 3)])).segments(0, 10))

    def test_last_level_past_a_finite_end(self):
        sched = Schedule.explicit([1, 5, 9])
        assert list(sched.segments(0, 100)) == [(1, None), (4, 1), (4, 2), (91, 3)]
        assert list(sched.segments(10**6, 1)) == [(1, 3)]

    def test_segments(self):
        sched = Schedule("given", iter([(3, 7), (5, 2), (6, 9)]))
        assert list(sched.segments(0, 10)) == [(3, None), (2, 7), (1, 2), (4, 9)]
        assert list(sched.segments(4, 2)) == [(1, 7), (1, 2)]
        assert list(sched.segments(1, 1)) == [(1, None)]
        assert list(sched.segments(2, 0)) == []
        gaps = Schedule.power_gap(c=2, e=3).segments(1, 1 + 2 * sum(l**3 for l in range(1, 30)))
        assert list(gaps) == [(2 * l**3, l) for l in range(1, 30)] + [(1, 30)]
