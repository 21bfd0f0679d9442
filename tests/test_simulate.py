import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame.chains import (
    KernelCore,
    Schedule,
    SupportSplitError,
    TransitionKernel,
    build_kernel,
    smooth,
    stationary_distribution,
)
from graphgame.graphs import (
    Graph,
    complete_graph,
    connected_components,
    induced_subgraph,
    path_graph,
    strong_product,
)
from graphgame.mixed import Distribution, total_variation
from graphgame.simulate import (
    ComponentSpec,
    ProductChainSpec,
    Realization,
    Trace,
    UniformStream,
    _SINGLES,
    cumulative_row,
    draw_index,
    empirical_distribution,
    make_stream,
    run_homogeneous,
    run_nonhomogeneous,
    run_product,
    verify_consistency,
)
from graphgame.repeated import ConstantPolicy

from conftest import edge_labels


def dist(*masses):
    return Distribution(np.array(masses, dtype=float))


TWO_STATE_KERNEL = build_kernel(dist(2 / 3, 1 / 3), path_graph(["a", "b"]))


# a stream request: None is one next(), an integer k is take(k)
STREAM_REQUEST = st.one_of(
    st.none(),
    st.sampled_from([0, 1, _SINGLES - 1, _SINGLES, _SINGLES + 1, (1 << 16) + 1, 70_001]),
    st.integers(0, 3 * _SINGLES),
)


class TestUniformStream:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), requests=st.lists(STREAM_REQUEST, max_size=12))
    def test_interleaved_requests_replay_one_block(self, seed, requests):
        rng = np.random.default_rng(seed)
        stream = UniformStream(rng)
        got: list[float] = []
        for k in requests:
            if k is None:
                got.append(stream.next())
            else:
                block = stream.take(k)
                assert len(block) == k
                got.extend(block)
        consumed = len(got)
        reference = np.random.default_rng(seed).random(consumed + _SINGLES + 1).tolist()
        assert got == reference[:consumed]
        # the generator ran ahead of the consumer by the single-draw buffer at most
        ahead = reference.index(rng.random(), consumed) - consumed
        assert 0 <= ahead <= _SINGLES
        if None not in requests:
            assert ahead == 0

    def test_stream_makes_no_reference_cycle(self):
        gc.disable()
        try:
            stream = UniformStream(np.random.default_rng(5))
            stream.next()
            alive = weakref.ref(stream)
            del stream
            assert alive() is None  # freed by reference counting alone
        finally:
            gc.enable()

    def test_negative_take_draws_nothing(self):
        rng = np.random.default_rng(5)
        stream = UniformStream(rng)
        first = stream.next()
        assert stream.take(-3) == []
        assert [first, stream.next()] == np.random.default_rng(5).random(2).tolist()


class TestCumulativeRow:
    def test_largest_uniform_never_draws_trailing_zero_mass(self):
        """Ten masses of 0.1 sum to 1 - 2**-53, the largest uniform numpy
        returns; the rounding guard on the last positive entry makes that
        uniform draw state 9, not the zero-mass state after it."""
        cum = cumulative_row(Distribution(np.r_[np.full(10, 0.1), 0.0]).masses)
        assert cum[-2:] == [1.0, 1.0]
        assert draw_index(cum, 1.0 - 2.0**-53) == 9
        assert draw_index(cum, 0.0) == 0


class TestHomogeneous:
    def test_deterministic_replay(self):
        a = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 5000, seed=99)
        b = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 5000, seed=99)
        assert a.states.tobytes() == b.states.tobytes()
        c = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 5000, seed=100)
        assert a.states.tobytes() != c.states.tobytes()

    def test_identity_kernel_constant(self):
        kernel = TransitionKernel(np.eye(3), ("a", "b", "c"), 0.0)
        trace = run_homogeneous(kernel, dist(0.2, 0.5, 0.3), 1000, seed=4)
        assert np.all(trace.states == trace.states[0])

    def test_single_step_is_initial_draw(self):
        trace = run_homogeneous(TWO_STATE_KERNEL, dist(1.0, 0.0), 1, seed=0)
        assert trace.length == 1
        assert trace.states[0] == 0

    def test_long_run_hits_stationary_law(self):
        target = dist(2 / 3, 1 / 3)
        trace = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 10**6, seed=7)
        emp = empirical_distribution(trace)
        assert total_variation(emp, target) <= 0.01
        pi = stationary_distribution(TWO_STATE_KERNEL)
        assert np.allclose(pi, target.masses, atol=1e-12)
        assert total_variation(emp, Distribution(pi)) <= 0.01

    def test_consistency_replay(self):
        g = path_graph(["a", "b", "c", "d"])
        kernel = build_kernel(dist(0.4, 0.3, 0.2, 0.1), g)
        trace = run_homogeneous(kernel, dist(0.25, 0.25, 0.25, 0.25), 20000, seed=13)
        assert verify_consistency(trace, g)

    def test_init_shape_checked(self):
        with pytest.raises(ValueError):
            run_homogeneous(TWO_STATE_KERNEL, dist(1.0), 10, seed=0)


class TestNonhomogeneous:
    def test_single_step(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        trace = run_nonhomogeneous(
            mu, example_graph, Schedule.power_gap(), dist(1, 0, 0, 0), 1, seed=3
        )
        assert trace.length == 1
        assert trace.state_labels == example_graph.labels
        assert trace.states[0] == 0

    def test_consistent_with_graph(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        trace = run_nonhomogeneous(
            mu,
            example_graph,
            Schedule.power_gap(),
            dist(0.25, 0.25, 0.25, 0.25),
            50_000,
            seed=21,
        )
        assert verify_consistency(trace, example_graph)

    def test_empirical_approaches_target(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        trace = run_nonhomogeneous(
            mu,
            example_graph,
            Schedule.power_gap(),
            dist(0.25, 0.25, 0.25, 0.25),
            400_000,
            seed=5,
        )
        assert total_variation(empirical_distribution(trace), mu) <= 0.12

    def test_counterexample_schedule_freezes(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        sched = Schedule.counterexample()
        stuck = 0
        for seed in range(10):
            trace = run_nonhomogeneous(
                mu, example_graph, sched, dist(1, 0, 0, 0), 20_000, seed=seed
            )
            if trace.counts[0] / trace.length >= 0.9:
                stuck += 1
        assert stuck >= 9

    def test_saturated_counterexample_is_one_segment(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        sched = Schedule.counterexample()
        realization = Realization(mu, example_graph, sched)
        steps = 10**6
        states = np.empty(steps, dtype=np.int64)
        realization.run(1, steps, make_stream(3), states)
        kernel = realization.kernel_at(steps - 2)
        assert len(sched._times) <= 50 + 2
        # the same schedule without an open-ended last interval, walked one by one
        walked = Schedule("counterexample", lambda l: l, smoothing_fn=lambda l: 2 ** min(l, 50))
        reference = Realization(mu, example_graph, walked)
        prefix = np.empty(5000, dtype=np.int64)
        reference.run(1, prefix.size, make_stream(3), prefix)
        assert np.array_equal(states[: prefix.size], prefix)
        assert np.array_equal(kernel.matrix, reference.kernel_at(prefix.size).matrix)

    def test_split_support_rejected(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(SupportSplitError):
            run_nonhomogeneous(
                g=g,
                mu=dist(0.5, 0, 0.5, 0),
                schedule=Schedule.power_gap(),
                init=dist(0.25, 0.25, 0.25, 0.25),
                steps=10,
                seed=0,
            )

    def test_init_confined_to_component(self):
        g = Graph(["a", "b", "c", "x", "y"], [("a", "b"), ("b", "c"), ("x", "y")])
        mu = dist(0.5, 0.0, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            run_nonhomogeneous(
                mu, g, Schedule.power_gap(), dist(0, 0, 0, 0.5, 0.5), 10, seed=0
            )

    def test_restricted_component_counts(self):
        g = Graph(["a", "b", "c", "x", "y"], [("a", "b"), ("b", "c"), ("x", "y")])
        mu = dist(0.5, 0.0, 0.5, 0.0, 0.0)
        trace = run_nonhomogeneous(
            mu, g, Schedule.power_gap(), dist(1.0, 0, 0, 0, 0), 5000, seed=1
        )
        assert trace.counts[3] == 0 and trace.counts[4] == 0
        assert verify_consistency(trace, g)


class TestRealization:
    """The schedule-indexed kernels a Realization builds, and what its
    construction leaves unbuilt."""

    def test_interval_membership(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        sched = Schedule.power_gap()
        realization = Realization(mu, example_graph, sched)
        for k in (1, 2, 4):
            a = realization.kernel_at(sched.time_at(k))
            b = build_kernel(smooth(mu, k).smoothed, example_graph)
            assert np.array_equal(a.matrix, b.matrix)
            assert a.state_labels == b.state_labels
            end = sched.time_at(k + 1) - 1
            assert np.array_equal(realization.kernel_at(end).matrix, a.matrix)

    def test_counterexample_top_state_self_transition(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        realization = Realization(mu, example_graph, Schedule.counterexample())
        for l in range(1, 20):
            kernel = realization.kernel_at(l)
            assert kernel.state_labels[0] == "s1"
            assert kernel.matrix[0, 0] == 1.0 - 2.0 ** -(l + 1)
            assert kernel.p == 2.0 ** -(l + 1)

    def test_split_support_rejected(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(SupportSplitError):
            Realization(dist(0.5, 0, 0.5, 0), g, Schedule.power_gap())

    def test_component_restriction(self):
        g = Graph(
            ["x", "a", "b", "c", "y"],
            [("a", "b"), ("b", "c"), ("x", "y")],
        )
        mu = dist(0.0, 0.5, 0.0, 0.5, 0.0)
        sched = Schedule.power_gap()
        realization = Realization(mu, g, sched)
        assert realization.nodes == (1, 2, 3)
        kernel = realization.kernel_at(sched.time_at(3))
        restricted = induced_subgraph(g, ["a", "b", "c"])
        reference = build_kernel(smooth(dist(0.5, 0.0, 0.5), 3).smoothed, restricted)
        assert set(kernel.state_labels) == {"a", "b", "c"}
        assert kernel.state_labels == reference.state_labels
        assert np.array_equal(kernel.matrix, reference.matrix)

    def test_schedule_kept_only_for_smoothing(self):
        """A point mass and a connected support ignore a given schedule; a
        support disconnected inside its component keeps it, and needs one."""
        g = path_graph(["a", "b", "c"])
        sched = Schedule.power_gap()
        for mu in (dist(0, 1, 0), dist(0.5, 0.5, 0.0)):
            assert Realization(mu, g, sched).schedule is None
            assert Realization(mu, g).schedule is None
        assert Realization(dist(0.5, 0.0, 0.5), g, sched).schedule is sched
        with pytest.raises(ValueError, match="schedule is required"):
            Realization(dist(0.5, 0.0, 0.5), g)

    def test_construction_builds_no_kernel(self, example_graph):
        calls = []
        levels = KernelCore.levels

        def counted(core, masses):
            calls.append(len(masses))
            return levels(core, masses)

        with mock.patch.object(KernelCore, "levels", counted):
            for mu in (dist(0, 0, 1, 0), dist(0.5, 0, 0.5, 0), dist(0.5, 0.5, 0, 0)):
                Realization(mu, example_graph, Schedule.power_gap())
            ConstantPolicy(example_graph, 2)
            assert calls == []
            Realization(dist(0.5, 0, 0.5, 0), example_graph).kernel_at(0)
        assert calls == [1]


class TestProduct:
    def test_degenerate_product_equals_plain_run(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        sched = Schedule.power_gap()
        init = dist(0.25, 0.25, 0.25, 0.25)
        direct = run_nonhomogeneous(mu, example_graph, sched, init, 9999, seed=17)
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=mu, graph=example_graph, schedule=sched, init=init),
            ),
            steps=9999,
            seed=17,
        )
        joint = run_product(spec)
        assert np.array_equal(joint.components[0].states, direct.states)

    def test_two_uniform_factors(self):
        k2a = complete_graph(["0", "1"])
        k2b = complete_graph(["x", "y"])
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=dist(0.5, 0.5), graph=k2a),
                ComponentSpec(target=dist(0.5, 0.5), graph=k2b),
            ),
            steps=200_000,
            seed=31,
        )
        joint = run_product(spec)
        target = Distribution(np.full(4, 0.25))
        assert total_variation(empirical_distribution(joint), target) <= 0.02
        prod_graph = strong_product([k2a, k2b])
        assert joint.state_labels == prod_graph.labels
        assert verify_consistency(joint, prod_graph)

    def test_components_reproducible_and_distinct(self):
        k2 = complete_graph(["0", "1"])
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=dist(0.5, 0.5), graph=k2),
                ComponentSpec(target=dist(0.5, 0.5), graph=k2),
            ),
            steps=4000,
            seed=55,
        )
        a = run_product(spec)
        b = run_product(spec)
        for ca, cb in zip(a.components, b.components):
            assert ca.states.tobytes() == cb.states.tobytes()
        assert a.components[0].states.tobytes() != a.components[1].states.tobytes()

    def test_point_mass_component_constant(self):
        g = path_graph(["a", "b", "c"])
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=dist(0, 1, 0), graph=g),
                ComponentSpec(target=dist(0.5, 0.5), graph=complete_graph(["x", "y"])),
            ),
            steps=500,
            seed=2,
        )
        joint = run_product(spec)
        assert np.all(joint.components[0].states == 1)
        emp = empirical_distribution(joint.components[0])
        assert emp.masses[1] == 1.0

    def test_joint_consistent_with_supergraphs(self):
        p2 = path_graph(["a", "b"])
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=dist(0.5, 0.5), graph=p2),
                ComponentSpec(target=dist(0.5, 0.5), graph=p2),
            ),
            steps=3000,
            seed=8,
        )
        joint = run_product(spec)
        base = strong_product([p2, p2])
        assert verify_consistency(joint, base)
        # adding edges can never break consistency
        extra = Graph(
            base.labels,
            sorted(tuple(sorted(e)) for e in (tuple(x) for x in edge_labels(base))),
        )
        assert verify_consistency(joint, extra)

    def test_split_component_rejected(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        spec = ProductChainSpec(
            components=(ComponentSpec(target=dist(0.5, 0, 0.5, 0), graph=g),),
            steps=10,
            seed=0,
        )
        with pytest.raises(SupportSplitError):
            run_product(spec)

    def test_unit_gap_schedule_runs_as_given(self, example_graph):
        # a product run takes any valid schedule as given, like a single chain
        mu = dist(0.5, 0.5, 0.0, 0.0)
        slow = Schedule.explicit(list(range(1, 50)))  # unit gaps
        spec = ProductChainSpec(
            components=(
                ComponentSpec(target=mu, graph=example_graph, schedule=slow),
            ),
            steps=40,
            seed=0,
        )
        joint = run_product(spec)
        single = run_nonhomogeneous(mu, example_graph, slow, mu, 40, seed=0)
        assert np.array_equal(joint.components[0].states, single.states)


class TestAccumulators:
    def test_empirical_basics(self):
        trace = Trace(
            states=np.array([0, 1, 0, 1]),
            state_labels=("a", "b"),
            seed=0,
            counts=np.array([2, 2]),
        )
        emp = empirical_distribution(trace)
        assert np.array_equal(emp.masses, np.array([0.5, 0.5]))

    def test_counts_sum_exactly_in_rationals(self):
        trace = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 12345, seed=6)
        total = sum(Fraction(int(c), trace.length) for c in trace.counts)
        assert total == 1

    def test_ergodic_average_tracks_expectation(self):
        # a kernel targeting the level-k smoothing keeps the long-run average
        # of f within (1/k) * max|f| of the expectation under the base target
        mu = dist(0.5, 0.5, 0.0, 0.0)
        epsilon = 0.1
        k = 10  # ceil(1/epsilon)
        smoothed = smooth(mu, k).smoothed
        g = Graph(
            ["s1", "s2", "s3", "s4"], [("s1", "s3"), ("s3", "s4"), ("s2", "s4")]
        )
        kernel = build_kernel(smoothed, g)
        init = Distribution(
            np.array([smoothed.masses[g.index(lab)] for lab in kernel.state_labels])
        )
        f = {"s1": 2.0, "s2": -1.0, "s3": 0.5, "s4": 3.0}
        expectation_base = sum(f[lab] * mu.masses[g.index(lab)] for lab in g.labels)
        max_f = max(abs(v) for v in f.values())
        for seed in (11, 12, 13):
            trace = run_homogeneous(kernel, init, 500_000, seed=seed)
            freq = empirical_distribution(trace).masses
            avg = sum(f[lab] * m for lab, m in zip(trace.state_labels, freq.tolist()))
            assert abs(avg - expectation_base) <= epsilon * max_f

    def test_prefix_counts(self):
        trace = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 100, seed=1)
        assert np.array_equal(trace.prefix_counts(trace.length), trace.counts)
        assert trace.prefix_counts(1).sum() == 1


class TestConsistencyCheck:
    def test_constant_trace(self):
        g = path_graph(["a", "b", "c"])
        trace = Trace(np.zeros(5, dtype=int), g.labels, 0, np.array([5, 0, 0]))
        assert verify_consistency(trace, g)

    def test_jump_detected(self):
        g = path_graph(["a", "b", "c"])
        trace = Trace(np.array([0, 2]), g.labels, 0, np.array([1, 0, 1]))
        assert not verify_consistency(trace, g)

    def test_relabeled_states(self):
        # trace labels ordered differently from the graph
        g = path_graph(["a", "b", "c"])
        trace = Trace(np.array([0, 1]), ("c", "b", "a"), 0, np.array([1, 1, 0]))
        assert verify_consistency(trace, g)

    def test_product_check_needs_no_dense_matrix(self):
        side = [str(i) for i in range(120)]
        g = strong_product([path_graph(side), path_graph(side)])
        # down the diagonal (i, i) -> (i + 1, i + 1), 50 steps at each node
        diagonal = np.repeat(np.arange(120) * 121, 50)
        # from state 4096 on, (i, i) becomes (i - 2, i): the one jump is the
        # move into state 4096, the first move that crosses a checked block
        jump = diagonal.copy()
        jump[4096:] -= 2 * 120
        ok_trace, bad_trace = (
            Trace(states, g.labels, 0, np.bincount(states, minlength=g.n))
            for states in (diagonal, jump)
        )
        tracemalloc.start()
        try:
            ok = verify_consistency(ok_trace, g)
            bad = verify_consistency(bad_trace, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and not bad
        assert peak < 16_000_000


class TestImpossibility:
    def test_no_consistent_trace_spans_components(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        comps = connected_components(g)
        assert len(comps) == 2
        # exhaustive enumeration of consistent traces of length 4
        comp_of = {}
        for comp in comps:
            for lab in comp:
                comp_of[lab] = comp
        all_traces = 0
        for walk in product(range(g.n), repeat=4):
            if all(
                g.adjacent_indices(walk[i], walk[i + 1]) for i in range(len(walk) - 1)
            ):
                all_traces += 1
                touched = {comp_of[g.labels[i]] is comps[0] for i in walk}
                assert len(touched) == 1
        assert all_traces > 0

    def test_reachability_closed_in_components(self):
        rng = random.Random(3)
        for _ in range(10):
            labels = [f"n{i}" for i in range(6)]
            edges = [("n0", "n1"), ("n2", "n3"), ("n4", "n5")]
            g = Graph(labels, edges)
            for comp in connected_components(g):
                for lab in comp:
                    i = g.index(lab)
                    reach = {i} | set(g.neighbors(i))
                    assert {g.labels[j] for j in reach} <= comp


class TestTVDecreasesWithHorizon:
    def test_majority_of_seeds_decrease(self):
        # "decreases with T": strictly lower at the final horizon than the
        # first, with at most one noise uptick along the decade grid
        g = path_graph(["a", "b", "c", "d", "e"])
        target = Distribution(np.full(5, 0.2))
        kernel = build_kernel(target, g)
        init = Distribution(np.full(5, 0.2))
        checkpoints = [10**3, 10**4, 10**5, 10**6]
        good = 0
        for seed in range(50):
            trace = run_homogeneous(kernel, init, checkpoints[-1], seed=seed)
            tvs = [
                total_variation(
                    Distribution(trace.prefix_counts(t) / t), target
                )
                for t in checkpoints
            ]
            upticks = sum(1 for a, b in zip(tvs, tvs[1:]) if not a > b)
            if tvs[-1] < tvs[0] and upticks <= 1:
                good += 1
        assert good >= 45
