import gc
import random
import tracemalloc
import weakref
from bisect import bisect_right
from fractions import Fraction
from itertools import count, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame import simulate
from graphgame.chains import (
    Schedule,
    SupportSplitError,
    TransitionKernel,
    build_kernel,
    smooth,
    stationary_distribution,
)
from graphgame.cli import parse_schedule
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
    _BLOCK,
    _SINGLES,
    _WALK_ENTRIES,
    TransitionTable,
    _advance,
    cumulative_row,
    draw_index,
    empirical_distribution,
    make_stream,
    run_homogeneous,
    run_nonhomogeneous,
    run_product,
    verify_consistency,
)
from graphgame.repeated import ConstantPolicy, LazyRandomWalkPolicy, RandomWalkPolicy

from conftest import edge_labels, kernel_table, level_kernel, random_connected_graph


def dist(*masses):
    return Distribution(np.array(masses, dtype=float))


TWO_STATE_KERNEL = build_kernel(dist(2 / 3, 1 / 3), path_graph(["a", "b"]))


# a stream request: None is one next(), an integer k is take_array(k)
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
                block = stream.take_array(k)
                assert block.dtype == np.float64 and block.shape == (k,)
                got.extend(block.tolist())
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
        assert stream.take_array(-3).size == 0
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


@st.composite
def small_tables(draw):
    """A table over 1-5 states: a kernel level (its rows outside the chain's
    states are empty), the cut-point table of a random-walk probe, the
    cumulative rows of small integer weights with their zeros kept, or the
    identity."""
    kind = draw(st.sampled_from(["kernel", "lazy", "walk", "weights", "identity"]))
    n = draw(st.integers(1 if kind == "identity" else 2, 5))
    labels = [f"s{i}" for i in range(n)]
    g = random_connected_graph(random.Random(draw(st.integers(0, 2**16))), labels)
    if kind == "kernel":
        masses = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5]), min_size=n, max_size=n))
        if sum(1 for w in masses if w) < 2:
            masses[:2] = [1, 1]
        target = Distribution(np.array(masses) / sum(masses))
        realization = Realization(target, g, Schedule.power_gap())
        schedule = realization.schedule  # power-gap interval l runs level l
        t = 0 if schedule is None else schedule.time_at(draw(st.integers(1, 6)))
        (table,) = TransitionTable.from_levels(realization.level_at(t), realization.nodes, n)
        return table
    if kind in ("lazy", "walk"):
        return (LazyRandomWalkPolicy if kind == "lazy" else RandomWalkPolicy)(g).chain
    if kind == "identity":
        return TransitionTable([[1.0]] * n, [[s] for s in range(n)])
    weights = st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(any)
    rows = [np.array(draw(weights), dtype=float) for _ in range(n)]
    return TransitionTable([cumulative_row(w / w.sum()) for w in rows], [list(range(n))] * n)


class OnCuts:
    """A generator stand-in whose uniforms are a table's cuts below 1.0,
    the floats just below them, 0.0 and the largest float below 1.0: the
    ties at which a class boundary off by one would show."""

    def __init__(self, cuts, seed):
        below = [np.nextafter(c, 0.0) for c in cuts]
        self.pool = np.array(sorted({0.0, *cuts, *below} - {1.0}))
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        return self.rng.choice(self.pool, size)


def buffered_stream(table, seed, buffered, on_cuts):
    """A seeded stream, drawing on the table's cuts if `on_cuts`, after
    `buffered` next() draws."""
    if on_cuts:
        cuts = {v for row in table.cum if row is not None for v in row}
        stream = UniformStream(OnCuts(cuts, seed))
    else:
        stream = make_stream(seed)
    for _ in range(buffered):
        stream.next()
    return stream


def walk_from(table, start, count, seed, buffered, on_cuts=False):
    """The path and last state of `count` transitions from `start`, after
    `buffered` next() draws, and the stream's next uniform after the run."""
    stream = buffered_stream(table, seed, buffered, on_cuts)
    out = np.empty(count, dtype=np.int64)
    last = _advance(table, start, stream, count, out, 0)
    return out, last, stream.next()


def bisect_from(table, start, count, seed, buffered, on_cuts=False):
    """`walk_from` by the table's definition: one bisection per uniform."""
    stream = buffered_stream(table, seed, buffered, on_cuts)
    node, path = start, []
    for u in stream.take_array(count).tolist():
        node = table.succ[node][bisect_right(table.cum[node], u)]
        path.append(node)
    return np.array(path, dtype=np.int64), node, stream.next()


class TestCompiledWalk:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        table=small_tables(),
        count=st.one_of(
            st.sampled_from([0, 1, 2, 7, 255, 4097, 32768, 32771, _BLOCK + 5, 70_001]),
            st.integers(0, 5000),
        ),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.sampled_from([0, 1, 5, _SINGLES - 1, _SINGLES + 3]),
        on_cuts=st.booleans(),
    )
    def test_walk_replays_bisect_loop(self, table, count, seed, buffered, on_cuts):
        n = len(table.cum)
        cuts = {v for row in table.cum if row is not None for v in row}
        for start in (s for s in range(n) if s in table):
            reference = bisect_from(table, start, count, seed, buffered, on_cuts)
            got = walk_from(table, start, count, seed, buffered, on_cuts)
            assert got[0].tobytes() == reference[0].tobytes()
            assert got[1:] == reference[1:]
        if len(cuts) == 1:
            assert table._walk is None  # the identity: one class, nothing to compile
        elif count // 8 >= _WALK_ENTRIES:
            # n <= 5 states with at most 25 cuts always fit m = 2
            assert table._walk is not None and table._walk.m >= 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_small_kernels_compile(self, n):
        g = path_graph([f"s{i}" for i in range(n)])
        masses = np.arange(1.0, n + 1)
        table = kernel_table(build_kernel(Distribution(masses / masses.sum()), g), g.labels)
        walk_from(table, 0, 150_000, 3, 0)
        assert table._walk.m >= 2
        assert n * table._walk.cuts.size ** table._walk.m <= _WALK_ENTRIES

    def test_walk_makes_no_reference_cycle(self):
        g = path_graph(["a", "b", "c"])
        table = kernel_table(build_kernel(dist(0.5, 0.3, 0.2), g), g.labels)
        gc.collect()
        gc.disable()
        try:
            walk_from(table, 0, 50_000, 1, 0)
            assert table._walk is not None
            del table
            assert gc.collect() == 0  # the walk's rows were freed with it
        finally:
            gc.enable()

    def test_scheduled_run_keeps_walks_within_its_budget(self, example_graph):
        realization = Realization(dist(0.5, 0.5, 0, 0), example_graph, Schedule.power_gap())
        steps = 200_000
        realization.run(0, steps, make_stream(8), np.empty(steps, dtype=np.int64))
        counts = dict((level, count) for count, level in realization._runs(0, steps - 1))
        walks = 0
        for level, table in realization._tables.items():
            if table._walk is not None:
                walks += 1
                size = len(table.cum) * table._walk.cuts.size ** table._walk.m
                assert size <= min(_WALK_ENTRIES, counts[level] // 8)
        assert walks > 0


@st.composite
def holding_tables(draw):
    """A table over 2-40 states, most of which mostly hold: a kernel level
    of a target with masses from about 1e-6 to 1, a smoothed level of such
    a target with zero masses (its rows outside the chain's states are
    empty), the dense rows of such a kernel as `run_homogeneous` tabulates
    them, the identity, or weight rows with their zeros kept, some of whose
    only nonzero entry is the diagonal and some heavy on it."""
    kind = draw(st.sampled_from(["kernel", "smoothed", "dense", "identity", "diagonal"]))
    n = draw(st.integers(2, 40))
    labels = [f"s{i}" for i in range(n)]
    g = random_connected_graph(random.Random(draw(st.integers(0, 2**16))), labels, 0.1)
    scale = st.floats(0.0, 6.0)
    masses = 10.0 ** -np.array(draw(st.lists(scale, min_size=n, max_size=n)))
    if kind == "kernel":
        (table,) = TransitionTable.from_levels(
            Realization(Distribution(masses / masses.sum()), g).level_at(0), range(n), n
        )
        return table
    if kind == "smoothed":
        masses[draw(st.lists(st.integers(0, n - 1), max_size=n - 2))] = 0.0
        realization = Realization(Distribution(masses / masses.sum()), g, Schedule.power_gap())
        schedule = realization.schedule
        t = 0 if schedule is None else schedule.time_at(draw(st.integers(1, 6)))
        (table,) = TransitionTable.from_levels(realization.level_at(t), realization.nodes, n)
        return table
    if kind == "dense":
        kernel = build_kernel(Distribution(masses / masses.sum()), g)
        return TransitionTable(*simulate._table_rows(
            np.full(n, n), kernel.matrix.ravel(), np.tile(np.arange(n), n)
        ))
    if kind == "identity":
        return TransitionTable([[1.0]] * n, [[s] for s in range(n)])
    rows = []
    for s in range(n):
        weights = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), float)
        weights[s] = draw(st.sampled_from([0, 1, 100, 10**4, -1]))
        if weights[s] < 0 or not weights.any():  # the diagonal alone
            weights[:] = np.arange(n) == s
        rows.append(cumulative_row(weights / weights.sum()))
    return TransitionTable(rows, [list(range(n))] * n)


class TestHoldSkip:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        table=holding_tables(),
        count=st.one_of(
            st.sampled_from([0, 1, 31, 32, 33, 40, 4097, _BLOCK - 1, _BLOCK + 5, 2 * _BLOCK + 3]),
            st.integers(0, 5000),
        ),
        starts=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.integers(0, _SINGLES + 3),
        on_cuts=st.booleans(),
    )
    def test_skip_replays_bisect_loop(self, table, count, starts, seed, buffered, on_cuts):
        """The stream may draw exactly each hold interval's ends a and b, the
        floats just below them, 0.0 and 1 - 2**-53: an interval off by one
        float would show there."""
        states = [s for s in range(len(table.cum)) if s in table]
        for start in (states[i % len(states)] for i in starts):
            reference = bisect_from(table, start, count, seed, buffered, on_cuts)
            with mock.patch.object(simulate, "_WALK_ENTRIES", 0):
                got = walk_from(table, start, count, seed, buffered, on_cuts)
            assert got[0].tobytes() == reference[0].tobytes()
            assert got[1:] == reference[1:]
        if count >= max(simulate._HOLD_RUN, len(table.cum)):
            assert table._holds is not None
        else:
            assert table._holds is None

    def test_chain_run_shape_skips_holds(self):
        """A Dirichlet target on a 160-state random tree plus 80 chords, the
        shape of the benchmark's connected chains, mostly holds: its table
        reads hold intervals and the run skips them, with the bisections'
        path."""
        rng = np.random.default_rng(160)
        labels = [f"v{i}" for i in range(160)]
        edges = {(int(rng.integers(0, i)), i) for i in range(1, 160)}
        while len(edges) < 239:
            edges.add(tuple(sorted(rng.choice(160, size=2, replace=False).tolist())))
        g = Graph(labels, [(labels[a], labels[b]) for a, b in edges])
        target = Distribution(rng.dirichlet(np.ones(160)))
        realization = Realization(target, g)
        out = np.empty(20_000, dtype=np.int64)
        realization.run(7, out.size, make_stream(3), out)
        table = realization._tables[0]
        assert len(table._holds) > 80
        reference = bisect_from(table, 7, out.size - 1, 3, 0)
        assert out[0] == 7 and out[1:].tobytes() == reference[0].tobytes()

    def test_short_runs_on_large_tables_read_no_holds(self):
        """A 2000-step smoothed run on a 4000-node ring has no segment as
        long as its 4000 states, so no table reads its hold intervals."""
        n = 4000
        labels = [f"v{i}" for i in range(n)]
        ring = Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
        masses = np.zeros(n)
        masses[[0, 1000, 2000]] = 1 / 3
        realization = Realization(Distribution(masses), ring, parse_schedule("powergap:1:3", n))
        holds, holds_for = [], simulate._holds_for

        def spy(table, count):
            holds.append(holds_for(table, count))
            return holds[-1]

        with mock.patch.object(simulate, "_holds_for", spy):
            realization.run(0, 2000, make_stream(4), np.empty(2000, dtype=np.int64))
        assert holds and all(h == {} for h in holds)
        assert all(table._holds is None for table in realization._tables.values())

    @pytest.mark.parametrize(
        "target, graph",
        [
            (dist(0.5, 0.5), path_graph(["heads", "tails"])),
            (dist(*[0.2] * 5), path_graph(["a", "b", "c", "d", "e"])),
        ],
        ids=["pennies", "path5"],
    )
    def test_walk_tables_read_no_holds(self, target, graph):
        """A table that compiles a walk never reads its hold intervals."""
        realization = Realization(target, graph)
        realization.run(0, 150_000, make_stream(5), np.empty(150_000, dtype=np.int64))
        (table,) = realization._tables.values()
        assert table._walk is not None and table._holds is None


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
        kernel = level_kernel(realization.level_at(steps - 2), example_graph.labels)
        assert len(sched._times) <= 50 + 2
        # the same schedule without an open-ended last interval, walked one by one
        walked = Schedule("counterexample", ((l, 2 ** min(l, 50)) for l in count(1)))
        reference = Realization(mu, example_graph, walked)
        prefix = np.empty(5000, dtype=np.int64)
        reference.run(1, prefix.size, make_stream(3), prefix)
        assert np.array_equal(states[: prefix.size], prefix)
        last = level_kernel(reference.level_at(prefix.size), example_graph.labels)
        assert np.array_equal(kernel.matrix, last.matrix)

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
        labels = example_graph.labels
        for k in (1, 2, 4):
            a = level_kernel(realization.level_at(sched.time_at(k)), labels)
            b = build_kernel(smooth(mu, k).smoothed, example_graph)
            assert np.array_equal(a.matrix, b.matrix)
            assert a.state_labels == b.state_labels
            end = sched.time_at(k + 1) - 1
            assert np.array_equal(level_kernel(realization.level_at(end), labels).matrix, a.matrix)

    def test_counterexample_top_state_self_transition(self, example_graph):
        mu = dist(0.5, 0.5, 0.0, 0.0)
        realization = Realization(mu, example_graph, Schedule.counterexample())
        for l in range(1, 20):
            kernel = level_kernel(realization.level_at(l), example_graph.labels)
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
        labels = [g.labels[i] for i in realization.nodes]
        kernel = level_kernel(realization.level_at(sched.time_at(3)), labels)
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
        levels = simulate.kernel_levels

        def counted(g, masses):
            calls.append(len(masses))
            return levels(g, masses)

        with mock.patch.object(simulate, "kernel_levels", counted):
            for mu in (dist(0, 0, 1, 0), dist(0.5, 0, 0.5, 0), dist(0.5, 0.5, 0, 0)):
                Realization(mu, example_graph, Schedule.power_gap())
            ConstantPolicy(example_graph, 2)
            assert calls == []
            Realization(dist(0.5, 0, 0.5, 0), example_graph).level_at(0)
        assert calls == [1]

    def test_level_cache_holds_one_batch(self, example_graph):
        """With batches of 5 levels, 2000 steps of `powergap:1:0` cross about
        2000 levels, and the realization keeps the tables of one batch."""
        realization = Realization(dist(0.5, 0.5, 0, 0), example_graph, Schedule.power_gap(1, 0))
        entries = len(realization.nodes) + realization._chain_graph.indices.size
        out = np.empty(2000, dtype=np.int64)
        with mock.patch.object(simulate, "LEVEL_BLOCK", 5 * entries):
            realization.run(0, out.size, make_stream(2), out)
        assert len(realization._tables) <= 5

    @pytest.mark.parametrize("schedule", ["powergap:1:3", "counterexample", "powergap:1:0"])
    def test_batch_size_leaves_the_path_unchanged(self, example_graph, schedule):
        """Batches of one level, of a few and of every level give the same
        path, last state and next uniform, over two runs in a row."""

        def two_runs(block):
            realization = Realization(
                dist(0.5, 0.5, 0, 0), example_graph, parse_schedule(schedule, 4)
            )
            stream = make_stream(6)
            out = np.empty(6000, dtype=np.int64)
            with mock.patch.object(simulate, "LEVEL_BLOCK", block):
                realization.run(0, 3000, stream, out)
                realization.run(int(out[2999]), 3001, stream, out[2999:], t0=2999)
            return out.tobytes(), stream.next()

        reference = two_runs(simulate.LEVEL_BLOCK)
        assert two_runs(1) == reference
        assert two_runs(64) == reference

    def test_second_run_builds_nothing(self, example_graph):
        """A second run over levels the first one tabulated and compiled
        builds no kernel level and compiles no walk: replicas compile once
        per policy."""
        realization = Realization(dist(0.5, 0.5, 0, 0), example_graph, Schedule.power_gap())
        out = np.empty(50_000, dtype=np.int64)
        realization.run(0, out.size, make_stream(1), out)
        assert any(table._walk is not None for table in realization._tables.values())
        with (
            mock.patch.object(simulate, "kernel_levels", wraps=simulate.kernel_levels) as levels,
            mock.patch.object(simulate, "_Walk", wraps=simulate._Walk) as walks,
        ):
            realization.run(0, out.size, make_stream(2), out)
        assert levels.call_count == 0 and walks.call_count == 0


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

    def test_prefix_counts_bounds(self):
        trace = run_homogeneous(TWO_STATE_KERNEL, dist(0.5, 0.5), 10, seed=1)
        assert np.array_equal(trace.prefix_counts(0), [0, 0])
        for t in (-1, trace.length + 1):
            with pytest.raises(ValueError):
                trace.prefix_counts(t)


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
