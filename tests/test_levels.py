"""Kernel levels built in batches against the per-edge loop construction.

`loop_kernel` and `loop_table` are the kernel construction and the table
conversion written as plain loops, one edge and one row at a time. They are
kept here as the reference: the vectorized core must reproduce them bit for
bit, since every chain artifact depends on the exact floats.
"""

import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphgame import simulate
from graphgame.chains import (
    CaseLabel,
    KernelCore,
    Schedule,
    TransitionKernel,
    build_kernel,
    chain_case,
    smooth,
)
from graphgame.graphs import Graph, induced_subgraph
from graphgame.mixed import Distribution
from graphgame.simulate import Realization, TransitionTable, make_stream, run_nonhomogeneous


def loop_kernel(target: Distribution, g: Graph) -> TransitionKernel:
    """The kernel construction one edge at a time: each row's load summed in
    ascending neighbour order, p the least 1 / (2 load)."""
    n = g.n
    if n == 1:
        return TransitionKernel(np.array([[1.0]]), (g.labels[0],), 0.0)
    order = sorted(range(n), key=lambda i: (-target.masses[i], i))
    position = {node: pos for pos, node in enumerate(order)}
    mass = [float(target.masses[i]) for i in order]
    load = np.zeros(n)
    for pos, node in enumerate(order):
        acc = 0.0
        for nb in sorted(g.neighbors(node)):
            nb_pos = position[nb]
            acc += 1.0 if nb_pos > pos else mass[nb_pos] / mass[pos]
        load[pos] = acc
    p = float(min(1.0 / (2.0 * d) for d in load))
    matrix = np.zeros((n, n))
    for pos, node in enumerate(order):
        for nb in sorted(g.neighbors(node)):
            nb_pos = position[nb]
            if nb_pos > pos:
                matrix[pos, nb_pos] = p
            else:
                matrix[pos, nb_pos] = mass[nb_pos] / mass[pos] * p
        matrix[pos, pos] = 1.0 - p * load[pos]
    return TransitionKernel(matrix, tuple(g.labels[i] for i in order), p)


def loop_table(kernel: TransitionKernel, labels) -> tuple[list, list]:
    """The (cum, succ) rows of `kernel` over `labels`, one row at a time:
    the dense running sum at the nonzero columns, guarded by 1.0."""
    index = {lab: i for i, lab in enumerate(labels)}
    node_of_pos = [index[lab] for lab in kernel.state_labels]
    cum: list = [None] * len(labels)
    succ: list = [None] * len(labels)
    full = np.cumsum(kernel.matrix, axis=1)
    for pos, node in enumerate(node_of_pos):
        cols = np.flatnonzero(kernel.matrix[pos])
        row = full[pos, cols]
        row[-1] = 1.0
        cum[node] = row.tolist()
        succ[node] = [node_of_pos[c] for c in cols]
    return cum, succ


def shuffled_component(rng: random.Random, labels: list[str], extra: float) -> list:
    """Edges of a random spanning tree plus chords over `labels`, listed in
    a shuffled order with shuffled endpoints."""
    edges = {(labels[rng.randrange(i)], labels[i]) for i in range(1, len(labels))}
    for i in range(len(labels)):
        for j in range(i + 2, len(labels)):
            if rng.random() < extra:
                edges.add((labels[i], labels[j]))
    edges = [e if rng.random() < 0.5 else e[::-1] for e in sorted(edges)]
    rng.shuffle(edges)
    return edges


class TestKernelCore:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 40),
        count=st.integers(1, 5),
        extra=st.sampled_from([0.0, 0.1, 0.4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_levels_match_the_loop(self, n, count, extra, seed):
        """Strictly positive targets on shuffled connected graphs: the dense
        kernel and every level's table equal the loop construction's."""
        rng = random.Random(seed)
        labels = [f"v{i}" for i in range(n)]
        g = Graph(rng.sample(labels, n), shuffled_component(rng, labels, extra))
        draws = np.random.default_rng(seed)
        # a wide dynamic range and some exact ties among the masses
        stack = draws.random((count, n)) ** draws.integers(1, 40) + 1e-12
        stack[:, : n // 3] = stack[:, :1]
        stack /= stack.sum(axis=1, keepdims=True)
        levels = KernelCore(g).levels(stack)
        tables = TransitionTable.from_levels(levels, range(n), n)
        for row, table in zip(stack, tables):
            target = Distribution(row)
            reference = loop_kernel(target, g)
            kernel = build_kernel(target, g)
            assert np.array_equal(kernel.matrix, reference.matrix)
            assert kernel.state_labels == reference.state_labels
            assert kernel.p == reference.p
            assert (table.cum, table.succ) == loop_table(reference, g.labels)

    def test_single_state(self):
        kernel = build_kernel(Distribution(np.array([1.0])), Graph(["a"]))
        assert kernel.matrix.tolist() == [[1.0]] and kernel.p == 0.0

    def test_vanishing_masses(self):
        """A 1e-300 mass keeps every entry positive; at 1e-308, 2 * load
        overflows, p is 0.0, and each row keeps only its diagonal."""
        labels = ["a", "b", "c"]
        g = Graph(labels, [("b", "c"), ("a", "b")])
        stack = np.array([[0.5, tiny, 0.5 - tiny] for tiny in (1e-300, 1e-308)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tables = TransitionTable.from_levels(KernelCore(g).levels(stack), range(3), 3)
            references = [loop_table(loop_kernel(Distribution(m), g), labels) for m in stack]
        for table, reference in zip(tables, references):
            assert (table.cum, table.succ) == reference
        assert [len(row) for row in tables[0].succ] == [2, 3, 2]
        assert tables[1].succ == [[0], [1], [2]]
        assert tables[1].cum == [[1.0]] * 3


class TestSmoothingLevels:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        n=st.integers(3, 40),
        others=st.integers(0, 6),
        ks=st.lists(
            st.one_of(st.integers(1, 64), st.integers(1, 2**50), st.just(2**50)),
            min_size=1,
            max_size=12,
        ),
        block=st.sampled_from([1, 64, simulate.LEVEL_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_tables_match_per_level_tables(self, n, others, ks, block, seed):
        """Smoothing levels up to the counterexample cap, on a component
        with shuffled edges that may sit next to another component: the
        tables a Realization builds in batches equal the per-level tables on
        the component's graph list for list, whatever the batch size."""
        rng = random.Random(seed)
        labels = [f"v{i}" for i in range(n)]
        rest = [f"w{i}" for i in range(others)]
        edges = shuffled_component(rng, labels, 0.15)
        if rest:
            edges += shuffled_component(rng, rest, 0.3)
        nodes = labels + rest
        rng.shuffle(nodes)
        g = Graph(nodes, edges)
        component = [g.index(lab) for lab in labels]
        apart = [
            (a, b) for a in component for b in component if a < b and not g.adjacent_indices(a, b)
        ]
        assume(apart)  # a complete component has no disconnected support
        a, b = rng.choice(apart)
        masses = np.zeros(g.n)
        support = sorted({a, b, *rng.sample(component, min(3, n))})
        masses[support] = np.random.default_rng(seed).random(len(support)) + 0.05
        mu = Distribution(masses / masses.sum())
        if chain_case(g, mu)[0] is not CaseLabel.SUPPORT_IN_COMPONENT:
            masses[:] = 0.0
            masses[[a, b]] = 0.5
            mu = Distribution(masses)
        realization = Realization(mu, g, Schedule.power_gap())
        sizes = []
        levels = KernelCore.levels

        def counted(core, masses):
            sizes.append(len(masses))
            return levels(core, masses)

        with mock.patch.object(simulate, "LEVEL_BLOCK", block):
            with mock.patch.object(KernelCore, "levels", counted):
                realization._build_tables(ks)
        unique = list(dict.fromkeys(ks))
        step = max(1, block // realization._core.cols.size)
        assert sizes == [min(step, len(unique) - i) for i in range(0, len(unique), step)]
        # the component's graph, built independently of the realization
        component = induced_subgraph(g, labels) if rest else g
        # every load is summed in the neighbour order of the `cols` layout
        assert np.array_equal(realization._core.cols, KernelCore(component).cols)
        restricted = Distribution(mu.masses[[g.index(lab) for lab in component.labels]])
        for k in unique:
            table = realization._tables[k]
            kernel = build_kernel(smooth(restricted, k).smoothed, component)
            expected = TransitionTable.from_kernel(kernel, g.labels)
            assert table.cum == expected.cum and table.succ == expected.succ
            reference = loop_kernel(smooth(restricted, k).smoothed, component)
            assert (table.cum, table.succ) == loop_table(reference, g.labels)

    def test_run_builds_its_levels_in_one_batch(self, example_graph):
        """200 counterexample steps visit the levels 2**1 .. 2**50: one run
        builds all 50 in one call, and a second run builds none."""
        mu = Distribution(np.array([0.5, 0.5, 0.0, 0.0]))
        realization = Realization(mu, example_graph, Schedule.counterexample())
        calls = []
        levels = KernelCore.levels

        def counted(core, masses):
            calls.append(len(masses))
            return levels(core, masses)

        out = np.empty(200, dtype=np.int64)
        with mock.patch.object(KernelCore, "levels", counted):
            realization.run(1, out.size, make_stream(4), out)
            realization.run(1, out.size, make_stream(5), out)
        assert calls == [50]

    def test_smoothing_run_memory_is_bounded(self):
        """20 000 steps on a 1000-node ring visit 17 smoothing levels; no
        level is held as a dense 1000 x 1000 kernel (8 MB each)."""
        n = 1000
        labels = [f"v{i}" for i in range(n)]
        g = Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
        masses = np.zeros(n)
        masses[[0, n // 2]] = 0.5
        mu = Distribution(masses)
        tracemalloc.start()
        try:
            trace = run_nonhomogeneous(mu, g, Schedule.power_gap(), mu, 20_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.length == 20_000
        assert peak < 32 * 2**20
