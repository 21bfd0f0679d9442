import random
import tracemalloc
from itertools import combinations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame.chains import KernelCore
from graphgame.graphs import (
    Graph,
    GraphError,
    TUPLE_SEP,
    complete_graph,
    connected_components,
    cycle_graph,
    edgeless_graph,
    factorize,
    induced_subgraph,
    path_graph,
    star_graph,
    strong_product,
)

from conftest import edge_labels, random_graph


PATH_ABC = path_graph(["a", "b", "c"])


def adjacent(g: Graph, u: str, v: str) -> bool:
    """True iff {u, v} is an edge of g or u == v, read through the indices."""
    return g.adjacent_indices(g.index(u), g.index(v))


def four_cycle_over_axes() -> Graph:
    nodes = ["s1|s1", "s1|s2", "s2|s1", "s2|s2"]
    edges = [
        ("s1|s1", "s2|s1"),
        ("s1|s1", "s1|s2"),
        ("s1|s2", "s2|s2"),
        ("s2|s1", "s2|s2"),
    ]
    return Graph(nodes, edges)


class TestAdjacency:
    @pytest.mark.parametrize(
        "u, v, expected",
        [("a", "b", True), ("a", "a", True), ("a", "c", False)],
    )
    def test_path_examples(self, u, v, expected):
        assert adjacent(PATH_ABC, u, v) == expected

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            adjacent(PATH_ABC, "a", "z")

    def test_symmetric_and_reflexive(self):
        rng = random.Random(11)
        for _ in range(20):
            labels = [f"n{i}" for i in range(rng.randint(1, 7))]
            g = random_graph(rng, labels)
            for u in labels:
                assert adjacent(g, u, u)
                for v in labels:
                    assert adjacent(g, u, v) == adjacent(g, v, u)
            src, dst = np.divmod(np.arange(g.n * g.n), g.n)
            expected = [g.adjacent_indices(i, j) for i, j in zip(src.tolist(), dst.tolist())]
            assert g.allows(src, dst).tolist() == expected
            for bad in (-1, g.n):
                others = np.arange(-1, g.n + 1)
                assert not g.allows(np.full_like(others, bad), others).any()
                assert not g.allows(others, np.full_like(others, bad)).any()

    def test_rejects_stored_self_loop(self):
        with pytest.raises(GraphError):
            Graph(["a"], [("a", "a")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(["a", "b"], [("a", "b"), ("b", "a")])


def reference_graph(labels, edges):
    """The per-edge constructor that the edge arrays replace, kept as the
    reference: the first bad edge in the list raises, checked as unknown
    u, unknown v, self-loop, duplicate. Returns the edge set and the
    neighbour sets."""
    index = {lab: i for i, lab in enumerate(labels)}
    neighbors = [set() for _ in labels]
    edge_set = set()
    for u, v in edges:
        if u not in index:
            raise GraphError(f"unknown node {u!r} in edge")
        if v not in index:
            raise GraphError(f"unknown node {v!r} in edge")
        i, j = index[u], index[v]
        if i == j:
            raise GraphError(f"self-loop on {u!r} (self-adjacency is implicit)")
        key = (i, j) if i < j else (j, i)
        if key in edge_set:
            raise GraphError(f"duplicate edge {{{u!r}, {v!r}}}")
        edge_set.add(key)
        neighbors[i].add(j)
        neighbors[j].add(i)
    return frozenset(edge_set), [frozenset(s) for s in neighbors]


def raised(build, *args):
    try:
        build(*args)
    except GraphError as exc:
        return str(exc)
    return None


NODES = ["a", "b", "c", "d", "e"]
PATH_EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
BAD_EDGES = {
    "unknown-u": ("x", "b"),
    "unknown-v": ("a", "y"),
    "both-unknown": ("x", "y"),
    "unknown-self-loop": ("x", "x"),
    "self-loop": ("c", "c"),
    "duplicate": ("a", "b"),
    "reversed-duplicate": ("c", "b"),
}


class TestEdgeArrays:
    @pytest.mark.parametrize("position", range(len(PATH_EDGES) + 1))
    @pytest.mark.parametrize("kind", sorted(BAD_EDGES))
    def test_error_text_for_each_bad_edge_at_each_position(self, kind, position):
        edges = PATH_EDGES[:position] + [BAD_EDGES[kind]] + PATH_EDGES[position:]
        want = raised(reference_graph, NODES, edges)
        assert want is not None
        assert raised(Graph, NODES, edges) == want

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        n=st.integers(0, 6),
        ends=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14),
    )
    def test_matches_reference_constructor(self, n, ends):
        """Labels past the node count are unknown; the first bad edge names
        the error, and a good edge list gives the same edges and neighbours."""
        labels = [f"n{i}" for i in range(n)]
        edges = [(f"n{i}", f"n{j}") for i, j in ends]
        want = raised(reference_graph, labels, edges)
        assert raised(Graph, labels, edges) == want
        if want is not None:
            return
        g = Graph(labels, edges)
        edge_set, neighbors = reference_graph(labels, edges)
        assert g.edges.tolist() == sorted(map(list, edge_set))
        assert all(g.neighbors(i) == tuple(sorted(neighbors[i])) for i in range(n))
        assert all(
            g.indices[g.indptr[i] : g.indptr[i + 1]].tolist() == sorted(neighbors[i])
            for i in range(n)
        )
        reversed_graph = Graph(labels, reversed(edges))
        assert g == reversed_graph and hash(g) == hash(reversed_graph)

    @pytest.mark.parametrize("seed", range(3))
    def test_neighbor_order_ignores_edge_order(self, seed):
        """One graph with its edges listed sorted and shuffled, endpoints
        swapped at random: every node's neighbours are the same tuple, its
        ascending slice of `indices`, and `KernelCore` lays out the same
        ascending rows, so kernel sums are a function of the graph."""
        rng = random.Random(seed)
        labels = [f"n{i}" for i in range(300)]
        edges = [
            (labels[i], labels[j]) for i in range(300) for j in range(i + 1, 300)
            if rng.random() < 0.03
        ]
        shuffled = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(shuffled)
        a, b = Graph(labels, edges), Graph(labels, shuffled)
        assert all(a.neighbors(i) == b.neighbors(i) for i in range(300))
        cols = KernelCore(a).cols
        assert np.array_equal(cols, KernelCore(b).cols)
        for i in range(300):
            nbrs = b.neighbors(i)
            assert type(nbrs) is tuple
            assert nbrs == tuple(b.indices[b.indptr[i] : b.indptr[i + 1]].tolist())
            assert cols[i, : len(nbrs)].tolist() == sorted(nbrs) == list(nbrs)


class TestComponents:
    def test_isolated(self):
        g = edgeless_graph(["a", "b"])
        assert connected_components(g) == [frozenset({"a"}), frozenset({"b"})]

    def test_path_connected(self):
        assert connected_components(PATH_ABC) == [frozenset({"a", "b", "c"})]

    def test_example_graph_single_component(self, example_graph):
        comps = connected_components(example_graph)
        assert len(comps) == 1
        assert len(comps[0]) == 4

    def test_order_by_smallest_index(self):
        g = Graph(["d", "c", "b", "a"], [("d", "b"), ("c", "a")])
        assert connected_components(g) == [
            frozenset({"d", "b"}),
            frozenset({"c", "a"}),
        ]

    def test_matches_networkx(self):
        """The CSR walk finds networkx's components on sparse random graphs,
        in the order of each component's smallest node index."""
        rng = random.Random(11)
        for _ in range(20):
            labels = [f"n{i}" for i in range(rng.randint(1, 40))]
            g = random_graph(rng, labels, p_edge=0.05)
            ref = nx.Graph()
            ref.add_nodes_from(labels)
            ref.add_edges_from(map(tuple, edge_labels(g)))
            expected = sorted(map(frozenset, nx.connected_components(ref)),
                              key=lambda c: min(map(g.index, c)))
            assert connected_components(g) == expected


class TestInducedSubgraph:
    def test_path_endpoints(self):
        sub = induced_subgraph(PATH_ABC, {"a", "c"})
        assert sub.labels == ("a", "c")
        assert edge_labels(sub) == frozenset()

    def test_example_graph_support(self, example_graph):
        sub = induced_subgraph(example_graph, {"s1", "s2"})
        assert sub.n == 2
        assert not edge_labels(sub)
        assert len(connected_components(sub)) == 2

    def test_identity(self):
        rng = random.Random(5)
        for _ in range(10):
            labels = [f"n{i}" for i in range(rng.randint(1, 6))]
            g = random_graph(rng, labels)
            assert induced_subgraph(g, g.labels) == g

    def test_unknown_member(self):
        with pytest.raises(GraphError):
            induced_subgraph(PATH_ABC, {"a", "zz"})

    def test_matches_networkx(self):
        """The node mask keeps exactly networkx's induced edges and the
        members in the parent's node order, whatever order they come in."""
        rng = random.Random(12)
        for _ in range(20):
            labels = [f"n{i}" for i in range(rng.randint(1, 30))]
            g = random_graph(rng, labels, p_edge=0.2)
            members = rng.sample(labels, rng.randint(1, len(labels)))
            ref = nx.Graph(list(map(tuple, edge_labels(g)))).subgraph(members)
            sub = induced_subgraph(g, members)
            assert sub.labels == tuple(lab for lab in labels if lab in set(members))
            assert edge_labels(sub) == frozenset(map(frozenset, ref.edges))


def brute_strong_product_edges(factors):
    """Independent pairwise check of the per-coordinate adjacency rule."""
    combos = list(product(*(f.labels for f in factors)))
    edges = set()
    for x, y in combinations(combos, 2):
        ok = True
        for h, f in enumerate(factors):
            if x[h] != y[h] and frozenset((x[h], y[h])) not in edge_labels(f):
                ok = False
                break
        if ok:
            edges.add(frozenset((TUPLE_SEP.join(x), TUPLE_SEP.join(y))))
    return edges


property_test = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def factor_lists(draw, min_factors=1, max_factors=3, min_nodes=1, max_nodes=5):
    """Random factor graphs with per-factor labels, edges drawn pairwise."""
    factors = []
    for h in range(draw(st.integers(min_factors, max_factors))):
        labels = [f"f{h}n{i}" for i in range(draw(st.integers(min_nodes, max_nodes)))]
        pairs = list(combinations(labels, 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        factors.append(Graph(labels, [e for e, k in zip(pairs, keep) if k]))
    return factors


def networkx_strong_product_edges(factors):
    """Edge set of networkx's strong product, folded left over the factors."""
    def to_nx(f):
        g = nx.Graph()
        g.add_nodes_from((lab,) for lab in f.labels)
        g.add_edges_from(((u,), (v,)) for u, v in map(tuple, edge_labels(f)))
        return g

    prod = to_nx(factors[0])
    for f in factors[1:]:
        prod = nx.relabel_nodes(
            nx.strong_product(prod, to_nx(f)), lambda node: node[0] + node[1]
        )
    return {frozenset(TUPLE_SEP.join(node) for node in e) for e in prod.edges}


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    order = list(g.labels)
    rng.shuffle(order)
    return Graph(order, map(tuple, edge_labels(g)))


class TestStrongProduct:
    @property_test
    @given(factor_lists())
    def test_matches_networkx(self, factors):
        prod = strong_product(factors)
        assert prod.labels == tuple(
            TUPLE_SEP.join(combo) for combo in product(*(f.labels for f in factors))
        )
        assert edge_labels(prod) == networkx_strong_product_edges(factors)

    def test_k2_k2_is_k4(self):
        k2a = complete_graph(["0", "1"])
        k2b = complete_graph(["x", "y"])
        prod = strong_product([k2a, k2b])
        assert prod.n == 4
        assert len(edge_labels(prod)) == 6

    def test_single_factor_identity(self):
        g = path_graph(["a", "b", "c"])
        assert strong_product([g]) == g

    def test_p2_p2_is_k4(self):
        p2a = path_graph(["a", "b"])
        p2b = path_graph(["c", "d"])
        prod = strong_product([p2a, p2b])
        assert set(prod.labels) == {"a|c", "a|d", "b|c", "b|d"}
        assert edge_labels(prod) == brute_strong_product_edges([p2a, p2b])
        assert len(edge_labels(prod)) == 6

    def test_node_count_and_edges_match_brute_force(self):
        rng = random.Random(23)
        for _ in range(15):
            r = rng.randint(1, 3)
            factors = []
            for h in range(r):
                labels = [f"f{h}n{i}" for i in range(rng.randint(1, 3))]
                factors.append(random_graph(rng, labels))
            prod = strong_product(factors)
            count = 1
            for f in factors:
                count *= f.n
            assert prod.n == count
            assert edge_labels(prod) == brute_strong_product_edges(factors)

    def test_empty_factor_rejected(self):
        with pytest.raises(GraphError):
            strong_product([])


class TestFactorize:
    def test_k4_over_two_axes(self):
        k4 = strong_product([complete_graph(["0", "1"]), complete_graph(["x", "y"])])
        dec = factorize(k4, [["0", "1"], ["x", "y"]])
        assert dec is not None
        assert dec.factors[0] == complete_graph(["0", "1"])
        assert dec.factors[1] == complete_graph(["x", "y"])

    def test_four_cycle_not_decomposable(self):
        g = four_cycle_over_axes()
        assert factorize(g, [["s1", "s2"], ["s1", "s2"]]) is None

    def test_round_trip_p2_p3(self):
        p2 = path_graph(["a", "b"])
        p3 = path_graph(["x", "y", "z"])
        prod = strong_product([p2, p3])
        dec = factorize(prod, [p2.labels, p3.labels])
        assert dec is not None
        assert dec.factors == (p2, p3)

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(40):
            r = rng.randint(1, 3)
            factors = []
            for h in range(r):
                labels = [f"f{h}n{i}" for i in range(rng.randint(1, 4))]
                factors.append(random_graph(rng, labels))
            prod = strong_product(factors)
            dec = factorize(prod, [f.labels for f in factors])
            assert dec is not None
            assert dec.factors == tuple(factors)

    @property_test
    @given(factor_lists(), st.randoms(use_true_random=False))
    def test_shuffled_node_order_returns_factors(self, factors, rng):
        g = shuffled_copy(strong_product(factors), rng)
        dec = factorize(g, [f.labels for f in factors])
        assert dec is not None
        assert dec.factors == tuple(factors)

    @property_test
    @given(
        factor_lists(min_factors=2, min_nodes=2, max_nodes=4),
        st.randoms(use_true_random=False),
    )
    def test_one_edge_added_or_removed_is_not_a_product(self, factors, rng):
        """Every axis line of a strong product induces its factor. With two
        or more factors of two or more nodes, each axis has two or more
        lines. If each axis has a line that no change touches, any
        factorization would have the original factors, whose product lacks
        the change; otherwise two lines of one axis differ, which no product
        allows."""
        prod = strong_product(factors)
        edges = edge_labels(prod)
        pairs = [frozenset(p) for p in combinations(prod.labels, 2)]
        changed = [edges ^ {rng.choice(pairs)}]
        absent = [p for p in pairs if p not in edges]
        if edges and absent:
            # a moved edge keeps the product's edge count, so only the
            # coordinate-adjacency check can reject it
            changed.append(edges - {rng.choice(sorted(edges, key=sorted))} | {rng.choice(absent)})
        for edge_set in changed:
            g = shuffled_copy(Graph(prod.labels, map(tuple, edge_set)), rng)
            assert factorize(g, [f.labels for f in factors]) is None

    def test_memory_is_linear_in_the_edge_count(self):
        """A 120 x 120 product has 14 400 nodes and 56 882 edges; an N x N
        boolean array alone would take 207 MB."""
        paths = tuple(path_graph([f"{axis}{i}" for i in range(120)]) for axis in "ab")
        tracemalloc.start()
        try:
            g = shuffled_copy(strong_product(paths), random.Random(120))
            dec = factorize(g, [p.labels for p in paths])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000_000
        assert dec is not None and dec.factors == paths

    def test_rejects_partial_product_node_set(self):
        g = Graph(["a|x", "a|y", "b|x"], [])
        with pytest.raises(GraphError):
            factorize(g, [["a", "b"], ["x", "y"]])

    def test_rejects_malformed_tuple(self):
        g = Graph(["a|x", "a|y", "b|x", "junk"], [])
        with pytest.raises(GraphError):
            factorize(g, [["a", "b"], ["x", "y"]])


class TestGenerators:
    def test_shapes(self):
        assert len(edge_labels(path_graph(["a", "b", "c"]))) == 2
        assert len(edge_labels(cycle_graph(["a", "b", "c", "d"]))) == 4
        assert len(edge_labels(star_graph(["hub", "l1", "l2", "l3"]))) == 3
        assert len(edge_labels(complete_graph(["a", "b", "c"]))) == 3
        assert not edge_labels(edgeless_graph(["a", "b"]))
