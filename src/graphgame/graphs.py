"""Finite strategy graphs: adjacency, components, strong products, factorization.

Nodes are ordered string labels, internally dense integer indices in
label-table order. Edges and neighbour lists are kept sorted by index, so no
result depends on the order in which a graph's edges were listed.
Self-loops are never stored: the adjacency predicate treats each node as
adjacent to itself; `Graph.allows` tests arrays of moves on the arc keys.
Products work on the edge arrays, never on a product-sized matrix: an arc
of a strong product is one closed arc (a node to itself, or an edge in
either direction) per factor, so a product of factors with n_h nodes and
e_h edges has N = prod(n_h) nodes and (prod(n_h + 2 e_h) - N) / 2 edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

TUPLE_SEP = "|"


class GraphError(Exception):
    """Malformed graph data or unknown node identifier."""


class NotDecomposableError(GraphError):
    """A coalition-wise factorization was required but does not exist."""


class Graph:
    """Immutable undirected simple graph over ordered, labeled nodes: `edges`
    holds the sorted index pairs (i, j), i < j, and the neighbours of i,
    ascending, are `indices[indptr[i]:indptr[i + 1]]` (compressed sparse rows)."""

    __slots__ = ("labels", "_index", "edges", "indptr", "indices", "_arcs", "_neighbors")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        labels = tuple(nodes)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise GraphError("duplicate node labels")
        pairs = list(edges)
        # node index of each endpoint, -1 for an unknown label
        u_ids = np.array([index.get(u, -1) for u, _ in pairs], dtype=np.intp)
        v_ids = np.array([index.get(v, -1) for _, v in pairs], dtype=np.intp)
        n = len(labels)
        lo, hi = np.minimum(u_ids, v_ids), np.maximum(u_ids, v_ids)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")  # the earliest listed of equal keys first
        keys = keys[order]
        bad = (lo < 0) | (lo == hi)
        bad[order[1:][keys[1:] == keys[:-1]]] = True  # repeats of an earlier edge
        if bad.any():
            k = int(bad.argmax())
            u, v = pairs[k]
            if lo[k] < 0:
                raise GraphError(f"unknown node {(u if u_ids[k] < 0 else v)!r} in edge")
            if lo[k] == hi[k]:
                raise GraphError(f"self-loop on {u!r} (self-adjacency is implicit)")
            raise GraphError(f"duplicate edge {{{u!r}, {v!r}}}")
        self.labels = labels
        self._index = index
        self.edges = np.stack(np.divmod(keys, n), axis=1)
        # a key src * n + dst per direction, sorted: each node's neighbours ascending
        arcs = np.concatenate([keys, self.edges[:, 1] * n + self.edges[:, 0]])
        arcs = arcs[np.argsort(arcs, kind="stable")]
        self.indices = arcs % n
        self.indptr = np.concatenate([[0], np.bincount(arcs // n, minlength=n).cumsum()])
        for array in (self.edges, self.indices, self.indptr):
            array.setflags(write=False)
        self._arcs = self._neighbors = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown node {label!r}") from None

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Strict neighbors of node index i (self excluded), ascending: its
        slice of `indices`. Every node's tuple is filled on first use."""
        if self._neighbors is None:
            bounds, flat = self.indptr.tolist(), self.indices.tolist()
            self._neighbors = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._neighbors[i]

    def adjacent_indices(self, i: int, j: int) -> bool:
        """Adjacent-or-equal predicate on node indices."""
        return i == j or j in self.neighbors(i)

    def allows(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Adjacent-or-equal, elementwise over node-index arrays: each move
        i -> j with i != j is looked up among the sorted arc keys i * n + j,
        built on first use. An index outside [0, n) is never allowed."""
        n = self.n
        if self._arcs is None:
            # a sentinel key n * n past every arc, so no graph has an empty key array
            starts = np.repeat(np.arange(n), np.diff(self.indptr))
            self._arcs = np.append(starts * n + self.indices, n * n)
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        keys = src * n + dst
        # clipped, a key out of range reads some arc; the range test below rejects it
        hit = self._arcs.take(np.searchsorted(self._arcs, keys), mode="clip") == keys
        # viewed unsigned, a negative index is past n too
        return (hit | (src == dst)) & (src.view(np.uint64) < n) & (dst.view(np.uint64) < n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return hash((self.labels, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph({len(self.labels)} nodes, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Decomposition:
    """Per-coalition factor graphs whose strong product equals a joint graph."""

    factors: tuple[Graph, ...]


def connected_components(g: Graph) -> list[frozenset[str]]:
    """Partition of the nodes into maximal connected sets.

    Components are ordered by their smallest node index.
    """
    seen = [False] * g.n
    out: list[frozenset[str]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = [start]
        while stack:
            cur = stack.pop()
            for nb in g.neighbors(cur):
                if not seen[nb]:
                    seen[nb] = True
                    comp.append(nb)
                    stack.append(nb)
        out.append(frozenset(g.labels[i] for i in comp))
    return out


def induced_subgraph(g: Graph, members: Iterable[str]) -> Graph:
    """Subgraph on `members` keeping exactly the edges of g inside it: g
    itself when every node is kept."""
    keep = np.zeros(g.n, dtype=bool)
    keep[[g.index(m) for m in members]] = True
    if keep.all():
        return g
    labels = g.labels
    edges = [(labels[i], labels[j]) for i, j in g.edges[keep[g.edges].all(axis=1)].tolist()]
    return Graph([labels[i] for i in np.flatnonzero(keep).tolist()], edges)


def joint_labels(axes: Sequence[Sequence[str]]) -> list[str]:
    """Tuple labels over the axes in row-major order (last axis fastest)."""
    return [TUPLE_SEP.join(combo) for combo in product(*axes)]


def strong_product(factors: Sequence[Graph]) -> Graph:
    """Product graph: distinct tuples are adjacent iff every coordinate pair is
    adjacent-or-equal in its factor.

    Nodes are the `joint_labels` of the factors. Each combination of one
    closed arc per factor is an arc of the product; its edges are the arcs
    from a lower to a higher node index.
    """
    if not factors:
        raise GraphError("strong product needs at least one factor")
    arcs = []  # per factor, its closed arcs as (source, target) rows
    for f in factors:
        if f.n == 0:
            raise GraphError("strong product factors must be nonempty")
        arcs.append(np.concatenate([np.stack([np.arange(f.n)] * 2, 1), f.edges, f.edges[:, ::-1]]))
    pick = np.indices([len(a) for a in arcs]).reshape(len(arcs), -1)
    ends = np.ravel_multi_index([a[k] for a, k in zip(arcs, pick)], [f.n for f in factors])
    upper = ends[ends[:, 0] < ends[:, 1]].tolist()
    labels = joint_labels([f.labels for f in factors])
    return Graph(labels, [(labels[i], labels[j]) for i, j in upper])


def split_label(label: str) -> tuple[str, ...]:
    return tuple(label.split(TUPLE_SEP))


def factorize(
    g: Graph, axis_spec: Sequence[Sequence[str]]
) -> Decomposition | None:
    """Recover per-axis factor graphs whose strong product equals g.

    The nodes of g must be tuple labels over `axis_spec` and must cover the
    full Cartesian product of the axes. In a strong product, the edges on the
    axis-h line through the first node of `joint_labels` order are factor h's
    edges, so the factors are unique and read off those lines. g is their
    product iff each edge of g is adjacent-or-equal in every coordinate and g
    has as many edges as the product: a subset of that size is all of it.
    Returns None otherwise.
    """
    axes = [tuple(axis) for axis in axis_spec]
    if not axes or any(not axis for axis in axes):
        raise GraphError("axis spec must contain nonempty axes")
    members = [set(axis) for axis in axes]
    if any(len(m) != len(axis) for m, axis in zip(members, axes)):
        raise GraphError("axis labels must be unique")
    expected = math.prod(len(axis) for axis in axes)
    if g.n != expected:
        raise GraphError("joint node set is not the full product of the axes")
    seen: set[tuple[str, ...]] = set()
    for label in g.labels:
        parts = split_label(label)
        if len(parts) != len(axes):
            raise GraphError(f"node {label!r} is not a well-formed tuple")
        for h, part in enumerate(parts):
            if part not in members[h]:
                raise GraphError(f"node {label!r} has unknown coordinate {part!r}")
        seen.add(parts)
    if len(seen) != expected:
        raise GraphError("joint node set is not the full product of the axes")

    position = np.argsort([g.index(label) for label in joint_labels(axes)])
    # per axis, the (E, 2) coordinates of both ends of each edge of g
    coords = np.unravel_index(position[g.edges], [len(axis) for axis in axes])
    # an edge lies on the axis-h line through the first node iff h is its only axis off 0
    off_origin = np.array([c.any(axis=1) for c in coords], dtype=int)
    off_axes = off_origin.sum(axis=0)
    factors = []
    for axis, c, off in zip(axes, coords, off_origin):
        on_line = c[off_axes == off]
        factor = Graph(axis, [(axis[i], axis[j]) for i, j in on_line.tolist()])
        if not factor.allows(c[:, 0], c[:, 1]).all():
            return None
        factors.append(factor)
    if 2 * len(g.edges) != math.prod(f.n + 2 * len(f.edges) for f in factors) - g.n:
        return None
    return Decomposition(factors=tuple(factors))


def path_graph(labels: Sequence[str]) -> Graph:
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def cycle_graph(labels: Sequence[str]) -> Graph:
    if len(labels) < 3:
        raise GraphError("cycle needs at least 3 nodes")
    edges = [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
    return Graph(labels, edges)


def star_graph(labels: Sequence[str]) -> Graph:
    """First label is the hub."""
    return Graph(labels, [(labels[0], leaf) for leaf in labels[1:]])


def complete_graph(labels: Sequence[str]) -> Graph:
    edges = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    return Graph(labels, edges)


def edgeless_graph(labels: Sequence[str]) -> Graph:
    return Graph(labels, [])
