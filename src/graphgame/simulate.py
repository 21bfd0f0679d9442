"""Seeded execution of homogeneous, schedule-driven, and product chains.

A trace records T states X(0..T-1); X(0) is drawn from the initial
distribution in graph node order and the transition at time t uses the
kernel in force at t. Every sampler consumes uniforms from one numpy
Generator per chain in a fixed order (initial draw first, then one per
kernel transition), so replays are byte-identical and product components
are independent spawned streams. `Realization` decides how a target is
realized on a graph and turns uniforms into states for every caller.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice
from operator import getitem, itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .chains import (
    CaseLabel,
    KernelLevels,
    Schedule,
    SupportSplitError,
    TransitionKernel,
    _smoothed_masses,
    chain_case,
    kernel_levels,
)
from .graphs import Graph, joint_labels
from .mixed import Distribution


@dataclass(frozen=True)
class Trace:
    """A realized path over `state_labels`, with exact integer counts."""

    states: np.ndarray
    state_labels: tuple[str, ...]
    seed: int
    counts: np.ndarray
    components: tuple["Trace", ...] | None = None

    @property
    def length(self) -> int:
        return int(self.states.size)

    def prefix_counts(self, t: int) -> np.ndarray:
        """Counts over the first t states only, zeros for t = 0."""
        if not 0 <= t <= self.length:
            raise ValueError("prefix length out of range")
        return np.bincount(self.states[:t], minlength=len(self.state_labels))


_SINGLES = 256  # uniforms buffered for next(); block requests draw exactly


class UniformStream:
    """Float64 uniforms from one generator, drawn only as they are handed out.

    `take_array(n)` serves what `next()` left buffered and draws exactly the
    rest, as one float64 array; `next()` buffers `_SINGLES` draws at a time.
    numpy yields the same values however draws are split into blocks, so
    buffering never changes a value, and the generator runs at most one
    small buffer ahead of the consumer.
    `next` is the `__next__` of a chain over the buffers, so a draw runs no
    Python frame. `_buffers` holds the numpy generator and the current-buffer
    cell, not the stream, so the stream is in no reference cycle."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._current: list = [iter(())]
        self.next: Callable[[], float] = chain.from_iterable(
            _buffers(rng, self._current)
        ).__next__

    def take_array(self, n: int) -> np.ndarray:
        head = list(islice(self._current[0], max(n, 0)))
        rest = self._rng.random(max(n - len(head), 0))
        return np.concatenate([head, rest]) if head else rest


def _buffers(rng: np.random.Generator, current: list):
    """Iterators over successive `_SINGLES`-draw buffers; current[0] is the
    one being served, which `take_array` drains first."""
    while True:
        current[0] = iter(rng.random(_SINGLES).tolist())
        yield current[0]


def make_stream(seed: int) -> UniformStream:
    return UniformStream(np.random.default_rng(np.random.SeedSequence(seed)))


def component_streams(seed: int, count: int) -> list[UniformStream]:
    """Streams for multi-component engines: a single component consumes the
    master stream directly, so a degenerate product replays the plain chain
    byte for byte; several components get independent spawned streams."""
    if count == 1:
        return [make_stream(seed)]
    return [
        UniformStream(np.random.default_rng(child))
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def cumulative_row(masses: np.ndarray) -> list[float]:
    cum = np.cumsum(np.asarray(masses, dtype=float))
    # guard against rounding from the last positive entry on, so a draw can
    # neither overflow nor land on a trailing zero-mass state
    cum[np.flatnonzero(masses)[-1] :] = 1.0
    return cum.tolist()


def draw_index(cum: list[float], u: float) -> int:
    return bisect_right(cum, u)


def _table_rows(sizes: np.ndarray, values: np.ndarray, succ: np.ndarray) -> tuple[list, list]:
    """The bisection rows of flat entries with successors `succ`: row r is
    the next sizes[r] entries, in column order, with a nonzero one. A row
    keeps its nonzero entries with their running sums, which a zero (+0.0)
    would not change, and the rounding guard 1.0 on the last."""
    keep = values != 0
    ends = np.cumsum(keep)[np.cumsum(sizes) - 1].tolist()
    cum, kept = values[keep].tolist(), succ[keep].tolist()
    bounds = list(zip([0, *ends[:-1]], ends))
    for a, b in bounds:  # in place, so each float is held once
        cum[a : b - 1] = accumulate(cum[a : b - 1])
        cum[b - 1] = 1.0  # guard against rounding so a draw can never overflow
    return [cum[a:b] for a, b in bounds], [kept[a:b] for a, b in bounds]


_BLOCK = 1 << 16  # uniforms drawn per block, which bounds a run's memory
# kernel entries, arcs plus diagonals, in one batch of levels (2 MB per array)
LEVEL_BLOCK = 1 << 18


def _advance(
    table: "TransitionTable",
    node: int,
    stream: UniformStream,
    count: int,
    out: np.ndarray,
    offset: int,
) -> int:
    """Take `count` table transitions from `node`, one uniform each, storing
    the states at out[offset:]; returns the last state. The run draws blocks
    of `_BLOCK` uniforms and either walks them, on a small table, or bisects
    them one by one, except that a state with a hold interval [a, b) skips
    its holds: bisect_right(cum[s], u) is the index of s's own entry exactly
    when a <= u < b, so a numpy scan in doubling windows finds the block's
    next uniform outside [a, b), one slice assignment writes the holds
    before it, and it bisects."""
    walk = _walk_for(table, count)
    cum, succ, holds = table.cum, table.succ, _holds_for(table, count) if walk is None else {}
    end = offset + count
    while offset < end:
        size = min(_BLOCK, end - offset)
        block = stream.take_array(size)
        if walk is not None:
            node = walk.run(node, block, out, offset)
            offset += size
            continue
        path: list[int] = []
        start, i = offset, 0  # path holds out[start:offset + i]
        while i < size:
            chunk = 64 if holds else size  # to bisect until a state with an interval
            if node in holds:
                a, b, width = holds[node]
                j = i
                while j < size:
                    window = block[j : j + width]
                    moved = (window < a) | (window >= b)
                    k = int(moved.argmax())
                    if moved[k]:
                        break
                    j, width = j + width, 2 * width
                j = min(j + k, size)
                out[start : offset + i] = path
                out[offset + i : offset + j] = node
                path, start, i, chunk = [], offset + j, j, 1  # then bisect the one outside
            for u in block[i : i + chunk].tolist():
                node = succ[node][bisect_right(cum[node], u)]
                path.append(node)
                if node in holds:
                    break
            i = start - offset + len(path)
        out[start : offset + size] = path
        offset += size
    return node


_HOLD_RUN = 32  # expected run of holds from which a state skips its holds


def _holds_for(table: "TransitionTable", count: int) -> dict:
    """The table's hold intervals, empty for a run shorter than
    max(_HOLD_RUN, n) transitions. Read once: a state maps to (a, b, width)
    if its own entry spans [a, b) of its row and its expected run of holds,
    1 / (1 - (b - a)), reaches _HOLD_RUN, width being twice that run (at
    most _BLOCK)."""
    if count < max(_HOLD_RUN, len(table.cum)):
        return {}
    if table._holds is None:
        table._holds = {}
        for s, (row, nxt) in enumerate(zip(table.cum, table.succ)):
            if row is not None and s in nxt:
                j = nxt.index(s)
                a, b = row[j - 1] if j else 0.0, row[j]
                if _HOLD_RUN * (1.0 - (b - a)) <= 1.0:
                    table._holds[s] = (a, b, int(2 / max(1.0 - (b - a), 2 / _BLOCK)))
    return table._holds


_WALK_ENTRIES = 1 << 12  # most (state, symbol) entries one walk tabulates


def _walk_for(table: "TransitionTable", count: int) -> "_Walk | None":
    """The table's walk for `count` transitions: the largest m >= 2 with
    n * K**m <= min(_WALK_ENTRIES, count // 8), or None when none fits. The
    table keeps its last walk. A large table is gated out on its size, or
    after reading the first cuts past what m = 2 allows."""
    n, budget = len(table.cum), min(_WALK_ENTRIES, count // 8)
    if 4 * n > budget:  # m = 2 needs K >= 2
        return None
    walk = table._walk
    if walk is None:
        cuts: set[float] = set()
        for row in filter(None, table.cum):
            cuts.update(row)
            if n * len(cuts) ** 2 > budget:
                return None
    m, k = 1, len(cuts) if walk is None else walk.cuts.size
    while k > 1 and n * k ** (m + 1) <= budget:
        m += 1
    if m < 2:
        return None
    if walk is None or walk.m != m:
        walk = table._walk = _Walk(table, sorted(cuts) if walk is None else walk.cuts.tolist(), m)
    return walk


class _Walk:
    """A table's random mapping composed m transitions at a time.

    `cuts` are the K sorted distinct values of the table's rows, the last
    1.0, and a uniform's class is the number of cuts at or below it. A row's
    values are cuts, so bisect_right(cum[s], u) is the same for every u of
    one class: `step[s][c]` reads it at the class's lower end. A symbol packs
    m classes in base K.
    rows[s][σ] is the row of the state m transitions on from s, rows[s][K**m]
    is s * K**m, and states[s * K**m + σ] holds the m states. The rows refer
    to each other, so freeing the walk clears them and leaves no cycle."""

    __slots__ = ("cuts", "m", "rows", "states")

    def __init__(self, table: "TransitionTable", cuts: list[float], m: int):
        n, k, lows = len(table.cum), len(cuts), [0.0, *cuts[:-1]]
        step = np.array([
            [nxt[bisect_right(row, lo)] for lo in lows] if row else [s] * k
            for s, (row, nxt) in enumerate(zip(table.cum, table.succ))
        ])
        span = k**m
        digits = np.arange(span)[:, None] // k ** np.arange(m - 1, -1, -1) % k
        states = np.empty((n, span, m), dtype=np.min_scalar_type(n - 1))
        at = np.broadcast_to(np.arange(n)[:, None], (n, span))
        for j in range(m):
            states[:, :, j] = at = step[at, digits[:, j]]
        self.rows: list[list] = [[] for _ in range(n)]
        for s, row in enumerate(self.rows):
            row += [*map(self.rows.__getitem__, at[s].tolist()), s * span]
        self.cuts, self.m, self.states = np.array(cuts), m, states.reshape(n * span, m)

    def __del__(self) -> None:
        for row in self.rows:
            row.clear()

    def run(self, node: int, uniforms: np.ndarray, out: np.ndarray, offset: int) -> int:
        """`_advance` for one block: the rows walk its symbols in C, one
        gather writes its states, and it returns the last. A partial last
        symbol is padded with class 0, which leaves its first r states as
        they are: they depend only on its first r classes, its leading
        digits."""
        m, k, size = self.m, self.cuts.size, uniforms.size
        classes = np.searchsorted(self.cuts, uniforms, "right")
        symbols = np.zeros(-(-size // m), dtype=np.intp)
        for j in range(m):
            column = classes[j::m]
            symbols[: column.size] += column * k ** (m - 1 - j)
        walked = accumulate(symbols.tolist(), getitem, initial=self.rows[node])
        starts = np.fromiter(map(itemgetter(k**m), walked), np.intp, symbols.size + 1)
        out[offset : offset + size] = self.states[starts[:-1] + symbols].ravel()[:size]
        return int(out[offset + size - 1])


class TransitionTable:
    """A time-homogeneous random mapping f(state, u) over graph nodes.

    A uniform u moves state s to `succ[s][bisect_right(cum[s], u)]`; each
    row `cum[s]` is nondecreasing and ends at 1.0, so every u in [0, 1)
    lands in it. States without a row (None) are not in the table.
    """

    __slots__ = ("cum", "succ", "_walk", "_holds")

    def __init__(self, cum: list, succ: list):
        self.cum = cum
        self.succ = succ
        self._walk: _Walk | None = None
        self._holds: dict | None = None

    @classmethod
    def from_levels(
        cls, levels: KernelLevels, nodes: Sequence[int], size: int
    ) -> list["TransitionTable"]:
        """One table over `size` states per level, the levels' graph node i
        at state nodes[i]. One sort puts each row's arcs and its diagonal in
        column (mass) order, as the dense kernel holds them."""
        g, (count, n) = levels.graph, levels.diagonal.shape
        src = np.concatenate([g.sources, np.arange(n)])  # each entry's row
        dst = np.concatenate([g.indices, np.arange(n)])  # and its column node
        perm = np.lexsort((levels.position[:, dst], np.broadcast_to(src, (count, src.size))))
        values = np.take_along_axis(np.hstack([levels.hops, levels.diagonal]), perm, axis=1)
        succ = np.asarray(nodes, dtype=np.intp)[dst][perm]
        sizes = np.tile(np.diff(g.indptr) + 1, count)
        cum, succ = _table_rows(sizes, values.ravel(), succ.ravel())
        return [
            cls._indexed(nodes, cum[l * n : (l + 1) * n], succ[l * n : (l + 1) * n], size)
            for l in range(count)
        ]

    @classmethod
    def _indexed(cls, nodes: Sequence[int], cum: list, succ: list, size: int) -> "TransitionTable":
        """The table whose row for state nodes[i] is (cum[i], succ[i])."""
        cum_at: list = [None] * size
        succ_at: list = [None] * size
        for node, c, s in zip(nodes, cum, succ):
            cum_at[node] = c
            succ_at[node] = s
        return cls(cum_at, succ_at)

    def __contains__(self, node: int) -> bool:
        return self.cum[node] is not None

    def run(
        self, start_node: int, steps: int, stream: UniformStream, out: np.ndarray, t0: int = 0
    ) -> None:
        """Fill out[0:steps] from start_node; a homogeneous table ignores t0."""
        if start_node not in self:
            raise ValueError("start node has no row in the table")
        out[0] = start_node
        _advance(self, start_node, stream, steps - 1, out, 1)


class Realization:
    """How one target is realized on one graph: the four-case dispatch.

    - point mass: the chain holds on the atom and draws nothing;
    - connected support: one kernel on the support, level 0;
    - support disconnected inside one component: the smoothing-schedule
      kernels on that component, one per smoothing level k >= 1; the
      schedule is required, and kept, in this case only;
    - support split across components: no graph-consistent chain exists,
      and construction raises SupportSplitError.

    Construction classifies and restricts the graph once and builds no
    kernel. A run tabulates the levels it visits as it reaches them, and
    keeps at most one batch of tables; `level_at` builds one level on
    request. `nodes` are the states the chain lives on, in graph node order.
    """

    def __init__(self, target: Distribution, graph: Graph, schedule: Schedule | None = None):
        self.graph = graph
        self.case, chain_graph = chain_case(graph, target)
        if self.case is CaseLabel.SUPPORT_SPLIT:
            raise SupportSplitError(
                "target support spans several graph components; no consistent "
                "chain can realize this target"
            )
        self.schedule: Schedule | None = None
        if self.case is CaseLabel.SUPPORT_IN_COMPONENT:
            if schedule is None:
                raise ValueError("a schedule is required when the target needs smoothing")
            self.schedule = schedule
        self.nodes = tuple(graph.index(lab) for lab in chain_graph.labels)
        self._members = frozenset(self.nodes)
        self._masses = target.masses[list(self.nodes)]
        self._chain_graph = chain_graph
        self._tables: dict[int, TransitionTable] = {}

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def _level_masses(self, levels: Sequence[int]) -> np.ndarray:
        """The (L, n) masses on the chain's states at each level: the target
        itself at level 0, its smoothing at level k when it needs one."""
        if self.schedule is None:
            return np.broadcast_to(self._masses, (len(levels), self._masses.size))
        return _smoothed_masses(self._masses, levels)[0]

    def _runs(self, t: int, count: int) -> Iterable[tuple[int, int | None]]:
        """The `count` transitions from time t on as (run length, level)
        runs: the schedule's segments, else one run on level 0, or of holds
        (None) for a point mass."""
        if self.schedule is not None:
            return self.schedule.segments(t, count)
        level = None if self.case is CaseLabel.POINT_MASS else 0
        return [(count, level)] if count > 0 else []

    def level_at(self, t: int) -> KernelLevels:
        """The kernel in force at transition time t, as a one-level stack on
        the chain's states. Times before a schedule's first switch map to its
        first kernel, and a point mass to its level-0 kernel."""
        first = 0 if self.schedule is None else self.schedule.first_time
        ((_, level),) = self._runs(max(t, first), 1)
        return kernel_levels(self._chain_graph, self._level_masses([level or 0]))

    def run(
        self, start_node: int, steps: int, stream: UniformStream, out: np.ndarray, t0: int = 0
    ) -> None:
        """Fill out[0:steps] with states in graph node order: out[0] is
        start_node, and out[i + 1] follows out[i] by the kernel in force at
        transition time t0 + i. One uniform per kernel transition, none while
        the chain holds. The segments are read in batches of
        LEVEL_BLOCK // (states + arcs), at least one, so a batch's levels
        fill at most LEVEL_BLOCK entries (one level when a level is larger);
        each batch's new levels are tabulated in one call. At most one batch
        of tables is kept, across runs too: a batch that would pass that
        clears them first."""
        if start_node not in self._members:
            raise ValueError("start node is not a state of the target's chain")
        size = max(1, LEVEL_BLOCK // (len(self.nodes) + self._chain_graph.indices.size))
        segments = iter(self._runs(t0, steps - 1))
        out[0] = node = start_node
        filled = 1
        while batch := list(islice(segments, size)):
            levels = dict.fromkeys(level for _, level in batch if level is not None)
            if len(self._tables.keys() | levels.keys()) > size:
                self._tables.clear()
            if missing := [l for l in levels if l not in self._tables]:
                built = kernel_levels(self._chain_graph, self._level_masses(missing))
                self._tables.update(
                    zip(missing, TransitionTable.from_levels(built, self.nodes, self.graph.n))
                )
            for count, level in batch:
                if level is None:
                    out[filled : filled + count] = node
                else:
                    node = _advance(self._tables[level], node, stream, count, out, filled)
                filled += count


def run_homogeneous(
    kernel: TransitionKernel, init: Distribution, steps: int, seed: int
) -> Trace:
    """Fixed-kernel chain of `steps` states over the kernel's label order."""
    if steps < 1:
        raise ValueError("need at least one step")
    if init.n != kernel.n:
        raise ValueError("initial distribution does not match the kernel states")
    stream = make_stream(seed)
    states = np.empty(steps, dtype=np.int64)
    start = draw_index(cumulative_row(init.masses), stream.next())
    cols = np.tile(np.arange(kernel.n), kernel.n)
    cum, succ = _table_rows(np.full(kernel.n, kernel.n), kernel.matrix.ravel(), cols)
    TransitionTable(cum, succ).run(start, steps, stream, states)
    counts = np.bincount(states, minlength=kernel.n)
    return Trace(states, kernel.state_labels, seed, counts)


def run_nonhomogeneous(
    mu: Distribution,
    g: Graph,
    schedule: Schedule,
    init: Distribution,
    steps: int,
    seed: int,
) -> Trace:
    """Chain realizing `mu` on `g` from `init`, driven by `schedule` when the
    target's support is disconnected inside one component of `g`: the one
    component of a `run_product` chain, which consumes the master stream."""
    spec = ProductChainSpec((ComponentSpec(mu, g, schedule, init),), steps, seed)
    return run_product(spec).components[0]


@dataclass(frozen=True)
class ComponentSpec:
    """One factor of a product chain: target and graph, plus the switch
    schedule used when the target needs smoothing."""

    target: Distribution
    graph: Graph
    schedule: Schedule | None = None
    init: Distribution | None = None  # defaults to the target

    @cached_property
    def realization(self) -> Realization:
        """How the target is realized on the graph, built on first use."""
        return Realization(self.target, self.graph, self.schedule)


@dataclass(frozen=True)
class ProductChainSpec:
    components: tuple[ComponentSpec, ...]
    steps: int
    seed: int


def run_product(spec: ProductChainSpec) -> Trace:
    """Independent per-component chains assembled into a joint trace.

    The joint trace is indexed over the row-major product of the factor node
    orders, matching the strong product's label order; it is consistent with
    the strong product graph by construction. Each component draws X(0)
    from its initial law on the chain's states in graph node order, then
    one uniform per kernel transition.
    """
    if spec.steps < 1:
        raise ValueError("need at least one step")
    if not spec.components:
        raise ValueError("need at least one component")
    streams = component_streams(spec.seed, len(spec.components))
    factor_states = []
    for comp, stream in zip(spec.components, streams):
        init = comp.init if comp.init is not None else comp.target
        if init.n != comp.graph.n or comp.target.n != comp.graph.n:
            raise ValueError("component distributions must match the factor graph")
        realization = comp.realization
        nodes = list(realization.nodes)
        if abs(float(init.masses[nodes].sum()) - 1.0) > 1e-12:
            raise ValueError("initial distribution must live on the states of the target's chain")
        start = nodes[draw_index(cumulative_row(init.masses[nodes]), stream.next())]
        states = np.empty(spec.steps, dtype=np.int64)
        realization.run(start, spec.steps, stream, states)
        factor_states.append(states)
    return _joint_trace(
        factor_states, [comp.graph.labels for comp in spec.components], spec.seed
    )


def _joint_trace(
    factor_states: Sequence[np.ndarray], axes: Sequence[Sequence[str]], seed: int
) -> Trace:
    """The joint trace over the row-major product of the axes, with one
    component trace per axis."""
    dims = tuple(len(axis) for axis in axes)
    joint = np.ravel_multi_index(factor_states, dims)
    components = tuple(
        Trace(arr, tuple(axis), seed, np.bincount(arr, minlength=len(axis)))
        for arr, axis in zip(factor_states, axes)
    )
    counts = np.bincount(joint, minlength=int(np.prod(dims)))
    return Trace(joint, tuple(joint_labels(axes)), seed, counts, components=components)


def empirical_distribution(trace: Trace) -> Distribution:
    """Visit frequencies; the integer counts always sum to the trace length."""
    return Distribution(trace.counts / trace.length)


_CHECK_BLOCK = 4096  # trace steps checked at a time


def verify_consistency(trace: Trace, g: Graph) -> bool:
    """Every consecutive pair of states is adjacent-or-equal in `g`, checked
    by `Graph.allows` one block of steps at a time."""
    perm = np.array([g.index(lab) for lab in trace.state_labels], dtype=np.int64)
    for a in range(0, trace.length - 1, _CHECK_BLOCK):
        s = perm[trace.states[a : a + _CHECK_BLOCK + 1]]
        if not g.allows(s[:-1], s[1:]).all():
            return False
    return True
