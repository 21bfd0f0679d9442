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
from itertools import chain, islice
from typing import Callable, Sequence

import numpy as np

from .chains import (
    CaseLabel,
    KernelCore,
    KernelLevels,
    Schedule,
    SupportSplitError,
    TransitionKernel,
    _smoothed_masses,
    chain_case,
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
        """Counts over the first t states only."""
        if not 1 <= t <= self.length:
            raise ValueError("prefix length out of range")
        return np.bincount(self.states[:t], minlength=len(self.state_labels))


_SINGLES = 256  # uniforms buffered for next(); block requests draw exactly


class UniformStream:
    """Float64 uniforms from one generator, drawn only as they are handed out.

    `take(n)` serves what `next()` left buffered and draws exactly the rest;
    `next()` buffers `_SINGLES` draws at a time. numpy yields the same values
    however draws are split into blocks, so buffering never changes a value,
    and the generator runs at most one small buffer ahead of the consumer.
    `next` is the `__next__` of a chain over the buffers, so a draw runs no
    Python frame. `_buffers` holds the numpy generator and the current-buffer
    cell, not the stream, so the stream is in no reference cycle."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._current: list = [iter(())]
        self.next: Callable[[], float] = chain.from_iterable(
            _buffers(rng, self._current)
        ).__next__

    def take(self, n: int) -> list[float]:
        out = list(islice(self._current[0], max(n, 0)))
        if n > len(out):
            out.extend(self._rng.random(n - len(out)).tolist())
        return out


def _buffers(rng: np.random.Generator, current: list):
    """Iterators over successive `_SINGLES`-draw buffers; current[0] is the
    one being served, which `take` drains first."""
    while True:
        current[0] = iter(rng.random(_SINGLES).tolist())
        yield current[0]


def make_stream(seed: int) -> UniformStream:
    return UniformStream(np.random.default_rng(np.random.SeedSequence(seed)))


def spawn_streams(seed: int, count: int) -> list[UniformStream]:
    """Independent child streams derived from one master seed."""
    return [
        UniformStream(np.random.default_rng(child))
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def component_streams(seed: int, count: int) -> list[UniformStream]:
    """Streams for multi-component engines: a single component consumes the
    master stream directly, so a degenerate product replays the plain chain
    byte for byte; several components get independent spawned streams."""
    if count == 1:
        return [make_stream(seed)]
    return spawn_streams(seed, count)


def cumulative_row(masses: np.ndarray) -> list[float]:
    cum = np.cumsum(np.asarray(masses, dtype=float))
    # guard against rounding from the last positive entry on, so a draw can
    # neither overflow nor land on a trailing zero-mass state
    cum[np.flatnonzero(masses)[-1] :] = 1.0
    return cum.tolist()


def draw_index(cum: list[float], u: float) -> int:
    return bisect_right(cum, u)


def _table_rows(values: np.ndarray, succ: np.ndarray) -> tuple[list, list]:
    """The bisection rows of padded transition rows. Each row of `values`
    holds its entries in column order, with exact zeros where it has none,
    and `succ` names each entry's successor. A row keeps only its nonzero
    entries, each with the running sum of the whole row up to it, so a
    uniform picks the same successor as a bisection over the full row; the
    rounding guard 1.0 sits on the last kept entry."""
    keep = values != 0
    cum = np.cumsum(values, axis=1)[keep]
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    cum[np.array(ends) - 1] = 1.0  # guard against rounding so a draw can never overflow
    cum, kept = cum.tolist(), succ[keep].tolist()
    bounds = list(zip([0, *ends[:-1]], ends))
    return [cum[a:b] for a, b in bounds], [kept[a:b] for a, b in bounds]


_BLOCK = 1 << 16  # uniforms drawn per block, which bounds a run's memory
# padded kernel entries in one batch of levels (2 MB per array)
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
    the states at out[offset:]; returns the last state."""
    cum, succ = table.cum, table.succ
    end = offset + count
    while offset < end:
        size = min(_BLOCK, end - offset)
        path: list[int] = []
        append = path.append
        for u in stream.take(size):
            node = succ[node][bisect_right(cum[node], u)]
            append(node)
        out[offset : offset + size] = path
        offset += size
    return node


class TransitionTable:
    """A time-homogeneous random mapping f(state, u) over graph nodes.

    A uniform u moves state s to `succ[s][bisect_right(cum[s], u)]`; each
    row `cum[s]` is nondecreasing and ends at 1.0, so every u in [0, 1)
    lands in it. States without a row (None) are not in the table.
    """

    __slots__ = ("cum", "succ")

    def __init__(self, cum: list, succ: list):
        self.cum = cum
        self.succ = succ

    @classmethod
    def from_kernel(cls, kernel: TransitionKernel, labels: Sequence[str]) -> "TransitionTable":
        """The kernel's rows indexed by position in `labels`."""
        index = {lab: i for i, lab in enumerate(labels)}
        node_of_pos = np.array([index[lab] for lab in kernel.state_labels], dtype=np.intp)
        cum, succ = _table_rows(kernel.matrix, np.broadcast_to(node_of_pos, kernel.matrix.shape))
        return cls._indexed(node_of_pos.tolist(), cum, succ, len(labels))

    @classmethod
    def from_levels(
        cls, levels: KernelLevels, nodes: Sequence[int], size: int
    ) -> list["TransitionTable"]:
        """One table over `size` states per level, the levels' graph node i
        at state nodes[i]. Each padded row is put in column (mass) order
        first, as the dense kernel holds it."""
        count, n, width = levels.values.shape
        perm = np.argsort(levels.position[:, levels.cols], axis=2, kind="stable")
        values = np.take_along_axis(levels.values, perm, axis=2)
        succ = np.asarray(nodes, dtype=np.intp)[levels.cols]
        succ = np.take_along_axis(np.broadcast_to(succ, perm.shape), perm, axis=2)
        cum, succ = _table_rows(values.reshape(-1, width), succ.reshape(-1, width))
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
    kernel. A run tabulates the levels it visits that are not tabulated
    yet, all in one batch; `kernel_at` builds a dense kernel on request.
    `nodes` are the states the chain lives on, in graph node order.
    """

    def __init__(self, target: Distribution, graph: Graph, schedule: Schedule | None = None):
        self.target = target
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
        self._core = KernelCore(chain_graph)
        self._tables: dict[int, TransitionTable] = {}

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def _level_masses(self, levels: Sequence[int]) -> np.ndarray:
        """The (L, n) masses on the chain's states at each level: the target
        itself at level 0, its smoothing at level k when it needs one."""
        if self.schedule is None:
            return np.broadcast_to(self._masses, (len(levels), self._masses.size))
        return _smoothed_masses(self._masses, levels)[0]

    def kernel_at(self, t: int) -> TransitionKernel:
        """The dense kernel in force at transition time t. A schedule's chain
        holds still before the first switch time; those times map to its
        first kernel."""
        level = 0
        if self.schedule is not None:
            schedule = self.schedule
            level = schedule.smoothing_index(schedule.interval_index(max(t, schedule.first_time)))
        return self._core.kernel(Distribution(self._level_masses([level])[0]))

    def _build_tables(self, levels: list[int | None]) -> None:
        """Tabulate every level in `levels` not tabulated yet (None is a
        hold), in batches of at most LEVEL_BLOCK padded entries (one level
        when a level exceeds it)."""
        missing = [l for l in dict.fromkeys(levels) if l is not None and l not in self._tables]
        step = max(1, LEVEL_BLOCK // self._core.cols.size)
        for i in range(0, len(missing), step):
            batch = missing[i : i + step]
            built = self._core.levels(self._level_masses(batch))
            self._tables.update(
                zip(batch, TransitionTable.from_levels(built, self.nodes, self.graph.n))
            )

    def _segment(self, t: int, remaining: int) -> tuple[int, int | None]:
        """How many of the next `remaining` transitions, from time t on, fall
        in one schedule interval, and its smoothing level (0 for the one
        kernel of a connected support, None while the chain holds)."""
        if self.case is CaseLabel.POINT_MASS:
            return remaining, None
        if self.case is CaseLabel.SUPPORT_CONNECTED:
            return remaining, 0
        schedule = self.schedule
        if t < schedule.first_time:
            return min(schedule.first_time - t, remaining), None
        interval = schedule.interval_index(t)
        end = schedule.interval_end(interval)
        count = remaining if end is None else min(end - t, remaining)
        return count, schedule.smoothing_index(interval)

    def run(
        self, start_node: int, steps: int, stream: UniformStream, out: np.ndarray, t0: int = 0
    ) -> None:
        """Fill out[0:steps] with states in graph node order: out[0] is
        start_node, and out[i + 1] follows out[i] by the kernel in force at
        transition time t0 + i. One uniform per kernel transition, none while
        the chain holds. The levels the run visits are tabulated before it
        starts."""
        if start_node not in self._members:
            raise ValueError("start node is not a state of the target's chain")
        segments = []
        filled, t = 1, t0
        while filled < steps:
            count, level = self._segment(t, steps - filled)
            segments.append((count, level))
            filled += count
            t += count
        self._build_tables([level for _, level in segments])
        out[0] = node = start_node
        filled = 1
        for count, level in segments:
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
    TransitionTable.from_kernel(kernel, kernel.state_labels).run(start, steps, stream, states)
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
    target's support is disconnected inside one component of `g`; states
    reported in the full node order."""
    if steps < 1:
        raise ValueError("need at least one step")
    comp = ComponentSpec(target=mu, graph=g, schedule=schedule, init=init)
    states = _run_component(comp, steps, make_stream(seed))
    return Trace(states, g.labels, seed, np.bincount(states, minlength=g.n))


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


def _run_component(comp: ComponentSpec, steps: int, stream: UniformStream) -> np.ndarray:
    """States over the component's full node order, consuming exactly one
    initial draw plus one uniform per kernel transition. X(0) is drawn from
    the initial distribution over the chain's states in graph node order."""
    g = comp.graph
    init = comp.init if comp.init is not None else comp.target
    if init.n != g.n or comp.target.n != g.n:
        raise ValueError("component distributions must match the factor graph")
    realization = comp.realization
    nodes = list(realization.nodes)
    if abs(float(init.masses[nodes].sum()) - 1.0) > 1e-12:
        raise ValueError("initial distribution must live on the states of the target's chain")
    start = nodes[draw_index(cumulative_row(init.masses[nodes]), stream.next())]
    states = np.empty(steps, dtype=np.int64)
    realization.run(start, steps, stream, states)
    return states


def run_product(spec: ProductChainSpec) -> Trace:
    """Independent per-component chains assembled into a joint trace.

    The joint trace is indexed over the row-major product of the factor node
    orders, matching the strong product's label order; it is consistent with
    the strong product graph by construction.
    """
    if spec.steps < 1:
        raise ValueError("need at least one step")
    if not spec.components:
        raise ValueError("need at least one component")
    streams = component_streams(spec.seed, len(spec.components))
    factor_states = [
        _run_component(comp, spec.steps, stream) for comp, stream in zip(spec.components, streams)
    ]
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
