"""Graph-constrained reversible transition matrices and their schedules.

Given a target distribution and a connected graph, `build_kernel` produces a
row-stochastic matrix whose off-diagonal support lies on the graph edges,
which is in detailed balance with the target, and whose diagonal never drops
below one half. Targets with zero-mass states are first made strictly
positive by `smooth`, which mixes in a uniform layer on the low-mass states;
driving the smoothing level along an increasing time schedule yields the
nonhomogeneous chains whose empirical distributions converge to the original
target. `kernel_levels` does the construction's arithmetic for a stack of
targets on one graph, so every level a schedule visits is built in one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, bfs, induced_subgraph
from .mixed import Distribution

ROW_SUM_TOL = 1e-12
STOCHASTIC_TOL = 1e-9
# float64 values in one block of `dobrushin`'s row-pair minima (16 MB)
DOBRUSHIN_BLOCK = 1 << 21


class ChainError(Exception):
    """Invalid chain construction input."""


class NotConnectedError(ChainError):
    """The construction requires a connected graph."""


class NonPositiveTargetError(ChainError):
    """The kernel construction requires a strictly positive target."""


class EmptyLowSetError(ChainError):
    """No state falls below the 1/k smoothing threshold."""


class SupportSplitError(ChainError):
    """The target's support straddles several graph components; no consistent
    chain can realize it."""


class ScheduleError(ChainError):
    """Time outside the schedule's domain or malformed switch times."""


class CaseLabel(Enum):
    POINT_MASS = "point-mass"
    SUPPORT_IN_COMPONENT = "support-in-component"
    SUPPORT_SPLIT = "support-split"
    SUPPORT_CONNECTED = "support-connected"


def chain_case(g: Graph, mu: Distribution) -> tuple[CaseLabel, Graph | None]:
    """The case of `mu` on `g` with the connected graph its chain lives on:
    the subgraph induced by the support when the support is connected (a
    point mass is), else the one induced by the component holding the
    support; None when the support is split."""
    if mu.n != g.n:
        raise ValueError("distribution and graph have different sizes")
    support = mu.support()
    restricted = induced_subgraph(g, [g.labels[i] for i in support])
    if len(support) == 1:
        return CaseLabel.POINT_MASS, restricted
    if len(bfs(restricted, [0])[0]) == len(support):
        return CaseLabel.SUPPORT_CONNECTED, restricted
    component, _, hops = bfs(g, support[:1])
    if min(hops[i] for i in support) < 0:
        return CaseLabel.SUPPORT_SPLIT, None
    return CaseLabel.SUPPORT_IN_COMPONENT, induced_subgraph(g, [g.labels[i] for i in component])


def min_valid_k(mu: Distribution) -> int:
    """Smallest integer strictly greater than 1 over the least positive mass."""
    positive = mu.masses[mu.masses > 0]
    if positive.size == 0:
        raise ValueError("distribution has no positive mass")
    return int(math.floor(1.0 / float(positive.min()))) + 1


@dataclass(frozen=True)
class SmoothedTarget:
    """A target mixed with a uniform layer on its low-mass states."""

    smoothed: Distribution
    low_set: frozenset[int]


def smooth(mu: Distribution, k: int) -> SmoothedTarget:
    """Mix `mu` with weight 1/k of the uniform distribution on the states of
    mass below 1/k. The result is strictly positive whenever that low set is
    nonempty."""
    smoothed, low = _smoothed_masses(mu.masses, [k])
    return SmoothedTarget(
        smoothed=Distribution(smoothed[0]),
        low_set=frozenset(int(i) for i in np.flatnonzero(low[0])),
    )


def _smoothed_masses(masses: np.ndarray, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """`smooth`'s mixture of `masses` at each level of `ks`: the (L, n)
    smoothed masses and the (L, n) masks of the low sets."""
    if any(k < 1 for k in ks):
        raise ValueError("k must be a positive integer")
    try:
        k = np.array([float(k) for k in ks])[:, None]
    except OverflowError:
        raise ValueError("k is too large to be a float") from None
    low = masses < 1.0 / k
    empty = ~low.any(axis=1)
    if empty.any():
        raise EmptyLowSetError(f"no state has mass below 1/{ks[int(empty.argmax())]}")
    eta = np.where(low, 1.0 / low.sum(axis=1, keepdims=True), 0.0)
    return eta / k + (1.0 - 1.0 / k) * masses, low


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic matrix over states sorted by target mass (descending).

    Off-diagonal entries may be nonzero only on graph edges; diagonals stay
    at or above one half, which keeps every built chain aperiodic.
    """

    matrix: np.ndarray
    state_labels: tuple[str, ...]
    p: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        n = len(self.state_labels)
        if m.shape != (n, n):
            raise ValueError("matrix shape does not match state labels")
        _check_rows(m, m.sum(axis=-1), np.diag(m))
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return len(self.state_labels)


def _check_rows(m: np.ndarray, sums: np.ndarray, diagonal: np.ndarray) -> None:
    """`TransitionKernel`'s checks on rows whose entries are all in `m`, whose
    sums are `sums` and whose diagonal entries are `diagonal`."""
    if not np.isfinite(m).all() or (m < 0).any() or (m > 1 + ROW_SUM_TOL).any():
        raise ValueError("transition probabilities must be finite and in [0, 1]")
    if (np.abs(sums - 1.0) > ROW_SUM_TOL).any():
        raise ValueError("rows must sum to 1")
    if (diagonal < 0.5 - ROW_SUM_TOL).any():
        raise ValueError("diagonal entries must be at least 1/2")


@dataclass(frozen=True)
class KernelLevels:
    """The kernels of L strictly positive targets on one graph, one entry per
    arc plus a diagonal: `hops[l, a]` is level l's entry from
    `graph.sources[a]` to `graph.indices[a]`, and `diagonal[l, i]` is node
    i's own entry. `order[l]` lists the nodes by decreasing mass (ties by
    node order), `position[l]` is its inverse, and `p[l]` is the level's hop
    probability."""

    graph: Graph
    order: np.ndarray  # (L, n)
    position: np.ndarray  # (L, n)
    p: np.ndarray  # (L,)
    hops: np.ndarray  # (L, arcs)
    diagonal: np.ndarray  # (L, n)


def _arc_sums(g: Graph, weights: np.ndarray) -> np.ndarray:
    """The (L, n) sums of the (L, arcs) `weights` over each node's arcs,
    added by `bincount` in input order: ascending neighbour order."""
    bins = np.arange(len(weights))[:, None] * g.n + g.sources
    return np.bincount(bins.ravel(), weights.ravel(), len(weights) * g.n).reshape(-1, g.n)


def kernel_levels(g: Graph, masses: np.ndarray) -> KernelLevels:
    """The arithmetic of `build_kernel` for the (L, n) stack of targets
    `masses` on g, each level checked as a `TransitionKernel` is (an
    overflowing mass ratio leaves a non-finite entry for the check to
    report). The caller vouches that g is connected: `build_kernel` checks
    it, and a `Realization` builds levels on the graph `chain_case` found
    connected."""
    masses = np.asarray(masses, dtype=float)
    n, src, dst = g.n, g.sources, g.indices
    if masses.ndim != 2 or masses.shape[1] != n:
        raise ValueError("target and graph have different sizes")
    if (masses <= 0).any():
        raise NonPositiveTargetError("target must be strictly positive everywhere")
    order = np.argsort(-masses, axis=1, kind="stable")
    position = np.empty_like(order)
    position[np.arange(len(order))[:, None], order] = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # a hop down the mass order weighs 1, a hop up the mass ratio
        up = position[:, dst] < position[:, src]
        ratio = np.where(up, masses[:, dst] / masses[:, src], 1.0)
        load = _arc_sums(g, ratio)
        p = (1.0 / (2.0 * load)).min(axis=1) if n > 1 else np.zeros(len(masses))
        hops = ratio * p[:, None]
        diagonal = 1.0 - p[:, None] * load
        _check_rows(np.hstack([hops, diagonal]), diagonal + _arc_sums(g, hops), diagonal)
    return KernelLevels(g, order, position, p, hops, diagonal)


def kernel_level(target: Distribution, g: Graph) -> KernelLevels:
    """The one level of `target` on g, after checking that g is connected."""
    if not g.n or len(bfs(g, [0])[0]) < g.n:
        raise NotConnectedError("kernel construction needs a connected graph")
    return kernel_levels(g, target.masses[None, :])


def build_kernel(target: Distribution, g: Graph) -> TransitionKernel:
    """Reversible graph-supported kernel with invariant law `target`.

    States are ordered by decreasing target mass (ties by node order). The
    common hop probability p is chosen so that every row keeps at least half
    of its mass on the diagonal; hops down the mass order use p, hops up use
    p scaled by the mass ratio, which forces detailed balance exactly.
    """
    built = kernel_level(target, g)
    labels = tuple(g.labels[i] for i in built.order[0].tolist())
    return TransitionKernel(_level_rows(built, 0, g.n), labels, float(built.p[0]))


def dobrushin(kernel: TransitionKernel | np.ndarray) -> float:
    """Contraction coefficient: one minus the minimal row overlap, computed
    by `_least_overlap`."""
    m = kernel.matrix if isinstance(kernel, TransitionKernel) else np.asarray(kernel, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if np.any(m < -STOCHASTIC_TOL) or np.any(
        np.abs(m.sum(axis=1) - 1.0) > STOCHASTIC_TOL
    ):
        raise ValueError("matrix is not row-stochastic")
    return float(1.0 - _least_overlap(lambda i, j: m[i:j], len(m)))


def _least_overlap(rows: Callable[[int, int], np.ndarray], n: int) -> float:
    """The least overlap sum_k min(m_ik, m_jk) of two rows of the n x n
    matrix m whose rows i:j are rows(i, j), taken over pairs of row blocks
    whose elementwise minima hold at most DOBRUSHIN_BLOCK values."""
    size = max(1, math.isqrt(DOBRUSHIN_BLOCK // max(1, n)))
    # a pair's overlap sums the same values in the same order either way round
    return min(
        np.minimum(rows(i, i + size)[:, None], rows(k, k + size)[None]).sum(axis=2).min()
        for i in range(0, n, size)
        for k in range(i, n, size)
    )


def _level_rows(levels: KernelLevels, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the first level's dense kernel, states in mass
    order."""
    g, position = levels.graph, levels.position[0]
    nodes = levels.order[0, start:stop]
    first = g.indptr[nodes]
    degree = g.indptr[nodes + 1] - first
    row = np.arange(len(nodes))
    rows = np.repeat(row, degree)
    # each row's arcs: the slice first:first + degree of its node
    arcs = np.arange(rows.size) + np.repeat(first - np.cumsum(degree) + degree, degree)
    out = np.zeros((len(nodes), g.n))
    out[rows, position[g.indices[arcs]]] = levels.hops[0, arcs]
    out[row, start + row] = levels.diagonal[0, nodes]
    return out


def level_dobrushin(levels: KernelLevels) -> float:
    """`dobrushin` of the first level's dense kernel, bit for bit.

    States 3 or more hops apart have rows of disjoint supports, so 1.0; a
    double-sweep breadth-first search finds such a pair in O(E) on most
    graphs of diameter 3 or more. Failing that, `_least_overlap` sums the
    overlaps of blocks of dense rows in mass order, as `dobrushin` does."""
    order, _, hops = bfs(levels.graph, bfs(levels.graph, [0])[0][-1:])
    if hops[order[-1]] >= 3:
        return 1.0
    return float(1.0 - _least_overlap(lambda i, j: _level_rows(levels, i, j), levels.graph.n))


def detailed_balance(levels: KernelLevels, masses: np.ndarray) -> tuple[np.ndarray, float]:
    """The law in node order of the first level's kernel, and
    the largest residual |mu_i P_ij - mu_j P_ji| of `masses` mu over the arcs.

    A reversible kernel's law is pi_j = pi_i P_ij / P_ji along any spanning
    tree (Levin, Peres and Wilmer, Markov Chains and Mixing Times, 2nd ed.,
    1.6), here breadth-first from the heaviest state, in Python floats with
    an exact sum: no BLAS thread count moves a bit."""
    g = levels.graph
    n, src, dst, hop = g.n, g.sources, g.indices, levels.hops[0]  # hop: P_ij per arc
    back = hop[np.argsort(dst * n + src)]  # sorted by (dst, src), the arcs reversed in turn
    residual = float(np.abs(masses[src] * hop - masses[dst] * back).max(initial=0.0))
    order, via, _ = bfs(g, [int(levels.order[0, 0])])
    src, hop, back = src.tolist(), hop.tolist(), back.tolist()
    pi = [0.0] * n
    pi[order[0]] = 1.0
    for j in order[1:]:
        a = via[j]  # the tree arc i -> j
        pi[j] = pi[src[a]] * hop[a] / back[a]
    return np.array(pi) / math.fsum(pi), residual


def dobrushin_bound(n_states: int, k: int) -> float:
    """Upper bound for the contraction coefficient of the (n-1)-th power of a
    kernel built from a level-k smoothed target on n >= 3 states."""
    if n_states < 3:
        raise ValueError("bound requires at least 3 states")
    if k < 1:
        raise ValueError("k must be a positive integer")
    c = 1.0 / (2.0 * (n_states - 1) ** 2)
    return 1.0 - (c / k) ** (n_states - 1)


def stationary_distribution(
    kernel: TransitionKernel | np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Left eigenvector for eigenvalue 1, by iterated powering.

    Squares the matrix, at most 80 times, until all rows agree within `tol`;
    every row of the limit is the stationary law.
    """
    q = kernel.matrix if isinstance(kernel, TransitionKernel) else np.asarray(kernel, float)
    q = np.array(q, dtype=float)
    for _ in range(80):
        spread = float((q.max(axis=0) - q.min(axis=0)).max())
        if spread < tol:
            out = q.mean(axis=0)
            return out / out.sum()
        q = q @ q
        q /= q.sum(axis=1, keepdims=True)
    raise ChainError("power iteration did not converge; is the chain aperiodic?")


class Schedule:
    """Strictly increasing kernel-switch times t_1 < t_2 < ... with the
    smoothing level k_l in force during interval l, which covers the steps
    in [t_l, t_{l+1}).

    `switches` yields the (t_l, k_l) pairs and is read only as far as a
    caller needs; when it runs out, the last interval is open-ended.
    """

    def __init__(self, label: str, switches: Iterable[tuple[int, int]]):
        self.label = label
        self._switches = iter(switches)
        self._times: list[int] = []
        self._levels: list[int] = []
        if not self._reach(1) or self._times[0] < 0:
            raise ScheduleError("need a first switch time, and a nonnegative one")

    @classmethod
    def theoretical(cls, n_states: int) -> "Schedule":
        """Switch times l ** (5 * n_states); exact integers, usable for
        kernel indexing at any scale."""
        if n_states < 1:
            raise ValueError("n_states must be positive")
        exponent = 5 * n_states
        return cls(f"theoretical[N={n_states}]", ((l**exponent, l) for l in count(1)))

    @classmethod
    def power_gap(cls, c: int = 1, e: int = 3) -> "Schedule":
        """Desk-scale schedule with guaranteed gaps t_{l+1} - t_l = c * l**e.

        A surrogate: the almost-sure empirical convergence guarantee is
        established only for the far slower `theoretical` schedule; power-gap
        runs trade that for tractable horizons.
        """
        if c < 1 or e < 0:
            raise ValueError("need c >= 1 and e >= 0")
        times = accumulate((c * j**e for j in count(1)), initial=1)
        return cls(f"powergap[c={c},e={e}]", zip(times, count(1)))

    @classmethod
    def explicit(cls, times: list[int]) -> "Schedule":
        """Finite switch-time list; the last interval is open-ended."""
        schedule = cls("explicit", zip(times, count(1)))
        schedule.time_at(len(times))  # checks every time up front
        return schedule

    @classmethod
    def counterexample(cls, max_exponent: int = 50) -> "Schedule":
        """Unit-gap schedule whose smoothing level doubles every interval.

        Converges far too fast for the empirical law to track the target;
        the chain freezes near its starting state instead. The exponent is
        capped so hop probabilities stay representable in float64; the level
        is then fixed from interval `max_exponent` on, so that interval is the
        open-ended last one.
        """
        levels = (2 ** min(l, max_exponent) for l in range(1, max(max_exponent, 1) + 1))
        return cls("counterexample", zip(count(1), levels))

    @property
    def first_time(self) -> int:
        return self._times[0]

    def _reach(self, l: int) -> bool:
        """Read the switches up to interval l; whether the schedule has it."""
        while len(self._times) < l:
            pair = next(self._switches, None)
            if pair is None:
                return False
            t, k = int(pair[0]), int(pair[1])
            if self._times and t <= self._times[-1]:
                raise ScheduleError("switch times must be strictly increasing")
            self._times.append(t)
            self._levels.append(k)
        return True

    def time_at(self, l: int) -> int:
        """Switch time t_l (1-indexed)."""
        if l < 1 or not self._reach(l):
            raise ScheduleError(f"schedule {self.label} has no interval {l}")
        return self._times[l - 1]

    def interval_index(self, t: int) -> int:
        """The l with t in [t_l, t_{l+1}); error before the first switch."""
        if t < self._times[0]:
            raise ScheduleError(f"time {t} precedes the first switch time {self._times[0]}")
        while self._times[-1] <= t and self._reach(len(self._times) + 1):
            pass
        return bisect_right(self._times, t)

    def segments(self, t: int, count: int) -> Iterator[tuple[int, int | None]]:
        """The `count` transitions from time t on, as (run length, level)
        runs: level None while t precedes t_1, then k_l for each interval l
        they cross. This is the one walk from transition times to levels."""
        end = t + count
        l = 0 if t < self._times[0] else self.interval_index(t)  # 0: before t_1
        while t < end:
            nxt = self._times[l] if self._reach(l + 1) else end
            yield min(nxt, end) - t, (self._levels[l - 1] if l else None)
            t, l = nxt, l + 1

    def __repr__(self) -> str:
        return f"Schedule({self.label})"
