"""Graph-constrained reversible transition matrices and their schedules.

Given a target distribution and a connected graph, `build_kernel` produces a
row-stochastic matrix whose off-diagonal support lies on the graph edges,
which is in detailed balance with the target, and whose diagonal never drops
below one half. Targets with zero-mass states are first made strictly
positive by `smooth`, which mixes in a uniform layer on the low-mass states;
driving the smoothing level along an increasing time schedule yields the
nonhomogeneous chains whose empirical distributions converge to the original
target. `KernelCore` holds the construction's arithmetic for a stack of
targets on one graph, so every level a schedule visits is built in one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, connected_components, induced_subgraph
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
    k = np.array([float(k) for k in ks])[:, None]
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
        _check_rows(m, np.diag(m))
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return len(self.state_labels)


def _check_rows(m: np.ndarray, diagonal: np.ndarray) -> None:
    """`TransitionKernel`'s checks on the rows along the last axis of `m`
    (zeros where a row has no entry), whose diagonal entries are `diagonal`."""
    if not np.isfinite(m).all() or (m < 0).any() or (m > 1 + ROW_SUM_TOL).any():
        raise ValueError("transition probabilities must be finite and in [0, 1]")
    if (np.abs(m.sum(axis=-1) - 1.0) > ROW_SUM_TOL).any():
        raise ValueError("rows must sum to 1")
    if (diagonal < 0.5 - ROW_SUM_TOL).any():
        raise ValueError("diagonal entries must be at least 1/2")


@dataclass(frozen=True)
class KernelLevels:
    """The kernels of L strictly positive targets on one graph, as padded rows
    in node order. Row i of level l holds node i's entries at the nodes
    `cols[i]`: its neighbours in ascending order, then i itself (the
    diagonal), then padding that repeats i with entry 0.0. `order[l]` lists
    the nodes by decreasing mass (ties by node order), `position[l]` is its
    inverse, and `p[l]` is the level's hop probability."""

    order: np.ndarray  # (L, n)
    position: np.ndarray  # (L, n)
    p: np.ndarray  # (L,)
    cols: np.ndarray  # (n, D)
    values: np.ndarray  # (L, n, D)


class KernelCore:
    """The arithmetic of `build_kernel` for a stack of targets on one
    connected graph, with the graph's row layout computed once. The caller
    vouches for connectivity: `build_kernel` checks it, and a `Realization`
    builds its core on the graph `chain_case` found connected.

    Each row's load is summed left to right in ascending neighbour order; a
    cumulative sum along the padded row axis keeps that order, where `sum`
    would pair the terms."""

    def __init__(self, g: Graph):
        self.graph = g
        degree = np.diff(g.indptr)
        self._degree = degree
        cols = np.repeat(np.arange(g.n)[:, None], int(degree.max()) + 1, axis=1)
        slot = np.arange(cols.shape[1])
        self._is_neighbor = slot < degree[:, None]
        cols[self._is_neighbor] = g.indices  # row-major: each row's neighbours ascending
        self.cols = cols
        self._entries = np.nonzero(slot <= degree[:, None])  # (node, slot) of every entry

    def levels(self, masses: np.ndarray) -> KernelLevels:
        """The kernel of each row of the (L, n) stack `masses`, every level
        checked as a `TransitionKernel` is."""
        masses = np.asarray(masses, dtype=float)
        n = self.graph.n
        if masses.ndim != 2 or masses.shape[1] != n:
            raise ValueError("target and graph have different sizes")
        if (masses <= 0).any():
            raise NonPositiveTargetError("target must be strictly positive everywhere")
        cols = self.cols
        order = np.argsort(-masses, axis=1, kind="stable")
        position = np.empty_like(order)
        position[np.arange(len(order))[:, None], order] = np.arange(n)
        # a hop down the mass order weighs 1, a hop up the mass ratio
        up = self._is_neighbor & (position[:, cols] < position[:, :, None])
        ratio = np.where(up, masses[:, cols] / masses[:, :, None], self._is_neighbor * 1.0)
        load = np.cumsum(ratio, axis=2)[:, :, -1]
        p = (1.0 / (2.0 * load)).min(axis=1) if n > 1 else np.zeros(len(masses))
        values = ratio * p[:, None, None]
        diagonal = 1.0 - p[:, None] * load
        values[:, np.arange(n), self._degree] = diagonal
        _check_rows(values, diagonal)
        return KernelLevels(order, position, p, cols, values)

    def kernel(self, target: Distribution) -> TransitionKernel:
        """The dense kernel of one target: its single level scattered into an
        n x n matrix over the mass order."""
        built = self.levels(target.masses[None, :])
        position = built.position[0]
        nodes, slots = self._entries
        matrix = np.zeros((self.graph.n, self.graph.n))
        matrix[position[nodes], position[self.cols[nodes, slots]]] = built.values[0, nodes, slots]
        labels = tuple(self.graph.labels[i] for i in built.order[0].tolist())
        return TransitionKernel(matrix, labels, float(built.p[0]))


def build_kernel(target: Distribution, g: Graph) -> TransitionKernel:
    """Reversible graph-supported kernel with invariant law `target`.

    States are ordered by decreasing target mass (ties by node order). The
    common hop probability p is chosen so that every row keeps at least half
    of its mass on the diagonal; hops down the mass order use p, hops up use
    p scaled by the mass ratio, which forces detailed balance exactly.
    """
    if len(connected_components(g)) != 1:
        raise NotConnectedError("kernel construction needs a connected graph")
    return KernelCore(g).kernel(target)


def dobrushin(kernel: TransitionKernel | np.ndarray) -> float:
    """Contraction coefficient: one minus the minimal row overlap.

    With no negative entry, rows of disjoint supports (a zero in S S^T, S the
    support indicator) overlap by 0, the least possible, so the result is 1.0.
    Otherwise the overlaps are computed for at most DOBRUSHIN_BLOCK values (one
    row when n * n exceeds it) at a time, so memory grows as n**2, not n**3.
    """
    m = kernel.matrix if isinstance(kernel, TransitionKernel) else np.asarray(kernel, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if np.any(m < -STOCHASTIC_TOL) or np.any(
        np.abs(m.sum(axis=1) - 1.0) > STOCHASTIC_TOL
    ):
        raise ValueError("matrix is not row-stochastic")
    if np.all(m >= 0):
        support = (m > 0).astype(np.float32)
        if not np.all(support @ support.T):
            return 1.0
    rows = max(1, DOBRUSHIN_BLOCK // max(1, m.size))
    overlap = min(
        np.minimum(m[i : i + rows, None, :], m[None, :, :]).sum(axis=2).min()
        for i in range(0, m.shape[0], rows)
    )
    return float(1.0 - overlap)


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
    """Strictly increasing kernel-switch times t_1 < t_2 < ...

    Interval l covers the steps in [t_l, t_{l+1}); by default the smoothing
    level used during interval l is l itself, but a schedule may remap it
    (the fast "counterexample" schedule doubles it every step).
    """

    def __init__(
        self,
        label: str,
        time_fn: Callable[[int], int],
        smoothing_fn: Callable[[int], int] | None = None,
        max_intervals: int | None = None,
    ):
        self.label = label
        self._time_fn = time_fn
        self._smoothing_fn = smoothing_fn
        self._max_intervals = max_intervals
        self._times: list[int] = [int(time_fn(1))]
        if self._times[0] < 0:
            raise ScheduleError("switch times must be nonnegative")

    @classmethod
    def theoretical(cls, n_states: int) -> "Schedule":
        """Switch times l ** (5 * n_states); exact integers, usable for
        kernel indexing at any scale."""
        if n_states < 1:
            raise ValueError("n_states must be positive")
        exponent = 5 * n_states
        return cls(f"theoretical[N={n_states}]", lambda l: l**exponent)

    @classmethod
    def power_gap(cls, c: int = 1, e: int = 3) -> "Schedule":
        """Desk-scale schedule with guaranteed gaps t_{l+1} - t_l = c * l**e.

        A surrogate: the almost-sure empirical convergence guarantee is
        established only for the far slower `theoretical` schedule; power-gap
        runs trade that for tractable horizons.
        """
        if c < 1 or e < 0:
            raise ValueError("need c >= 1 and e >= 0")

        def time_fn(l: int) -> int:
            return 1 + c * sum(j**e for j in range(1, l))

        return cls(f"powergap[c={c},e={e}]", time_fn)

    @classmethod
    def explicit(cls, times: list[int]) -> "Schedule":
        """Finite switch-time list; the last interval is open-ended."""
        if not times:
            raise ScheduleError("need at least one switch time")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ScheduleError("switch times must be strictly increasing")
        frozen = [int(t) for t in times]
        return cls("explicit", lambda l: frozen[l - 1], max_intervals=len(frozen))

    @classmethod
    def counterexample(cls, max_exponent: int = 50) -> "Schedule":
        """Unit-gap schedule whose smoothing level doubles every interval.

        Converges far too fast for the empirical law to track the target;
        the chain freezes near its starting state instead. The exponent is
        capped so hop probabilities stay representable in float64; the level
        is then fixed from interval `max_exponent` on, so that interval is the
        open-ended last one.
        """
        return cls(
            "counterexample",
            lambda l: l,
            smoothing_fn=lambda l: 2 ** min(l, max_exponent),
            max_intervals=max(max_exponent, 1),
        )

    @property
    def first_time(self) -> int:
        return self._times[0]

    def has_interval(self, l: int) -> bool:
        return l >= 1 and (self._max_intervals is None or l <= self._max_intervals)

    def time_at(self, l: int) -> int:
        """Switch time t_l (1-indexed)."""
        if not self.has_interval(l):
            raise ScheduleError(f"schedule {self.label} has no interval {l}")
        while len(self._times) < l:
            nxt = int(self._time_fn(len(self._times) + 1))
            if nxt <= self._times[-1]:
                raise ScheduleError("switch times must be strictly increasing")
            self._times.append(nxt)
        return self._times[l - 1]

    def interval_end(self, l: int) -> int | None:
        """Start of the next interval, or None when `l` is open-ended."""
        if not self.has_interval(l + 1):
            return None
        return self.time_at(l + 1)

    def interval_index(self, t: int) -> int:
        """The l with t in [t_l, t_{l+1}); error before the first switch."""
        if t < self._times[0]:
            raise ScheduleError(f"time {t} precedes the first switch time {self._times[0]}")
        while self._times[-1] <= t and self.has_interval(len(self._times) + 1):
            self.time_at(len(self._times) + 1)
        return bisect_right(self._times, t)

    def smoothing_index(self, l: int) -> int:
        if self._smoothing_fn is None:
            return l
        return int(self._smoothing_fn(l))

    def __repr__(self) -> str:
        return f"Schedule({self.label})"
