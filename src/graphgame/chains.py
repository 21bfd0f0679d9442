"""Graph-constrained reversible transition matrices and their schedules.

Given a target distribution and a connected graph, `build_kernel` produces a
row-stochastic matrix whose off-diagonal support lies on the graph edges,
which is in detailed balance with the target, and whose diagonal never drops
below one half. Targets with zero-mass states are first made strictly
positive by `smooth`, which mixes in a uniform layer on the low-mass states;
driving the smoothing level along an increasing time schedule yields the
nonhomogeneous chains whose empirical distributions converge to the original
target.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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


class CaseMismatchError(ChainError):
    """The requested construction does not apply to this target/graph case."""


class ScheduleError(ChainError):
    """Time outside the schedule's domain or malformed switch times."""


class GapConditionError(ChainError):
    """A schedule violates the required minimum gap growth."""


class CaseLabel(Enum):
    POINT_MASS = "point-mass"
    SUPPORT_IN_COMPONENT = "support-in-component"
    SUPPORT_SPLIT = "support-split"
    SUPPORT_CONNECTED = "support-connected"


def classify_case(g: Graph, mu: Distribution) -> CaseLabel:
    """Which chain construction (if any) can realize `mu` on `g`."""
    if mu.n != g.n:
        raise ValueError("distribution and graph have different sizes")
    support = [g.labels[i] for i in mu.support()]
    if len(support) == 1:
        return CaseLabel.POINT_MASS
    if len(connected_components(induced_subgraph(g, support))) == 1:
        return CaseLabel.SUPPORT_CONNECTED
    for comp in connected_components(g):
        if set(support) <= comp:
            return CaseLabel.SUPPORT_IN_COMPONENT
    return CaseLabel.SUPPORT_SPLIT


def min_valid_k(mu: Distribution) -> int:
    """Smallest integer strictly greater than 1 over the least positive mass."""
    positive = mu.masses[mu.masses > 0]
    if positive.size == 0:
        raise ValueError("distribution has no positive mass")
    return int(math.floor(1.0 / float(positive.min()))) + 1


@dataclass(frozen=True)
class SmoothedTarget:
    """A target mixed with a uniform layer on its low-mass states."""

    base: Distribution
    k: int
    smoothed: Distribution
    low_set: frozenset[int]


def smooth(mu: Distribution, k: int) -> SmoothedTarget:
    """Mix `mu` with weight 1/k of the uniform distribution on the states of
    mass below 1/k. The result is strictly positive whenever that low set is
    nonempty."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    threshold = 1.0 / k
    low = np.flatnonzero(mu.masses < threshold)
    if low.size == 0:
        raise EmptyLowSetError(f"no state has mass below 1/{k}")
    eta = np.zeros(mu.n)
    eta[low] = 1.0 / low.size
    smoothed = eta / k + (1.0 - 1.0 / k) * mu.masses
    return SmoothedTarget(
        base=mu,
        k=k,
        smoothed=Distribution(smoothed),
        low_set=frozenset(int(i) for i in low),
    )


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
        if not np.all(np.isfinite(m)) or np.any(m < 0) or np.any(m > 1 + ROW_SUM_TOL):
            raise ValueError("transition probabilities must be finite and in [0, 1]")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("rows must sum to 1")
        if np.any(np.diag(m) < 0.5 - ROW_SUM_TOL):
            raise ValueError("diagonal entries must be at least 1/2")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return len(self.state_labels)


def build_kernel(target: Distribution, g: Graph) -> TransitionKernel:
    """Reversible graph-supported kernel with invariant law `target`.

    States are ordered by decreasing target mass (ties by node order). The
    common hop probability p is chosen so that every row keeps at least half
    of its mass on the diagonal; hops down the mass order use p, hops up use
    p scaled by the mass ratio, which forces detailed balance exactly.
    """
    if target.n != g.n:
        raise ValueError("target and graph have different sizes")
    if np.any(target.masses <= 0):
        raise NonPositiveTargetError("target must be strictly positive everywhere")
    if len(connected_components(g)) != 1:
        raise NotConnectedError("kernel construction needs a connected graph")

    n = g.n
    if n == 1:
        return TransitionKernel(np.array([[1.0]]), (g.labels[0],), 0.0)

    order = sorted(range(n), key=lambda i: (-target.masses[i], i))
    position = {node: pos for pos, node in enumerate(order)}
    mass = [float(target.masses[i]) for i in order]

    load = np.zeros(n)  # per-row off-diagonal weight at unit hop probability
    for pos, node in enumerate(order):
        acc = 0.0
        for nb in g.neighbors(node):
            nb_pos = position[nb]
            acc += 1.0 if nb_pos > pos else mass[nb_pos] / mass[pos]
        load[pos] = acc
    p = float(min(1.0 / (2.0 * d) for d in load))

    matrix = np.zeros((n, n))
    for pos, node in enumerate(order):
        for nb in g.neighbors(node):
            nb_pos = position[nb]
            if nb_pos > pos:
                matrix[pos, nb_pos] = p
            else:
                matrix[pos, nb_pos] = mass[nb_pos] / mass[pos] * p
        matrix[pos, pos] = 1.0 - p * load[pos]

    labels = tuple(g.labels[i] for i in order)
    return TransitionKernel(matrix, labels, p)


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
    kernel: TransitionKernel | np.ndarray, tol: float = 1e-12, max_squarings: int = 80
) -> np.ndarray:
    """Left eigenvector for eigenvalue 1, by iterated powering.

    Squares the matrix until all rows agree within `tol`; every row of the
    limit is the stationary law.
    """
    q = kernel.matrix if isinstance(kernel, TransitionKernel) else np.asarray(kernel, float)
    q = np.array(q, dtype=float)
    for _ in range(max_squarings):
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

        The almost-sure empirical convergence guarantee is established for
        the far slower theoretical schedule; power-gap runs trade that for
        tractable horizons.
        """
        if c < 1 or e < 0:
            raise ValueError("need c >= 1 and e >= 0")
        warnings.warn(
            "power-gap schedule is a desk-scale surrogate; the almost-sure "
            "convergence guarantee holds for Schedule.theoretical",
            UserWarning,
            stacklevel=2,
        )

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

        def time_fn(l: int) -> int:
            if l <= len(frozen):
                return frozen[l - 1]
            raise ScheduleError(f"explicit schedule has only {len(frozen)} times")

        return cls("explicit", time_fn, max_intervals=len(frozen))

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

    def gap_ok(self, c: int, e: int, horizon: int) -> bool:
        """Check t_{l+1} - t_l >= c * l**e over every interval below `horizon`."""
        if c <= 0:
            return True  # switch times strictly increase, so every gap is positive
        l = 1
        while self.time_at(l) < horizon:
            if not self.has_interval(l + 1):
                return True  # last interval is open-ended
            if self.time_at(l + 1) - self.time_at(l) < c * l**e:
                return False
            l += 1
        return True

    def __repr__(self) -> str:
        return f"Schedule({self.label})"


class SmoothedKernelFamily:
    """Schedule-indexed kernels for one target on one graph, cached per level.

    Applies only when the target's support is disconnected inside a single
    component; the state space is restricted to that component before any
    kernel is built.
    """

    def __init__(self, mu: Distribution, g: Graph, schedule: Schedule):
        case = classify_case(g, mu)
        if case is CaseLabel.SUPPORT_SPLIT:
            raise SupportSplitError(
                "target support spans several components; no consistent chain exists"
            )
        if case is not CaseLabel.SUPPORT_IN_COMPONENT:
            raise CaseMismatchError(
                f"schedule-driven smoothing applies to disconnected support inside "
                f"one component, not to {case.value}"
            )
        support_labels = {g.labels[i] for i in mu.support()}
        component = next(
            comp for comp in connected_components(g) if support_labels <= comp
        )
        if len(component) < g.n:
            self.graph = induced_subgraph(g, component)
            keep = [g.index(lab) for lab in self.graph.labels]
            self.mu = Distribution(mu.masses[keep])
        else:
            self.graph = g
            self.mu = mu
        self.schedule = schedule
        self._cache: dict[int, TransitionKernel] = {}

    def kernel_for_level(self, k: int) -> TransitionKernel:
        kernel = self._cache.get(k)
        if kernel is None:
            kernel = build_kernel(smooth(self.mu, k).smoothed, self.graph)
            self._cache[k] = kernel
        return kernel

    def kernel_for_interval(self, l: int) -> TransitionKernel:
        return self.kernel_for_level(self.schedule.smoothing_index(l))

    def kernel_at(self, t: int) -> TransitionKernel:
        return self.kernel_for_interval(self.schedule.interval_index(t))

