"""Repeated play of games on decomposable strategy graphs.

Each coalition walks on its own factor graph: a stage strategy must be
adjacent-or-equal to the previous one in that factor. Under minimal
information a policy sees only the time and its own past strategies, so the
per-coalition processes are independent by construction; the engine gives
each coalition its own random stream and never shows a policy anything else.
Long-run average payoffs of kernel policies realize the expected payoff of
the mixed profile they target, which is what the deviation harness probes.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .chains import Schedule, SupportSplitError
from .games import GGame, Profile, is_pure_c_equilibrium
from .graphs import Decomposition, Graph, NotDecomposableError, bfs, factorize
from .mixed import (
    Distribution,
    MixedProfile,
    is_mixed_c_equilibrium,
    payoff_vector,
)
from .simulate import (
    Realization,
    Trace,
    TransitionTable,
    UniformStream,
    _joint_trace,
    component_streams,
    cumulative_row,
    draw_index,
)


class RepeatedError(Exception):
    """Invalid repeated-game configuration or execution."""


class ConsistencyViolationError(RepeatedError):
    """A policy emitted a strategy not adjacent to its previous one."""


class InfoModel(Enum):
    MAXIMAL = "maximal"
    MINIMAL = "minimal"


@dataclass(frozen=True)
class PlayersInit:
    """Initial strategies chosen by the coalitions themselves."""

    profile: Profile


@dataclass(frozen=True)
class RefereeInit:
    """Initial strategies drawn by a referee from per-coalition distributions,
    each on its coalition's own stream."""

    distributions: tuple[Distribution, ...]


def _next_hop_table(g: Graph, targets: Sequence[int]) -> list[int | None]:
    """For each node outside the target set, its least neighbour one hop
    nearer the set (None inside the set and where the set is unreachable)."""
    hops = bfs(g, targets)[2]
    return [
        next(i for i in g.neighbors(j) if hops[i] == d - 1) if d > 0 else None
        for j, d in enumerate(hops)
    ]


class Policy:
    """Rule producing a coalition's stage-t strategy from its own history.

    `step` must return a strategy adjacent-or-equal (in the coalition's
    factor graph) to `own_history[-1]`. `joint_history` is passed only under
    maximal information; under minimal information the engine calls
    `step(t, own_history, stream)`.
    """

    name = "policy"

    def step(
        self,
        t: int,
        own_history: Sequence[int],
        stream: UniformStream,
        joint_history: Sequence[Sequence[int]] | None = None,
    ) -> int:
        raise NotImplementedError


class TablePolicy(Policy):
    """A Markov policy as a transition table: a random mapping f(state, u).

    `hop[s]` is the successor of a state that moves without a draw (a
    bridging hop toward the chain's states, a greedy reply, or s itself for
    a state held from then on), or None for a state that `chain` moves: a
    Realization or a TransitionTable, whose states never lead back to a hop
    state.
    A table policy sees only its own state and stream, so the engine
    computes its whole path at once.
    """

    def __init__(
        self,
        name: str,
        hop: Sequence[int | None],
        chain: Realization | TransitionTable | None = None,
    ):
        self.name = name
        self.hop = list(hop)
        self.chain = chain
        self._checked: tuple[Graph, bool] | None = None

    def moves_allowed(self, factor: Graph) -> bool:
        """Whether every move the policy can make is adjacent-or-equal in
        `factor`: its hops, its table's successors, or the arcs of a
        realization on `factor` itself. Checked once per factor."""
        if self._checked is None or self._checked[0] is not factor:
            moves = [(s, t) for s, t in enumerate(self.hop) if t is not None]
            if isinstance(self.chain, TransitionTable):
                moves += [(s, t) for s, row in enumerate(self.chain.succ) for t in row or ()]
            ok = not isinstance(self.chain, Realization) or self.chain.graph == factor
            src, dst = np.array(moves, dtype=np.int64).reshape(-1, 2).T
            self._checked = (factor, ok and bool(factor.allows(src, dst).all()))
        return self._checked[1]

    def _path(self, start: int, stages: int, stream: UniformStream) -> np.ndarray:
        out = np.empty(stages, dtype=np.int64)
        out[0] = node = start
        t = 0
        while t + 1 < stages:
            nxt = self.hop[node]
            if nxt is None:
                break
            if nxt == node:
                out[t + 1 :] = node
                return out
            t += 1
            out[t] = node = nxt
        else:
            return out
        if self.chain is None or node not in self.chain:
            raise RepeatedError(
                f"{self.name}: the policy's states are unreachable from strategy {node}"
            )
        self.chain.run(node, stages - t, stream, out[t:], t0=t)
        return out


class ConstantPolicy(TablePolicy):
    """Hold one strategy; walks a shortest path there first if started
    elsewhere."""

    def __init__(self, graph: Graph, atom: int):
        hop = _next_hop_table(graph, [atom])
        hop[atom] = atom
        super().__init__(f"constant[{graph.labels[atom]}]", hop)


def _cut_points(d: int, index: Callable[[float], int], low: float) -> list[float]:
    """The least floats u at which a nondecreasing index(u) on [low, 1)
    reaches k, for k = 1..d-1, closed by 1.0: bisecting a uniform into
    these cuts reproduces index(u) exactly."""
    cuts = []
    for k in range(1, d):
        u = low + (1.0 - low) * k / d
        while index(u) >= k:
            u = math.nextafter(u, 0.0)
        while index(u) < k:
            u = math.nextafter(u, 1.0)
        cuts.append(u)
    return cuts + [1.0]


class LazyRandomWalkPolicy(TablePolicy):
    """Stay with probability 1/2, else move to a uniform strict neighbor."""

    def __init__(self, graph: Graph):
        cum, succ = [], []
        for i in range(graph.n):
            nbrs = graph.neighbors(i)
            d = len(nbrs)
            hold = [0.5] if d else []  # u < 1/2 stays put
            cum.append(hold + _cut_points(d, lambda u: min(int((u - 0.5) * 2 * d), d - 1), 0.5))
            succ.append([i, *nbrs])
        super().__init__("lazy-walk", [None] * graph.n, TransitionTable(cum, succ))


class RandomWalkPolicy(TablePolicy):
    """Uniform draw over the closed neighborhood (self plus neighbors)."""

    def __init__(self, graph: Graph):
        cum, succ = [], []
        for i in range(graph.n):
            options = list(graph.neighbors(i))
            insort(options, i)
            d = len(options)
            cum.append(_cut_points(d, lambda u: min(int(u * d), d - 1), 0.0))
            succ.append(options)
        super().__init__("walk", [None] * graph.n, TransitionTable(cum, succ))


class MyopicGreedyPolicy(TablePolicy):
    """Best reply among adjacent strategies against a uniform belief on the
    other coalitions, as if every round were the last; ties break low."""

    def __init__(self, graph: Graph, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        hop = [
            max((i, *graph.neighbors(i)), key=lambda c: (weights[c], -c))
            for i in range(graph.n)
        ]
        super().__init__("myopic-greedy", hop)

    @classmethod
    def for_coalition(cls, game: GGame, decomposition: Decomposition, coalition: int):
        weights = payoff_vector(game, MixedProfile.uniform(game), coalition)
        return cls(decomposition.factors[coalition], weights)


class CustomPolicy(Policy):
    """User callback; receives exactly what the information model allows."""

    def __init__(self, fn: Callable, name: str = "custom"):
        self._fn = fn
        self.name = name

    def step(self, t, own_history, stream, joint_history=None):
        return int(self._fn(t, own_history, stream, joint_history))


def decompose_game(game: GGame) -> Decomposition:
    """Factorize the game graph over the coalition strategy spaces; raises
    NotDecomposableError when no factorization exists."""
    dec = factorize(game.graph, game.spaces)
    if dec is None:
        raise NotDecomposableError(
            "the game graph is not the strong product of per-coalition factors"
        )
    return dec


@dataclass(frozen=True)
class RepeatedConfig:
    """A repeated game ready to run: decomposition, policies, information
    model, initial-strategy rule, and horizon (None means open-ended,
    evaluated over `t_eval` stages)."""

    game: GGame
    decomposition: Decomposition
    policies: tuple[Policy, ...]
    init: PlayersInit | RefereeInit
    info: InfoModel = InfoModel.MINIMAL
    horizon: int | None = None
    t_eval: int = 10_000

    def __post_init__(self) -> None:
        game = self.game
        if len(self.policies) != game.r:
            raise ValueError("one policy per coalition required")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.horizon is None and self.t_eval < 1:
            raise ValueError("t_eval must be positive")
        derived = factorize(game.graph, game.spaces)
        if derived is None or derived.factors != self.decomposition.factors:
            raise ValueError("decomposition does not reproduce the game graph")
        if isinstance(self.init, PlayersInit):
            game.validate_profile(self.init.profile)
        else:
            dists = self.init.distributions
            if len(dists) != game.r:
                raise ValueError("one referee distribution per coalition required")
            for h, d in enumerate(dists):
                if d.n != game.dims[h]:
                    raise ValueError(f"referee distribution {h} has wrong size")

    @property
    def stages(self) -> int:
        return self.horizon if self.horizon is not None else self.t_eval


def _initial_strategy(config: RepeatedConfig, h: int, stream: UniformStream) -> int:
    init = config.init
    if isinstance(init, PlayersInit):
        return init.profile[h]
    return draw_index(cumulative_row(init.distributions[h].masses), stream.next())


def _closed_sets(factor: Graph) -> list[frozenset[int]]:
    """The strategies each strategy may move to: itself and its neighbours."""
    return [frozenset((*factor.neighbors(i), i)) for i in range(factor.n)]


def _check_move(factor: Graph, h: int, prev: int, nxt: int, t: int) -> None:
    if not 0 <= nxt < factor.n:
        raise ConsistencyViolationError(
            f"coalition {h} emitted strategy index {nxt} outside its space at stage {t}"
        )
    if not factor.adjacent_indices(prev, nxt):
        raise ConsistencyViolationError(
            f"coalition {h} jumped {factor.labels[prev]} -> {factor.labels[nxt]} "
            f"at stage {t}; the strategies are not adjacent"
        )


def _table_path(
    factor: Graph, h: int, policy: TablePolicy, start: int, stream: UniformStream, stages: int
) -> np.ndarray:
    """A table policy's whole path, checked against the factor's edges at
    once unless every move the policy can make is allowed."""
    path = policy._path(start, stages, stream)
    if policy.moves_allowed(factor):
        return path
    bad = np.flatnonzero(~factor.allows(path[:-1], path[1:]))
    if bad.size:
        t = int(bad[0]) + 1
        _check_move(factor, h, int(path[t - 1]), int(path[t]), t)
    return path


def _play(
    config: RepeatedConfig, runs: list[tuple[int, Policy, UniformStream]], stages: int
) -> list[np.ndarray]:
    """The paths of `runs`, (coalition, policy, stream) triples, in order.

    Table policies observe no other coalition and draw only from their own
    stream, so their paths are computed up front; they are the result when no
    run holds a step policy. Otherwise they are replayed stage by stage
    beside the step policies. Under maximal information a step policy sees
    the joint history, in which the runs before it already hold their
    stage-t move; under minimal information it is called as
    `step(t, own_history, stream)`.
    """
    factors = config.decomposition.factors
    starts = [_initial_strategy(config, h, stream) for h, _, stream in runs]
    paths = [
        _table_path(factors[h], h, policy, start, stream, stages)
        if isinstance(policy, TablePolicy)
        else None
        for (h, policy, stream), start in zip(runs, starts)
    ]
    if all(path is not None for path in paths):
        return paths
    histories = [[start] for start in starts]
    joint = histories if config.info is InfoModel.MAXIMAL else None
    movers = []
    for (h, policy, stream), history, path in zip(runs, histories, paths):
        if path is not None:
            movers.append((h, history, path.tolist(), None, None, None, None))
        else:
            # a plain CustomPolicy's step only converts its callback's result
            fn = policy._fn if type(policy) is CustomPolicy else None
            closed = _closed_sets(factors[h])
            movers.append((h, history, None, fn, policy.step, stream, closed))
    for t in range(1, stages):
        for h, history, path, fn, step, stream, closed in movers:
            if path is not None:
                nxt = path[t]
            else:
                if fn is not None:
                    nxt = int(fn(t, history, stream, joint))
                elif joint is None:
                    nxt = step(t, history, stream)
                else:
                    nxt = step(t, history, stream, joint_history=joint)
                if nxt not in closed[history[-1]]:
                    _check_move(factors[h], h, history[-1], nxt, t)
            history.append(nxt)
    return [np.asarray(history, dtype=np.int64) for history in histories]


def _stage_payoffs(game: GGame, factor_states: list[np.ndarray], coalition: int) -> np.ndarray:
    return game.payoffs[coalition][tuple(factor_states)]


def repeated_payoff(
    trace: Trace, game: GGame, coalition: int, horizon: int | None
) -> float:
    """Average stage payoff over a finite horizon, or the tail estimate of
    the limit-inferior average when the horizon is open-ended.

    The open-ended estimate is the minimum running average over the second
    half of the trace; for converging policies it agrees with the final
    average up to noise, and a gap flags non-convergence.
    """
    if trace.components is None:
        raise ValueError("need a joint trace with per-coalition components")
    if tuple(c.state_labels for c in trace.components) != game.spaces:
        raise ValueError("the trace's components are not over the game's strategy spaces")
    if horizon is not None:
        if horizon < 1 or horizon > trace.length:
            raise ValueError("horizon exceeds the trace length")
        # exact identity with the count-weighted ergodic average; a joint
        # trace's states index the profiles row-major, as the payoffs do
        counts = trace.prefix_counts(horizon)
        pay = game.payoffs[coalition].reshape(-1)
        total = 0.0
        for idx, count in enumerate(counts.tolist()):
            if count:
                total += pay[idx] * count
        return total / horizon
    stage = _stage_payoffs(game, [c.states for c in trace.components], coalition)
    running = np.cumsum(stage) / np.arange(1, stage.size + 1)
    start = stage.size // 2
    return float(running[start:].min())


@dataclass(frozen=True)
class CoalitionPayoff:
    final_average: float
    tail_liminf: float | None


@dataclass(frozen=True)
class PayoffReport:
    per_coalition: tuple[CoalitionPayoff, ...]


def simulate_repeated(config: RepeatedConfig, seed: int) -> tuple[Trace, PayoffReport]:
    """Run the repeated game and report per-coalition payoffs.

    Coalition h consumes the h-th stream spawned from `seed`: one draw for a
    referee-distribution start, then whatever its policy draws per stage.
    """
    stages = config.stages
    streams = component_streams(seed, config.game.r)
    runs = list(zip(range(config.game.r), config.policies, streams))
    if config.info is InfoModel.MINIMAL:
        # one coalition at a time: the lower coalition's violation is reported
        factor_states = [_play(config, [run], stages)[0] for run in runs]
    else:
        factor_states = _play(config, runs, stages)
    trace = _joint_trace(factor_states, config.game.spaces, seed)
    per = []
    for h in range(config.game.r):
        final = repeated_payoff(trace, config.game, h, horizon=trace.length)
        tail = (
            repeated_payoff(trace, config.game, h, horizon=None)
            if config.horizon is None
            else None
        )
        per.append(CoalitionPayoff(final_average=final, tail_liminf=tail))
    return trace, PayoffReport(per_coalition=tuple(per))


def equilibrium_policies(
    game: GGame,
    decomposition: Decomposition,
    mixed: MixedProfile,
) -> tuple[Policy, ...]:
    """One chain policy per coalition whose empirical law realizes its part
    of a certified mixed equilibrium on its factor graph.

    Each part is realized by a `Realization` on its factor, named by its
    case: point masses hold, connected supports walk a fixed kernel on the
    support, and disconnected supports inside one factor component follow
    the power-gap smoothing schedule. A policy started off its chain's
    states bridges to them by a shortest path."""
    if not is_mixed_c_equilibrium(game, mixed, tol=1e-6):
        raise ValueError("profile is not a certified mixed equilibrium")
    policies: list[Policy] = []
    for h, factor in enumerate(decomposition.factors):
        try:
            realization = Realization(mixed.parts[h], factor, Schedule.power_gap())
        except SupportSplitError as exc:
            raise SupportSplitError(f"coalition {h}: {exc}") from None
        hop = _next_hop_table(factor, realization.nodes)
        policies.append(TablePolicy(realization.case.value, hop, realization))
    return tuple(policies)


def stock_deviation_policies(
    game: GGame, decomposition: Decomposition, coalition: int
) -> tuple[Policy, ...]:
    """The five standard probes: both extreme constants, lazy and plain
    random walks, and the myopic greedy reply."""
    factor = decomposition.factors[coalition]
    return (
        ConstantPolicy(factor, 0),
        ConstantPolicy(factor, factor.n - 1),
        LazyRandomWalkPolicy(factor),
        RandomWalkPolicy(factor),
        MyopicGreedyPolicy.for_coalition(game, decomposition, coalition),
    )


@dataclass(frozen=True)
class DeviationReport:
    coalition: int
    policy_name: str
    equilibrium_mean: float
    deviation_mean: float
    paired_stderr: float
    margin: float
    improved: bool

    @property
    def verdict(self) -> str:
        return "Improved" if self.improved else "NotImproved"


def deviation_test(
    config: RepeatedConfig,
    coalition: int,
    deviation: Policy,
    t_eval: int,
    replicas: int,
    seed: int,
) -> DeviationReport:
    """Compare one coalition's mean payoff under a deviation policy against
    its equilibrium policy across paired replicas: the deviation improves
    when its mean exceeds the equilibrium's by three paired standard errors.

    Each replica spawns one stream per coalition; the deviation reuses the
    deviating coalition's stream while the other coalitions' paths are
    shared between the two arms, which pairs the comparison and keeps the
    deviation independent of their randomness.
    """
    if config.info is not InfoModel.MINIMAL:
        raise ValueError("deviation testing requires minimal information")
    if replicas < 2:
        raise ValueError("need at least two replicas for a standard error")
    game = config.game
    r = game.r
    eq_means = np.empty(replicas)
    dev_means = np.empty(replicas)
    replica_seeds = np.random.SeedSequence(seed).spawn(replicas)
    for i, replica_seed in enumerate(replica_seeds):
        children = replica_seed.spawn(r)
        base_streams = [UniformStream(np.random.default_rng(c)) for c in children]
        runs = zip(range(r), config.policies, base_streams)
        states = [_play(config, [run], t_eval)[0] for run in runs]
        eq_means[i] = float(_stage_payoffs(game, states, coalition).mean())
        dev_stream = UniformStream(np.random.default_rng(children[coalition]))
        dev_states = list(states)
        dev_states[coalition] = _play(config, [(coalition, deviation, dev_stream)], t_eval)[0]
        dev_means[i] = float(_stage_payoffs(game, dev_states, coalition).mean())
    diffs = dev_means - eq_means
    paired_stderr = float(diffs.std(ddof=1) / np.sqrt(replicas))
    margin = 3.0 * paired_stderr
    eq_mean = float(eq_means.mean())
    dev_mean = float(dev_means.mean())
    return DeviationReport(
        coalition=coalition,
        policy_name=deviation.name,
        equilibrium_mean=eq_mean,
        deviation_mean=dev_mean,
        paired_stderr=paired_stderr,
        margin=margin,
        improved=bool(dev_mean > eq_mean + margin),
    )


def two_stage_check(game: GGame, sbar: Profile, decomposition: Decomposition) -> bool:
    """With a referee placing play at a pure equilibrium and full information,
    no coalition can profit at the single remaining stage by moving to an
    adjacent strategy in its factor: check that neighborhood optimality."""
    if not is_pure_c_equilibrium(game, sbar):
        raise ValueError("profile is not a pure equilibrium")
    for h in range(game.r):
        factor = decomposition.factors[h]
        base = game.payoff(h, sbar)
        for cand in (sbar[h], *factor.neighbors(sbar[h])):
            candidate = sbar[:h] + (cand,) + sbar[h + 1 :]
            if game.payoff(h, candidate) > base:
                return False
    return True
