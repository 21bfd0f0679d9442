"""Coalition game model over strategy graphs and pure equilibrium enumeration.

A game couples a coalition structure, per-coalition strategy spaces, one
payoff tensor per coalition over the joint profile space, and a graph whose
nodes are the joint profiles. A profile is a tuple of per-coalition strategy
indices; its graph label joins the strategy labels with the tuple separator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence
import warnings

import numpy as np

from .graphs import TUPLE_SEP, Graph, joint_labels

Profile = tuple[int, ...]


class EquilibriumSet(frozenset):
    """The profiles that pass `is_pure_c_equilibrium`; `violations` maps every
    other profile to its `violation_witness`."""

    __slots__ = ("violations",)


@dataclass(frozen=True)
class CoalitionStructure:
    """Ordered partition of the player set into disjoint coalitions."""

    players: tuple[int, ...]
    coalitions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.coalitions:
            raise ValueError("need at least one coalition")
        flat = [p for c in self.coalitions for p in c]
        if any(not c for c in self.coalitions):
            raise ValueError("coalitions must be nonempty")
        if len(set(flat)) != len(flat) or set(flat) != set(self.players):
            raise ValueError("coalitions must partition the player set")

    @property
    def r(self) -> int:
        return len(self.coalitions)


class GGame:
    """A game whose joint strategy profiles are the nodes of a graph."""

    __slots__ = (
        "structure",
        "spaces",
        "payoffs",
        "graph",
        "dims",
        "_node_of_profile",
        "_profile_of_node",
    )

    def __init__(
        self,
        structure: CoalitionStructure,
        spaces: Sequence[Sequence[str]],
        payoffs: Sequence[np.ndarray],
        graph: Graph,
        player_payoffs: Sequence[np.ndarray] | None = None,
    ):
        spaces = tuple(tuple(s) for s in spaces)
        if len(spaces) != structure.r:
            raise ValueError("one strategy space per coalition required")
        dims = tuple(len(s) for s in spaces)
        if any(d == 0 for d in dims):
            raise ValueError("strategy spaces must be nonempty")
        if any(len(set(s)) != d for s, d in zip(spaces, dims)):
            raise ValueError("strategy labels must be unique within each coalition")
        if payoffs is None:
            if player_payoffs is None:
                raise ValueError("payoffs or player_payoffs required")
            payoffs = coalition_payoff_from_players(player_payoffs, structure)
        else:
            payoffs = tuple(np.asarray(t, dtype=float) for t in payoffs)
            if player_payoffs is not None:
                derived = coalition_payoff_from_players(player_payoffs, structure)
                if any(
                    not np.array_equal(a, b) for a, b in zip(payoffs, derived)
                ):
                    warnings.warn(
                        "direct coalition payoffs differ from player sums; "
                        "using the direct tensors",
                        stacklevel=2,
                    )
        if len(payoffs) != structure.r:
            raise ValueError("one payoff tensor per coalition required")
        for t in payoffs:
            if t.shape != dims:
                raise ValueError(
                    f"payoff tensor shape {t.shape} does not match spaces {dims}"
                )
            if not np.all(np.isfinite(t)):
                raise ValueError("payoff values must be finite")

        labels = self.joint_labels(spaces)
        if set(labels) != set(graph.labels):
            raise ValueError("graph node set must equal the joint profile set")

        self.structure = structure
        self.spaces = spaces
        self.payoffs = tuple(payoffs)
        self.graph = graph
        self.dims = dims
        node_of = np.empty(dims, dtype=np.int64)
        profiles = list(product(*(range(d) for d in dims)))
        for prof, label in zip(profiles, labels):
            node_of[prof] = graph.index(label)
        self._node_of_profile = node_of
        prof_of_node: list[Profile | None] = [None] * graph.n
        for prof in profiles:
            prof_of_node[node_of[prof]] = prof
        self._profile_of_node = tuple(prof_of_node)

    joint_labels = staticmethod(joint_labels)

    @property
    def r(self) -> int:
        return self.structure.r

    def profiles(self) -> Iterable[Profile]:
        return product(*(range(d) for d in self.dims))

    def node_of(self, profile: Profile) -> int:
        return int(self._node_of_profile[profile])

    def profile_of_node(self, node: int) -> Profile:
        return self._profile_of_node[node]

    def label_of(self, profile: Profile) -> str:
        return TUPLE_SEP.join(
            self.spaces[h][profile[h]] for h in range(self.r)
        )

    def profile_of_label(self, label: str) -> Profile:
        parts = label.split(TUPLE_SEP)
        if len(parts) != self.r:
            raise ValueError(f"label {label!r} is not a joint profile")
        return tuple(self.spaces[h].index(p) for h, p in enumerate(parts))

    def payoff(self, coalition: int, profile: Profile) -> float:
        return float(self.payoffs[coalition][profile])

    def validate_profile(self, profile: Profile) -> None:
        if len(profile) != self.r or any(
            not 0 <= profile[h] < self.dims[h] for h in range(self.r)
        ):
            raise ValueError(f"profile {profile} out of bounds for dims {self.dims}")


def coalition_payoff_from_players(
    player_payoffs: Sequence[np.ndarray], structure: CoalitionStructure
) -> tuple[np.ndarray, ...]:
    """Sum player payoff tensors into one tensor per coalition.

    `player_payoffs` is aligned with `structure.players`; all tensors must
    share the joint shape.
    """
    tensors = [np.asarray(t, dtype=float) for t in player_payoffs]
    if len(tensors) != len(structure.players):
        raise ValueError("one payoff tensor per player required")
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise ValueError("player payoff tensors must share the joint shape")
    by_player = dict(zip(structure.players, tensors))
    return tuple(
        sum(by_player[p] for p in coalition) for coalition in structure.coalitions
    )


def is_pure_c_equilibrium(game: GGame, sbar: Profile) -> bool:
    """True iff no coalition gains by adopting its block from any profile
    adjacent to `sbar` in the game graph."""
    return violation_witness(game, sbar) is None


def violation_witness(
    game: GGame, sbar: Profile
) -> tuple[int, Profile, float] | None:
    """A (coalition, adjacent profile, payoff gain) triple showing `sbar` is
    not an equilibrium, or None when it is one."""
    game.validate_profile(sbar)
    node = game.node_of(sbar)
    for nb in game.graph.neighbors(node):
        other = game.profile_of_node(nb)
        for h in range(game.r):
            if other[h] == sbar[h]:
                continue
            cand = sbar[:h] + (other[h],) + sbar[h + 1 :]
            gain = game.payoff(h, cand) - game.payoff(h, sbar)
            if gain > 0:
                return h, other, gain
    return None


def pure_c_equilibria(game: GGame) -> EquilibriumSet:
    """Exact enumeration of the pure equilibria; may be empty. One pass over
    the neighbour arrays finds each arc s -> t's gain for each coalition h
    from taking its block of t into s; a profile's first positive gain,
    neighbours ascending and then coalitions, is its `violation_witness`."""
    g, r = game.graph, game.r
    flat = np.argsort(game._node_of_profile, axis=None, kind="stable")  # node -> profile
    coords = np.unravel_index(flat, game.dims)
    src, dst = g.sources, g.indices
    gains = np.empty((len(dst), r))
    for h in range(r):
        own = game.payoffs[h].ravel()
        move = (coords[h][dst] - coords[h][src]) * int(np.prod(game.dims[h + 1 :]))
        gains[:, h] = own[flat[src] + move] - own[flat[src]]
    hits = np.flatnonzero(gains > 0)  # by arc, then coalition
    hits = hits[np.diff(src[hits // r], prepend=-1) > 0]  # each source's first
    arcs, profile_of = hits // r, game._profile_of_node
    violations = {
        profile_of[s]: (h, profile_of[t], gain)
        for s, t, h, gain in zip(
            src[arcs].tolist(), dst[arcs].tolist(), (hits % r).tolist(),
            gains.flat[hits].tolist(),
        )
    }
    result = EquilibriumSet(p for p in profile_of if p not in violations)
    result.violations = violations
    return result
