"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np
import pytest

from graphgame.chains import KernelLevels, TransitionKernel
from graphgame.formats import graph_to_dict
from graphgame.games import CoalitionStructure, GGame
from graphgame.graphs import Graph, complete_graph, edgeless_graph
from graphgame.repeated import Policy, RepeatedError
from graphgame.simulate import TransitionTable, _table_rows


def random_graph(rng: random.Random, labels: list[str], p_edge: float = 0.5) -> Graph:
    edges = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rng.random() < p_edge:
                edges.append((labels[i], labels[j]))
    return Graph(labels, edges)


def random_connected_graph(rng: random.Random, labels: list[str], extra: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges."""
    edges = set()
    order = labels[:]
    rng.shuffle(order)
    for i in range(1, len(order)):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((a, b) if labels.index(a) < labels.index(b) else (b, a))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            e = (labels[i], labels[j])
            if e not in edges and rng.random() < extra:
                edges.add(e)
    return Graph(labels, sorted(edges))


def random_game(
    rng: random.Random,
    max_coalitions: int = 3,
    max_strategies: int = 3,
    graph: str = "random",
    payoff_values: range = range(-9, 10),
) -> GGame:
    """Small random game with integer payoffs (exact float arithmetic)."""
    r = rng.randint(1, max_coalitions)
    sizes = [rng.randint(1, max_strategies) for _ in range(r)]
    players = tuple(range(1, r + 1))
    structure = CoalitionStructure(players, tuple((p,) for p in players))
    spaces = tuple(
        tuple(f"c{h}s{i}" for i in range(sizes[h])) for h in range(r)
    )
    dims = tuple(sizes)
    payoffs = tuple(
        np.array(
            [float(rng.choice(payoff_values)) for _ in range(int(np.prod(dims)))]
        ).reshape(dims)
        for _ in range(r)
    )
    labels = GGame.joint_labels(spaces)
    if graph == "complete":
        g = complete_graph(labels)
    elif graph == "edgeless":
        g = edgeless_graph(labels)
    else:
        g = random_graph(rng, labels)
    return GGame(structure, spaces, payoffs, g)


def edge_labels(g: Graph) -> frozenset[frozenset[str]]:
    """The edges of g as unordered label pairs."""
    return frozenset(frozenset((g.labels[i], g.labels[j])) for i, j in g.edges.tolist())


def game_to_dict(game: GGame) -> dict:
    """The game file document of `game`, with its graph inline."""
    return {
        "players": list(game.structure.players),
        "coalitions": [list(c) for c in game.structure.coalitions],
        "strategies": [list(s) for s in game.spaces],
        "payoffs": [t.reshape(-1).tolist() for t in game.payoffs],
        "graph": graph_to_dict(game.graph),
    }


def level_kernel(levels: KernelLevels, labels: Sequence[str]) -> TransitionKernel:
    """Level 0 of `levels` as the dense kernel `build_kernel` returns, the
    levels' nodes named by `labels`. Each arc and each diagonal entry is
    assigned to its own cell of a zero matrix."""
    g, order, position = levels.graph, levels.order[0], levels.position[0]
    matrix = np.zeros((order.size, order.size))
    matrix[position[g.sources], position[g.indices]] = levels.hops[0]
    matrix[position, position] = levels.diagonal[0]
    return TransitionKernel(matrix, tuple(labels[i] for i in order.tolist()), float(levels.p[0]))


def kernel_table(kernel: TransitionKernel, labels: Sequence[str]) -> TransitionTable:
    """The table of `kernel`'s rows, state i being labels[i]."""
    index = {lab: i for i, lab in enumerate(labels)}
    node_of_pos = np.array([index[lab] for lab in kernel.state_labels], dtype=np.intp)
    n = kernel.n
    cum, succ = _table_rows(np.full(n, n), kernel.matrix.ravel(), np.tile(node_of_pos, n))
    return TransitionTable._indexed(node_of_pos.tolist(), cum, succ, len(labels))


class ScriptedPolicy(Policy):
    """Replay a fixed strategy sequence (index 0 is the initial strategy)."""

    name = "scripted"

    def __init__(self, sequence: Sequence[int]):
        self.sequence = tuple(int(s) for s in sequence)

    def step(self, t, own_history, stream, joint_history=None):
        if t >= len(self.sequence):
            raise RepeatedError("script exhausted before the horizon")
        return self.sequence[t]


@pytest.fixture
def example_graph() -> Graph:
    """Four nodes, edges s1-s3, s3-s4, s2-s4 (a path in disguise)."""
    return Graph(
        ["s1", "s2", "s3", "s4"],
        [("s1", "s3"), ("s3", "s4"), ("s2", "s4")],
    )


def matching_pennies() -> GGame:
    structure = CoalitionStructure((1, 2), ((1,), (2,)))
    spaces = (("H", "T"), ("H", "T"))
    p1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    payoffs = (p1, -p1)
    g = complete_graph(GGame.joint_labels(spaces))
    return GGame(structure, spaces, payoffs, g)


def coordination_game() -> GGame:
    """Identical-interest 2x2 game: diagonal pays (2, 1), off-diagonal 0."""
    structure = CoalitionStructure((1, 2), ((1,), (2,)))
    spaces = (("a", "b"), ("a", "b"))
    t = np.array([[2.0, 0.0], [0.0, 1.0]])
    payoffs = (t, t.copy())
    g = complete_graph(GGame.joint_labels(spaces))
    return GGame(structure, spaces, payoffs, g)


@pytest.fixture
def pennies() -> GGame:
    return matching_pennies()


@pytest.fixture
def coordination() -> GGame:
    return coordination_game()
