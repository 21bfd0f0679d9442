"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy and json: the generator never calls the
program under test, so the inputs (and their set-up cost) do not change when
the program does. Sizes are fixed per family; the workload seed only picks
structure and numbers, which keeps the cost of a workload steady across
seeds. `generate` returns a manifest of what it wrote.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np

SEP = "|"  # joint-profile label separator used by the game file format

# (name, dims, payoff kind, runs `mixed`). Two-coalition i.i.d. games up to
# 4x4 go to the exact support enumeration; common-interest games always have
# a pure equilibrium, so `mixed` takes the point-mass path. The i.i.d. games
# with 5 or more strategies (and the three-coalition ones) are decomposed
# and analyzed only: whether fictitious play certifies them is a coin flip
# per seed at ~7 s a miss, which no seed-to-seed bound could absorb. The
# solver's known failure is kept deterministic by the pursuit game.
GAME_FAMILIES = (
    ("iid2_2x2", (2, 2), "iid", True),
    ("iid2_3x3", (3, 3), "iid", True),
    ("iid2_3x4", (3, 4), "iid", True),
    ("iid2_4x4", (4, 4), "iid", True),
    ("iid2_5x5", (5, 5), "iid", False),
    ("iid2_5x6", (5, 6), "iid", False),
    ("iid2_6x6", (6, 6), "iid", False),
    ("iid3_4x6x8", (4, 6, 8), "iid", False),
    ("iid3_8x8x8", (8, 8, 8), "iid", False),
    ("common2_6x6", (6, 6), "common", True),
    ("common3_8x8x8", (8, 8, 8), "common", True),
)

# mcmc-build graph sizes: dobrushin allocates n**3 float64 values, so
# n = 300 needs 216 MB and n <= 400 stays within 512 MB.
BUILD_SIZES = (200, 300)
# mcmc-run graph sizes: both sides of a small-state-space size gate.
RUN_SIZES = (24, 160)
ZERO_MASS_SUPPORT = 4  # pairwise non-adjacent states carrying the mass


def _rng(seed: int, family: str) -> np.random.Generator:
    """One independent stream per (workload seed, family name)."""
    key = [int(b) for b in family.encode()]
    return np.random.default_rng([seed, *key])


def derived_seed(seed: int, tag: str) -> int:
    """CLI --seed value for one operation, derived from the workload seed."""
    return int(_rng(seed, "cli-seed:" + tag).integers(0, 2**31 - 1))


def random_connected(rng: np.random.Generator, n: int, extra: int) -> list[tuple[int, int]]:
    """Edges (i < j) of a random spanning tree plus `extra` random chords.

    The edge count is fixed by (n, extra), so graph-walking costs do not
    depend on the seed.
    """
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    limit = n * (n - 1) // 2
    want = min(n - 1 + extra, limit)
    while len(edges) < want:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    return sorted(edges)


def _closed_adjacency(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    adj = np.eye(n, dtype=np.int8)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


def strong_product_edges(factor_edges: list[list[tuple[int, int]]], dims) -> list[tuple[int, int]]:
    """Edges (x < y) of the strong product over row-major joint indices,
    via the Kronecker product of the closed adjacency matrices."""
    joint = np.ones((1, 1), dtype=np.int8)
    for edges, n in zip(factor_edges, dims):
        joint = np.kron(joint, _closed_adjacency(n, edges))
    xs, ys = np.nonzero(np.triu(joint, k=1))
    return list(zip(xs.tolist(), ys.tolist()))


def game_doc(spaces, factor_edges, payoffs) -> dict:
    """A game file: one coalition per player, payoffs flattened row-major,
    graph inline as the strong product of the factor graphs."""
    dims = tuple(len(s) for s in spaces)
    labels = [SEP.join(combo) for combo in product(*spaces)]
    edges = strong_product_edges(factor_edges, dims)
    return {
        "players": len(spaces),
        "coalitions": [[h + 1] for h in range(len(spaces))],
        "strategies": [list(s) for s in spaces],
        "payoffs": [np.asarray(p, dtype=float).reshape(-1).tolist() for p in payoffs],
        "graph": {"nodes": labels, "edges": [[labels[x], labels[y]] for x, y in edges]},
    }


def _spaces(dims) -> list[list[str]]:
    return [[f"{chr(ord('a') + h)}{i}" for i in range(d)] for h, d in enumerate(dims)]


def random_game(seed: int, name: str, dims, kind: str) -> dict:
    rng = _rng(seed, name)
    factor_edges = [random_connected(rng, d, d // 2) for d in dims]
    if kind == "common":
        shared = rng.normal(size=dims)
        payoffs = [shared] * len(dims)
    else:
        payoffs = [rng.normal(size=dims) for _ in dims]
    return game_doc(_spaces(dims), factor_edges, payoffs)


def pursuit_game() -> dict:
    """The 5x5 cyclic pursuit game on complete factors: A is the identity
    rolled by one, B the identity. The uniform profile is its equilibrium,
    and fictitious play does not certify it."""
    n = 5
    complete = [(i, j) for i in range(n) for j in range(i + 1, n)]
    a = np.roll(np.eye(n), 1, axis=1)
    return game_doc(_spaces((n, n)), [complete, complete], [a, np.eye(n)])


def path_game(seed: int) -> dict:
    """3x3 game on path factors a0-a1-a2 whose only equilibrium mixes a0
    and a2: a zero-sum pennies core on {0, 2} x {0, 2}, and a strictly
    dominated middle strategy for both coalitions. The equilibrium support
    is disconnected inside its factor, so play needs the smoothing schedule."""
    rng = _rng(seed, "path_game")
    core = rng.uniform(0.5, 1.5, size=(2, 2)) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    a = np.zeros((3, 3))
    a[np.ix_([0, 2], [0, 2])] = core
    a[[0, 2], 1] = rng.normal(size=2)
    b = -a
    gap = rng.uniform(4.0, 6.0, size=(2, 3))
    a[1, :] = np.minimum(a[0, :], a[2, :]) - gap[0]
    b[:, 1] = np.minimum(b[:, 0], b[:, 2]) - gap[1]
    path = [(0, 1), (1, 2)]
    return game_doc([["a0", "a1", "a2"], ["b0", "b1", "b2"]], [path, path], [a, b])


def graph_doc(n: int, edges: list[tuple[int, int]]) -> dict:
    labels = [f"v{i}" for i in range(n)]
    return {"nodes": labels, "edges": [[labels[a], labels[b]] for a, b in edges]}


def positive_target(rng: np.random.Generator, labels: list[str]) -> dict:
    masses = rng.dirichlet(np.ones(len(labels)))
    return {"masses": dict(zip(labels, masses.tolist()))}


def zero_mass_target(rng: np.random.Generator, n: int, edges, labels) -> dict:
    """Mass on a few pairwise non-adjacent states, zero elsewhere: the
    support is disconnected inside a connected graph, so the run needs the
    smoothing schedule whatever the seed."""
    adj = _closed_adjacency(n, edges)
    chosen: list[int] = []
    for node in rng.permutation(n).tolist():
        if not any(adj[node, c] for c in chosen):
            chosen.append(node)
        if len(chosen) == ZERO_MASS_SUPPORT:
            break
    if len(chosen) < 2:
        raise ValueError("graph has no two non-adjacent states")
    masses = rng.dirichlet(np.ones(len(chosen)))
    return {"masses": {labels[c]: m for c, m in zip(sorted(chosen), masses.tolist())}}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path.name


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the generated inputs of one workload into `out` and return a
    manifest {file name: description}."""
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}
    if workload == "repeated-play":
        manifest[_write(out / "path_game.json", path_game(seed))] = (
            "3x3 game on path factors, dominated middle strategy"
        )
    elif workload == "chain-run":
        for n in RUN_SIZES:
            rng = _rng(seed, f"run_graph_{n}")
            edges = random_connected(rng, n, n // 2)
            doc = graph_doc(n, edges)
            manifest[_write(out / f"graph_{n}.json", doc)] = (
                f"connected graph, {n} states, {len(edges)} edges"
            )
            manifest[_write(out / f"positive_{n}.json", positive_target(rng, doc["nodes"]))] = (
                f"Dirichlet target on all {n} states"
            )
            target = zero_mass_target(rng, n, edges, doc["nodes"])
            manifest[_write(out / f"zeromass_{n}.json", target)] = (
                f"target on {len(target['masses'])} non-adjacent states of {n}"
            )
    elif workload == "one-shot":
        for name, dims, kind, _ in GAME_FAMILIES:
            manifest[_write(out / f"{name}.json", random_game(seed, name, dims, kind))] = (
                f"{kind} payoffs, dims {'x'.join(map(str, dims))}, random connected factors"
            )
        manifest[_write(out / "pursuit.json", pursuit_game())] = "5x5 cyclic pursuit game"
        for n in BUILD_SIZES:
            rng = _rng(seed, f"build_graph_{n}")
            edges = random_connected(rng, n, n // 2)
            doc = graph_doc(n, edges)
            manifest[_write(out / f"sparse_{n}.json", doc)] = (
                f"sparse connected graph, {n} states, {len(edges)} edges"
            )
            manifest[_write(out / f"target_{n}.json", positive_target(rng, doc["nodes"]))] = (
                f"Dirichlet target on all {n} states"
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return manifest
