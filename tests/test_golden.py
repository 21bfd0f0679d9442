"""Golden artifacts: sha256 digests of CLI outputs on the bundled fixtures.

Every command is deterministic given its inputs, flags and seed, so any
change to how uniforms become states, or to how artifacts are written, shows
up here as a digest mismatch. A deliberate change must update the table and
say why in the change log. `PYTHONPATH=src python tests/test_golden.py`
prints the current digests of every case in the table's format.
"""

import hashlib
import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from graphgame import formats, simulate
from graphgame.cli import main
from graphgame.games import CoalitionStructure, GGame
from graphgame.graphs import complete_graph

from conftest import game_to_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PATH5 = [str(FIXTURES / "path5_graph.json"), str(FIXTURES / "uniform5_target.json")]
EXAMPLE = [
    str(FIXTURES / "chain_example_graph.json"),
    str(FIXTURES / "chain_example_target.json"),
]
PENNIES = str(FIXTURES / "matching_pennies.json")
COORDINATION = str(FIXTURES / "coordination.json")

RUNS = {
    "mcmc-run-path5": ["mcmc-run", *PATH5, "--steps", "20000", "--seed", "3"],
    "mcmc-run-example-powergap": [
        "mcmc-run", *EXAMPLE, "--steps", "20000", "--seed", "1",
        "--schedule", "powergap:1:3", "--burn-in", "100",
    ],
    "mcmc-run-example-counterexample": [
        "mcmc-run", *EXAMPLE, "--steps", "5000", "--seed", "2",
        "--schedule", "counterexample",
    ],
    "repeated-pennies": [
        "repeated", PENNIES, "--t-eval", "5000", "--replicas", "3", "--seed", "4",
    ],
    "repeated-coordination": [
        "repeated", COORDINATION, "--t-eval", "5000", "--replicas", "3", "--seed", "5",
    ],
    "folk-check-pennies": [
        "folk-check", PENNIES, "--t-eval", "10000", "--dev-steps", "2000",
        "--replicas", "4", "--seed", "6",
    ],
    "folk-check-coordination": [
        "folk-check", COORDINATION, "--t-eval", "10000", "--dev-steps", "2000",
        "--replicas", "4", "--seed", "7",
    ],
    "analyze-pennies": ["analyze", PENNIES],
    "analyze-coordination": ["analyze", COORDINATION],
    "mixed-pennies": ["mixed", PENNIES],
    "mixed-coordination": ["mixed", COORDINATION],
    "decompose-pennies": ["decompose", PENNIES],
    "decompose-coordination": ["decompose", COORDINATION],
    "mcmc-build-path5": ["mcmc-build", *PATH5],
    "mcmc-build-example-smoothed": ["mcmc-build", *EXAMPLE, "--smooth-k", "3"],
    "analyze-generated-4x5x4": ["analyze", "{in}/game.json"],
    "mcmc-build-generated-ring60": ["mcmc-build", "{in}/graph.json", "{in}/target.json"],
    "mcmc-run-generated-ring60": [
        "mcmc-run", "{in}/graph.json", "{in}/target.json", "--steps", "20000", "--seed", "8",
    ],
    "mcmc-run-generated-ring60-smoothed": [
        "mcmc-run", "{in}/graph.json", "{in}/target_zero.json", "--steps", "20000",
        "--seed", "9",
    ],
    "mcmc-run-generated-ring60-arc": [
        "mcmc-run", "{in}/graph.json", "{in}/target_arc.json", "--steps", "20000",
        "--seed", "10",
    ],
    "mcmc-run-generated-ring60-restricted": [
        "mcmc-run", "{in}/ring_path_graph.json", "{in}/ring_path_target.json",
        "--steps", "20000", "--seed", "11",
    ],
    "mcmc-run-generated-tree120": [
        "mcmc-run", "{in}/tree_graph.json", "{in}/tree_target.json", "--steps", "20000",
        "--seed", "12",
    ],
}


def write_generated_game(folder: Path) -> None:
    """A 3-coalition 4x5x4 game with integer payoffs on a graph that is not
    a strong product: profiles p < q are adjacent when (p * q + p + q) % 7
    is 0, numbering profiles row-major, and node order is reversed."""
    dims = (4, 5, 4)
    spaces = [[f"c{h}s{i}" for i in range(d)] for h, d in enumerate(dims)]
    flat = np.arange(int(np.prod(dims)))
    payoffs = [((flat * (11 + 2 * h) + h * h) ** 2 % 23 - 11).tolist() for h in range(3)]
    labels = GGame.joint_labels(spaces)
    edges = [
        [labels[p], labels[q]]
        for p in range(len(labels))
        for q in range(p + 1, len(labels))
        if (p * q + p + q) % 7 == 0
    ]
    doc = {
        "players": 3,
        "coalitions": [[1], [2], [3]],
        "strategies": spaces,
        "payoffs": payoffs,
        "graph": {"nodes": labels[::-1], "edges": edges},
    }
    formats.dump_json(doc, folder / "game.json")


def write_generated_ring(folder: Path) -> None:
    """A 60-node ring with a chord every 9 nodes (diameter well above 3), a
    strictly positive target with masses 1..7 up to normalization, a target
    whose mass sits on three pairwise non-adjacent nodes, which the chain
    realizes by smoothing, and a target positive on the arc v0..v39 only,
    whose chain lives on that connected strict subset. Also the ring beside
    a disjoint 3-node path, listed first, with a target on two non-adjacent
    ring nodes: its smoothed chain is restricted to the ring's component."""
    n = 60
    labels = [f"v{i}" for i in range(n)]
    edges = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
    edges += [[labels[i], labels[(i + 30) % n]] for i in range(0, 30, 9)]
    formats.dump_json({"nodes": labels, "edges": edges}, folder / "graph.json")
    formats.dump_json(
        {lab: float(i % 7 + 1) / 234 for i, lab in enumerate(labels)},
        folder / "target.json",
    )
    formats.dump_json(
        {lab: {0: 0.4, 17: 0.35, 41: 0.25}.get(i, 0.0) for i, lab in enumerate(labels)},
        folder / "target_zero.json",
    )
    formats.dump_json(
        {lab: float(i % 5 + 1) / 120 if i < 40 else 0.0 for i, lab in enumerate(labels)},
        folder / "target_arc.json",
    )
    path = ["p0", "p1", "p2"]
    edges += [[path[0], path[1]], [path[1], path[2]]]
    formats.dump_json({"nodes": path + labels, "edges": edges}, folder / "ring_path_graph.json")
    formats.dump_json(
        {lab: {"v5": 0.6, "v22": 0.4}.get(lab, 0.0) for lab in path + labels},
        folder / "ring_path_target.json",
    )


def write_generated_tree(folder: Path) -> None:
    """A 120-node binary-heap tree (node i's parent is (i - 1) // 2) plus a
    chord from every sixth node i to (13 i + 5) % 120, with a strictly
    positive target whose masses are 10 ** (-3 (53 i % 120) / 119) up to
    normalization. The mass range of 1000 makes the hop probability tiny,
    so the chain holds on most steps: the near-frozen shape of a Dirichlet
    target on a sparse random graph."""
    n = 120
    labels = [f"t{i}" for i in range(n)]
    edges = {((i - 1) // 2, i) for i in range(1, n)}
    edges |= {tuple(sorted((i, (13 * i + 5) % n))) for i in range(0, n, 6)}
    formats.dump_json(
        {"nodes": labels, "edges": [[labels[a], labels[b]] for a, b in sorted(edges)]},
        folder / "tree_graph.json",
    )
    masses = 10.0 ** (-3.0 * (np.arange(n) * 53 % n) / (n - 1))
    formats.dump_json(
        dict(zip(labels, (masses / masses.sum()).tolist())), folder / "tree_target.json"
    )

DIGESTS = {
    "analyze-coordination": {
        "equilibria.json": "cab83b3ae5e5b032b8a6a9b6136a9ffc8b9d196df7e8427dac08783dd7e6f650",
    },
    "analyze-pennies": {
        "equilibria.json": "e46d34fda833a4f01534c5dd538602ce4b9945287093be5184320d1fa42b8859",
    },
    "analyze-generated-4x5x4": {
        "equilibria.json": "58046ccecca820a4386c851761a86a705ed0d7fe8a71b36cf2a18942b6d977ce",
    },
    "decompose-coordination": {
        "decomposition.json": "3ea0e229f1ca93e38973ef816822f78557818962f82b5a4908d4f93f6a6dc627",
    },
    "decompose-pennies": {
        "decomposition.json": "996bce8f78b7e75007e0f645e404d09b12fa156922325f2a189ed6b432b255a7",
    },
    "folk-check-coordination": {
        "folk.json": "4839a6556e00faa60421a84b849005d7b1a82ae2469f5b73cd74a4e536f92830",
    },
    "folk-check-pennies": {
        "folk.json": "b0d1a981ebd87af175ade9653a10181bd2a93ec8d1be53e5aab3469df4967007",
    },
    "mixed-coordination": {
        "mixed.json": "8cfad1ede9ca450d8942b762bf1604ef3d21f7290fb9d5327752be7ad27a54ad",
    },
    "mixed-pennies": {
        "mixed.json": "d9ecbf655a36bdd39c367c5fbdcc4e4aa359e9e611b18417a5e0d0a0e39feacb",
    },
    "mcmc-build-example-smoothed": {
        "build.json": "1a4516a638c181a6f454cc6d20d84fb2cd0d6fec9ce2a96914bd0d0fa5aff378",
        "kernel.csv": "511fdd737370a3ff60fcd0b4a32be93aa62c3f3de4548a75ab259e93c4c812d3",
    },
    "mcmc-build-generated-ring60": {
        "build.json": "2ae7bc09ac26ded75cd4964428efde0cf7e4d47059aefd93b6d4ad212cb94072",
        "kernel.csv": "30f6b2df556f1b5181e2194c1e7a7aef732e73bc1174c1deecd3595b3317ce74",
    },
    "mcmc-build-path5": {
        "build.json": "19be6939ed69e00076e5af64ce91bfd145e8291c2b12780ed33045715ae591f4",
        "kernel.csv": "80620bbe5e263a3049567074e1909a2ac88a2a5a9bd3c2db34054164da3705d2",
    },
    "mcmc-run-example-counterexample": {
        "empirical.csv": "00714c8b4fe0994f0d24f0c41b6b0e6cc65ca3be6b2e80376d6c6a6b4e4f3df6",
        "kernel.csv": "020b50abb1e12d4a7391b70630ae317ca0d4596c0d05081699378d5feb36887a",
        "summary.json": "b19817dd1a1aaeaca47cc4d394884e0b1c1d8f0ad99fbb491e9993c97fd6b688",
        "trace.csv": "a284fae75bac3c7cecd334c0f5f022a14e0c18683eee6d4c8630ad02aa35ea5e",
        "tv_series.csv": "36ea8f6e0a6d2b4f8d9e6814b9160aa045b904bb93943ee35537b4fc8a52097e",
    },
    "mcmc-run-example-powergap": {
        "empirical.csv": "055a1d3a8bd4095480e84963f9a53147f2fc36fedd4e2504299c1093d731f365",
        "kernel.csv": "0ba63e9f9ed3e420f2fa291f26593166712a7057c057f9f7cc485c61ec29920b",
        "summary.json": "7c0b56db62da338850f19cd05864d7110e6e4fa84e501f3310242d21fa12b763",
        "trace.csv": "bac98c73f201e12374a97d8345483b7d6174223405dbe0a93a34c2baa849a7e6",
        "tv_series.csv": "82f710c090999d63a693b9d8d5886b4662fa31633078a542a9ec910bc238bd13",
    },
    "mcmc-run-generated-ring60": {
        "empirical.csv": "f85cc69d1c6b4cb3630e84da48f7c4744b4aebfc47ea9c79140c44b4cca0057a",
        "kernel.csv": "30f6b2df556f1b5181e2194c1e7a7aef732e73bc1174c1deecd3595b3317ce74",
        "summary.json": "b7343c40b7403439b6525c4a19367dcfb45b179da2810ccee6ee97b44f865f21",
        "trace.csv": "8997a9cb263afc82ee6c3cf62036f17692d49cab2f40eee7935327116a387bac",
        "tv_series.csv": "5e5afbe9878304650a19065b9ef17c9841fe7a136e5ccd8daa7a26099f7e3490",
    },
    "mcmc-run-generated-ring60-arc": {
        "empirical.csv": "24f7a720ee42154dd5d3f31ed55483be4a5ca0aff1c27d06a9b103cc3071e581",
        "kernel.csv": "81e726d22b1769fdd6297b28ba456533afbf06670fab06da6186891c49e37fe0",
        "summary.json": "ffa976ff4ea1ead98d1595089304ad73b1384abb23e4fdd2003f59a3bf11c14a",
        "trace.csv": "770899de97dc73e27f7e27ce1c93f8b9ae210cf2e096d45c2c4d299315ac3bd3",
        "tv_series.csv": "533fd2fdacbeee598052a5b4524c7b96725054e6669c72cb0bf5b562f15dc18d",
    },
    "mcmc-run-generated-ring60-restricted": {
        "empirical.csv": "61c19e19757853825801d6cf9292c0b1fcc00d8ff83e00e621faebb47e0f08bc",
        "kernel.csv": "2cc90832c0d01590fe750513f818f4febd50dead6b887aa061b22075bfb45153",
        "summary.json": "7de0c06c253b23b7da00401bd21e8e2aedff0e8fe61cf9a2ef23fd9b015d3f0b",
        "trace.csv": "6973b2c9c3705186fcf71fff185564bec6ff8bacbabb8bb613b9b74174aa4ea9",
        "tv_series.csv": "c6223240bdaee60af5e8f7cc8a30932f87d0cb86b64108d563cfea6ff3548bec",
    },
    "mcmc-run-generated-ring60-smoothed": {
        "empirical.csv": "9d800a11a2d5fe0ea85f2f32a40b14b38046f5a4065f0dd82b27e7d7a0bdf100",
        "kernel.csv": "bedbfd3a287a79db18b57b53d5f524fa3055f1a939bff0a313d90a9d41dd22d3",
        "summary.json": "f3adbcc7bafe8a885fef35916340777f62ac633c6cbdc90f451ea7326de0caa2",
        "trace.csv": "0ad9949c7bde592696c0d1d9610822aae37ea36ad3a929524029033342669363",
        "tv_series.csv": "7436811804a4fa06d7b3d9d5535503a36a73301ae3536ee89955675b20a44117",
    },
    "mcmc-run-generated-tree120": {
        "empirical.csv": "9c67f3aa1faaa7d3977f53bd80899e407875df22e2cfeda9127fbd6f027683bd",
        "kernel.csv": "83a1a7ab87a290d9e9b4a7893d5db55bc5e2f5d0192c92d34ffb08eec148823a",
        "summary.json": "960278e218e66be2f1f17c27a5210610bc187be10c455119e0bf77e4cd15b446",
        "trace.csv": "07e8033d92023bbbffd3d0710d0e835cd7fdf196d0a3c3c36c90ae014d97732d",
        "tv_series.csv": "c425e832c1f5a7dcd110327fa9f5a4f2ff6bda3d42679414d0cc22e75c7dd038",
    },
    "mcmc-run-path5": {
        "empirical.csv": "bdb003c0bdc6f2264323eeccdd5551985b1963483a3a2fe98fa0b8152a819cbe",
        "kernel.csv": "80620bbe5e263a3049567074e1909a2ac88a2a5a9bd3c2db34054164da3705d2",
        "summary.json": "e46d9add390c893abe5eec50e8b4ece4ca43d97eea52111dd659b1b7d5933466",
        "trace.csv": "c4520717f641a494f1cc43ef3fe50cf162a1d669f006e4c30be59fcac3e2030e",
        "tv_series.csv": "b680067b8f3b0448689d2420d80b71e2407994ace14a56384dc6527f3b6ceb86",
    },
    "repeated-coordination": {
        "repeated.json": "c2271460bee076e98f7ca3ffe66120d85a362351af0e2ec394c48e88c0de7bbf",
        "trace.csv": "f43610b35a03bac038e3c666c6a38da02ef8e29c9dfa635183cb6cc42b5b52cf",
    },
    "repeated-pennies": {
        "repeated.json": "1bf9e7d3355d27080208c99860db0680982dd555b62a5337304013a92fea6a90",
        "trace.csv": "649019a96815270d4d747d0e7de57bb032209447d49b8d59c27311a2828d32e7",
    },
}


def artifact_digests(name: str, tmp_path: Path) -> dict[str, str]:
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    write_generated_game(inputs)
    write_generated_ring(inputs)
    write_generated_tree(inputs)
    argv = [arg.replace("{in}", str(inputs)) for arg in RUNS[name]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden_digests(name, tmp_path):
    assert artifact_digests(name, tmp_path) == DIGESTS[name]


def test_near_frozen_golden_skips_holds(tmp_path):
    """The tree120 chain holds on most steps, so its run reads hold
    intervals and skips them; the digests above were taken from the
    bisection loop alone."""
    holds, holds_for = [], simulate._holds_for

    def spy(table, count):
        holds.append(holds_for(table, count))
        return holds[-1]

    with mock.patch.object(simulate, "_holds_for", spy):
        digests = artifact_digests("mcmc-run-generated-tree120", tmp_path)
    assert any(holds)
    assert digests == DIGESTS["mcmc-run-generated-tree120"]


def test_mixed_solves_pursuit_game(tmp_path):
    """The 5x5 cyclic pursuit game (A the identity rolled by one, B the
    identity) has the uniform profile as its equilibrium; exact support
    enumeration finds it."""
    n = 5
    spaces = (tuple(f"a{i}" for i in range(n)), tuple(f"b{i}" for i in range(n)))
    game = GGame(
        CoalitionStructure((1, 2), ((1,), (2,))),
        spaces,
        (np.roll(np.eye(n), 1, axis=1), np.eye(n)),
        complete_graph(GGame.joint_labels(spaces)),
    )
    path = tmp_path / "pursuit.json"
    formats.dump_json(game_to_dict(game), path)
    assert main(["mixed", str(path), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "mixed.json").read_text())
    assert sorted(doc["profile"]) == ["C1", "C2"]
    for masses in doc["profile"].values():
        assert np.allclose(masses, 1.0 / n, rtol=0.0, atol=1e-12)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    print("DIGESTS = {")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digests = artifact_digests(name, Path(tmp))
        print(f"    {name!r}: {{")
        for artifact, digest in digests.items():
            print(f"        {artifact!r}: {digest!r},")
        print("    },")
    print("}")
