import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphgame import chains, cli, formats, simulate
from graphgame.cli import main
from graphgame.mixed import NoConvergenceError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_json(path):
    return json.loads(Path(path).read_text())


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestAnalyze:
    def test_isolated_lists_everything(self, tmp_path):
        code = main(["analyze", str(FIXTURES / "isolated.json"), "--out", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "equilibria.json")
        assert len(doc["equilibria"]) == 4
        assert doc["violations"] == {}

    def test_matching_pennies_empty(self, tmp_path):
        code = main(
            ["analyze", str(FIXTURES / "matching_pennies.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        doc = read_json(tmp_path / "equilibria.json")
        assert doc["equilibria"] == []
        assert len(doc["violations"]) == 4

    def test_malformed_payoffs_exit_2(self, tmp_path):
        doc = read_json(FIXTURES / "matching_pennies.json")
        doc["payoffs"][0] = [1, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["analyze", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["analyze", str(FIXTURES / "coordination.json"), "--out", str(out1)])
        main(["analyze", str(FIXTURES / "coordination.json"), "--out", str(out2)])
        assert tree_bytes(out1) == tree_bytes(out2)


class TestMixed:
    def test_pennies_uniform(self, tmp_path):
        code = main(
            ["mixed", str(FIXTURES / "matching_pennies.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        doc = read_json(tmp_path / "mixed.json")
        assert doc["profile"]["C1"] == [0.5, 0.5]
        assert doc["expected_payoffs"]["C1"] == 0.0


class TestMcmcBuild:
    def test_uniform_path(self, tmp_path):
        code = main(
            [
                "mcmc-build",
                str(FIXTURES / "path5_graph.json"),
                str(FIXTURES / "uniform5_target.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = read_json(tmp_path / "build.json")
        assert doc["p"] == 0.25
        assert doc["stationary_max_error"] <= 1e-9
        assert (tmp_path / "kernel.csv").exists()

    def test_smoothing_flag(self, tmp_path):
        code = main(
            [
                "mcmc-build",
                str(FIXTURES / "chain_example_graph.json"),
                str(FIXTURES / "chain_example_target.json"),
                "--smooth-k",
                "8",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_build_json_ignores_the_blas_thread_count(self, tmp_path):
        """On a 2000-node ring, the dense kernel squared to its stationary
        law gave `build.json` files that differed between one and two BLAS
        threads. The law now comes from detailed balance in Python floats."""
        n = 2000
        labels = [f"v{i}" for i in range(n)]
        edges = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
        (tmp_path / "graph.json").write_text(json.dumps({"nodes": labels, "edges": edges}))
        masses = np.random.default_rng(7).dirichlet(np.ones(n)).tolist()
        (tmp_path / "target.json").write_text(json.dumps(dict(zip(labels, masses))))
        path = [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH", "")]
        docs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                   "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "graphgame.cli", "mcmc-build", "graph.json",
                 "target.json", "--out", str(out)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            docs.append((out / "build.json").read_bytes())
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        assert doc["dobrushin"] == 1.0
        assert doc["stationary_max_error"] <= 1e-15
        assert doc["balance_max_error"] <= 1e-18

    def test_commands_reach_no_dense_kernel(self):
        """The dense kernel and the functions that read it are library API
        only: no command holds an n x n array."""
        for name in ("build_kernel", "stationary_distribution", "dobrushin"):
            assert not hasattr(cli, name), name


class TestMcmcRun:
    def test_case_iv_converges(self, tmp_path):
        code = main(
            [
                "mcmc-run",
                str(FIXTURES / "path5_graph.json"),
                str(FIXTURES / "uniform5_target.json"),
                "--steps",
                "50000",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["case"] == "support-connected"
        assert summary["converged"] is True
        series = (tmp_path / "tv_series.csv").read_text().splitlines()[1:]
        first_tv = float(series[0].split(",")[1])
        last_tv = float(series[-1].split(",")[1])
        assert last_tv < first_tv
        for name in ("kernel.csv", "trace.csv", "empirical.csv"):
            assert (tmp_path / name).exists()

    def test_counterexample_flags_nonconvergence(self, tmp_path):
        code = main(
            [
                "mcmc-run",
                str(FIXTURES / "chain_example_graph.json"),
                str(FIXTURES / "chain_example_target.json"),
                "--steps",
                "20000",
                "--seed",
                "1",
                "--schedule",
                "counterexample",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["case"] == "support-in-component"
        assert summary["converged"] is False

    def test_support_split_exit_3(self, tmp_path):
        code = main(
            [
                "mcmc-run",
                str(FIXTURES / "split_graph.json"),
                str(FIXTURES / "split_target.json"),
                "--steps",
                "100",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "graph, target, schedule",
        [
            ("chain_example_graph.json", "chain_example_target.json", "counterexample"),
            ("path5_graph.json", "uniform5_target.json", "powergap:1:3"),
        ],
        ids=["smoothed", "connected"],
    )
    def test_one_classification_per_run(self, tmp_path, monkeypatch, graph, target, schedule):
        """The run shares the realization the command builds for its summary
        and kernel, so the target is classified once."""
        calls = []

        def counted(g, mu):
            calls.append(mu)
            return chain_case(g, mu)

        chain_case = chains.chain_case
        monkeypatch.setattr(chains, "chain_case", counted)
        monkeypatch.setattr(simulate, "chain_case", counted)
        args = [str(FIXTURES / graph), str(FIXTURES / target), "--steps", "500"]
        assert main(["mcmc-run", *args, "--schedule", schedule, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_schedule_checked_without_smoothing(self, tmp_path, capsys):
        """A connected support uses no schedule, but a malformed one is still
        a usage error that writes nothing; the default one reports null."""
        argv = ["mcmc-run", PATH5_GRAPH, UNIFORM5, "--steps", "100"]
        bad = tmp_path / "bad"
        assert main(argv + ["--schedule", "bogus", "--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (bad / "summary.json").exists()
        assert main(argv + ["--out", str(tmp_path / "good")]) == 0
        assert read_json(tmp_path / "good" / "summary.json")["schedule"] is None

    def test_default_flags_warn_nothing(self, tmp_path):
        """The default power-gap schedule on a zero-mass target emits no
        warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["mcmc-run", *EXAMPLE, "--steps", "500", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "summary.json")["case"] == "support-in-component"
        assert [w for w in caught if issubclass(w.category, UserWarning)] == []

    def test_zero_steps_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "mcmc-run",
                    str(FIXTURES / "path5_graph.json"),
                    str(FIXTURES / "uniform5_target.json"),
                    "--steps",
                    "0",
                    "--out",
                    str(tmp_path),
                ]
            )
        assert err.value.code == 2

    def test_burn_in_reported_only(self, tmp_path):
        code = main(
            [
                "mcmc-run",
                str(FIXTURES / "path5_graph.json"),
                str(FIXTURES / "uniform5_target.json"),
                "--steps",
                "5000",
                "--burn-in",
                "1000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["burn_in"]["steps"] == 1000

    def test_burn_in_on_a_one_state_run(self, tmp_path):
        """One state leaves no room for burn-in: it is reported as 0 steps."""
        argv = ["mcmc-run", PATH5_GRAPH, UNIFORM5, "--steps", "1", "--burn-in", "5"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "summary.json")["burn_in"]["steps"] == 0

    def test_theoretical_schedule(self, tmp_path):
        """On the 4-node example the theoretical schedule switches at 1 and
        2**20, so 5000 steps run on level 1 alone, as under `explicit([1])`."""
        argv = ["mcmc-run", *EXAMPLE, "--schedule", "theoretical", "--steps", "5000"]
        assert main(argv + ["--seed", "4", "--out", str(tmp_path / "run")]) == 0
        assert read_json(tmp_path / "run" / "summary.json")["schedule"] == "theoretical[N=4]"
        g = formats.load_graph(EXAMPLE[0])
        target = formats.load_target(EXAMPLE[1], g)
        component = simulate.ComponentSpec(target, g, chains.Schedule.explicit([1]))
        spec = simulate.ProductChainSpec(components=(component,), steps=5000, seed=4)
        formats.dump_trace_csv(simulate.run_product(spec).components[0], tmp_path / "trace.csv")
        assert (tmp_path / "run" / "trace.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()

    def test_reruns_byte_identical(self, tmp_path):
        args = [
            "mcmc-run",
            str(FIXTURES / "chain_example_graph.json"),
            str(FIXTURES / "chain_example_target.json"),
            "--steps",
            "5000",
            "--seed",
            "11",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert tree_bytes(out1) == tree_bytes(out2)

    @pytest.mark.parametrize(
        "shape, atoms",
        [("ring", None), ("ring", (0, 1000, 2000)), ("star", None), ("star", (1, 1000, 1999))],
        ids=["uniform", "smoothed", "star-uniform", "star-smoothed"],
    )
    def test_ring_memory_is_bounded(self, tmp_path, shape, atoms):
        """On a 4000-node ring the run writes a 32 MB `kernel.csv` from the
        arcs of one level, one row at a time; a dense 4000 x 4000 kernel
        alone takes 128 MB. A 2000-node star with hub v0 has one node of
        degree 1999, and memory still follows its arcs, not n times the
        largest degree. With three pairwise non-adjacent atoms the target is
        smoothed."""
        n = 4000 if shape == "ring" else 2000
        labels = [f"v{i}" for i in range(n)]
        if shape == "ring":
            edges = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
        else:
            edges = [[labels[0], leaf] for leaf in labels[1:]]
        nodes = labels if atoms is None else [labels[i] for i in atoms]
        (tmp_path / "graph.json").write_text(json.dumps({"nodes": labels, "edges": edges}))
        (tmp_path / "target.json").write_text(json.dumps({v: 1 / len(nodes) for v in nodes}))
        argv = ["mcmc-run", str(tmp_path / "graph.json"), str(tmp_path / "target.json")]
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(argv + ["--steps", "2000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert read_json(out / "summary.json")["case"] == (
            "support-connected" if atoms is None else "support-in-component"
        )
        assert (out / "kernel.csv").stat().st_size > n * n
        assert peak < 48 * 2**20


class TestEdgeOrder:
    @pytest.mark.parametrize("target", ["positive", "two-nodes"])
    def test_artifacts_ignore_the_edge_order_of_the_graph_file(self, tmp_path, target):
        """A sparse connected 200-node graph written with its edges sorted
        and shuffled: `mcmc-build` and `mcmc-run` write the same bytes from
        both files, on a strictly positive target and on a target that needs
        smoothing. Above a few dozen nodes a neighbour set iterates in the
        order it was filled; on this graph, summing a row's load in that
        order moves one kernel entry by one ulp."""
        n, seed = 200, 16
        labels = [f"v{i}" for i in range(n)]
        rng = np.random.default_rng(seed)
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        while len(edges) < n - 1 + n // 2:
            edges.add(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())))
        listed = [[labels[a], labels[b]] for a, b in sorted(edges)]
        if target == "positive":
            masses, smoothing = rng.dirichlet(np.ones(n)).tolist(), []
        else:
            masses = [{0: 0.6, n - 1: 0.4}.get(i, 0.0) for i in range(n)]
            smoothing = ["--smooth-k", "3"]
        (tmp_path / "target.json").write_text(json.dumps({"masses": dict(zip(labels, masses))}))
        random.Random(seed).shuffle(shuffled := listed[:])
        trees = []
        for name, order in (("sorted", listed), ("shuffled", shuffled)):
            graph = tmp_path / f"{name}.json"
            graph.write_text(json.dumps({"nodes": labels, "edges": order}))
            inputs = [str(graph), str(tmp_path / "target.json")]
            build, run = tmp_path / name / "build", tmp_path / name / "run"
            assert main(["mcmc-build", *inputs, *smoothing, "--out", str(build)]) == 0
            steps = ["--steps", "3000", "--seed", "5", "--schedule", "powergap:1:2"]
            assert main(["mcmc-run", *inputs, *steps, "--out", str(run)]) == 0
            trees.append((tree_bytes(build), tree_bytes(run)))
        (build_a, run_a), (build_b, run_b) = trees
        assert build_a["kernel.csv"] == build_b["kernel.csv"]
        assert run_a["trace.csv"] == run_b["trace.csv"]
        assert (build_a, run_a) == (build_b, run_b)


class TestDecompose:
    def test_coordination_decomposes(self, tmp_path):
        code = main(
            ["decompose", str(FIXTURES / "coordination.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        doc = read_json(tmp_path / "decomposition.json")
        assert len(doc["factors"]) == 2
        assert doc["factors"][0]["nodes"] == ["a", "b"]

    def test_four_cycle_exit_4(self, tmp_path):
        code = main(
            ["decompose", str(FIXTURES / "four_cycle.json"), "--out", str(tmp_path)]
        )
        assert code == 4


class TestRepeated:
    def test_pennies_quick(self, tmp_path):
        code = main(
            [
                "repeated",
                str(FIXTURES / "matching_pennies.json"),
                "--t-eval",
                "20000",
                "--replicas",
                "3",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = read_json(tmp_path / "repeated.json")
        entry = doc["per_coalition"]["C1"]
        assert abs(entry["final_average"] - entry["expected_payoff"]) <= 0.05
        assert entry["replicas"] == 3
        assert (tmp_path / "trace.csv").exists()


class TestFolkCheck:
    def test_coordination_quick_pass(self, tmp_path):
        code = main(
            [
                "folk-check",
                str(FIXTURES / "coordination.json"),
                "--t-eval",
                "20000",
                "--dev-steps",
                "4000",
                "--replicas",
                "4",
                "--seed",
                "9",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = read_json(tmp_path / "folk.json")
        assert doc["pass"] is True
        assert len(doc["deviations"]) == 10

    def test_four_cycle_exit_4(self, tmp_path):
        code = main(
            ["folk-check", str(FIXTURES / "four_cycle.json"), "--out", str(tmp_path)]
        )
        assert code == 4


PATH5_GRAPH = str(FIXTURES / "path5_graph.json")
UNIFORM5 = str(FIXTURES / "uniform5_target.json")
EXAMPLE = [
    str(FIXTURES / "chain_example_graph.json"),
    str(FIXTURES / "chain_example_target.json"),
]

# a 2x2 game whose first strategy label holds the tuple separator "|"
SEPARATOR_GAME = json.dumps(
    {
        "players": 2,
        "coalitions": [[1], [2]],
        "strategies": [["x|y", "z"], ["a", "b"]],
        "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]],
        "graph": {
            "nodes": ["x|y|a", "x|y|b", "z|a", "z|b"],
            "edges": [["x|y|a", "x|y|b"], ["x|y|a", "z|a"], ["x|y|b", "z|b"], ["z|a", "z|b"]],
        },
    }
)

# a 2x2 game whose inline graph lists its edges as a number, not a list
EDGES_NOT_A_LIST_GAME = json.dumps(
    {
        "players": 2,
        "coalitions": [[1], [2]],
        "strategies": [["x", "z"], ["a", "b"]],
        "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]],
        "graph": {"nodes": ["x|a", "x|b", "z|a", "z|b"], "edges": 5},
    }
)

# coalition C1 lists the strategy "a" twice, so its one profile label "a|x"
# would stand for two profiles
REPEATED_LABEL_GAME = json.dumps(
    {
        "players": 2,
        "coalitions": [[1], [2]],
        "strategies": [["a", "a"], ["x"]],
        "payoffs": [[1, 0], [0, 1]],
        "graph": {"nodes": ["a|x"], "edges": []},
    }
)

def pennies_document(**fields) -> str:
    """The matching-pennies game file with some fields replaced."""
    doc = json.loads((FIXTURES / "matching_pennies.json").read_text())
    return json.dumps({**doc, **fields})


# one coalition on the path a-b plus an isolated c: the stock probe that
# holds the last strategy, c, cannot reach it from the equilibrium at a
UNREACHABLE_PROBE_GAME = json.dumps(
    {
        "players": 1,
        "coalitions": [[1]],
        "strategies": [["a", "b", "c"]],
        "payoffs": [[1, 0, 0.5]],
        "graph": {"nodes": ["a", "b", "c"], "edges": [["a", "b"]]},
    }
)

# argv without --out; "{target}" stands for an input file the case writes
INPUT_ERRORS = {
    "nan-mass": (["mcmc-build", PATH5_GRAPH, "{target}"], '{"a": NaN, "b": 1.0}'),
    "infinite-mass": (["mcmc-build", PATH5_GRAPH, "{target}"], '{"a": Infinity}'),
    "zero-masses": (["mcmc-build", PATH5_GRAPH, "{target}"], '{"a": 0.5, "c": 0.5}'),
    "disconnected-graph": (
        ["mcmc-build", str(FIXTURES / "split_graph.json"), "{target}"],
        '{"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}',
    ),
    "empty-low-set": (["mcmc-build", PATH5_GRAPH, UNIFORM5, "--smooth-k", "5"], None),
    # the mass ratio 1 / 5e-324 overflows to inf
    "overflowing-mass-ratio": (
        ["mcmc-build", PATH5_GRAPH, "{target}"],
        '{"a": 1.0, "b": 5e-324, "c": 5e-324, "d": 5e-324, "e": 5e-324}',
    ),
    "smooth-k-beyond-float": (
        ["mcmc-build", PATH5_GRAPH, "{target}", "--smooth-k", "1" + "0" * 400],
        '{"a": 0.5, "c": 0.5}',
    ),
    "unknown-schedule": (
        ["mcmc-run", *EXAMPLE, "--steps", "100", "--schedule", "bogus"], None
    ),
    "short-powergap": (
        ["mcmc-run", *EXAMPLE, "--steps", "100", "--schedule", "powergap:1"], None
    ),
    "non-integer-powergap": (
        ["mcmc-run", *EXAMPLE, "--steps", "100", "--schedule", "powergap:x:3"], None
    ),
    "separator-label-decompose": (["decompose", "{target}"], SEPARATOR_GAME),
    "separator-label-repeated": (["repeated", "{target}"], SEPARATOR_GAME),
    "edges-not-a-list-graph": (
        ["mcmc-build", "{target}", UNIFORM5], '{"nodes": ["a", "b"], "edges": 5}'
    ),
    "edges-not-a-list-game": (["analyze", "{target}"], EDGES_NOT_A_LIST_GAME),
    "coalitions-not-lists": (["analyze", "{target}"], pennies_document(coalitions=[1, 2])),
    "player-not-an-id": (["analyze", "{target}"], pennies_document(players=[[1], 2])),
    "payoff-beyond-float": (
        ["analyze", "{target}"],
        pennies_document().replace("[1, -1, -1, 1]", "[1" + "0" * 400 + ", -1, -1, 1]"),
    ),
    "repeated-label-analyze": (["analyze", "{target}"], REPEATED_LABEL_GAME),
    "repeated-label-decompose": (["decompose", "{target}"], REPEATED_LABEL_GAME),
    "unreachable-deviation-probe": (
        ["folk-check", "{target}", "--t-eval", "50", "--dev-steps", "20", "--replicas", "2"],
        UNREACHABLE_PROBE_GAME,
    ),
}


class TestInputErrors:
    @pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
    def test_exit_2_one_line_no_artifact(self, name, tmp_path, capsys):
        argv, target = INPUT_ERRORS[name]
        if target is not None:
            (tmp_path / "target.json").write_text(target)
        argv = [a.replace("{target}", str(tmp_path / "target.json")) for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_mixed_tolerance_rejected_at_parse(self, tol, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["mixed", str(FIXTURES / "matching_pennies.json"), "--tol", tol]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "graphgame mixed: error: argument --tol: must be a finite number >= 0.0"
        ]
        assert not out.exists()

    def test_folk_check_one_replica_rejected_at_parse(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["folk-check", str(FIXTURES / "matching_pennies.json"), "--replicas", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "graphgame folk-check: error: argument --replicas: must be an integer >= 2"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, code",
        [
            (chains.ChainError, 2),
            (chains.SupportSplitError, 3),
        ],
    )
    def test_chain_errors_map_to_exit_codes(self, error, code, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise error("from the kernel")

        monkeypatch.setattr(cli, "kernel_level", fail)
        argv = ["mcmc-build", PATH5_GRAPH, UNIFORM5, "--out", str(tmp_path)]
        assert main(argv) == code
        assert capsys.readouterr().err == "error: from the kernel\n"

    def test_no_convergence_exit_5(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NoConvergenceError("fictitious play gave up")

        monkeypatch.setattr(cli, "compute_mixed_equilibrium", fail)
        out = tmp_path / "out"
        assert main(["mixed", str(FIXTURES / "matching_pennies.json"), "--out", str(out)]) == 5
        assert capsys.readouterr().err == "error: fictitious play gave up\n"
        assert not (out / "mixed.json").exists()

    def test_mcmc_build_writes_nothing_before_its_checks(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise chains.ChainError("no stationary law")

        monkeypatch.setattr(cli, "detailed_balance", fail)
        out = tmp_path / "out"
        assert main(["mcmc-build", PATH5_GRAPH, UNIFORM5, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no stationary law\n"
        assert not (out / "kernel.csv").exists()
        assert not (out / "build.json").exists()


class TestCachedParser:
    """One parser serves every `main` call of a process."""

    def test_usage_error_and_help_leave_later_commands_intact(self, tmp_path, capsys):
        pennies = str(FIXTURES / "matching_pennies.json")
        with pytest.raises(SystemExit) as exc:
            main(["folk-check", pennies, "--replicas", "1", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "mcmc-build" in capsys.readouterr().out
        argv = ["mcmc-run", *EXAMPLE, "--steps", "2000", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        assert read_json(tmp_path / "a" / "summary.json")["steps"] == 2000

    def test_command_is_looked_up_when_main_runs(self, tmp_path, monkeypatch):
        game = str(FIXTURES / "coordination.json")
        assert main(["decompose", game, "--out", str(tmp_path / "first")]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_decompose", lambda args: seen.append(args.game) or 0)
        assert main(["decompose", game, "--out", str(tmp_path / "second")]) == 0
        assert seen == [game]
        assert not (tmp_path / "second").exists()


def test_module_entry_point_matches_in_process_main(tmp_path):
    """`python -m graphgame.cli` dispatches through the `__main__` module."""
    root = FIXTURES.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "graphgame.cli", "decompose", "fixtures/matching_pennies.json",
         "--out", str(tmp_path / "sub")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pennies = str(FIXTURES / "matching_pennies.json")
    assert main(["decompose", pennies, "--out", str(tmp_path / "main")]) == 0
    assert tree_bytes(tmp_path / "sub") == tree_bytes(tmp_path / "main")
