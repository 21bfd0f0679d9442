"""The three workloads: operation lists, expected exit codes and the
artifact check for every operation.

An operation is one closed-loop call: `graphgame.cli.main(argv)` for CLI
commands, or one library call to `simulate_repeated` for maximal-information
play. Flag values are fixed, far below the CLI defaults, so that a workload
repeats several times within one run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable

import numpy as np

from graphgame import cli, formats, repeated
from graphgame.games import is_pure_c_equilibrium
from graphgame.mixed import is_mixed_c_equilibrium
from graphgame.repeated import (
    CustomPolicy,
    InfoModel,
    PlayersInit,
    RepeatedConfig,
    decompose_game,
)
from graphgame.simulate import Trace, verify_consistency

import inputs

WORKLOADS = ("repeated-play", "chain-run", "one-shot")

# repeated-play flag values (CLI defaults: t-eval 1e6 / 1e5, dev-steps 1e5,
# replicas 20 / 5)
FOLK_T_EVAL = 20_000
FOLK_DEV_STEPS = 2_000
FOLK_REPLICAS = 4
REPEATED_T_EVAL = 20_000
REPEATED_REPLICAS = 3
LOCKSTEP_STAGES = 60_000
# chain-run steps; the counterexample schedule walks one interval per step
RUN_STEPS = 150_000
COUNTEREXAMPLE_STEPS = 60_000

COMMANDS = (
    "folk_check",
    "repeated",
    "lockstep",
    "mcmc_run",
    "mcmc_build",
    "analyze",
    "mixed",
    "decompose",
)


class CheckFailed(Exception):
    """An artifact does not satisfy its contract."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str  # unique within the workload; names the output directory
    command: str  # one of COMMANDS
    check: Callable[["Op", Path, int, Any], None]
    argv: list[str] | None = None  # CLI operations; "--out DIR" is appended
    call: Callable[[], Any] | None = None  # library operations
    save: Callable[[Any, Path], None] | None = None  # writes a library result
    expect: frozenset[int] = frozenset({0})
    tag: str | None = None  # the kind of work, for per-kind rates
    files: dict[str, Path] = field(default_factory=dict)  # inputs the check reads


# -- artifact checks ----------------------------------------------------------

def check_analyze(op: Op, out: Path, code: int, result) -> None:
    game = formats.load_game(op.files["game"])
    doc = json.loads((out / "equilibria.json").read_text())
    equilibria, violations = set(doc["equilibria"]), doc["violations"]
    require(
        equilibria.isdisjoint(violations)
        and equilibria | set(violations) == set(game.graph.labels),
        "equilibria and violations must partition the profiles",
    )
    for label in equilibria:
        require(
            is_pure_c_equilibrium(game, game.profile_of_label(label)),
            f"{label} is listed as an equilibrium but is not one",
        )
    for label, witness in violations.items():
        sbar = game.profile_of_label(label)
        other = game.profile_of_label(witness["adjacent_profile"])
        h = int(witness["coalition"][1:]) - 1
        require(
            game.node_of(other) in game.graph.neighbors(game.node_of(sbar)),
            f"witness for {label} is not adjacent",
        )
        cand = sbar[:h] + (other[h],) + sbar[h + 1 :]
        gain = game.payoff(h, cand) - game.payoff(h, sbar)
        require(gain > 0 and gain == witness["gain"], f"witness gain for {label} is wrong")


def check_mixed(op: Op, out: Path, code: int, result) -> None:
    path = out / "mixed.json"
    if code == cli.EXIT_NO_CONVERGENCE:
        require(not path.exists(), "mixed.json written although the solver failed")
        return
    game = formats.load_game(op.files["game"])
    profile = formats.mixed_from_dict(json.loads(path.read_text())["profile"], game)
    require(is_mixed_c_equilibrium(game, profile, tol=1e-6), "mixed.json is not an equilibrium")


def check_decompose(op: Op, out: Path, code: int, result) -> None:
    game_doc = json.loads(op.files["game"].read_text())
    spaces = game_doc["strategies"]
    factors = json.loads((out / "decomposition.json").read_text())["factors"]
    require([f["nodes"] for f in factors] == spaces, "factor nodes differ from the strategies")
    factor_edges = [
        [tuple(sorted((f["nodes"].index(a), f["nodes"].index(b)))) for a, b in f["edges"]]
        for f in factors
    ]
    dims = tuple(len(s) for s in spaces)
    labels = [inputs.SEP.join(combo) for combo in product(*spaces)]
    rebuilt = {
        frozenset((labels[x], labels[y]))
        for x, y in inputs.strong_product_edges(factor_edges, dims)
    }
    graph = game_doc["graph"]
    require(set(graph["nodes"]) == set(labels), "product node set differs from the game graph")
    require(
        rebuilt == {frozenset(e) for e in graph["edges"]},
        "strong product of the factors does not reproduce the game graph",
    )


def check_build(op: Op, out: Path, code: int, result) -> None:
    with open(out / "kernel.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0]
    matrix = np.array([[float(x) for x in row] for row in rows[1:]])
    n = len(labels)
    require(matrix.shape == (n, n), "kernel.csv is not square")
    require(bool(np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9)), "kernel rows do not sum to 1")
    require(bool(np.all(np.diag(matrix) >= 0.5 - 1e-12)), "kernel diagonal below 1/2")
    graph = json.loads(op.files["graph"].read_text())
    index = {lab: i for i, lab in enumerate(labels)}
    allowed = np.eye(n, dtype=bool)
    for a, b in graph["edges"]:
        allowed[index[a], index[b]] = allowed[index[b], index[a]] = True
    require(bool(np.all((matrix == 0) | allowed)), "kernel moves off the graph edges")


def check_run(op: Op, out: Path, code: int, result) -> None:
    steps = int(op.argv[op.argv.index("--steps") + 1])
    graph = formats.load_graph(op.files["graph"])
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) == steps + 1 and len(rows[0]) == 2, "trace.csv has the wrong shape")
    states = np.array([graph.index(row[1]) for row in rows[1:]], dtype=np.int64)
    trace = Trace(states, graph.labels, 0, np.bincount(states, minlength=graph.n))
    require(verify_consistency(trace, graph), "trace leaves the graph")
    with open(out / "empirical.csv", newline="") as fh:
        counts = [int(row["count"]) for row in csv.DictReader(fh)]
    require(sum(counts) == steps, "empirical counts do not sum to --steps")


def check_folk(op: Op, out: Path, code: int, result) -> None:
    passed = json.loads((out / "folk.json").read_text())["pass"]
    require(passed == (code == cli.EXIT_OK), "folk.json verdict disagrees with the exit code")


def check_repeated(op: Op, out: Path, code: int, result) -> None:
    doc = json.loads((out / "repeated.json").read_text())
    require(
        all(c["replicas"] == REPEATED_REPLICAS for c in doc["per_coalition"].values()),
        "repeated.json replica count is wrong",
    )
    with open(out / "trace.csv") as fh:
        require(sum(1 for _ in fh) == REPEATED_T_EVAL + 1, "trace.csv has the wrong length")


def check_lockstep(op: Op, out: Path, code: int, result) -> None:
    trace, report = result
    game = formats.load_game(op.files["game"])
    require(trace.length == LOCKSTEP_STAGES, "lockstep trace has the wrong length")
    require(verify_consistency(trace, game.graph), "lockstep trace leaves the game graph")
    require(
        all(math.isfinite(c.final_average) for c in report.per_coalition),
        "lockstep payoffs are not finite",
    )


def save_lockstep(result, out: Path) -> None:
    trace, report = result
    (out / "states.bin").write_bytes(trace.states.astype("<i8").tobytes())
    formats.dump_json(
        {"final_average": [c.final_average for c in report.per_coalition]},
        out / "lockstep.json",
    )


# -- maximal-information play -------------------------------------------------

EXPLORE = 0.2  # chance of a uniform adjacent move instead of the best reply


def reactive_policy(game, h: int) -> CustomPolicy:
    """Best reply, among the strategies adjacent to the current one, to the
    other coalition's last strategy; a uniform adjacent move with
    probability EXPLORE."""
    factor = decompose_game(game).factors[h]
    closed = [sorted(set(factor.neighbors(i)) | {i}) for i in range(factor.n)]
    pay = game.payoffs[h] if h == 0 else game.payoffs[h].T
    table = pay.tolist()  # table[own][other]

    def step(t, own, stream, joint):
        cur = own[-1]
        options = closed[cur]
        if stream.next() < EXPLORE:
            return options[min(int(stream.next() * len(options)), len(options) - 1)]
        other = joint[1 - h][-1]
        return max(options, key=lambda s: table[s][other])

    return CustomPolicy(step, name=f"reactive-{h}")


def lockstep_op(game_path: Path, seed: int) -> Op:
    game = formats.load_game(game_path)
    config = RepeatedConfig(
        game=game,
        decomposition=decompose_game(game),
        policies=(reactive_policy(game, 0), reactive_policy(game, 1)),
        init=PlayersInit((0, 0)),
        info=InfoModel.MAXIMAL,
        t_eval=LOCKSTEP_STAGES,
    )
    derived = inputs.derived_seed(seed, "lockstep")
    return Op(
        label="lockstep-path",
        command="lockstep",
        check=check_lockstep,
        # looked up on the module at call time, so a traced run sees the span
        call=lambda: repeated.simulate_repeated(config, derived),
        save=save_lockstep,
        tag="lockstep",
        files={"game": game_path},
    )


# -- operation lists ----------------------------------------------------------

def repeated_play(seed: int, fixtures: Path, generated: Path) -> list[Op]:
    games = (
        ("pennies", fixtures / "matching_pennies.json", "stationary"),
        ("coordination", fixtures / "coordination.json", "constant"),
        ("path", generated / "path_game.json", "scheduled"),
    )
    ops = []
    for name, path, kind in games:
        ops.append(
            Op(
                label=f"folk-check-{name}",
                command="folk_check",
                check=check_folk,
                argv=[
                    "folk-check", str(path),
                    "--t-eval", str(FOLK_T_EVAL),
                    "--dev-steps", str(FOLK_DEV_STEPS),
                    "--replicas", str(FOLK_REPLICAS),
                    "--seed", str(inputs.derived_seed(seed, f"folk-{name}")),
                ],
                expect=frozenset({cli.EXIT_OK, cli.EXIT_CHECK_FAILED}),
                tag=kind,
            )
        )
        ops.append(
            Op(
                label=f"repeated-{name}",
                command="repeated",
                check=check_repeated,
                argv=[
                    "repeated", str(path),
                    "--t-eval", str(REPEATED_T_EVAL),
                    "--replicas", str(REPEATED_REPLICAS),
                    "--seed", str(inputs.derived_seed(seed, f"repeated-{name}")),
                ],
                tag=kind,
            )
        )
    ops.append(lockstep_op(generated / "path_game.json", seed))
    return ops


def chain_run(seed: int, fixtures: Path, generated: Path) -> list[Op]:
    runs = [
        ("path5", fixtures / "path5_graph.json", fixtures / "uniform5_target.json",
         "powergap:1:3", RUN_STEPS, "connected"),
        ("example-powergap", fixtures / "chain_example_graph.json",
         fixtures / "chain_example_target.json", "powergap:1:3", RUN_STEPS, "scheduled"),
        ("example-counterexample", fixtures / "chain_example_graph.json",
         fixtures / "chain_example_target.json", "counterexample",
         COUNTEREXAMPLE_STEPS, "counterexample"),
    ]
    for n in inputs.RUN_SIZES:
        graph = generated / f"graph_{n}.json"
        runs.append((f"positive-{n}", graph, generated / f"positive_{n}.json",
                     "powergap:1:3", RUN_STEPS, "connected"))
        runs.append((f"zeromass-{n}", graph, generated / f"zeromass_{n}.json",
                     "powergap:1:3", RUN_STEPS, "scheduled"))
    return [
        Op(
            label=f"mcmc-run-{name}",
            command="mcmc_run",
            check=check_run,
            argv=[
                "mcmc-run", str(graph), str(target),
                "--steps", str(steps),
                "--seed", str(inputs.derived_seed(seed, f"run-{name}")),
                "--schedule", schedule,
                "--burn-in", str(steps // 10),
            ],
            tag=kind,
            files={"graph": graph},
        )
        for name, graph, target, schedule, steps, kind in runs
    ]


def one_shot(seed: int, fixtures: Path, generated: Path) -> list[Op]:
    games = [(name, generated / f"{name}.json", mixed) for name, _, _, mixed in inputs.GAME_FAMILIES]
    games.append(("pursuit", generated / "pursuit.json", True))
    ops = []
    for name, path, run_mixed in games:
        # the pursuit game is the solver's known failure (exit 5): counted,
        # not avoided; every other family has an exact or pure-profile path
        solver_exits = {cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE} if name == "pursuit" else {cli.EXIT_OK}
        ops.append(Op(f"decompose-{name}", "decompose", check_decompose,
                      argv=["decompose", str(path)], files={"game": path}))
        ops.append(Op(f"analyze-{name}", "analyze", check_analyze,
                      argv=["analyze", str(path)], files={"game": path}))
        if run_mixed:
            ops.append(Op(f"mixed-{name}", "mixed", check_mixed,
                          argv=["mixed", str(path)], files={"game": path},
                          expect=frozenset(solver_exits)))
    for n in inputs.BUILD_SIZES:
        graph = generated / f"sparse_{n}.json"
        ops.append(Op(f"mcmc-build-{n}", "mcmc_build", check_build,
                      argv=["mcmc-build", str(graph), str(generated / f"target_{n}.json")],
                      files={"graph": graph}))
    return ops


BUILDERS = {"repeated-play": repeated_play, "chain-run": chain_run, "one-shot": one_shot}


def operations(workload: str, seed: int, fixtures: Path, generated: Path) -> list[Op]:
    return BUILDERS[workload](seed, fixtures, generated)
