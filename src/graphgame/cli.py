"""Command-line entry point: experiment orchestration and artifact output.

Every command is deterministic given its inputs, flags, and seed; artifacts
are flat JSON/CSV meant to be diffed. Exit codes: 0 success, 1 a completed
check failed, 2 input or usage error, 3 the target's support spans several
graph components (no consistent chain exists), 4 the game graph is not a
product of per-coalition factors, 5 fictitious play did not certify a mixed
equilibrium (three or more coalitions only).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import formats
from .chains import (
    ChainError,
    Schedule,
    ScheduleError,
    SupportSplitError,
    build_kernel,
    dobrushin,
    smooth,
    stationary_distribution,
)
from .games import pure_c_equilibria
from .graphs import NotDecomposableError
from .mixed import (
    MixedProfile,
    NoConvergenceError,
    compute_mixed_equilibrium,
    expected_payoff,
    total_variation,
)
from .repeated import (
    RefereeInit,
    RepeatedConfig,
    RepeatedError,
    decompose_game,
    deviation_test,
    equilibrium_policies,
    simulate_repeated,
    stock_deviation_policies,
)
from .simulate import ComponentSpec, ProductChainSpec, run_product

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_SUPPORT_SPLIT = 3
EXIT_NOT_DECOMPOSABLE = 4
EXIT_NO_CONVERGENCE = 5

CONVERGED_TV = 0.1  # desk-scale convergence flag for run summaries


def at_least(low: float, kind: type = int) -> Callable[[str], float]:
    """An argparse type: a finite `kind` (int or float) no smaller than `low`;
    NaN and the infinities are rejected."""
    noun = "an integer" if kind is int else "a finite number"

    def parse(text: str) -> float:
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {noun} >= {low}")
        return value

    # argparse reports "invalid integer value" / "invalid float value"
    parse.__name__ = "integer" if kind is int else kind.__name__
    return parse


def parse_schedule(text: str, n_states: int) -> Schedule:
    if text == "theoretical":
        return Schedule.theoretical(n_states)
    if text == "counterexample":
        return Schedule.counterexample()
    if text.startswith("powergap:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ScheduleError("expected powergap:c:e")
        return Schedule.power_gap(int(parts[1]), int(parts[2]))
    raise ScheduleError("schedule must be theoretical, powergap:c:e, or counterexample")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _replica_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


def cmd_analyze(args) -> int:
    game = formats.load_game(args.game)
    out = _out_dir(args)
    equilibria = pure_c_equilibria(game)
    violations = {
        game.label_of(prof): {
            "coalition": formats.coalition_name(h),
            "adjacent_profile": game.label_of(other),
            "gain": gain,
        }
        for prof, (h, other, gain) in equilibria.violations.items()
    }
    labels = sorted(game.label_of(p) for p in equilibria)
    formats.dump_json(
        {"equilibria": labels, "violations": violations}, out / "equilibria.json"
    )
    print(f"{len(labels)} pure equilibria -> {out / 'equilibria.json'}")
    return EXIT_OK


def cmd_mixed(args) -> int:
    game = formats.load_game(args.game)
    out = _out_dir(args)
    profile = compute_mixed_equilibrium(game, tol=args.tol)
    doc = {
        "profile": formats.mixed_to_dict(profile),
        "expected_payoffs": {
            formats.coalition_name(h): expected_payoff(game, profile, h)
            for h in range(game.r)
        },
    }
    formats.dump_json(doc, out / "mixed.json")
    print(f"mixed equilibrium -> {out / 'mixed.json'}")
    return EXIT_OK


def cmd_mcmc_build(args) -> int:
    g = formats.load_graph(args.graph)
    target = formats.load_target(args.target, g)
    out = _out_dir(args)
    if args.smooth_k is not None:
        target = smooth(target, args.smooth_k).smoothed
    kernel = build_kernel(target, g)
    pi = stationary_distribution(kernel)
    want = np.array([target.masses[g.index(lab)] for lab in kernel.state_labels])
    build = {
        "p": kernel.p,
        "dobrushin": dobrushin(kernel),
        "stationary_max_error": float(np.abs(pi - want).max()),
        "states": list(kernel.state_labels),
    }
    formats.dump_kernel_csv(kernel, out / "kernel.csv")
    formats.dump_json(build, out / "build.json")
    print(f"kernel -> {out / 'kernel.csv'}")
    return EXIT_OK


def _tv_checkpoints(steps: int) -> list[int]:
    return sorted({min(steps, max(1, int(round(10 ** (i / 8))))) for i in range(0, 200)})


def cmd_mcmc_run(args) -> int:
    g = formats.load_graph(args.graph)
    target = formats.load_target(args.target, g)
    component = ComponentSpec(target, g, parse_schedule(args.schedule, g.n))
    out = _out_dir(args)
    spec = ProductChainSpec(components=(component,), steps=args.steps, seed=args.seed)
    trace = run_product(spec).components[0]
    # the realization the run used, kept by the spec
    realization = component.realization
    schedule = realization.schedule

    formats.dump_trace_csv(trace, out / "trace.csv")
    formats.dump_empirical_csv(trace, out / "empirical.csv")
    # the counts over the first t states at every checkpoint t, one running
    # sum of one bincount per segment between checkpoints
    counts = np.zeros(g.n, dtype=np.intp)
    series = []
    done = 0
    for t in _tv_checkpoints(args.steps):
        counts += np.bincount(trace.states[done:t], minlength=g.n)
        done = t
        series.append((t, total_variation(counts / t, target.masses)))
    formats.dump_series_csv(series, ("t", "tv_to_target"), out / "tv_series.csv")
    # the kernel driving the last transition
    formats.dump_kernel_csv(realization.kernel_at(args.steps - 2), out / "kernel.csv")

    tv_final = series[-1][1]
    summary = {
        "case": realization.case.value,
        "steps": args.steps,
        "seed": args.seed,
        "schedule": schedule.label if schedule is not None else None,
        "tv_final": tv_final,
        "converged": bool(tv_final <= CONVERGED_TV),
    }
    if args.burn_in:
        b = min(args.burn_in, args.steps - 1)
        tail = (trace.counts - trace.prefix_counts(b)) / (trace.length - b)
        summary["burn_in"] = {
            "steps": b,
            "tv_to_target": total_variation(tail, target.masses),
        }
    formats.dump_json(summary, out / "summary.json")
    print(
        f"{realization.case.value}: tv_final={tv_final:.4f} "
        f"({'converged' if summary['converged'] else 'NOT converged'}) -> {out}"
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    game = formats.load_game(args.game)
    out = _out_dir(args)
    dec = decompose_game(game)
    doc = {
        "factors": [
            {"coalition": formats.coalition_name(h), **formats.graph_to_dict(f)}
            for h, f in enumerate(dec.factors)
        ]
    }
    formats.dump_json(doc, out / "decomposition.json")
    print(f"{len(dec.factors)} factors -> {out / 'decomposition.json'}")
    return EXIT_OK


def _equilibrium_config(game, t_eval: int) -> tuple[RepeatedConfig, MixedProfile]:
    dec = decompose_game(game)
    mixed = compute_mixed_equilibrium(game)
    policies = equilibrium_policies(game, dec, mixed)
    config = RepeatedConfig(
        game=game,
        decomposition=dec,
        policies=policies,
        init=RefereeInit(distributions=tuple(mixed.parts)),
        t_eval=t_eval,
    )
    return config, mixed


def cmd_repeated(args) -> int:
    game = formats.load_game(args.game)
    out = _out_dir(args)
    config, mixed = _equilibrium_config(game, args.t_eval)
    seeds = _replica_seeds(args.seed, args.replicas)
    runs = [simulate_repeated(config, s) for s in seeds]
    per_coalition = {}
    for h in range(game.r):
        finals = np.array([report.per_coalition[h].final_average for _, report in runs])
        tails = np.array([report.per_coalition[h].tail_liminf for _, report in runs])
        per_coalition[formats.coalition_name(h)] = {
            "final_average": float(finals.mean()),
            "tail_liminf_estimate": float(tails.mean()),
            "stderr": float(finals.std(ddof=1) / np.sqrt(len(finals)))
            if len(finals) > 1
            else 0.0,
            "replicas": len(finals),
            "expected_payoff": expected_payoff(game, mixed, h),
        }
    formats.dump_json(
        {"per_coalition": per_coalition, "seeds": seeds}, out / "repeated.json"
    )
    formats.dump_trace_csv(runs[0][0], out / "trace.csv")
    print(f"repeated run -> {out / 'repeated.json'}")
    return EXIT_OK


def cmd_folk_check(args) -> int:
    game = formats.load_game(args.game)
    out = _out_dir(args)
    config, mixed = _equilibrium_config(game, args.t_eval)
    match_seed, grid_seed = _replica_seeds(args.seed, 2)

    _, report = simulate_repeated(config, match_seed)
    payoff_match = {}
    match_ok = True
    for h in range(game.r):
        tensor = game.payoffs[h]
        payoff_range = float(tensor.max() - tensor.min())
        tolerance = 0.02 * payoff_range if payoff_range > 0 else 1e-9
        want = expected_payoff(game, mixed, h)
        got = report.per_coalition[h].final_average
        ok = bool(abs(got - want) <= tolerance)
        match_ok = match_ok and ok
        payoff_match[formats.coalition_name(h)] = {
            "average": got,
            "expected": want,
            "tolerance": tolerance,
            "ok": ok,
        }

    cells = []
    for h in range(game.r):
        for policy in stock_deviation_policies(game, config.decomposition, h):
            cells.append((h, policy))
    cell_seeds = _replica_seeds(grid_seed, len(cells))
    reports = [
        deviation_test(
            config,
            coalition=h,
            deviation=policy,
            t_eval=args.dev_steps,
            replicas=args.replicas,
            seed=cell_seed,
        )
        for (h, policy), cell_seed in zip(cells, cell_seeds)
    ]
    deviations = [
        {
            "coalition": formats.coalition_name(r.coalition),
            "policy": r.policy_name,
            "equilibrium_mean": r.equilibrium_mean,
            "deviation_mean": r.deviation_mean,
            "margin": r.margin,
            "verdict": r.verdict,
        }
        for r in reports
    ]
    all_not_improved = all(not r.improved for r in reports)
    passed = match_ok and all_not_improved
    formats.dump_json(
        {
            "equilibrium": formats.mixed_to_dict(mixed),
            "payoff_match": payoff_match,
            "deviations": deviations,
            "pass": passed,
        },
        out / "folk.json",
    )
    print(f"folk check: {'PASS' if passed else 'FAIL'} -> {out / 'folk.json'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It holds no command functions:
    `main` looks up `cmd_<command>` when it runs, so a function replaced on
    this module (by a test or a tracer) is the one called."""
    parser = argparse.ArgumentParser(
        prog="graphgame",
        description="Coalition games on strategy graphs: equilibria, "
        "graph-consistent chains, repeated play.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="enumerate pure equilibria of a game file")
    p.add_argument("game")
    p.add_argument("--out", required=True)

    p = sub.add_parser("mixed", help="compute a mixed equilibrium")
    p.add_argument("game")
    p.add_argument("--tol", type=at_least(0.0, float), default=1e-6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mcmc-build", help="build a reversible kernel for a target")
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("--smooth-k", type=at_least(1), default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mcmc-run", help="simulate a graph-consistent chain")
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("--steps", type=at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", default="powergap:1:3")
    p.add_argument("--burn-in", type=at_least(0), default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decompose", help="factor a game graph over its coalitions")
    p.add_argument("game")
    p.add_argument("--out", required=True)

    p = sub.add_parser("repeated", help="run equilibrium chain policies")
    p.add_argument("game")
    p.add_argument("--t-eval", type=at_least(1), default=100_000)
    p.add_argument("--replicas", type=at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("folk-check", help="payoff match plus deviation battery")
    p.add_argument("game")
    p.add_argument("--t-eval", type=at_least(1), default=1_000_000)
    p.add_argument("--dev-steps", type=at_least(1), default=100_000)
    p.add_argument("--replicas", type=at_least(2), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SupportSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUPPORT_SPLIT
    except NotDecomposableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_DECOMPOSABLE
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (formats.FormatError, ChainError, RepeatedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
