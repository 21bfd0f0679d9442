"""Runs one workload as a closed loop and turns the timings into metrics.

One caller in one process: each operation starts when the previous one has
returned. A run generates the inputs (set-up), makes one checked warm-up
repetition of the whole operation list, then repeats the list until the
measuring time is used up. End-to-end metrics are medians over untraced
repetitions; with tracing on, untraced and traced repetitions alternate and
the per-layer metrics are medians over the traced ones.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from graphgame import cli

import inputs
import tracing
import workloads

SETUP_REPEATS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

RATE_KINDS = {
    "repeated.stage_steps_per_s": ("stationary", "constant", "scheduled", "lockstep"),
    "simulate.steps_per_s": ("connected", "scheduled", "counterexample"),
}

# (name, unit, better); every traced run reports all of them, with zero for
# work a workload does not do
PER_LAYER = (
    ("repeated.simulate_repeated.self_s", "s", "lower"),
    ("repeated.deviation_test.self_s", "s", "lower"),
    ("repeated.stage_steps", "count", "higher"),
    *((f"repeated.stage_steps_per_s.{k}", "1/s", "higher") for k in RATE_KINDS["repeated.stage_steps_per_s"]),
    ("repeated.equilibrium_policies.self_s", "s", "lower"),
    ("repeated.decompose_game.self_s", "s", "lower"),
    ("simulate.run_product.self_s", "s", "lower"),
    ("simulate.steps", "count", "higher"),
    *((f"simulate.steps_per_s.{k}", "1/s", "higher") for k in RATE_KINDS["simulate.steps_per_s"]),
    ("simulate.prefix_counts.calls", "count", "lower"),
    ("simulate.prefix_counts.s", "s", "lower"),
    ("formats.dump_trace_csv.s", "s", "lower"),
    ("formats.dump_trace_csv.rows", "count", "higher"),
    ("formats.dump_trace_csv.bytes", "B", "lower"),
    ("formats.load_game.s", "s", "lower"),
    ("formats.load_graph.s", "s", "lower"),
    ("formats.dump_json.s", "s", "lower"),
    ("formats.dump_kernel_csv.s", "s", "lower"),
    ("chains.build_kernel.calls", "count", "lower"),
    ("chains.build_kernel.self_s", "s", "lower"),
    ("chains.dobrushin.s", "s", "lower"),
    ("chains.dobrushin.bytes", "B", "lower"),
    ("chains.stationary_distribution.s", "s", "lower"),
    ("chains.classify_case.s", "s", "lower"),
    ("graphs.connected_components.s", "s", "lower"),
    ("graphs.strong_product.calls", "count", "lower"),
    ("graphs.strong_product.self_s", "s", "lower"),
    ("graphs.strong_product.pairs", "count", "lower"),
    ("graphs.factorize.self_s", "s", "lower"),
    ("games.pure_c_equilibria.s", "s", "lower"),
    ("games.violation_witness.calls", "count", "lower"),
    ("games.violation_witness.s", "s", "lower"),
    ("mixed.compute_mixed_equilibrium.calls", "count", "lower"),
    ("mixed.compute_mixed_equilibrium.self_s", "s", "lower"),
    ("mixed.no_convergence", "count", "lower"),
    ("mixed.is_mixed_c_equilibrium.calls", "count", "lower"),
    ("mixed.payoff_vector.calls", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in tracing.LAYERS if layer != "cli"),
    ("cli.self_s", "s", "lower"),
    ("cli.ops", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass
class OpRun:
    seconds: float
    code: int | None
    failure: str | None
    digest: str


@dataclass
class Rep:
    runs: list[OpRun]
    spans: list[tracing.Span] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.runs:
            h.update(r.digest.encode())
        return h.hexdigest()


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs the operation list; the first repetition also runs every
    artifact check, later ones must reproduce its artifacts byte for byte."""

    def __init__(self, ops: list[workloads.Op], out: Path):
        self.ops = ops
        self.out = out
        self.reference: list[str] | None = None
        self.attempted = 0
        self.no_convergence = 0  # documented solver failures (exit 5)
        self.failures: list[str] = []

    def _run_op(self, op: workloads.Op, out: Path, tracer: tracing.Tracer | None) -> OpRun:
        stdout, stderr = io.StringIO(), io.StringIO()
        code, result, error = None, None, None
        recording = tracer.recording(op.tag) if tracer is not None else nullcontext()
        with redirect_stdout(stdout), redirect_stderr(stderr), recording:
            start = time.perf_counter()
            try:
                if op.argv is not None:
                    code = cli.main(op.argv + ["--out", str(out)])
                else:
                    result = op.call()
                    code = cli.EXIT_OK
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code if isinstance(exc.code, int) else cli.EXIT_INPUT
            except Exception:  # the program must never raise; record and go on
                error = traceback.format_exc().strip().splitlines()[-1]
            seconds = time.perf_counter() - start
        if error is not None:
            failure = f"raised {error}"
        elif code not in op.expect:
            failure = f"exit {code}, expected one of {sorted(op.expect)}"
        elif "Traceback (most recent call last)" in stderr.getvalue():
            failure = "traceback on stderr"
        else:
            failure = None
        if failure is None and op.save is not None:
            op.save(result, out)
        if failure is None and self.reference is None:
            try:
                op.check(op, out, code, result)
            except Exception as exc:  # any broken artifact is a failed check
                failure = f"check failed: {exc!r}"
        return OpRun(seconds, code, failure, dir_digest(out))

    def rep(self, tracer: tracing.Tracer | None = None) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        runs = []
        for i, op in enumerate(self.ops):
            out = self.out / op.label
            out.mkdir(parents=True)
            run = self._run_op(op, out, tracer)
            if run.failure is None and self.reference is not None and run.digest != self.reference[i]:
                run.failure = "artifacts differ from the first repetition"
            if run.failure is not None:
                self.failures.append(f"{op.label}: {run.failure}")
            self.attempted += 1
            self.no_convergence += run.code == cli.EXIT_NO_CONVERGENCE
            runs.append(run)
        if self.reference is None:
            self.reference = [r.digest for r in runs]
        return Rep(runs, tracer.take() if tracer is not None else [])


# -- metrics ----------------------------------------------------------------

def command_seconds(ops: list[workloads.Op], rep: Rep) -> dict[str, float]:
    out: dict[str, float] = {}
    for op, run in zip(ops, rep.runs):
        key = f"{op.command}_s"
        out[key] = out.get(key, 0.0) + run.seconds
    return out


def layer_metrics(ops: list[workloads.Op], rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    spans = rep.spans
    own = tracing.self_times(spans)

    def pick(name, tag=None):
        return [
            i for i, s in enumerate(spans)
            if s.name == name and (tag is None or s.tag == tag)
        ]

    def inclusive(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    def counted(idx, key):
        return sum(spans[i].counts[key] for i in idx)

    m: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "self_s" and base in tracing.LAYERS:
            m[name] = sum(o for s, o in zip(spans, own) if s.name.startswith(base + "."))
        elif stat == "self_s":
            m[name] = sum(own[i] for i in pick(base))
        elif stat == "s":
            m[name] = inclusive(pick(base))
        elif stat == "calls":
            m[name] = len(pick(base))
    steppers = {
        "repeated.stage_steps_per_s": (("repeated.simulate_repeated", "repeated.deviation_test"), "stage_steps"),
        "simulate.steps_per_s": (("simulate.run_product",), "steps"),
    }
    for prefix, (names, key) in steppers.items():
        for kind in RATE_KINDS[prefix]:
            idx = [i for n in names for i in pick(n, kind)]
            seconds = inclusive(idx)
            m[f"{prefix}.{kind}"] = counted(idx, key) / seconds if seconds > 0 else 0.0
    m["repeated.stage_steps"] = sum(
        counted(pick(n), "stage_steps") for n in steppers["repeated.stage_steps_per_s"][0]
    )
    m["simulate.steps"] = counted(pick("simulate.run_product"), "steps")
    m["formats.dump_trace_csv.rows"] = counted(pick("formats.dump_trace_csv"), "rows")
    m["formats.dump_trace_csv.bytes"] = counted(pick("formats.dump_trace_csv"), "bytes")
    m["chains.dobrushin.bytes"] = counted(pick("chains.dobrushin"), "bytes")
    m["graphs.strong_product.pairs"] = counted(pick("graphs.strong_product"), "pairs")
    m["mixed.no_convergence"] = sum(r.code == cli.EXIT_NO_CONVERGENCE for r in rep.runs)
    m["cli.ops"] = sum(op.argv is not None for op in ops)
    m["trace.wall_s"] = rep.wall
    m["trace.unattributed_s"] = rep.wall - sum(own)
    return m


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in dicts[0]}


# -- set-up and machine record ----------------------------------------------

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import graphgame.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds(src: Path) -> float:
    """Import time of numpy plus graphgame in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_record(src: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(p.read_bytes().count(b"\n") for p in sorted((src / "graphgame").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_graphgame_lines": lines,
        "machine": platform.machine(),
    }


# -- one run ------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; return (result line, detailed report)."""
    src, fixtures = root / "src", root / "fixtures"
    work = root / ".perfbench" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup, manifest, input_digests = [], {}, set()
    for i in range(SETUP_REPEATS):
        imported = import_seconds(src)
        start = time.perf_counter()
        manifest = inputs.generate(workload, seed, work / f"inputs-{i}")
        setup.append(imported + time.perf_counter() - start)
        input_digests.add(dir_digest(work / f"inputs-{i}"))

    ops = workloads.operations(workload, seed, fixtures, work / "inputs-0")
    runner = Runner(ops, work / "out")
    if len(input_digests) != 1:
        runner.failures.append("input generation is not deterministic")
    warm = runner.rep()

    untraced: list[Rep] = []
    traced: list[Rep] = []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        untraced.append(runner.rep())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.rep(tracer))
            finally:
                tracer.restore()
        elapsed = time.perf_counter() - start
        # stop before a repetition that would overrun the measuring time
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break
    if tracing.leftovers():
        runner.failures.append("tracer left a wrapped function behind")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    commands = median_of([command_seconds(ops, r) for r in untraced])
    op_seconds = {
        op.label: statistics.median(r.runs[i].seconds for r in untraced)
        for i, op in enumerate(ops)
    }
    report = {
        "workload": workload,
        "seed": seed,
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "digest": warm.digest,
        "commands": {k: {"value": v, "unit": "s"} for k, v in commands.items()},
        # operations without a certified result, known solver failures included
        "fail_ratio": (len(runner.failures) + runner.no_convergence) / runner.attempted,
        "no_convergence": runner.no_convergence,
        "failures": runner.failures,
        "op_seconds": op_seconds,
        "inputs": manifest,
        "machine": machine_record(src),
        "op_digests": {op.label: d for op, d in zip(ops, runner.reference)},
    }
    if trace:
        layers = median_of([layer_metrics(ops, r) for r in traced])
        layers["trace.overhead_ratio"] = (
            statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in untraced)
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k, _, _ in PER_LAYER}
        spans = [
            [s.name, s.parent, s.start, s.end, s.tag, s.counts]
            for r in traced for s in r.spans
        ]
        (work / "spans.json").write_text(json.dumps(spans))
    else:
        values = {
            "wall_s": statistics.median(r.wall for r in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    (work / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, report
