"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest perfbench/tests -q

The smoke runs make one warm-up and one timed repetition of each workload;
one-shot takes about 20 s because of the pursuit game's solver failure.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import graphgame  # noqa: E402
from graphgame import cli, repeated, simulate  # noqa: E402

import harness  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = inputs.generate(workload, 7, tmp_path / "a")
    b = inputs.generate(workload, 7, tmp_path / "b")
    c = inputs.generate(workload, 8, tmp_path / "c")
    assert a == b and a.keys() == c.keys()
    assert harness.dir_digest(tmp_path / "a") == harness.dir_digest(tmp_path / "b")
    assert harness.dir_digest(tmp_path / "a") != harness.dir_digest(tmp_path / "c")


def test_generated_games_load_and_keep_their_shape(tmp_path):
    inputs.generate("one-shot", 3, tmp_path)
    from graphgame import formats

    for name, dims, _, _ in inputs.GAME_FAMILIES:
        game = formats.load_game(tmp_path / f"{name}.json")
        assert game.dims == dims
    assert formats.load_game(tmp_path / "pursuit.json").dims == (5, 5)


def test_tracer_restores_every_original():
    before = {
        (id(owner), attr): value
        for owner in [graphgame, *tracing.layer_modules().values(), simulate.Trace]
        for attr, value in vars(owner).items()
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(cli.simulate_repeated, "perfbench_span")
        assert cli.simulate_repeated is repeated.simulate_repeated
        assert not hasattr(simulate.draw_index, "perfbench_span")
        assert tracing.leftovers()
    finally:
        tracer.restore()
    assert tracing.leftovers() == []
    after = {
        (id(owner), attr): value
        for owner in [graphgame, *tracing.layer_modules().values(), simulate.Trace]
        for attr, value in vars(owner).items()
    }
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_times_add_up(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.recording("t"):
            cli.main(["analyze", str(ROOT / "fixtures" / "matching_pennies.json"),
                      "--out", str(tmp_path)])
        spans = tracer.take()
    finally:
        tracer.restore()
    assert spans[0].name == "cli.main" and spans[0].parent is None
    assert {s.name for s in spans} >= {"cli.cmd_analyze", "formats.load_game", "games.pure_c_equilibria"}
    own = tracing.self_times(spans)
    assert all(o >= 0 for o in own)
    assert sum(own) == pytest.approx(spans[0].end - spans[0].start, rel=1e-9)


def test_metric_names_match_the_benchmark_file():
    doc = spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(f"{c}_s") for c in workloads.COMMANDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    untraced, report = harness.measure(workload, 11, 0, False, ROOT)
    assert untraced["correct"] and untraced["failed"] == 0, report["failures"]
    assert set(untraced["metrics"]) == {name for name, _ in harness.END_TO_END}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced, traced_report = harness.measure(workload, 11, 0, True, ROOT)
    assert traced["correct"], traced_report["failures"]
    assert set(traced["metrics"]) == {name for name, _, _ in harness.PER_LAYER}
    # same seed, traced or not: identical artifacts
    assert traced_report["digest"] == report["digest"]
    assert traced_report["op_digests"] == report["op_digests"]
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layers["trace.unattributed_s"] < 0.01 * layers["trace.wall_s"]
    assert layers["cli.ops"] >= 1
