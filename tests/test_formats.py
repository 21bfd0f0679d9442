import csv
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from graphgame.chains import build_kernel, kernel_levels, smooth
from graphgame.formats import (
    _RUN_ROWS,
    _TRACE_ROWS,
    FormatError,
    dump_empirical_csv,
    dump_json,
    dump_kernel_csv,
    dump_trace_csv,
    fmt_float,
    game_from_dict,
    graph_from_dict,
    graph_to_dict,
    load_game,
    load_graph,
    load_target,
    mixed_from_dict,
    mixed_to_dict,
)
from graphgame.graphs import Graph, path_graph
from graphgame.mixed import Distribution, MixedProfile
from graphgame.simulate import Trace, _joint_trace, run_homogeneous

from conftest import edge_labels, game_to_dict, matching_pennies, random_connected_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestGraphFormat:
    def test_round_trip(self, tmp_path):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        dump_json(graph_to_dict(g), tmp_path / "g.json")
        assert load_graph(tmp_path / "g.json") == g

    def test_fixture_loads(self):
        g = load_graph(FIXTURES / "chain_example_graph.json")
        assert g.labels == ("s1", "s2", "s3", "s4")
        assert len(edge_labels(g)) == 3

    def test_bad_documents(self):
        with pytest.raises(FormatError):
            graph_from_dict({"nodes": ["a"]})
        with pytest.raises(FormatError):
            graph_from_dict({"nodes": ["a", "a"], "edges": []})
        with pytest.raises(FormatError):
            graph_from_dict({"nodes": ["a", "b"], "edges": [["a", "b", "c"]]})

    def test_bad_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(FormatError, match="line"):
            load_graph(bad)


class TestGameFormat:
    def test_fixture_matching_pennies(self):
        game = load_game(FIXTURES / "matching_pennies.json")
        reference = matching_pennies()
        assert game.spaces == reference.spaces
        assert np.array_equal(game.payoffs[0], reference.payoffs[0])
        assert edge_labels(game.graph) == edge_labels(reference.graph)

    def test_round_trip_via_dict(self):
        game = matching_pennies()
        doc = game_to_dict(game)
        again = game_from_dict(doc)
        assert again.spaces == game.spaces
        assert np.array_equal(again.payoffs[1], game.payoffs[1])

    def test_graph_by_reference(self, tmp_path):
        doc = game_to_dict(matching_pennies())
        graph_doc = doc.pop("graph")
        (tmp_path / "g.json").write_text(json.dumps(graph_doc))
        doc["graph"] = "g.json"
        (tmp_path / "game.json").write_text(json.dumps(doc))
        game = load_game(tmp_path / "game.json")
        assert game.graph.n == 4

    def test_player_payoffs_summed(self):
        doc = game_to_dict(matching_pennies())
        doc.pop("payoffs")
        doc["player_payoffs"] = [
            [1, -1, -1, 1],
            [-1, 1, 1, -1],
        ]
        game = game_from_dict(doc)
        assert game.payoff(0, (0, 0)) == 1.0
        assert game.payoff(1, (0, 0)) == -1.0

    def test_wrong_payoff_length(self):
        doc = game_to_dict(matching_pennies())
        doc["payoffs"][0] = [1, 2, 3]
        with pytest.raises(FormatError, match="4 values"):
            game_from_dict(doc)

    def test_missing_fields(self):
        with pytest.raises(FormatError):
            game_from_dict({"players": 2})


class TestTargetFormat:
    def test_loads_with_implicit_zeros(self):
        g = load_graph(FIXTURES / "chain_example_graph.json")
        target = load_target(FIXTURES / "chain_example_target.json", g)
        assert target.masses.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_unknown_label(self, tmp_path):
        g = path_graph(["a", "b"])
        f = tmp_path / "t.json"
        f.write_text('{"masses": {"zz": 1.0}}')
        with pytest.raises(FormatError):
            load_target(f, g)

    def test_unnormalized(self, tmp_path):
        g = path_graph(["a", "b"])
        f = tmp_path / "t.json"
        f.write_text('{"a": 0.9}')
        with pytest.raises(FormatError):
            load_target(f, g)


class TestMixedFormat:
    def test_round_trip(self):
        game = matching_pennies()
        profile = MixedProfile(
            (
                Distribution(np.array([0.25, 0.75])),
                Distribution(np.array([0.5, 0.5])),
            )
        )
        doc = mixed_to_dict(profile)
        assert set(doc) == {"C1", "C2"}
        again = mixed_from_dict(doc, game)
        for a, b in zip(again.parts, profile.parts):
            assert np.array_equal(a.masses, b.masses)

    def test_missing_coalition(self):
        with pytest.raises(FormatError):
            mixed_from_dict({"C1": [1.0, 0.0]}, matching_pennies())


def row_writer_trace_csv(trace: Trace, path: Path) -> None:
    """Reference: the trace CSV written one csv.writer row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if trace.components is None:
            writer.writerow(["t", "state"])
            for t, s in enumerate(trace.states.tolist()):
                writer.writerow([t, trace.state_labels[s]])
        else:
            comps = trace.components
            writer.writerow(["t"] + [f"state_C{h + 1}" for h in range(len(comps))])
            columns = [c.states.tolist() for c in comps]
            for t in range(trace.length):
                writer.writerow(
                    [t] + [c.state_labels[col[t]] for c, col in zip(comps, columns)]
                )


def cell_writer_kernel_csv(kernel, path: Path) -> None:
    """Reference: the kernel CSV with every cell formatted by fmt_float."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(kernel.state_labels)
        for row in kernel.matrix:
            fh.write(",".join(map(fmt_float, row.tolist())) + "\n")


# the masses of a kernel test target, by kind; a "tiny" mass is set after the
# others are normalized, to 0.0 in a target to smooth, else to TINY_MASS
MASS_KIND = st.sampled_from(["drawn", "tie", "tiny"])
# small enough to make the hop probability p subnormal once the tiny node's
# neighbours hold a quarter of the mass, large enough to keep 2 * load finite
TINY_MASS = 1.2e-308


# labels csv.writer must quote or keep as they are, then arbitrary text
LABEL = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", " ", " a b ", "a,\"b\"", "é", "状態"]),
    st.text(max_size=6),
)
# None: a plain trace over one label list; otherwise the label lists of 1-3
# components of a joint trace
SPACES = st.one_of(
    st.lists(LABEL, min_size=1, max_size=6).map(lambda labels: (None, labels)),
    st.lists(st.lists(LABEL, min_size=1, max_size=4), min_size=1, max_size=3).map(
        lambda axes: ("joint", axes)
    ),
)


def trace_property(max_examples: int, phases=tuple(Phase)):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        phases=phases,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


def assert_trace_csv_matches_row_writer(spaces, length, seed, tmp_path):
    kind, labels = spaces
    rng = np.random.default_rng(seed)
    if kind is None:
        states = rng.integers(0, len(labels), size=length)
        trace = Trace(states, tuple(labels), seed, np.bincount(states, minlength=len(labels)))
    else:
        factor_states = [rng.integers(0, len(axis), size=length) for axis in labels]
        trace = _joint_trace(factor_states, labels, seed)
    assert_trace_csv_bytes_match_row_writer(trace, tmp_path)


# run lengths: short runs, and runs of about a block and up to two blocks,
# which cross block edges
RUN_LENGTHS = st.lists(
    st.one_of(st.integers(1, 2 * _RUN_ROWS), st.integers(_TRACE_ROWS - 2, 2 * _TRACE_ROWS + 2)),
    min_size=1,
    max_size=24,
)


def state_count(spaces) -> int:
    kind, labels = spaces
    return len(labels) if kind is None else math.prod(map(len, labels))


def runs_trace(spaces, lengths, seed) -> Trace:
    """A trace whose runs of equal states have the given lengths; with one
    state the runs merge into one."""
    kind, labels = spaces
    n = state_count(spaces)
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.integers(1, max(n, 2), size=len(lengths))) % n
    states = np.repeat(values, lengths)
    if kind is None:
        return Trace(states, tuple(labels), seed, np.bincount(states, minlength=n))
    dims = tuple(map(len, labels))
    return _joint_trace(list(np.unravel_index(states, dims)), labels, seed)


def assert_trace_csv_bytes_match_row_writer(trace, tmp_path):
    dump_trace_csv(trace, tmp_path / "fast.csv")
    row_writer_trace_csv(trace, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestCsvFormats:
    def test_kernel_round_trip_exact(self, tmp_path):
        target = Distribution(np.array([0.3, 0.2, 0.5]))
        g = path_graph(["a", "b", "c"])
        kernel = build_kernel(target, g)
        levels = kernel_levels(g, target.masses[None, :])
        dump_kernel_csv(levels, tmp_path / "k.csv")
        with open(tmp_path / "k.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == kernel.state_labels
        assert np.array_equal(np.array(rows, dtype=float), kernel.matrix)  # 17 digits round-trips

    def test_trace_csv_single(self, tmp_path):
        trace = Trace(np.array([0, 1, 0]), ("a", "b"), 7, np.array([2, 1]))
        dump_trace_csv(trace, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "t,state"
        assert lines[1:] == ["0,a", "1,b", "2,a"]

    def test_trace_csv_components(self, tmp_path):
        c1 = Trace(np.array([0, 1]), ("a", "b"), 7, np.array([1, 1]))
        c2 = Trace(np.array([1, 1]), ("x", "y"), 7, np.array([0, 2]))
        joint = Trace(
            np.array([1, 3]), ("a|x", "a|y", "b|x", "b|y"), 7,
            np.array([0, 1, 0, 1]), components=(c1, c2),
        )
        dump_trace_csv(joint, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "t,state_C1,state_C2"
        assert lines[1:] == ["0,a,y", "1,b,y"]

    @pytest.mark.parametrize("length", [1, 10, 11, 100])
    @given(spaces=SPACES, seed=st.integers(0, 2**32 - 1))
    @trace_property(max_examples=50)
    def test_trace_csv_matches_row_writer(self, length, spaces, seed, tmp_path):
        assert_trace_csv_matches_row_writer(spaces, length, seed, tmp_path)

    # block edges, the lengths at which `t` gains a digit, and lengths that are neither
    @pytest.mark.parametrize(
        "length",
        sorted(
            {_TRACE_ROWS - 1, _TRACE_ROWS, _TRACE_ROWS + 1}
            | {10**d + k for d in (3, 4, 5) for k in (-1, 0, 1)}
            | {65_535, 65_536, 65_537}
        ),
    )
    @given(spaces=SPACES, seed=st.integers(0, 2**32 - 1))
    # shrinking a failing example this long would take minutes; report it as found
    @trace_property(max_examples=8, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_trace_csv_matches_row_writer_at_block_edges(self, length, spaces, seed, tmp_path):
        assert_trace_csv_matches_row_writer(spaces, length, seed, tmp_path)

    @given(spaces=SPACES, lengths=RUN_LENGTHS, seed=st.integers(0, 2**32 - 1))
    @example(spaces=(None, ["a"]), lengths=[_TRACE_ROWS + 1, 2 * _TRACE_ROWS], seed=0)
    @example(spaces=(None, ["a", "b"]), lengths=[_TRACE_ROWS, _TRACE_ROWS, 7], seed=0)  # runs end at block edges
    @trace_property(max_examples=100, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_trace_csv_matches_row_writer_on_runs(self, spaces, lengths, seed, tmp_path):
        """Traces drawn as runs, which reach the writer's per-run blocks."""
        assert_trace_csv_bytes_match_row_writer(runs_trace(spaces, lengths, seed), tmp_path)

    # blocks of rows // _RUN_ROWS runs, the most joined run by run, and of one more:
    # the first block, a full block and a last partial block
    @pytest.mark.parametrize("extra", [0, 1])
    @given(spaces=SPACES.filter(lambda spaces: state_count(spaces) > 1), seed=st.integers(0, 2**32 - 1))
    @trace_property(max_examples=10)
    def test_trace_csv_matches_row_writer_at_run_rule(self, extra, spaces, seed, tmp_path):
        lengths = []
        for rows in (_TRACE_ROWS, _TRACE_ROWS, 517):
            runs = rows // _RUN_ROWS + extra
            lengths += np.diff(np.linspace(0, rows, runs + 1).round().astype(int)).tolist()
        assert_trace_csv_bytes_match_row_writer(runs_trace(spaces, lengths, seed), tmp_path)

    @given(
        kinds=st.lists(MASS_KIND, min_size=1, max_size=12),
        labels=st.lists(LABEL, min_size=12, max_size=12, unique=True),
        smoothed=st.booleans(),
        k=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @trace_property(max_examples=200)
    def test_kernel_csv_matches_cell_writer(self, kinds, labels, smoothed, k, seed, tmp_path):
        """The row writer on the core's padded rows against every cell of
        `build_kernel`'s dense matrix formatted, on random connected graphs,
        with tied masses, subnormal hops and smoothed targets."""
        rng = random.Random(seed)
        n = len(kinds)
        g = random_connected_graph(rng, labels[:n], extra=rng.choice([0.0, 0.3, 1.0]))
        if kinds[0] == "tiny":  # some mass to normalize
            kinds = ["tie", *kinds[1:]]
        draw = {"drawn": lambda: rng.uniform(0.1, 3.0), "tie": lambda: 1.0, "tiny": lambda: 0.0}
        masses = np.array([draw[kind]() for kind in kinds])
        masses /= masses.sum()
        tiny = [kind == "tiny" for kind in kinds]
        if smoothed and any(tiny):
            # the tiny masses are zeros here, in the low set at every level
            target = smooth(Distribution(masses), k).smoothed
        else:
            masses[tiny] = TINY_MASS
            target = Distribution(masses)
        levels = kernel_levels(g, target.masses[None, :])
        dump_kernel_csv(levels, tmp_path / "rows.csv")
        cell_writer_kernel_csv(build_kernel(target, g), tmp_path / "cells.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_empirical_csv(self, tmp_path):
        kernel = build_kernel(
            Distribution(np.array([2 / 3, 1 / 3])), path_graph(["a", "b"])
        )
        trace = run_homogeneous(kernel, Distribution(np.array([1.0, 0.0])), 100, seed=0)
        dump_empirical_csv(trace, tmp_path / "e.csv")
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0] == "state,count,frequency"
        counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
        assert sum(counts.values()) == 100

    def test_fmt_float_round_trip(self):
        for x in (1 / 3, 0.1, 2**-52, 123456.789):
            assert float(fmt_float(x)) == x
