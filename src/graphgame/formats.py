"""File formats: JSON graphs/games/targets/profiles, CSV kernels and traces.

All writers are deterministic: keys are sorted, floats carry 17 significant
digits (enough to round-trip float64 exactly), and no timestamps appear, so
re-running a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .chains import KernelLevels
from .games import CoalitionStructure, GGame
from .graphs import TUPLE_SEP, Graph
from .mixed import Distribution, MixedProfile
from .simulate import Trace


class FormatError(Exception):
    """Malformed input file."""


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dump_json(payload: Any, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def coalition_name(index: int) -> str:
    return f"C{index + 1}"


def _read_json(path: Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc


# -- graphs -----------------------------------------------------------------

def graph_to_dict(g: Graph) -> dict:
    edges = sorted(sorted((g.labels[i], g.labels[j])) for i, j in g.edges.tolist())
    return {"nodes": list(g.labels), "edges": edges}


def graph_from_dict(data: dict) -> Graph:
    try:
        nodes = data["nodes"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise FormatError("graph document needs 'nodes' and 'edges'") from exc
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise FormatError("graph 'nodes' must be a list of strings")
    if not isinstance(edges, list):
        raise FormatError("graph 'edges' must be a list of node pairs")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise FormatError(f"edge {e!r} is not a two-element list")
    try:
        return Graph(nodes, edges)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def load_graph(path: Path) -> Graph:
    return graph_from_dict(_read_json(path))


# -- games ------------------------------------------------------------------

def load_game(path: Path) -> GGame:
    path = Path(path)
    return game_from_dict(_read_json(path), base_dir=path.parent)


def game_from_dict(data: dict, base_dir: Path | None = None) -> GGame:
    if not isinstance(data, dict):
        raise FormatError("game document must be a JSON object")
    players_field = data.get("players")
    if not isinstance(players_field, (int, list)):
        raise FormatError("'players' must be a count or a list of ids")
    coalitions = data.get("coalitions")
    if (
        not isinstance(coalitions, list)
        or not coalitions
        or not all(isinstance(c, list) for c in coalitions)
    ):
        raise FormatError("'coalitions' must be a nonempty list of player lists")
    try:
        if isinstance(players_field, int):
            players = tuple(range(1, players_field + 1))
        else:
            players = tuple(int(p) for p in players_field)
        structure = CoalitionStructure(
            players, tuple(tuple(int(p) for p in c) for c in coalitions)
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad coalition structure: {exc}") from exc
    strategies = data.get("strategies")
    if (
        not isinstance(strategies, list)
        or len(strategies) != structure.r
        or not all(isinstance(s, list) and s for s in strategies)
    ):
        raise FormatError("'strategies' must list one nonempty space per coalition")
    spaces = tuple(tuple(str(x) for x in space) for space in strategies)
    for space in spaces:
        for label in space:
            if TUPLE_SEP in label:
                raise FormatError(
                    f"strategy label {label!r} contains the tuple separator {TUPLE_SEP!r}"
                )
    dims = tuple(len(s) for s in spaces)
    total = int(np.prod(dims))

    def parse_tensors(field: str, count: int) -> tuple[np.ndarray, ...] | None:
        raw = data.get(field)
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != count:
            raise FormatError(f"'{field}' must list {count} flat payoff arrays")
        out = []
        for i, flat in enumerate(raw):
            if not isinstance(flat, list) or len(flat) != total:
                raise FormatError(
                    f"'{field}'[{i}] must hold {total} values (row-major over "
                    f"the coalition strategy spaces)"
                )
            try:
                out.append(np.array(flat, dtype=float).reshape(dims))
            except (TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"'{field}'[{i}] must hold numbers: {exc}") from exc
        return tuple(out)

    payoffs = parse_tensors("payoffs", structure.r)
    player_payoffs = parse_tensors("player_payoffs", len(players))
    if payoffs is None and player_payoffs is None:
        raise FormatError("provide 'payoffs' or 'player_payoffs'")

    graph_field = data.get("graph")
    if isinstance(graph_field, str):
        base = base_dir if base_dir is not None else Path(".")
        graph = load_graph(base / graph_field)
    elif isinstance(graph_field, dict):
        graph = graph_from_dict(graph_field)
    else:
        raise FormatError("'graph' must be inline or a file reference")
    try:
        return GGame(structure, spaces, payoffs, graph, player_payoffs=player_payoffs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# -- distributions ----------------------------------------------------------

def load_target(path: Path, g: Graph) -> Distribution:
    """Target file: JSON object mapping node label to mass (or under a
    'masses' key); unlisted nodes carry zero mass."""
    data = _read_json(path)
    if isinstance(data, dict) and isinstance(data.get("masses"), dict):
        data = data["masses"]
    if not isinstance(data, dict):
        raise FormatError("target document must map node labels to masses")
    masses = np.zeros(g.n)
    for label, value in data.items():
        try:
            masses[g.index(label)] = float(value)
        except Exception as exc:
            raise FormatError(f"bad target entry {label!r}: {exc}") from exc
    try:
        return Distribution(masses)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def mixed_to_dict(profile: MixedProfile) -> dict:
    return {
        coalition_name(h): [float(x) for x in part.masses]
        for h, part in enumerate(profile.parts)
    }


def mixed_from_dict(data: dict, game: GGame) -> MixedProfile:
    parts = []
    for h in range(game.r):
        key = coalition_name(h)
        if key not in data:
            raise FormatError(f"mixed profile missing {key}")
        parts.append(Distribution(np.array(data[key], dtype=float)))
    return MixedProfile(tuple(parts))


# -- CSV artifacts ----------------------------------------------------------

def dump_kernel_csv(levels: KernelLevels, path: Path) -> None:
    """Level 0 of `levels` as its dense kernel: a header of the states in
    mass order, then one row per state, "0" in every cell but the row's
    nonzero entries, which `fmt_float` formats. One row is held at a time."""
    g, order, position = levels.graph, levels.order[0].tolist(), levels.position[0]
    starts, columns, hops = g.indptr.tolist(), position[g.indices], levels.hops[0]
    diagonal = levels.diagonal[0].tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([g.labels[i] for i in order])
        for row, node in enumerate(order):
            cells = ["0"] * len(order)
            arcs = slice(starts[node], starts[node + 1])
            for col, x in zip(columns[arcs].tolist(), hops[arcs].tolist()):
                if x:  # 0.0 only on a level whose p is 0.0
                    cells[col] = fmt_float(x)
            cells[row] = fmt_float(diagonal[node])
            fh.write(",".join(cells) + "\n")


# Rows joined per write, which bounds the writer's memory. A block starts at a
# multiple of 1000 and holds at most 1000 rows, so all its rows share one
# `t // 1000` and each row's `t % 1000` is an entry of `_LOW_DIGITS`.
_TRACE_ROWS = 1000
_LOW_DIGITS = [f"{i:03d}" for i in range(_TRACE_ROWS)]


def _csv_cells(labels: Sequence[str]) -> list[str]:
    """Each label as csv.writer writes it in a row of two or more fields
    (only a row holding one empty field quotes it)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        writer.writerow(("", label))
        cells.append(buf.getvalue()[1:-1])
    return cells


def dump_trace_csv(trace: Trace, path: Path) -> None:
    """Columns `t,state` for a plain trace; `t,state_C1,state_C2,...` for a
    joint trace, one label per component read from the component traces.

    The bytes are those a row-by-row csv.writer writes: the text after `t`
    is quoted once per state (a joint trace's states are joint indices,
    row-major over the component labels). Rows are written in blocks of
    `_TRACE_ROWS`, each joined in C from three existing strings per row:
    `t // 1000` in decimal (empty while t < 1000), `t % 1000` (zero-padded to
    three digits once t >= 1000) and the state's tail. No Python code runs per row.
    """
    if trace.components is None:
        parts, names = (trace,), ["state"]
    else:
        parts = trace.components
        names = [f"state_{coalition_name(h)}" for h in range(len(parts))]
    cells = [_csv_cells(part.state_labels) for part in parts]
    tails = ["," + ",".join(combo) + "\n" for combo in product(*cells)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["t"] + names)
        for start in range(0, trace.length, _TRACE_ROWS):
            block = trace.states[start : start + _TRACE_ROWS].tolist()
            high = start // _TRACE_ROWS
            pieces = [str(high) if high else ""] * (3 * len(block))
            pieces[1::3] = _LOW_DIGITS[: len(block)] if high else map(str, range(len(block)))
            pieces[2::3] = map(tails.__getitem__, block)
            fh.write("".join(pieces))


def dump_empirical_csv(trace: Trace, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "count", "frequency"])
        for label, count in zip(trace.state_labels, trace.counts.tolist()):
            writer.writerow([label, count, fmt_float(count / trace.length)])


def dump_series_csv(rows: Iterable[tuple], header: tuple[str, ...], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [fmt_float(x) if isinstance(x, float) else x for x in row]
            )
