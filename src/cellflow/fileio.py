"""Plain-text dataset and config formats.

Edge list:   header ``nodes <n>``, then one ``<source> <target>`` line per
             edge; the line position (0-based, after the header) is the
             edge id.
Cell file:   one ``<edge_id> <cell_id> <sign>`` triplet per nonzero of the
             boundary matrix, sign in {1, -1}, ordered by cell then edge.
Flow CSV:    header ``edge_id,f0,...,f{s-1}``, one row per edge in id
             order; floats are written with 17 significant digits so a
             round trip is exact.
Meta/config: flat ``key = value`` lines with dotted keys; a line whose
             first non-blank character is ``#`` is a comment, and a ``#``
             later in a line is part of its value.  ``CONFIG_SECTIONS``
             lists the keys that bind a config object.

Every reader skips blank lines and names the 1-based line of an error.
"""

from __future__ import annotations

from itertools import compress
from pathlib import Path

import numpy as np

from .complexes import CellBoundary, OrientedGraph


class ParseError(Exception):
    """Malformed data file; the message carries the path and line number."""


class InvariantViolation(Exception):
    """Structurally parseable data that breaks a documented invariant."""


def _fail(path, lineno, reason):
    raise ParseError(f"{path}:{lineno}: {reason}")


def numbered_lines(path):
    """An iterator of ``(line number, text)`` over the non-blank lines of
    ``path``, numbered from 1.

    Raises
    ------
    ParseError
        When ``path`` does not exist.
    """
    if not Path(path).exists():
        raise ParseError(f"{path}: file not found")
    lines = Path(path).read_text().splitlines()
    return compress(enumerate(lines, start=1), map(str.strip, lines))


def write_edge_list(path, graph):
    lines = [f"nodes {graph.node_count}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path):
    lines = numbered_lines(path)
    head_no, head_line = next(lines, (1, None))
    if head_line is None:
        _fail(path, 1, "missing 'nodes <n>' header")
    head = head_line.split()
    if len(head) != 2 or head[0] != "nodes":
        _fail(path, head_no, f"expected 'nodes <n>' header, got {head_line!r}")
    try:
        n = int(head[1])
    except ValueError:
        _fail(path, head_no, f"node count {head[1]!r} is not an integer")
    edges = []
    for i, line in lines:
        parts = line.split()
        if len(parts) != 2:
            _fail(path, i, f"expected '<source> <target>', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            _fail(path, i, f"non-integer node id in {line!r}")
    try:
        return OrientedGraph(n, edges)
    except ValueError as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def write_cells(path, cells):
    lines = []
    for cell_id, cell in enumerate(cells):
        for edge, sign in zip(cell.edges, cell.signs):
            lines.append(f"{edge} {cell_id} {sign}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_cells(path, graph):
    """Parse boundary triplets into CellBoundary objects (cell ids must be
    0..k-1); invariants are checked by the caller building the complex."""
    entries = {}
    for i, line in numbered_lines(path):
        parts = line.split()
        if len(parts) != 3:
            _fail(path, i, f"expected '<edge_id> <cell_id> <sign>', got {line!r}")
        try:
            edge, cell_id, sign = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            _fail(path, i, f"non-integer field in {line!r}")
        if sign not in (1, -1):
            _fail(path, i, f"sign must be 1 or -1, got {sign}")
        if not 0 <= edge < graph.edge_count:
            raise InvariantViolation(
                f"{path}:{i}: edge id {edge} outside [0, {graph.edge_count})")
        entries.setdefault(cell_id, []).append((edge, sign))
    if not entries:
        return ()
    ids = sorted(entries)
    if ids != list(range(len(ids))):
        raise InvariantViolation(f"{path}: cell ids must be contiguous from 0, got {ids}")
    cells = []
    for cell_id in ids:
        pairs = entries[cell_id]
        try:
            cells.append(CellBoundary(graph.edge_count,
                                      [e for e, _ in pairs], [s for _, s in pairs]))
        except ValueError as exc:
            raise InvariantViolation(f"{path}: cell {cell_id}: {exc}") from exc
    return tuple(cells)


def write_flows(path, flows):
    flows = np.asarray(flows, dtype=np.float64)
    if flows.ndim == 1:
        flows = flows[:, None]
    m, s = flows.shape
    lines = ["edge_id," + ",".join(f"f{i}" for i in range(s))]
    for e in range(m):
        lines.append(f"{e}," + ",".join(format(x, ".17g") for x in flows[e]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_flows(path, edge_count=None):
    lines = numbered_lines(path)
    head_no, head = next(lines, (1, None))
    if head is None:
        _fail(path, 1, "empty flow file")
    header = head.split(",")
    if header[0] != "edge_id" or any(h != f"f{i}" for i, h in enumerate(header[1:])):
        _fail(path, head_no, f"bad header {head!r}")
    s = len(header) - 1
    if s == 0:
        _fail(path, head_no, "flow file has no flow columns")
    rows = []
    for edge, (i, line) in enumerate(lines):
        parts = line.split(",")
        if len(parts) != s + 1:
            _fail(path, i, f"expected {s + 1} fields, got {len(parts)}")
        try:
            if int(parts[0]) != edge:
                _fail(path, i, f"edge ids must be consecutive from 0, got {parts[0]}")
            rows.append([float(x) for x in parts[1:]])
        except ValueError:
            _fail(path, i, f"non-numeric field in {line!r}")
    if not rows:
        _fail(path, head_no, "flow file has no edge rows")
    flows = np.array(rows, dtype=np.float64)
    if edge_count is not None and flows.shape[0] != edge_count:
        _fail(path, i, f"expected {edge_count} edge rows, found {flows.shape[0]}")
    if not np.all(np.isfinite(flows)):
        raise InvariantViolation(f"{path}: non-finite flow value")
    return flows


def write_meta(path, mapping):
    lines = [f"{key} = {value}" for key, value in mapping.items()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


# Config section -> {key: (field of the section's config object, cast)}, in
# the order ``SynthConfig.as_mapping`` writes the synth keys to meta.txt.
# A section is bound when any of its keys is present; fields without a
# default are required.
CONFIG_SECTIONS = {
    "synth": {"synth.nodes": ("node_count", int),
              "synth.edge_probability": ("edge_probability", float),
              "synth.cells": ("planted_cells", int),
              "synth.flows": ("flow_count", int),
              "synth.cell_std": ("cell_std", float),
              "synth.noise_std": ("noise_std", float),
              "synth.seed": ("seed", int)},
    "data": {"data.edges": ("edges", Path),
             "data.flows": ("flows", Path),
             "data.cells": ("cells", Path)},
    "mfci": {"mfci.total_cells": ("total_cells", int),
             "mfci.candidates": ("candidates_per_iteration", int),
             "mfci.added": ("added_per_iteration", int),
             "mfci.rank": ("factorization_rank", int),
             "mfci.method": ("method", str),
             "mfci.discretization": ("discretization", str),
             "mfci.projection": ("projection", str)},
    "sph": {"sph.total_cells": ("total_cells", int),
            "sph.candidates": ("candidates_per_iteration", int)},
}


def parse_config(path):
    """Flat ``key = value`` config: dotted keys, one per line, each key at
    most once; a line starting with '#' is a comment.  Returns the raw
    string mapping; typing happens at the consumer."""
    out = {}
    first_line = {}
    for i, line in numbered_lines(path):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            _fail(path, i, f"expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            _fail(path, i, "empty key")
        if key in first_line:
            _fail(path, i, f"key {key!r} repeats line {first_line[key]}")
        first_line[key] = i
        out[key] = value.strip()
    return out

