"""Random cell complexes and planted flow sampling for benchmarks.

A benchmark instance is an Erdos-Renyi graph (largest component), a set of
planted 2-cells drawn as tree-plus-closing-edge cycles, and flows that are
random circulations around the planted cells plus i.i.d. Gaussian edge
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import CellComplex, OrientedGraph, UnionFind, add_cells, random_tree_cell
from .hodge import loss, remove_gradient
from . import fileio


class GenerationFailed(ValueError):
    """Could not realize the requested instance within the retry budget."""


@dataclass(frozen=True)
class SynthConfig:
    node_count: int
    edge_probability: float
    planted_cells: int
    flow_count: int
    cell_std: float = 1.0
    noise_std: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not 0 < self.edge_probability <= 1:
            raise ValueError("edge_probability must be in (0, 1]")
        if self.planted_cells < 1:
            raise ValueError("planted_cells must be >= 1")
        if self.flow_count < 1:
            raise ValueError("flow_count must be >= 1")
        if self.cell_std < 0 or self.noise_std < 0:
            raise ValueError("standard deviations must be >= 0")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"synth.seed must be non-negative, got {self.seed}")

    def as_mapping(self):
        """The ``synth.*`` config keys (``fileio.CONFIG_SECTIONS``) that bind
        this config, in table order; an unset seed maps to ""."""
        return {key: "" if getattr(self, field) is None else getattr(self, field)
                for key, (field, _) in fileio.CONFIG_SECTIONS["synth"].items()}


def _largest_component_graph(node_count, drawn_edges):
    """Build the largest-component OrientedGraph from drawn node pairs,
    relabelling nodes contiguously while preserving edge order."""
    uf = UnionFind(node_count)
    for u, v in drawn_edges:
        uf.union(u, v)
    roots = [uf.find(i) for i in range(node_count)]
    sizes = {}
    for r in roots:
        sizes[r] = sizes.get(r, 0) + 1
    main = max(sizes, key=lambda r: (sizes[r], -r))
    kept_nodes = sorted(i for i in range(node_count) if roots[i] == main)
    relabel = {old: new for new, old in enumerate(kept_nodes)}
    edges = [(relabel[u], relabel[v]) for u, v in drawn_edges if roots[u] == main]
    return OrientedGraph(len(kept_nodes), edges)


def random_complex(cfg, rng=None):
    """Sample a random cell complex per the config.

    The Erdos-Renyi draw keeps only the largest connected component (nodes
    relabelled contiguously); the draw is repeated until the component's
    cycle space is large enough to host the planted cells.  Cells are then
    planted one by one, resampling duplicates.  Deterministic given the
    seed.

    Raises
    ------
    GenerationFailed
        After 1000 graph redraws or 1000 duplicate-cell retries.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n, p = cfg.node_count, cfg.edge_probability

    graph = None
    for _ in range(1000):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        candidate = _largest_component_graph(n, edges)
        independent_cycles = candidate.edge_count - candidate.forest_size
        if independent_cycles >= cfg.planted_cells:
            graph = candidate
            break
    if graph is None:
        raise GenerationFailed(
            f"no Erdos-Renyi draw with >= {cfg.planted_cells} independent cycles in 1000 tries")

    complex_ = CellComplex(graph)
    retries = 0
    while complex_.cell_count < cfg.planted_cells:
        complex_, added, _ = add_cells(complex_, [random_tree_cell(graph, rng)])
        if not added:
            retries += 1
            if retries > 1000:
                raise GenerationFailed("planted-cell sampling kept drawing duplicates")
    return complex_


def sample_flows(complex_, flow_count, cell_std, noise_std, rng):
    """Planted flows: every column is the boundary matrix times a Gaussian
    cell signal plus Gaussian edge noise.  Deterministic given the rng."""
    if complex_.cell_count < 1:
        raise ValueError("complex must have at least one cell")
    k = complex_.cell_count
    m = complex_.graph.edge_count
    cell_signals = rng.normal(0.0, cell_std, size=(k, flow_count))
    noise = rng.normal(0.0, noise_std, size=(m, flow_count))
    B2 = complex_.boundary_matrix(dtype=np.float64)
    return B2 @ cell_signals + noise


def reference_loss(complex_, flows):
    """Exact loss of the planted (ground-truth) complex on its own flows:
    the benchmark's noise-floor reference."""
    return loss(complex_, remove_gradient(complex_.graph, flows))


def save_dataset(directory, complex_, flows, cfg=None):
    """Write an instance to ``directory`` in the plain-text dataset formats:
    ``edges.txt``, ``cells.txt``, ``flows.csv``, and a ``meta.txt`` echo of
    the generating config (when given)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fileio.write_edge_list(directory / "edges.txt", complex_.graph)
    fileio.write_cells(directory / "cells.txt", complex_.cells)
    fileio.write_flows(directory / "flows.csv", flows)
    meta = cfg.as_mapping() if cfg is not None else {}
    fileio.write_meta(directory / "meta.txt", meta)
    return directory
