"""Spanning-tree candidate heuristic (SPH) and random-cell baseline.

The SPH variant here closes candidate cycles at the heaviest non-tree
edges of the maximum spanning forest of the aggregate absolute harmonic
flow, and greedily adds the single candidate that lowers the exact loss
the most.  The pick is MFCI's evaluated one (``mfci.evaluate_and_select``):
all candidates are scored against an orthonormal basis of the curl span
(``hodge.rank_one_scores``), which grows by the winner's direction, and
the harmonic flows follow the winner's rank-one update instead of a fresh
projection, so no solve runs after gradient removal.  It is a
faithful-in-spirit reference point, not a bit-exact port of any
particular prior implementation.

Both baselines supply only their step to ``mfci._greedy_loop``, which runs
the loop and writes the trace.  SPH shares ``complexes.heaviest_tree_cycles``
with deterministic discretization, and the random baseline shares
``complexes.random_tree_cell`` with the synthetic generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import add_cells, heaviest_tree_cycles, random_tree_cell
from .hodge import curl_basis
from .mfci import _greedy_loop, evaluate_and_select


@dataclass(frozen=True)
class SphConfig:
    total_cells: int
    candidates_per_iteration: int = 11

    def __post_init__(self):
        if self.total_cells < 1:
            raise ValueError("total_cells must be >= 1")
        if self.candidates_per_iteration < 1:
            raise ValueError("candidates_per_iteration must be >= 1")


def sph_candidates(complex_, flows_h, count):
    """Spanning-tree candidates from the current harmonic flows.

    Edge weights are the aggregate absolute harmonic flow per edge; each of
    the ``count`` heaviest non-tree edges closes one candidate cycle through
    the max spanning forest (``complexes.heaviest_tree_cycles``).  Every
    candidate contains exactly one non-tree edge and is sign-aligned to the
    net harmonic flow on that edge.
    """
    flows_h = np.asarray(flows_h, dtype=np.float64)
    if flows_h.ndim == 1:
        flows_h = flows_h[:, None]
    weights = np.abs(flows_h).sum(axis=1)
    candidates = []
    for e, boundary in heaviest_tree_cycles(complex_.graph, weights, count):
        net = flows_h[e].sum()
        if net != 0 and (1 if net > 0 else -1) != boundary.sign_of(e):
            boundary = -boundary
        candidates.append(boundary)
    return candidates


def infer_sph(graph, flows, cfg, rng=None, timer=None):
    """Greedy spanning-tree inference.

    Each iteration draws candidates from the current harmonic flows h,
    scores them all by their exact post-addition loss against an
    orthonormal basis of the curl span, adds the single best cell, and
    moves h by that cell's rank-one update and the basis by its direction
    (``mfci.evaluate_and_select`` with evaluation on); the recorded loss
    is ||h||.  Only gradient removal solves, so the solver counts read 1
    on every record.  ``rng`` is accepted for interface symmetry; the
    heuristic itself is deterministic.
    """
    del rng

    def steps(complex_, flows0):
        current, basis = flows0, curl_basis(complex_)
        while True:
            candidates = [c for c in sph_candidates(complex_, current, cfg.candidates_per_iteration)
                          if c.canonical() not in complex_.keys]
            if not candidates:
                return
            chosen, current, basis = evaluate_and_select(basis, current, candidates, 1,
                                                         evaluate=True)
            complex_, added, _ = add_cells(complex_, chosen)
            yield complex_, added, float(np.linalg.norm(current)), ()

    return _greedy_loop(graph, flows, cfg.total_cells, timer, steps)


def infer_random(graph, flows, total_cells, rng, timer=None):
    """Random baseline: each added cell closes a uniformly chosen non-tree
    edge through a random spanning tree (see ``random_tree_cell``).

    Duplicate draws are resampled up to 100 times; once a cell cannot be
    drawn fresh the run stops short.  The exact loss recorded per iteration
    is reporting only: once the clock has stopped, ``_greedy_loop``
    projects the gradient-free flows against each record's complex in the
    coordinates of one QR of the final complex's boundary matrix, one
    ``hodge.least_squares`` solve per record that is neither timed nor in
    the trace's solver count.
    """
    if total_cells < 1:
        raise ValueError("total_cells must be >= 1")
    def steps(complex_, flows0):
        while True:
            for _ in range(100):
                cell = random_tree_cell(graph, rng)
                if cell.canonical() not in complex_.keys:
                    break
            else:
                return  # no fresh cell in 100 draws: stop short
            complex_, added, _ = add_cells(complex_, [cell])
            yield complex_, added, None, ()

    return _greedy_loop(graph, flows, total_cells, timer, steps)
