"""Matrix-factorization cell inference (MFCI), and the greedy loop it shares
with the baselines.

Each iteration factors the current harmonic flows at low rank, discretizes
the best l factor columns into simple cycles, adds l' of them, and updates
the harmonic flows.  Wherever the exact harmonic flows are tracked (l' < l,
or exact projection) they move, together with an orthonormal basis of the
curl span, by the added cells' scoring directions
(``hodge.rank_one_scores``), with no solve: when l' < l the candidates are
first scored by their exact post-addition loss and the winners are added;
with l' = l all candidates are added.  Approximate projection with l' = l
tracks no exact flows and updates the flows the factorization sees by the
cheap span-projection approximation.

``_greedy_loop`` owns what MFCI, SPH and the random baseline have in
common: flow shaping, gradient removal (the one solve of a run), the
clock, the cell budget and the trace.  Each ``infer_*`` supplies only its
step.  Deterministic discretization and SPH share
``complexes.heaviest_tree_cycles``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .complexes import (
    CellComplex,
    add_cells,
    heaviest_tree_cycles,
    validate_cycle,
)
from .factorize import (
    DegenerateInput,
    column_scores,
    fast_ica,
    select_columns,
    truncated_svd,
)
# The solve is looked up through the module, so a wrapper installed on
# ``hodge.least_squares`` sees every call.
from . import hodge
from .hodge import approx_harmonic_update, curl_basis, rank_one_scores


class GraphIsForest(ValueError):
    """The graph contains no cycle, so no 2-cell can exist."""


class WalkFailed(Exception):
    """Every random-walk restart dead-ended before closing a cycle."""


_METHODS = ("svd", "ica")
_DISCRETIZATIONS = ("deterministic", "random_walk")
_PROJECTIONS = ("exact", "approximate")
_WALK_RESTARTS = 20


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs of the inference loop.

    ``candidates_per_iteration`` (l) factor columns are discretized each
    iteration and ``added_per_iteration`` (l') of them are kept.  Candidates
    are evaluated exactly when there is a choice to make, l' < l
    (``evaluate_candidates``), so the "best 1 of 8" setup is l=8, l'=1, and
    the fast "all 8, no evaluation" setup is l=l'=8.
    ``factorization_rank`` of None means rank = l.  FastICA's budget is
    ``fast_ica``'s keyword defaults; its seed is drawn from the loop's rng.
    """

    total_cells: int
    candidates_per_iteration: int = 1
    added_per_iteration: int = 1
    factorization_rank: int | None = None
    method: str = "svd"
    discretization: str = "deterministic"
    projection: str = "exact"

    def __post_init__(self):
        l = self.candidates_per_iteration
        lp = self.added_per_iteration
        if not 1 <= lp <= l:
            raise ValueError(f"need 1 <= added ({lp}) <= candidates ({l})")
        if self.total_cells < lp:
            raise ValueError("total_cells must be >= added_per_iteration")
        if self.factorization_rank is not None and self.factorization_rank < l:
            raise ValueError("factorization_rank must be >= candidates_per_iteration")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if self.discretization not in _DISCRETIZATIONS:
            raise ValueError(f"discretization must be one of {_DISCRETIZATIONS}")
        if self.projection not in _PROJECTIONS:
            raise ValueError(f"projection must be one of {_PROJECTIONS}")

    @property
    def rank(self):
        if self.factorization_rank is None:
            return self.candidates_per_iteration
        return self.factorization_rank

    @property
    def evaluate_candidates(self):
        return self.added_per_iteration < self.candidates_per_iteration


@dataclass(frozen=True)
class IterationRecord:
    """One row of an inference trace.  ``loss`` is always the exact loss of
    the complex after this iteration, even in approximate-projection mode;
    ``_greedy_loop`` states what the loss, seconds and solver counts cover."""

    iteration: int
    cells_added: tuple
    cells_total: int
    loss: float
    cumulative_seconds: float
    cumulative_solver_calls: int
    cumulative_solver_iterations: int
    notes: tuple = ()


@dataclass(frozen=True)
class InferenceTrace:
    records: tuple

    def losses(self):
        return np.array([r.loss for r in self.records])

    @property
    def final(self):
        return self.records[-1]


def _align_sign(b, boundary):
    """Flip the boundary's global sign so it agrees with ``b`` on the cycle
    edge with the largest |b| (ties: lowest edge id; zero weight: keep)."""
    on_cycle = b[boundary.edges]
    at = int(np.argmax(np.abs(on_cycle)))
    value = on_cycle[at]
    if value != 0 and (1 if value > 0 else -1) != boundary.signs[at]:
        return -boundary
    return boundary


def discretize_deterministic(graph, b):
    """Discretize a factor column into a cell: grow a forest by adding edges
    in decreasing |b| (ties: lower edge id; zero weight last, in id order);
    the first edge to close a cycle (``heaviest_tree_cycles``) defines the
    cell, sign-aligned to b.

    Raises
    ------
    GraphIsForest
        If no edge ever closes a cycle.
    """
    b = np.asarray(b, dtype=np.float64)
    cycles = heaviest_tree_cycles(graph, np.abs(b), 1)
    if not cycles:
        raise GraphIsForest("graph has no cycle")
    return _align_sign(b, cycles[0][1])


def discretize_random_walk(graph, b, rng):
    """Discretize a factor column by a random walk weighted by |b|.

    The walk starts at the source of the max-|b| edge and repeatedly crosses
    an unused incident edge drawn with probability proportional to |b|
    (uniform if all unused incident weights are zero); the first revisited
    node closes the loop, which is returned sign-aligned to b.

    Raises
    ------
    WalkFailed
        If every restart dead-ends on a node with no unused incident edge.
    """
    b = np.asarray(b, dtype=np.float64)
    m = graph.edge_count
    if b.shape != (m,):
        raise ValueError("weight vector length must equal the edge count")
    start = graph.edges[int(np.argmax(np.abs(b)))][0]
    for _ in range(_WALK_RESTARTS):
        used = set()
        visited = {start: 0}
        order = [start]
        node = start
        while True:
            options = [(nbr, eid) for nbr, eid in graph.adjacency[node] if eid not in used]
            if not options:
                break
            weights = np.array([abs(b[eid]) for _, eid in options])
            total = weights.sum()
            if total > 0:
                pick = rng.choice(len(options), p=weights / total)
            else:
                pick = rng.integers(len(options))
            nbr, eid = options[pick]
            used.add(eid)
            if nbr in visited:
                walk = order[visited[nbr]:] + [nbr]
                return _align_sign(b, validate_cycle(graph, walk))
            visited[nbr] = len(order)
            order.append(nbr)
            node = nbr
    raise WalkFailed(f"no cycle closed in {_WALK_RESTARTS} restarts")


def candidate_search(complex_, flows_h, cfg, rng):
    """One candidate-search pass: factor the harmonic flows at rank r, keep
    the l best-scoring columns, and discretize each into a cell.

    Random walks that fail (``WalkFailed``) and duplicates (within the batch
    or of cells already in the complex, up to sign) are dropped, so fewer
    than l candidates may come back.  Returns ``(candidates, factorization)``; the
    factorization feeds the approximate harmonic update.

    Raises
    ------
    DegenerateInput
        Propagated from the factorization when the flows are spent.
    GraphIsForest
        If the graph has no cycle (the inference loop rejects forests up
        front).
    """
    l = cfg.candidates_per_iteration
    if cfg.method == "ica":
        fact = fast_ica(flows_h, cfg.rank, seed=int(rng.integers(2**63)))
        # fast_ica already orders its columns by ascending column score.
        columns = [fact.B[:, j].copy() for j in range(l)]
    else:
        fact = truncated_svd(flows_h, cfg.rank)
        columns = select_columns(fact, column_scores(flows_h, fact), l)

    graph = complex_.graph
    cells = []
    for b in columns:
        try:
            if cfg.discretization == "random_walk":
                cells.append(discretize_random_walk(graph, b, rng))
            else:
                cells.append(discretize_deterministic(graph, b))
        except WalkFailed:
            continue
    _, candidates, _ = add_cells(complex_, cells)
    return list(candidates), fact


def evaluate_and_select(basis, flows_h, candidates, count, evaluate):
    """Pick ``count`` cells from the candidates; returns
    ``(chosen, after, basis_after)``.

    ``basis`` is an orthonormal basis of the current complex's curl span
    (``hodge.curl_basis``) and ``flows_h`` its exact harmonic flows (on an
    empty complex, the gradient-free flows); with evaluation off the basis
    may be None, where the caller tracks neither.  MFCI evaluates exactly
    when l' < l (``InferenceConfig.evaluate_candidates``), SPH always.  With
    ``evaluate`` on, each candidate is scored by the exact loss of the
    complex with that single cell added, all of them against the basis with
    no solve (``hodge.rank_one_scores``), and the lowest losses win; losses
    within 1e-9 of ||flows_h|| count as ties, which go to candidate order.
    ``RankOneScores.best`` computes the exact loss only of the candidates
    that a closed-form screen leaves in the running.  With evaluation off
    the leading ``count`` candidates are the picks, and no loss is
    computed.  Given a basis, ``after`` and ``basis_after`` are the exact
    harmonic flows and the curl basis of the complex with all the chosen
    cells added, both taken from the picks' scoring directions; without one
    they are None.  Fewer candidates than ``count`` simply all pass; with a
    basis, no candidates raise ``ValueError`` (``hodge.rank_one_scores``).
    """
    if basis is None and not evaluate:
        return list(candidates[:count]), None, None
    if not evaluate:
        candidates = candidates[:count]
    scores = rank_one_scores(basis, flows_h, candidates)
    picks = scores.best(count) if evaluate else list(range(len(candidates)))
    after = scores.harmonic_after(picks).reshape(np.shape(flows_h))
    return [candidates[i] for i in picks], after, scores.basis_after(basis, picks)


def _flow_matrix(graph, flows):
    """Flows as a float edges-by-samples matrix (a vector is one sample)."""
    flows = np.asarray(flows, dtype=np.float64)
    if flows.ndim == 1:
        flows = flows[:, None]
    if flows.shape[0] != graph.edge_count:
        raise ValueError("flow matrix rows must equal the graph's edge count")
    return flows


def make_timer(enabled=True):
    """Wall-clock timer for the greedy loop; disabled -> always 0.0, which
    makes trace files byte-reproducible."""
    return time.perf_counter if enabled else (lambda: 0.0)


def _greedy_loop(graph, flows, total_cells, timer, steps):
    """The greedy loop of MFCI, SPH and the random baseline.

    A graph without a cycle raises ``GraphIsForest`` before any solve.
    The gradient is removed once, by the run's one ``hodge.least_squares``
    solve against the transposed incidence matrix, and the start is
    recorded as iteration 0.  ``steps(complex_, flows0)`` is a
    generator that grows the complex through ``add_cells``, yields
    ``(complex_, added, loss, notes)`` per iteration and returns to stop
    early.  It is resumed only while the complex holds fewer than
    ``total_cells`` cells, so each step must fit the remaining budget.
    Steps solve nothing, so every record's ``cumulative_solver_calls`` is
    1, gradient removal's call, and only record 0 can carry a
    "solver-nonconverged" note (from that call's ``converged`` flag).  The
    solve is direct, so ``cumulative_solver_iterations`` is 0.

    Trace policy: ``loss`` is the exact loss after the iteration, as the step
    yields it (||h|| of the exact harmonic flows that SPH and MFCI carry
    by the added cells' scoring directions) or, where it yields None
    (MFCI-approximate without evaluation, random), from a reporting
    recompute.  The clock stops with the last step, and the recompute runs
    after it, so it is neither timed nor in the solver count.  Cells are
    only appended, so a record's boundary matrix is the first k_t columns
    of the final one, B = QR (``np.linalg.qr``, once).  With C = Q^T h for
    the gradient-free flows h, a record's loss is
    sqrt(||h - Q C||^2 + ||r||^2), where r is the ``hodge.least_squares``
    residual of C against R's first k_t columns: one solve per record over
    all the flow columns, in coordinates of size min(m, k).  The split is
    exact for any x, since range(Q) holds range(B), and R_t^T R_t is the
    record's Gram matrix in exact arithmetic, so the solve's rank rule is
    unchanged.  A record whose reporting solve failed its residual check
    gets a "report-nonconverged" note after the step's own notes.  Returns
    ``(complex, trace)``.
    """
    flows = _flow_matrix(graph, flows)
    if graph.forest_size == graph.edge_count:
        raise GraphIsForest("graph has no cycle, so no cell can be inferred")
    if timer is None:
        timer = make_timer()

    t0 = timer()
    gradient = hodge.least_squares(graph.incidence().T, flows)
    flows0 = gradient.residual
    complex_ = CellComplex(graph)
    start_notes = () if gradient.converged else ("solver-nonconverged",)
    # (complex, added, loss or None, notes, seconds) per record, timed
    timed = [(complex_, (), float(np.linalg.norm(flows0)), start_notes, timer() - t0)]
    iterations = steps(complex_, flows0)
    while complex_.cell_count < total_cells:
        step = next(iterations, None)
        if step is None:
            break
        complex_, added, value, notes = step
        timed.append((complex_, added, value, tuple(notes), timer() - t0))

    if any(value is None for _, _, value, _, _ in timed):
        Q, R = np.linalg.qr(complex_.boundary_matrix(dtype=np.float64).toarray())
        coords = Q.T @ flows0
        outside = np.linalg.norm(flows0 - Q @ coords) ** 2
    records = []
    for iteration, (after, added, value, notes, seconds) in enumerate(timed):
        if value is None:
            report = hodge.least_squares(R[:, :after.cell_count], coords)
            value = float(np.sqrt(outside + np.linalg.norm(report.residual) ** 2))
            if not report.converged:
                notes += ("report-nonconverged",)
        records.append(IterationRecord(iteration, added, after.cell_count, value, seconds,
                                       1, 0, notes))
    return complex_, InferenceTrace(tuple(records))


def infer_mfci(graph, flows, cfg, rng=None, timer=None):
    """Run the full inference loop on raw flows (see ``_greedy_loop``).

    Each iteration runs candidate search, selection, and cell addition,
    until the complex reaches ``cfg.total_cells`` cells, the candidates run
    dry, or the remaining flows degenerate to zero.  The final batch is
    truncated so the cell budget is met exactly.

    ``rng`` draws the ICA seeds and the random walks; None means
    ``default_rng(0)``.  Returns ``(complex, trace)``; the trace holds one
    record for the initial state (iteration 0) and one per loop iteration.
    A rank above min(m, s) or ``method="ica"`` on a single flow sample
    raises ``ValueError``, and a forest ``GraphIsForest``, all before any
    solve.
    """
    flows = _flow_matrix(graph, flows)
    if cfg.rank > min(flows.shape):
        raise ValueError(f"factorization rank {cfg.rank} exceeds min(m, s) = {min(flows.shape)}")
    if cfg.method == "ica" and flows.shape[1] < 2:
        raise ValueError("method 'ica' needs at least 2 flow samples")
    if rng is None:
        rng = np.random.default_rng(0)

    def steps(complex_, flows0):
        # ``current`` is what the factorization sees; ``exact`` the exact
        # harmonic flows of the complex and ``basis`` its curl basis, both
        # None where nothing tracks them (approximate projection without
        # evaluation).
        current = exact = flows0
        tracked = cfg.evaluate_candidates or cfg.projection == "exact"
        basis = curl_basis(complex_) if tracked else None
        while True:
            notes = []
            try:
                candidates, fact = candidate_search(complex_, current, cfg, rng)
            except DegenerateInput:
                return
            if not candidates:
                return
            if not fact.converged:
                notes.append("ica-nonconverged")
            wanted = min(cfg.added_per_iteration, cfg.total_cells - complex_.cell_count)
            # candidate_search has already dropped every candidate that
            # add_cells would drop, so ``added`` is ``chosen``.
            chosen, exact, basis = evaluate_and_select(basis, exact, candidates, wanted,
                                                       cfg.evaluate_candidates)
            complex_, added, _ = add_cells(complex_, chosen)
            if len(added) < wanted:
                notes.append("shortfall")
            if cfg.projection == "exact":
                current = exact
            else:
                update = approx_harmonic_update(current, list(added), fact)
                current = update.flows
                if update.degenerate_span:
                    notes.append("degenerate-span")
            yield complex_, added, None if exact is None else float(np.linalg.norm(exact)), notes

    return _greedy_loop(graph, flows, cfg.total_cells, timer, steps)
