"""Gradient/curl/harmonic projections of edge flows via iterative least squares.

Edge-flow space splits orthogonally into the gradient space (image of the
transposed incidence matrix), the curl space (image of the boundary matrix),
and the harmonic space (everything orthogonal to both).  Gradient removal
and the curl projections of a whole complex are least-squares solves
against the sparse incidence or boundary matrix; no Laplacian is ever
materialized.  Candidate scoring and the harmonic updates of the greedy
loops instead run against a dense orthonormal basis of the curl span
(``curl_basis``), which a loop extends by one direction per added cell
(``RankOneScores.basis_after``), so they need no solve at all.  Inside a
loop, then, only gradient removal solves; the reporting recompute of the
loops that carry no exact flows (``grown_harmonic``) solves after the
loop's clock has stopped.

The solver is CGLS (conjugate gradients on the normal equations, in the
CGLS1 form that carries the residual and never forms A^T A), run on a
whole block of right-hand sides at once.  Columns are mathematically
independent: each carries its own recurrence state, converges on its own
criterion (``||A^T r||`` against its target), and is frozen once
converged.  A call solves its whole batch as one deterministic unit, so
repeated runs on identical inputs are bitwise identical.

``least_squares`` alone holds the solver contract: relative tolerance
1e-8 and an iteration cap of 10 * (rows + cols), as keyword defaults.  The
projections below take no solver settings; they pass an optional
``SolverTally`` through, and ``least_squares`` counts itself into it, which
is how the inference loops account for solver work and notice a solve that
did not converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse


@dataclass
class SolverTally:
    """Mutable accumulator for solver-call accounting in inference loops;
    ``nonconverged`` counts the calls that ran out of iterations."""

    calls: int = 0
    iterations: int = 0
    nonconverged: int = 0

    def count(self, result):
        self.calls += 1
        self.iterations += result.iterations
        self.nonconverged += not result.converged


class LeastSquaresResult(NamedTuple):
    solution: np.ndarray
    iterations: int
    converged: bool


class ApproxUpdateResult(NamedTuple):
    flows: np.ndarray
    degenerate_span: bool


def _column_norms(M):
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def _cgls_columns(A, At, Y, threshold, maxiter):
    """CGLS (the CGLS1 recurrence) on every column of Y at once, from x = 0.

    A column stops once its ``||A^T r|| <= threshold``; it is then frozen
    and removed from the active set, so iteration counts match per-column
    solves.  A column whose ``||A^T y||`` is already within its threshold
    is done at x = 0 in no iterations.

    Returns (X, iters_per_column).
    """
    X = np.zeros((A.shape[1], Y.shape[1]))
    iters = np.zeros(Y.shape[1], dtype=np.int64)
    S = np.asarray(At @ Y)
    gamma = np.einsum("ij,ij->j", S, S)
    active = np.flatnonzero(np.sqrt(gamma) > threshold)
    R, P = Y[:, active], S[:, active]
    gamma, threshold = gamma[active], threshold[active]
    Xa = np.zeros((X.shape[0], active.size))
    it = 0
    while it < maxiter and active.size:
        it += 1
        Q = A @ P
        alpha = gamma / np.einsum("ij,ij->j", Q, Q)
        Xa += alpha * P
        R -= alpha * Q
        S = At @ R
        gamma_next = np.einsum("ij,ij->j", S, S)
        P = S + (gamma_next / gamma) * P
        gamma = gamma_next

        done = np.sqrt(gamma) <= threshold
        if done.any():
            X[:, active[done]] = Xa[:, done]
            iters[active[done]] = it
            keep = ~done
            active, Xa, R, P = active[keep], Xa[:, keep], R[:, keep], P[:, keep]
            gamma, threshold = gamma[keep], threshold[keep]
    X[:, active] = Xa
    iters[active] = it
    return X, iters


def least_squares(A, Y, tally=None, tolerance=1e-8, max_iterations=None):
    """Minimum-norm least-squares solve of ``A x = y`` for every column of Y.

    CGLS from x = 0: every iterate stays in range(A^T), so the limit is the
    minimum-norm solution, and A^T A is never formed.  A column stops once
    the residual CGLS carries by recurrence meets
    ``||A^T r|| <= tolerance * ||A^T y||``, or when the iteration budget
    runs out.  ``converged`` is True when every returned x meets that bound
    on the true residual ``r = y - A x``, and False otherwise, with the
    last iterates returned.

    Parameters
    ----------
    A : sparse or dense (p, q) matrix, used as float64 CSR
    Y : (p,) or (p, s) array
    tally : SolverTally, optional
        Counts this call, its iterations and its convergence.
    tolerance : float
        Relative residual tolerance, > 0.
    max_iterations : int, optional
        Iteration cap per column; None means 10 * (p + q).

    Returns
    -------
    LeastSquaresResult
        solution with the same trailing shape as Y, total iteration count
        consumed across columns, and the convergence flag.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    A = sparse.csr_matrix(A, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    single = Y.ndim == 1
    if single:
        Y = Y[:, None]
    if A.shape[0] != Y.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but Y has {Y.shape[0]}")
    At = A.T.tocsr()
    maxiter = max_iterations if max_iterations is not None else 10 * sum(A.shape)
    norm_a = float(np.sqrt((A.data**2).sum()))
    # ||A^T r|| below ~eps * ||A|| * ||y|| is float64 rounding dust; treat
    # it as converged rather than chasing an unreachable relative target.
    floor = 1e-13 * norm_a * _column_norms(Y)
    target = np.maximum(tolerance * _column_norms(np.asarray(At @ Y)), floor)
    X, iters = _cgls_columns(A, At, Y, target, maxiter)
    ok = _column_norms(np.asarray(At @ (A @ X - Y))) <= target

    solution = X[:, 0] if single else X
    result = LeastSquaresResult(solution, int(iters.sum()), bool(ok.all()))
    if tally is not None:
        tally.count(result)
    return result


def remove_gradient(graph, flows, tally=None):
    """Strip the gradient component: returns flows minus the projection onto
    the image of the transposed incidence matrix.  Counted as one solver
    call.  Non-finite flows raise ``ValueError`` before the solve."""
    flows = np.asarray(flows, dtype=np.float64)
    if flows.shape[0] != graph.edge_count:
        raise ValueError("flow matrix rows must equal the graph's edge count")
    if not np.isfinite(flows).all():
        raise ValueError("flows must be finite: the flow matrix holds NaN or inf")
    A = graph.incidence().T.astype(np.float64).tocsr()
    return flows - A @ least_squares(A, flows, tally).solution


def harmonic_projection(complex_, flows, tally=None):
    """Harmonic component of gradient-free flows: the residual after removing
    the curl component (projection onto the boundary matrix's image).

    ``flows`` must already be gradient-free (run remove_gradient first); for
    a complex with zero cells this returns the flows unchanged, with no
    solve."""
    flows = np.asarray(flows, dtype=np.float64)
    if flows.shape[0] != complex_.graph.edge_count:
        raise ValueError("flow matrix rows must equal the graph's edge count")
    if complex_.cell_count == 0:
        return flows.copy()
    B2 = complex_.boundary_matrix(dtype=np.float64).tocsr()
    return flows - B2 @ least_squares(B2, flows, tally).solution


def loss(complex_, flows, tally=None):
    """Frobenius norm of the harmonic component of gradient-free flows."""
    return float(np.linalg.norm(harmonic_projection(complex_, flows, tally)))


def _orthonormal_extension(basis, vectors, scales):
    """``basis`` (orthonormal columns) with each column of ``vectors``
    appended, by classical Gram-Schmidt run twice against the basis grown so
    far ("twice is enough") and then normalized.  A column whose remainder
    is at most 1e-10 times its entry in ``scales`` lies in the span already
    and is dropped."""
    added = []
    for v, scale in zip(vectors.T, scales):
        grown = np.column_stack([basis, *added]) if added else basis
        for _ in range(2):
            v = v - grown @ (grown.T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-10 * scale:
            added.append(v / norm)
    return np.column_stack([basis, *added])


def curl_basis(complex_):
    """Orthonormal basis (m x r, r the rank) of the curl span of
    ``complex_``: the columns of its boundary matrix, orthonormalized in
    cell order by CGS2.  A cell whose boundary b is within 1e-10 ||b|| of
    the span of the cells before it adds no column."""
    boundaries = complex_.boundary_matrix(dtype=np.float64).toarray()
    empty = np.zeros((boundaries.shape[0], 0))
    return _orthonormal_extension(empty, boundaries, _column_norms(boundaries))


def _guarded_directions(boundaries, bh, h):
    """The scoring directions b_h (one column each) and weights
    c = b_h^T h / ||b_h||^2 (one row each) of ``boundaries``, given their
    curl-span residuals ``bh``.  A residual with ||b_h|| <= 1e-10 ||b|| means
    b is (numerically) in the curl span already: its direction becomes zero
    and its weights zero."""
    norms = _column_norms(bh)
    spanned = norms <= 1e-10 * _column_norms(boundaries)
    bh = np.where(spanned, 0.0, bh)
    weights = (bh.T @ h) / np.where(spanned, np.inf, norms**2)[:, None]
    return bh, weights


class RankOneScores(NamedTuple):
    """Per-candidate scores from ``rank_one_scores``.

    ``losses[i]`` is the loss after adding candidate i alone, ``directions``
    holds each candidate's boundary minus its curl projection (b_h, one
    column each; zero for a candidate already in the curl span) and
    ``weights`` the matching least-squares coefficients (c, one row each).
    ``unchanged`` is the loss before any addition, ||h||.  Scoring runs no
    solve, so there is nothing to count or to fail to converge.
    """

    losses: np.ndarray
    directions: np.ndarray
    weights: np.ndarray
    unchanged: float

    def best(self, count):
        """Indices of the ``count`` lowest losses, best first.  Losses within
        1e-9 ||h|| of the lowest remaining one are ties, and ties go to the
        earlier candidate.  The band scales with the unchanged loss, not the
        best one, so candidates that fit exactly (loss 0) still tie."""
        band = 1e-9 * self.unchanged
        remaining = list(range(len(self.losses)))
        picked = []
        while remaining and len(picked) < count:
            floor = min(self.losses[i] for i in remaining)
            pick = next(i for i in remaining if self.losses[i] <= floor + band)
            remaining.remove(pick)
            picked.append(pick)
        return picked

    def harmonic_after(self, flows_h, picks):
        """The exact harmonic flows after adding the candidates ``picks``
        together: h minus its projection onto the span of their b_h.

        Every b_h is orthogonal to the old curl span, so no solve is needed:
        one pick is the rank-one step ``h - b_h c``, several take one small
        dense least-squares fit, which copes with linearly dependent picks.
        """
        return _remove_directions(flows_h, self.directions, self.weights, picks)

    def basis_after(self, basis, picks):
        """The scoring ``basis`` extended to the curl span after adding the
        candidates ``picks``: each pick's b_h, normalized and appended.  Every
        b_h is orthogonal to ``basis`` already, so CGS2 against the grown
        basis matters only among several picks; a zero direction (a pick in
        the curl span, or one dependent on the picks before it) adds no
        column."""
        directions = self.directions[:, picks]
        return _orthonormal_extension(basis, directions, _column_norms(directions))


def _remove_directions(flows_h, directions, weights, picks):
    """h minus its projection onto the span of the ``picks`` columns of
    ``directions``, whose rank-one coefficients are the matching rows of
    ``weights`` (see ``RankOneScores.harmonic_after``)."""
    flows_h = np.asarray(flows_h, dtype=np.float64)
    h = flows_h.reshape(flows_h.shape[0], -1)
    if len(picks) == 1:
        step = np.outer(directions[:, picks[0]], weights[picks[0]])
    else:
        span = directions[:, picks]
        step = span @ np.linalg.lstsq(span, h, rcond=None)[0]
    return (h - step).reshape(flows_h.shape)


def rank_one_scores(basis, flows_h, candidates):
    """Score every candidate cell by the exact loss of the complex with that
    cell added, with no solve.

    ``basis`` is an orthonormal basis of the complex's curl span
    (``curl_basis``, or one that ``RankOneScores.basis_after`` grew) and
    ``flows_h`` the exact harmonic flows of that complex.  Adding a boundary
    b moves h to ``h - b_h c`` with ``b_h = b - Q Q^T b``, formed twice for
    orthogonality, and ``c = b_h^T h / ||b_h||^2``.  A candidate already in
    the curl span (``||b_h|| <= 1e-10 ||b||``) scores the unchanged loss and
    gets a zero direction.
    """
    flows_h = np.asarray(flows_h, dtype=np.float64)
    h = flows_h.reshape(flows_h.shape[0], -1)
    boundaries = np.stack([cell.dense() for cell in candidates], axis=1)
    bh = boundaries
    for _ in range(2):
        bh = bh - basis @ (basis.T @ bh)
    bh, weights = _guarded_directions(boundaries, bh, h)
    # ||h - outer(b_h, c)|| through one reused buffer: the same elementwise
    # operations as the np.outer formula, without a temporary per candidate.
    residual = np.empty(h.shape)
    losses = np.empty(bh.shape[1])
    for i in range(bh.shape[1]):
        np.multiply(bh[:, i, None], weights[i], out=residual)
        np.subtract(h, residual, out=residual)
        losses[i] = np.linalg.norm(residual)
    return RankOneScores(losses, bh, weights, float(np.linalg.norm(h)))


def grown_harmonic(before, after, flows_h, tally=None):
    """Exact harmonic flows of ``after``, a complex that ``add_cells`` grew
    from ``before``, given ``flows_h``, the exact harmonic flows of
    ``before``; one least-squares solve either way.

    On an empty ``before`` this is the projection of ``flows_h`` against
    ``after``.  Otherwise only the new cells are solved for: one solve
    against ``before`` with a right-hand side per new cell gives their
    scoring directions (b_h and c, under ``rank_one_scores``' guard), and h
    loses its projection onto all of them at once (as in
    ``RankOneScores.harmonic_after``).
    """
    if not before.cell_count:
        return harmonic_projection(after, flows_h, tally)
    flows_h = np.asarray(flows_h, dtype=np.float64)
    new = after.cells[before.cell_count:]
    boundaries = np.stack([cell.dense() for cell in new], axis=1)
    B2 = before.boundary_matrix(dtype=np.float64).tocsr()
    bh = boundaries - B2 @ least_squares(B2, boundaries, tally).solution
    directions, weights = _guarded_directions(
        boundaries, bh, flows_h.reshape(flows_h.shape[0], -1))
    return _remove_directions(flows_h, directions, weights, list(range(len(new))))


def hodge_decompose(graph, complex_, flows, tally=None):
    """Split raw flows into (gradient, curl, harmonic) components.

    Convenience wrapper: gradient removal on the raw flows, then the curl
    projection of the remainder.  The three parts sum to the input exactly
    by construction; their pairwise orthogonality is what the solves buy.
    """
    flows = np.asarray(flows, dtype=np.float64)
    gradient_free = remove_gradient(graph, flows, tally)
    grad = flows - gradient_free
    harm = harmonic_projection(complex_, gradient_free, tally)
    curl = gradient_free - harm
    return grad, curl, harm


def approx_harmonic_update(h_prev, chosen, fact):
    """Cheap harmonic update after adding cells: subtract from the previous
    harmonic flows the part of the factorization product that lies in the
    span of the chosen boundary vectors.

    The projector is built from one small dense least-squares solve against
    the edges-by-chosen matrix; no iterative solver is invoked and the call
    is not counted as one.

    Returns
    -------
    ApproxUpdateResult
        Updated flows, plus ``degenerate_span=True`` when the chosen
        boundaries were linearly dependent (the projector then acts on the
        independent subset, which the minimum-norm solve yields anyway).
    """
    if not chosen:
        raise ValueError("chosen must be nonempty")
    h_prev = np.asarray(h_prev, dtype=np.float64)
    bhat = np.stack([c.dense() for c in chosen], axis=1)
    product = fact.B @ fact.C
    if product.shape != h_prev.shape:
        raise ValueError("factorization shape does not match the flows")
    coeff, _, rank, _ = np.linalg.lstsq(bhat, product, rcond=None)
    updated = h_prev - bhat @ coeff
    return ApproxUpdateResult(updated, bool(rank < bhat.shape[1]))
