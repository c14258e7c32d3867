"""Gradient/curl/harmonic projections of edge flows via iterative least squares.

Edge-flow space splits orthogonally into the gradient space (image of the
transposed incidence matrix), the curl space (image of the boundary matrix),
and the harmonic space (everything orthogonal to both).  All projections
here are computed from least-squares solves against the sparse incidence or
boundary matrix; no Laplacian is ever materialized.

The solver is a vectorized multi-right-hand-side LSMR (Golub-Kahan
bidiagonalization with two QR sweeps).  Columns are mathematically
independent: each carries its own recurrence state, converges on its own
criterion, and is frozen once converged.  A call solves its whole batch as
one deterministic unit, so repeated runs on identical inputs are bitwise
identical.

``least_squares`` alone holds the solver contract: relative tolerance
1e-8 and an iteration cap of 10 * (rows + cols), as keyword defaults.  The
projections below take no solver settings; they pass an optional
``SolverTally`` through, and ``least_squares`` counts itself into it, which
is how the inference loops account for solver work and notice a solve that
ran out of iterations.
"""

from __future__ import annotations

import time
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


def _sym_ortho(a, b):
    r = np.hypot(a, b)
    safe = np.where(r > 0, r, 1.0)
    c = np.where(r > 0, a / safe, 1.0)
    s = np.where(r > 0, b / safe, 0.0)
    return c, s, r


def _column_norms(M):
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def _inv_or_zero(x):
    return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), 0.0)


def _lsmr_columns(A, At, Y, tol, maxiter, floor):
    """LSMR on every column of Y at once.

    Per-column stopping rule: ``||A^T r|| <= max(tol * ||A^T y||, floor)``.
    The absolute ``floor`` (per column, scaled like ||A|| * ||y||) is what
    makes right-hand sides (numerically) orthogonal to range(A) terminate:
    for those, tol * ||A^T y|| sits below float64 resolution.  Converged
    columns are frozen and removed from the active set, so iteration counts
    match per-column solves.

    Returns (X, iters_per_column, converged_mask).
    """
    q = A.shape[1]
    s = Y.shape[1]
    Xout = np.zeros((q, s))
    iters = np.zeros(s, dtype=np.int64)
    conv = np.zeros(s, dtype=bool)

    beta = _column_norms(Y)
    U = Y * _inv_or_zero(beta)
    V = At @ U
    alpha = _column_norms(V)
    V = V * _inv_or_zero(alpha)
    normar0 = alpha * beta

    # Columns with A^T y = 0 (up to float noise) are already optimal at x = 0.
    conv[normar0 <= floor] = True
    active = np.flatnonzero(~conv)
    if active.size == 0:
        return Xout, iters, conv

    U = U[:, active]
    V = V[:, active]
    alpha = alpha[active]
    threshold = np.maximum(tol * normar0[active], floor[active])

    alphabar = alpha.copy()
    rho = np.ones(active.size)
    rhobar = np.ones(active.size)
    cbar = np.ones(active.size)
    sbar = np.zeros(active.size)
    zetabar = normar0[active].copy()
    H = V.copy()
    Hbar = np.zeros_like(V)
    X = np.zeros((q, active.size))

    it = 0
    while it < maxiter and active.size:
        it += 1
        # Golub-Kahan bidiagonalization step.
        U = A @ V - alpha * U
        beta = _column_norms(U)
        U = U * _inv_or_zero(beta)
        V = At @ U - beta * V
        alpha_next = _column_norms(V)
        V = V * _inv_or_zero(alpha_next)

        # First rotation: eliminate beta from the bidiagonal.
        c, s_, rho_next = _sym_ortho(alphabar, beta)
        thetanew = s_ * alpha_next
        alphabar = c * alpha_next

        # Second rotation: keep the residual recurrence triangular.
        thetabar = sbar * rho_next
        cbar, sbar, rhobar_next = _sym_ortho(cbar * rho_next, thetanew)
        zeta = cbar * zetabar
        zetabar = -sbar * zetabar

        Hbar = H - (thetabar * rho_next * _inv_or_zero(rho * rhobar)) * Hbar
        X = X + (zeta * _inv_or_zero(rho_next * rhobar_next)) * Hbar
        H = V - (thetanew * _inv_or_zero(rho_next)) * H

        rho = rho_next
        rhobar = rhobar_next
        alpha = alpha_next

        # |zetabar| estimates ||A^T r|| for the current iterate.
        newly = np.abs(zetabar) <= threshold
        if newly.any():
            finished = active[newly]
            Xout[:, finished] = X[:, newly]
            iters[finished] = it
            conv[finished] = True
            keep = ~newly
            active = active[keep]
            U = U[:, keep]
            V = V[:, keep]
            H = H[:, keep]
            Hbar = Hbar[:, keep]
            X = X[:, keep]
            alpha = alpha[keep]
            alphabar = alphabar[keep]
            rho = rho[keep]
            rhobar = rhobar[keep]
            cbar = cbar[keep]
            sbar = sbar[keep]
            zetabar = zetabar[keep]
            threshold = threshold[keep]
    if active.size:
        Xout[:, active] = X
        iters[active] = it
    return Xout, iters, conv


def least_squares(A, Y, tally=None, tolerance=1e-8, max_iterations=None):
    """Minimum-norm least-squares solve of ``A x = y`` for every column of Y.

    Normal-equations-free (LSMR); for each column the returned x satisfies
    ``||A^T A x - A^T y|| <= tolerance * ||A^T y||`` unless the iteration
    budget ran out, in which case the best iterate is returned with
    ``converged=False``.

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

    # The |zetabar| convergence estimate can drift from the true residual,
    # so verify the contract explicitly and refine stragglers on the
    # residual system (the correction stays in range(A^T), preserving the
    # minimum-norm property).
    ref = _column_norms(np.asarray(At @ Y))
    target = np.maximum(tolerance * ref, floor)
    X, iters, _ = _lsmr_columns(A, At, Y, tolerance, maxiter, floor)
    for _ in range(2):
        grad = np.asarray(At @ (A @ X - Y))
        bad = np.flatnonzero(_column_norms(grad) > target)
        bad = bad[iters[bad] < maxiter]
        if bad.size == 0:
            break
        R = Y[:, bad] - A @ X[:, bad]
        budget = int(maxiter - iters[bad].min())
        D, extra, _ = _lsmr_columns(A, At, R, 0.5 * tolerance, budget, floor[bad])
        X[:, bad] += D
        iters[bad] += extra
    grad = np.asarray(At @ (A @ X - Y))
    ok = _column_norms(grad) <= target

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


class RankOneScores(NamedTuple):
    """Per-candidate scores from ``rank_one_scores``.

    ``losses[i]`` is the loss after adding candidate i alone, ``directions``
    holds each candidate's boundary minus its curl projection (b_h, one
    column each; zero for a candidate already in the curl span) and
    ``weights`` the matching least-squares coefficients (c, one row each).
    ``unchanged`` is the loss before any addition, ||h||.  Whether the
    scoring solve converged is counted by the caller's ``SolverTally``.
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


def _scoring_directions(complex_, h, candidates, tally):
    """Each candidate's direction b_h (one column each) and weights c (one
    row each) against ``complex_`` for the harmonic flows ``h``, from one
    least-squares solve (see ``rank_one_scores``)."""
    boundaries = np.stack([cell.dense() for cell in candidates], axis=1)
    bh = boundaries
    if complex_.cell_count:
        B2 = complex_.boundary_matrix(dtype=np.float64).tocsr()
        bh = boundaries - B2 @ least_squares(B2, boundaries, tally).solution
    norms = _column_norms(bh)
    # ||b_h|| <= 1e-10 ||b||: b is (numerically) in the curl span already.
    spanned = norms <= 1e-10 * _column_norms(boundaries)
    bh = np.where(spanned, 0.0, bh)
    weights = (bh.T @ h) / np.where(spanned, np.inf, norms**2)[:, None]
    return bh, weights


def rank_one_scores(complex_, flows_h, candidates, tally=None):
    """Score every candidate cell by the exact loss of the complex with that
    cell added, from one least-squares solve.

    ``flows_h`` must be the exact harmonic flows of ``complex_``.  Adding a
    boundary b moves h to ``h - b_h c`` with ``b_h = b - P_curl b`` and
    ``c = b_h^T h / ||b_h||^2``, so one multi-right-hand-side solve against
    the boundary matrix yields every b_h (counted as one call; the empty
    complex needs none).  A candidate already in the curl span
    (``||b_h|| ~ 0``) scores the unchanged loss and gets a zero direction.
    """
    flows_h = np.asarray(flows_h, dtype=np.float64)
    h = flows_h.reshape(flows_h.shape[0], -1)
    bh, weights = _scoring_directions(complex_, h, candidates, tally)
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
    scoring directions (as in ``rank_one_scores``, without the per-candidate
    losses), and h loses its projection onto all of them at once (as in
    ``RankOneScores.harmonic_after``).
    """
    if not before.cell_count:
        return harmonic_projection(after, flows_h, tally)
    flows_h = np.asarray(flows_h, dtype=np.float64)
    new = after.cells[before.cell_count:]
    directions, weights = _scoring_directions(
        before, flows_h.reshape(flows_h.shape[0], -1), new, tally)
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


def make_timer(enabled=True):
    """Wall-clock timer for inference loops; disabled -> always 0.0, which
    makes trace files byte-reproducible."""
    return time.perf_counter if enabled else (lambda: 0.0)
