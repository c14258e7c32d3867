"""Gradient/curl/harmonic projections of edge flows.

Edge-flow space splits orthogonally into the gradient space (image of the
transposed incidence matrix), the curl space (image of the boundary matrix),
and the harmonic space (everything orthogonal to both).  Gradient removal
and the curl projections of a whole complex are least-squares solves
against the incidence or boundary matrix.  Candidate scoring and the
harmonic updates of the greedy loops instead run against a dense
orthonormal basis of the curl span (``curl_basis``), which a loop extends
by one direction per added cell (``RankOneScores.basis_after``), so they
need no solve at all.  Scoring computes an exact candidate loss (an
m x s pass) only where it can decide a pick: ``RankOneScores.best``
screens by a closed form that needs no pass, and a caller that adds given
candidates computes no loss.  Inside a loop, then, only gradient removal
solves; the loops that carry no exact flows report each record's ``loss``
after the loop's clock has stopped, by one solve in the coordinates of a
QR factorization of the final complex's boundary matrix.

``least_squares`` is the one solve: a direct minimum-norm solve through the
eigendecomposition of the small Gram matrix A^T A (the n x n graph
Laplacian for gradient removal, k x k for the curl span of k cells), with
no iteration budget and no settings.  It takes a sparse A as CSC, the
format the boundary matrix is built in, so A^T is CSR with no conversion;
a dense A (the reporting solves' columns of a triangular factor R) it
uses as given, with dense products.  It returns the residual ``Y - A x``
that its convergence check forms anyway:
a projection's remainder is that residual, with no second product, and
its ``converged`` flag tells a caller whether the residual check passed.
The projections below validate nothing themselves: ``least_squares``
rejects scalar flows, flows with the wrong row count and flows with a
NaN or inf entry, and on the empty boundary matrix of a complex with no
cells it returns the flows unchanged, as a fresh array.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy import sparse

#: Eigenvalues of A^T A at or below this fraction of the largest count as
#: zero: a graph Laplacian's null space (one vector per component) and
#: exactly dependent cells fall far below it.
_RANK_CUTOFF = 1e-10
#: The ``converged`` check of ``least_squares`` and its rounding floor.
_RESIDUAL_TOLERANCE = 1e-8
_ROUNDING_FLOOR = 1e-13


class LeastSquaresResult(NamedTuple):
    """``iterations`` is always 0 (the solve is direct); it stays for the
    callers that count solver iterations.  ``residual`` is ``Y - A x``,
    with Y's shape: for a projection onto range(A), the part of Y
    orthogonal to it."""

    solution: np.ndarray
    iterations: int
    converged: bool
    residual: np.ndarray


class ApproxUpdateResult(NamedTuple):
    flows: np.ndarray
    degenerate_span: bool


def _column_norms(M):
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def _gram_solve(gram, rhs):
    """``(V_k diag(1/w_k) V_k^T) rhs`` and the rank k, for the symmetric
    ``gram = V diag(w) V^T`` (``np.linalg.eigh``) and the k eigenvalues w_k
    above ``_RANK_CUTOFF`` times the largest: the minimum-norm solve of the
    normal equations whose Gram matrix and right-hand side are given."""
    w, V = np.linalg.eigh(gram)
    kept = w > _RANK_CUTOFF * w.max(initial=0.0)
    V, w = V[:, kept], w[kept]
    return V @ ((V.T @ rhs) / w[:, None]), len(w)


def least_squares(A, Y):
    """Minimum-norm least-squares solve of ``A x = y`` for every column of Y.

    Direct: with A^T A = V diag(w) V^T (``np.linalg.eigh``), the solution is
    ``V_k diag(1/w_k) V_k^T A^T y`` over the eigenvalues w_k above
    ``_RANK_CUTOFF`` times the largest, so x lies in range(A^T).
    ``converged`` is True when every column meets
    ``||A^T (y - A x)|| <= 1e-8 ||A^T y||`` on the true residual (or the
    rounding floor 1e-13 ||A|| ||y||), and False otherwise: a direction of A
    small enough to fall under the cutoff is left out of x, and the check
    notices.  A 0-d Y, a Y whose row count is not A's, and A or Y with a
    NaN or inf entry (or norms that overflow) raise ``ValueError`` before
    the solve; the norms of the floor test finiteness.  An A with no
    columns returns Y as it stands, converged, as a fresh array.

    Parameters
    ----------
    A : sparse matrix or dense 2-D array, (p, q)
        A sparse A is used as float64 CSC: A^T is then CSR as it stands,
        and the Gram matrix is A^T times dense A, exact for the
        small-integer incidence and boundary matrices.  A dense A is used
        as a float64 array, with dense products throughout; one that is
        not 2-D raises ``ValueError``.
    Y : (p,) or (p, s) array

    Returns
    -------
    LeastSquaresResult
        solution with the same trailing shape as Y, 0 iterations, the
        convergence flag, and the residual ``Y - A x`` with Y's shape.
    """
    if sparse.issparse(A):
        A = sparse.csc_matrix(A, dtype=np.float64)
        dense, entries = A.toarray(), A.data
    else:
        A = dense = entries = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError(f"a dense A must be 2-D, not {A.ndim}-D")
    shape = np.shape(Y)
    if not shape:
        raise ValueError("Y must have one row per row of A, not be a scalar")
    if A.shape[0] != shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but Y has {shape[0]}")
    Y = np.asarray(Y, dtype=np.float64).reshape(shape[0], -1)
    a_norm = float(np.sqrt((entries**2).sum()))
    y_norms = _column_norms(Y)
    if not (np.isfinite(a_norm) and np.isfinite(y_norms).all()):
        raise ValueError("A and Y must be finite: one holds NaN or inf, "
                         "or its squared norm overflows")
    At = A.T
    AtY = At @ Y
    X, _ = _gram_solve(At @ dense, AtY)
    # In place: a second m x s temporary costs more than the subtraction.
    residual = A @ X
    np.subtract(Y, residual, out=residual)
    floor = _ROUNDING_FLOOR * a_norm * y_norms
    target = np.maximum(_RESIDUAL_TOLERANCE * _column_norms(AtY), floor)
    ok = _column_norms(At @ residual) <= target

    return LeastSquaresResult(X.reshape(A.shape[1:] + shape[1:]), 0, bool(ok.all()),
                              residual.reshape(shape))


def remove_gradient(graph, flows):
    """Strip the gradient component: returns flows minus the projection onto
    the image of the transposed incidence matrix, by one ``least_squares``
    solve, which rejects flows without one finite row per edge."""
    return least_squares(graph.incidence().T, flows).residual


def harmonic_projection(complex_, flows):
    """Harmonic component of gradient-free flows: the residual after removing
    the curl component (projection onto the boundary matrix's image).

    ``flows`` must already be gradient-free (run remove_gradient first); for
    a complex with zero cells the boundary matrix has no column, and this
    returns the flows unchanged, as a fresh array.  Input is checked as in
    remove_gradient, with or without cells."""
    return least_squares(complex_.boundary_matrix(dtype=np.float64), flows).residual


def loss(complex_, flows):
    """Frobenius norm of the harmonic component of gradient-free flows."""
    return float(np.linalg.norm(harmonic_projection(complex_, flows)))


def _orthonormal_extension(basis, vectors):
    """``basis`` (orthonormal columns) with each column of ``vectors``
    appended, by classical Gram-Schmidt run twice against the basis grown so
    far ("twice is enough") and then normalized.  A column whose remainder
    is at most 1e-10 times its own norm lies in the span already and is
    dropped."""
    added = []
    for v, scale in zip(vectors.T, _column_norms(vectors)):
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
    return _orthonormal_extension(empty, boundaries)


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


def _exact_losses(flows, directions, weights, indices):
    """``||h - b_h c||`` of each candidate in ``indices``, computed as the
    np.outer formula computes it (the same elementwise operations, through
    one reused buffer, without a temporary per candidate).  The outer
    product comes from ``np.einsum("i,j->ij", ...)``, which forms each
    entry as the same single rounded product, about twice as fast as a
    broadcast multiply at m ~ 700; it may write +0.0 for a product of -0.0,
    a sign the subtraction and norm that follow cannot show."""
    residual = np.empty(flows.shape)
    losses = np.empty(len(indices))
    for k, i in enumerate(indices):
        np.einsum("i,j->ij", directions[:, i], weights[i], out=residual)
        np.subtract(flows, residual, out=residual)
        losses[k] = np.linalg.norm(residual)
    return losses


def _screen_error(m, s):
    """A bound, relative to ||h||, on how far the closed-form loss of
    ``RankOneScores.best`` can fall from the exact loss, for m edges and s
    samples (see ``RankOneScores.best``)."""
    n = m * s + m + s + 5
    unit = np.finfo(np.float64).eps / 2
    return 3.0 * np.sqrt(n * unit / (1.0 - n * unit))


class RankOneScores:
    """Per-candidate scores from ``rank_one_scores``.

    ``losses[i]`` is the loss after adding candidate i alone, computed on
    first read; ``directions`` holds each candidate's boundary minus its
    curl projection (b_h, one column each; zero for a candidate already in
    the curl span) and ``weights`` the matching least-squares coefficients
    (c, one row each).  ``unchanged`` is the loss before any addition,
    ||h||.  Scoring runs no solve, so there is nothing to count or to fail
    to converge.  Only ``best`` needs losses, and it computes the exact
    loss only of the candidates that can decide its picks, so a caller
    that takes given picks (``harmonic_after``, ``basis_after``) pays for
    no loss at all.
    """

    def __init__(self, flows, directions, weights):
        self._flows = flows
        self.directions = directions
        self.weights = weights
        self.unchanged = float(np.linalg.norm(flows))

    @functools.cached_property
    def losses(self):
        return _exact_losses(self._flows, self.directions, self.weights,
                             range(self.directions.shape[1]))

    def best(self, count):
        """Indices of the ``count`` lowest losses, best first; none when
        ``count`` < 1.  Losses within 1e-9 ||h|| of the lowest remaining one
        are ties, and ties go to the earlier candidate.  The band scales with
        the unchanged loss, not the best one, so candidates that fit exactly
        (loss 0) still tie.

        The exact losses decide, but only the candidates that can be picked
        get one.  Each candidate is screened first by the closed form
        ``sqrt(max(||h||^2 - ||b_h||^2 ||c||^2, 0))``, which equals its loss
        in exact arithmetic since c = b_h^T h / ||b_h||^2.  In floating
        point the two forms stay within ``E = 3 sqrt(gamma_N) ||h||`` of
        each other, with gamma_N = N u / (1 - N u) (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., 2002, sec. 3.1), u the
        unit roundoff and N = m s + m + s + 5 for m edges and s samples:
        the sums of squares (m s terms in ||h||^2 and the loop's norm, m in
        ||b_h||^2, s in ||c||^2) and the m-term products b_h^T h behind c
        move the closed form's square by at most about 7 gamma_N ||h||^2,
        hence its value by sqrt(7 gamma_N) ||h||, and the loop by a few
        gamma_N ||h||.  The closed form cancels when a candidate fits
        almost exactly (h = b c^T + 1e-9 noise gives 0 where the loop gives
        about 2e-9 ||h||), so a bound of order sqrt(u) is needed, not one of
        order u.  A candidate whose closed form exceeds the count-th
        smallest one (the largest, when count >= n candidates) by more
        than the band plus 2E has an exact loss more than the band above
        the count-th smallest exact loss, so the rule can never pick it
        and it never sets the floor.  The survivors get
        their exact loss, and the rule runs over them in index order: the
        picks are those of the rule over every exact loss.
        """
        if count < 1:
            return []
        band = 1e-9 * self.unchanged
        bh_squared = np.einsum("ij,ij->j", self.directions, self.directions)
        c_squared = np.einsum("ij,ij->i", self.weights, self.weights)
        closed = np.sqrt(np.maximum(self.unchanged**2 - bh_squared * c_squared, 0.0))
        error = _screen_error(*self._flows.shape) * self.unchanged
        k = min(count, len(closed)) - 1
        threshold = np.partition(closed, k)[k] + band + 2 * error
        survivors = np.flatnonzero(closed <= threshold).tolist()
        losses = dict(zip(survivors, _exact_losses(self._flows, self.directions,
                                                   self.weights, survivors)))
        remaining = list(survivors)
        picked = []
        while remaining and len(picked) < count:
            floor = min(losses[i] for i in remaining)
            pick = next(i for i in remaining if losses[i] <= floor + band)
            remaining.remove(pick)
            picked.append(pick)
        return picked

    def harmonic_after(self, picks):
        """The exact harmonic flows after adding the candidates ``picks``
        together, as an edges-by-samples matrix: h minus its projection onto
        the span of their b_h.

        Every b_h is orthogonal to the old curl span, so no solve is needed:
        one pick is the rank-one step ``h - b_h c``, several take one small
        dense least-squares fit, which copes with linearly dependent picks.
        """
        if len(picks) == 1:
            step = np.outer(self.directions[:, picks[0]], self.weights[picks[0]])
        else:
            span = self.directions[:, picks]
            step = span @ np.linalg.lstsq(span, self._flows, rcond=None)[0]
        return self._flows - step

    def basis_after(self, basis, picks):
        """The scoring ``basis`` extended to the curl span after adding the
        candidates ``picks``: each pick's b_h, normalized and appended.  Every
        b_h is orthogonal to ``basis`` already, so CGS2 against the grown
        basis matters only among several picks; a zero direction (a pick in
        the curl span, or one dependent on the picks before it) adds no
        column."""
        return _orthonormal_extension(basis, self.directions[:, picks])


def rank_one_scores(basis, flows_h, candidates):
    """Score every candidate cell by the exact loss of the complex with that
    cell added, with no solve (see ``RankOneScores``).

    ``basis`` is an orthonormal basis of the complex's curl span
    (``curl_basis``, or one that ``RankOneScores.basis_after`` grew) and
    ``flows_h`` the exact harmonic flows of that complex.  Adding a boundary
    b moves h to ``h - b_h c`` with ``b_h = b - Q Q^T b``, formed twice for
    orthogonality, and ``c = b_h^T h / ||b_h||^2``.  A candidate already in
    the curl span (``||b_h|| <= 1e-10 ||b||``) scores the unchanged loss and
    gets a zero direction.  No loss is computed here: ``RankOneScores``
    computes ``losses`` on first read, and ``best`` only those that can
    decide its picks.  An empty ``candidates`` raises ``ValueError``.
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    flows_h = np.asarray(flows_h, dtype=np.float64)
    h = flows_h.reshape(flows_h.shape[0], -1)
    boundaries = np.stack([cell.dense() for cell in candidates], axis=1)
    bh = boundaries
    for _ in range(2):
        bh = bh - basis @ (basis.T @ bh)
    bh, weights = _guarded_directions(boundaries, bh, h)
    return RankOneScores(h, bh, weights)


def hodge_decompose(graph, complex_, flows):
    """Split raw flows into (gradient, curl, harmonic) components.

    Convenience wrapper: gradient removal on the raw flows, then the curl
    projection of the remainder.  The three parts sum to the input exactly
    by construction; their pairwise orthogonality is what the solves buy.
    """
    flows = np.asarray(flows, dtype=np.float64)
    gradient_free = remove_gradient(graph, flows)
    grad = flows - gradient_free
    harm = harmonic_projection(complex_, gradient_free)
    curl = gradient_free - harm
    return grad, curl, harm


def approx_harmonic_update(h_prev, chosen, fact):
    """Cheap harmonic update after adding cells: subtract from the previous
    harmonic flows the part of the factorization product that lies in the
    span of the chosen boundary vectors.

    With ``bhat`` the edges-by-chosen matrix of those boundaries, the
    projection of ``B @ C`` onto its span is ``bhat @ X`` for the
    minimum-norm solution X of the normal equations
    ``(bhat^T bhat) X = (bhat^T B) C``.  The l' x l' Gram matrix holds exact
    integers, and the right-hand side is formed in the factor's rank-r
    space, so the edges-by-samples product ``B @ C`` is never formed.  The
    solve shares ``least_squares``' eigendecomposition and rank cutoff, but
    it does not go through ``least_squares``, so the inference loops'
    solver counts leave it out.

    Returns
    -------
    ApproxUpdateResult
        Updated flows, plus ``degenerate_span=True`` when the chosen
        boundaries were linearly dependent: their Gram matrix has rank
        below l' by that cutoff (the projector then acts on the independent
        subset, which the minimum-norm solve yields anyway).
    """
    if not chosen:
        raise ValueError("chosen must be nonempty")
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if (fact.B.shape[0], fact.C.shape[1]) != h_prev.shape:
        raise ValueError("factorization shape does not match the flows")
    bhat = np.stack([c.dense() for c in chosen], axis=1)
    coeff, rank = _gram_solve(bhat.T @ bhat, (bhat.T @ fact.B) @ fact.C)
    updated = h_prev - bhat @ coeff
    return ApproxUpdateResult(updated, rank < bhat.shape[1])
