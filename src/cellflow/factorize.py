"""Low-rank factorizations of harmonic flows, column scoring, and selection.

A factorization ``H ~ B @ C`` relaxes the discrete boundary-matrix fit: each
column of B stands in for one cell-boundary vector, each row of C for the
circulation strengths of that cell across the flow samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RankTooLarge(Exception):
    """Requested rank exceeds what the flow matrix supports."""


class DegenerateInput(Exception):
    """The flow matrix is (numerically) zero; nothing left to factor."""


_ZERO_SCALE = 1e-12
# A FastICA deflation component stops once this many consecutive iterations
# bring no new smallest delta: it has stalled, as components on Gaussian
# sources, which ICA cannot separate, typically do.
_STALL_ITERATIONS = 20


@dataclass(frozen=True)
class Factorization:
    """Rank-r approximation ``B @ C`` of an edges-by-samples flow matrix.

    ``converged`` is only meaningful for ICA: False flags that some
    component ran out of its iteration budget or stalled (its last iterate
    is still returned)."""

    B: np.ndarray
    C: np.ndarray
    method: str
    rank: int
    converged: bool = True


def _check_factor_input(H, r):
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise ValueError("flow matrix must be 2-dimensional")
    m, s = H.shape
    if not 1 <= r <= min(m, s):
        raise RankTooLarge(f"rank {r} not in [1, min({m}, {s})]")
    if np.linalg.norm(H) < _ZERO_SCALE * np.sqrt(m * s):
        raise DegenerateInput("flow matrix is numerically zero")
    return H


def _leading_right_vectors(H, r):
    """The r leading eigenvectors of ``H.T @ H`` as columns, largest
    eigenvalue first: the r leading right singular vectors of H."""
    return np.linalg.eigh(H.T @ H)[1][:, ::-1][:, :r]


def truncated_svd(H, r):
    """Best rank-r approximation: B holds the r leading left singular vectors
    (unit columns), C the corresponding singular values times right singular
    vectors, so the residual is the tail singular-value norm.

    The decomposition goes through the s x s Gram matrix, which is cheap
    when s << m: V_r holds the r leading eigenvectors of ``H.T @ H``, B is
    the Q factor of a thin QR of ``H @ V_r`` (signs fixed so that diag(R) is
    non-negative), and ``C = B.T @ H``.  B is orthonormal even when H has
    rank below r, and ``B @ C`` is then H itself.
    """
    H = _check_factor_input(H, r)
    B, R = np.linalg.qr(H @ _leading_right_vectors(H, r))
    B *= np.where(np.diag(R) < 0, -1.0, 1.0)
    return Factorization(B, B.T @ H, "svd", int(r))


def fast_ica(H, r, seed=0, max_iterations=200, tolerance=1e-4):
    """FastICA factorization: r statistically independent source rows in C and
    the matching mixing columns in B.

    Log-cosh contrast, deflation, and whitening by the r leading right
    singular directions of the raw data without sample centering (flows are
    mean-meaningful), so ``B @ C`` reconstructs the same rank-r subspace the
    SVD would; what changes is the basis within it.  The whitening goes
    through the s x s Gram matrix, as ``truncated_svd`` does: with V_r the
    r leading eigenvectors of ``H.T @ H``, the whitened samples are
    ``Z = sqrt(s) * V_r.T`` and the mixing matrix is
    ``B = (H @ V_r) @ W.T / sqrt(s)``, so no singular value is divided by.

    Each component starts from a direction drawn from ``default_rng(seed)``
    and stops once ``delta = | |w_new . w| - 1 |`` falls below
    ``tolerance`` (converged).  It also stops, not converged, after
    ``max_iterations`` steps, or once 20 consecutive steps bring no new
    smallest delta: such a component has stalled, as components typically
    do when the sources are Gaussian, since ICA cannot separate them.
    ``converged`` is False when any component ran out of its budget or
    stalled.  Component signs are fixed so the largest-magnitude entry of
    each B column is positive, and columns are ordered by ascending column
    score.  Deterministic given the seed.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if np.ndim(H) != 2 or np.shape(H)[1] < 2:
        raise ValueError("fast_ica needs at least 2 flow samples")
    H = _check_factor_input(H, r)
    m, s = H.shape

    V_r = _leading_right_vectors(H, r)
    Z = np.sqrt(s) * V_r.T

    rng = np.random.default_rng(seed)
    W = np.zeros((r, r))
    converged = True
    # The fixed-point step w <- E[Z g(w^T Z)] - E[g'(w^T Z)] w, written with
    # preallocated buffers, np.add.reduce(x) / s for x.mean() and
    # math.sqrt(w @ w) for np.linalg.norm(w), which is what mean and norm
    # compute: the same floating-point operations in fewer calls.
    g = np.empty(s)
    g_prime = np.empty(s)
    Zg = np.empty_like(Z)
    for comp in range(r):
        done = W[:comp]
        done_t = done.T
        w = rng.standard_normal(r)
        w /= np.linalg.norm(w)
        best, best_at = math.inf, 0
        for step in range(max_iterations):
            np.tanh(w @ Z, out=g)
            np.multiply(g, g, out=g_prime)
            np.subtract(1.0, g_prime, out=g_prime)
            np.multiply(Z, g, out=Zg)
            w_new = np.add.reduce(Zg, axis=1) / s - np.add.reduce(g_prime) / s * w
            if comp:
                w_new -= done_t @ (done @ w_new)
            norm = math.sqrt(w_new @ w_new)
            if norm < 1e-12:
                w_new = rng.standard_normal(r)
                if comp:
                    w_new -= done_t @ (done @ w_new)
                norm = math.sqrt(w_new @ w_new)
            w_new /= norm
            delta = abs(abs(w_new @ w) - 1.0)
            w = w_new
            if delta < best:
                best, best_at = delta, step
            if delta < tolerance or step - best_at == _STALL_ITERATIONS:
                break
        converged &= bool(delta < tolerance)
        W[comp] = w

    C = W @ Z
    B = (H @ V_r) @ W.T / np.sqrt(s)
    # Fix signs: largest-|entry| of each mixing column positive.
    for j in range(r):
        i = np.argmax(np.abs(B[:, j]))
        if B[i, j] < 0:
            B[:, j] = -B[:, j]
            C[j] = -C[j]
    fact = Factorization(B, C, "ica", int(r), converged)
    order = np.argsort(column_scores(H, fact), kind="stable")
    return Factorization(B[:, order].copy(), C[order].copy(), "ica", int(r), converged)


def column_scores(H, fact):
    """Entrywise-L1 residual of each rank-1 term: how well column j of B with
    row j of C explains the whole flow matrix on its own."""
    H = np.asarray(H, dtype=np.float64)
    if fact.B.shape[0] != H.shape[0] or fact.C.shape[1] != H.shape[1]:
        raise ValueError("factorization shape does not match the flow matrix")
    scores = np.empty(fact.rank)
    # |H - outer(B_j, C_j)| through one reused buffer: the same elementwise
    # operations as the np.outer formula, without r temporaries.
    residual = np.empty(H.shape)
    for j in range(fact.rank):
        np.multiply(fact.B[:, j, None], fact.C[j], out=residual)
        np.subtract(H, residual, out=residual)
        scores[j] = np.abs(residual, out=residual).sum()
    return scores


def select_columns(fact, scores, count):
    """The ``count`` columns of B with the lowest scores, ascending; ties keep
    the lower column index."""
    scores = np.asarray(scores)
    if count > fact.rank:
        raise ValueError(f"cannot select {count} of {fact.rank} columns")
    order = np.argsort(scores, kind="stable")[:count]
    return [fact.B[:, j].copy() for j in order]
