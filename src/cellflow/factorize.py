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
# A FastICA call stops once this many consecutive iterations bring no new
# smallest delta (the largest over the r components): it has stalled, as
# calls on Gaussian sources, which ICA cannot separate, typically do.
_STALL_ITERATIONS = 20


@dataclass(frozen=True)
class Factorization:
    """Rank-r approximation ``B @ C`` of an edges-by-samples flow matrix.

    ``converged`` is only meaningful for ICA: False flags that the
    iteration ran out of its budget or stalled (its last iterate is still
    returned)."""

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


def _symmetric_decorrelation(W):
    """``(W W^T)^(-1/2) W`` through one eigendecomposition of the r x r
    ``W W^T``: the rows of W made orthonormal, treated alike.  Eigenvalues
    are floored at the float64 ``tiny``, so nothing divides by zero."""
    w, U = np.linalg.eigh(W @ W.T)
    w = np.maximum(w, np.finfo(np.float64).tiny)
    return (U * (1.0 / np.sqrt(w))) @ U.T @ W


def fast_ica(H, r, seed=0, max_iterations=200, tolerance=1e-4):
    """FastICA factorization: r statistically independent source rows in C and
    the matching mixing columns in B.

    Log-cosh contrast, symmetric (parallel) orthogonalization, and whitening
    by the r leading right singular directions of the raw data without
    sample centering (flows are mean-meaningful), so ``B @ C`` reconstructs
    the same rank-r subspace the SVD would; what changes is the basis within
    it.  The whitening goes through the s x s Gram matrix, as
    ``truncated_svd`` does: with V_r the r leading eigenvectors of
    ``H.T @ H``, the whitened samples are ``Z = sqrt(s) * V_r.T`` and the
    mixing matrix is ``B = (H @ V_r) @ W.T / sqrt(s)``, so no singular value
    is divided by.

    The r x r unmixing matrix W starts from one draw of
    ``default_rng(seed)``, and each iteration updates all r rows together
    by the fixed-point step ``W <- E[g(W Z) Z^T] - diag(E[g'(W Z)]) W``
    (g = tanh), then decorrelates them symmetrically,
    ``W <- (W W^T)^(-1/2) W`` (Hyvarinen 1999).  The call stops once the
    largest component delta ``| |w_new . w| - 1 |`` falls below
    ``tolerance`` (converged).  It also stops, not converged, after
    ``max_iterations`` iterations, or once 20 consecutive iterations bring
    no new smallest delta: such a call has stalled, as calls typically do
    when the sources are Gaussian, since ICA cannot separate them.
    Component signs are fixed so the largest-magnitude entry of each B
    column is positive, and columns are ordered by ascending column score.
    Deterministic given the seed.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if np.ndim(H) != 2:
        raise ValueError("flow matrix must be 2-dimensional")
    if np.shape(H)[1] < 2:
        raise ValueError("fast_ica needs at least 2 flow samples")
    H = _check_factor_input(H, r)
    m, s = H.shape

    V_r = _leading_right_vectors(H, r)
    Z = np.sqrt(s) * V_r.T

    W = _symmetric_decorrelation(np.random.default_rng(seed).standard_normal((r, r)))
    best, best_at = math.inf, 0
    # np.add.reduce(x, axis=1) / s is what x.mean(axis=1) computes, in
    # fewer calls; g and g' reuse one r x s buffer each.
    g = np.empty((r, s))
    g_prime = np.empty((r, s))
    for step in range(max_iterations):
        np.tanh(np.matmul(W, Z, out=g), out=g)
        np.multiply(g, g, out=g_prime)
        np.subtract(1.0, g_prime, out=g_prime)
        W_new = _symmetric_decorrelation(
            g @ Z.T / s - (np.add.reduce(g_prime, axis=1) / s)[:, None] * W)
        delta = np.abs(np.abs(np.einsum("ij,ij->i", W_new, W)) - 1.0).max()
        W = W_new
        if delta < best:
            best, best_at = delta, step
        if delta < tolerance or step - best_at == _STALL_ITERATIONS:
            break
    converged = bool(delta < tolerance)

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
    row j of C explains the whole flow matrix on its own.

    Each term's residual ``|H - outer(B_j, C_j)|`` goes through one reused
    buffer, without r temporaries.  The outer product is formed by
    ``np.einsum("i,j->ij", ...)``, about twice as fast as a broadcast
    multiply at m ~ 700: each entry is the same single rounded product as
    ``np.outer``'s, except that a product of -0.0 may be written as +0.0,
    a sign the subtraction and ``abs`` that follow cannot show."""
    H = np.asarray(H, dtype=np.float64)
    if fact.B.shape[0] != H.shape[0] or fact.C.shape[1] != H.shape[1]:
        raise ValueError("factorization shape does not match the flow matrix")
    scores = np.empty(fact.rank)
    residual = np.empty(H.shape)
    for j in range(fact.rank):
        np.einsum("i,j->ij", fact.B[:, j], fact.C[j], out=residual)
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
