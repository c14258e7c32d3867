import numpy as np
import pytest

from cellflow import hodge


@pytest.fixture
def unconverged_solve():
    """A stand-in for ``hodge.least_squares`` whose every result reads not
    converged."""
    solve = hodge.least_squares

    def unconverged(A, Y):
        return solve(A, Y)._replace(converged=False)

    return unconverged


@pytest.fixture
def exact_losses_counted(monkeypatch):
    """A one-item list that counts the exact candidate losses
    (``hodge._exact_losses``) computed from the moment the fixture is set
    up."""
    counted = [0]
    exact_losses = hodge._exact_losses

    def counting(flows, directions, weights, indices):
        counted[0] += len(indices)
        return exact_losses(flows, directions, weights, indices)

    monkeypatch.setattr(hodge, "_exact_losses", counting)
    return counted


@pytest.fixture
def with_extremes():
    """A function returning a copy of an array with about a fifth of its
    entries replaced by exact zeros of both signs and by values of tiny
    (subnormal, or underflowing when multiplied) and huge magnitude.
    Products of two of them, and their squares, stay finite."""
    rng = np.random.default_rng(29)
    extremes = np.array([0.0, -0.0, 5e-324, -1e-300, 1e-160, -1e70, 1e60])

    def replace(array):
        out = np.array(array, dtype=np.float64)
        hit = rng.random(out.shape) < 0.2
        out[hit] = rng.choice(extremes, int(hit.sum()))
        return out

    return replace
