import numpy as np
import pytest

from cellflow.factorize import (
    DegenerateInput,
    Factorization,
    RankTooLarge,
    column_scores,
    fast_ica,
    select_columns,
    truncated_svd,
)
from cellflow.hodge import loss, remove_gradient
from cellflow.synth import SynthConfig, random_complex, sample_flows


def _reference_column_scores(H, fact):
    """column_scores as one np.outer temporary per column."""
    return np.array([np.abs(H - np.outer(fact.B[:, j], fact.C[j])).sum()
                     for j in range(fact.rank)])


def _reference_fast_ica(H, r, seed=0, max_iterations=200, tolerance=1e-4):
    """fast_ica with the symmetric loop written with .mean and fresh
    temporaries, and the stall rule as a plain counter: fast_ica must agree
    with it bit for bit."""
    H = np.asarray(H, dtype=np.float64)
    m, s = H.shape
    _, V = np.linalg.eigh(H.T @ H)
    V_r = V[:, ::-1][:, :r]
    Z = np.sqrt(s) * V_r.T

    def decorrelate(W):
        w, U = np.linalg.eigh(W @ W.T)
        w = np.clip(w, np.finfo(np.float64).tiny, None)
        return (U * (1.0 / np.sqrt(w))) @ U.T @ W

    W = decorrelate(np.random.default_rng(seed).standard_normal((r, r)))
    converged = False
    smallest, no_new_smallest = np.inf, 0
    for _ in range(max_iterations):
        g = np.tanh(W @ Z)
        g_prime = 1.0 - g * g
        W_new = decorrelate(g @ Z.T / s - g_prime.mean(axis=1)[:, None] * W)
        delta = max(abs(abs(np.sum(W_new * W, axis=1)) - 1.0))
        W = W_new
        if delta < tolerance:
            converged = True
            break
        if delta < smallest:
            smallest, no_new_smallest = delta, 0
        else:
            no_new_smallest += 1
            if no_new_smallest == 20:
                break
    C = W @ Z
    B = (H @ V_r) @ W.T / np.sqrt(s)
    for j in range(r):
        i = np.argmax(np.abs(B[:, j]))
        if B[i, j] < 0:
            B[:, j] = -B[:, j]
            C[j] = -C[j]
    fact = Factorization(B, C, "ica", int(r), converged)
    order = np.argsort(_reference_column_scores(H, fact), kind="stable")
    return Factorization(B[:, order].copy(), C[order].copy(), "ica", int(r), converged)


def _harmonic_flows(seed):
    cpx = random_complex(SynthConfig(20, 0.5, 6, 1, seed=seed))
    flows = sample_flows(cpx, 24, 1.0, 0.3, np.random.default_rng(seed))
    return remove_gradient(cpx.graph, flows)


class TestTruncatedSvd:
    def test_rank_one_column(self):
        H = np.array([[1.0], [1.0], [-1.0]])
        fact = truncated_svd(H, 1)
        direction = fact.B[:, 0] * np.sign(fact.B[0, 0])
        assert direction == pytest.approx(H[:, 0] / np.sqrt(3), abs=1e-12)
        assert abs(fact.C[0, 0]) == pytest.approx(np.sqrt(3), abs=1e-12)
        assert np.allclose(fact.B @ fact.C, H, atol=1e-12)

    def test_rank_deficient_input(self):
        # rank 1 asked for rank 3: the two spare columns of B come from the
        # Gram matrix's null space and must still be orthonormal
        rng = np.random.default_rng(4)
        H = np.outer(rng.standard_normal(12), rng.standard_normal(6))
        fact = truncated_svd(H, 3)
        assert np.allclose(fact.B.T @ fact.B, np.eye(3), atol=1e-12)
        assert np.allclose(fact.B @ fact.C, H, atol=1e-12 * np.linalg.norm(H))

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((40, 8))
        U, sv, Vt = np.linalg.svd(H, full_matrices=False)
        fact = truncated_svd(H, 4)
        signs = np.sign(np.sum(fact.B * U[:, :4], axis=0))
        assert np.allclose(fact.B, U[:, :4] * signs, atol=1e-10)
        assert np.allclose(fact.C, signs[:, None] * sv[:4, None] * Vt[:4], atol=1e-10)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateInput):
            truncated_svd(np.zeros((4, 3)), 1)

    def test_diag_like_full_rank(self):
        H = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        fact = truncated_svd(H, 2)
        assert np.linalg.norm(H - fact.B @ fact.C) < 1e-12
        sv = np.linalg.norm(fact.C, axis=1)
        assert sorted(sv, reverse=True) == pytest.approx([2.0, 1.0], abs=1e-12)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            truncated_svd(np.ones((3, 2)), 3)
        with pytest.raises(RankTooLarge):
            truncated_svd(np.ones((3, 2)), 0)

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((10, 6))
        sv = np.linalg.svd(H, compute_uv=False)
        for r in range(1, 6):
            fact = truncated_svd(H, r)
            residual = np.linalg.norm(H - fact.B @ fact.C)
            assert residual == pytest.approx(np.sqrt((sv[r:] ** 2).sum()), rel=1e-8)

    def test_residual_non_increasing_in_rank(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((12, 8))
        residuals = [np.linalg.norm(H - (f := truncated_svd(H, r)).B @ f.C) for r in range(1, 8)]
        assert all(a >= b - 1e-10 for a, b in zip(residuals, residuals[1:]))


class TestFastIca:
    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(3)
        b = np.array([1.0, 1.0, -1.0, 0.0, 0.0])
        c = rng.uniform(-1, 1, size=12)
        H = np.outer(b, c)
        fact = fast_ica(H, 1, seed=0)
        cos = abs(fact.B[:, 0] @ b) / (np.linalg.norm(fact.B[:, 0]) * np.linalg.norm(b))
        assert cos >= 0.999
        assert np.allclose(fact.B @ fact.C, H, atol=1e-8)

    def test_disjoint_triangles_support_recovery(self):
        # Plant two independent uniform sources on disjoint supports and
        # demand support recovery in >= 9 of 10 seeds.  The finite-sample
        # rotation error of any FastICA decays like 1/sqrt(s) (~15% at 64
        # samples, ~5% at 1024; scikit-learn's FastICA shows the same), so
        # the sample count is sized to put the 10% support threshold well
        # clear of the noise floor.
        b1 = np.array([1.0, 1.0, -1.0, 0.0, 0.0, 0.0])
        b2 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, -1.0])
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            c = rng.uniform(-1.0, 1.0, size=(2, 1024))
            H = np.outer(b1, c[0]) + np.outer(b2, c[1])
            fact = fast_ica(H, 2, seed=seed)
            supports = []
            for j in range(2):
                col = np.abs(fact.B[:, j])
                supports.append(frozenset(np.flatnonzero(col > 0.1 * col.max())))
            expected = {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
            if set(supports) == expected:
                hits += 1
        assert hits >= 9

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="2 flow samples"):
            fast_ica(np.ones((4, 1)), 1)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="must be 2-dimensional"):
            fast_ica(np.ones((4, 3, 2)), 1)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            fast_ica(np.ones((3, 4)) + np.eye(3, 4), 4)

    @pytest.mark.parametrize("budget, message", [
        ({"max_iterations": 0}, "max_iterations"),
        ({"tolerance": 0}, "tolerance"),
    ], ids=["max_iterations", "tolerance"])
    def test_empty_budget_rejected(self, budget, message):
        H = np.random.default_rng(2).standard_normal((6, 10))
        with pytest.raises(ValueError, match=message):
            fast_ica(H, 2, **budget)

    def test_reconstruction_not_better_than_svd(self):
        rng = np.random.default_rng(8)
        H = rng.standard_normal((15, 10))
        for r in (1, 3, 5):
            svd_fact = truncated_svd(H, r)
            ica_fact = fast_ica(H, r, seed=2)
            svd_err = np.linalg.norm(H - svd_fact.B @ svd_fact.C)
            ica_err = np.linalg.norm(H - ica_fact.B @ ica_fact.C)
            assert ica_err >= svd_err - 1e-6

    def test_reproducible_bit_for_bit(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal((10, 20))
        a = fast_ica(H, 3, seed=7)
        b = fast_ica(H, 3, seed=7)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.C, b.C)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        H = rng.standard_normal((8, 30))
        fact = fast_ica(H, 2, seed=1)
        for j in range(2):
            assert fact.B[np.argmax(np.abs(fact.B[:, j])), j] > 0

    def test_columns_ordered_by_score(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((10, 40))
        fact = fast_ica(H, 3, seed=4)
        scores = column_scores(H, fact)
        assert (np.diff(scores) >= -1e-9).all()

    def test_sparse_sources_converge(self):
        # Bernoulli-Gaussian cell signals (10% active) are non-Gaussian, so
        # ICA can identify them: the stall rule must leave every component
        # converging.  The flows are built here, not by synth.sample_flows,
        # whose Gaussian signals ICA cannot separate.
        for seed in range(20):
            cpx = random_complex(SynthConfig(40, 0.9, 6, 1, seed=seed))
            rng = np.random.default_rng(seed)
            B2 = cpx.boundary_matrix(dtype=np.float64)
            signals = rng.standard_normal((6, 256)) * (rng.random((6, 256)) < 0.1)
            H = B2 @ signals + 0.01 * rng.standard_normal((B2.shape[0], 256))
            assert fast_ica(H, 6, seed=seed).converged, seed

    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_sources_stall_before_the_budget(self, seed):
        # Gaussian sources have no independent components to find: a call
        # that does not converge must end by the stall rule, so a far larger
        # budget changes nothing.  Some seeds do converge, at a finite-sample
        # fixed point; with a tolerance no call can reach, only the stall
        # rule can end the call, and the result is flagged as not converged.
        H = np.random.default_rng(seed).standard_normal((300, 64))
        budget = fast_ica(H, 8, max_iterations=200)
        larger = fast_ica(H, 8, max_iterations=10_000)
        assert np.array_equal(budget.B, larger.B) and np.array_equal(budget.C, larger.C)
        budget = fast_ica(H, 8, max_iterations=200, tolerance=1e-300)
        larger = fast_ica(H, 8, max_iterations=10_000, tolerance=1e-300)
        assert not budget.converged and not larger.converged
        assert np.array_equal(budget.B, larger.B) and np.array_equal(budget.C, larger.C)

    @pytest.mark.parametrize("case", ["random", "rank-deficient", "square", "flows",
                                      "budget-exhausted"])
    def test_bit_identical_to_reference_loop(self, case):
        # The buffered symmetric loop must do the same floating-point
        # operations as the plain one, so B, C and converged agree exactly.
        rng = np.random.default_rng(11)
        ica = dict(seed=3)
        if case == "random":
            H, r = rng.standard_normal((60, 32)), 6
        elif case == "rank-deficient":
            H, r = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 24)), 5
        elif case == "square":
            H, r = rng.standard_normal((30, 8)), 8
        elif case == "flows":
            H, r = _harmonic_flows(5), 8
        else:
            H, r, ica = rng.standard_normal((50, 16)), 6, dict(max_iterations=4, seed=1)
        got = fast_ica(H, r, **ica)
        want = _reference_fast_ica(H, r, **ica)
        assert np.array_equal(got.B, want.B) and np.array_equal(got.C, want.C)
        assert got.converged == want.converged
        if case == "budget-exhausted":
            assert not got.converged


class TestColumnScores:
    def test_exact_rank_one_scores_zero(self):
        H = np.outer([1.0, 1.0, -1.0], [2.0, 3.0])
        fact = truncated_svd(H, 1)
        assert column_scores(H, fact)[0] == pytest.approx(0.0, abs=1e-10)

    def test_wrong_direction_arithmetic(self):
        H = np.array([[1.0], [1.0], [-1.0]])
        fact = Factorization(np.array([[1.0], [0.0], [0.0]]), np.array([[1.0]]), "svd", 1)
        assert column_scores(H, fact)[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("layout, extremes", [
        ("C", False), ("F", False), ("strided", False),
        ("C", True), ("F", True), ("strided", True),
    ], ids=["C", "F", "strided", "C-zeros and extremes", "F-zeros and extremes",
            "strided-zeros and extremes"])
    def test_equal_to_outer_formula(self, layout, extremes, with_extremes):
        # Scores through the reused buffer are == the np.outer formula, also
        # where products are zeros of either sign, underflow or are huge.
        rng = np.random.default_rng(12)
        H = _harmonic_flows(2)
        B = rng.standard_normal((H.shape[0], 5))
        C = rng.standard_normal((5, H.shape[1]))
        if extremes:
            H, B, C = with_extremes(H), with_extremes(B), with_extremes(C)
        if layout == "F":
            H = np.asfortranarray(H)
        elif layout == "strided":
            H = np.repeat(H, 2, axis=1)[:, ::2]
        fact = Factorization(B, C, "svd", 5)
        assert np.array_equal(column_scores(H, fact), _reference_column_scores(H, fact))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        H = rng.standard_normal((6, 5))
        fact = truncated_svd(H, 3)
        perm = [2, 0, 1]
        permuted = Factorization(fact.B[:, perm], fact.C[perm], "svd", 3)
        assert column_scores(H, permuted) == pytest.approx(column_scores(H, fact)[perm])


class TestSelectColumns:
    def test_sorts_by_score(self):
        fact = Factorization(np.arange(9.0).reshape(3, 3) + 1, np.ones((3, 3)), "svd", 3)
        chosen = select_columns(fact, [3.0, 1.0, 2.0], 2)
        assert np.array_equal(chosen[0], fact.B[:, 1])
        assert np.array_equal(chosen[1], fact.B[:, 2])

    def test_all_columns_sorted(self):
        fact = Factorization(np.eye(3), np.ones((3, 3)), "svd", 3)
        chosen = select_columns(fact, [2.0, 0.0, 1.0], 3)
        assert np.array_equal(np.stack(chosen, axis=1), fact.B[:, [1, 2, 0]])

    def test_ties_keep_index_order(self):
        fact = Factorization(np.eye(3), np.ones((3, 3)), "svd", 3)
        chosen = select_columns(fact, [1.0, 1.0, 1.0], 3)
        assert np.array_equal(np.stack(chosen, axis=1), fact.B)

    def test_count_bounded_by_rank(self):
        fact = Factorization(np.eye(2), np.ones((2, 2)), "svd", 2)
        with pytest.raises(ValueError):
            select_columns(fact, [1.0, 2.0], 3)


def test_discrete_solution_never_beats_svd():
    # Eckart-Young lower bound: exact complex residual >= rank-k SVD residual
    for seed in range(6):
        cpx = random_complex(SynthConfig(10, 0.6, 4, 1, seed=40 + seed))
        rng = np.random.default_rng(seed)
        flows = sample_flows(cpx, 6, 1.0, 0.4, rng)
        flows0 = remove_gradient(cpx.graph, flows)
        exact = loss(cpx, flows0)
        sv = np.linalg.svd(flows0, compute_uv=False)
        k = cpx.cell_count
        svd_residual = np.sqrt((sv[k:] ** 2).sum())
        assert exact >= svd_residual - 1e-6
