import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from cellflow.complexes import (
    CellComplex,
    OrientedGraph,
    add_cells,
    kruskal,
    random_tree_cell,
    validate_cycle,
)
from cellflow.factorize import Factorization
from cellflow import hodge
from cellflow.hodge import (
    RankOneScores,
    approx_harmonic_update,
    curl_basis,
    harmonic_projection,
    hodge_decompose,
    least_squares,
    loss,
    rank_one_scores,
    remove_gradient,
)
from cellflow.synth import SynthConfig, random_complex


def t3():
    return OrientedGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    return OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def dense_projector(columns):
    """Oracle: orthogonal projector onto the span of the given columns."""
    M = np.stack(columns, axis=1)
    return M @ np.linalg.pinv(M)


def _k4_triangles():
    """K4's four triangle boundaries, of rank 3."""
    cycles = ([0, 1, 2, 0], [0, 1, 3, 0], [0, 2, 3, 0], [1, 2, 3, 1])
    return np.stack([validate_cycle(k4(), cycle).dense() for cycle in cycles], axis=1)


def _two_component_incidence():
    """The transposed incidence of two disjoint cycles, of rank n - 2."""
    g = OrientedGraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    return g.incidence().T.astype(np.float64)


def unreached_solve(*args):
    raise AssertionError("the solve ran on input it should have rejected")


def _random_sparse():
    return sparse.random(30, 12, density=0.3, random_state=4, format="csr")


_ZERO_COLUMN = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 0.0], [1.0, 0.0, 1.0]])

# case -> (A, Y): rank-deficient matrices, a vector y and a zero y
LSTSQ_CASES = {
    "two-component incidence": lambda: (
        _two_component_incidence(), np.random.default_rng(1).standard_normal((7, 3))),
    "k4 dependent triangles": lambda: (
        sparse.csr_matrix(_k4_triangles()), np.random.default_rng(2).standard_normal((6, 3))),
    "random sparse": lambda: (_random_sparse(), np.random.default_rng(3).standard_normal((30, 3))),
    "1-d y": lambda: (_random_sparse(), np.random.default_rng(4).standard_normal(30)),
    "zero y": lambda: (_random_sparse(), np.zeros((30, 2))),
    "zero column": lambda: (
        sparse.csr_matrix(_ZERO_COLUMN), np.random.default_rng(5).standard_normal((4, 2))),
}


class TestLeastSquares:
    def test_identity(self):
        Y = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        res = least_squares(sparse.identity(3, format="csr"), Y)
        assert np.allclose(res.solution, Y, atol=1e-12)
        assert res.converged

    def test_single_column_exact(self):
        A = sparse.csr_matrix(np.array([[1.0], [1.0], [-1.0]]))
        res = least_squares(A, np.array([1.0, 1.0, -1.0]))
        assert res.solution == pytest.approx([1.0], abs=1e-10)

    def test_projection_coefficient(self):
        A = sparse.csr_matrix(np.array([[1.0], [1.0], [-1.0]]))
        res = least_squares(A, np.array([1.0, 0.0, 0.0]))
        assert res.solution == pytest.approx([1.0 / 3.0], abs=1e-10)

    def test_matches_pinv_on_random_rank_deficient(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            p, q = rng.integers(3, 25, size=2)
            A = rng.standard_normal((p, q))
            if min(p, q) > 2:
                U, sv, Vt = np.linalg.svd(A, full_matrices=False)
                sv[rng.integers(1, min(p, q)):] = 0.0
                A = (U * sv) @ Vt
            Y = rng.standard_normal((p, 3))
            res = least_squares(sparse.csr_matrix(A), Y)
            expected = np.linalg.pinv(A) @ Y
            assert np.allclose(res.solution, expected, atol=1e-7)

    def test_contract_residual_bound(self):
        rng = np.random.default_rng(2)
        A = sparse.random(40, 15, density=0.4, random_state=3, format="csr")
        Y = rng.standard_normal((40, 5))
        res = least_squares(A, Y)
        grad = A.T @ (A @ res.solution - Y)
        ref = np.linalg.norm((A.T @ Y), axis=0)
        assert (np.linalg.norm(grad, axis=0) <= 1e-9 * ref).all()
        assert res.converged

    def test_not_converged_flag(self):
        # the 1e-6 direction is genuine, but its eigenvalue 1e-12 in A^T A
        # falls under the rank cutoff; the residual check notices
        res = least_squares(sparse.diags([1.0, 1e-6]), np.ones(2))
        assert not res.converged
        assert res.solution == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_dense_matrix_matches_sparse(self):
        # CSR and CSC forms of one A give the same bits; the dense form
        # runs dense products, so it agrees to rounding
        rng = np.random.default_rng(8)
        A = sparse.random(20, 8, density=0.4, random_state=8, format="csr")
        for Y in (rng.standard_normal((20, 3)), rng.standard_normal(20)):
            csr, csc = least_squares(A, Y), least_squares(A.tocsc(), Y)
            assert csc.solution.tobytes() == csr.solution.tobytes()
            assert csc.residual.tobytes() == csr.residual.tobytes()
            dense = least_squares(A.toarray(), Y)
            assert dense.converged and csr.converged
            for field in ("solution", "residual"):
                expected = getattr(csr, field)
                assert (np.linalg.norm(getattr(dense, field) - expected)
                        <= 1e-13 * np.linalg.norm(expected))

    @pytest.mark.parametrize("A", [np.ones(3), np.ones((3, 2, 1)), np.float64(1.0)],
                             ids=["1-d", "3-d", "0-d"])
    def test_dense_matrix_not_2d_rejected_before_the_solve(self, A, monkeypatch):
        monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
        with pytest.raises(ValueError, match="dense A must be 2-D"):
            least_squares(A, np.ones(3))

    @pytest.mark.parametrize("case", sorted(LSTSQ_CASES))
    def test_residual_is_y_minus_a_x(self, case):
        A, Y = LSTSQ_CASES[case]()
        res = least_squares(A, Y)
        assert res.residual.shape == Y.shape
        assert res.residual.tobytes() == (Y - A @ res.solution).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A dense", "A sparse", "1-d Y", "2-d Y"])
    def test_non_finite_input_rejected_before_the_solve(self, bad, where, monkeypatch):
        monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
        monkeypatch.setattr(np.linalg, "eigh", unreached_solve)
        A = np.eye(3)
        Y = np.array([[1.0, 2.0], [0.5, 0.0], [0.5, 1.0]])
        if where.startswith("A"):
            A[1, 2] = bad
            A = A if where == "A dense" else sparse.csc_matrix(A)
        else:
            Y[1, -1] = bad
            Y = Y[:, -1] if where == "1-d Y" else Y
        with pytest.raises(ValueError, match="must be finite"):
            least_squares(A, Y)

    @pytest.mark.parametrize("Y", [np.array([1.0, -0.0, 0.0, -2.5]),
                                   np.array([[1.0, -0.0], [0.0, -0.0], [5e-324, -1e70]])],
                             ids=["1-d Y", "2-d Y"])
    def test_no_columns_returns_y_bit_for_bit(self, Y):
        for form in (sparse.csc_matrix, np.zeros):
            res = least_squares(form((Y.shape[0], 0)), Y)
            assert res.converged
            assert res.solution.shape == (0,) + Y.shape[1:]
            assert res.residual.shape == Y.shape
            assert res.residual.tobytes() == Y.tobytes()
            assert not np.shares_memory(res.residual, Y)

    def test_finite_zero_input_is_accepted(self):
        # the norms that test finiteness are 0 here, which is finite
        res = least_squares(sparse.csc_matrix((3, 2)), np.zeros(3))
        assert res.converged and not res.solution.any() and not res.residual.any()

    def test_converged_flag(self):
        rng = np.random.default_rng(4)
        A = sparse.csr_matrix(rng.standard_normal((50, 30)))
        assert least_squares(A, rng.standard_normal(50)).converged is True
        assert least_squares(sparse.diags([1.0, 1e-6]), np.ones(2)).converged is False

    def test_zero_rhs_is_free(self):
        A = sparse.csr_matrix(np.array([[1.0], [1.0], [-1.0]]))
        res = least_squares(A, np.zeros(3))
        assert res.solution == pytest.approx([0.0]) and res.iterations == 0

    def test_repeat_runs_bitwise_identical(self):
        rng = np.random.default_rng(9)
        A = sparse.random(30, 12, density=0.3, random_state=7, format="csr")
        Y = rng.standard_normal((30, 6))
        first = least_squares(A, Y)
        second = least_squares(A, Y)
        assert np.array_equal(first.solution, second.solution)
        assert first.iterations == second.iterations

    def test_batch_is_its_per_column_solves(self):
        B2 = random_complex(SynthConfig(30, 0.3, 8, 1, seed=5)).boundary_matrix(
            dtype=np.float64)
        Y = np.random.default_rng(5).standard_normal((B2.shape[0], 6))
        batch = least_squares(B2, Y)
        singles = [least_squares(B2, Y[:, j]) for j in range(6)]
        assert np.allclose(batch.solution, np.stack([r.solution for r in singles], axis=1),
                           rtol=0, atol=1e-12)

    def test_rhs_orthogonal_to_range_stops_at_the_floor(self):
        # curl flows are gradient-free only up to rounding: A^T y is float
        # dust far below any relative target, and the floor accepts it
        cpx = random_complex(SynthConfig(30, 0.3, 8, 1, seed=5))
        A = cpx.graph.incidence().T.astype(np.float64).tocsr()
        curl = cpx.boundary_matrix(dtype=np.float64) @ \
            np.random.default_rng(6).standard_normal((cpx.cell_count, 3))
        dust = np.linalg.norm(A.T @ curl, axis=0)
        assert ((0 < dust) & (dust < 1e-14)).all()
        assert least_squares(A, curl).converged

    @pytest.mark.parametrize("case", sorted(LSTSQ_CASES))
    def test_matches_dense_lstsq(self, case):
        A, Y = LSTSQ_CASES[case]()
        res = least_squares(A, Y)
        expected = np.linalg.lstsq(A.toarray(), Y, rcond=None)[0]
        assert res.converged and res.solution.shape == expected.shape
        assert np.linalg.norm(res.solution - expected) <= 1e-12 * max(np.linalg.norm(expected), 1)


class TestRemoveGradient:
    def test_pure_gradient_vanishes(self):
        out = remove_gradient(t3(), np.array([1.0, 0.0, 1.0]))
        assert np.allclose(out, 0.0, atol=1e-8)

    def test_cycle_flow_unchanged(self):
        F = np.array([1.0, 1.0, -1.0])
        assert np.allclose(remove_gradient(t3(), F), F, atol=1e-8)

    def test_linearity(self):
        out = remove_gradient(t3(), np.array([2.0, 1.0, 0.0]))
        assert np.allclose(out, [1.0, 1.0, -1.0], atol=1e-8)

    def test_result_orthogonal_to_gradients(self):
        rng = np.random.default_rng(0)
        g = k4()
        F = rng.standard_normal((6, 4))
        out = remove_gradient(g, F)
        B1 = g.incidence().toarray().astype(float)
        assert np.abs(B1 @ out).max() < 1e-7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_flows_rejected_before_the_solve(self, bad, monkeypatch):
        flows = np.ones((3, 2))
        flows[1, 0] = bad
        monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
        with pytest.raises(ValueError, match="finite"):
            remove_gradient(t3(), flows)
        # loss of the gradient-free flows, the public route that used to
        # return nan without an error
        with pytest.raises(ValueError, match="finite"):
            loss(CellComplex(t3()), remove_gradient(t3(), flows))


class TestHarmonicProjection:
    def test_no_cells_identity(self):
        F = np.array([1.0, 1.0, -1.0])
        cpx = CellComplex(t3())
        out = harmonic_projection(cpx, F)
        assert np.array_equal(out, F)
        out[0] = 7.0
        assert F[0] == 1.0

    def test_flow_in_curl_space_vanishes(self):
        g = t3()
        cpx = CellComplex(g, [validate_cycle(g, [0, 1, 2, 0])])
        out = harmonic_projection(cpx, np.array([1.0, 1.0, -1.0]))
        assert np.abs(out).max() < 1e-8

    def test_k4_rank_one_projection(self):
        # derived by hand: F - (b.F / |b|^2) b  with b.F = 1, |b|^2 = 3
        g = k4()
        b012 = validate_cycle(g, [0, 1, 2, 0])
        F = validate_cycle(g, [0, 1, 3, 0]).dense()
        out = harmonic_projection(CellComplex(g, [b012]), F)
        expected = [2 / 3, 1 / 3, -1.0, -1 / 3, 1.0, 0.0]
        assert out == pytest.approx(expected, abs=1e-8)

    def test_non_finite_flows_rejected(self, monkeypatch):
        g = t3()
        cpx = CellComplex(g, [validate_cycle(g, [0, 1, 2, 0])])
        flows = np.array([1.0, np.nan, 0.5])
        monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
        with pytest.raises(ValueError, match="finite"):
            harmonic_projection(cpx, flows)
        with pytest.raises(ValueError, match="finite"):
            loss(cpx, flows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_flows_rejected_without_cells(self, bad, monkeypatch):
        # the solve against the boundary matrix with no column checks them
        monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
        cpx = CellComplex(t3())
        flows = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            harmonic_projection(cpx, flows)
        with pytest.raises(ValueError, match="finite"):
            loss(cpx, flows)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        cpx = random_complex(SynthConfig(10, 0.6, 3, 1, seed=3))
        F = remove_gradient(cpx.graph, rng.standard_normal((cpx.graph.edge_count, 3)))
        once = harmonic_projection(cpx, F)
        twice = harmonic_projection(cpx, once)
        assert np.allclose(once, twice, atol=1e-7)


def _t3_with_cell():
    g = t3()
    return CellComplex(g, [validate_cycle(g, [0, 1, 2, 0])])


# name -> call of a public solve or projection on t3 (3 edges) and flows Y
SOLVES_ON_T3 = {
    "least_squares": lambda Y: least_squares(t3().incidence().T, Y),
    "remove_gradient": lambda Y: remove_gradient(t3(), Y),
    "hodge_decompose": lambda Y: hodge_decompose(t3(), _t3_with_cell(), Y),
    "harmonic_projection with a cell": lambda Y: harmonic_projection(_t3_with_cell(), Y),
    "harmonic_projection without cells": lambda Y: harmonic_projection(CellComplex(t3()), Y),
    "loss with a cell": lambda Y: loss(_t3_with_cell(), Y),
    "loss without cells": lambda Y: loss(CellComplex(t3()), Y),
}


@pytest.mark.parametrize("rows", [2, 4])
@pytest.mark.parametrize("name", sorted(SOLVES_ON_T3))
def test_wrong_row_count_rejected_before_the_solve(name, rows, monkeypatch):
    monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
    with pytest.raises(ValueError, match=f"3 rows but Y has {rows}"):
        SOLVES_ON_T3[name](np.ones((rows, 2)))


@pytest.mark.parametrize("name", ["least_squares", "remove_gradient",
                                  "harmonic_projection with a cell", "loss with a cell"])
def test_scalar_flows_rejected_before_the_solve(name, monkeypatch):
    monkeypatch.setattr(hodge, "_gram_solve", unreached_solve)
    with pytest.raises(ValueError, match="not be a scalar"):
        SOLVES_ON_T3[name](3.0)


def old_projection(A, flows):
    """A projection's remainder as it was formed before ``least_squares``
    returned its residual: a second product with the CSR matrix, subtracted
    from the flows."""
    A = sparse.csr_matrix(A, dtype=np.float64)
    return flows - A @ least_squares(A, flows).solution


@pytest.mark.parametrize("seed", range(4))
def test_projections_equal_the_old_formula_bit_for_bit(seed):
    cpx = random_complex(SynthConfig(25, 0.4, 6, 1, seed=seed))
    rng = np.random.default_rng(seed)
    m = cpx.graph.edge_count
    incidence_t = cpx.graph.incidence().T
    boundary = cpx.boundary_matrix(dtype=np.float64)
    # zero flows check the sign of exact zeros, which a negated A x - y
    # would flip
    for flows in (rng.standard_normal((m, 5)), rng.standard_normal(m), np.zeros((m, 2))):
        gradient_free = remove_gradient(cpx.graph, flows)
        assert gradient_free.tobytes() == old_projection(incidence_t, flows).tobytes()
        harmonic = harmonic_projection(cpx, gradient_free)
        assert harmonic.tobytes() == old_projection(boundary, gradient_free).tobytes()


class TestLoss:
    def test_no_cells_sqrt_three(self):
        assert loss(CellComplex(t3()), np.array([1.0, 1.0, -1.0])) == pytest.approx(
            np.sqrt(3.0), abs=1e-9)

    def test_with_cell_zero(self):
        g = t3()
        cpx = CellComplex(g, [validate_cycle(g, [0, 1, 2, 0])])
        assert loss(cpx, np.array([1.0, 1.0, -1.0])) <= 1e-8

    def test_frobenius_additivity(self):
        f = np.array([1.0, 1.0, -1.0])
        cpx = CellComplex(t3())
        single = loss(cpx, f)
        double = loss(cpx, np.stack([f, f], axis=1))
        assert double == pytest.approx(np.sqrt(2.0) * single, rel=1e-9)

    def test_monotone_under_extra_cells(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            cpx = random_complex(SynthConfig(12, 0.6, 5, 1, seed=seed))
            F = remove_gradient(cpx.graph, rng.standard_normal((cpx.graph.edge_count, 3)))
            sub = CellComplex(cpx.graph, cpx.cells[:2])
            assert loss(cpx, F) <= loss(sub, F) + 1e-8


class TestDecomposition:
    def test_recompose_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            cpx = random_complex(SynthConfig(14, 0.5, 4, 1, seed=100 + seed))
            m = cpx.graph.edge_count
            F = rng.standard_normal((m, 3))
            grad, curl, harm = hodge_decompose(cpx.graph, cpx, F)
            total = np.linalg.norm(F)
            assert np.linalg.norm(grad + curl + harm - F) <= 1e-6 * total
            for a, b in ((grad, curl), (grad, harm), (curl, harm)):
                assert abs(np.sum(a * b)) <= 1e-6 * total**2


class TestApproxHarmonicUpdate:
    def test_exact_factorization_chosen_cell_zeroes(self):
        g = t3()
        b = validate_cycle(g, [0, 1, 2, 0])
        bd = b.dense()[:, None]
        c = np.array([[2.5]])
        H = bd @ c
        fact = Factorization(bd, c, "svd", 1)
        out = approx_harmonic_update(H, [b], fact)
        assert np.abs(out.flows).max() < 1e-12
        assert not out.degenerate_span

    def test_orthogonal_chosen_leaves_unchanged(self):
        g = OrientedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        b_left = validate_cycle(g, [0, 1, 2, 0])
        b_right = validate_cycle(g, [3, 4, 5, 3])
        H = b_right.dense()[:, None] * 2.0
        fact = Factorization(b_right.dense()[:, None], np.array([[2.0]]), "svd", 1)
        out = approx_harmonic_update(H, [b_left], fact)
        assert np.allclose(out.flows, H, atol=1e-12)

    def test_k4_two_cycle_oracle(self):
        # derived oracle: dense projector onto span{b012}
        g = k4()
        b012 = validate_cycle(g, [0, 1, 2, 0])
        b123 = validate_cycle(g, [1, 2, 3, 1])
        B = np.stack([b012.dense(), b123.dense()], axis=1)
        C = np.array([[1.0], [1.0]])
        H = B @ C
        fact = Factorization(B, C, "svd", 2)
        out = approx_harmonic_update(H, [b012], fact)
        P = dense_projector([b012.dense()])
        expected = H - P @ (B @ C)
        assert np.allclose(out.flows, expected, atol=1e-12)
        # frozen values: b123 - (1/3) b012 since b012 . (b012+b123) = 4
        assert out.flows[:, 0] == pytest.approx([-1 / 3, 1 / 3, 0.0, 2 / 3, -1.0, 1.0], abs=1e-12)

    def test_degenerate_span_flagged(self):
        g = t3()
        b = validate_cycle(g, [0, 1, 2, 0])
        H = b.dense()[:, None]
        fact = Factorization(H.copy(), np.array([[1.0]]), "svd", 1)
        out = approx_harmonic_update(H, [b, -b], fact)
        assert out.degenerate_span
        assert np.abs(out.flows).max() < 1e-12

    @staticmethod
    def _assert_matches_lstsq(h_prev, chosen, fact):
        # The update through np.linalg.lstsq on the edges-by-chosen matrix
        # and the whole product B @ C, with lstsq's own rank for the flag.
        bhat = np.stack([c.dense() for c in chosen], axis=1)
        coeff, _, rank, _ = np.linalg.lstsq(bhat, fact.B @ fact.C, rcond=None)
        projected = bhat @ coeff
        out = approx_harmonic_update(h_prev, chosen, fact)
        assert np.linalg.norm((h_prev - out.flows) - projected) <= \
            1e-12 * np.linalg.norm(projected)
        assert out.degenerate_span == (rank < bhat.shape[1])
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lstsq_on_random_chosen_sets(self, seed):
        # Eight random tree cells; on odd seeds the last repeats the first,
        # so the span is degenerate there.
        rng = np.random.default_rng(seed)
        graph = random_complex(SynthConfig(16, 0.5, 1, 1, seed=200 + seed)).graph
        chosen = [random_tree_cell(graph, rng) for _ in range(8)]
        if seed % 2:
            chosen[-1] = chosen[0]
        m, s = graph.edge_count, 12
        fact = Factorization(rng.standard_normal((m, 8)), rng.standard_normal((8, s)), "ica", 8)
        out = self._assert_matches_lstsq(rng.standard_normal((m, s)), chosen, fact)
        assert out.degenerate_span == bool(seed % 2)

    def test_matches_lstsq_on_dependent_sets(self):
        rng = np.random.default_rng(34)
        b = validate_cycle(t3(), [0, 1, 2, 0])
        fact = Factorization(rng.standard_normal((3, 2)), rng.standard_normal((2, 5)), "ica", 2)
        assert self._assert_matches_lstsq(rng.standard_normal((3, 5)), [b, -b],
                                          fact).degenerate_span
        cycles = ([0, 1, 2, 0], [0, 1, 3, 0], [0, 2, 3, 0], [1, 2, 3, 1])
        triangles = [validate_cycle(k4(), cycle) for cycle in cycles]
        fact = Factorization(rng.standard_normal((6, 3)), rng.standard_normal((3, 5)), "ica", 3)
        assert self._assert_matches_lstsq(rng.standard_normal((6, 5)), triangles,
                                          fact).degenerate_span

    def test_matches_exact_update_when_span_covers_product(self):
        # oracle check on small constructed cases: if the factorization
        # product lies in the span of the chosen cells plus a residual that
        # is orthogonal to it, approximate == exact update.
        rng = np.random.default_rng(33)
        cpx = random_complex(SynthConfig(8, 0.8, 2, 1, seed=8))
        g = cpx.graph
        cells = list(cpx.cells)
        B = np.stack([c.dense() for c in cells], axis=1)
        C = rng.standard_normal((2, 4))
        H = B @ C
        fact = Factorization(B, C, "svd", 2)
        approx = approx_harmonic_update(H, cells, fact).flows
        exact = harmonic_projection(CellComplex(g, cells), H)
        assert np.allclose(approx, exact, atol=1e-7)


def k4_square_and_triangles():
    """K4's triangles 0-1-2 and 0-2-3 and the square 0-1-2-3 they sum to."""
    g = k4()
    tri1 = validate_cycle(g, [0, 1, 2, 0])
    tri2 = validate_cycle(g, [0, 2, 3, 0])
    square = validate_cycle(g, [0, 1, 2, 3, 0])
    assert np.array_equal(square.dense(), tri1.dense() + tri2.dense())
    return g, tri1, tri2, square


def assert_scores_match_reprojection(complex_, flows0, candidates, picks=()):
    """Every score, and the flows after adding ``picks`` together, equal a
    full re-projection of the grown complex, and the basis after the picks
    spans the grown complex's curl space."""
    h = harmonic_projection(complex_, flows0)
    basis = curl_basis(complex_)
    scores = rank_one_scores(basis, h, candidates)
    assert np.isfinite(scores.losses).all() and np.isfinite(scores.weights).all()
    for cell, score in zip(candidates, scores.losses):
        expected = loss(add_cells(complex_, [cell])[0], flows0)
        assert score == pytest.approx(expected, rel=1e-8)
    if picks:
        grown = add_cells(complex_, [candidates[i] for i in picks])[0]
        error = np.linalg.norm(scores.harmonic_after(picks) - harmonic_projection(grown, flows0))
        assert error <= 1e-8 * np.linalg.norm(flows0)
        assert_same_projector(scores.basis_after(basis, picks), curl_basis(grown))
    return scores


def assert_same_projector(Q, expected):
    assert Q.shape == expected.shape
    assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-12
    assert np.linalg.norm(Q @ Q.T - expected @ expected.T) <= 1e-12


class TestCurlBasis:
    def test_cells_in_the_span_of_earlier_ones_add_no_column(self):
        g, tri1, tri2, square = k4_square_and_triangles()
        cpx = CellComplex(g, [square, tri1, tri2])
        Q = curl_basis(cpx)
        assert Q.shape == (6, 2)
        assert np.linalg.norm(Q.T @ Q - np.eye(2)) <= 1e-12
        F = remove_gradient(g, np.random.default_rng(8).standard_normal((6, 4)))
        assert np.allclose(F - Q @ (Q.T @ F), harmonic_projection(cpx, F), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_basis_after_chain_matches_curl_basis(self, batch):
        planted = random_complex(SynthConfig(16, 0.6, 9, 1, seed=14))
        h = remove_gradient(planted.graph, np.random.default_rng(7).standard_normal(
            (planted.graph.edge_count, 4)))
        cells = list(planted.cells)
        basis = curl_basis(CellComplex(planted.graph))
        for start in range(0, len(cells), batch):
            batch_cells = cells[start:start + batch]
            scores = rank_one_scores(basis, h, batch_cells)
            picks = list(range(len(batch_cells)))
            basis, h = scores.basis_after(basis, picks), scores.harmonic_after(picks)
        assert_same_projector(basis, curl_basis(planted))


def reference_best(losses, unchanged, count):
    """The pick rule of ``RankOneScores.best`` run over every exact loss, as
    it was before the closed-form screen: the reference the screened rule
    must match."""
    band = 1e-9 * unchanged
    remaining = list(range(len(losses)))
    picked = []
    while remaining and len(picked) < count:
        floor = min(losses[i] for i in remaining)
        pick = next(i for i in remaining if losses[i] <= floor + band)
        remaining.remove(pick)
        picked.append(pick)
    return picked


def planted_prefix_case(s, candidates=lambda rest, before: rest, flows=None):
    planted = random_complex(SynthConfig(16, 0.6, 9, 1, seed=14))
    before = CellComplex(planted.graph, planted.cells[:3])
    rest = list(planted.cells[3:])
    rng = np.random.default_rng(7)
    F = rng.standard_normal((planted.graph.edge_count, s)) if flows is None else flows(rest, rng)
    h = harmonic_projection(before, remove_gradient(planted.graph, F))
    return curl_basis(before), h, candidates(rest, before)


def two_triangles_within(delta):
    """Two edge-disjoint triangles and flows along both, the second's
    ``1 + delta`` times as strong: adding the second leaves a loss lower by
    about delta / sqrt(2) ||h||."""
    g = OrientedGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    left, right = validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [3, 4, 5, 3])
    c = np.random.default_rng(11).standard_normal(4)
    h = np.outer(left.dense(), c) + np.outer(right.dense(), (1 + delta) * c)
    return curl_basis(CellComplex(g)), h, [left, right]


def k4_near_exact_tie():
    """Flows along tri2 plus 1e-9 noise with tri1 in the complex: tri2 and
    the square tri1 + tri2 both fit them to the noise."""
    g, tri1, tri2, square = k4_square_and_triangles()
    cpx = CellComplex(g, [tri1])
    rng = np.random.default_rng(12)
    F = np.outer(tri2.dense(), rng.standard_normal(3)) + 1e-9 * rng.standard_normal((6, 3))
    h = harmonic_projection(cpx, remove_gradient(g, F))
    return curl_basis(cpx), h, [tri2, square, validate_cycle(g, [0, 1, 3, 0])]


def cancelling_near_exact_fits():
    """Two directions a and a + kappa w (w orthogonal to a) that both fit h
    to about 1e-9 ||h||, the second more closely, and by more than the tie
    band: exact losses 3.4e-9 and 1.5e-9 ||h||.  Both closed forms cancel,
    to 0 and 1.6e-8 ||h||, so a screen by the band alone keeps only the
    first and picks it; the rule over the exact losses picks the second."""
    rng = np.random.default_rng(18)
    a, w = rng.standard_normal(12), rng.standard_normal(12)
    c, f = rng.standard_normal(3), rng.standard_normal(3)
    w -= a * (a @ w) / (a @ a)
    f -= c * (c @ f) / (c @ c)
    w, f = w / np.linalg.norm(w), f / np.linalg.norm(f)
    scale = np.linalg.norm(a) * np.linalg.norm(c)
    kappa = 3e-9 * np.linalg.norm(a)
    h = np.outer(a + kappa * w, c) + 1.5e-9 * scale * np.outer(w, f)
    directions = np.stack([a, a + kappa * w], axis=1)
    return hodge.RankOneScores(h, *hodge._guarded_directions(directions, directions, h))


# case -> RankOneScores, for the screened-best reference test
SCREEN_CASES = {
    "planted prefix, s=1": lambda: rank_one_scores(*planted_prefix_case(1)),
    "planted prefix, s=5": lambda: rank_one_scores(*planted_prefix_case(5)),
    "near-exact fit": lambda: rank_one_scores(*planted_prefix_case(
        4, flows=lambda rest, rng: (np.outer(rest[0].dense(), rng.standard_normal(4))
                                    + 1e-9 * rng.standard_normal((len(rest[0].dense()), 4))))),
    "near-exact fit, k4 tie": lambda: rank_one_scores(*k4_near_exact_tie()),
    "cancelling near-exact fits": cancelling_near_exact_fits,
    "within the band": lambda: rank_one_scores(*two_triangles_within(7e-10)),
    "outside the band": lambda: rank_one_scores(*two_triangles_within(3e-9)),
    "in the curl span": lambda: rank_one_scores(*planted_prefix_case(
        3, candidates=lambda rest, before: rest + [-before.cells[0], before.cells[2]])),
    "duplicated": lambda: rank_one_scores(*planted_prefix_case(
        3, candidates=lambda rest, before: rest[:3] + [rest[1], -rest[1]] + rest[3:])),
}


def forbidden_solve(*args, **kwargs):
    raise AssertionError("scoring ran a least-squares solve")


class TestRankOneScores:
    def test_empty_complex_runs_no_solve(self, monkeypatch):
        g, tri1, _, square = k4_square_and_triangles()
        basis = curl_basis(CellComplex(g))
        assert basis.shape == (6, 0)
        monkeypatch.setattr(hodge, "least_squares", forbidden_solve)
        scores = rank_one_scores(basis, tri1.dense(), [tri1, square])
        assert scores.losses[0] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(scores.directions[:, 1], square.dense())

    def test_scoring_runs_no_solve(self, monkeypatch):
        g, tri1, tri2, square = k4_square_and_triangles()
        F = np.random.default_rng(3).standard_normal((6, 4))
        cpx = CellComplex(g, [tri1])
        h, basis = harmonic_projection(cpx, F), curl_basis(cpx)
        monkeypatch.setattr(hodge, "least_squares", forbidden_solve)
        scores = rank_one_scores(basis, h, [tri2, square])
        assert scores.basis_after(basis, [0, 1]).shape == (6, 2)

    def test_candidate_in_curl_span_scores_unchanged_loss(self):
        # the square is tri1 + tri2, both already in the complex
        g, tri1, tri2, square = k4_square_and_triangles()
        cpx = CellComplex(g, [tri1, tri2])
        F = remove_gradient(g, np.random.default_rng(5).standard_normal((6, 3)))
        scores = assert_scores_match_reprojection(cpx, F, [square, -tri1])
        unchanged = loss(cpx, F)
        assert scores.losses == pytest.approx([unchanged, unchanged], rel=1e-12)
        assert not scores.weights.any()

    def test_harmonic_after_is_the_winners_projection(self):
        g, tri1, tri2, square = k4_square_and_triangles()
        cpx = CellComplex(g, [tri1])
        F = remove_gradient(g, np.random.default_rng(6).standard_normal((6, 3)))
        scores = rank_one_scores(curl_basis(cpx), harmonic_projection(cpx, F), [tri2, square])
        after = scores.harmonic_after([1])
        assert np.allclose(after, harmonic_projection(CellComplex(g, [tri1, square]), F),
                           atol=1e-10)
        assert np.linalg.norm(after) == pytest.approx(scores.losses[1], rel=1e-12)
        # with tri1 in the complex, the square's b_h equals tri2's: adding
        # both is adding one direction
        both = scores.harmonic_after([0, 1])
        assert np.allclose(both, after, atol=1e-10)

    @staticmethod
    def planted_prefix_and_rest(s):
        planted = random_complex(SynthConfig(16, 0.6, 9, 1, seed=14))
        before = CellComplex(planted.graph, planted.cells[:3])
        F = remove_gradient(planted.graph, np.random.default_rng(7).standard_normal(
            (planted.graph.edge_count, s)))
        return before, harmonic_projection(before, F), list(planted.cells[3:])

    @pytest.mark.parametrize("s, extremes", [(1, False), (5, False), (1, True), (5, True)],
                             ids=["1", "5", "1-zeros and extremes", "5-zeros and extremes"])
    def test_losses_equal_the_outer_formula(self, s, extremes, with_extremes):
        # Losses through the reused buffer are == one np.outer per candidate,
        # also where products are zeros of either sign, underflow or are huge.
        before, h, candidates = self.planted_prefix_and_rest(s)
        scores = rank_one_scores(curl_basis(before), h, candidates)
        h2 = h.reshape(h.shape[0], -1)
        if extremes:
            h2 = with_extremes(h2)
            scores = RankOneScores(h2, with_extremes(scores.directions),
                                   with_extremes(scores.weights))
        expected = [np.linalg.norm(h2 - np.outer(scores.directions[:, i], scores.weights[i]))
                    for i in range(len(candidates))]
        assert scores.losses.tolist() == expected

    def test_empty_candidates_rejected(self):
        before, h, _ = self.planted_prefix_and_rest(2)
        with pytest.raises(ValueError, match="candidates must be nonempty"):
            rank_one_scores(curl_basis(before), h, [])

    @pytest.mark.parametrize("count", [0, -1])
    def test_best_below_one_is_empty(self, count, exact_losses_counted):
        before, h, candidates = self.planted_prefix_and_rest(2)
        scores = rank_one_scores(curl_basis(before), h, candidates)
        assert scores.best(count) == [] and exact_losses_counted == [0]

    def test_best_computes_exact_losses_only_for_survivors(self, exact_losses_counted):
        before, h, candidates = self.planted_prefix_and_rest(5)
        scores = rank_one_scores(curl_basis(before), h, candidates)
        picks = scores.best(1)
        assert 1 <= exact_losses_counted[0] < len(candidates)
        assert picks == reference_best(scores.losses, scores.unchanged, 1)

    @pytest.mark.parametrize("case", sorted(SCREEN_CASES))
    def test_screened_best_equals_the_rule_over_every_loss(self, case):
        scores = SCREEN_CASES[case]()
        for count in range(scores.directions.shape[1] + 2):
            assert scores.best(count) == reference_best(scores.losses, scores.unchanged, count)

    def test_screen_cases_are_what_they_claim(self):
        def closed(scores):
            d, w = scores.directions, scores.weights
            fitted = np.einsum("ij,ij->j", d, d) * np.einsum("ij,ij->i", w, w)
            return np.sqrt(np.maximum(scores.unchanged**2 - fitted, 0))

        # near-exact fits: a closed form cancels to below the loop's loss by
        # more than the tie band
        scores = SCREEN_CASES["near-exact fit"]()
        assert scores.losses[0] - closed(scores)[0] > 1e-9 * scores.unchanged
        scores = SCREEN_CASES["cancelling near-exact fits"]()
        assert closed(scores)[1] - closed(scores)[0] > 1e-9 * scores.unchanged
        assert scores.losses[0] - scores.losses[1] > 1e-9 * scores.unchanged
        assert scores.best(1) == [1]
        assert SCREEN_CASES["near-exact fit, k4 tie"]().best(1) == [0]
        # a gap inside the band ties and goes to the earlier candidate; one
        # outside it picks the lower loss
        for case, pick in (("within the band", 0), ("outside the band", 1)):
            scores = SCREEN_CASES[case]()
            gap = (scores.losses[0] - scores.losses[1]) / scores.unchanged
            assert 0 < gap and (gap < 1e-9) == (pick == 0)
            assert scores.best(1) == [pick]
        scores = SCREEN_CASES["in the curl span"]()
        assert (scores.losses[-2:] == scores.unchanged).all()


@st.composite
def complexes_flows_and_candidates(draw):
    """A random small complex (a prefix of a planted one), gradient-free
    flows, candidates and 1-3 picks among them.  The candidates are the rest
    of the planted cells, random tree cells, the first candidate with its
    sign flipped (so picking both is a linearly dependent pick), and a
    sign-flipped cell of the complex when it has one (which lies in the
    curl span)."""
    seed = draw(st.integers(0, 10**6))
    planted = draw(st.integers(1, 4))
    full = random_complex(SynthConfig(draw(st.integers(5, 9)), 0.7, planted, 1, seed=seed))
    graph = full.graph
    kept = draw(st.integers(0, planted))
    complex_ = CellComplex(graph, full.cells[:kept])
    assume(graph.edge_count - graph.node_count + 1 >= kept + 2)
    rng = np.random.default_rng(seed)
    candidates = list(full.cells[kept:]) + [random_tree_cell(graph, rng) for _ in range(3)]
    candidates.append(-candidates[0])
    if kept:
        candidates.append(-complex_.cells[0])
    picks = draw(st.lists(st.integers(0, len(candidates) - 1), min_size=1, max_size=3,
                          unique=True))
    flows = rng.standard_normal((graph.edge_count, draw(st.integers(1, 4))))
    return complex_, remove_gradient(graph, flows), candidates, picks


@settings(derandomize=True, max_examples=60, deadline=None)
@given(complexes_flows_and_candidates())
def test_rank_one_scores_match_full_reprojection(case):
    assert_scores_match_reprojection(*case)


@st.composite
def graphs_complexes_and_flows(draw):
    """A random small graph on two node blocks, joined by one edge or not
    (so often disconnected), where each pair within a block is an edge of
    either orientation or no edge; up to three random tree cells when it
    has a cycle, and random raw flows."""
    sizes = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    pairs = [(i, j) for start, size in ((0, sizes[0]), (sizes[0], sizes[1]))
             for i in range(start, start + size) for j in range(i + 1, start + size)]
    kinds = draw(st.lists(st.sampled_from("-+."), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) if kind == "+" else (v, u)
             for (u, v), kind in zip(pairs, kinds) if kind != "."]
    if sizes[1] and draw(st.booleans()):
        edges.append((0, sizes[0]))
    assume(edges)
    graph = OrientedGraph(sum(sizes), edges)
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    complex_ = CellComplex(graph)
    if next(kruskal(graph, range(graph.edge_count), set()), None) is not None:
        cells = [random_tree_cell(graph, rng) for _ in range(draw(st.integers(0, 3)))]
        complex_ = add_cells(complex_, cells)[0]
    flows = rng.standard_normal((graph.edge_count, draw(st.integers(1, 3))))
    return graph, complex_, flows


@settings(derandomize=True, max_examples=100, deadline=None)
@given(graphs_complexes_and_flows())
def test_hodge_decompose_parts_sum_and_are_orthogonal(case):
    graph, complex_, flows = case
    grad, curl, harm = parts = hodge_decompose(graph, complex_, flows)
    total = np.linalg.norm(flows)
    assert np.linalg.norm(sum(parts) - flows) <= 1e-12 * total
    for a, b in itertools.combinations(parts, 2):
        assert abs(np.sum(a * b)) <= 1e-6 * total**2
    # and each part lies in its own space: curl and harmonic flows are
    # divergence-free, harmonic flows also curl-free
    assert np.linalg.norm(graph.incidence() @ (curl + harm)) <= 1e-6 * total
    assert np.linalg.norm(complex_.boundary_matrix().T @ harm) <= 1e-6 * total
