import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cellflow import factorize, hodge, mfci
from cellflow.baselines import SphConfig, infer_random, infer_sph
from cellflow.complexes import (
    CellComplex,
    Forest,
    OrientedGraph,
    kruskal,
    tree_cycle,
    validate_cycle,
)
from cellflow.hodge import (
    curl_basis,
    harmonic_projection,
    rank_one_scores,
    remove_gradient,
)
from cellflow.mfci import (
    GraphIsForest,
    InferenceConfig,
    WalkFailed,
    candidate_search,
    discretize_deterministic,
    discretize_random_walk,
    evaluate_and_select,
    infer_mfci,
)
from cellflow.synth import SynthConfig, random_complex, sample_flows


def t3():
    return OrientedGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    return OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def two_triangles_with_bridge():
    """Two node-disjoint triangles joined by one bridge edge."""
    return OrientedGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])


def all_simple_cycles(graph):
    """Oracle: enumerate every simple cycle via networkx."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(graph.node_count))
    G.add_edges_from(graph.edges)
    for nodes in nx.simple_cycles(G):
        yield validate_cycle(graph, list(nodes) + [nodes[0]])


class TestInferenceConfig:
    def test_defaults_resolve(self):
        cfg = InferenceConfig(total_cells=4, candidates_per_iteration=8, added_per_iteration=1)
        assert cfg.evaluate_candidates is True
        assert cfg.rank == 8

    def test_no_evaluation_only_when_all_added(self):
        cfg = InferenceConfig(total_cells=8, candidates_per_iteration=8, added_per_iteration=8)
        assert cfg.evaluate_candidates is False

    def test_added_bounded_by_candidates(self):
        with pytest.raises(ValueError):
            InferenceConfig(total_cells=8, candidates_per_iteration=2, added_per_iteration=3)

    def test_rank_at_least_candidates(self):
        with pytest.raises(ValueError, match="rank"):
            InferenceConfig(total_cells=4, candidates_per_iteration=4,
                            added_per_iteration=1, factorization_rank=2)


class TestDiscretizeDeterministic:
    def test_k4_ordering_rule(self):
        b = np.array([0.9, -0.5, 0.1, 0.8, 0.05, 0.02])
        cell = discretize_deterministic(k4(), b)
        assert cell.dense().tolist() == [1, -1, 0, 1, 0, 0]

    def test_t3_all_ties(self):
        cell = discretize_deterministic(t3(), np.array([1.0, 1.0, -1.0]))
        assert cell.dense().tolist() == [1, 1, -1]

    def test_recovers_every_planted_k4_cycle(self):
        # derived: the 7 simple cycles of K4 as exact boundary inputs
        g = k4()
        cycles = list(all_simple_cycles(g))
        assert len(cycles) == 7
        for planted in cycles:
            out = discretize_deterministic(g, planted.dense())
            assert out == planted or out == -planted
            # sign alignment pins the exact orientation
            assert out == planted

    def test_forest_raises(self):
        g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphIsForest):
            discretize_deterministic(g, np.array([1.0, 0.5, 0.2]))

    def test_pure_function(self):
        g = k4()
        b = np.array([0.3, -0.9, 0.4, 0.2, 0.8, -0.1])
        first = discretize_deterministic(g, b)
        assert all(discretize_deterministic(g, b) == first for _ in range(5))


@st.composite
def cyclic_graphs_and_weights(draw):
    """A connected graph with at least one cycle, in shuffled edge order and
    orientation, plus edge weights that include ties and zeros."""
    n = draw(st.integers(3, 8))
    tree = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    edges = draw(st.permutations(sorted(tree) + extra))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    weight = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
    b = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return OrientedGraph(n, edges), np.array(b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cyclic_graphs_and_weights())
def test_discretize_deterministic_closes_first_non_tree_edge(case):
    # The forest grown up to the first cycle is part of the max spanning
    # tree, so the first non-tree edge in |b| order closes the same cycle.
    g, b = case
    order = np.lexsort((np.arange(g.edge_count), -np.abs(b)))
    tree = Forest(g)
    for _ in kruskal(g, order, tree):  # drained: the whole max spanning tree
        pass
    closing = next(int(e) for e in order if int(e) not in tree)
    expected = tree_cycle(g, tree, closing)
    cell = discretize_deterministic(g, b)
    assert cell == expected or cell == -expected
    heaviest = int(cell.edges[np.argmax(np.abs(b[cell.edges]))])
    if b[heaviest] != 0:
        assert cell.sign_of(heaviest) == np.sign(b[heaviest])


class TestDiscretizeRandomWalk:
    def test_t3_only_cycle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cell = discretize_random_walk(t3(), np.array([1.0, 1.0, -1.0]), rng)
            assert cell.dense().tolist() == [1, 1, -1]

    def test_k4_supported_triangle_forced(self):
        # derived: the walk cannot leave the support while support edges
        # remain, so the supported triangle comes back with probability 1
        g = k4()
        b = np.zeros(6)
        b[[0, 3, 1]] = 1.0
        rng = np.random.default_rng(1)
        for _ in range(25):
            cell = discretize_random_walk(g, b, rng)
            assert set(cell.edges.tolist()) == {0, 1, 3}

    def test_tree_walk_fails(self):
        g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(WalkFailed):
            discretize_random_walk(g, np.array([1.0, 0.5, 0.2]), np.random.default_rng(0))


class TestCandidateSearch:
    def test_t3_svd_single_candidate(self):
        g = t3()
        cfg = InferenceConfig(total_cells=1, candidates_per_iteration=1)
        H = np.array([[1.0], [1.0], [-1.0]])
        candidates, fact = candidate_search(CellComplex(g), H, cfg, np.random.default_rng(0))
        assert len(candidates) == 1
        assert candidates[0].dense().tolist() == [1, 1, -1]
        assert fact.method == "svd" and fact.rank == 1

    def test_disjoint_triangles_both_found(self):
        # derived oracle: the planted cells themselves
        g = two_triangles_with_bridge()
        left = validate_cycle(g, [0, 1, 2, 0])
        right = validate_cycle(g, [3, 4, 5, 3])
        rng = np.random.default_rng(17)
        c = rng.standard_normal((2, 8))
        H = np.outer(left.dense(), c[0]) + np.outer(right.dense(), c[1])
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=2, added_per_iteration=1)
        candidates, _ = candidate_search(CellComplex(g), H, cfg, np.random.default_rng(0))
        keys = {cell.canonical() for cell in candidates}
        assert keys == {left.canonical(), right.canonical()}

    def test_duplicates_collapse(self):
        # 3 candidate columns on a graph with a single simple cycle
        g = t3()
        rng = np.random.default_rng(2)
        H = np.outer([1.0, 1.0, -1.0], rng.standard_normal(3))
        cfg = InferenceConfig(total_cells=1, candidates_per_iteration=3, added_per_iteration=1)
        candidates, _ = candidate_search(CellComplex(g), H, cfg, np.random.default_rng(0))
        assert len(candidates) == 1

    def test_ica_scores_columns_once(self, monkeypatch):
        # fast_ica returns its columns in ascending score order, so the
        # search takes the leading l columns without scoring them again
        calls = {"column_scores": 0, "fast_ica": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(factorize, "column_scores")
        counting(mfci, "column_scores")
        counting(mfci, "fast_ica")
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=37))
        flows = sample_flows(cpx, 8, 1.0, 0.2, np.random.default_rng(9))
        cfg = InferenceConfig(total_cells=6, candidates_per_iteration=2, added_per_iteration=2,
                              method="ica", projection="approximate")
        _, trace = infer_mfci(cpx.graph, flows, cfg)
        assert calls["fast_ica"] >= len(trace.records) - 1 >= 2
        assert calls["column_scores"] == calls["fast_ica"]

    def test_existing_cells_not_reproposed(self):
        g = t3()
        triangle = validate_cycle(g, [0, 1, 2, 0])
        cpx = CellComplex(g, [triangle])
        H = np.array([[1.0], [1.0], [-1.0]])
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=1)
        candidates, _ = candidate_search(cpx, H, cfg, np.random.default_rng(0))
        assert candidates == []


class TestEvaluateAndSelect:
    def test_t3_triangle_wins(self):
        g = t3()
        triangle = validate_cycle(g, [0, 1, 2, 0])
        cfg = InferenceConfig(total_cells=1, candidates_per_iteration=2, added_per_iteration=1)
        chosen, after, basis = evaluate_and_select(curl_basis(CellComplex(g)),
                                                   np.array([1.0, 1.0, -1.0]), [triangle], 1,
                                                   cfg.evaluate_candidates)
        assert chosen == [triangle]
        assert after == pytest.approx(np.zeros(3), abs=1e-12)
        Q = curl_basis(CellComplex(g, [triangle]))
        assert np.allclose(basis @ basis.T, Q @ Q.T, atol=1e-12)

    def test_k4_brute_force_agreement(self):
        # derived: evaluate all four K4 triangles by the dense oracle
        g = k4()
        F = validate_cycle(g, [0, 1, 2, 0]).dense()[:, None]
        triangles = [validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [0, 1, 3, 0]),
                     validate_cycle(g, [0, 2, 3, 0]), validate_cycle(g, [1, 2, 3, 1])]
        oracle_losses = []
        for cell in triangles:
            b = cell.dense()[:, None]
            P = b @ np.linalg.pinv(b)
            oracle_losses.append(np.linalg.norm(F - P @ F))
        assert int(np.argmin(oracle_losses)) == 0 and min(oracle_losses) < 1e-12
        cfg = InferenceConfig(total_cells=1, candidates_per_iteration=4, added_per_iteration=1)
        chosen, _, _ = evaluate_and_select(curl_basis(CellComplex(g)), F, triangles, 1,
                                         cfg.evaluate_candidates)
        assert chosen == [triangles[0]]

    def test_skip_evaluation_runs_no_solves(self, monkeypatch):
        g = k4()
        F = validate_cycle(g, [0, 1, 2, 0]).dense()
        cells = [validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [0, 1, 3, 0])]
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=2, added_per_iteration=2)
        solves = []
        monkeypatch.setattr(hodge, "least_squares", lambda *a, **k: solves.append(a))
        chosen, after, basis = evaluate_and_select(None, F, cells, 2, cfg.evaluate_candidates)
        assert chosen == cells and after is None and basis is None and solves == []

    def test_ties_go_to_candidate_order(self):
        # the square is tri1 + tri2 and tri1 is in the complex, so adding the
        # square or tri2 gives the same complex span and the same loss; with
        # these flows the two scores differ by one rounding step (2.2e-16)
        g = k4()
        tri1, tri2 = validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [0, 2, 3, 0])
        square = validate_cycle(g, [0, 1, 2, 3, 0])
        cpx = CellComplex(g, [tri1])
        F = remove_gradient(g, np.random.default_rng(0).standard_normal((6, 3)))
        H = harmonic_projection(cpx, F)
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=2, added_per_iteration=1)
        Q = curl_basis(cpx)
        assert evaluate_and_select(Q, H, [tri2, square], 1, cfg.evaluate_candidates)[0] == [tri2]
        assert evaluate_and_select(Q, H, [square, tri2], 1, cfg.evaluate_candidates)[0] == [square]
        assert evaluate_and_select(Q, H, [tri1, square, tri2], 2,
                                   cfg.evaluate_candidates)[0] == [square, tri2]

    def test_exact_fit_ties_go_to_candidate_order(self):
        # flows along tri2 with tri1 in the complex: tri2 and the square
        # tri1 + tri2 both fit them exactly, so both scores are zero up to
        # rounding, and the tie band must not shrink with the best loss
        g = k4()
        tri1, tri2 = validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [0, 2, 3, 0])
        square = validate_cycle(g, [0, 1, 2, 3, 0])
        cpx = CellComplex(g, [tri1])
        F = np.outer(tri2.dense(), np.random.default_rng(1).standard_normal(1))
        H = harmonic_projection(cpx, F)
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=2, added_per_iteration=1)
        Q = curl_basis(cpx)
        assert rank_one_scores(Q, H, [tri2, square]).best(1) == [0]
        assert evaluate_and_select(Q, H, [tri2, square], 1, cfg.evaluate_candidates)[0] == [tri2]
        assert evaluate_and_select(Q, H, [square, tri2], 1, cfg.evaluate_candidates)[0] == [square]

    def test_carried_basis_without_evaluation(self, monkeypatch):
        # l = l': the leading candidates are the picks, and the exact flows
        # and the basis follow them with no solve
        g = k4()
        cells = [validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [0, 1, 3, 0]),
                 validate_cycle(g, [0, 2, 3, 0])]
        F = remove_gradient(g, np.random.default_rng(2).standard_normal((6, 3)))
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=2, added_per_iteration=2)
        solves = []
        monkeypatch.setattr(hodge, "least_squares", lambda *a, **k: solves.append(a))
        chosen, after, basis = evaluate_and_select(curl_basis(CellComplex(g)), F, cells, 2,
                                                   cfg.evaluate_candidates)
        monkeypatch.undo()
        assert chosen == cells[:2] and solves == []
        grown = CellComplex(g, cells[:2])
        np.testing.assert_allclose(after, harmonic_projection(grown, F), atol=1e-12)
        Q = curl_basis(grown)
        assert np.allclose(basis @ basis.T, Q @ Q.T, atol=1e-12)

    def test_shortfall_returns_all(self):
        g = t3()
        triangle = validate_cycle(g, [0, 1, 2, 0])
        cfg = InferenceConfig(total_cells=3, candidates_per_iteration=3, added_per_iteration=3)
        chosen, _, _ = evaluate_and_select(None, triangle.dense(), [triangle], 3,
                                           cfg.evaluate_candidates)
        assert chosen == [triangle]

    @pytest.mark.parametrize("evaluate", [True, False])
    def test_no_candidates_with_a_basis_rejected(self, evaluate):
        g = t3()
        with pytest.raises(ValueError, match="candidates must be nonempty"):
            evaluate_and_select(curl_basis(CellComplex(g)), np.ones((3, 2)), [], 1, evaluate)


class TestInferMfci:
    def test_t3_single_cell(self):
        complex_, trace = infer_mfci(t3(), np.array([1.0, 1.0, -1.0]),
                                     InferenceConfig(total_cells=1))
        assert complex_.cell_count == 1
        assert len(trace.records) == 2
        assert trace.final.loss <= 1e-8
        assert [r.iteration for r in trace.records] == [0, 1]

    def test_k4_two_planted_cells(self):
        g = k4()
        b1 = validate_cycle(g, [0, 1, 2, 0]).dense()
        b2 = validate_cycle(g, [0, 1, 3, 0]).dense()
        rng = np.random.default_rng(3)
        F = np.outer(b1, rng.standard_normal(4)) + np.outer(b2, rng.standard_normal(4))
        cfg = InferenceConfig(total_cells=2, candidates_per_iteration=2, added_per_iteration=1)
        complex_, trace = infer_mfci(g, F, cfg)
        assert complex_.cell_count == 2
        assert trace.final.loss <= 1e-6

    @pytest.mark.parametrize("method", ["svd", "ica"])
    @pytest.mark.parametrize("discretization", ["deterministic", "random_walk"])
    def test_noiseless_single_cycle_recovery(self, method, discretization):
        cpx = random_complex(SynthConfig(8, 0.7, 1, 1, seed=23))
        rng = np.random.default_rng(5)
        flows = sample_flows(cpx, 4, 1.0, 0.0, rng)
        cfg = InferenceConfig(total_cells=1, candidates_per_iteration=1, method=method,
                              discretization=discretization)
        complex_, trace = infer_mfci(cpx.graph, flows, cfg, np.random.default_rng(11))
        assert trace.final.loss <= 1e-6
        assert complex_.cells[0].canonical() == cpx.cells[0].canonical()

    def test_exact_trace_monotone(self):
        cpx = random_complex(SynthConfig(12, 0.6, 5, 1, seed=31))
        rng = np.random.default_rng(7)
        flows = sample_flows(cpx, 8, 1.0, 0.3, rng)
        cfg = InferenceConfig(total_cells=5, candidates_per_iteration=3, added_per_iteration=1)
        _, trace = infer_mfci(cpx.graph, flows, cfg)
        losses = trace.losses()
        assert (np.diff(losses) <= 1e-8).all()

    def test_fast_variant_runs_zero_loop_solves(self):
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=37))
        rng = np.random.default_rng(9)
        flows = sample_flows(cpx, 8, 1.0, 0.2, rng)
        cfg = InferenceConfig(total_cells=6, candidates_per_iteration=2, added_per_iteration=2,
                              projection="approximate")
        complex_, trace = infer_mfci(cpx.graph, flows, cfg)
        assert cfg.evaluate_candidates is False
        # only the single gradient-removal call at ingestion is ever counted
        assert all(r.cumulative_solver_calls == 1 for r in trace.records)
        assert complex_.cell_count >= 1

    # gradient removal and nothing after it: scoring runs against the
    # carried curl basis, and the exact harmonic flows follow the winners'
    # scoring directions in both projections, so neither re-projects nor
    # recomputes for the report
    @pytest.mark.parametrize("projection, expected", [
        ("exact", [1, 1, 1, 1, 1, 1]),
        ("approximate", [1, 1, 1, 1, 1, 1]),
    ])
    def test_best_one_of_l_solver_accounting(self, projection, expected):
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=37))
        flows = sample_flows(cpx, 8, 1.0, 0.2, np.random.default_rng(9))
        cfg = InferenceConfig(total_cells=5, candidates_per_iteration=3, added_per_iteration=1,
                              projection=projection)
        _, trace = infer_mfci(cpx.graph, flows, cfg)
        assert [r.cumulative_solver_calls for r in trace.records] == expected

    # l' < l scores candidates; l = l' with exact projection adds them all
    # and moves the exact flows by their scoring directions
    @pytest.mark.parametrize("candidates, added, total, projection", [
        pytest.param(3, 1, 5, "exact", id="exact"),
        pytest.param(3, 1, 5, "approximate", id="approximate"),
        pytest.param(2, 2, 6, "exact", id="exact-all-added"),
    ])
    def test_scoring_nonconvergence_noted(self, candidates, added, total, projection,
                                          monkeypatch, unconverged_solve):
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=37))
        flows = sample_flows(cpx, 8, 1.0, 0.2, np.random.default_rng(9))
        cfg = InferenceConfig(total_cells=total, candidates_per_iteration=candidates,
                              added_per_iteration=added, projection=projection)
        _, converged = infer_mfci(cpx.graph, flows, cfg)
        assert all(r.notes == () for r in converged.records)
        monkeypatch.setattr(hodge, "least_squares", unconverged_solve)
        _, trace = infer_mfci(cpx.graph, flows, cfg)
        # gradient removal's solve fails its check (record 0), and neither
        # scoring nor the exact update solves, so no later record can note it
        nc = ("solver-nonconverged",)
        assert len(trace.records) > 2
        assert [r.notes for r in trace.records] == [nc] + [()] * (len(trace.records) - 1)

    def test_ica_nonconvergence_noted(self, monkeypatch):
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=37))
        flows = sample_flows(cpx, 8, 1.0, 0.2, np.random.default_rng(9))
        cfg = InferenceConfig(total_cells=4, candidates_per_iteration=2, added_per_iteration=2,
                              method="ica", projection="approximate")
        monkeypatch.setattr(mfci, "fast_ica", functools.partial(factorize.fast_ica,
                                                                max_iterations=1))
        _, trace = infer_mfci(cpx.graph, flows, cfg)
        assert all(r.notes[:1] == ("ica-nonconverged",) for r in trace.records[1:])
        monkeypatch.setattr(mfci, "fast_ica", functools.partial(
            factorize.fast_ica, max_iterations=1000, tolerance=0.5))
        _, converged = infer_mfci(cpx.graph, flows, cfg)
        assert all("ica-nonconverged" not in r.notes for r in converged.records)

    def test_evaluated_approximate_makes_no_uncounted_solve(self, monkeypatch):
        # the acceptance criterion-6 MFCI configuration (noise 0.1, seed 0)
        synth = SynthConfig(20, 0.9, 30, 64, 1.0, 0.1)
        rng = np.random.default_rng([0, 0, 1])
        cpx = random_complex(synth, rng)
        flows = sample_flows(cpx, 64, 1.0, 0.1, rng)
        cfg = InferenceConfig(total_cells=30, candidates_per_iteration=5, added_per_iteration=1,
                              method="svd", projection="approximate")
        seen = []
        solve = hodge.least_squares
        monkeypatch.setattr(hodge, "least_squares", lambda *a, **k: seen.append(1) or solve(*a, **k))
        _, trace = infer_mfci(cpx.graph, flows, cfg, np.random.default_rng([0, 1]))
        # gradient removal, and neither scoring nor the report solves
        assert len(seen) == trace.final.cumulative_solver_calls == 1

    def test_exact_projection_computes_no_candidate_loss(self, monkeypatch,
                                                        exact_losses_counted):
        # l = l' adds every candidate, so nothing reads a loss: the exact
        # flows and the basis move by the scoring directions alone
        scored = []
        rank_one_scores = mfci.rank_one_scores
        monkeypatch.setattr(mfci, "rank_one_scores",
                            lambda *args: scored.append(args) or rank_one_scores(*args))
        cpx = random_complex(SynthConfig(16, 0.8, 10, 1, seed=21))
        flows = sample_flows(cpx, 12, 1.0, 0.3, np.random.default_rng(4))
        cfg = InferenceConfig(total_cells=10, candidates_per_iteration=4, added_per_iteration=4,
                              method="ica", projection="exact")
        _, trace = infer_mfci(cpx.graph, flows, cfg)
        assert len(scored) == len(trace.records) - 1 >= 2
        assert exact_losses_counted == [0]

    def test_budget_never_overshot(self):
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=41))
        rng = np.random.default_rng(13)
        flows = sample_flows(cpx, 8, 1.0, 0.2, rng)
        cfg = InferenceConfig(total_cells=5, candidates_per_iteration=4, added_per_iteration=4,
                              projection="approximate")
        complex_, _ = infer_mfci(cpx.graph, flows, cfg)
        assert complex_.cell_count <= 5

    def test_every_added_cell_is_valid(self):
        from cellflow.complexes import check_cell

        cpx = random_complex(SynthConfig(10, 0.7, 4, 1, seed=43))
        rng = np.random.default_rng(15)
        flows = sample_flows(cpx, 6, 1.0, 0.5, rng)
        cfg = InferenceConfig(total_cells=4, candidates_per_iteration=2, added_per_iteration=1,
                              discretization="random_walk")
        complex_, trace = infer_mfci(cpx.graph, flows, cfg, np.random.default_rng(3))
        # An equal graph that is another object: check_cell checks in full
        # instead of trusting the cells' validate_cycle record.
        twin = OrientedGraph(cpx.graph.node_count, cpx.graph.edges)
        for record in trace.records:
            for cell in record.cells_added:
                check_cell(twin, cell)

    def test_approximate_reports_exact_loss(self):
        cpx = random_complex(SynthConfig(10, 0.8, 4, 1, seed=47))
        rng = np.random.default_rng(17)
        flows = sample_flows(cpx, 8, 1.0, 0.1, rng)
        cfg = InferenceConfig(total_cells=4, candidates_per_iteration=2, added_per_iteration=2,
                              projection="approximate")
        complex_, trace = infer_mfci(cpx.graph, flows, cfg)
        flows0 = remove_gradient(cpx.graph, flows)
        recomputed = float(np.linalg.norm(harmonic_projection(complex_, flows0)))
        assert trace.final.loss == pytest.approx(recomputed, rel=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("infer", [
        lambda g, F: infer_mfci(g, F, InferenceConfig(total_cells=1)),
        lambda g, F: infer_sph(g, F, SphConfig(total_cells=1)),
        lambda g, F: infer_random(g, F, 1, np.random.default_rng(0)),
    ], ids=["mfci", "sph", "random"])
    def test_non_finite_flows_rejected(self, infer, bad):
        flows = np.ones((6, 2))
        flows[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            infer(k4(), flows)

    @pytest.mark.parametrize("infer", [
        lambda g, F: infer_mfci(g, F, InferenceConfig(total_cells=1)),
        lambda g, F: infer_sph(g, F, SphConfig(total_cells=1)),
        lambda g, F: infer_random(g, F, 1, np.random.default_rng(0)),
    ], ids=["mfci", "sph", "random"])
    def test_forest_rejected_before_any_solve(self, infer, monkeypatch):
        solves = []
        monkeypatch.setattr(hodge, "least_squares", lambda *a, **k: solves.append(a))
        path = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
        two_trees = OrientedGraph(6, [(0, 1), (1, 2), (3, 4)])
        for forest in (path, two_trees):
            with pytest.raises(GraphIsForest, match="no cycle"):
                infer(forest, np.ones((3, 2)))
        assert solves == []

    @pytest.mark.parametrize("infer", [
        lambda g, F: infer_mfci(g, F, InferenceConfig(total_cells=1), np.random.default_rng(0)),
        lambda g, F: infer_sph(g, F, SphConfig(total_cells=1)),
        lambda g, F: infer_random(g, F, 1, np.random.default_rng(0)),
    ], ids=["mfci", "sph", "random"])
    def test_only_cycle_in_the_second_component_is_inferred(self, infer):
        # n - 1 edges, so only the component count tells this graph from a tree.
        graph = OrientedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        assert graph.edge_count == graph.node_count - 1
        flows = np.zeros((5, 2))
        flows[2:] = [[1.0, 2.0], [1.0, 2.0], [-1.0, -2.0]]
        complex_, trace = infer(graph, flows)
        assert [c.edges.tolist() for c in complex_.cells] == [[2, 3, 4]]
        assert trace.final.loss <= 1e-9

    def test_ica_needs_two_flow_samples(self, monkeypatch):
        solves = []
        monkeypatch.setattr(hodge, "least_squares", lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match="2 flow samples"):
            infer_mfci(k4(), np.ones(6), InferenceConfig(total_cells=1, method="ica"))
        assert solves == []

    def test_deterministic_given_seed(self):
        cpx = random_complex(SynthConfig(10, 0.7, 4, 1, seed=53))
        rng_data = np.random.default_rng(19)
        flows = sample_flows(cpx, 8, 1.0, 0.4, rng_data)
        cfg = InferenceConfig(total_cells=4, candidates_per_iteration=3, added_per_iteration=1,
                              discretization="random_walk", method="ica")
        first, trace_a = infer_mfci(cpx.graph, flows, cfg, np.random.default_rng(21))
        second, trace_b = infer_mfci(cpx.graph, flows, cfg, np.random.default_rng(21))
        assert [c.canonical() for c in first.cells] == [c.canonical() for c in second.cells]
        assert trace_a.losses() == pytest.approx(trace_b.losses(), abs=0)


def prefix_losses(graph, flows, records):
    """Each record's loss recomputed by a full projection of the
    gradient-free flows against the complex that record ends with."""
    flows0 = remove_gradient(graph, flows)
    cells = [cell for record in records for cell in record.cells_added]
    return np.array([hodge.loss(CellComplex(graph, cells[:record.cells_total]), flows0)
                     for record in records])


def assert_losses_match_prefix_reprojection(graph, flows, trace, reported=False):
    # the loops that report in the coordinates of one QR of the final
    # complex (fast, random) match this projection to rounding; the ones
    # that carry their exact flows, to 1e-10; both relative to each loss,
    # and to the initial loss where a loss is ~0
    expected = prefix_losses(graph, flows, trace.records)
    np.testing.assert_allclose(trace.losses(), expected, rtol=1e-12 if reported else 1e-10,
                               atol=1e-12 * expected[0])


def all_added(projection):
    return InferenceConfig(total_cells=6, candidates_per_iteration=2, added_per_iteration=2,
                           method="ica", projection=projection)


# The two loops that report through the recompute: fast MFCI (approximate,
# no evaluation) and the random baseline.
REPORTED = {
    "fast": lambda g, F, timer=None: infer_mfci(g, F, all_added("approximate"),
                                                np.random.default_rng(3), timer),
    "random": lambda g, F, timer=None: infer_random(g, F, 6, np.random.default_rng(8), timer),
}
# ... and their exact-projection counterpart, which carries its exact flows
EXACT = lambda g, F: infer_mfci(g, F, all_added("exact"), np.random.default_rng(3))


class TestReportingRecompute:
    def instance(self):
        cpx = random_complex(SynthConfig(12, 0.7, 6, 1, seed=37))
        return cpx.graph, sample_flows(cpx, 8, 1.0, 0.2, np.random.default_rng(9))

    @pytest.mark.parametrize("name", sorted(REPORTED))
    def test_one_solve_per_record(self, name, monkeypatch):
        graph, flows = self.instance()
        shapes = []
        solve = hodge.least_squares

        def counted(A, Y, *args, **kwargs):
            shapes.append((A.shape[1], np.asarray(Y).reshape(Y.shape[0], -1).shape[1]))
            return solve(A, Y, *args, **kwargs)

        monkeypatch.setattr(hodge, "least_squares", counted)
        _, trace = REPORTED[name](graph, flows)
        records = trace.records
        # gradient removal (the one counted solve), then one reporting solve
        # per iteration, of every flow column's coordinates in the final
        # complex's QR against the record's leading columns of R (one
        # column of A per cell)
        assert len(shapes) == len(records) > 2
        assert all(r.cumulative_solver_calls == 1 for r in records)
        assert shapes[0] == (graph.node_count, flows.shape[1])
        assert shapes[1:] == [(r.cells_total, flows.shape[1]) for r in records[1:]]

    @pytest.mark.parametrize("name", sorted(REPORTED) + ["exact"])
    def test_losses_match_prefix_reprojection(self, name):
        graph, flows = self.instance()
        _, trace = {**REPORTED, "exact": EXACT}[name](graph, flows)
        assert_losses_match_prefix_reprojection(graph, flows, trace, reported=name in REPORTED)

    @pytest.mark.parametrize("name", sorted(REPORTED))
    def test_reporting_runs_after_the_clock_stops(self, name, monkeypatch):
        graph, flows = self.instance()
        now = [0.0]

        def clock():
            now[0] += 1.0
            return now[0]

        solve = hodge.least_squares

        def slow(*args, **kwargs):
            now[0] += 1000.0
            return solve(*args, **kwargs)

        monkeypatch.setattr(hodge, "least_squares", slow)
        _, trace = REPORTED[name](graph, flows, clock)
        seconds = [r.cumulative_seconds for r in trace.records]
        # gradient removal's slow solve is timed; every record but the first
        # reported through a slow solve too, and none of those reached the
        # trace
        assert now[0] > 1000.0 * len(seconds) > 2000.0
        assert seconds == sorted(seconds) and 1000.0 < seconds[0] and seconds[-1] < 2000.0

    def test_cells_in_the_curl_span(self):
        # K4 has 7 simple cycles spanning a 3-dimensional cycle space, so at
        # least four of the seven cells lie in the span of those before them
        flows = np.random.default_rng(4).standard_normal((6, 3))
        complex_, trace = infer_random(k4(), flows, 7, np.random.default_rng(2))
        assert complex_.cell_count == 7
        assert_losses_match_prefix_reprojection(k4(), flows, trace, reported=True)
        assert trace.final.loss <= 1e-12 * trace.records[0].loss

    @pytest.mark.parametrize("name", sorted(REPORTED))
    def test_reporting_nonconvergence_noted(self, name, monkeypatch, unconverged_solve):
        graph, flows = self.instance()
        _, converged = REPORTED[name](graph, flows)
        assert all("report-nonconverged" not in r.notes for r in converged.records)
        flags = []

        def flagged(*args, **kwargs):
            result = unconverged_solve(*args, **kwargs)
            flags.append(result.converged)
            return result

        monkeypatch.setattr(hodge, "least_squares", flagged)
        _, trace = REPORTED[name](graph, flows)
        records = trace.records
        # gradient removal's solve fails its check (record 0); each later
        # record is noted exactly when its reporting solve failed its check,
        # and the reporting solves stay out of the counts
        assert records[0].notes == ("solver-nonconverged",)
        assert len(flags) == len(records)
        noted = ["report-nonconverged" in r.notes for r in records[1:]]
        assert noted == [not ok for ok in flags[1:]]
        assert any(noted)
        assert all(r.notes[-1:] == ("report-nonconverged",)
                   for r, n in zip(records[1:], noted) if n)
        assert all((r.cumulative_solver_calls, r.cumulative_solver_iterations)
                   == (1, records[0].cumulative_solver_iterations) for r in records)


# The loops that carry the curl basis: SPH and best-1-of-8 MFCI score
# candidates against it, and MFCI-exact (l = l' = 8) moves its exact flows
# along it.
SCORED = {
    "sph": lambda g, F: infer_sph(g, F, SphConfig(total_cells=10)),
    "best1of8": lambda g, F: infer_mfci(g, F, InferenceConfig(
        total_cells=10, candidates_per_iteration=8, added_per_iteration=1)),
    "exact": lambda g, F: infer_mfci(g, F, InferenceConfig(
        total_cells=10, candidates_per_iteration=8, added_per_iteration=8, method="ica",
        projection="exact"), np.random.default_rng(5)),
}


class TestCarriedCurlBasis:
    def instance(self):
        cpx = random_complex(SynthConfig(20, 0.5, 10, 1, seed=61))
        return cpx.graph, sample_flows(cpx, 16, 1.0, 0.3, np.random.default_rng(23))

    @pytest.mark.parametrize("name", sorted(SCORED))
    def test_only_gradient_removal_solves(self, name, monkeypatch):
        graph, flows = self.instance()
        seen = []
        solve = hodge.least_squares
        monkeypatch.setattr(hodge, "least_squares",
                            lambda *a, **k: seen.append(1) or solve(*a, **k))
        _, trace = SCORED[name](graph, flows)
        assert trace.final.cells_total == 10
        assert len(seen) == 1
        assert all(r.cumulative_solver_calls == 1 for r in trace.records)

    @pytest.mark.parametrize("name", sorted(SCORED))
    def test_losses_match_prefix_reprojection(self, name):
        graph, flows = self.instance()
        _, trace = SCORED[name](graph, flows)
        assert trace.final.cells_total == 10
        assert_losses_match_prefix_reprojection(graph, flows, trace)


@st.composite
def cyclic_graphs_and_flows(draw):
    """A random small graph with a cycle on two node blocks, joined by one
    edge or not (so often disconnected), where each pair within a block is
    an edge of either orientation or no edge, plus random raw flows and a
    seed for the random baseline."""
    sizes = draw(st.integers(3, 6)), draw(st.integers(0, 5))
    pairs = [(i, j) for start, size in ((0, sizes[0]), (sizes[0], sizes[1]))
             for i in range(start, start + size) for j in range(i + 1, start + size)]
    kinds = draw(st.lists(st.sampled_from("-+."), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) if kind == "+" else (v, u)
             for (u, v), kind in zip(pairs, kinds) if kind != "."]
    if sizes[1] and draw(st.booleans()):
        edges.append((0, sizes[0]))
    assume(edges)
    graph = OrientedGraph(sum(sizes), edges)
    assume(next(kruskal(graph, range(graph.edge_count), set()), None) is not None)
    seed = draw(st.integers(0, 10**6))
    flows = np.random.default_rng(seed).standard_normal((graph.edge_count,
                                                         draw(st.integers(1, 4))))
    return graph, flows, draw(st.integers(1, 8)), seed


@settings(derandomize=True, max_examples=80, deadline=None)
@given(cyclic_graphs_and_flows())
def test_random_trace_is_the_prefix_reprojection(case):
    graph, flows, cells, seed = case
    _, trace = infer_random(graph, flows, cells, np.random.default_rng(seed))
    losses = trace.losses()
    assert (np.diff(losses) <= 1e-10 * losses[0]).all()
    assert_losses_match_prefix_reprojection(graph, flows, trace, reported=True)
