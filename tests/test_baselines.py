import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellflow.baselines import SphConfig, infer_random, infer_sph, sph_candidates
from cellflow.complexes import (
    CellComplex,
    Forest,
    OrientedGraph,
    check_cell,
    heaviest_tree_cycles,
    kruskal,
    tree_cycle,
    validate_cycle,
)
from cellflow import hodge, mfci
from cellflow.hodge import loss, remove_gradient
from cellflow.mfci import GraphIsForest, _align_sign, discretize_deterministic
from cellflow.synth import SynthConfig, random_complex, sample_flows


def t3():
    return OrientedGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    return OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def heaviest_first_forest(graph, weights):
    """The whole forest that ``kruskal`` grows heaviest first (ties: lower
    edge id), drained to the end: the reference the closed cycles of SPH
    and deterministic discretization are checked against."""
    weights = np.asarray(weights, dtype=np.float64)
    m = graph.edge_count
    tree = Forest(graph)
    for _ in kruskal(graph, np.lexsort((np.arange(m), -weights)), tree):
        pass
    return tree


def reference_sph_candidates(complex_, flows_h, count):
    """SPH candidates as computed before ``heaviest_tree_cycles``: the full
    max spanning tree, its non-tree edges ranked by weight, each closed
    through the full tree."""
    flows_h = np.asarray(flows_h, dtype=np.float64)
    if flows_h.ndim == 1:
        flows_h = flows_h[:, None]
    graph = complex_.graph
    weights = np.abs(flows_h).sum(axis=1)
    tree = heaviest_first_forest(graph, weights)
    non_tree = np.array([e for e in range(graph.edge_count) if e not in tree], dtype=np.int64)
    if non_tree.size == 0:
        return []
    ranked = non_tree[np.lexsort((non_tree, -weights[non_tree]))]
    candidates = []
    for e in ranked[:count]:
        boundary = tree_cycle(graph, tree, int(e))
        net = flows_h[e].sum()
        if net != 0 and (1 if net > 0 else -1) != boundary.sign_of(int(e)):
            boundary = -boundary
        candidates.append(boundary)
    return candidates


def reference_discretize_deterministic(graph, b):
    """Deterministic discretization as computed before
    ``heaviest_tree_cycles``: the first edge in |b| order that closes a
    cycle, closed through the forest grown so far."""
    b = np.asarray(b, dtype=np.float64)
    m = graph.edge_count
    order = np.lexsort((np.arange(m), -np.abs(b)))
    forest = Forest(graph)
    closing = next(kruskal(graph, order, forest), None)
    if closing is None:
        raise GraphIsForest("graph has no cycle")
    return _align_sign(b, tree_cycle(graph, forest, closing))


class TestMaxSpanningTree:
    """The forest of a drained heaviest-first ``kruskal``."""

    def test_t3_weighted(self):
        assert set(heaviest_first_forest(t3(), [3.0, 2.0, 1.0])) == {0, 1}

    def test_t3_tie_rule(self):
        assert set(heaviest_first_forest(t3(), [1.0, 1.0, 1.0])) == {0, 1}

    def test_k4_star(self):
        assert set(heaviest_first_forest(k4(), [5.0, 4.0, 3.0, 2.0, 1.0, 0.0])) == {0, 1, 2}

    def test_disconnected_graph_gives_forest(self):
        g = OrientedGraph(4, [(0, 1), (2, 3)])
        assert set(heaviest_first_forest(g, [1.0, 2.0])) == {0, 1}

    def test_heaviest_tree_cycles_close_the_non_tree_edges_in_weight_order(self):
        g = k4()
        weights = [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        closing = [e for e, _ in heaviest_tree_cycles(g, weights, 6)]
        assert closing == [3, 4, 5]
        assert set(closing) == set(range(6)) - set(heaviest_first_forest(g, weights))


@st.composite
def graphs_flows_and_counts(draw):
    """Any small graph (forests and disconnected graphs included, in
    shuffled edge order and orientation), harmonic-flow-like columns whose
    entries include ties and zeros, and a candidate count that may exceed
    the graph's cycle rank."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([pair for pair, k in zip(pairs, keep) if k]))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    samples = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
    flows = draw(st.lists(value, min_size=len(edges) * samples, max_size=len(edges) * samples))
    count = draw(st.integers(1, len(edges) + 2))
    graph = OrientedGraph(n, edges)
    return graph, np.array(flows).reshape(len(edges), samples), count


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graphs_flows_and_counts())
def test_heaviest_tree_cycles_match_the_full_forest_reference(case):
    graph, flows, count = case
    assert sph_candidates(CellComplex(graph), flows, count) == \
        reference_sph_candidates(CellComplex(graph), flows, count)
    b = flows[:, 0]
    try:
        expected = reference_discretize_deterministic(graph, b)
    except GraphIsForest:
        with pytest.raises(GraphIsForest):
            discretize_deterministic(graph, b)
        return
    assert discretize_deterministic(graph, b) == expected


class TestSphCandidates:
    def test_t3_single_candidate(self):
        cpx = CellComplex(t3())
        cands = sph_candidates(cpx, np.array([1.0, 1.0, -1.0]), 1)
        assert len(cands) == 1 and cands[0].dense().tolist() == [1, 1, -1]

    def test_k4_planted_triangle(self):
        # derived: the greedy tree is {e0, e1, e2}, the heaviest non-tree
        # edge is e3, and the closed cycle is triangle 0-1-2, sign-matched
        g = k4()
        cpx = CellComplex(g)
        H = validate_cycle(g, [0, 1, 2, 0]).dense()[:, None]
        cands = sph_candidates(cpx, H, 1)
        assert len(cands) == 1
        assert cands[0].dense().tolist() == [1, -1, 0, 1, 0, 0]

    def test_count_capped_by_non_tree_edges(self):
        g = k4()
        H = np.ones((6, 1))
        cands = sph_candidates(CellComplex(g), H, 10)
        assert len(cands) == 3  # m - (n - 1) = 6 - 3

    def test_exactly_one_non_tree_edge_per_candidate(self):
        rng = np.random.default_rng(1)
        cpx = random_complex(SynthConfig(10, 0.6, 3, 1, seed=9))
        H = rng.standard_normal((cpx.graph.edge_count, 4))
        tree = heaviest_first_forest(cpx.graph, np.abs(H).sum(axis=1))
        for cell in sph_candidates(cpx, H, 5):
            outside = [e for e in cell.edges.tolist() if e not in tree]
            assert len(outside) == 1


class TestInferSph:
    def test_t3_single_cell(self):
        complex_, trace = infer_sph(t3(), np.array([1.0, 1.0, -1.0]),
                                    SphConfig(total_cells=1, candidates_per_iteration=1))
        assert complex_.cell_count == 1 and trace.final.loss <= 1e-8

    def test_solver_call_accounting_single_candidate(self):
        # 1 call at ingestion (gradient removal) and none after it: scoring
        # runs against the carried curl basis, and h follows the winner's
        # rank-one update without a fresh projection
        cpx = random_complex(SynthConfig(10, 0.7, 4, 1, seed=3))
        rng = np.random.default_rng(0)
        flows = sample_flows(cpx, 4, 1.0, 0.2, rng)
        _, trace = infer_sph(cpx.graph, flows, SphConfig(total_cells=3, candidates_per_iteration=1))
        calls = [r.cumulative_solver_calls for r in trace.records]
        assert calls == [1, 1, 1, 1]

    def test_scoring_nonconvergence_noted(self, monkeypatch, unconverged_solve):
        cpx = random_complex(SynthConfig(10, 0.7, 4, 1, seed=3))
        flows = sample_flows(cpx, 4, 1.0, 0.2, np.random.default_rng(0))
        cfg = SphConfig(total_cells=4, candidates_per_iteration=3)
        _, converged = infer_sph(cpx.graph, flows, cfg)
        assert all(r.notes == () for r in converged.records)
        monkeypatch.setattr(hodge, "least_squares", unconverged_solve)
        _, trace = infer_sph(cpx.graph, flows, cfg)
        # gradient removal's solve fails its check (record 0), and scoring
        # solves nothing, so no later record can note it
        nc = ("solver-nonconverged",)
        assert [r.notes for r in trace.records] == [nc, (), (), (), ()]

    def test_losses_match_full_reprojection(self):
        cpx = random_complex(SynthConfig(12, 0.6, 5, 1, seed=13))
        flows = sample_flows(cpx, 6, 1.0, 0.3, np.random.default_rng(2))
        complex_, trace = infer_sph(cpx.graph, flows,
                                    SphConfig(total_cells=5, candidates_per_iteration=4))
        flows0 = remove_gradient(cpx.graph, flows)
        for r in trace.records:
            prefix = CellComplex(cpx.graph, complex_.cells[:r.cells_total])
            assert r.loss == pytest.approx(loss(prefix, flows0), rel=1e-8)

    def test_dense_scoring_computes_fewer_exact_losses_than_it_scores(
            self, monkeypatch, exact_losses_counted):
        # the closed-form screen of RankOneScores.best leaves the exact
        # (m x s) loss to the candidates that can win; the acceptance
        # suite's dense instance (n=40, p=0.9, k=50, s=64), seed 0
        rng = np.random.default_rng([0, 0])
        cpx = random_complex(SynthConfig(40, 0.9, 50, 64, 1.0, 0.3), rng)
        flows = sample_flows(cpx, 64, 1.0, 0.3, rng)
        scored = [0]
        scores = mfci.rank_one_scores

        def scoring(basis, flows_h, candidates):
            scored[0] += len(candidates)
            return scores(basis, flows_h, candidates)
        monkeypatch.setattr(mfci, "rank_one_scores", scoring)
        _, trace = infer_sph(cpx.graph, flows, SphConfig(total_cells=50,
                                                         candidates_per_iteration=11))
        assert trace.final.cells_total == 50
        assert len(trace.records) - 1 <= exact_losses_counted[0] < scored[0]

    def test_k4_two_triangles(self):
        g = k4()
        b1 = validate_cycle(g, [0, 1, 2, 0]).dense()
        b2 = validate_cycle(g, [0, 1, 3, 0]).dense()
        rng = np.random.default_rng(4)
        F = np.outer(b1, rng.standard_normal(4)) + np.outer(b2, rng.standard_normal(4))
        complex_, trace = infer_sph(g, F, SphConfig(total_cells=2, candidates_per_iteration=3))
        assert complex_.cell_count == 2 and trace.final.loss <= 1e-6

    def test_loss_non_increasing(self):
        cpx = random_complex(SynthConfig(12, 0.6, 5, 1, seed=13))
        rng = np.random.default_rng(2)
        flows = sample_flows(cpx, 6, 1.0, 0.3, rng)
        _, trace = infer_sph(cpx.graph, flows, SphConfig(total_cells=5, candidates_per_iteration=4))
        assert (np.diff(trace.losses()) <= 1e-8).all()


class TestInferRandom:
    def test_t3_only_cycle(self):
        complex_, trace = infer_random(t3(), np.array([1.0, 1.0, -1.0]), 1,
                                       np.random.default_rng(0))
        assert complex_.cell_count == 1
        assert {int(e) for e in complex_.cells[0].edges} == {0, 1, 2}

    def test_loss_non_increasing_and_cells_valid(self):
        cpx = random_complex(SynthConfig(12, 0.6, 4, 1, seed=29))
        rng = np.random.default_rng(5)
        flows = sample_flows(cpx, 6, 1.0, 0.4, rng)
        complex_, trace = infer_random(cpx.graph, flows, 6, np.random.default_rng(8))
        assert (np.diff(trace.losses()) <= 1e-8).all()
        # An equal graph that is another object: check_cell checks in full
        # instead of trusting the cells' validate_cycle record.
        twin = OrientedGraph(cpx.graph.node_count, cpx.graph.edges)
        for cell in complex_.cells:
            check_cell(twin, cell)
        keys = [c.canonical() for c in complex_.cells]
        assert len(set(keys)) == len(keys)

    def test_only_gradient_removal_counted(self):
        cpx = random_complex(SynthConfig(10, 0.7, 3, 1, seed=2))
        rng = np.random.default_rng(6)
        flows = sample_flows(cpx, 4, 1.0, 0.2, rng)
        _, trace = infer_random(cpx.graph, flows, 3, np.random.default_rng(1))
        assert all(r.cumulative_solver_calls == 1 for r in trace.records)

    @pytest.mark.parametrize("total_cells", [0, -2])
    def test_total_cells_below_one_rejected_before_any_solve(self, total_cells, monkeypatch):
        solves = []
        monkeypatch.setattr(hodge, "least_squares", lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match="total_cells"):
            infer_random(t3(), np.array([1.0, 1.0, -1.0]), total_cells, np.random.default_rng(0))
        assert solves == []

    def test_forest_rejected(self):
        g = OrientedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="no cycle"):
            infer_random(g, np.zeros(2), 1, np.random.default_rng(0))
