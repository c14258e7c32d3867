import functools

import numpy as np
import pytest

from cellflow.baselines import SphConfig, infer_random, infer_sph, max_spanning_tree, sph_candidates
from cellflow.complexes import CellComplex, OrientedGraph, check_cell, validate_cycle
from cellflow import hodge
from cellflow.hodge import loss, remove_gradient
from cellflow.synth import SynthConfig, random_complex, sample_flows


def t3():
    return OrientedGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    return OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestMaxSpanningTree:
    def test_t3_weighted(self):
        assert max_spanning_tree(t3(), [3.0, 2.0, 1.0]) == {0, 1}

    def test_t3_tie_rule(self):
        assert max_spanning_tree(t3(), [1.0, 1.0, 1.0]) == {0, 1}

    def test_k4_star(self):
        assert max_spanning_tree(k4(), [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]) == {0, 1, 2}

    def test_disconnected_graph_gives_forest(self):
        g = OrientedGraph(4, [(0, 1), (2, 3)])
        assert max_spanning_tree(g, [1.0, 2.0]) == {0, 1}


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
        tree = max_spanning_tree(cpx.graph, np.abs(H).sum(axis=1))
        for cell in sph_candidates(cpx, H, 5):
            outside = [e for e in cell.edges.tolist() if e not in tree]
            assert len(outside) == 1


class TestInferSph:
    def test_t3_single_cell(self):
        complex_, trace = infer_sph(t3(), np.array([1.0, 1.0, -1.0]),
                                    SphConfig(total_cells=1, candidates_per_iteration=1))
        assert complex_.cell_count == 1 and trace.final.loss <= 1e-8

    def test_solver_call_accounting_single_candidate(self):
        # 1 call at ingestion (gradient removal), none in iteration 1
        # (scoring against an empty complex needs no solve), then 1 per
        # iteration (the rank-one scoring solve; h follows the winner's
        # rank-one update without a fresh projection)
        cpx = random_complex(SynthConfig(10, 0.7, 4, 1, seed=3))
        rng = np.random.default_rng(0)
        flows = sample_flows(cpx, 4, 1.0, 0.2, rng)
        _, trace = infer_sph(cpx.graph, flows, SphConfig(total_cells=3, candidates_per_iteration=1))
        calls = [r.cumulative_solver_calls for r in trace.records]
        assert calls == [1, 1, 2, 3]

    def test_scoring_nonconvergence_noted(self, monkeypatch):
        cpx = random_complex(SynthConfig(10, 0.7, 4, 1, seed=3))
        flows = sample_flows(cpx, 4, 1.0, 0.2, np.random.default_rng(0))
        cfg = SphConfig(total_cells=4, candidates_per_iteration=3)
        _, converged = infer_sph(cpx.graph, flows, cfg)
        assert all(r.notes == () for r in converged.records)
        monkeypatch.setattr(hodge, "least_squares",
                            functools.partial(hodge.least_squares, max_iterations=1))
        _, trace = infer_sph(cpx.graph, flows, cfg)
        # one LSMR step does not finish gradient removal (record 0);
        # iteration 1 scores against the empty complex (no solve) and
        # iteration 2 against one cell (one LSMR step solves a rank-one
        # system); from two cells on, one step runs out of budget
        nc = ("solver-nonconverged",)
        assert [r.notes for r in trace.records] == [nc, (), (), nc, nc]

    def test_losses_match_full_reprojection(self):
        cpx = random_complex(SynthConfig(12, 0.6, 5, 1, seed=13))
        flows = sample_flows(cpx, 6, 1.0, 0.3, np.random.default_rng(2))
        complex_, trace = infer_sph(cpx.graph, flows,
                                    SphConfig(total_cells=5, candidates_per_iteration=4))
        flows0 = remove_gradient(cpx.graph, flows)
        for r in trace.records:
            prefix = CellComplex(cpx.graph, complex_.cells[:r.cells_total])
            assert r.loss == pytest.approx(loss(prefix, flows0), rel=1e-8)

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

    def test_forest_rejected(self):
        g = OrientedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="no cycle"):
            infer_random(g, np.zeros(2), 1, np.random.default_rng(0))
