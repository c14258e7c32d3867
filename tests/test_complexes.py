from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cellflow import complexes
from cellflow.complexes import (
    CellBoundary,
    CellComplex,
    Forest,
    InvalidCell,
    MissingEdge,
    NoPath,
    NotACycle,
    OrientedGraph,
    RepeatedNode,
    TooShort,
    UnionFind,
    add_cells,
    boundary_from_edge_set,
    build_incidence,
    check_cell,
    heaviest_tree_cycles,
    kruskal,
    random_tree_cell,
    tree_cycle,
    validate_cycle,
)


def t3():
    return OrientedGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    # lexicographic edge order
    return OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestOrientedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            OrientedGraph(3, [(0, 0)])

    def test_rejects_duplicate_edges_both_directions(self):
        with pytest.raises(ValueError, match="duplicates"):
            OrientedGraph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="duplicates"):
            OrientedGraph(3, [(0, 1), (0, 1)])

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError, match="outside"):
            OrientedGraph(2, [(0, 2)])

    @pytest.mark.parametrize("node_count, edges, size", [
        (1, [], 0),
        (4, [(0, 1), (1, 2), (2, 3)], 3),  # a path: a tree
        (5, [(0, 1), (2, 3), (3, 4)], 3),  # a forest of two trees
        (6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], 4),  # the cycle in the second part
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 3),
    ])
    def test_forest_size_is_n_minus_components(self, node_count, edges, size):
        g = OrientedGraph(node_count, edges)
        assert g.forest_size == size
        assert g.forest_size is g.forest_size

    def test_edge_sign_lookup(self):
        g = t3()
        assert g.edge_sign(0, 1) == (0, 1)
        assert g.edge_sign(1, 0) == (0, -1)
        with pytest.raises(MissingEdge):
            OrientedGraph(4, [(0, 1)]).edge_sign(2, 3)


class TestBuildIncidence:
    def test_triangle_columns(self):
        B1 = build_incidence(t3()).toarray()
        assert B1.tolist() == [[1, 0, 1], [-1, 1, 0], [0, -1, -1]]

    def test_single_edge(self):
        B1 = build_incidence(OrientedGraph(2, [(0, 1)])).toarray()
        assert B1.tolist() == [[1], [-1]]

    def test_path_columns_sum_to_zero(self):
        g = OrientedGraph(3, [(0, 1), (1, 2)])
        B1 = build_incidence(g).toarray()
        assert (B1.sum(axis=0) == 0).all()


class TestValidateCycle:
    def test_triangle_forward(self):
        b = validate_cycle(t3(), [0, 1, 2, 0])
        assert b.dense().tolist() == [1, 1, -1]

    def test_triangle_reversed_negates(self):
        b = validate_cycle(t3(), [0, 2, 1, 0])
        assert b.dense().tolist() == [-1, -1, 1]

    def test_k4_triangle(self):
        b = validate_cycle(k4(), [0, 1, 2, 0])
        assert b.dense().tolist() == [1, -1, 0, 1, 0, 0]

    def test_missing_edge(self):
        g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(MissingEdge):
            validate_cycle(g, [0, 1, 3, 0])

    def test_repeated_interior_node(self):
        g = OrientedGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        with pytest.raises(RepeatedNode):
            validate_cycle(g, [0, 1, 2, 3, 4, 2, 0])

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate_cycle(t3(), [0, 1, 0])

    def test_open_walk_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            validate_cycle(t3(), [0, 1, 2])


class TestBoundaryFromEdgeSet:
    def test_triangle_canonical_orientation(self):
        b = boundary_from_edge_set(t3(), {0, 1, 2})
        assert b.dense().tolist() == [1, 1, -1]

    def test_k4_triangle(self):
        b = boundary_from_edge_set(k4(), {0, 3, 1})
        assert b.dense().tolist() == [1, -1, 0, 1, 0, 0]

    def test_two_edges_not_a_cycle(self):
        with pytest.raises(NotACycle):
            boundary_from_edge_set(k4(), {0, 1})

    def test_two_disjoint_triangles_not_a_cycle(self):
        g = OrientedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(NotACycle):
            boundary_from_edge_set(g, {0, 1, 2, 3, 4, 5})

    def test_deterministic(self):
        g = k4()
        first = boundary_from_edge_set(g, {5, 0, 4, 1})
        for _ in range(5):
            again = boundary_from_edge_set(g, {1, 4, 0, 5})
            assert again == first


class TestAddCells:
    def test_append_and_b1b2_zero(self):
        g = t3()
        cpx, added, dropped = add_cells(CellComplex(g), [validate_cycle(g, [0, 1, 2, 0])])
        assert cpx.cell_count == 1 and len(added) == 1 and not dropped
        product = build_incidence(g).toarray() @ cpx.boundary_matrix().toarray()
        assert (product == 0).all()

    def test_duplicate_within_batch_dropped(self):
        g = t3()
        b = validate_cycle(g, [0, 1, 2, 0])
        cpx, added, dropped = add_cells(CellComplex(g), [b, b])
        assert cpx.cell_count == 1 and len(added) == 1 and len(dropped) == 1

    def test_sign_duplicate_dropped(self):
        g = t3()
        b = validate_cycle(g, [0, 1, 2, 0])
        cpx, _, _ = add_cells(CellComplex(g), [b])
        cpx, added, dropped = add_cells(cpx, [-b])
        assert cpx.cell_count == 1 and not added and len(dropped) == 1

    def test_invalid_cell_rejected(self):
        g = k4()
        bad = CellBoundary(6, [0, 1, 2], [1, 1, 1])  # star at node 0, not a cycle
        with pytest.raises(InvalidCell):
            add_cells(CellComplex(g), [bad])

    def test_grown_complex_checks_only_new_cells(self, monkeypatch):
        g = k4()
        prefix = [validate_cycle(g, [0, 1, 2, 0]), validate_cycle(g, [0, 1, 3, 0]),
                  validate_cycle(g, [0, 2, 3, 0])]
        cpx = CellComplex(g, prefix)
        checked = []

        def counting_check(graph, cell):
            checked.append(cell)
            check_cell(graph, cell)

        monkeypatch.setattr(complexes, "check_cell", counting_check)
        new = validate_cycle(g, [1, 2, 3, 1])
        grown, added, dropped = add_cells(cpx, [new])
        assert checked == [new]
        assert grown.cells == tuple(prefix) + (new,) and added == (new,) and not dropped
        with pytest.raises(InvalidCell):
            add_cells(grown, [CellBoundary(6, [0, 1, 2], [1, 1, 1])])
        again, added, dropped = add_cells(grown, [-prefix[1]])
        assert again.cells == grown.cells and not added and dropped == (-prefix[1],)

    def test_unbalanced_signs_rejected(self):
        g = t3()
        bad = CellBoundary(3, [0, 1, 2], [1, 1, 1])  # support is the triangle, signs wrong
        with pytest.raises(InvalidCell, match="cancel"):
            check_cell(g, bad)


def forest_of(graph, edges):
    forest = Forest(graph)
    for e in edges:
        forest.add(e)
    return forest


class TestTreeCycle:
    def test_triangle(self):
        g = t3()
        assert tree_cycle(g, forest_of(g, [0, 1]), 2) == validate_cycle(g, [0, 1, 2, 0])

    def test_k4_path_plus_chord(self):
        g = k4()
        assert tree_cycle(g, forest_of(g, [0, 3, 5]), 2) == validate_cycle(g, [0, 1, 2, 3, 0])

    def test_walk_leaves_the_lowest_node_toward_its_lower_neighbour(self):
        # The BFS path from 3 to 0 runs 3-2-1-0; the walk starts at 0 and
        # leaves toward 1, not toward 3 along the closing edge.
        g = OrientedGraph(4, [(3, 2), (1, 2), (0, 1), (3, 0)])
        cell = tree_cycle(g, forest_of(g, [0, 1, 2]), 3)
        assert cell == validate_cycle(g, [0, 1, 2, 3, 0])
        assert cell == boundary_from_edge_set(g, {0, 1, 2, 3})

    def test_no_path(self):
        g = k4()
        with pytest.raises(NoPath):
            tree_cycle(g, forest_of(g, [0]), 5)

    def test_closing_edge_in_forest(self):
        g = k4()
        with pytest.raises(ValueError, match="part of the forest"):
            tree_cycle(g, forest_of(g, [0, 3, 5]), 3)

    def test_contains_closing_edge_and_degree_two(self):
        rng = np.random.default_rng(3)
        g = k4()
        for _ in range(20):
            order = rng.permutation(6)
            uf = UnionFind(4)
            tree = {int(e) for e in order if uf.union(*g.edges[e])}
            non_tree = [e for e in range(6) if e not in tree]
            closing = int(rng.choice(non_tree))
            cell = tree_cycle(g, forest_of(g, tree), closing)
            cycle = set(cell.edges.tolist())
            assert closing in cycle
            degree = {}
            for e in cycle:
                for node in g.edges[e]:
                    degree[node] = degree.get(node, 0) + 1
            assert all(d == 2 for d in degree.values())
            assert cell._validated_for is g


class TestCellBoundary:
    def test_canonical_ignores_global_sign(self):
        b = validate_cycle(t3(), [0, 1, 2, 0])
        assert b.canonical() == (-b).canonical()
        assert b != -b

    def test_sign_of(self):
        b = validate_cycle(k4(), [0, 1, 2, 0])
        assert b.sign_of(0) == 1 and b.sign_of(1) == -1 and b.sign_of(2) == 0


class TestValidateOnce:
    """check_cell trusts a cell only for the graph object that
    validate_cycle built it for; every other cell is checked in full."""

    @staticmethod
    def count_cycle_checks(monkeypatch):
        calls = []
        real = complexes.boundary_from_edge_set

        def counting(graph, edge_ids):
            calls.append(graph)
            return real(graph, edge_ids)

        monkeypatch.setattr(complexes, "boundary_from_edge_set", counting)
        return calls

    def test_validated_cell_checked_once(self, monkeypatch):
        g = k4()
        cell = validate_cycle(g, [0, 1, 2, 3, 0])
        calls = self.count_cycle_checks(monkeypatch)
        check_cell(g, cell)
        check_cell(g, -cell)
        assert calls == []
        check_cell(g, CellBoundary(cell.edge_count, cell.edges, cell.signs))
        assert calls == [g]
        twin = k4()  # equal edges, another object: checked in full
        check_cell(twin, cell)
        assert calls == [g, twin]

    def test_hand_built_invalid_cell_rejected(self):
        # Two disjoint triangles at once: B1 @ b == 0, but not one cycle.
        g = OrientedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        bad = CellBoundary(6, range(6), [1, 1, -1, 1, 1, -1])
        assert (build_incidence(g) @ bad.dense() == 0).all()
        with pytest.raises(InvalidCell, match="single simple cycle"):
            check_cell(g, bad)
        with pytest.raises(InvalidCell):
            add_cells(CellComplex(g), [bad])

    def test_cell_validated_for_another_graph_rejected(self):
        cell = validate_cycle(k4(), [0, 1, 2, 0])  # edge ids 0, 1, 3
        hexagon = OrientedGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        assert hexagon.edge_count == cell.edge_count
        with pytest.raises(InvalidCell):
            check_cell(hexagon, cell)
        with pytest.raises(InvalidCell):
            add_cells(CellComplex(hexagon), [-cell])

    def test_negation_keeps_the_key(self):
        cell = validate_cycle(k4(), [0, 1, 3, 0])
        key = cell.canonical()
        assert (-cell).canonical() is key
        assert -(-cell) == cell and (-(-cell)).canonical() is key
        assert (-cell).signs.tolist() == (-cell.signs).tolist()

    def test_inferred_cells_are_not_checked_again(self, monkeypatch):
        from cellflow.baselines import SphConfig, infer_random, infer_sph
        from cellflow.mfci import InferenceConfig, infer_mfci
        from cellflow.synth import SynthConfig, random_complex, sample_flows

        rng = np.random.default_rng(21)
        planted = random_complex(SynthConfig(14, 0.6, 5, 12), rng)
        g = planted.graph
        flows = sample_flows(planted, 12, 1.0, 0.2, rng)
        complexes_ = {
            "synth": planted,
            "mfci": infer_mfci(g, flows, InferenceConfig(total_cells=5), rng)[0],
            "walk": infer_mfci(g, flows, InferenceConfig(total_cells=5,
                                                         discretization="random_walk"), rng)[0],
            "sph": infer_sph(g, flows, SphConfig(total_cells=5))[0],
            "random": infer_random(g, flows, 5, rng)[0],
        }
        twin = OrientedGraph(g.node_count, g.edges)
        calls = self.count_cycle_checks(monkeypatch)
        for name, cpx in complexes_.items():
            assert cpx.cell_count == 5, name
            for cell in cpx.cells:
                check_cell(g, cell)
        assert calls == []
        for cpx in complexes_.values():
            for cell in cpx.cells:
                check_cell(twin, cell)
        assert len(calls) == 25


def test_random_complexes_satisfy_b1b2_zero():
    # integer identity on randomly planted complexes
    from cellflow.synth import SynthConfig, random_complex

    for seed in range(8):
        cpx = random_complex(SynthConfig(12, 0.5, 4, 1, seed=seed))
        B1 = build_incidence(cpx.graph).toarray().astype(np.int64)
        B2 = cpx.boundary_matrix().toarray().astype(np.int64)
        assert (B1 @ B2 == 0).all()


def reference_boundary_matrix(cpx, dtype):
    """The boundary matrix as it was built before: COO triplets converted to
    CSC, which sorts them and sums duplicates."""
    m, k = cpx.graph.edge_count, cpx.cell_count
    if k == 0:
        return sparse.csc_matrix((m, 0), dtype=dtype)
    rows = np.concatenate([c.edges for c in cpx.cells])
    cols = np.concatenate([np.full(len(c), j) for j, c in enumerate(cpx.cells)])
    data = np.concatenate([c.signs for c in cpx.cells]).astype(dtype)
    return sparse.csc_matrix((data, (rows, cols)), shape=(m, k))


def bare(cell):
    """``cell`` rebuilt by the bare constructor from shuffled edges."""
    order = np.random.default_rng(len(cell)).permutation(len(cell))
    return CellBoundary(cell.edge_count, cell.edges[order], cell.signs[order])


def boundary_matrix_cases():
    from cellflow.synth import SynthConfig, random_complex

    g = k4()
    triangle = validate_cycle(g, [0, 1, 2, 0])
    planted = random_complex(SynthConfig(20, 0.5, 12, 1, seed=3))
    return {
        "empty": CellComplex(g),
        "one cell": CellComplex(g, [triangle]),
        "many cells": planted,
        "negated cells": CellComplex(planted.graph, [-c for c in planted.cells]),
        "bare constructor": CellComplex(planted.graph, [bare(c) for c in planted.cells]),
        "mixed": CellComplex(g, [-triangle, bare(validate_cycle(g, [0, 1, 3, 2, 0]))]),
    }


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
@pytest.mark.parametrize("case", sorted(boundary_matrix_cases()))
def test_boundary_matrix_equals_the_coo_built_reference(case, dtype):
    cpx = boundary_matrix_cases()[case]
    got = cpx.boundary_matrix(dtype=dtype)
    want = reference_boundary_matrix(cpx, dtype)
    assert got.format == want.format == "csc"
    assert got.shape == want.shape and got.dtype == want.dtype == dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.has_canonical_format and want.has_canonical_format
    # the flag that boundary_matrix sets holds: recomputed from the arrays
    again = sparse.csc_matrix((got.data, got.indices, got.indptr), shape=got.shape)
    assert again.has_canonical_format


def reference_tree_cycle(graph, forest_edges, closing_edge):
    """``tree_cycle`` as it was before it searched the forest alone: a BFS
    over the whole graph's adjacency lists, keeping the forest edges."""
    forest_edges = set(int(e) for e in forest_edges)
    closing_edge = int(closing_edge)
    if closing_edge in forest_edges:
        raise ValueError("closing_edge must not be part of the forest")
    u, v = graph.edges[closing_edge]
    parent = {u: (None, None)}
    todo = deque([u])
    while todo:
        node = todo.popleft()
        if node == v:
            break
        for nbr, eid in graph.adjacency[node]:
            if eid in forest_edges and nbr not in parent:
                parent[nbr] = (node, eid)
                todo.append(nbr)
    if v not in parent:
        raise NoPath(f"endpoints {u} and {v} are in different forest components")
    cycle = {closing_edge}
    node = v
    while node != u:
        node, eid = parent[node]
        cycle.add(eid)
    return cycle


def reference_tree_cell(graph, forest_edges, closing_edge):
    """The cell of ``tree_cycle`` as it was before it walked the BFS path:
    the whole-graph BFS's edge set, oriented by ``boundary_from_edge_set``."""
    return boundary_from_edge_set(graph, reference_tree_cycle(graph, forest_edges, closing_edge))


def reference_heaviest_tree_cycles(graph, weights, count):
    """``heaviest_tree_cycles`` as it was before it sorted only a prefix: a
    full heaviest-first lexsort, Kruskal into a plain edge set, and each
    closing edge's cell from ``reference_tree_cell``."""
    m = graph.edge_count
    forest = set()
    closing = kruskal(graph, np.lexsort((np.arange(m), -weights)), forest)
    return [(e, reference_tree_cell(graph, forest, e)) for _, e in zip(range(count), closing)]


def reference_random_tree_cell(graph, rng):
    """``random_tree_cell`` as it was before it stopped early: Kruskal over
    all m edges, the reference for its cells and its rng stream."""
    tree = set()
    non_tree = sorted(kruskal(graph, rng.permutation(graph.edge_count), tree))
    if not non_tree:
        raise ValueError("graph contains no cycle")
    closing = non_tree[rng.integers(len(non_tree))]
    return reference_tree_cell(graph, tree, closing)


def reference_kruskal(graph, order):
    """Kruskal through ``UnionFind.union``: the closing edges, and the
    forest's edges in the order they were added."""
    uf = UnionFind(graph.node_count)
    closing, tree = [], []
    for e in order:
        (tree if uf.union(*graph.edges[e]) else closing).append(int(e))
    return closing, tree


@pytest.mark.parametrize("forest_kind", ["Forest", "set"])
@pytest.mark.parametrize("order_kind", ["list", "ndarray", "range"])
def test_kruskal_takes_any_order_iterable_and_forest(order_kind, forest_kind):
    # One order given as a list, an ndarray or (the identity order) a range
    # closes the edges the UnionFind reference closes, as ints, and grows
    # the same forest: the same edge set and each node's adjacency order.
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
        graph = OrientedGraph(n + int(rng.integers(0, 2)), [p for p, k in zip(pairs, keep) if k])
        m = graph.edge_count
        order = np.arange(m) if order_kind == "range" else rng.permutation(m)
        given = {"list": order.tolist(), "ndarray": order, "range": range(m)}[order_kind]
        forest = Forest(graph) if forest_kind == "Forest" else set()
        closing = list(kruskal(graph, given, forest))
        want_closing, want_tree = reference_kruskal(graph, order)
        assert closing == want_closing and all(type(e) is int for e in closing)
        assert set(forest) == set(want_tree)
        if forest_kind == "Forest":
            assert forest.adjacency == forest_of(graph, want_tree).adjacency


def outcome(function, *args):
    try:
        return function(*args)
    except (NoPath, ValueError) as exc:
        return type(exc)


@st.composite
def two_block_graphs(draw):
    """A random small graph on two node blocks, joined by one edge or not
    (so often disconnected, and sometimes a forest), where each pair within
    a block is an edge of either orientation or no edge."""
    sizes = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    pairs = [(i, j) for start, size in ((0, sizes[0]), (sizes[0], sizes[1]))
             for i in range(start, start + size) for j in range(i + 1, start + size)]
    kinds = draw(st.lists(st.sampled_from("-+."), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) if kind == "+" else (v, u)
             for (u, v), kind in zip(pairs, kinds) if kind != "."]
    if sizes[1] and draw(st.booleans()):
        edges.append((0, sizes[0]))
    return OrientedGraph(sum(sizes), edges)


class TappedRng:
    """An rng whose permutations count how many of their edges are taken."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.order = []
        self.taken = 0

    def permutation(self, m):
        self.order = self.rng.permutation(m).tolist()
        self.taken = 0
        return self._tap()

    def _tap(self):
        for e in self.order:
            self.taken += 1
            yield e

    def integers(self, high):
        return self.rng.integers(high)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(two_block_graphs(), st.integers(0, 10**6), st.integers(1, 5))
def test_random_tree_cell_matches_full_kruskal(graph, seed, draws):
    # Same cells, or the same ValueError on a forest, and the same rng state
    # after every draw; and Kruskal stops one edge after the tree's last union.
    tapped, reference = TappedRng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        got = outcome(random_tree_cell, graph, tapped)
        assert got == outcome(reference_random_tree_cell, graph, reference)
        assert tapped.rng.bit_generator.state == reference.bit_generator.state
        uf = UnionFind(graph.node_count)
        unions = [i for i, e in enumerate(tapped.order) if uf.union(*graph.edges[e])]
        if got is not ValueError:
            assert tapped.taken <= unions[-1] + 2


def test_tree_cycle_matches_the_whole_graph_bfs():
    # Partial random forests of random graphs, closed by every graph edge:
    # found cycles, NoPath and closing edges inside the forest all occur.
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.8)
        graph = OrientedGraph(n, [p for p, k in zip(pairs, keep) if k])
        prefix = rng.permutation(graph.edge_count)[:int(rng.integers(0, n))]
        forest = Forest(graph)
        for _ in kruskal(graph, prefix, forest):
            pass
        for e in range(graph.edge_count):
            expected = outcome(reference_tree_cell, graph, forest, e)
            assert outcome(tree_cycle, graph, forest, e) == expected
            seen.add(expected if isinstance(expected, type) else CellBoundary)
    assert seen == {CellBoundary, NoPath, ValueError}


def test_heaviest_tree_cycles_match_the_full_sort_reference():
    # Random graphs with isolated nodes, often disconnected, under
    # integer-valued (tied), all-zero and continuous weights, for every
    # count from 0 to past the cycle rank: the same closing edges, edge ids
    # and signs as the full sort, on both sides of the prefix bound.
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(1, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.9)
        edges = [(j, i) if rng.random() < 0.5 else (i, j) for (i, j), k in zip(pairs, keep) if k]
        graph = OrientedGraph(n + int(rng.integers(0, 3)), edges)
        m = graph.edge_count
        kind = ("integer", "zero", "float")[int(rng.integers(3))]
        weights = {"integer": rng.integers(0, 4, m).astype(float),
                   "zero": np.zeros(m),
                   "float": rng.exponential(size=m)}[kind]
        rank = m - graph.forest_size
        for count in range(rank + 3):
            got = heaviest_tree_cycles(graph, weights, count)
            assert got == reference_heaviest_tree_cycles(graph, weights, count)
            assert len(got) == min(count, rank)
            assert all(cell._validated_for is graph for _, cell in got)
            used = graph.forest_size + count
            if used < m:
                cut = np.sort(weights)[::-1][used - 1]
                seen.add("ties past the cut" if (weights >= cut).sum() > used else "prefix")
            else:
                seen.add("full sort")
            seen.add(kind)
            seen.add("count 0" if count == 0 else "count above rank" if count > rank else "count")
        touched = {node for edge in graph.edges for node in edge}
        if len(touched) < graph.node_count:
            seen.add("isolated node")
    assert seen == {"ties past the cut", "prefix", "full sort", "integer", "zero", "float",
                    "count 0", "count above rank", "count", "isolated node"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heaviest_tree_cycles_reject_non_finite_weights(bad):
    weights = np.arange(6, dtype=float)
    weights[2] = bad
    with pytest.raises(ValueError, match="weights must be finite"):
        heaviest_tree_cycles(k4(), weights, 1)


def test_tree_cycle_is_called_once_per_cell(monkeypatch):
    # perfbench traces ``complexes.tree_cycle`` by replacing the module
    # name, so every cell must come through it.
    calls = []
    real = complexes.tree_cycle

    def counting(graph, forest, closing_edge):
        calls.append(closing_edge)
        return real(graph, forest, closing_edge)

    monkeypatch.setattr(complexes, "tree_cycle", counting)
    g = k4()
    for count in range(5):
        calls.clear()
        got = heaviest_tree_cycles(g, [5.0, 4.0, 3.0, 2.0, 1.0, 0.0], count)
        assert calls == [e for e, _ in got]
    calls.clear()
    random_tree_cell(g, np.random.default_rng(0))
    assert len(calls) == 1
