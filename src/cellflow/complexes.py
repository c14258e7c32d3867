"""Oriented graphs, 2-cell boundaries, and 2-dimensional cell complexes.

A 2-cell is a polygon glued onto a simple cycle of the graph; its boundary
is a signed edge vector with entries in {0, +1, -1}.  All cell arithmetic
here is exact integer arithmetic; floating point only enters downstream in
the flow computations.  Tree cycles come from one Kruskal generator, taken
heaviest first (``heaviest_tree_cycles``: deterministic discretization and
SPH) or in random order (``random_tree_cell``: random baseline, synth).
Kruskal grows a ``Forest`` that keeps its node adjacency as edges are
added, and ``tree_cycle`` builds each cell from the path it finds there.
Heaviest first, Kruskal takes at most n - c + count edges (c components,
``count`` cycles), so only that many of the heaviest edges are sorted; in
random order it stops once its tree has n - c edges.  So no cell walks all
m edges in Python.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class MissingEdge(Exception):
    """A walk steps between two nodes that are not adjacent."""


class RepeatedNode(Exception):
    """A closed walk revisits an interior node, so it is not a simple cycle."""


class TooShort(Exception):
    """A cycle needs at least three edges."""


class NotACycle(Exception):
    """An edge set does not form a single simple cycle."""


class NoPath(Exception):
    """Two nodes lie in different components of a forest."""


class InvalidCell(Exception):
    """A boundary vector violates the 2-cell invariants for a graph."""


class UnionFind:
    """Disjoint-set forest with path compression and union by size.

    ``forest_size`` and ``synth`` use it, and the tests take it as the
    reference for ``kruskal``, which keeps its own union-find inline."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


class OrientedGraph:
    """Simple undirected graph with an arbitrary but fixed orientation per edge.

    Edge ids are 0-based positions in the edge list and index every matrix
    and flow vector in this package.  Instances are immutable by convention;
    do not mutate ``edges`` after construction.

    The signed incidence matrix (``incidence``) and the size of a spanning
    forest, n - c edges for c connected components (``forest_size``), are
    each computed on first use and cached.

    Parameters
    ----------
    node_count : int
        Number of nodes; node ids are ``0 .. node_count - 1``.
    edges : sequence of (int, int)
        Ordered ``(source, target)`` pairs.  No self-loops, no duplicate
        edges in either direction.
    """

    def __init__(self, node_count, edges):
        node_count = int(node_count)
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        edge_list = []
        seen = set()
        for pos, (u, v) in enumerate(edges):
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"edge {pos} is a self-loop at node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge {pos} = ({u}, {v}) has a node id outside [0, {node_count})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"edge {pos} = ({u}, {v}) duplicates an earlier edge")
            seen.add(key)
            edge_list.append((u, v))
        self.node_count = node_count
        self.edges = tuple(edge_list)
        self._directed_index = {e: k for k, e in enumerate(edge_list)}
        adjacency = [[] for _ in range(node_count)]
        for k, (u, v) in enumerate(edge_list):
            adjacency[u].append((v, k))
            adjacency[v].append((u, k))
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self._incidence = None
        self._forest_size = None

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def forest_size(self):
        """Cached edge count n - c of a spanning forest (c components); the
        graph is a forest exactly when this equals ``edge_count``."""
        if self._forest_size is None:
            uf = UnionFind(self.node_count)
            self._forest_size = sum(uf.union(u, v) for u, v in self.edges)
        return self._forest_size

    def edge_sign(self, u, v):
        """Return ``(edge_id, +1)`` if (u, v) is stored source->target,
        ``(edge_id, -1)`` if stored target->source, else raise MissingEdge."""
        k = self._directed_index.get((u, v))
        if k is not None:
            return k, 1
        k = self._directed_index.get((v, u))
        if k is not None:
            return k, -1
        raise MissingEdge(f"no edge between nodes {u} and {v}")

    def incidence(self):
        """Cached signed node-by-edge incidence matrix (see build_incidence)."""
        if self._incidence is None:
            self._incidence = build_incidence(self)
        return self._incidence

    def __repr__(self):
        return f"OrientedGraph(n={self.node_count}, m={self.edge_count})"


def build_incidence(graph):
    """Signed incidence matrix: column k holds +1 at the source and -1 at the
    target of edge k.  Returned as a sparse CSC matrix of int8."""
    m = graph.edge_count
    rows = np.asarray(graph.edges, dtype=np.int64).reshape(-1)
    data = np.tile(np.array([1, -1], dtype=np.int8), m)
    cols = np.repeat(np.arange(m, dtype=np.int64), 2)
    return sparse.csc_matrix((data, (rows, cols)), shape=(graph.node_count, m))


class CellBoundary:
    """Signed edge vector of one simple cycle: a single column of the
    edge-to-cell boundary matrix.

    Stored sparsely as sorted edge ids plus aligned signs; ``edge_count`` is
    the ambient number of edges, so ``dense()`` is self-contained.

    A boundary remembers the graph object it was validated for:
    ``validate_cycle`` (and so ``boundary_from_edge_set``) records it, and
    ``check_cell`` against that same graph then returns at once.  The bare
    constructor records nothing, so such a boundary (one read from a file,
    say) is checked in full.  Negation keeps the record and the canonical
    key, which is computed once.
    """

    __slots__ = ("edge_count", "edges", "signs", "_validated_for", "_key")

    def __init__(self, edge_count, edges, signs):
        edges = np.asarray(edges, dtype=np.int64)
        signs = np.asarray(signs, dtype=np.int8)
        if edges.size == 0:
            raise ValueError("empty boundary")
        if edges.size != signs.size:
            raise ValueError("edges and signs length mismatch")
        order = edges.argsort()
        edges = edges[order]
        signs = signs[order]
        if (edges[1:] == edges[:-1]).any():
            raise ValueError("repeated edge id in boundary")
        if edges[0] < 0 or edges[-1] >= edge_count:
            raise ValueError("edge id outside [0, edge_count)")
        if not (np.abs(signs) == 1).all():
            raise ValueError("signs must be +1 or -1")
        self.edge_count = int(edge_count)
        self.edges = edges
        self.signs = signs
        self.edges.setflags(write=False)
        self.signs.setflags(write=False)
        self._validated_for = None
        self._key = None

    def dense(self, dtype=np.float64):
        b = np.zeros(self.edge_count, dtype=dtype)
        b[self.edges] = self.signs
        return b

    def sign_of(self, edge_id):
        """Sign at an edge, 0 if the edge is not on the boundary."""
        i = np.searchsorted(self.edges, edge_id)
        if i < self.edges.size and self.edges[i] == edge_id:
            return int(self.signs[i])
        return 0

    def canonical(self):
        """Hashable key identifying the boundary up to a global sign flip."""
        if self._key is None:
            flip = -1 if self.signs[0] < 0 else 1
            self._key = (self.edge_count, tuple(self.edges), tuple(flip * self.signs))
        return self._key

    def __neg__(self):
        # Same support, so the sorted edges, the validation record and the
        # canonical key all carry over; only the signs flip.
        out = object.__new__(CellBoundary)
        out.edge_count = self.edge_count
        out.edges = self.edges
        out.signs = -self.signs
        out.signs.setflags(write=False)
        out._validated_for = self._validated_for
        out._key = self._key
        return out

    def __len__(self):
        return int(self.edges.size)

    def __eq__(self, other):
        if not isinstance(other, CellBoundary):
            return NotImplemented
        return (self.edge_count == other.edge_count
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.signs, other.signs))

    def __hash__(self):
        return hash((self.edge_count, tuple(self.edges), tuple(self.signs)))

    def __repr__(self):
        terms = ", ".join(f"{'+' if s > 0 else '-'}e{e}" for e, s in zip(self.edges, self.signs))
        return f"CellBoundary({terms})"


def check_cell(graph, cell):
    """Raise InvalidCell unless ``cell`` is a valid 2-cell boundary for ``graph``:
    support is a single simple cycle of >= 3 edges and the net flow at every
    node is zero (incidence @ boundary == 0).

    A cell that ``validate_cycle`` built for this very graph object is valid
    by construction and returns at once; any other cell (one built for
    another graph, or by the bare ``CellBoundary`` constructor) is checked
    in full."""
    if not isinstance(cell, CellBoundary):
        raise InvalidCell(f"expected CellBoundary, got {type(cell).__name__}")
    if cell._validated_for is graph:
        return
    if cell.edge_count != graph.edge_count:
        raise InvalidCell("boundary length does not match the graph's edge count")
    if len(cell) < 3:
        raise InvalidCell("cycle support has fewer than 3 edges")
    try:
        cycle = boundary_from_edge_set(graph, cell.edges)
    except NotACycle as exc:
        raise InvalidCell(f"support is not a single simple cycle: {exc}") from exc
    # On a simple cycle, B1 @ b == 0 holds for exactly the two orientations
    # of the cycle, so matching the oriented support up to sign checks it.
    if cell.canonical() != cycle.canonical():
        raise InvalidCell("signs do not cancel at every node (B1 @ b != 0)")


class CellComplex:
    """A graph plus an ordered set of 2-cells.

    The boundary matrix has one column per cell; every constructed complex
    satisfies ``incidence @ boundary == 0`` exactly.  ``keys`` holds the
    canonical key of every cell.  Immutable by convention: adding cells
    returns a new complex (see add_cells), which validates only the new
    cells, since the prefix was validated when it was built.
    """

    def __init__(self, graph, cells=()):
        self.graph = graph
        self.cells = ()
        self.keys = frozenset()
        grown, _, dropped = add_cells(self, cells)
        if dropped:
            raise InvalidCell("duplicate cell (up to sign) in cell list")
        self.cells = grown.cells
        self.keys = grown.keys

    @property
    def cell_count(self):
        return len(self.cells)

    def boundary_matrix(self, dtype=np.int8):
        """Edge-by-cell boundary matrix as sparse CSC in canonical format.

        Built straight from the cells: each cell's edge ids are sorted and
        distinct already, so they are column j's row indices as they
        stand, and no sort or duplicate pass is needed."""
        m = self.graph.edge_count
        k = len(self.cells)
        if k == 0:
            return sparse.csc_matrix((m, 0), dtype=dtype)
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum([c.edges.size for c in self.cells], out=indptr[1:])
        indices = np.concatenate([c.edges for c in self.cells])
        data = np.concatenate([c.signs for c in self.cells]).astype(dtype, copy=False)
        out = sparse.csc_matrix((data, indices, indptr), shape=(m, k))
        out.has_canonical_format = True
        return out

    def __repr__(self):
        return f"CellComplex(n={self.graph.node_count}, m={self.graph.edge_count}, k={self.cell_count})"


def validate_cycle(graph, walk):
    """Turn a closed node walk into a 2-cell boundary.

    The walk must start and end at the same node and visit no other node
    twice.  Edges traversed along their stored orientation get +1, against
    it -1.  The result records ``graph`` as the graph it was validated for,
    so ``check_cell(graph, cell)`` need not work out the cycle again.

    Raises
    ------
    TooShort, RepeatedNode, MissingEdge
    """
    walk = [int(x) for x in walk]
    if len(walk) < 2 or walk[0] != walk[-1]:
        raise ValueError("walk must be closed (first node == last node)")
    if len(walk) < 4:
        raise TooShort(f"cycle of length {len(walk) - 1} < 3")
    interior = walk[:-1]
    if len(set(interior)) != len(interior):
        raise RepeatedNode("walk revisits a node before closing")
    edges = []
    signs = []
    for a, b in zip(walk[:-1], walk[1:]):
        k, s = graph.edge_sign(a, b)
        edges.append(k)
        signs.append(s)
    cell = CellBoundary(graph.edge_count, edges, signs)
    cell._validated_for = graph
    return cell


def boundary_from_edge_set(graph, edge_ids):
    """Orient an unordered simple-cycle edge set into a boundary vector.

    The traversal starts at the lowest-id node on the cycle and moves first
    toward its lowest-id cycle neighbour, so the output is deterministic.

    Raises
    ------
    NotACycle
        If some node on the support has degree != 2 or the support is
        disconnected.
    """
    edge_ids = sorted(int(e) for e in edge_ids)
    if not edge_ids:
        raise NotACycle("empty edge set")
    neighbours = {}
    for e in edge_ids:
        u, v = graph.edges[e]
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    if any(len(ns) != 2 for ns in neighbours.values()):
        raise NotACycle("some node has degree != 2 in the edge set")
    if len(neighbours) != len(edge_ids):
        raise NotACycle("edge set is not a single cycle")
    start = min(neighbours)
    walk = [start, min(neighbours[start])]
    while walk[-1] != start:
        prev, here = walk[-2], walk[-1]
        a, b = neighbours[here]
        walk.append(b if a == prev else a)
    if len(walk) - 1 != len(edge_ids):
        raise NotACycle("edge set is disconnected (several cycles)")
    return validate_cycle(graph, walk)


def add_cells(complex_, new_cells):
    """Append cells to a complex, dropping duplicates (up to sign) of existing
    or earlier-in-batch cells.  This is the only way to grow a complex: only
    the new cells are checked, and a new cell that ``validate_cycle`` built
    for the complex's graph passes ``check_cell`` without a second check.

    Returns
    -------
    (CellComplex, added, dropped)
        The new complex plus tuples of the boundaries actually appended and
        those silently dropped as duplicates.

    Raises
    ------
    InvalidCell
        If any new cell fails the 2-cell invariants for the complex's graph.
    """
    keys = set(complex_.keys)
    added = []
    dropped = []
    for cell in new_cells:
        check_cell(complex_.graph, cell)
        key = cell.canonical()
        if key in keys:
            dropped.append(cell)
            continue
        keys.add(key)
        added.append(cell)
    # Every cell of the result is now validated, so skip the constructor.
    out = object.__new__(CellComplex)
    out.graph = complex_.graph
    out.cells = complex_.cells + tuple(added)
    out.keys = frozenset(keys)
    return out, tuple(added), tuple(dropped)


class Forest:
    """The edge ids of a forest of ``graph`` and the neighbour lists of its
    nodes, both grown in place by ``add``.  Acyclicity is the caller's to
    keep, as ``kruskal`` does."""

    def __init__(self, graph):
        self.graph = graph
        self.adjacency = [[] for _ in range(graph.node_count)]
        self._edges = set()

    def add(self, edge):
        u, v = self.graph.edges[edge]
        self.adjacency[u].append(v)
        self.adjacency[v].append(u)
        self._edges.add(edge)

    def __len__(self):
        return len(self._edges)

    def __iter__(self):
        return iter(self._edges)

    def __contains__(self, edge):
        return edge in self._edges


def tree_cycle(graph, forest, closing_edge):
    """The cell of the unique cycle formed by ``closing_edge`` plus the path
    between its endpoints in ``forest`` (a ``Forest`` of ``graph``).

    The search runs over the forest's own adjacency, so a call costs
    O(len(forest)), whatever the size of the graph.  The cycle is walked
    from its lowest node toward the lower of that node's two cycle
    neighbours, as ``boundary_from_edge_set`` orients the same edge set,
    and the walk is validated once, by ``validate_cycle``.

    Raises
    ------
    ValueError
        If ``closing_edge`` is an edge of ``forest``.
    NoPath
        If the endpoints of ``closing_edge`` lie in different forest
        components.
    """
    closing_edge = int(closing_edge)
    if closing_edge in forest:
        raise ValueError("closing_edge must not be part of the forest")
    u, v = graph.edges[closing_edge]
    adjacency = forest.adjacency
    # BFS from u over the forest until it reaches v; the path is unique.
    parent = {u: None}
    frontier = [u]
    for node in frontier:
        for nbr in adjacency[node]:
            if nbr not in parent:
                parent[nbr] = node
                frontier.append(nbr)
        if v in parent:
            break
    if v not in parent:
        raise NoPath(f"endpoints {u} and {v} are in different forest components")
    # The path v -> u, closed by the edge u -> v, in cyclic order.
    ring = [v]
    while ring[-1] != u:
        ring.append(parent[ring[-1]])
    low = ring.index(min(ring))
    if ring[low - 1] < ring[(low + 1) % len(ring)]:
        ring.reverse()
        low = len(ring) - 1 - low
    return validate_cycle(graph, ring[low:] + ring[:low + 1])


def kruskal(graph, order, forest):
    """Grow a spanning forest greedily: take the edges in ``order``, add each
    one that joins two components to ``forest`` (a ``Forest`` of ``graph``,
    grown in place), and yield each one that closes a cycle instead.  Right
    after a yield, ``tree_cycle(graph, forest, edge)`` is that edge's cell;
    once the generator is exhausted, ``forest`` is the whole spanning
    forest.  It is whole already once it holds ``graph.forest_size`` edges:
    every later edge closes a cycle, so a caller may stop there.

    ``order`` may be any iterable of edge ids, taken lazily, and ``forest``
    anything with an ``add`` (a ``set``, say).  The union-find runs inline,
    with path halving and no method call per edge: any correct union-find
    accepts and rejects the same edges, so the forest is the same as
    ``UnionFind.union`` would grow."""
    parent = list(range(graph.node_count))
    edges = graph.edges
    add = forest.add
    for e in order:
        e = int(e)
        u, v = edges[e]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            yield e
        else:
            parent[u] = v
            add(e)


def heaviest_tree_cycles(graph, weights, count):
    """The first ``count`` cycles closed by Kruskal taking the edges heaviest
    first (ties: lower edge id), as ``(closing_edge, boundary)`` pairs;
    fewer if the graph has fewer independent cycles.  Forest paths are
    unique, so an edge's cycle through the partial forest is its cycle
    through the full maximum spanning forest, which is never grown.  Each
    boundary is ``tree_cycle``'s: walked from the cycle's lowest node toward
    its lower cycle neighbour.

    Kruskal stops after at most ``graph.forest_size + count`` edges (n - c
    unions plus ``count`` closing edges), so only the edges at least as
    heavy as the heaviest that many are sorted, ties with the last one
    included; when that covers all m edges, all are sorted.

    Raises
    ------
    ValueError
        If ``weights`` is not a finite vector of one weight per edge.
    """
    weights = np.asarray(weights, dtype=np.float64)
    m = graph.edge_count
    if weights.shape != (m,):
        raise ValueError("weight vector length must equal the edge count")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    used = graph.forest_size + count
    heavy = -weights
    head = np.arange(m)
    if used < m:
        head = np.flatnonzero(heavy <= np.partition(heavy, used - 1)[used - 1])
    order = head[np.lexsort((head, heavy[head]))].tolist()
    forest = Forest(graph)
    closing = kruskal(graph, order, forest)
    # zip takes from range first, so kruskal is not resumed past ``count``.
    return [(e, tree_cycle(graph, forest, e)) for _, e in zip(range(count), closing)]


def random_tree_cell(graph, rng):
    """One cell drawn as: random-order greedy spanning tree, uniform non-tree
    edge (in edge-id order), closed through the tree.  Raises ValueError if
    the graph has no cycle.

    Kruskal takes the edges in the order of one ``rng.permutation`` draw and
    stops once the tree has ``graph.forest_size`` edges; the non-tree edges
    are the rest.  The tree and the rng stream (the permutation, then one
    ``rng.integers``) are those of a Kruskal run over all m edges."""
    order = rng.permutation(graph.edge_count)
    if graph.forest_size == graph.edge_count:
        raise ValueError("graph contains no cycle")
    tree = Forest(graph)
    for _ in kruskal(graph, order, tree):
        if len(tree) == graph.forest_size:
            break
    non_tree = np.ones(graph.edge_count, dtype=bool)
    non_tree[list(tree)] = False
    non_tree = np.flatnonzero(non_tree)
    closing = int(non_tree[rng.integers(len(non_tree))])
    return tree_cycle(graph, tree, closing)
