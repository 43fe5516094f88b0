"""Directed interaction graphs.

A graph on d nodes stores directed edges (i, j) meaning "node j influences
node i", i.e. j is a parent of i and the state of j enters the drift of
coordinate i.  Row i of the adjacency matrix therefore lists the parents
of node i.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction and analysis errors."""


class IndexOutOfRangeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class InvalidProbabilityError(GraphError):
    pass


class BlockSizeMismatchError(GraphError):
    pass


class NonSquareError(GraphError):
    pass


class DimensionMismatchError(GraphError):
    pass


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph without self loops or duplicate edges.

    Attributes:
        d: number of nodes, labelled 0..d-1.
        edges: ordered tuple of (child, parent) pairs; (i, j) means j is a
            parent of i.
    """

    d: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.d < 1:
            raise GraphError(f"node count must be positive, got {self.d}")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.d and 0 <= j < self.d):
                raise IndexOutOfRangeError(
                    f"edge ({i}, {j}) outside node range 0..{self.d - 1}")
            if i == j:
                raise SelfLoopError(f"self loop at node {i}")
            if (i, j) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def size(self) -> int:
        """Node count plus edge count, d + |E|."""
        return self.d + len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Return the d x d adjacency matrix A with A[i, j] = 1 iff (i, j) is an edge."""
        a = np.zeros((self.d, self.d))
        for i, j in self.edges:
            a[i, j] = 1.0
        return a

    def parents(self, i: int) -> tuple[int, ...]:
        """Nodes whose state enters the drift of coordinate i, ascending."""
        if not 0 <= i < self.d:
            raise IndexOutOfRangeError(f"node {i} outside 0..{self.d - 1}")
        return tuple(sorted(j for k, j in self.edges if k == i))

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in set(self.edges)


def build_graph(d: int, edges) -> DirectedGraph:
    """Validate an edge list and build a DirectedGraph.

    Args:
        d: number of nodes.
        edges: iterable of (child, parent) index pairs.

    Raises:
        IndexOutOfRangeError, SelfLoopError, DuplicateEdgeError on invalid input.
    """
    return DirectedGraph(d=d, edges=tuple((int(i), int(j)) for i, j in edges))


def complete_graph(d: int) -> DirectedGraph:
    """All d*(d-1) ordered pairs."""
    return DirectedGraph(
        d=d, edges=tuple((i, j) for i in range(d) for j in range(d) if i != j))


# ---------------------------------------------------------------------------
# generators


def erdos_renyi(d: int, p: float, seed: int) -> DirectedGraph:
    """Each ordered pair (i, j), i != j, is an edge independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    draw = rng.random((d, d))
    edges = [(i, j) for i in range(d) for j in range(d)
             if i != j and draw[i, j] < p]
    return DirectedGraph(d=d, edges=tuple(edges))


def polymer(d: int, double_link_positions=None) -> DirectedGraph:
    """Directed chain 0 -> 1 -> ... -> d-1 with optional reverse links.

    The chain stores edges (k+1, k): node k is the parent of node k+1.  A
    double link at chain position k adds the reverse edge (k, k+1).  By
    default every third chain position carries a double link; pass an
    explicit iterable of positions (subset of 0..d-2) to override, or an
    empty iterable for a pure chain.
    """
    if d < 2:
        raise GraphError(f"chain needs at least 2 nodes, got {d}")
    if double_link_positions is None:
        double_link_positions = range(0, d - 1, 3)
    positions = sorted(set(int(k) for k in double_link_positions))
    for k in positions:
        if not 0 <= k <= d - 2:
            raise GraphError(
                f"double link position {k} outside chain positions 0..{d - 2}")
    edges = [(k + 1, k) for k in range(d - 1)]
    edges.extend((k, k + 1) for k in positions)
    return DirectedGraph(d=d, edges=tuple(edges))


def sbm(block_sizes, p_in: float, p_ex: float, seed: int) -> DirectedGraph:
    """Stochastic block model on sum(block_sizes) nodes.

    Ordered pairs inside a block are edges with probability p_in, pairs
    across blocks with probability p_ex.  Node labels follow block order.
    """
    sizes = [int(s) for s in block_sizes]
    if any(s < 1 for s in sizes):
        raise BlockSizeMismatchError(f"block sizes must be positive, got {sizes}")
    for name, p in (("p_in", p_in), ("p_ex", p_ex)):
        if not 0.0 <= p <= 1.0:
            raise InvalidProbabilityError(f"{name} must lie in [0, 1], got {p}")
    d = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    draw = rng.random((d, d))
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_ex)
    edges = [(i, j) for i in range(d) for j in range(d)
             if i != j and draw[i, j] < prob[i, j]]
    return DirectedGraph(d=d, edges=tuple(edges))


def block_labels(block_sizes) -> np.ndarray:
    """Ground-truth block label per node for a block-model graph."""
    sizes = [int(s) for s in block_sizes]
    return np.repeat(np.arange(len(sizes)), sizes)


# ---------------------------------------------------------------------------
# stability margin


def largest_singular_value(b: np.ndarray) -> float:
    """Largest singular value of a square matrix (dense SVD)."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {b.shape}")
    return float(np.linalg.svd(b, compute_uv=False)[0])


def ergodicity_margin(mu, b, mode: str = "singular") -> float:
    """Stability margin of the linear part of a networked diffusion.

    Args:
        mu: length-d vector of positive mean-reversion rates.
        b: d x d network coefficient matrix (zero diagonal in network
            positions).
        mode: "singular" returns min(mu) - tau_max(b) where tau_max is the
            largest singular value; "rowsum" returns min(mu) - max row sum
            of b, a certificate that is only meaningful for non-negative
            symmetric b.

    A positive margin certifies geometric ergodicity of the model.
    """
    mu = np.asarray(mu, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {b.shape}")
    if mu.shape != (b.shape[0],):
        raise DimensionMismatchError(
            f"mu has length {mu.shape}, matrix is {b.shape[0]} x {b.shape[0]}")
    if np.any(mu <= 0.0):
        raise GraphError("mean-reversion rates must be positive")
    if mode == "singular":
        return float(mu.min() - largest_singular_value(b))
    if mode == "rowsum":
        return float(mu.min() - b.sum(axis=1).max())
    raise GraphError(f"unknown margin mode {mode!r}")


# ---------------------------------------------------------------------------
# degree summaries


@dataclass(frozen=True)
class DegreeHistogram:
    """Per-node in/out degrees plus a histogram of total degree."""

    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]
    histogram: dict[int, int]


def degree_distribution(g: DirectedGraph) -> DegreeHistogram:
    """In-degree = number of parents, out-degree = number of children.

    The histogram maps total degree (in + out) to node count.
    """
    ins = [0] * g.d
    outs = [0] * g.d
    for i, j in g.edges:
        ins[i] += 1
        outs[j] += 1
    hist: dict[int, int] = {}
    for k in range(g.d):
        t = ins[k] + outs[k]
        hist[t] = hist.get(t, 0) + 1
    return DegreeHistogram(in_degrees=tuple(ins), out_degrees=tuple(outs),
                           histogram=hist)


# ---------------------------------------------------------------------------
# serialization


def to_edge_list_text(g: DirectedGraph) -> str:
    """Plain-text edge list: '# d=<n>' header then one 'i j' line per edge."""
    lines = [f"# d={g.d}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> DirectedGraph:
    """Parse the format written by to_edge_list_text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("#"):
        raise GraphError("missing '# d=<n>' header line")
    header = lines[0].lstrip("#").strip()
    if not header.startswith("d="):
        raise GraphError(f"malformed header {lines[0]!r}")
    d = int(header[2:])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(d, edges)


def to_dot(g: DirectedGraph) -> str:
    """Graphviz digraph; arrows point from parent to child (direction of influence)."""
    lines = ["digraph g {"]
    lines.extend(f"  {k};" for k in range(g.d))
    lines.extend(f"  {j} -> {i};" for i, j in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: DirectedGraph) -> str:
    return json.dumps({"d": g.d, "edges": [[i, j] for i, j in g.edges]})


def from_json(text: str) -> DirectedGraph:
    obj = json.loads(text)
    return build_graph(obj["d"], obj["edges"])
