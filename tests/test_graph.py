import numpy as np
import pytest

from netsde.experiments import StudyError, study_graph
from netsde.graph import (BlockSizeMismatchError, DirectedGraph,
                          DuplicateEdgeError, GraphError,
                          IndexOutOfRangeError, InvalidProbabilityError,
                          NonSquareError, SelfLoopError, block_labels,
                          build_graph, complete_graph, degree_distribution,
                          erdos_renyi, ergodicity_margin, from_edge_list_text,
                          from_json, largest_singular_value,
                          polymer, sbm, to_dot, to_edge_list_text, to_json)


def test_build_graph_basics():
    g = build_graph(4, [(1, 0), (2, 0), (2, 3)])
    assert g.d == 4
    assert g.n_edges == 3
    assert g.size == 7
    assert g.parents(2) == (0, 3)
    assert g.parents(0) == ()
    assert g.has_edge(1, 0) and not g.has_edge(0, 1)
    a = g.adjacency()
    assert a.shape == (4, 4)
    assert a[2, 0] == 1.0 and a[2, 3] == 1.0 and a[0, 2] == 0.0
    assert a.sum() == 3.0


def test_build_graph_rejects_bad_edges():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(1, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(1, 0), (1, 0)])
    with pytest.raises(IndexOutOfRangeError):
        build_graph(3, [(1, 3)])
    with pytest.raises(IndexOutOfRangeError):
        build_graph(3, [(-1, 0)])
    with pytest.raises(GraphError):
        DirectedGraph(d=0, edges=())
    with pytest.raises(IndexOutOfRangeError):
        build_graph(3, [(0, 1)]).parents(5)


def test_complete_graph():
    g = complete_graph(4)
    assert g.n_edges == 12
    assert all(i != j for i, j in g.edges)
    assert g.adjacency().sum() == 12.0


def test_erdos_renyi_determinism_and_bounds():
    g1 = erdos_renyi(10, 0.25, seed=7)
    g2 = erdos_renyi(10, 0.25, seed=7)
    assert g1 == g2
    g3 = erdos_renyi(10, 0.25, seed=8)
    assert g1 != g3
    assert erdos_renyi(10, 0.0, seed=1).n_edges == 0
    assert erdos_renyi(10, 1.0, seed=1).n_edges == 90
    with pytest.raises(InvalidProbabilityError):
        erdos_renyi(10, 1.5, seed=1)


def test_erdos_renyi_edge_frequency():
    # p=0.3 over 200 draws of a 6-node graph: overall edge share near p
    count = sum(erdos_renyi(6, 0.3, seed=s).n_edges for s in range(200))
    share = count / (200 * 30)
    assert abs(share - 0.3) < 0.02


def test_polymer_structure():
    g = polymer(12)
    chain = {(k + 1, k) for k in range(11)}
    doubles = {(k, k + 1) for k in (0, 3, 6, 9)}
    assert set(g.edges) == chain | doubles
    pure = polymer(5, double_link_positions=())
    assert set(pure.edges) == {(k + 1, k) for k in range(4)}
    custom = polymer(5, double_link_positions=[2])
    assert (2, 3) in custom.edges and (0, 1) not in custom.edges
    with pytest.raises(GraphError):
        polymer(1)
    with pytest.raises(GraphError):
        polymer(5, double_link_positions=[4])


def test_sbm_block_probabilities():
    sizes = [4, 11, 6]
    labels = block_labels(sizes)
    assert labels.shape == (21,)
    assert (labels[:4] == 0).all() and (labels[4:15] == 1).all()
    # high p_in / zero p_ex keeps every edge inside its block
    g = sbm(sizes, p_in=0.9, p_ex=0.0, seed=3)
    for i, j in g.edges:
        assert labels[i] == labels[j]
    with pytest.raises(BlockSizeMismatchError):
        sbm([3, 0], 0.5, 0.5, seed=0)
    with pytest.raises(InvalidProbabilityError):
        sbm([3, 3], -0.1, 0.5, seed=0)


def test_generate_dispatch():
    # graph kinds are dispatched by experiments.study_graph; each seeded kind
    # is exactly its generator
    g, _ = study_graph({"kind": "erdos_renyi", "d": 6, "p": 0.4, "seed": 1})
    assert g == erdos_renyi(6, 0.4, 1)
    g, _ = study_graph({"kind": "polymer", "d": 6})
    assert g == polymer(6)
    g, _ = study_graph({"kind": "sbm", "block_sizes": [3, 4], "p_in": 0.8,
                        "p_ex": 0.1, "seed": 2})
    assert g == sbm([3, 4], 0.8, 0.1, seed=2)
    with pytest.raises(StudyError):
        study_graph({"kind": "ring", "d": 6})


def test_largest_singular_value_against_dense_svd():
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        for _ in range(5):
            b = rng.standard_normal((d, d))
            want = float(np.linalg.svd(b, compute_uv=False)[0])
            got = largest_singular_value(b)
            assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_largest_singular_value_edge_cases():
    assert largest_singular_value(np.zeros((3, 3))) == 0.0
    # rank-one matrix with a large null space
    b = np.outer([1.0, 0.0, 0.0], [0.0, 2.0, 0.0])
    assert abs(largest_singular_value(b) - 2.0) <= 1e-8
    with pytest.raises(NonSquareError):
        largest_singular_value(np.zeros((2, 3)))


def test_ergodicity_margin_modes():
    # two-node loop at coupling 2: tau(B) = 2, max row sum = 2
    g = build_graph(2, [(0, 1), (1, 0)])
    b = 2.0 * g.adjacency()
    mu = np.array([7.0, 7.0])
    assert abs(ergodicity_margin(mu, b, mode="singular") - 5.0) <= 1e-10
    assert abs(ergodicity_margin(mu, b, mode="rowsum") - 5.0) <= 1e-10
    # asymmetric in-degrees separate the two certificates
    g2 = build_graph(3, [(0, 1), (0, 2)])
    b2 = 4.0 * g2.adjacency()
    m_sing = ergodicity_margin(mu[:1].repeat(3), b2, mode="singular")
    m_row = ergodicity_margin(mu[:1].repeat(3), b2, mode="rowsum")
    assert m_row < m_sing  # row sum 8 vs tau = 4*sqrt(2)
    with pytest.raises(GraphError):
        ergodicity_margin(np.array([0.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(GraphError):
        ergodicity_margin(mu, b, mode="spectral")


def test_degree_distribution():
    g = build_graph(4, [(1, 0), (2, 0), (2, 3)])
    deg = degree_distribution(g)
    assert deg.in_degrees == (0, 1, 2, 0)
    assert deg.out_degrees == (2, 0, 0, 1)
    assert deg.histogram == {2: 2, 1: 2}


def test_edge_list_round_trip():
    g = polymer(7, double_link_positions=[1, 4])
    text = to_edge_list_text(g)
    assert text.startswith("# d=7\n")
    assert from_edge_list_text(text) == g
    with pytest.raises(GraphError):
        from_edge_list_text("0 1\n")
    with pytest.raises(GraphError):
        from_edge_list_text("# d=3\n0 1 2\n")


def test_json_round_trip():
    g = erdos_renyi(9, 0.3, seed=5)
    assert from_json(to_json(g)) == g


def test_dot_output():
    g = build_graph(3, [(1, 0)])
    dot = to_dot(g)
    assert dot.startswith("digraph g {")
    # influence arrow runs parent -> child
    assert "0 -> 1;" in dot
