"""Array predicates against the original per-edge reference code.

The library evaluates the layer swap and every predicate built on it as
whole-array expressions over the (E, 2) edge array.  The functions below are
the earlier per-edge versions, one Python step per edge through
``vertex_label``/``vertex_index``; they are kept here only as an oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    DimensionProfile,
    MultipartiteGraph,
    SplitMix64,
    adjacency_matrix,
    check_theorem_conditions,
    gen_partially_symmetric,
    gtpt,
    is_degree_symmetric,
    is_partially_symmetric,
    swap_edge,
    swap_edges,
    vertex_index,
    vertex_label,
)

PROFILES = [(2, 2), (3, 4), (2, 2, 2), (2, 3, 2), (3, 2, 2), (4, 2, 3), (2, 2, 2, 2), (2, 3, 2, 2)]


# -- per-edge reference ----------------------------------------------------


def ref_swap_edge(profile, edge, axis):
    a, b = edge
    la = list(vertex_label(a, profile))
    lb = list(vertex_label(b, profile))
    if la[axis - 1] == lb[axis - 1]:
        return (a, b) if a < b else (b, a)
    la[axis - 1], lb[axis - 1] = lb[axis - 1], la[axis - 1]
    na = vertex_index(tuple(la), profile)
    nb = vertex_index(tuple(lb), profile)
    return (na, nb) if na < nb else (nb, na)


def ref_partial_symmetry(graph, axis):
    """(symmetric, violating edge, missing partner) of the first failing edge."""
    for edge in sorted(graph.edges):
        partner = ref_swap_edge(graph.profile, edge, axis)
        if partner not in graph.edges:
            return False, edge, partner
    return True, None, None


def ref_intra_layer_edges(graph):
    profile = graph.profile
    return tuple(
        e
        for e in sorted(graph.edges)
        if vertex_label(e[0], profile)[0] == vertex_label(e[1], profile)[0]
    )


def ref_degree_sequence(graph):
    deg = np.zeros(graph.num_vertices, dtype=np.int64)
    for a, b in graph.edges:
        deg[a - 1] += 1
        deg[b - 1] += 1
    return deg


def ref_gtpt(graph, axis):
    images = {ref_swap_edge(graph.profile, e, axis) for e in graph.edges}
    return MultipartiteGraph(graph.profile, images)


def ref_degree_changes(graph, axis):
    before = ref_degree_sequence(graph)
    after = ref_degree_sequence(ref_gtpt(graph, axis))
    return tuple(
        (int(v) + 1, int(before[v]), int(after[v]))
        for v in np.nonzero(before != after)[0]
    )


def ref_adjacency_matrix(graph):
    total = graph.num_vertices
    mat = np.zeros((total, total), dtype=np.int64)
    for a, b in graph.edges:
        mat[a - 1, b - 1] = 1
        mat[b - 1, a - 1] = 1
    return mat


def ref_gen_partially_symmetric(profile, edge_budget, seed):
    """The swap closure inserted one drawn edge at a time."""
    rng = SplitMix64(seed)
    total = profile.total
    edges = set()
    for _ in range(edge_budget):
        a = rng.randint(1, total)
        b = rng.randint(1, total - 1)
        if b >= a:
            b += 1
        edge = (a, b) if a < b else (b, a)
        edges.add(edge)
        edges.add(ref_swap_edge(profile, edge, 1))
    return MultipartiteGraph(profile, edges)


# -- strategies -------------------------------------------------------------


@st.composite
def graphs(draw):
    """A random graph; half of the draws are closed under one axis swap."""
    profile = DimensionProfile(draw(st.sampled_from(PROFILES)))
    total = profile.total
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, total), st.integers(1, total)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=3 * total,
        )
    )
    edges = {(min(p), max(p)) for p in pairs}
    if draw(st.booleans()):
        axis = draw(st.integers(1, profile.n))
        edges |= {ref_swap_edge(profile, e, axis) for e in edges}
    return MultipartiteGraph(profile, edges)


# -- properties -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_partial_symmetry_matches_reference(graph):
    for axis in range(1, graph.profile.n + 1):
        report = is_partially_symmetric(graph, axis)
        got = (report.symmetric, report.violating_edge, report.missing_partner)
        assert got == ref_partial_symmetry(graph, axis)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_degree_symmetry_matches_reference(graph):
    for axis in range(1, graph.profile.n + 1):
        report = is_degree_symmetric(graph, axis)
        changed = ref_degree_changes(graph, axis)
        assert report.changed == changed
        assert report.symmetric == (not changed)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_swap_and_gtpt_match_reference(graph):
    profile = graph.profile
    edges = sorted(graph.edges)
    for axis in range(1, profile.n + 1):
        expected = [ref_swap_edge(profile, e, axis) for e in edges]
        images = swap_edges(profile, graph.edge_array(), axis)
        assert list(map(tuple, images.tolist())) == expected
        assert [swap_edge(profile, e, axis) for e in edges] == expected
        assert gtpt(graph, axis) == ref_gtpt(graph, axis)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_intra_layer_edges_and_degrees_match_reference(graph):
    report = check_theorem_conditions(graph)
    assert report.intra_layer_edges == ref_intra_layer_edges(graph)
    assert report.no_intra_layer_edges == (not ref_intra_layer_edges(graph))
    degrees = graph.degree_sequence()
    assert degrees.dtype == np.int64
    assert np.array_equal(degrees, ref_degree_sequence(graph))
    assert np.array_equal(adjacency_matrix(graph), ref_adjacency_matrix(graph))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PROFILES),
    st.integers(0, 24),
    st.integers(0, 2**64 - 1),
)
def test_gen_partially_symmetric_matches_reference(dims, budget, seed):
    profile = DimensionProfile(dims)
    assert gen_partially_symmetric(profile, budget, seed) == ref_gen_partially_symmetric(
        profile, budget, seed
    )
