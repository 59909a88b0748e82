"""Layer-swap rewrite and the symmetry predicates."""

import numpy as np
import pytest

from graphsep import (
    ConstructionError,
    DimensionProfile,
    MultipartiteGraph,
    SplitMix64,
    gen_partially_symmetric,
    gen_theorem_graph,
    gtpt,
    gtpt_matrix_identity,
    is_degree_symmetric,
    is_partially_symmetric,
    swap_edge,
    swap_edges,
)
from graphsep import transforms


def random_graph(profile, seed, max_edges=12):
    """Plain seeded random simple graph (no symmetry imposed)."""
    rng = SplitMix64(seed)
    total = profile.total
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        a = rng.randint(1, total)
        b = rng.randint(1, total - 1)
        if b >= a:
            b += 1
        edges.add((min(a, b), max(a, b)))
    return MultipartiteGraph(profile, edges)


class TestGtpt:
    def test_cross_edge_swaps_first_coordinates(self, profile222):
        g = MultipartiteGraph(profile222, [(1, 6)])  # (1,1,1)-(2,1,2)
        assert gtpt(g, 1).edge_array().tolist() == [[2, 5]]  # (1,1,2)-(2,1,1)

    def test_intra_layer_edges_unchanged(self, profile222):
        g = MultipartiteGraph(profile222, [(1, 2), (3, 4), (5, 8)])
        assert gtpt(g, 1) == g

    def test_fixed_point_pair(self, profile222):
        g = MultipartiteGraph(profile222, [(1, 6), (2, 5)])
        assert gtpt(g, 1) == g

    def test_axis_out_of_range(self, profile222):
        with pytest.raises(ValueError, match="axis 4"):
            gtpt(MultipartiteGraph(profile222), 4)

    def test_other_axes(self, profile222):
        g = MultipartiteGraph(profile222, [(1, 4)])  # (1,1,1)-(1,2,2)
        assert gtpt(g, 2).edge_array().tolist() == [[2, 3]]  # (1,1,2)-(1,2,1)
        assert gtpt(g, 3).edge_array().tolist() == [[2, 3]]

    def test_involution_and_edge_count(self):
        profiles = [DimensionProfile(d) for d in [(2, 2, 2), (2, 3, 2), (3, 2), (2, 2, 2, 2)]]
        for seed in range(60):
            profile = profiles[seed % len(profiles)]
            g = random_graph(profile, seed)
            for axis in range(1, profile.n + 1):
                image = gtpt(g, axis)
                assert image.num_edges == g.num_edges
                assert gtpt(image, axis) == g

    def test_swap_edge_matches_gtpt(self, profile222):
        g = random_graph(profile222, 99)
        image_edges = {swap_edge(profile222, e, 1) for e in g.edges}
        assert image_edges == set(gtpt(g, 1).edges)


class TestDegreeSymmetry:
    def test_empty_graph(self, profile222):
        assert is_degree_symmetric(MultipartiteGraph(profile222), 1)

    def test_single_cross_edge_fails_with_deltas(self, profile222):
        report = is_degree_symmetric(MultipartiteGraph(profile222, [(1, 6)]), 1)
        assert not report
        assert (1, 1, 0) in report.changed
        assert (2, 0, 1) in report.changed

    def test_fixed_point_is_degree_symmetric(self, profile222):
        assert is_degree_symmetric(
            MultipartiteGraph(profile222, [(1, 6), (2, 5)]), 1
        )


class TestPartialSymmetry:
    def test_single_cross_edge(self, profile222):
        report = is_partially_symmetric(MultipartiteGraph(profile222, [(1, 6)]), 1)
        assert not report
        assert report.violating_edge == (1, 6)
        assert report.missing_partner == (2, 5)

    def test_partner_closure(self, profile222):
        assert is_partially_symmetric(
            MultipartiteGraph(profile222, [(1, 6), (2, 5)]), 1
        )

    def test_matching_is_partially_symmetric(self, m222):
        assert is_partially_symmetric(m222, 1)

    def test_equivalent_to_fixed_point(self):
        profile = DimensionProfile((2, 3, 2))
        for seed in range(40):
            g = random_graph(profile, seed)
            assert is_partially_symmetric(g, 1).symmetric == (gtpt(g, 1) == g)

    def test_partial_symmetry_implies_degree_symmetry(self):
        # Small version of the property; the acceptance suite runs >= 200.
        profile = DimensionProfile((2, 2, 2))
        for seed in range(50):
            g = gen_partially_symmetric(profile, 5, seed)
            assert is_partially_symmetric(g, 1)
            assert is_degree_symmetric(g, 1)


class TestMatrixIdentity:
    def test_empty_graph(self, profile222):
        assert gtpt_matrix_identity(MultipartiteGraph(profile222), 1)

    def test_single_edge(self, profile222):
        report = gtpt_matrix_identity(MultipartiteGraph(profile222, [(1, 6)]), 1)
        assert report.holds and report.first_difference is None

    def test_seeded_sweep(self):
        for dims in [(2, 2, 2), (2, 3, 2)]:
            profile = DimensionProfile(dims)
            for seed in range(50):
                g = random_graph(profile, 1000 + seed)
                for axis in range(1, profile.n + 1):
                    assert gtpt_matrix_identity(g, axis)


# -- the swap against a round trip through label coordinates -----------------


def swap_edges_by_coordinates(profile, edges, axis):
    """Oracle: vertex numbers to label coordinates, the axis column exchanged
    between the endpoints, and back to vertex numbers."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    coords = np.array(np.unravel_index(edges - 1, profile.dims))  # (n, E, 2)
    coords[axis - 1] = coords[axis - 1, :, ::-1]
    a, b = (np.ravel_multi_index(tuple(coords), profile.dims) + 1).T
    return np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)


REWRITE_GRAPHS = {
    "psym-16x8x8": lambda: gen_partially_symmetric(DimensionProfile((16, 8, 8)), 1200, 3),
    "theorem-4x16x16": lambda: gen_theorem_graph(DimensionProfile((4, 16, 16)), 1),
    "theorem-2x4x4x4x4": lambda: gen_theorem_graph(DimensionProfile((2, 4, 4, 4, 4)), 1),
    "theorem-2^8": lambda: gen_theorem_graph(DimensionProfile((2,) * 8), 1),
    "empty-2x2x2": lambda: MultipartiteGraph(DimensionProfile((2, 2, 2))),
}


@pytest.mark.parametrize("name", list(REWRITE_GRAPHS))
def test_swap_edges_matches_coordinate_round_trip(name):
    graph = REWRITE_GRAPHS[name]()
    profile, edges = graph.profile, graph.edge_array()
    reversed_rows = edges[:, ::-1]
    for axis in range(1, profile.n + 1):
        expected = swap_edges_by_coordinates(profile, edges, axis)
        got = swap_edges(profile, edges, axis)
        assert got.dtype == np.int64 and got.shape == (graph.num_edges, 2)
        assert np.array_equal(got, expected)
        assert np.array_equal(swap_edges(profile, reversed_rows, axis), expected)
        assert gtpt(graph, axis) == MultipartiteGraph(profile, expected)


@pytest.mark.parametrize("name", list(REWRITE_GRAPHS))
def test_swap_edges_rejects_an_axis_out_of_range(name):
    graph = REWRITE_GRAPHS[name]()
    n = graph.profile.n
    for axis in (0, n + 1):
        with pytest.raises(ValueError, match=f"axis {axis} out of range 1..{n}"):
            swap_edges(graph.profile, graph.edge_array(), axis)
        with pytest.raises(ValueError, match=f"axis {axis} out of range 1..{n}"):
            gtpt(graph, axis)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4, 4, 4, 4)])
def test_swap_edges_rejects_vertex_numbers_out_of_range(dims):
    profile = DimensionProfile(dims)
    total = profile.total
    for bad in (0, total + 1, -1):
        for pair in ([bad, 1], [2, bad]):
            for axis in (1, profile.n):
                with pytest.raises(ValueError):
                    swap_edges(profile, [[1, 2], pair], axis)


def test_swap_edges_reads_no_label_coordinates(monkeypatch):
    graph = gen_theorem_graph(DimensionProfile((2, 4, 4)), 1)

    def refuse(*args, **kwargs):
        raise AssertionError("swap_edges went through label coordinates")

    monkeypatch.setattr(np, "unravel_index", refuse)
    monkeypatch.setattr(np, "ravel_multi_index", refuse)
    for axis in (1, 2, 3):
        swap_edges(graph.profile, graph.edge_array(), axis)


def test_gtpt_refuses_a_rewrite_that_collapses_edges(profile222, monkeypatch):
    graph = MultipartiteGraph(profile222, [(1, 6), (2, 5), (3, 4)])

    def collapse(profile, edges, axis=1):
        return np.array([[2, 5], [2, 5], [3, 4]], dtype=np.int64)

    monkeypatch.setattr(transforms, "swap_edges", collapse)
    with pytest.raises(ConstructionError, match=r"^axis-1 rewrite collapsed 3 edges into 2$"):
        gtpt(graph, 1)
