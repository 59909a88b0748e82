"""Dense V x V kernels against the whole-matrix formulas they replace.

Each oracle below is the earlier whole-matrix expression: ρ as
``(D ± A) / float(2|E|)``, symmetry as ``np.max(np.abs(m - m.T))``, and the
rewrite identity and the transfer as entrywise comparisons of two V x V
matrices, one of them a copied partial transpose.  The memory pins check
that the kernels make no V x V temporary.
The PPT section checks the edge test that decides ``graphsep decompose``'s
PPT verdicts against the dense partial transpose and ``ppt_check``.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    DensityMatrix,
    DimensionProfile,
    MultipartiteGraph,
    adjacency_matrix,
    check_theorem_conditions,
    density_matrix,
    gen_degree_symmetric_only,
    gen_partially_symmetric,
    gen_theorem_graph,
    gtpt_matrix_identity,
    is_degree_symmetric,
    is_partially_symmetric,
    laplacian,
    partial_transpose_matrix,
    ppt_check,
    signless_laplacian,
    theorem1_transfer,
)
from graphsep import separability, transforms
from graphsep.graphs import SYMMETRY_TILE, max_asymmetry
from graphsep.linalg import require_symmetric
from test_separability import FACTOR_PROFILES

MiB = 2**20
ORACLE_BASES = {"combinatorial": laplacian, "signless": signless_laplacian}
# The three V = 1024 graphs of the check-corpus benchmark workload.
CAP_GRAPHS = {
    "psym-4x16x16": lambda seed: gen_partially_symmetric(DimensionProfile((4, 16, 16)), 1200, seed),
    "psym-16x8x8": lambda seed: gen_partially_symmetric(DimensionProfile((16, 8, 8)), 1200, seed),
    "dsym-16x8x8": lambda seed: gen_degree_symmetric_only(DimensionProfile((16, 8, 8)), seed),
}


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def assert_rho_matches_oracle(graph):
    for kind, base in ORACLE_BASES.items():
        expected = base(graph) / float(2 * graph.num_edges)
        assert_same_bits(density_matrix(graph, kind).matrix, expected)


def random_graph(profile, rng):
    """At least one edge; up to half of all pairs, or 4 per vertex."""
    total = profile.total
    count = int(rng.integers(1, min(total * (total - 1) // 4, 4 * total) + 2))
    a = rng.integers(1, total + 1, size=count)
    b = (a + rng.integers(1, total, size=count) - 1) % total + 1
    return MultipartiteGraph(profile, np.stack([a, b], axis=1))


# -- rho written from the edge array ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FACTOR_PROFILES), st.integers(0, 2**31 - 1))
def test_rho_is_bitwise_the_laplacian_quotient(dims, seed):
    assert_rho_matches_oracle(random_graph(DimensionProfile(dims), np.random.default_rng(seed)))


@pytest.mark.parametrize("name", sorted(CAP_GRAPHS))
def test_rho_is_bitwise_the_laplacian_quotient_at_the_cap(name):
    graph = CAP_GRAPHS[name](7)
    assert graph.num_vertices == 1024 and graph.num_edges > 0
    assert_rho_matches_oracle(graph)


# -- tiled symmetry kernel ------------------------------------------------------


def whole_matrix_asymmetry(mat):
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(mat - mat.T)))


def assert_same_asymmetry(mat):
    got, expected = max_asymmetry(mat), whole_matrix_asymmetry(mat)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def near_symmetric(order, rng):
    """A symmetric matrix with a few entries nudged on one side only."""
    s = rng.standard_normal((order, order))
    mat = s + s.T
    for _ in range(3):
        i, j = rng.integers(0, order, size=2)
        mat[i, j] += rng.standard_normal() * 1e-13
    return mat


ORDERS = [1, 2, SYMMETRY_TILE - 1, SYMMETRY_TILE, SYMMETRY_TILE + 1, 511, 513, 1024]


@pytest.mark.parametrize("order", ORDERS)
def test_symmetry_kernel_matches_whole_matrix_formula(order):
    rng = np.random.default_rng(order)
    assert_same_asymmetry(near_symmetric(order, rng))
    assert_same_asymmetry(rng.standard_normal((order, order)))
    assert_same_asymmetry(np.zeros((order, order)))
    last = order - 1
    # Diagonal, upper and lower triangle, and the last partial tile.
    spots = [(0, 0), (last, last), (0, last), (last, 0), (last, last // 2), (last // 2, last)]
    for value in (math.nan, math.inf, -math.inf):
        for spot in spots:
            mat = near_symmetric(order, rng)
            mat[spot] = value
            assert_same_asymmetry(mat)
            mat[spot[::-1]] = value  # inf - inf is NaN; NaN - NaN too
            assert_same_asymmetry(mat)
            mat[spot[::-1]] = -value
            assert_same_asymmetry(mat)


def test_symmetry_kernel_of_empty_matrix_is_zero():
    assert max_asymmetry(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("dims", [(2, 2), (3, 3, 57), (16, 8, 8)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e-12])
def test_symmetry_messages_are_unchanged(dims, value):
    profile = DimensionProfile(dims)
    mat = np.eye(profile.total) / profile.total
    mat[profile.total - 1, profile.total // 2] += value  # last row of tiles
    with pytest.raises(ValueError) as info:
        DensityMatrix(mat, profile, "signless")
    assert str(info.value) == "density matrix must be finite and symmetric within 1e-12"
    with pytest.raises(ValueError) as info:
        require_symmetric(mat)
    assert str(info.value) == "matrix is not finite and symmetric within 1e-12"


# -- rewrite identity against the dense comparison -----------------------------


def dense_identity_witness(graph, axis):
    """The earlier dense comparison: a copied partial transpose, entrywise."""
    lhs = adjacency_matrix(transforms.gtpt(graph, axis))
    rhs = partial_transpose_matrix(adjacency_matrix(graph), graph.profile, axis)
    if np.array_equal(lhs, rhs):
        return None
    rows, cols = np.nonzero(lhs != rhs)
    r, c = int(rows[0]), int(cols[0])
    return (r + 1, c + 1, int(lhs[r, c]), int(rhs[r, c]))


def moved_one_edge(rng):
    """The true rewrite with one of its edges (if it has any) dropped and a
    pair that is no edge of it added."""
    rewrite = transforms.gtpt

    def moved(g, axis=1):
        edges = set(rewrite(g, axis).edges)
        while True:
            a, b = sorted(rng.choice(g.num_vertices, size=2, replace=False).tolist())
            if (a + 1, b + 1) not in edges:
                break
        if edges:
            edges.remove(sorted(edges)[int(rng.integers(len(edges)))])
        return MultipartiteGraph(g.profile, edges | {(a + 1, b + 1)})

    return moved


def assert_identity_matches_dense_comparison(graph, rng, monkeypatch):
    """The true rewrite passes on every axis; a rewrite with one moved edge
    fails on every axis with the dense comparison's witness."""
    for axis in range(1, graph.profile.n + 1):
        assert gtpt_matrix_identity(graph, axis).holds
        assert dense_identity_witness(graph, axis) is None
    with monkeypatch.context() as patch:
        patch.setattr(transforms, "gtpt", moved_one_edge(rng))
        for axis in range(1, graph.profile.n + 1):
            state = rng.bit_generator.state
            report = gtpt_matrix_identity(graph, axis)
            rng.bit_generator.state = state  # the oracle sees the same moved edge
            expected = dense_identity_witness(graph, axis)
            assert not report.holds and expected is not None
            assert report.first_difference == expected


@pytest.mark.parametrize("seed", range(12))
def test_identity_witness_matches_dense_comparison(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    dims = [(2, 2, 2), (2, 3, 4), (3, 2, 2, 2), (4, 4, 4), (16, 8, 8)][seed % 5]
    assert_identity_matches_dense_comparison(random_graph(DimensionProfile(dims), rng), rng, monkeypatch)


IDENTITY_GRAPHS = {
    **CAP_GRAPHS,
    "theorem-4x16x16": lambda seed: gen_theorem_graph(DimensionProfile((4, 16, 16)), seed),
    "theorem-2x8x8x8": lambda seed: gen_theorem_graph(DimensionProfile((2, 8, 8, 8)), seed),
    "empty-2x2x2": lambda seed: MultipartiteGraph(DimensionProfile((2, 2, 2))),
    "one-edge-2x2x2": lambda seed: MultipartiteGraph(DimensionProfile((2, 2, 2)), [(2, 7)]),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_identity_witness_matches_dense_comparison_on_named_graphs(name, monkeypatch):
    graph = IDENTITY_GRAPHS[name](1)
    assert_identity_matches_dense_comparison(graph, np.random.default_rng(5), monkeypatch)


@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_identity_rejects_an_axis_out_of_range(name):
    graph = IDENTITY_GRAPHS[name](1)
    n = graph.profile.n
    for axis in (0, n + 1):
        with pytest.raises(ValueError, match=rf"^axis {axis} out of range 1\.\.{n}$"):
            gtpt_matrix_identity(graph, axis)


# -- memory: no V x V temporaries --------------------------------------------------


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_density_matrix_peak_is_its_array():
    graph = CAP_GRAPHS["psym-16x8x8"](3)
    total = graph.num_vertices
    peak = traced_peak(lambda: density_matrix(graph, "signless"))
    assert peak <= 8 * total * total + MiB


def test_density_matrix_keeps_the_array_it_wrote():
    # density_matrix hands its read-only array to DensityMatrix uncopied:
    # at V = 1024 the peak is one 8 MiB matrix and the edge arithmetic.
    graph = gen_theorem_graph(DimensionProfile((4, 16, 16)), 1)
    assert traced_peak(lambda: density_matrix(graph, "signless")) < 12 * MiB


def test_density_matrix_copies_an_array_a_caller_can_write():
    graph = gen_theorem_graph(DimensionProfile((2, 2, 2)), 1)
    expected = density_matrix(graph).matrix
    writable = np.array(expected)
    read_only_view = writable.view()
    read_only_view.setflags(write=False)
    kept = [DensityMatrix(m, graph.profile, "combinatorial").matrix for m in (writable, read_only_view)]
    writable[:] = 5.0
    for matrix in kept:
        assert not matrix.flags.writeable
        assert np.array_equal(matrix, expected)


def test_require_symmetric_adds_at_most_one_mib():
    graph = CAP_GRAPHS["psym-16x8x8"](3)
    mat = np.array(density_matrix(graph, "signless").matrix)
    assert traced_peak(lambda: require_symmetric(mat)) <= MiB


def test_identity_peak_is_two_one_byte_matrices():
    graph = CAP_GRAPHS["psym-16x8x8"](3)
    total = graph.num_vertices
    for axis in (1, 3):
        peak = traced_peak(lambda: gtpt_matrix_identity(graph, axis))
        assert peak <= 2 * total * total + MiB


def test_identity_peak_has_no_v_by_v_array():
    # The identity compares the 2|E| nonzero positions of both sides; two
    # one-byte V x V matrices alone would be 2 MiB here.
    graph = CAP_GRAPHS["psym-16x8x8"](3)
    for axis in (1, 3):
        assert traced_peak(lambda: gtpt_matrix_identity(graph, axis)) < MiB


def test_conditions_peak_has_no_v_by_v_array():
    # The block conditions work on the 2|E| nonzero entries of A; a V x V
    # int64 adjacency alone would be 8 MiB here.
    graph = CAP_GRAPHS["psym-16x8x8"](3)
    assert traced_peak(lambda: check_theorem_conditions(graph)) < 2 * MiB


# -- transfer identity against the dense comparison ----------------------------


def dense_transfer_difference(graph, axis):
    """The earlier dense comparison: a copied partial transpose, whole-matrix."""
    rho = density_matrix(graph, "combinatorial").matrix
    image = density_matrix(separability.gtpt(graph, axis), "combinatorial").matrix
    return float(np.max(np.abs(image - partial_transpose_matrix(rho, graph.profile, axis))))


def transfer_corpus():
    """The degree-symmetric graphs of acceptance criterion 4."""
    for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]:
        profile = DimensionProfile(dims)
        for seed in range(15):
            for graph in (
                gen_partially_symmetric(profile, 3 + seed % 4, seed),
                gen_degree_symmetric_only(profile, seed),
            ):
                if graph.num_edges:
                    yield graph


def moving_rewrites():
    """Random graphs with an axis whose rewrite keeps every degree but moves
    edges, so that the transfer compares two different matrices, and the
    perfect matching of (2, 2, 2), which is 1-regular."""
    rng = np.random.default_rng(0)
    for dims in [(2, 2, 2), (3, 3)]:
        profile = DimensionProfile(dims)
        found = 0
        while found < 10:
            graph = random_graph(profile, rng)
            if any(
                is_degree_symmetric(graph, axis) and not is_partially_symmetric(graph, axis)
                for axis in range(1, profile.n + 1)
            ):
                found += 1
                yield graph
    yield MultipartiteGraph(DimensionProfile((2, 2, 2)), [(1, 5), (2, 6), (3, 7), (4, 8)])


def rewrite_mutants():
    """Wrong rewrites that leave a nonzero difference to compare, so that
    each of its terms decides the maximum somewhere: the true rewrite with
    its first edge dropped (the moved A holds a position the image lacks),
    with the first pair that is no edge of it added (the converse), with
    that edge moved to that pair (both, |E| kept), and the complete graph
    (which makes the difference on shared positions the largest on a
    regular graph; small profiles only)."""
    rewrite = separability.gtpt

    def first_non_edge(g, edges):
        total = g.num_vertices
        return next(
            (a, b) for a in range(1, total + 1) for b in range(a + 1, total + 1) if (a, b) not in edges
        )

    def drop_first_edge(g, axis=1):
        return MultipartiteGraph(g.profile, rewrite(g, axis).edge_array()[1:])

    def add_first_non_edge(g, axis=1):
        edges = rewrite(g, axis).edges
        return MultipartiteGraph(g.profile, sorted(edges) + [first_non_edge(g, edges)])

    def move_first_edge(g, axis=1):
        edges = rewrite(g, axis).edges
        return MultipartiteGraph(g.profile, sorted(edges)[1:] + [first_non_edge(g, edges)])

    def complete(g, axis=1):
        total = g.num_vertices
        return MultipartiteGraph(g.profile, itertools.combinations(range(1, total + 1), 2))

    return {"drop": drop_first_edge, "add": add_first_non_edge, "move": move_first_edge, "complete": complete}


def assert_transfer_is_the_dense_formula(graph, axis):
    got = theorem1_transfer(graph, axis)
    expected = dense_transfer_difference(graph, axis)
    assert got.holds == (expected <= 1e-12)
    assert np.float64(got.max_difference).tobytes() == np.float64(expected).tobytes()
    return got, expected


def test_transfer_difference_is_bitwise_the_dense_formula(monkeypatch):
    graphs = [
        *transfer_corpus(),
        *moving_rewrites(),
        *(make(seed) for seed in (3, 7) for make in CAP_GRAPHS.values()),
    ]
    cases = [
        (graph, axis)
        for graph in graphs
        for axis in range(1, graph.profile.n + 1)
        if is_degree_symmetric(graph, axis)
    ]
    assert len(cases) >= 100
    assert sum(graph.num_vertices == 1024 for graph, _ in cases) >= 6
    assert sum(not is_partially_symmetric(graph, axis) for graph, axis in cases) >= 20
    for graph, axis in cases:
        got, expected = assert_transfer_is_the_dense_formula(graph, axis)
        assert expected == 0.0 and got.image == transforms.gtpt(graph, axis)
    for name, mutant in rewrite_mutants().items():
        with monkeypatch.context() as patch:
            patch.setattr(separability, "gtpt", mutant)
            for graph, axis in cases:
                if graph.num_edges > 1 and (name != "complete" or graph.num_vertices <= 16):
                    got, expected = assert_transfer_is_the_dense_formula(graph, axis)
                    assert expected > 0.0 and not got.holds


def test_transfer_of_the_empty_graph_has_no_density_matrix():
    graph = MultipartiteGraph(DimensionProfile((2, 2, 2)))
    with pytest.raises(ValueError) as info:
        theorem1_transfer(graph)
    assert str(info.value) == "empty graph has zero trace: no density matrix is defined"


def test_transfer_peak_has_no_v_by_v_array():
    # The transfer reads the positions the rewrite identity compares; one
    # V x V float matrix alone would be 8 MiB here.
    graph = CAP_GRAPHS["psym-16x8x8"](3)
    assert is_degree_symmetric(graph, 1)
    assert traced_peak(lambda: theorem1_transfer(graph, 1)) < MiB


# -- PPT verdicts from the edge array -----------------------------------------

# Partial transpose on axis k keeps D and maps A(G) to A(gtpt_k G), so the
# edge test must agree exactly with comparing the dense partial transpose of
# rho_Q to rho_Q; rho_Q = (R R^T) / 2|E| is PSD, so wherever they agree on
# "unchanged", the dense PPT check must pass.
PPT_PROFILES = [
    (2, 2), (2, 2, 2), (3, 2, 2), (2, 3, 4), (4, 4, 4), (2, 2, 64), (2, 4, 4, 4, 4), (4, 16, 16)
]
PPT_FAMILIES = {
    "theorem": gen_theorem_graph,
    "psym": lambda profile, seed: gen_partially_symmetric(profile, profile.total, seed),
    "dsym": gen_degree_symmetric_only,
}


@pytest.mark.parametrize("dims", PPT_PROFILES)
@pytest.mark.parametrize("family", sorted(PPT_FAMILIES))
def test_edge_test_decides_the_dense_partial_transpose(family, dims):
    profile = DimensionProfile(dims)
    symmetric_axes = []
    for seed in range(3):
        graph = PPT_FAMILIES[family](profile, seed)
        rho = density_matrix(graph, "signless")
        for axis in range(1, profile.n + 1):
            symmetric = is_partially_symmetric(graph, axis).symmetric
            unchanged = np.array_equal(partial_transpose_matrix(rho.matrix, profile, axis), rho.matrix)
            assert symmetric == unchanged, (seed, axis)
            if symmetric:
                assert ppt_check(rho, axis), (seed, axis)
                symmetric_axes.append(axis)
    # Both verdicts occur: theorem graphs are fixed by every rewrite, the
    # psym and dsym draws by the axis-1 rewrite only, which for n = 2 fixes
    # axis 2 as well (PT_2 A = (PT_1 A)^T).
    expected = range(1, profile.n + 1) if family == "theorem" or profile.n == 2 else [1]
    assert symmetric_axes == 3 * list(expected)
