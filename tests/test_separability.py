"""Condition checks, the certified decomposition, verification, PPT, transfer."""

import functools
import gc
import itertools
import math
import re
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphsep import certificates, separability
from graphsep import (
    ConstructionError,
    DecompositionTerm,
    DensityMatrix,
    DimensionProfile,
    GraphFormatError,
    MultipartiteGraph,
    PreconditionError,
    SeparableDecomposition,
    adjacency_matrix,
    check_theorem_conditions,
    decompose,
    density_matrix,
    format_decomposition,
    gen_degree_symmetric_only,
    gen_partially_symmetric,
    gen_theorem_graph,
    gtpt,
    inf_norm,
    is_degree_symmetric,
    is_diagonally_dominant,
    is_partially_symmetric,
    is_psd,
    kron,
    parse_decomposition,
    ppt_check,
    theorem1_transfer,
    verify_decomposition,
    vertex_index,
)
from graphsep.textio import format_float
from test_golden_records import GOLDEN, per_term


def assemble_by_hand(decomposition):
    """Oracle: reassemble the convex combination with plain numpy loops."""
    total = decomposition.profile.total
    out = np.zeros((total, total))
    for term in decomposition.terms:
        product = np.asarray(term.factors[0], dtype=float)
        for factor in term.factors[1:]:
            product = np.kron(product, np.asarray(factor, dtype=float))
        out += term.weight * product
    return out


def peel_factors(graph):
    """Oracle: the factor peel the conditions check ran before it read the
    factors off its block reports.  It replaces the adjacency matrix by its
    nonzero-block indicator one axis at a time, keeping the first nonzero
    innermost block; the factors count only for a graph with edges, none
    inside a top layer, whose adjacency matrix is their Kronecker product."""
    adjacency = adjacency_matrix(graph)
    dims = graph.profile.dims
    layer = graph.profile.total // dims[0]
    if not graph.edges or any((a - 1) // layer == (b - 1) // layer for a, b in graph.edges):
        return None
    current = adjacency
    reversed_factors = []
    for inner in reversed(dims[1:]):
        pp = current.shape[0] // inner
        blocks = current.reshape(pp, inner, pp, inner).transpose(0, 2, 1, 3)
        nonzero = blocks.any(axis=(2, 3))
        row, col = np.argwhere(nonzero)[0]
        reversed_factors.append(blocks[row, col].copy())
        current = nonzero.astype(np.int64)
    factors = (current.copy(),) + tuple(reversed(reversed_factors))
    product = factors[0]
    for factor in factors[1:]:
        product = np.kron(product, factor)
    return factors if np.array_equal(product, adjacency) else None


def block_levels_by_scan(graph):
    """Oracle: per prefix depth, (uniform, first mismatch, common block) from
    a row-major scan of the blocks over distinct prefixes."""
    adjacency = adjacency_matrix(graph)
    dims = graph.profile.dims
    levels = []
    for level in range(1, len(dims)):
        prefixes = list(itertools.product(*(range(1, d + 1) for d in dims[:level])))
        size = math.prod(dims[level:])
        common = mismatch = None
        for r, row in enumerate(prefixes):
            for c, col in enumerate(prefixes):
                block = adjacency[r * size : (r + 1) * size, c * size : (c + 1) * size]
                if r == c or not block.any():
                    continue
                if common is None:
                    common = block
                elif mismatch is None and not np.array_equal(block, common):
                    mismatch = (row, col)
        levels.append((mismatch is None, mismatch, common))
    return levels


FACTOR_PROFILES = [
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (2, 4, 4),
    (4, 4, 4), (3, 4, 4), (2, 2, 4, 4), (2, 8, 2), (4, 2, 3), (2, 2, 2, 2, 2),
]


def assert_conditions_match_oracles(graph):
    """The report against the dense oracles, level by level (uniform, first
    mismatch) and factor by factor (values and dtype).  Where there are
    factors, the scan's common block at level z is F_{z+1} (x) ... (x) F_n."""
    report = check_theorem_conditions(graph)
    scanned = block_levels_by_scan(graph)
    assert len(report.block_levels) == len(scanned)
    for lv, (uniform, mismatch, _) in zip(report.block_levels, scanned):
        assert (lv.uniform, lv.first_mismatch) == (uniform, mismatch)
    expected = peel_factors(graph)
    factors = report.adjacency_factors
    if expected is None:
        assert factors is None
        return
    assert len(factors) == len(expected)
    for got, want in zip(factors, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for z, (_, _, common) in enumerate(scanned, start=1):
        assert np.array_equal(common, kron(factors[z:]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FACTOR_PROFILES), st.integers(0, 2**31 - 1), st.booleans(), st.data())
def test_conditions_match_block_scan_and_peel(dims, seed, remove, data):
    # A theorem graph, and the same graph with one edge removed, or with one
    # vertex pair toggled (an edge added unless the pair is already one).
    graph = gen_theorem_graph(DimensionProfile(dims), seed)
    if remove:
        pair = data.draw(st.sampled_from(sorted(graph.edges)))
    else:
        a = data.draw(st.integers(1, graph.profile.total - 1))
        pair = (a, data.draw(st.integers(a + 1, graph.profile.total)))
    changed = MultipartiteGraph(graph.profile, graph.edges ^ {pair})
    for g in (graph, changed):
        assert_conditions_match_oracles(g)


def intra_layer_mismatch_at_level_2():
    """On (2,2,2): each (1,y,z) joined to (2,y,z), so the two level-1 blocks
    are the identity, plus the intra-layer edge (1,1,1)-(1,2,2).  Level 1
    does not see it; at level 2 it makes the first block, (1,1) x (1,2),
    which the identity block at (1,1) x (2,1) does not match."""
    profile = DimensionProfile((2, 2, 2))
    pairs = [((1, y, z), (2, y, z)) for y in (1, 2) for z in (1, 2)] + [((1, 1, 1), (1, 2, 2))]
    return MultipartiteGraph(
        profile, [(vertex_index(u, profile), vertex_index(v, profile)) for u, v in pairs]
    )


def corpus_graphs():
    """psym and dsym graphs at seed 3 on the check-corpus workload's profiles
    of 512 and 1024 vertices, with its psym edge budgets (1200 at (2,16,16),
    where it has none), and the hand-built graph above."""
    graphs = {"intra-mismatch-2x2x2": intra_layer_mismatch_at_level_2}
    for dims, budget in (
        ((8, 8, 8), 600), ((4, 16, 16), 1200), ((16, 8, 8), 1200),
        ((2, 16, 16), 1200), ((2, 4, 4, 4, 4), 600),
    ):
        profile = DimensionProfile(dims)
        name = "x".join(map(str, dims))
        graphs[f"psym-{name}"] = functools.partial(gen_partially_symmetric, profile, budget, 3)
        graphs[f"dsym-{name}"] = functools.partial(gen_degree_symmetric_only, profile, 3)
    return graphs


CORPUS_GRAPHS = corpus_graphs()


@pytest.mark.parametrize("name", sorted(CORPUS_GRAPHS))
def test_conditions_match_oracles_on_corpus_graphs(name):
    graph = CORPUS_GRAPHS[name]()
    assert_conditions_match_oracles(graph)
    assert_report_matches_walk(graph)


# -- the Kronecker count against the level walk -------------------------------


def assert_report_matches_walk(graph):
    """The report's levels and axis-1 verdict against the level walk and the
    axis-1 edge test, both run here whichever path the report took."""
    report = check_theorem_conditions(graph)
    dims = graph.profile.dims
    a, b = (graph.edge_array() - 1).T
    rows, cols = np.concatenate((a, b)), np.concatenate((b, a))
    walked = [separability._block_level_report(rows, cols, dims, z) for z in range(1, len(dims))]
    assert [(lv.level, lv.uniform, lv.first_mismatch) for lv in report.block_levels] == [
        (lv.level, lv.uniform, lv.first_mismatch) for lv in walked
    ]
    psym = is_partially_symmetric(graph, 1)
    assert (report.partially_symmetric, report.partial_symmetry_violation) == (
        psym.symmetric,
        psym.violating_edge,
    )
    return report


def product_graph(dims, rng, diagonal):
    """The graph whose adjacency matrix is F_1 (x) ... (x) F_n for random
    nonzero symmetric 0/1 patterns.  F_1 has a 1 on its diagonal when
    ``diagonal`` (edges inside top layers) and none otherwise; F_n has a zero
    diagonal, so the product has no loops."""
    factors = []
    for k, d in enumerate(dims):
        upper = np.triu(rng.integers(0, 2, (d, d)), 1)
        upper[0, 1] = 1
        pattern = upper | upper.T
        if k == 0:
            pattern[0, 0] = int(diagonal)
        elif k < len(dims) - 1:
            pattern[np.diag_indices(d)] = rng.integers(0, 2, d)
        factors.append(pattern)
    edges = np.argwhere(np.triu(kron(factors), 1)) + 1
    return MultipartiteGraph(DimensionProfile(dims), edges)


def generated(family, dims, seed):
    """A graph of one generator family, or a ``product_graph`` with no edge
    inside a top layer, drawn from ``seed``."""
    profile = DimensionProfile(dims)
    if family == "theorem":
        return gen_theorem_graph(profile, seed)
    if family == "psym":
        return gen_partially_symmetric(profile, 6, seed)
    if family == "dsym":
        return gen_degree_symmetric_only(profile, seed)
    return product_graph(dims, np.random.default_rng(seed), diagonal=False)


def perturbed(graph, rng):
    """Negative controls: one edge removed, one edge added inside a top layer,
    and one edge u-w moved to a non-edge u-w' with w' in w's top layer (the
    same level-1 block)."""
    profile = graph.profile
    layer = profile.total // profile.dims[0]
    edges = graph.edges
    ordered = sorted(edges)
    yield MultipartiteGraph(profile, edges - {ordered[int(rng.integers(len(ordered)))]})
    intra = [
        (a, b)
        for start in range(1, profile.total + 1, layer)
        for a in range(start, start + layer)
        for b in range(a + 1, start + layer)
        if (a, b) not in edges
    ]
    if intra:
        yield MultipartiteGraph(profile, edges | {intra[int(rng.integers(len(intra)))]})
    for u, w in rng.permutation(ordered).tolist():
        start = (w - 1) // layer * layer + 1
        moves = [
            x for x in range(start, start + layer)
            if x != u and (min(u, x), max(u, x)) not in edges
        ]
        if moves:
            x = moves[int(rng.integers(len(moves)))]
            yield MultipartiteGraph(profile, (edges - {(u, w)}) | {(min(u, x), max(u, x))})
            return


def test_report_matches_walk_on_acceptance_sweep():
    from test_acceptance import SEEDS_PER_PROFILE, SWEEP_PROFILES

    for dims in SWEEP_PROFILES:
        for seed in range(SEEDS_PER_PROFILE):
            report = assert_report_matches_walk(gen_theorem_graph(DimensionProfile(dims), seed))
            assert report.holds


@pytest.mark.parametrize("family", ["theorem", "psym", "dsym"])
def test_report_matches_walk_under_negative_controls(family):
    rng = np.random.default_rng(5)
    controls = 0
    for dims in FACTOR_PROFILES:
        for seed in range(4):
            graph = generated(family, dims, seed)
            if not graph.edges:
                continue
            report = assert_report_matches_walk(graph)
            assert report.holds or family != "theorem"
            for changed in perturbed(graph, rng):
                report = assert_report_matches_walk(changed)
                assert not report.holds or family != "theorem"
                controls += 1
    assert controls >= 100


def test_products_with_edges_inside_top_layers_take_the_count():
    # The count holds, so neither the walk nor the edge test runs: every
    # level is uniform and the graph is partially symmetric, but the
    # intra-layer edges fail ``overall`` and there are no factors.
    rng = np.random.default_rng(11)
    with mock.patch.object(separability, "_block_level_report", side_effect=AssertionError), \
            mock.patch.object(separability, "is_partially_symmetric", side_effect=AssertionError):
        reports = [
            (graph, check_theorem_conditions(graph))
            for dims in FACTOR_PROFILES
            for graph in (product_graph(dims, rng, diagonal=True) for _ in range(5))
        ]
    for graph, report in reports:
        assert report.uniform_blocks and report.partially_symmetric
        assert not report.no_intra_layer_edges and not report.overall
        assert report.adjacency_factors is None
        assert_report_matches_walk(graph)
        assert all(is_partially_symmetric(graph, k) for k in range(1, graph.profile.n + 1))


def test_passing_conditions_run_neither_walk_nor_edge_test():
    with mock.patch.object(separability, "_block_level_report", side_effect=AssertionError), \
            mock.patch.object(separability, "is_partially_symmetric", side_effect=AssertionError):
        for dims in FACTOR_PROFILES:
            assert check_theorem_conditions(gen_theorem_graph(DimensionProfile(dims), 1)).holds


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(FACTOR_PROFILES),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["theorem", "product", "psym", "dsym"]),
    st.booleans(),
)
def test_conditions_imply_partial_symmetry_on_every_axis(dims, seed, family, toggle):
    # The corollary the CLI's ppt_axis_k verdicts rest on: a graph that
    # passes is the Kronecker product of symmetric patterns, so every axis
    # rewrite leaves it in place.  Products with no edge inside a top layer
    # pass when their layer degrees agree; toggling one vertex pair makes
    # graphs on both sides of the count.
    graph = generated(family, dims, seed)
    profile = graph.profile
    if toggle:
        rng = np.random.default_rng(seed + 1)
        a = int(rng.integers(1, profile.total))
        graph = MultipartiteGraph(profile, graph.edges ^ {(a, int(rng.integers(a + 1, profile.total + 1)))})
    if check_theorem_conditions(graph).holds:
        assert all(is_partially_symmetric(graph, k) for k in range(1, profile.n + 1))


def test_holding_conditions_force_regular_factors():
    # decompose runs no dominance check of its own: a graph that passes has
    # delta = r_1 prod_k |F_k|_inf exactly, because every F_k (k >= 2) is
    # regular.  F_1 is drawn with a zero diagonal, the other factors with
    # any diagonal and no regularity, so the draws fall on both sides.
    rng = np.random.default_rng(29)
    outcomes = []
    for _ in range(50):
        for dims in FACTOR_PROFILES[:6]:
            factors = []
            for k, d in enumerate(dims):
                pattern = np.triu(rng.integers(0, 2, (d, d)), int(k == 0))
                factors.append(pattern | pattern.T)
            edges = np.argwhere(np.triu(kron(factors), 1)) + 1
            report = check_theorem_conditions(MultipartiteGraph(DimensionProfile(dims), edges))
            outcomes.append(report.holds)
            if report.holds:
                assert all(map(np.array_equal, report.adjacency_factors, factors))
                rows = [f.sum(axis=1) for f in factors]
                assert all(r.min() == r.max() for r in rows[1:])
                bound = rows[0] * math.prod(int(r.max()) for r in rows[1:])
                assert report.layer_degrees == tuple(bound.tolist())
    assert 0 < sum(outcomes) < len(outcomes)


def test_intra_layer_graph_first_mismatches_at_level_2():
    graph = intra_layer_mismatch_at_level_2()
    report = check_theorem_conditions(graph)
    assert report.intra_layer_edges == ((1, 4),)
    first, second = report.block_levels
    (_, _, first_common), (_, _, second_common) = block_levels_by_scan(graph)
    assert first.uniform and np.array_equal(first_common, np.eye(4, dtype=np.int64))
    assert second.first_mismatch == ((1, 1), (2, 1))
    assert np.array_equal(second_common, [[0, 1], [0, 0]])


class TestConditionReport:
    def test_m222_all_conditions(self, m222):
        report = check_theorem_conditions(m222)
        assert report.overall and report.partially_symmetric
        assert report.no_intra_layer_edges
        assert report.uniform_blocks
        assert report.uniform_layer_degrees
        assert report.layer_degrees == (1, 1)
        common = block_levels_by_scan(m222)[-1][2]
        assert np.array_equal(common, np.eye(2, dtype=np.int64))
        assert np.array_equal(report.adjacency_factors[-1], common)

    def test_intra_layer_edge_witness(self, profile222):
        report = check_theorem_conditions(
            MultipartiteGraph(profile222, [(1, 2)])
        )
        assert not report.no_intra_layer_edges
        assert report.intra_layer_edges == ((1, 2),)
        assert not report.overall

    def test_three_edge_graph_fails_on_degrees(self, profile222):
        # Partner closure holds ({1,6} and {2,5} pair up, {1,5} is its own
        # partner) and the only nonzero innermost block is [[1,1],[1,0]],
        # but vertex degrees inside each layer are mixed.
        g = MultipartiteGraph(profile222, [(1, 6), (2, 5), (1, 5)])
        report = check_theorem_conditions(g)
        assert report.partially_symmetric
        assert report.no_intra_layer_edges
        assert report.uniform_blocks
        common = block_levels_by_scan(g)[-1][2]
        assert np.array_equal(common, [[1, 1], [1, 0]])
        assert np.array_equal(report.adjacency_factors[-1], common)
        assert not report.uniform_layer_degrees
        assert report.layer_degree_sets == ((0, 1, 2), (0, 1, 2))
        assert not report.overall

    def test_block_mismatch_witness(self, profile222):
        # {1,6} with partner {2,5} plus the self-paired {3,7}: innermost
        # blocks [[0,1],[1,0]] and [[1,0],[0,0]] differ.
        g = MultipartiteGraph(profile222, [(1, 6), (2, 5), (3, 7)])
        report = check_theorem_conditions(g)
        assert report.partially_symmetric
        assert not report.uniform_blocks
        failing = [lv for lv in report.block_levels if not lv.uniform]
        assert failing and failing[-1].first_mismatch is not None

    def test_empty_graph_vacuous_blocks(self, profile222):
        report = check_theorem_conditions(MultipartiteGraph(profile222))
        assert report.no_intra_layer_edges and report.uniform_blocks
        assert report.adjacency_factors is None
        assert report.overall and not report.holds
        assert "empty graph" in report.failure_summary()

    def test_factors_reproduce_adjacency(self):
        for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]:
            profile = DimensionProfile(dims)
            for seed in range(8):
                g = gen_theorem_graph(profile, seed)
                report = check_theorem_conditions(g)
                factors = report.adjacency_factors
                assert factors is not None and report.holds
                assert tuple(f.shape[0] for f in factors) == dims
                assert np.array_equal(kron(factors), adjacency_matrix(g))


class TestDecompose:
    def test_m222_exact_construction(self, m222, rho_q_m222_expected):
        dec = decompose(m222)
        assert len(dec.terms) == 4
        half = np.full((2, 2), 0.5)
        basis = np.eye(2)
        for i, term in enumerate(dec.terms):
            assert term.weight == 0.25
            assert np.array_equal(term.factors[0], half)
            assert term.ladder == (1.0, 1.0)
            r1, r2 = term.index
            assert np.array_equal(term.factors[1], np.outer(basis[:, r2 - 1], basis[:, r2 - 1]))
            assert np.array_equal(term.factors[2], np.outer(basis[:, r1 - 1], basis[:, r1 - 1]))
        assert np.array_equal(assemble_by_hand(dec), rho_q_m222_expected)
        # The reassembly is exact; the recorded residual is the factored
        # bound, which keeps its rounding allowances.  Here U_k = I,
        # B_k = F_k and R_t = 0 are exact, so it is those allowances alone,
        # over 2|E| = 8: (hypot(24, 32) + 4 * 3 sqrt(10)) u / 8 = 9.74 u = 1.081e-15.
        bound = certificates._factored_certificate(dec, check_theorem_conditions(m222), 1e-8)
        assert dec.residual == bound.residual
        assert 0.0 < dec.residual < 1.1e-15

    def test_term_order_is_lexicographic(self, m222):
        dec = decompose(m222)
        assert [t.index for t in dec.terms] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_empty_graph_rejected(self, profile222):
        with pytest.raises(PreconditionError, match="empty graph"):
            decompose(MultipartiteGraph(profile222))

    def test_intra_layer_rejected_with_report(self, profile222):
        with pytest.raises(PreconditionError, match="intra-layer") as exc:
            decompose(MultipartiteGraph(profile222, [(1, 2)]))
        assert exc.value.report is not None
        assert not exc.value.report.no_intra_layer_edges

    def test_disconnected_layer_group(self):
        # Layers 1 and 2 are matched; layer 3 is isolated with degree zero.
        profile = DimensionProfile((3, 2, 2))
        pairs = [((1, j, k), (2, j, k)) for j in (1, 2) for k in (1, 2)]
        g = MultipartiteGraph(profile, [(vertex_index(u, profile), vertex_index(v, profile)) for u, v in pairs])
        report = check_theorem_conditions(g)
        assert report.overall and report.partially_symmetric
        assert report.layer_degrees == (1, 1, 0)
        dec = decompose(g)
        rho = density_matrix(g, "signless")
        residual = np.linalg.norm(assemble_by_hand(dec) - rho.matrix)
        assert residual <= 1e-8 * np.linalg.norm(rho.matrix)
        for term in dec.terms:
            # Isolated layer: zero row and column in the first factor.
            assert not term.factors[0][2, :].any()
            assert not term.factors[0][:, 2].any()

    def test_nontrivial_inner_block(self):
        # Full bipartite linking of the two top layers on (2, 2, 3) with an
        # all-ones innermost block: eigenvalues (3, 0, 0) per the circulant.
        profile = DimensionProfile((2, 2, 3))
        ones3 = [
            ((i, j, k), (2, u, v))
            for i in (1,)
            for j in (1, 2)
            for u in (1, 2)
            for k in (1, 2, 3)
            for v in (1, 2, 3)
        ]
        g = MultipartiteGraph(profile, [(vertex_index(u, profile), vertex_index(v, profile)) for u, v in ones3])
        report = check_theorem_conditions(g)
        assert report.overall and report.partially_symmetric
        dec = decompose(g)
        assert len(dec.terms) == 6
        rho = density_matrix(g, "signless")
        assert verify_decomposition(dec, rho).passed

    def test_certificates_all_recorded_pass(self, m222):
        dec = decompose(m222)
        assert dec.certificates is not None
        assert all(ok for _, ok in dec.certificates)

    def test_ladder_bounds_hold(self):
        profile = DimensionProfile((2, 2, 3))
        for seed in range(10):
            g = gen_theorem_graph(profile, seed)
            dec = decompose(g)
            factors = dec.adjacency_factors
            n = profile.n
            for term in dec.terms:
                ladder = term.ladder
                bound = inf_norm(factors[-1])
                assert abs(ladder[0]) <= bound + 1e-9 * max(1.0, bound)
                for i in range(1, n - 1):
                    bound = abs(ladder[i - 1]) * inf_norm(factors[n - 1 - i])
                    assert abs(ladder[i]) <= bound + 1e-9 * max(1.0, bound)
                assert is_diagonally_dominant(term.factors[0])

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 4, 4), (2, 2, 2, 2)])
    def test_ladder_order_follows_axis_spectra(self, dims):
        profile = DimensionProfile(dims)
        n = profile.n
        for seed in range(8):
            g = gen_theorem_graph(profile, seed)
            if g.num_edges == 0:
                continue
            dec = decompose(g)
            factors = dec.adjacency_factors
            for term in dec.terms:
                prev = 1.0
                for s, value in enumerate(term.ladder):
                    # Level s scales by an eigenvalue of F_{n-s}.
                    spectrum = np.linalg.eigvalsh(factors[n - 1 - s].astype(float))
                    gap = np.min(np.abs(value - prev * spectrum))
                    assert gap <= 1e-12 * max(1.0, abs(prev))
                    prev = value
            # Siblings (same index prefix) descend in the next ladder value.
            for level in range(n - 1):
                groups = {}
                for term in dec.terms:
                    key = term.index[:level]
                    groups.setdefault(key, []).append((term.index[level], term.ladder[level]))
                for members in groups.values():
                    values = [v for _, v in sorted(set(members))]
                    assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dims", [(2, 16, 16), (2, 2, 2, 2, 2)])
    def test_one_eigendecomposition_per_axis(self, dims, monkeypatch):
        calls = []
        original = separability.spectral_decomposition

        def counting(matrix):
            calls.append(np.shape(matrix))
            return original(matrix)

        monkeypatch.setattr(separability, "spectral_decomposition", counting)
        profile = DimensionProfile(dims)
        g = next(
            g for g in (gen_theorem_graph(profile, seed) for seed in range(10))
            if g.num_edges
        )
        decompose(g)
        # Equal patterns share one eigendecomposition.
        distinct = {f.tobytes(): f.shape for f in check_theorem_conditions(g).adjacency_factors[1:]}
        assert sorted(calls) == sorted(distinct.values())

    def test_leaves_no_reference_cycle(self):
        # Terms held by a cycle live until the cyclic collector runs, which a
        # process making few container allocations does rarely; at (2,2,64)
        # they hold 4 MB of factors per call.
        graph = gen_theorem_graph(DimensionProfile((2, 2, 8)), 1)
        decompose(graph)
        gc.collect()
        gc.disable()
        try:
            decompose(graph)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestVerifyDecomposition:
    def test_exact_decomposition_passes(self, m222):
        dec = decompose(m222)
        rho = density_matrix(m222, "signless")
        cert = verify_decomposition(dec, rho)
        assert cert.passed and cert.residual < 1e-12

    def test_stacks_each_block_once(self, monkeypatch):
        # The factor checks and the residual share one stacking pass, in the
        # blocks assemble() uses, so the residual is assemble()'s bit for bit.
        # (2,2,128) takes 5 blocks.
        g = gen_theorem_graph(DimensionProfile((2, 2, 128)), 0)
        dec = decompose(g)
        rho = density_matrix(g, "signless")
        calls = []
        original = separability._stacked_blocks

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(separability, "_stacked_blocks", counting)
        cert = verify_decomposition(dec, rho)
        assert cert.passed and calls == [256]
        assert len(list(original(dec.terms, (2, 2, 128)))) == 5
        assert cert.residual == float(np.linalg.norm(dec.assemble() - rho.matrix))

    def test_perturbed_weight_fails(self, m222):
        dec = decompose(m222)
        rho = density_matrix(m222, "signless")
        terms = list(dec.terms)
        bad = DecompositionTerm(terms[0].weight + 1e-3, terms[0].factors)
        tampered = SeparableDecomposition(dec.profile, tuple([bad] + terms[1:]))
        cert = verify_decomposition(tampered, rho)
        assert not cert.passed
        assert any("weights sum" in f for f in cert.failures)
        assert any("residual" in f for f in cert.failures)

    def test_single_term_definitional_identity(self, profile222):
        rng = np.random.default_rng(8)
        factors = []
        for _ in range(3):
            v = rng.standard_normal((2, 2))
            f = v @ v.T
            factors.append(f / np.trace(f))
        product = kron(factors)
        rho = DensityMatrix(product, profile222, "signless")
        dec = SeparableDecomposition(
            profile222, (DecompositionTerm(1.0, tuple(factors)),)
        )
        cert = verify_decomposition(dec, rho)
        assert cert.passed and cert.residual < 1e-14

    def test_non_psd_factor_fails(self, profile222):
        indefinite = np.array([[1.5, 1.0], [1.0, -0.5]])
        indefinite /= np.trace(indefinite)
        ok = np.eye(2) / 2
        dec = SeparableDecomposition(
            profile222, (DecompositionTerm(1.0, (indefinite, ok, ok)),)
        )
        rho = DensityMatrix(kron((indefinite, ok, ok)), profile222, "signless")
        cert = verify_decomposition(dec, rho)
        assert any("not PSD" in f for f in cert.failures)

    def test_profile_mismatch_raises(self, m222):
        dec = decompose(m222)
        other = density_matrix(
            MultipartiteGraph(DimensionProfile((2, 2)), [(1, 3)]), "signless"
        )
        with pytest.raises(ValueError, match="profile"):
            verify_decomposition(dec, other)


# -- stacked verification against the per-term reference ---------------------


def verify_by_terms(decomposition, rho, tol=1e-8):
    """Reference verification: one eigenvalue call per factor and per-term
    dense reassembly (``assemble_by_hand``), failures in term order."""
    if decomposition.profile != rho.profile:
        raise ValueError(
            f"decomposition profile {decomposition.profile.dims} does not"
            f" match density matrix profile {rho.profile.dims}"
        )
    dims = rho.profile.dims
    n = len(dims)
    failures = []
    terms = decomposition.terms
    if not terms:
        failures.append("decomposition has no terms")
    weight_sum = float(sum(t.weight for t in terms))
    if not abs(weight_sum - 1.0) <= 1e-10:
        failures.append(f"weights sum to {weight_sum:.17g}, expected 1")
    for i, term in enumerate(terms, start=1):
        if not math.isfinite(term.weight):
            failures.append(f"term {i}: non-finite weight {term.weight!r}")
        elif term.weight < -1e-12:
            failures.append(f"term {i}: negative weight {term.weight:.17g}")
        if len(term.factors) != n:
            raise ValueError(
                f"term {i} has {len(term.factors)} factors for {n} subsystems"
            )
        for k, factor in enumerate(term.factors, start=1):
            mat = np.asarray(factor, dtype=float)
            expected = (dims[k - 1], dims[k - 1])
            if mat.shape != expected:
                raise ValueError(
                    f"term {i} factor {k}: shape {mat.shape}, expected {expected}"
                )
            if not np.isfinite(mat).all():
                failures.append(f"term {i} factor {k}: non-finite entries")
                continue
            if not np.max(np.abs(mat - mat.T)) <= 1e-12:
                failures.append(f"term {i} factor {k}: not symmetric")
                continue
            trace = float(np.trace(mat))
            if not abs(trace - 1.0) <= 1e-10:
                failures.append(
                    f"term {i} factor {k}: trace {trace:.17g}, expected 1"
                )
            psd = is_psd(mat)
            if not psd:
                failures.append(
                    f"term {i} factor {k}: not PSD"
                    f" (min eigenvalue {psd.min_eigenvalue:.3e})"
                )
    if terms:
        with np.errstate(invalid="ignore", over="ignore"):
            assembled = assemble_by_hand(decomposition)
        residual = float(np.linalg.norm(assembled - rho.matrix))
    else:
        residual = float(np.linalg.norm(rho.matrix))
    norm = float(np.linalg.norm(rho.matrix))
    relative = residual / norm
    if not relative <= tol:
        failures.append(
            f"reassembly residual {residual:.3e}"
            f" is {relative:.3e} of the target norm (tolerance {tol:.1e})"
        )
    return not failures, residual, relative, weight_sum, tuple(failures)


FACTOR_DEFECTS = (
    "nan", "inf", "asymmetric", "asymmetric within tolerance", "off-trace", "indefinite",
)
WEIGHT_DEFECTS = {"nan": lambda w: math.nan, "negative": lambda w: -0.25, "scaled": lambda w: 1.5 * w}


def random_state(rng, d):
    """Random exactly symmetric, unit-trace PSD matrix of random rank."""
    v = rng.standard_normal((d, int(rng.integers(1, d + 1))))
    f = v @ v.T
    f = (f + f.T) / 2
    return f / np.trace(f)


def damage(factor, kind, rng):
    f = factor.copy()
    i, j = rng.integers(0, len(f), size=2)
    if kind == "nan":
        f[i, j] = math.nan
    elif kind == "inf":
        f[i, j] = rng.choice([math.inf, -math.inf])
    elif kind == "asymmetric":
        f[0, 1] += 1e-3
    elif kind == "asymmetric within tolerance":
        f[0, 1] += 1e-13
    elif kind == "off-trace":
        f *= 1.5
    else:  # indefinite, trace kept: f[1, 1] <= 1 for a unit-trace PSD f
        f[0, 0] += 1.0
        f[1, 1] -= 1.0
    return f


@st.composite
def damaged_decompositions(draw):
    """(decomposition, target): random product terms, a few damaged factors
    and weights, against either the undamaged sum or the maximally mixed state."""
    n = draw(st.integers(2, 5))
    dims = []
    for k in range(n):
        # V <= 256 keeps the reference's dense per-term products small.
        room = 256 // (math.prod(dims) * 2 ** (n - k - 1))
        dims.append(draw(st.integers(2, min(5, room))))
    profile = DimensionProfile(tuple(dims))
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clean = [tuple(random_state(rng, d) for d in dims) for _ in range(count)]
    factors = [list(f) for f in clean]
    weights = [1.0 / count] * count
    for _ in range(draw(st.integers(0, 4))):
        t, k = draw(st.integers(0, count - 1)), draw(st.integers(0, n - 1))
        factors[t][k] = damage(factors[t][k], draw(st.sampled_from(FACTOR_DEFECTS)), rng)
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.integers(0, count - 1))
        weights[t] = WEIGHT_DEFECTS[draw(st.sampled_from(sorted(WEIGHT_DEFECTS)))](weights[t])
    if draw(st.booleans()):
        clean_dec = SeparableDecomposition(
            profile, tuple(DecompositionTerm(1.0 / count, f) for f in clean)
        )
        target = assemble_by_hand(clean_dec)
    else:
        target = np.eye(profile.total) / profile.total
    dec = SeparableDecomposition(
        profile, tuple(DecompositionTerm(w, tuple(f)) for w, f in zip(weights, factors))
    )
    return dec, DensityMatrix(target, profile, "signless")


def assert_matches_reference(dec, rho):
    passed, residual, relative, weight_sum, failures = verify_by_terms(dec, rho)
    cert = verify_decomposition(dec, rho)
    assert cert.failures == failures
    assert cert.passed == passed
    assert repr(cert.weight_sum) == repr(weight_sum)  # identical, nan included
    if math.isfinite(residual):
        assert abs(cert.residual - residual) <= 1e-12 * np.linalg.norm(rho.matrix)
    else:  # nan or inf
        assert repr(cert.residual) == repr(residual)
    return cert


@settings(max_examples=150, deadline=None)
@given(damaged_decompositions())
def test_stacked_verification_matches_per_term_reference(case):
    assert_matches_reference(*case)


@settings(max_examples=60, deadline=None)
@given(damaged_decompositions(), st.data())
def test_structural_errors_match_per_term_reference(case, data):
    dec, rho = case
    terms = list(dec.terms)
    t = data.draw(st.integers(0, len(terms) - 1))
    factors = list(terms[t].factors)
    k = data.draw(st.integers(0, len(factors) - 1))
    d = len(factors[k])
    kind = data.draw(st.sampled_from(("extra", "missing", "wrong order", "not square")))
    if kind == "extra":
        factors.append(np.eye(2) / 2)
    elif kind == "missing":
        del factors[k]
    elif kind == "wrong order":
        factors[k] = np.eye(d + 1) / (d + 1)
    else:
        factors[k] = np.ones((d, d + 1))
    terms[t] = DecompositionTerm(terms[t].weight, tuple(factors))
    broken = SeparableDecomposition(dec.profile, tuple(terms))
    with pytest.raises(ValueError) as expected:
        verify_by_terms(broken, rho)
    with pytest.raises(ValueError) as got:
        verify_decomposition(broken, rho)
    assert str(got.value) == str(expected.value)


@settings(max_examples=100, deadline=None)
@given(damaged_decompositions())
def test_assemble_matches_per_term_products(case):
    dec, _ = case
    assume(is_finite(dec))
    assert_assembles_like_by_hand(dec)


def is_finite(dec):
    return all(
        math.isfinite(t.weight) and all(np.isfinite(f).all() for f in t.factors)
        for t in dec.terms
    )


def assert_assembles_like_by_hand(dec):
    scale = sum(
        abs(t.weight) * math.prod(np.linalg.norm(f) for f in t.factors) for t in dec.terms
    )
    error = np.linalg.norm(dec.assemble() - assemble_by_hand(dec))
    assert error <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(damaged_decompositions(), st.integers(1, 3000))
def test_blocked_verification_matches_per_term_reference(case, block_entries):
    # Large factors are stacked a block of terms at a time; a small block
    # cap splits these decompositions into blocks of 1 term and up.
    dec, rho = case
    with mock.patch.object(separability, "_BLOCK_ENTRIES", block_entries):
        assert_matches_reference(dec, rho)
        if is_finite(dec):
            assert_assembles_like_by_hand(dec)


@pytest.mark.parametrize("dims", [(2, 4, 16), (2, 16, 4)])
def test_stacked_verification_matches_reference_on_larger_orders(dims):
    # Orders of 9 and more switch numpy's sums to pairwise order; trace and
    # eigenvalue texts must still match the per-factor calls exactly.
    profile = DimensionProfile(dims)
    g = next(g for g in (gen_theorem_graph(profile, s) for s in range(10)) if g.num_edges)
    dec = decompose(g)
    rho = density_matrix(g, "signless")
    assert assert_matches_reference(dec, rho).passed
    rng = np.random.default_rng(1)
    terms = list(dec.terms)
    for t, k, kind in [(0, 2, "off-trace"), (3, 1, "indefinite"), (3, 2, "off-trace"),
                       (5, 0, "asymmetric"), (7, 1, "inf")]:
        factors = list(terms[t].factors)
        factors[k] = damage(factors[k], kind, rng)
        terms[t] = DecompositionTerm(terms[t].weight, tuple(factors))
    cert = assert_matches_reference(SeparableDecomposition(profile, tuple(terms)), rho)
    assert len(cert.failures) == 6


class TestPpt:
    def test_m222_every_axis(self, m222):
        rho = density_matrix(m222, "signless")
        for t in (1, 2, 3):
            assert ppt_check(rho, t)

    def test_maximally_mixed(self, profile222):
        rho = DensityMatrix(np.eye(8) / 8.0, profile222, "signless")
        for t in (1, 2, 3):
            assert ppt_check(rho, t)

    def test_axis_out_of_range(self, profile222):
        rho = DensityMatrix(np.eye(8) / 8.0, profile222, "signless")
        with pytest.raises(ValueError, match="subsystem"):
            ppt_check(rho, 4)
        with pytest.raises(ValueError, match="subsystem"):
            ppt_check(rho, 0)

    def test_non_finite_entry_raises(self, non_finite, profile222):
        # DensityMatrix refuses such a matrix, so a stand-in carries it.
        rho = SimpleNamespace(matrix=non_finite(np.eye(8) / 8), profile=profile222)
        for axis in (1, 2, 3):
            with pytest.raises(ValueError, match="finite and symmetric"):
                ppt_check(rho, axis)

    def test_entangled_state_fails(self):
        # Two-qubit Bell projector: the standard PPT violation.
        profile = DimensionProfile((2, 2))
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi), profile, "signless")
        assert not ppt_check(rho, 1)


class TestTransfer:
    def test_fixed_point_identity(self, profile222):
        g = MultipartiteGraph(profile222, [(1, 6), (2, 5)])
        cert = theorem1_transfer(g, 1)
        assert cert.holds and cert.max_difference <= 1e-12
        assert cert.image == g

    def test_precondition_failure_with_deltas(self, profile222):
        g = MultipartiteGraph(profile222, [(1, 6)])
        with pytest.raises(PreconditionError, match="degree symmetric") as exc:
            theorem1_transfer(g, 1)
        changed = dict((v, (b, a)) for v, b, a in exc.value.report.changed)
        assert changed[1] == (1, 0)
        assert changed[2] == (0, 1)
        assert changed[5] == (0, 1)
        assert changed[6] == (1, 0)

    def test_decomposition_of_another_profile_is_refused(self, m222):
        mixed = np.eye(2) / 2
        other = SeparableDecomposition(DimensionProfile((2, 2)), (DecompositionTerm(1.0, (mixed, mixed)),))
        with pytest.raises(ValueError) as info:
            theorem1_transfer(m222, 1, other)
        assert str(info.value) == "decomposition profile does not match the graph profile"

    def test_transported_decomposition(self, m222, profile222):
        # rho_l of the matching graph is a single product term.
        first = np.array([[0.5, -0.5], [-0.5, 0.5]])
        mixed = np.eye(2) / 2
        dec = SeparableDecomposition(
            profile222, (DecompositionTerm(1.0, (first, mixed, mixed)),)
        )
        rho = density_matrix(m222, "combinatorial")
        assert verify_decomposition(dec, rho).passed
        cert = theorem1_transfer(m222, 1, dec)
        assert cert.holds
        assert cert.transported_certificate.passed
        assert bool(cert)

    def test_transfer_across_generated_corpus(self):
        from test_dense_kernels import random_graph

        profile = DimensionProfile((2, 3, 2))
        checked = 0
        for seed in range(40):
            g = gen_partially_symmetric(profile, 4, seed)
            if g.num_edges == 0:
                continue
            assert theorem1_transfer(g, 1).holds
            checked += 1
        assert checked >= 30
        # The generated graphs are fixed points of the rewrite, so gtpt(G) = G
        # and PT(rho) = rho there.  Seeded random graphs add axes whose
        # rewrite keeps every degree but moves edges: the identity then
        # compares two different matrices.
        rng = np.random.default_rng(1)
        moved_axes = set()
        for dims in [(2, 3, 2), (2, 2, 2)]:
            profile = DimensionProfile(dims)
            found = 0
            while found < 10:
                g = random_graph(profile, rng)
                axes = [
                    k for k in range(1, profile.n + 1)
                    if is_degree_symmetric(g, k) and gtpt(g, k) != g
                ]
                for axis in axes:
                    assert theorem1_transfer(g, axis).holds
                    moved_axes.add(axis)
                found += bool(axes)
        assert moved_axes == {1, 2, 3}


class TestDecompositionFormat:
    def test_round_trip(self, m222):
        dec = decompose(m222)
        text = format_decomposition(dec)
        back = parse_decomposition(text)
        assert back.profile == dec.profile
        assert len(back.terms) == len(dec.terms)
        assert back.residual == dec.residual
        assert back.certificates == dec.certificates
        for a, b in zip(back.terms, dec.terms):
            assert a.weight == b.weight
            assert a.index == b.index
            assert a.ladder == b.ladder
            for fa, fb in zip(a.factors, b.factors):
                assert np.array_equal(fa, fb)

    def test_round_trip_verifies(self, m222):
        dec = decompose(m222)
        rho = density_matrix(m222, "signless")
        back = parse_decomposition(format_decomposition(dec))
        assert verify_decomposition(back, rho).passed

    def test_bad_magic(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_decomposition("something-else\ndims 2 2\nterms 0\n")

    def test_truncated_record(self, m222):
        text = format_decomposition(decompose(m222))
        lines = text.splitlines()
        with pytest.raises(GraphFormatError):
            parse_decomposition("\n".join(lines[:-1]))

    def test_wrong_factor_order(self):
        text = (
            "graphsep-decomposition\ndims 2 2\nterms 1\nterm 1\n"
            "weight 1.0\nfactor 1 order 3\n"
        )
        with pytest.raises(GraphFormatError, match="order 3 does not match"):
            parse_decomposition(text)

    def test_negative_zero_normalised(self, profile222):
        term = DecompositionTerm(
            1.0, (np.array([[1.0, -0.0], [-0.0, 0.0]]), np.eye(2) / 2, np.eye(2) / 2)
        )
        text = format_decomposition(SeparableDecomposition(profile222, (term,)))
        assert "-0.0000000000000000e+00" not in text

    @pytest.mark.parametrize(
        "line",
        ["residual -5 extra", "residual -5", "residual 1e-3 1e-3", "residual nan",
         "residual inf", "residual", "residual x"],
    )
    def test_bad_residual_line_rejected(self, line):
        text = f"graphsep-decomposition\ndims 2 2\nterms 0\n{line}\n"
        with pytest.raises(GraphFormatError, match="^line 4: bad residual line"):
            parse_decomposition(text)

    @pytest.mark.parametrize("count", ["-1", "-7", "x", "1.5"])
    def test_bad_term_count_rejected(self, count):
        text = f"graphsep-decomposition\ndims 2 2\nterms {count}\n"
        with pytest.raises(GraphFormatError, match=f"^line 3: bad term count '{count}'$"):
            parse_decomposition(text)

    def test_zero_term_count_parses(self):
        back = parse_decomposition("graphsep-decomposition\ndims 2 2\nterms 0\n")
        assert back.terms == ()

    @pytest.mark.parametrize(
        "line", ["certificates =pass", "certificates dominance=pass =fail"]
    )
    def test_unnamed_certificate_flag_rejected(self, line):
        text = f"graphsep-decomposition\ndims 2 2\nterms 0\n{line}\n"
        with pytest.raises(GraphFormatError, match="^line 4: bad certificate flag '="):
            parse_decomposition(text)

    def test_rank_one_factors_written_as_vectors(self, m222):
        dec = decompose(m222)
        for term in dec.terms:
            assert term.vectors[0] is None
            for factor, vector in zip(term.factors[1:], term.vectors[1:]):
                assert np.array_equal(factor, separability.projector(vector))
        lines = format_decomposition(per_term(dec)).splitlines()
        assert lines.count("factor 1 order 2") == 4
        assert lines.count("factor 2 vector 2") == lines.count("factor 3 vector 2") == 4
        assert not any(line.startswith(("factor 2 order", "factor 3 order")) for line in lines)

    @pytest.mark.parametrize(
        "header, row, message",
        [
            ("factor 2 vector 2", "1.0", "line 10: expected 2 values, got 1"),
            ("factor 2 vector 2", "1.0 0.0 0.0", "line 10: expected 2 values, got 3"),
            ("factor 2 vector 2", "1.0 zero", "line 10: bad numeric value in '1.0 zero'"),
            ("factor 2 vector 3", "1.0 0.0 0.0", "line 9: factor 2 vector 3 does not match dimension 2"),
            ("factor 2 vector x", "1.0 0.0", "line 9: bad order 'x'"),
            ("factor 2 vectors 2", "1.0 0.0", "line 9: expected 'factor 2 order d' or 'factor 2 vector d'"),
        ],
    )
    def test_bad_vector_factor_rejected_with_line(self, header, row, message):
        text = (
            "graphsep-decomposition\ndims 2 2 2\nterms 1\nterm 1\nweight 1.0\n"
            "factor 1 order 2\n0.5 0.5\n0.5 0.5\n"
            f"{header}\n{row}\nfactor 3 vector 2\n1.0 0.0\n"
        )
        with pytest.raises(GraphFormatError, match="^" + re.escape(message)):
            parse_decomposition(text)

    @pytest.mark.parametrize(
        "vector, failure",
        # The CLI exit-code table covers (2, 0) and (nan, 0).
        [([0.6, 0.6], "term 1 factor 2: trace 0.7199"),
         ([math.inf, 0.0], "term 1 factor 2: non-finite entries")],
    )
    def test_bad_vector_fails_verification(self, m222, vector, failure):
        text = format_decomposition(per_term(decompose(m222)))
        lines = text.splitlines()
        at = lines.index("factor 2 vector 2") + 1
        lines[at] = " ".join(repr(x) for x in vector)
        cert = verify_decomposition(
            parse_decomposition("\n".join(lines) + "\n"), density_matrix(m222, "signless")
        )
        assert not cert.passed
        assert cert.failures[0].startswith(failure)

    def test_bare_decomposition_round_trip(self, profile222):
        # No index/ladder lines and no header extras.
        factors = (np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(2) / 2, np.eye(2) / 2)
        dec = SeparableDecomposition(
            profile222, (DecompositionTerm(1.0, factors),)
        )
        back = parse_decomposition(format_decomposition(dec))
        assert back.residual is None and back.certificates is None
        assert back.terms[0].index is None and back.terms[0].ladder is None
        assert all(
            np.array_equal(a, b)
            for a, b in zip(back.terms[0].factors, factors)
        )


# -- record parser fuzzing ---------------------------------------------------

RECORD_PROFILES = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 4, 4), (2, 2, 2, 2)]
RECORD_KEYWORDS = (
    "graphsep-decomposition", "dims", "terms", "residual", "certificates",
    "term", "index", "weight", "ladder", "factor", "order", "vector",
)
BAD_TOKENS = ("x", "nan", "-inf", "-1", "0", "1e999", "9" * 40, "=pass", "reassembly=maybe")


def theorem_record(dims, seed, basis=False):
    """Record text of a generated theorem graph, per term unless ``basis``,
    or None for an empty draw."""
    g = gen_theorem_graph(DimensionProfile(dims), seed)
    if not g.num_edges:
        return None
    dec = decompose(g)
    return format_decomposition(dec if basis else per_term(dec))


@functools.cache
def sample_records():
    records = (theorem_record(dims, seed) for dims in RECORD_PROFILES[:3] for seed in range(3))
    return tuple(r for r in records if r is not None)


@st.composite
def mutated_records(draw):
    """A valid record with one line dropped, two lines swapped or one token replaced."""
    lines = draw(st.sampled_from(sample_records())).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("drop", "swap", "token")))
    if kind == "drop":
        del lines[i]
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(RECORD_KEYWORDS + BAD_TOKENS)
        )
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RECORD_PROFILES), st.integers(0, 2**31 - 1))
def test_theorem_record_round_trips(dims, seed):
    for basis in (False, True):
        text = theorem_record(dims, seed, basis)
        assume(text is not None)
        assert format_decomposition(parse_decomposition(text)) == text


def format_decomposition_by_values(decomposition):
    """Oracle: the record writer that formats every value on its own."""
    lines = [
        "graphsep-decomposition",
        "dims " + " ".join(str(d) for d in decomposition.profile.dims),
        f"terms {len(decomposition.terms)}",
    ]
    if decomposition.residual is not None:
        lines.append("residual " + format_float(decomposition.residual))
    if decomposition.certificates is not None:
        lines.append(
            "certificates "
            + " ".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in decomposition.certificates)
        )
    for i, term in enumerate(decomposition.terms, start=1):
        lines.append(f"term {i}")
        if term.index is not None:
            lines.append("index " + " ".join(str(r) for r in term.index))
        lines.append("weight " + format_float(term.weight))
        if term.ladder is not None:
            lines.append("ladder " + " ".join(format_float(x) for x in term.ladder))
        vectors = term.vectors or (None,) * len(term.factors)
        for k, (factor, vector) in enumerate(zip(term.factors, vectors), start=1):
            if vector is None:
                rows = np.asarray(factor, dtype=float)
                lines.append(f"factor {k} order {len(rows)}")
            else:
                rows = np.asarray(vector, dtype=float)[None, :]
                lines.append(f"factor {k} vector {rows.shape[1]}")
            for row in rows:
                lines.append(" ".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_record_writer_matches_per_value_oracle_on_golden_graphs(dims):
    for seed in range(3):
        dec = per_term(decompose(gen_theorem_graph(DimensionProfile(dims), seed)))
        assert format_decomposition(dec) == format_decomposition_by_values(dec), f"seed {seed}"


def test_record_writer_matches_per_value_oracle_on_hand_built_terms():
    # Rows shared across terms, 0.0 and -0.0 rows (written alike, held under
    # different bytes), NaNs with other payloads and signs, infinities, a
    # term without vectors, a dense factor k >= 2 and repeated ladders.
    f1 = np.array([[0.5, 0.25], [0.25, 0.5]])
    shared, v3 = np.array([0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    zero, minus_zero = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
    payload_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
    special = np.array([[math.nan, math.inf], [-math.inf, 0.25]])

    def rank_one(index, ladder, v2, v3=v3):
        vectors = (None, v2, v3)
        factors = (f1, *(separability.projector(v) for v in vectors[1:]))
        return DecompositionTerm(0.125, factors, index, ladder, vectors=vectors)

    terms = (
        rank_one((1, 1), (0.5, -1.0), shared),
        rank_one((1, 2), (0.5, -1.0), shared),
        rank_one((2, 1), (0.0, 2.0), zero),
        rank_one((2, 2), (-0.0, 2.0), minus_zero, np.array([*payload_nan, math.inf])),
        DecompositionTerm(0.25, (f1, special, np.diag([-0.0, 0.0, math.nan]))),
        DecompositionTerm(0.25, (special, f1, separability.projector(v3)), vectors=(None, None, v3)),
    )
    dec = SeparableDecomposition(
        DimensionProfile((2, 2, 3)), terms, residual=-0.0, certificates=(("reassembly", True), ("ppt", False))
    )
    text = format_decomposition(dec)
    assert text == format_decomposition_by_values(dec)
    lines = text.splitlines()
    assert lines.count("0.0000000000000000e+00 1.0000000000000000e+00") == 2
    assert lines.count("ladder 0.0000000000000000e+00 2.0000000000000000e+00") == 2
    assert lines.count("nan nan inf") == 1 and lines.count("nan inf") == 2


def dense_form(decomposition):
    """The record of ``decomposition`` as earlier versions wrote it: every
    factor as ``factor k order d`` and d rows, with no vector lines."""
    return format_decomposition(
        replace(
            decomposition,
            terms=tuple(replace(t, vectors=None) for t in decomposition.terms),
        )
    )


@pytest.mark.parametrize("dims", RECORD_PROFILES)
def test_dense_form_reads_and_verifies_like_vector_form(dims):
    for seed in range(3):
        g = gen_theorem_graph(DimensionProfile(dims), seed)
        if not g.num_edges:
            continue
        rho = density_matrix(g, "signless")
        dec = decompose(g)
        new, old = format_decomposition(per_term(dec)), dense_form(dec)
        assert " vector " in new and " vector " not in old
        a, b = parse_decomposition(old), parse_decomposition(new)
        assert a.residual == b.residual and a.certificates == b.certificates
        for ta, tb in zip(a.terms, b.terms, strict=True):
            assert ta.vectors == (None,) * len(ta.factors)
            assert (ta.weight, ta.index, ta.ladder) == (tb.weight, tb.index, tb.ladder)
            assert all(map(np.array_equal, ta.factors, tb.factors))
        # The same verdict and residual, also for a tampered weight.
        for x, y, passes in ((a, b, True), (_scale_first_weight(a), _scale_first_weight(b), False)):
            cx, cy = verify_decomposition(x, rho), verify_decomposition(y, rho)
            assert cx.passed is passes
            assert (cx.passed, cx.residual, cx.failures) == (cy.passed, cy.residual, cy.failures)


def _scale_first_weight(decomposition):
    first, *rest = decomposition.terms
    return replace(decomposition, terms=(replace(first, weight=1.5 * first.weight), *rest))


@settings(max_examples=300, deadline=None)
@given(mutated_records())
def test_mutated_record_parses_or_raises_format_error(text):
    try:
        parse_decomposition(text)
    except GraphFormatError:
        pass


# -- rank-one factors: vectors in the record, projectors in the checks -------


def _double_first_vector(text, k=2):
    """``text`` with the first ``factor k vector`` row scaled by 2."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"factor {k} vector")) + 1
    lines[at] = " ".join(repr(2.0 * float(x)) for x in lines[at].split())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dims", RECORD_PROFILES)
def test_rank_one_verification_matches_per_factor_reference(dims):
    # The reference runs is_psd on every factor, as verify_decomposition
    # eigensolves every factor, the rank-one factors k >= 2 included.
    for seed in range(3):
        g = gen_theorem_graph(DimensionProfile(dims), seed)
        if not g.num_edges:
            continue
        rho = density_matrix(g, "signless")
        dec = decompose(g)
        text = format_decomposition(per_term(dec))
        for case in (dec, parse_decomposition(text)):
            assert assert_matches_reference(case, rho).passed
        # A doubled vector makes the record no grid: the dense path
        # eigensolves its factor and fails it on its trace alone, as the
        # reference says.
        cert = assert_matches_reference(parse_decomposition(_double_first_vector(text)), rho)
        assert cert.failures[0].startswith("term 1 factor 2: trace ")
        assert cert.failures[1].startswith("reassembly residual") and len(cert.failures) == 2


SPECIAL_ENTRIES = (5e-324, -1e-310, 2.2250738585072014e-308, math.nan, math.inf, -math.inf)


@st.composite
def record_vectors(draw):
    """A vector as a record may hold it: norm^2 from 1e-300 to 1e300, or
    within 3e-10 of 1, some with special entries."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vector = rng.standard_normal(d)
    if draw(st.booleans()):
        norm2 = 10.0 ** draw(st.floats(-300, 300))
    else:
        norm2 = 1.0 + draw(st.floats(-3e-10, 3e-10))
    vector *= math.sqrt(norm2) / np.linalg.norm(vector)
    for _ in range(draw(st.integers(0, 2))):
        vector[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL_ENTRIES))
    return vector


@settings(max_examples=300, deadline=None)
@given(record_vectors())
def test_factor_check_passes_a_projector_iff_finite_unit_trace(vector):
    # The factored certificate accepts projector(v) when it is finite with
    # trace within 1e-10 of 1: exactly the projectors the factor check
    # passes, eigensolve included.
    factor = separability.projector(vector)
    with np.errstate(over="ignore"):
        accepted = bool(np.isfinite(factor).all() and abs(np.trace(factor) - 1.0) <= 1e-10)
    assert (separability._factor_failures(factor[None]) == {}) == accepted


class TestRankOneCannotBeFooled:
    """Terms held one by one are judged on their factors alone: a vector
    changes no verdict."""

    PROFILE = DimensionProfile((2, 3, 4))
    V, W = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.0, 0.8, 0.0])

    def verify(self, factor_2, vectors=(None, V, W)):
        factors = (np.full((2, 2), 0.5), factor_2, separability.projector(self.W))
        term = DecompositionTerm(1.0, factors, vectors=vectors)
        dec = SeparableDecomposition(self.PROFILE, (term,))
        return verify_decomposition(dec, DensityMatrix(kron(factors), self.PROFILE, "signless"))

    def test_indefinite_factor_fails(self):
        indefinite = np.diag([1.5, -0.5, 0.0])  # symmetric, unit trace
        cert = self.verify(indefinite)
        assert cert.failures == ("term 1 factor 2: not PSD (min eigenvalue -5.000e-01)",)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 2)])
    def test_projector_moved_by_one_ulp_is_eigensolved(self, entry):
        factor = separability.projector(self.V)
        factor[entry] = np.nextafter(factor[entry], math.inf)
        assert self.verify(factor).passed

    @pytest.mark.parametrize(
        "vectors",
        [(None, V, W), (None, np.ones(4) / 2, W), (None, [1.0, 0.0, 0.0], W), (None, V)],
        ids=["well-formed", "wrong-length", "not-an-array", "not-one-per-axis"],
    )
    def test_vectors_change_no_verdict(self, vectors):
        assert self.verify(separability.projector(self.V), vectors).passed
