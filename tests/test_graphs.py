"""Graph types, matrix builders, indexing, and the text format."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    DensityMatrix,
    DimensionProfile,
    GraphFormatError,
    MultipartiteGraph,
    adjacency_matrix,
    degree_matrix,
    density_matrix,
    format_graph,
    laplacian,
    parse_graph,
    signless_laplacian,
    vertex_index,
    vertex_label,
)
from graphsep.textio import strip_comment


def content_lines(text):
    """Yield ``(lineno, stripped_line)`` for the lines that are not blank or
    comments only, numbered from 1; ``#`` starts a comment anywhere."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if line:
            yield lineno, line


def enumeration_index(label, profile):
    """Oracle: position of the label in the lexicographic enumeration."""
    ordered = sorted(product(*(range(1, d + 1) for d in profile.dims)))
    return ordered.index(tuple(label)) + 1


class TestProfile:
    def test_total_and_strides(self):
        p = DimensionProfile((2, 3, 4))
        assert p.total == 24
        assert p.strides == (12, 4, 1)

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError, match="axis 2"):
            DimensionProfile((2, 1, 2))

    def test_rejects_single_axis(self):
        with pytest.raises(ValueError, match="at least 2 subsystems"):
            DimensionProfile((2,))

    def test_default_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            DimensionProfile((2, 513))
        DimensionProfile((2, 512))  # exactly at the cap

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GRAPHSEP_MAX_VERTICES", "2048")
        DimensionProfile((2, 1024))
        monkeypatch.setenv("GRAPHSEP_MAX_VERTICES", "16")
        with pytest.raises(ValueError, match="exceeds the cap"):
            DimensionProfile((3, 3, 2))


class TestIndexing:
    def test_all_ones_base_case(self, profile222):
        assert vertex_index((1, 1, 1), profile222) == 1

    def test_tripartite_formula_case(self, profile222):
        # 4*(2-1) + 2*(1-1) + 2
        assert vertex_index((2, 1, 2), profile222) == 6

    def test_four_axis_case_against_enumeration(self):
        p = DimensionProfile((2, 3, 4, 2))
        assert vertex_index((2, 3, 1, 2), p) == 42
        assert enumeration_index((2, 3, 1, 2), p) == 42

    def test_label_examples(self, profile222):
        assert vertex_label(1, profile222) == (1, 1, 1)
        assert vertex_label(6, profile222) == (2, 1, 2)
        assert vertex_label(8, profile222) == (2, 2, 2)

    def test_label_inverts_enumeration(self, profile222):
        ordered = sorted(product(*(range(1, d + 1) for d in profile222.dims)))
        for k, label in enumerate(ordered, start=1):
            assert vertex_label(k, profile222) == label

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3, 2), (3, 2, 4), (2, 2, 2, 2), (4, 4, 64)]
    )
    def test_round_trip_exhaustive(self, dims):
        p = DimensionProfile(dims)
        for k in range(1, p.total + 1):
            assert vertex_index(vertex_label(k, p), p) == k
        for label in product(*(range(1, d + 1) for d in dims)):
            assert vertex_label(vertex_index(label, p), p) == label

    def test_out_of_range_coordinate_names_axis(self, profile222):
        with pytest.raises(ValueError, match="axis 3"):
            vertex_index((1, 1, 3), profile222)
        with pytest.raises(ValueError, match="coordinates"):
            vertex_index((1, 1), profile222)

    def test_index_out_of_range(self, profile222):
        with pytest.raises(ValueError, match="out of range"):
            vertex_label(9, profile222)
        with pytest.raises(ValueError, match="out of range"):
            vertex_label(0, profile222)

    @given(st.data())
    @settings(max_examples=60)
    def test_round_trip_property(self, data):
        dims = data.draw(
            st.lists(st.integers(2, 5), min_size=2, max_size=4)
            .filter(lambda d: np.prod(d) <= 1024)
        )
        p = DimensionProfile(tuple(dims))
        k = data.draw(st.integers(1, p.total))
        assert vertex_index(vertex_label(k, p), p) == k


class TestGraphType:
    def test_rejects_loop(self, profile222):
        with pytest.raises(ValueError, match="loop"):
            MultipartiteGraph(profile222, [(3, 3)])

    def test_rejects_out_of_range(self, profile222):
        with pytest.raises(ValueError, match="range"):
            MultipartiteGraph(profile222, [(1, 9)])
        with pytest.raises(ValueError, match="range 1..8"):
            MultipartiteGraph(profile222, [(1, 2**70)])

    def test_set_semantics_and_ordering(self, profile222):
        g = MultipartiteGraph(profile222, [(5, 1), (1, 5)])
        assert g.edge_array().tolist() == [[1, 5]]

    def test_equality_is_edge_set_equality(self, profile222):
        a = MultipartiteGraph(profile222, [(1, 5), (2, 6)])
        b = MultipartiteGraph(profile222, [(2, 6), (5, 1)])
        assert a == b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert a != MultipartiteGraph(profile222, [(1, 5)])
        assert a != MultipartiteGraph(DimensionProfile((2, 4)), [(1, 5), (2, 6)])

    def test_edge_array_is_stored_read_only(self, profile222):
        pairs = np.array([[6, 2], [1, 5]], dtype=np.int64)
        g = MultipartiteGraph(profile222, pairs)
        edges = g.edge_array()
        assert edges is g.edge_array()
        assert edges.dtype == np.int64 and edges.tolist() == [[1, 5], [2, 6]]
        assert not edges.flags.writeable
        with pytest.raises(ValueError):
            edges[0, 0] = 3
        pairs[0, 0] = 3  # the caller's array is not aliased
        assert g.edge_array().tolist() == [[1, 5], [2, 6]]

    def test_rejects_non_pairs(self, profile222):
        with pytest.raises(ValueError, match="vertex pairs"):
            MultipartiteGraph(profile222, [(1, 2, 3)])


class TestMatrices:
    def test_empty_graph_matrices(self, profile222):
        g = MultipartiteGraph(profile222)
        assert not adjacency_matrix(g).any()
        assert not degree_matrix(g).any()

    def test_single_edge(self):
        g = MultipartiteGraph(DimensionProfile((2, 2)), [(1, 2)])
        a = adjacency_matrix(g)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = expected[1, 0] = 1
        assert np.array_equal(a, expected)
        assert np.array_equal(np.diagonal(degree_matrix(g)), [1, 1, 0, 0])

    def test_m222_block_structure(self, m222):
        eye4 = np.eye(4, dtype=np.int64)
        zero4 = np.zeros((4, 4), dtype=np.int64)
        assert np.array_equal(
            adjacency_matrix(m222), np.block([[zero4, eye4], [eye4, zero4]])
        )
        assert np.array_equal(degree_matrix(m222), np.eye(8, dtype=np.int64))
        assert np.array_equal(
            signless_laplacian(m222), np.block([[eye4, eye4], [eye4, eye4]])
        )

    def test_two_vertex_edge_laplacian(self):
        # One edge on (2, 2); the isolated vertices contribute zero rows.
        g = MultipartiteGraph(DimensionProfile((2, 2)), [(1, 2)])
        lap = laplacian(g)
        assert np.array_equal(lap[:2, :2], [[1, -1], [-1, 1]])
        assert not lap[2:, :].any() and not lap[:, 2:].any()

    def test_path_laplacian_by_hand(self):
        g = MultipartiteGraph(DimensionProfile((2, 2)), [(1, 2), (2, 3)])
        lap = laplacian(g)
        assert np.array_equal(
            lap[:3, :3], [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_trace_identities_exact(self, profile222):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(0, 12))
            pairs = set()
            while len(pairs) < k:
                a, b = sorted(rng.choice(8, size=2, replace=False) + 1)
                pairs.add((int(a), int(b)))
            g = MultipartiteGraph(profile222, pairs)
            assert np.trace(laplacian(g)) == 2 * g.num_edges
            assert np.trace(signless_laplacian(g)) == 2 * g.num_edges
            assert laplacian(g).sum(axis=1).tolist() == [0] * 8

    def test_laplacian_psd_at_tolerance(self, profile222):
        rng = np.random.default_rng(11)
        for _ in range(15):
            k = int(rng.integers(1, 14))
            pairs = {
                tuple(sorted(rng.choice(8, size=2, replace=False) + 1))
                for _ in range(k)
            }
            g = MultipartiteGraph(profile222, pairs)
            eigs = np.linalg.eigvalsh(laplacian(g).astype(float))
            assert eigs.min() >= -1e-10


class TestDensityMatrix:
    def test_k2_combinatorial(self):
        g = MultipartiteGraph(DimensionProfile((2, 2)), [(1, 2)])
        rho = density_matrix(g, "combinatorial")
        assert np.allclose(rho.matrix[:2, :2], [[0.5, -0.5], [-0.5, 0.5]], atol=0)
        assert not rho.matrix[2:, :].any()

    def test_m222_signless(self, m222, rho_q_m222_expected):
        rho = density_matrix(m222, "signless")
        assert np.array_equal(rho.matrix, rho_q_m222_expected)
        assert rho.kind == "signless"

    def test_empty_graph_is_zero_trace_error(self, profile222):
        with pytest.raises(ValueError, match="zero trace"):
            density_matrix(MultipartiteGraph(profile222), "combinatorial")

    def test_unknown_kind(self, m222):
        with pytest.raises(ValueError, match="kind"):
            density_matrix(m222, "spectral")

    def test_non_finite_entry_rejected(self, non_finite):
        with pytest.raises(ValueError, match="finite and symmetric"):
            DensityMatrix(non_finite(np.eye(4) / 4), DimensionProfile((2, 2)), "signless")

    @pytest.mark.parametrize("matrix, kind, message", [
        (np.eye(4) / 4, "spectral", "unknown density matrix kind 'spectral'"),
        (np.eye(3) / 3, "signless", "matrix order (3, 3) does not match 4 vertices"),
        (np.eye(4) / 2, "signless", "density matrix trace is 2.0, not 1"),
    ])
    def test_constructor_refusals(self, matrix, kind, message):
        with pytest.raises(ValueError) as info:
            DensityMatrix(matrix, DimensionProfile((2, 2)), kind)
        assert str(info.value) == message

    def test_unit_trace(self, m222):
        for kind in ("combinatorial", "signless"):
            assert abs(np.trace(density_matrix(m222, kind).matrix) - 1) <= 1e-12


class TestGraphFormat:
    def test_round_trip(self, m222):
        assert parse_graph(format_graph(m222)) == m222

    def test_label_lines_and_comments(self, profile222):
        text = """
        # matching graph
        dims 2 2 2
        E 1,1,1 2,1,1   # first edge
        e 2 6
        """
        g = parse_graph(text)
        assert g.edge_array().tolist() == [[1, 5], [2, 6]]

    def test_duplicate_edge_reports_both_lines(self):
        text = "dims 2 2\ne 1 2\nE 1,1 1,2\n"
        with pytest.raises(GraphFormatError, match=r"line 3: duplicate edge \(1,2\), first seen on line 2"):
            parse_graph(text)

    def test_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 2: loop"):
            parse_graph("dims 2 2\ne 3 3\n")

    def test_out_of_range_edge(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("dims 2 2\ne 1 5\n")

    def test_bad_header(self):
        with pytest.raises(GraphFormatError, match="dims"):
            parse_graph("e 1 2\n")
        with pytest.raises(GraphFormatError, match="missing 'dims'"):
            parse_graph("# nothing here\n")

    def test_unknown_directive(self):
        with pytest.raises(GraphFormatError, match="line 2: unknown directive"):
            parse_graph("dims 2 2\nedge 1 2\n")

    def test_bad_label(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("dims 2 2\nE 1,3 2,1\n")


# -- graph parser fuzzing ------------------------------------------------------

GRAPH_KEYWORDS = ("dims", "e", "E", "#", "1,1", "2,1,1")
BAD_GRAPH_TOKENS = ("x", "0", "-1", "1.5", "", "9" * 40, "1,,2", "2,2,2,2,2", "1025")


@st.composite
def small_graphs(draw):
    profile = DimensionProfile(tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))))
    vertices = st.integers(1, profile.total)
    pairs = draw(st.lists(st.tuples(vertices, vertices).filter(lambda p: p[0] != p[1]), max_size=20))
    return MultipartiteGraph(profile, pairs)


@st.composite
def mutated_graph_texts(draw):
    """A graph text (some edges as label lines, one comment) with one line
    dropped, duplicated or swapped, or one token replaced, dropped or added."""
    graph = draw(small_graphs())
    lines = ["# fuzz", "dims " + " ".join(map(str, graph.profile.dims))]
    for a, b in graph.edge_array().tolist():
        if draw(st.booleans()):
            lines.append(f"e {a} {b}")
        else:
            u, v = (",".join(map(str, vertex_label(x, graph.profile))) for x in (a, b))
            lines.append(f"E {u} {v}")
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    token = draw(st.sampled_from(GRAPH_KEYWORDS + BAD_GRAPH_TOKENS))
    kind = draw(st.sampled_from(("drop", "duplicate", "swap", "replace", "cut", "extend")))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "replace":
        tokens[draw(st.integers(0, len(tokens) - 1))] = token
        lines[i] = " ".join(tokens)
    elif kind == "cut":
        lines[i] = " ".join(tokens[:-1])
    else:
        lines[i] = " ".join(tokens + [token])
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_graph_format_round_trips(graph):
    text = format_graph(graph)
    assert parse_graph(text) == graph
    assert format_graph(parse_graph(text)) == text


@settings(max_examples=300, deadline=None)
@given(mutated_graph_texts())
def test_mutated_graph_parses_or_raises_format_error(text):
    try:
        parse_graph(text)
    except GraphFormatError:
        pass


# -- differential oracles: the line-by-line parser and per-edge constructor ----


def graph_by_pairs(profile, edges):
    """Oracle: the per-edge constructor, returning the edge set it builds."""
    total = profile.total
    normalised = set()
    for edge in edges:
        a, b = (int(v) for v in edge)
        if a == b:
            raise ValueError(f"loop at vertex {a} is not allowed")
        if not (1 <= a <= total and 1 <= b <= total):
            raise ValueError(f"edge ({a},{b}) leaves the range 1..{total}")
        normalised.add((a, b) if a < b else (b, a))
    return frozenset(normalised)


def parse_graph_by_lines(text):
    """Oracle: the line parser keeping a dict of edge tuples, returning
    (profile, edge set)."""
    profile = None
    edges = {}
    for lineno, line in content_lines(text):
        tokens = line.split()
        if profile is None:
            if tokens[0] != "dims":
                raise GraphFormatError(
                    f"expected 'dims N_1 ... N_n' header, got {tokens[0]!r}", line=lineno
                )
            try:
                profile = DimensionProfile(tuple(int(t) for t in tokens[1:]))
            except ValueError as exc:
                raise GraphFormatError(str(exc), line=lineno) from None
            total = profile.total
            continue
        if tokens[0] == "e":
            if len(tokens) != 3:
                raise GraphFormatError("'e' line needs exactly two vertex numbers", line=lineno)
            try:
                a, b = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphFormatError(f"bad vertex number in {line!r}", line=lineno) from None
        elif tokens[0] == "E":
            if len(tokens) != 3:
                raise GraphFormatError(
                    "'E' line needs exactly two comma-separated labels", line=lineno
                )
            try:
                a = vertex_index(tuple(int(t) for t in tokens[1].split(",")), profile)
                b = vertex_index(tuple(int(t) for t in tokens[2].split(",")), profile)
            except ValueError as exc:
                raise GraphFormatError(str(exc), line=lineno) from None
        else:
            raise GraphFormatError(
                f"unknown directive {tokens[0]!r} (use 'e' or 'E')", line=lineno
            )
        if a == b:
            raise GraphFormatError(f"loop at vertex {a}", line=lineno)
        if not (1 <= a <= total and 1 <= b <= total):
            raise GraphFormatError(f"edge ({a},{b}) leaves the range 1..{total}", line=lineno)
        edge = (a, b) if a < b else (b, a)
        if edge in edges:
            raise GraphFormatError(
                f"duplicate edge ({edge[0]},{edge[1]}), first seen on line {edges[edge]}",
                line=lineno,
            )
        edges[edge] = lineno
    if profile is None:
        raise GraphFormatError("missing 'dims' header")
    return profile, frozenset(edges)


def assert_parse_matches_oracle(text):
    try:
        expected = parse_graph_by_lines(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            parse_graph(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        graph = parse_graph(text)
        assert (graph.profile, graph.edges) == expected


@settings(max_examples=300, deadline=None)
@given(mutated_graph_texts())
def test_parser_matches_line_oracle(text):
    assert_parse_matches_oracle(text)


# Several errors in one text: the one on the earliest line wins.
INTERLEAVED_ERRORS = {
    "loop-before-bad-token": (
        "dims 2 2 2\ne 1 2\ne 3 3\ne 1 3\ne 1 x\n",
        "line 3: loop at vertex 3",
    ),
    "duplicate-before-out-of-range": (
        "dims 2 2 2\ne 1 2\ne 2 1\ne 1 99\n",
        "line 3: duplicate edge (1,2), first seen on line 2",
    ),
    "label-out-of-range-after-duplicate": (
        "dims 2 2 2\ne 1 2\nE 1,1,2 1,1,1\nE 1,1,1 3,1,1\n",
        "line 3: duplicate edge (1,2), first seen on line 2",
    ),
    "out-of-range-before-duplicate": (
        "dims 2 2\ne 1 2\ne 0 1\ne 2 1\n",
        "line 3: edge (0,1) leaves the range 1..4",
    ),
}


@pytest.mark.parametrize("case", sorted(INTERLEAVED_ERRORS))
def test_first_error_wins(case):
    text, message = INTERLEAVED_ERRORS[case]
    with pytest.raises(GraphFormatError) as got:
        parse_graph(text)
    assert str(got.value) == message
    assert_parse_matches_oracle(text)


@st.composite
def pair_lists(draw):
    """A profile and vertex pairs with reversed copies, duplicates, numpy
    integers, and now and then a loop or a vertex outside 1..V."""
    profile = DimensionProfile(tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))))
    total = profile.total
    vertex = st.one_of(st.integers(1, total), st.integers(-1, total + 2))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    if pairs:
        repeats = draw(st.lists(st.sampled_from(pairs), max_size=4))
        pairs += [draw(st.sampled_from([(a, b), (b, a)])) for a, b in repeats]
    cast = st.sampled_from((int, np.int64, np.int32))
    return profile, [tuple(draw(cast)(v) for v in pair) for pair in pairs]


@settings(max_examples=300, deadline=None)
@given(pair_lists())
def test_constructor_matches_pair_oracle(case):
    profile, pairs = case
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    try:
        expected = graph_by_pairs(profile, pairs)
    except ValueError as exc:
        for edges in (pairs, array):
            with pytest.raises(ValueError) as got:
                MultipartiteGraph(profile, edges)
            assert str(got.value) == str(exc)
    else:
        for edges in (pairs, array, iter(pairs), set(pairs)):
            assert MultipartiteGraph(profile, edges).edges == expected
