"""The factored certificate of basis records against the dense verification.

``certify_decomposition`` passes a grid (a ``decompose`` result or a basis
record) from its basis when the factored bound allows it, and otherwise
returns the verdict of ``verify_decomposition`` against rho.  These tests hold the two paths to the
same verdicts: the bound must pass every record the dense path passes on
the golden corpus and the 105-graph sweep, must be an upper bound on the
residual (checked against a long double reassembly with its own rounding
allowance, and against the dense residual with its allowance), and must
never pass a tampered record.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from graphsep import (
    SIGNLESS,
    ConstructionError,
    DecompositionTerm,
    DimensionProfile,
    MultipartiteGraph,
    check_theorem_conditions,
    decompose,
    density_matrix,
    format_decomposition,
    format_graph,
    gen_theorem_graph,
    parse_decomposition,
    separability,
    spectral_decomposition,
    verify_decomposition,
)
from graphsep.certificates import _factor_failures, _factored_certificate, _unit_rows
from graphsep.cli import main
from graphsep.separability import TermGrid, certify_decomposition
from test_acceptance import SEEDS_PER_PROFILE, SWEEP_PROFILES
from test_golden_records import GOLDEN, chosen_rows, per_term

ROUNDOFF = 2.0**-53


def gamma(m, unit=ROUNDOFF):
    return m * unit / (1 - m * unit)


def absolute_size(decomposition):
    """sum_t w_t |X_t|_F prod_k |P_{t,k}|_F: the Frobenius norm of the
    reassembly with every entry made absolute is at most this."""
    return sum(
        abs(t.weight) * math.prod(float(np.linalg.norm(f)) for f in t.factors)
        for t in decomposition.terms
    )


def dense_allowance(decomposition, rho, residual):
    """How far ``verify_decomposition``'s residual can lie above the exact
    one: the Kronecker tables, weights and the T-term matrix product round
    each summand at most n + 2 times and add T of them; rho rounds once per
    entry; the difference and the norm round once more each."""
    count = len(decomposition.terms) + rho.profile.n + 2
    norm = float(np.linalg.norm(rho.matrix))
    return gamma(count) * absolute_size(decomposition) + ROUNDOFF * norm + gamma(rho.profile.total**2 + 2) * residual


def reference_residual(decomposition, graph):
    """|S - rho|_F from a long double reassembly against the exact integer
    2|E| rho = D + A, and a bound on the error of that value."""
    ld = np.longdouble
    unit = float(np.finfo(ld).eps) / 2
    total = graph.profile.total
    twice = ld(2 * graph.num_edges)
    target = np.zeros((total, total), dtype=ld)
    edges = graph.edge_array() - 1
    target[edges[:, 0], edges[:, 1]] = 1
    target[edges[:, 1], edges[:, 0]] = 1
    target[np.diag_indices(total)] = graph.degree_sequence()
    summed = np.zeros((total, total), dtype=ld)
    for term in decomposition.terms:
        product = np.asarray(term.factors[0], dtype=ld)
        for factor in term.factors[1:]:
            product = np.kron(product, np.asarray(factor, dtype=ld))
        summed += ld(term.weight) * product
    difference = summed * twice - target
    residual = float(np.sqrt(np.sum(difference * difference)) / twice)
    count = len(decomposition.terms) + graph.profile.n + 4
    error = gamma(count, unit) * absolute_size(decomposition) + gamma(total * total + 4, unit) * residual
    return residual, error


def record_of(graph):
    return parse_decomposition(format_decomposition(decompose(graph)))


def assert_bound_covers_residual(record, graph, reference=False):
    """The factored path passes, the dense path passes, and the bound is at
    least the residual; returns the factored certificate."""
    rho = density_matrix(graph, SIGNLESS)
    factored = _factored_certificate(record, check_theorem_conditions(graph), 1e-8)
    dense = verify_decomposition(record, rho)
    assert factored is not None and factored.passed and dense.passed
    assert factored.residual == record.residual  # verify reproduces the record
    assert factored.relative_residual <= 1e-8
    assert factored.residual >= dense.residual - dense_allowance(record, rho, dense.residual)
    if reference:
        residual, error = reference_residual(record, graph)
        assert factored.residual >= residual - error
    assert certify_decomposition(record, graph) == factored
    return factored


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_factored_verdict_matches_dense_on_golden_corpus(dims):
    for seed in range(3):
        graph = gen_theorem_graph(DimensionProfile(dims), seed)
        # The long double reassembly is kept to V <= 256 and one seed.
        reference = seed == 0 and graph.profile.total <= 256
        assert_bound_covers_residual(record_of(graph), graph, reference)


def test_factored_verdict_matches_dense_on_sweep():
    for dims in SWEEP_PROFILES:
        for seed in range(SEEDS_PER_PROFILE):
            graph = gen_theorem_graph(DimensionProfile(dims), seed)
            assert_bound_covers_residual(record_of(graph), graph, reference=True)


# -- tampered terms ------------------------------------------------------------
#
# These edit the terms of a decomposition held one by one, as a tuple, which
# only the dense path judges; the basis record's edits follow.


def tamper(dec, case):
    """The terms of grid decomposition ``dec`` as a tuple, with one edited."""
    terms = list(dec.terms)
    grid, first = dec.terms, terms[0]
    if case == "vector-entry-x2":
        # Term 1's axis-2 eigenvector with its first entry doubled.
        vector = grid.vectors[0][chosen_rows(grid)[0][0]].copy()
        vector[0] *= 2
        terms[0] = replace(first, factors=(first.factors[0], separability.projector(vector), *first.factors[2:]))
    elif case == "weight-x1.5":
        terms[0] = replace(first, weight=1.5 * first.weight)
    elif case == "sibling-factor-2":
        # Terms run in lexicographic order of their ladder positions, and the
        # last level picks the axis-2 eigenvector: term 2 is term 1's axis-2
        # sibling, and term 1 takes its factor 2.
        assert chosen_rows(grid)[1][0] != chosen_rows(grid)[0][0]
        terms[0] = replace(first, factors=(first.factors[0], terms[1].factors[1], *first.factors[2:]))
    elif case == "factor-1-entry":
        factor = first.factors[0].copy()
        factor[0, 1] += 1e-6
        terms[0] = replace(first, factors=(factor, *first.factors[1:]))
    elif case == "factor-1-diagonal-pair":
        # Symmetric, unit trace and PSD still: only the residual can tell.
        # The term with the smallest last ladder value has the most definite
        # first factor; its largest diagonal entry gives 1e-6 to another.
        t = min(range(len(terms)), key=lambda t: abs(terms[t].ladder[-1]))
        factor = terms[t].factors[0].copy()
        big = int(np.argmax(factor.diagonal()))
        other = 1 - big if big < 2 else 0
        factor[big, big] -= 1e-6
        factor[other, other] += 1e-6
        terms[t] = replace(terms[t], factors=(factor, *terms[t].factors[1:]))
    return replace(dec, terms=tuple(terms))


TAMPER_CASES = (
    "vector-entry-x2", "weight-x1.5", "sibling-factor-2", "factor-1-entry",
    "factor-1-diagonal-pair", "other-seed",
)


@pytest.mark.parametrize("case", TAMPER_CASES)
@pytest.mark.parametrize("dims", [(2, 4, 32), (2, 4, 4, 4), (4, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_tampered_grid_record_fails_as_dense_does(dims, case):
    profile = DimensionProfile(dims)
    graph = gen_theorem_graph(profile, 1)
    dec = record_of(graph)
    if case == "other-seed":
        # The terms of graph 1, checked against a different conforming graph.
        record = per_term(dec)
        graph = gen_theorem_graph(profile, 2)
        assert check_theorem_conditions(graph).holds
        assert not np.array_equal(graph.edge_array(), gen_theorem_graph(profile, 1).edge_array())
    else:
        record = tamper(dec, case)
    dense = verify_decomposition(record, density_matrix(graph, SIGNLESS))
    factored = _factored_certificate(record, check_theorem_conditions(graph), 1e-8)
    assert not dense.passed and factored is None
    got = certify_decomposition(record, graph)
    assert (got.passed, got.failures, got.residual) == (dense.passed, dense.failures, dense.residual)


GRID_TAMPERS = {
    "x2": lambda row: [repr(2 * float(x)) for x in row],
    # Trace 1 + 2e-9: the bound passes it, the unit-trace check does not.
    "x(1+1e-9)": lambda row: [repr((1 + 1e-9) * float(x)) for x in row],
    "nan": lambda row: ["nan", *row[1:]],
    "inf": lambda row: ["inf", *row[1:]],
}


@pytest.mark.parametrize("case", list(GRID_TAMPERS))
@pytest.mark.parametrize("dims", [(2, 4, 32), (2, 4, 4, 4), (4, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_grid_preserving_tamper_fails(tmp_path, capsys, dims, case):
    # The first axis-2 eigenvector of a basis record changed: the record is
    # still read as a grid, so the factored path must refuse it by itself.
    graph = gen_theorem_graph(DimensionProfile(dims), 1)
    lines = format_decomposition(decompose(graph)).split("\n")
    at = lines.index(f"axis 2 basis {dims[1]}") + 2
    lines[at] = " ".join(GRID_TAMPERS[case](lines[at].split()))
    text = "\n".join(lines)
    record = parse_decomposition(text)
    assert isinstance(record.terms, TermGrid)
    assert _factored_certificate(record, check_theorem_conditions(graph), 1e-8) is None
    dense = verify_decomposition(record, density_matrix(graph, SIGNLESS))
    got = certify_decomposition(record, graph)
    assert not dense.passed and (got.passed, got.failures) == (dense.passed, dense.failures)
    assert np.array_equal(got.residual, dense.residual, equal_nan=True)
    (tmp_path / "g.graph").write_text(format_graph(graph))
    (tmp_path / "g.dec").write_text(text)
    assert main(["verify", str(tmp_path / "g.graph"), str(tmp_path / "g.dec")]) == 1
    assert "verified=pass" not in capsys.readouterr().out


def eigenvalue_line(lines, k):
    """The position of axis k's eigenvalues line, and its values."""
    at = next(i for i, line in enumerate(lines) if line.startswith(f"axis {k} basis ")) + 1
    return at, [float(x) for x in lines[at].split()[1:]]


def push_largest(lines, graph, margins):
    """Scale the largest |eigenvalue| of axis 2 so that the Gershgorin test
    misses (or, below 1, keeps) its 1e-10 allowance by ``margins`` times,
    on the top row where that allowance is smallest."""
    degrees = check_theorem_conditions(graph).layer_degrees
    at, values = eigenvalue_line(lines, 2)
    j = max(range(len(values)), key=lambda j: abs(values[j]))
    values[j] *= 1 + margins * 1e-10 * sum(degrees) / max(degrees)
    lines[at] = "eigenvalues " + " ".join(map(repr, values))


def basis_tamper(lines, graph, case):
    dims = graph.profile.dims
    if case in ("eigenvalue-nan", "eigenvalue-inf"):
        at, values = eigenvalue_line(lines, 2)
        lines[at] = " ".join(["eigenvalues", case[11:], *lines[at].split()[2:]])
    elif case == "eigenvalue-past-margin":
        push_largest(lines, graph, 3.0)
    elif case == "eigenvalue-far-past-margin":
        push_largest(lines, graph, 1e7)
    elif case == "degrees-entry":
        at = next(i for i, line in enumerate(lines) if line.startswith("degrees "))
        degrees = lines[at].split()
        degrees[1] = str(int(degrees[1]) + 1)
        lines[at] = " ".join(degrees)
    elif case == "pattern-row":
        at = lines.index(f"pattern 1 order {dims[0]}") + 1
        row = lines[at].split()
        row[-1] = str(1 - int(row[-1]))
        lines[at] = " ".join(row)
    elif case == "vector-norm-2e-10":
        # |v|^2 = 1 + 2e-10, twice the unit-trace tolerance.
        at = lines.index(f"axis 2 basis {dims[1]}") + 2
        lines[at] = " ".join(repr(float(x) * math.sqrt(1 + 2e-10)) for x in lines[at].split())


BASIS_TAMPERS = (
    "eigenvalue-nan", "eigenvalue-inf", "eigenvalue-past-margin", "eigenvalue-far-past-margin",
    "degrees-entry", "pattern-row", "vector-norm-2e-10",
)


@pytest.mark.parametrize("case", BASIS_TAMPERS)
@pytest.mark.parametrize("dims", [(2, 4, 32), (2, 4, 4, 4), (4, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_basis_tamper_gets_the_dense_verdict(tmp_path, capsys, dims, case):
    # The factored path refuses each of these by itself, and verify then
    # gives the dense path's verdict, failures and exit code.  An eigenvalue
    # just past the Gershgorin allowance leaves every first factor within the
    # dense check's PSD tolerance, so the dense path passes that record.
    graph = gen_theorem_graph(DimensionProfile(dims), 1)
    lines = format_decomposition(decompose(graph)).split("\n")
    basis_tamper(lines, graph, case)
    text = "\n".join(lines)
    record = parse_decomposition(text)
    assert isinstance(record.terms, TermGrid)
    assert _factored_certificate(record, check_theorem_conditions(graph), 1e-8) is None
    dense = verify_decomposition(record, density_matrix(graph, SIGNLESS))
    assert dense.passed == (case == "eigenvalue-past-margin")
    got = certify_decomposition(record, graph)
    assert (got.passed, got.failures) == (dense.passed, dense.failures)
    assert np.array_equal(got.residual, dense.residual, equal_nan=True)
    (tmp_path / "g.graph").write_text(format_graph(graph))
    (tmp_path / "g.dec").write_text(text)
    code = main(["verify", str(tmp_path / "g.graph"), str(tmp_path / "g.dec")])
    out = capsys.readouterr().out.splitlines()
    assert code == (0 if dense.passed else 1)
    assert ("verified=pass" in out) == dense.passed


@pytest.mark.parametrize("dims", [(2, 4, 32), (2, 4, 4, 4), (4, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_eigenvalue_inside_the_gershgorin_allowance_stays_on_the_factored_path(dims):
    graph = gen_theorem_graph(DimensionProfile(dims), 1)
    lines = format_decomposition(decompose(graph)).split("\n")
    push_largest(lines, graph, 0.5)
    record = parse_decomposition("\n".join(lines))
    factored = _factored_certificate(record, check_theorem_conditions(graph), 1e-8)
    assert factored is not None and factored.passed
    assert verify_decomposition(record, density_matrix(graph, SIGNLESS)).passed


def test_terms_replaced_in_a_grid_decomposition_are_judged_as_terms():
    # replace() swaps the grid for a tuple of terms, so nothing of the
    # untampered grid is left to certify, and there is no record to write.
    graph = gen_theorem_graph(DimensionProfile((2, 4, 4, 4)), 1)
    dec = decompose(graph)
    assert isinstance(dec.terms, TermGrid)
    first, *rest = dec.terms
    tampered = replace(dec, terms=(replace(first, weight=1.5 * first.weight), *rest))
    assert _factored_certificate(tampered, check_theorem_conditions(graph), 1e-8) is None
    assert not certify_decomposition(tampered, graph).passed
    with pytest.raises(ValueError, match="only a TermGrid has a record"):
        format_decomposition(tampered)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3, 2), (2, 4, 4, 4)], ids=lambda d: "x".join(map(str, d)))
def test_grid_choices_cover_the_product_grid_once(dims):
    # The factored bound sums over the full product grid of the axes'
    # vectors; a grid's terms, built from its basis, are that grid, each
    # cell once, and each term's ladder ends in the product of the
    # eigenvalues it chose.
    grid = record_of(gen_theorem_graph(DimensionProfile(dims), 1)).terms
    assert len(grid) == math.prod(dims[1:]) == len(list(grid))
    # On each axis a term's factor is the projector of one row of the
    # basis: its cell.
    choice = np.array(chosen_rows(grid))
    cells = np.ravel_multi_index(tuple(choice.T), dims[1:])
    assert np.array_equal(np.sort(cells), np.arange(len(grid)))
    chosen = [values[choice[:, k]] for k, values in enumerate(grid.eigenvalues)]
    last = [term.ladder[-1] for term in grid]
    assert np.allclose(last, np.prod(chosen, axis=0), rtol=1e-14, atol=0)


@pytest.mark.parametrize("case", ["collided-cell", "dropped-term"])
def test_terms_off_the_grid_take_the_dense_path(case):
    # Terms held one by one never reach the factored path, whatever cells
    # they take: a collided cell (term 1's factor 2 replaced by term 2's)
    # and terms missing the last one both fail as the dense path fails them.
    dims = (2, 2, 2)
    graph = gen_theorem_graph(DimensionProfile(dims), 1)
    dec = record_of(graph)
    if case == "collided-cell":
        record = tamper(dec, "sibling-factor-2")
    else:
        record = replace(dec, terms=tuple(dec.terms)[:3])
    assert _factored_certificate(record, check_theorem_conditions(graph), 1e-8) is None
    dense = verify_decomposition(record, density_matrix(graph, SIGNLESS))
    assert not dense.passed and certify_decomposition(record, graph) == dense


def test_decomposition_of_no_terms_fails():
    graph = gen_theorem_graph(DimensionProfile((2, 2, 2)), 1)
    empty = replace(record_of(graph), terms=())
    certificate = verify_decomposition(empty, density_matrix(graph, SIGNLESS))
    assert not certificate.passed and "decomposition has no terms" in certificate.failures
    assert certify_decomposition(empty, graph) == certificate


def test_shuffled_terms_pass_on_the_dense_path():
    graph = gen_theorem_graph(DimensionProfile((2, 4, 4, 4)), 1)
    dec = record_of(graph)
    order = np.random.default_rng(0).permutation(len(dec.terms))
    record = replace(dec, terms=tuple(dec.terms[int(i)] for i in order))
    assert chosen_rows(dec.terms, record.terms) != chosen_rows(dec.terms)
    assert _factored_certificate(record, check_theorem_conditions(graph), 1e-8) is None
    dense = verify_decomposition(record, density_matrix(graph, SIGNLESS))
    assert dense.passed and certify_decomposition(record, graph) == dense


def terms_one_by_one(graph):
    """Oracle: the terms of ``decompose(graph)`` built one at a time from
    the ladder's definition, as ``decompose`` built them before it held its
    result as a grid."""
    report = check_theorem_conditions(graph)
    dims = graph.profile.dims
    n = len(dims)
    top = report.adjacency_factors[0].astype(float)
    spectra = [spectral_decomposition(f.astype(float)) for f in report.adjacency_factors[1:]]
    degrees = report.layer_degrees
    count = math.prod(dims[1:])
    terms = []
    for index in itertools.product(*(range(1, d + 1) for d in dims[:0:-1])):
        value, ladder, picks = 1.0, [], [0] * (n - 1)
        for s, r in enumerate(index, start=1):
            # Level s chooses on axis n - s + 1; a negative value reverses
            # the descending order.
            eig = spectra[-s]
            j = len(eig.eigenvalues) - r if value < 0 else r - 1
            value = value * eig.eigenvalues[j]
            ladder.append(float(value))
            picks[-s] = j
        first = (np.diag(np.asarray(degrees, dtype=float)) + value * top) / sum(degrees)
        factors = (first, *(separability.projector(eig.eigenvectors[:, j]) for eig, j in zip(spectra, picks)))
        terms.append(DecompositionTerm(1.0 / count, factors, tuple(ladder)))
    return terms


@pytest.mark.parametrize(
    "dims", [(2, 4, 4, 4), (4, 2, 2), (3, 2, 3, 2), (2, 2, 2, 2, 2, 2)], ids=lambda d: "x".join(map(str, d))
)
def test_grid_terms_equal_the_terms_built_one_by_one(dims, monkeypatch):
    graph = gen_theorem_graph(DimensionProfile(dims), 1)
    built = []
    original = DecompositionTerm.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DecompositionTerm, "__init__", counting)
    dec = decompose(graph)
    assert isinstance(dec.terms, TermGrid) and len(dec.terms) == math.prod(dims[1:])
    assert built == []  # neither decompose nor len builds a term
    terms = list(dec.terms)
    assert len(built) == len(terms) and list(dec.terms)[0] is terms[0]  # built once
    for got, want in zip(terms, terms_one_by_one(graph), strict=True):
        assert (got.weight, got.ladder) == (want.weight, want.ladder)
        assert all(type(x) is type(y) for x, y in zip(got.ladder, want.ladder))
        for a, b in zip(got.factors, want.factors, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for k, d in enumerate(dims[1:], start=1):
        assert len({id(t.factors[k]) for t in terms}) == d


def test_parse_shares_one_projector_per_distinct_vector_row():
    dims = (2, 4, 4, 4)
    grid = record_of(gen_theorem_graph(DimensionProfile(dims), 1)).terms
    for k, d in enumerate(dims[1:], start=1):
        assert len({id(t.factors[k]) for t in grid}) == d
        for t, rows in zip(grid, chosen_rows(grid)):
            vector = grid.vectors[k - 1][rows[k - 1]]
            assert np.array_equal(t.factors[k], np.outer(vector, vector))


def test_report_whose_degrees_disagree_with_its_factors_is_not_trusted(monkeypatch):
    # One layer degree raised by 1, with the edge count raised to match:
    # the record is consistent with that report, but the report is not with
    # its own factors, so the factored path refuses and the dense path,
    # against the graph's own rho, fails the record.
    graph = gen_theorem_graph(DimensionProfile((4, 2, 2)), 0)
    original = separability.check_theorem_conditions

    def patched(g):
        report = original(g)
        degrees = list(report.layer_degrees)
        degrees[2] += 1
        layer = math.prod(g.profile.dims[1:])
        return replace(
            report, layer_degree_sets=tuple((d,) for d in degrees), num_edges=report.num_edges + layer // 2
        )

    report = patched(graph)
    assert math.prod(graph.profile.dims[1:]) * sum(report.layer_degrees) == 2 * report.num_edges
    monkeypatch.setattr(separability, "check_theorem_conditions", patched)
    with pytest.raises(ConstructionError, match="failed verification"):
        decompose(graph)


def test_non_conforming_graph_takes_the_dense_path():
    # No factors: the record is judged against rho, failures as before.
    profile = DimensionProfile((2, 2, 2))
    graph = gen_theorem_graph(profile, 1)
    record = record_of(graph)
    other = MultipartiteGraph(profile, [(1, 2), (1, 5)])
    assert check_theorem_conditions(other).adjacency_factors is None
    got = certify_decomposition(record, other)
    dense = verify_decomposition(record, density_matrix(other, SIGNLESS))
    assert not got.passed and got == dense


def test_certificate_forms_no_cube_per_axis():
    # Each axis is worked from its (N, N) vectors: at (2, 2, 128) one
    # (128, 128, 128) stack would be 16.8 MB.
    graph = gen_theorem_graph(DimensionProfile((2, 2, 128)), 1)
    record, report = decompose(graph), check_theorem_conditions(graph)
    tracemalloc.start()
    try:
        certificate = _factored_certificate(record, report, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certificate is not None and certificate.passed
    assert peak < 2_000_000


@pytest.mark.parametrize("d", [2, 4, 16, 64, 128])
def test_unit_check_refuses_every_vector_whose_projector_fails(d):
    # Rows scaled so that |v|^2 lies within 8 ulps of 1 - 1e-10 and of
    # 1 + 1e-10, where |v|^2 and the factor check's trace of projector(v)
    # can fall on either side of the bound; and rows at |v|^2 = 1, which pass.
    rng = np.random.default_rng(d)
    targets = [1.0] + [edge + k * np.spacing(1.0) for edge in (1.0 - 1e-10, 1.0 + 1e-10) for k in range(-8, 9)]
    stacks = []
    for target in targets:
        rows = rng.standard_normal((60, d))
        stacks.append(rows * np.sqrt(target / np.einsum("ja,ja->j", rows, rows))[:, None])
    vectors = np.concatenate(stacks)
    _, unit = _unit_rows(vectors)
    failed = np.zeros(len(vectors), dtype=bool)
    failed[list(_factor_failures(separability.projector(vectors)))] = True
    assert not (unit & failed).any()
    assert unit[:60].all() and failed.any()


def report_from_factors(dims):
    """A conforming ConditionReport built from 0/1 factors, with no graph:
    F_1 a path on N_1 vertices, each F_k (k >= 2) the circulant that joins
    j to j +- 1, so the profile may lie far past the vertex cap."""
    profile = DimensionProfile(dims)
    top = np.eye(dims[0], k=1, dtype=np.int64)
    factors = [top + top.T]
    for d in dims[1:]:
        shift = np.roll(np.eye(d, dtype=np.int64), 1, axis=1)
        factors.append(np.minimum(shift + shift.T, 1))
    rest = math.prod(int(f[0].sum()) for f in factors[1:])
    degrees = factors[0].sum(axis=1) * rest
    edges = math.prod(int(f.sum()) for f in factors) // 2
    return separability.ConditionReport(
        profile, edges, None, (), (), tuple((int(d),) for d in degrees), tuple(factors)
    )


def traced_peak(report, monkeypatch):
    """Peak traced memory of decompose -> format -> parse -> certify."""
    graph = SimpleNamespace(profile=report.profile, num_edges=report.num_edges)
    monkeypatch.setattr(separability, "check_theorem_conditions", lambda g: report)
    tracemalloc.start()
    try:
        dec = decompose(graph)
        record = parse_decomposition(format_decomposition(dec))
        certificate = certify_decomposition(record, graph, report=report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certificate.passed and certificate.residual == dec.residual
    assert isinstance(record.terms, TermGrid) and len(record.terms) == math.prod(report.profile.dims[1:])
    return peak


def test_pipeline_peak_does_not_grow_with_the_term_count(monkeypatch):
    # T = 8^2 and T = 8^6 = 262,144 terms on axes of order 8: one float per
    # term alone would be 2.1 MB, the first-factor stack 8.4 MB.
    monkeypatch.setenv("GRAPHSEP_MAX_VERTICES", str(2 * 8**6))
    small = traced_peak(report_from_factors((2, 8, 8)), monkeypatch)
    large = traced_peak(report_from_factors((2,) + (8,) * 6), monkeypatch)
    assert large < 1_000_000 and large < 4 * small
