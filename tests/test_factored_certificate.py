"""The factored certificate of grid records against the dense verification.

``certify_decomposition`` passes a grid record from its per-axis factors
when the factored bound allows it, and otherwise returns the verdict of
``verify_decomposition`` against rho.  These tests hold the two paths to the
same verdicts: the bound must pass every record the dense path passes on
the golden corpus and the 105-graph sweep, must be an upper bound on the
residual (checked against a long double reassembly with its own rounding
allowance, and against the dense residual with its allowance), and must
never pass a tampered record.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from graphsep import (
    SIGNLESS,
    ConstructionError,
    DimensionProfile,
    MultipartiteGraph,
    check_theorem_conditions,
    decompose,
    density_matrix,
    format_decomposition,
    gen_theorem_graph,
    parse_decomposition,
    separability,
    verify_decomposition,
)
from graphsep.certificates import _factored_certificate, _grid
from graphsep.separability import certify_decomposition
from test_acceptance import SEEDS_PER_PROFILE, SWEEP_PROFILES
from test_golden_records import GOLDEN

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


# -- tampered grid records ---------------------------------------------------


def edit_row(lines, header, edit):
    """Apply ``edit`` to the token list of the first row under ``header``."""
    at = lines.index(header) + 1
    lines[at] = " ".join(edit(lines[at].split()))


def tamper(text, case, dims):
    lines = text.split("\n")
    if case == "vector-entry-x2":
        edit_row(lines, f"factor 2 vector {dims[1]}", lambda row: [repr(2 * float(row[0]))] + row[1:])
    elif case == "weight-x1.5":
        at = next(i for i, line in enumerate(lines) if line.startswith("weight "))
        lines[at] = "weight " + repr(1.5 * float(lines[at].split()[1]))
    elif case == "sibling-factor-2":
        # Terms run in lexicographic index order, and the last index entry
        # picks the axis-2 eigenvector: term 2 is term 1's axis-2 sibling.
        header = f"factor 2 vector {dims[1]}"
        sibling = lines[lines.index(header, lines.index("term 2")) + 1]
        assert sibling != lines[lines.index(header) + 1]
        edit_row(lines, header, lambda row: sibling.split())
    elif case == "factor-1-entry":
        edit_row(lines, f"factor 1 order {dims[0]}", lambda row: [row[0], repr(float(row[1]) + 1e-6)] + row[2:])
    elif case == "factor-1-diagonal-pair":
        # Symmetric, unit trace and PSD still: only the residual can tell.
        # The term with the smallest last ladder value has the most definite
        # first factor; its largest diagonal entry gives 1e-6 to another.
        ladders = [abs(float(line.split()[-1])) for line in lines if line.startswith("ladder ")]
        term = lines.index(f"term {1 + ladders.index(min(ladders))}")
        at = lines.index(f"factor 1 order {dims[0]}", term) + 1
        rows = [[float(x) for x in lines[at + i].split()] for i in range(dims[0])]
        big = max(range(dims[0]), key=lambda i: rows[i][i])
        rows[big][big] -= 1e-6
        rows[1 - big if big < 2 else 0][1 - big if big < 2 else 0] += 1e-6
        for i, row in enumerate(rows):
            lines[at + i] = " ".join(map(repr, row))
    return "\n".join(lines)


TAMPER_CASES = (
    "vector-entry-x2", "weight-x1.5", "sibling-factor-2", "factor-1-entry",
    "factor-1-diagonal-pair", "other-seed",
)


@pytest.mark.parametrize("case", TAMPER_CASES)
@pytest.mark.parametrize("dims", [(2, 4, 32), (2, 4, 4, 4), (4, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_tampered_grid_record_fails_as_dense_does(dims, case):
    profile = DimensionProfile(dims)
    graph = gen_theorem_graph(profile, 1)
    text = format_decomposition(decompose(graph))
    if case == "other-seed":
        # The record of graph 1, checked against a different conforming graph.
        graph = gen_theorem_graph(profile, 2)
        assert check_theorem_conditions(graph).holds
        assert not np.array_equal(graph.edge_array(), gen_theorem_graph(profile, 1).edge_array())
    else:
        text = tamper(text, case, dims)
    record = parse_decomposition(text)
    dense = verify_decomposition(record, density_matrix(graph, SIGNLESS))
    factored = _factored_certificate(record, check_theorem_conditions(graph), 1e-8)
    assert factored is None or dense.passed
    assert not dense.passed and factored is None
    got = certify_decomposition(record, graph)
    assert (got.passed, got.failures, got.residual) == (dense.passed, dense.failures, dense.residual)


def test_equal_arrays_that_are_distinct_objects_are_not_a_grid():
    graph = gen_theorem_graph(DimensionProfile((2, 4, 4, 4)), 1)
    record = record_of(graph)
    copied = replace(record, terms=tuple(
        replace(t, factors=(t.factors[0],) + tuple(f.copy() for f in t.factors[1:]))
        for t in record.terms
    ))
    dims = record.profile.dims
    assert _grid(record.terms, dims) is not None
    assert _grid(copied.terms, dims) is None
    # The dense path certifies it, with the dense residual.
    got = certify_decomposition(copied, graph)
    dense = verify_decomposition(copied, density_matrix(graph, SIGNLESS))
    assert got.passed and got == dense


def test_parse_shares_one_projector_per_distinct_vector_row():
    dims = (2, 4, 4, 4)
    record = record_of(gen_theorem_graph(DimensionProfile(dims), 1))
    for k, d in enumerate(dims[1:], start=1):
        assert len({id(t.factors[k]) for t in record.terms}) == d
        assert len({id(t.vectors[k]) for t in record.terms}) == d
        for t in record.terms:
            assert np.array_equal(t.factors[k], np.outer(t.vectors[k], t.vectors[k]))


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
        return replace(report, layer_degrees=tuple(degrees), num_edges=report.num_edges + layer // 2)

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
