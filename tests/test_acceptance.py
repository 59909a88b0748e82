"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they stream.
"""

import time

import numpy as np
import pytest

from graphsep import (
    DimensionProfile,
    MultipartiteGraph,
    PreconditionError,
    SplitMix64,
    check_theorem_conditions,
    decompose,
    density_matrix,
    format_decomposition,
    gen_degree_symmetric_only,
    gen_partially_symmetric,
    gen_theorem_graph,
    gtpt,
    gtpt_matrix_identity,
    inf_norm,
    is_degree_symmetric,
    is_diagonally_dominant,
    is_partially_symmetric,
    is_psd,
    partial_transpose_matrix,
    ppt_check,
    spectral_decomposition,
    theorem1_transfer,
    verify_decomposition,
)
from graphsep.cli import main

SWEEP_PROFILES = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]
SEEDS_PER_PROFILE = 21  # 5 profiles x 21 seeds = 105 graphs


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def sweep_corpus():
    """Decompositions shared by criteria 2 and 6."""
    corpus = []
    for dims in SWEEP_PROFILES:
        profile = DimensionProfile(dims)
        for seed in range(SEEDS_PER_PROFILE):
            graph = gen_theorem_graph(profile, seed)
            corpus.append((graph, decompose(graph)))
    return corpus


def random_simple_graph(profile, rng, max_edges):
    total = profile.total
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        a = rng.randint(1, total)
        b = rng.randint(1, total - 1)
        if b >= a:
            b += 1
        edges.add((min(a, b), max(a, b)))
    return MultipartiteGraph(profile, edges)


def test_criterion_1_m222_end_to_end(m222, rho_q_m222_expected):
    start = time.perf_counter()
    dec = decompose(m222)
    elapsed = time.perf_counter() - start
    ok = len(dec.terms) == 4
    ok = ok and all(t.weight == 0.25 for t in dec.terms)
    half = np.full((2, 2), 0.5)
    ok = ok and all(np.array_equal(t.factors[0], half) for t in dec.terms)
    assembled = np.zeros((8, 8))
    for t in dec.terms:
        product = t.factors[0]
        for f in t.factors[1:]:
            product = np.kron(product, f)
        assembled += t.weight * product
    residual = float(np.linalg.norm(assembled - rho_q_m222_expected))
    ok = ok and residual <= 1e-12
    ok = ok and elapsed < 1.0
    report(
        1,
        "matching-graph end to end",
        ok,
        f"terms=4, residual={residual:.2e}, {elapsed * 1000:.0f}ms",
    )


def test_criterion_2_theorem_class_sweep(sweep_corpus):
    start = time.perf_counter()
    count = 0
    for graph, dec in sweep_corpus:
        conditions = check_theorem_conditions(graph)
        assert conditions.overall and conditions.partially_symmetric
        rho = density_matrix(graph, "signless")
        cert = verify_decomposition(dec, rho)
        assert cert.passed, cert.failures
        assert cert.relative_residual <= 1e-8
        assert abs(sum(dec.weights) - 1.0) <= 1e-10
        for term in dec.terms:
            for factor in term.factors:
                assert is_psd(factor, tol=1e-9)
        for axis in range(1, graph.profile.n + 1):
            assert ppt_check(rho, axis)
        count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 100 and elapsed < 60.0
    report(2, "conforming-class sweep", ok, f"{count} graphs in {elapsed:.1f}s")


def test_criterion_3_partial_implies_degree_symmetric():
    profiles = [
        (2, 2), (2, 3), (4, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2),
        (3, 2, 2), (2, 2, 2, 2), (4, 2, 2), (2, 16), (8, 4),
    ]
    counterexamples = 0
    count = 0
    for dims in profiles:
        profile = DimensionProfile(dims)
        assert profile.total <= 64
        for seed in range(20):
            graph = gen_partially_symmetric(profile, 2 + seed % 6, seed)
            assert is_partially_symmetric(graph, 1)
            if not is_degree_symmetric(graph, 1):
                counterexamples += 1
            count += 1
    ok = count >= 200 and counterexamples == 0
    report(
        3,
        "partial symmetry implies degree symmetry",
        ok,
        f"{count} graphs, {counterexamples} counterexamples",
    )


def test_criterion_4_transpose_identity():
    profiles = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]
    count = 0
    worst = 0.0
    for dims in profiles:
        profile = DimensionProfile(dims)
        for seed in range(15):
            for graph in (
                gen_partially_symmetric(profile, 3 + seed % 4, seed),
                gen_degree_symmetric_only(profile, seed),
            ):
                if graph.num_edges == 0:
                    continue
                assert is_degree_symmetric(graph, 1)
                lhs = density_matrix(gtpt(graph, 1), "combinatorial").matrix
                rhs = partial_transpose_matrix(
                    density_matrix(graph, "combinatorial").matrix, profile, 1
                )
                diff = float(np.max(np.abs(lhs - rhs)))
                worst = max(worst, diff)
                assert diff <= 1e-12
                assert theorem1_transfer(graph, 1).holds
                count += 1
    ok = count >= 100
    report(4, "rewrite equals partial transpose", ok, f"{count} graphs, max diff {worst:.1e}")


def test_criterion_5_gtpt_algebra():
    profiles = [
        DimensionProfile(d)
        for d in [(2, 2), (2, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (4, 2, 2), (2, 16)]
    ]
    rng = SplitMix64(2024)
    checked = 0
    for trial in range(500):
        profile = profiles[rng.randint(0, len(profiles) - 1)]
        graph = random_simple_graph(profile, rng, max_edges=14)
        axis = rng.randint(1, profile.n)
        image = gtpt(graph, axis)
        assert image.num_edges == graph.num_edges
        assert gtpt(image, axis) == graph
        assert gtpt_matrix_identity(graph, axis)
        checked += 1
    report(5, "rewrite algebra sweep", checked >= 500, f"{checked} graphs")


def test_criterion_6_proof_chain_certificates(sweep_corpus):
    blocks = 0
    ladder_steps = 0
    for graph, dec in sweep_corpus:
        factors = dec.adjacency_factors
        n = graph.profile.n
        for term in dec.terms:
            assert is_diagonally_dominant(term.factors[0])
            assert np.min(np.diagonal(term.factors[0])) >= 0
            blocks += 1
            ladder = term.ladder
            bound = inf_norm(factors[-1])
            assert abs(ladder[0]) <= bound + 1e-9 * max(1.0, bound)
            ladder_steps += 1
            for i in range(1, n - 1):
                bound = abs(ladder[i - 1]) * inf_norm(factors[n - 1 - i])
                assert abs(ladder[i]) <= bound + 1e-9 * max(1.0, bound)
                ladder_steps += 1
    report(
        6,
        "proof-chain certificates",
        blocks > 0 and ladder_steps > 0,
        f"{blocks} mixing blocks, {ladder_steps} ladder bounds",
    )


def test_criterion_7_eigensolver_quality():
    rng = np.random.default_rng(777)
    worst_rec = 0.0
    worst_orth = 0.0
    for _ in range(200):
        order = int(rng.integers(2, 33))
        s = rng.standard_normal((order, order))
        s = (s + s.T) / 2.0
        ed = spectral_decomposition(s)
        scale = max(1.0, float(np.linalg.norm(s)))
        worst_rec = max(worst_rec, float(np.linalg.norm(ed.reconstruct() - s)) / scale)
        gram = ed.eigenvectors.T @ ed.eigenvectors
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(order)))))
    assert worst_rec <= 1e-10
    assert worst_orth <= 1e-10

    worst_root = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(-1, 1, size=3)
        ed = spectral_decomposition([[a, b], [b, c]])
        mean = (a + c) / 2.0
        disc = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        worst_root = max(
            worst_root,
            abs(ed.eigenvalues[0] - (mean + disc)),
            abs(ed.eigenvalues[1] - (mean - disc)),
        )
    for _ in range(50):
        s = rng.standard_normal((3, 3))
        s = (s + s.T) / 2.0
        ed = spectral_decomposition(s)
        q = np.trace(s) / 3.0
        backing = s - q * np.eye(3)
        p = np.sqrt(max(np.sum(backing * backing) / 6.0, 0.0))
        if p == 0.0:
            roots = [q, q, q]
        else:
            r = min(1.0, max(-1.0, np.linalg.det(backing / p) / 2.0))
            phi = np.arccos(r) / 3.0
            roots = sorted(
                (q + 2.0 * p * np.cos(phi + 2.0 * np.pi * k / 3.0) for k in (0, 1, 2)),
                reverse=True,
            )
        worst_root = max(worst_root, float(np.max(np.abs(ed.eigenvalues - roots))))
    ok = worst_root <= 1e-12
    report(
        7,
        "eigensolver quality",
        ok,
        f"rec {worst_rec:.1e}, orth {worst_orth:.1e}, roots {worst_root:.1e}",
    )


def test_criterion_8_negative_controls(tmp_path, profile222, m222, capsys):
    # Intra-layer edge rejected at the first condition.
    intra = MultipartiteGraph(profile222, [(1, 2)])
    rejected = False
    try:
        decompose(intra)
    except PreconditionError as exc:
        rejected = (
            exc.report is not None
            and not exc.report.no_intra_layer_edges
            and exc.report.intra_layer_edges == ((1, 2),)
        )
    ok = rejected

    # A tampered decomposition record must fail verification.
    graph_path = tmp_path / "m222.graph"
    graph_path.write_text("dims 2 2 2\ne 1 5\ne 2 6\ne 3 7\ne 4 8\n")
    dec_path = tmp_path / "m222.dec"
    dec_path.write_text(format_decomposition(decompose(m222)))
    # The record's first eigenvalue, 1, is raised by 0.1%.
    original = dec_path.read_text()
    tampered = original.replace("1.0000000000000000e+00", "1.0010000000000000e+00", 1)
    dec_path.write_text(tampered)
    code = main(["verify", str(graph_path), str(dec_path)])
    capsys.readouterr()
    ok = ok and tampered != original and code == 1

    # Missing degree symmetry fails the transfer precondition with deltas.
    lopsided = MultipartiteGraph(profile222, [(1, 6)])
    witness_ok = False
    try:
        theorem1_transfer(lopsided, 1)
    except PreconditionError as exc:
        changed = {v: (b, a) for v, b, a in exc.report.changed}
        witness_ok = changed == {1: (1, 0), 2: (0, 1), 5: (0, 1), 6: (1, 0)}
    ok = ok and witness_ok
    report(8, "negative controls", ok)
