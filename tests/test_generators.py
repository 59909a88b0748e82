"""Seeded corpus generators: determinism, closure, and coverage."""

import hashlib

import numpy as np
import pytest

from graphsep import (
    DimensionProfile,
    MultipartiteGraph,
    SplitMix64,
    check_theorem_conditions,
    decompose,
    density_matrix,
    format_graph,
    gen_degree_symmetric_only,
    gen_partially_symmetric,
    gen_theorem_graph,
    gtpt,
    is_degree_symmetric,
    is_partially_symmetric,
    swap_edge,
    theorem1_transfer,
    verify_decomposition,
)


class TestSplitMix64:
    def test_known_sequence_is_stable(self):
        rng = SplitMix64(0)
        first = [rng.next_uint64() for _ in range(3)]
        # Reference values of the splitmix64 stream from seed 0.
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_randint_range(self):
        rng = SplitMix64(123)
        values = [rng.randint(1, 6) for _ in range(200)]
        assert set(values) <= set(range(1, 7))
        assert len(set(values)) == 6

    def test_split_streams_differ(self):
        rng = SplitMix64(9)
        a, b = rng.split(), rng.split()
        assert [a.next_uint64() for _ in range(4)] != [
            b.next_uint64() for _ in range(4)
        ]


class TestPartiallySymmetricFamily:
    def test_deterministic(self):
        p = DimensionProfile((2, 3, 2))
        a = gen_partially_symmetric(p, 6, 42)
        b = gen_partially_symmetric(p, 6, 42)
        assert a == b

    def test_zero_budget_is_empty(self, profile222):
        assert gen_partially_symmetric(profile222, 0, 1).num_edges == 0

    def test_closure_and_degree_symmetry(self):
        for dims in [(2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            p = DimensionProfile(dims)
            for seed in range(25):
                g = gen_partially_symmetric(p, 5, seed)
                assert gtpt(g, 1) == g
                assert is_partially_symmetric(g, 1)
                assert is_degree_symmetric(g, 1)

    def test_coverage_of_non_fixed_pairs(self, profile222):
        # The corpus must exercise genuinely paired insertions, not only
        # self-paired edges, or downstream property tests would be vacuous.
        crossing = set()
        for seed in range(100):
            g = gen_partially_symmetric(profile222, 5, seed)
            for edge in g.edges:
                if swap_edge(profile222, edge, 1) != edge:
                    crossing.add(edge)
        assert len(crossing) >= 10

    def test_rejects_negative_budget(self, profile222):
        with pytest.raises(ValueError, match="budget"):
            gen_partially_symmetric(profile222, -1, 0)


class TestTheoremFamily:
    def test_deterministic(self, profile222):
        assert gen_theorem_graph(profile222, 5) == gen_theorem_graph(profile222, 5)

    def test_every_output_conforms(self):
        for dims in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]:
            p = DimensionProfile(dims)
            for seed in range(10):
                g = gen_theorem_graph(p, seed)
                report = check_theorem_conditions(g)
                assert report.overall and report.partially_symmetric

    def test_decompose_end_to_end(self):
        for dims in [(2, 2, 2), (2, 3, 2)]:
            p = DimensionProfile(dims)
            for seed in range(10):
                g = gen_theorem_graph(p, seed)
                dec = decompose(g)
                rho = density_matrix(g, "signless")
                assert verify_decomposition(dec, rho).passed
                assert len(dec.terms) == int(np.prod(dims[1:]))

    def test_matching_graph_is_reachable(self, profile222, m222):
        hits = [
            seed
            for seed in range(60)
            if gen_theorem_graph(profile222, seed) == m222
        ]
        assert hits, "no seed reproduced the matching graph"


class TestDegreeSymmetricOnlyFamily:
    def test_deterministic(self, profile222):
        a = gen_degree_symmetric_only(profile222, 3)
        b = gen_degree_symmetric_only(profile222, 3)
        assert a == b

    def test_degree_symmetric_with_intra_layer_edge(self):
        for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 2)]:
            p = DimensionProfile(dims)
            for seed in range(20):
                g = gen_degree_symmetric_only(p, seed)
                assert is_degree_symmetric(g, 1)
                report = check_theorem_conditions(g)
                assert not report.no_intra_layer_edges
                # Intra-layer edges never break the swap closure.
                assert is_partially_symmetric(g, 1)

    def test_transfer_precondition_guaranteed(self, profile222):
        for seed in range(20):
            g = gen_degree_symmetric_only(profile222, seed)
            assert theorem1_transfer(g, 1).holds


class TestFileEmission:
    def test_generated_graph_round_trips(self, profile222):
        from graphsep import parse_graph

        g = gen_theorem_graph(profile222, 2)
        assert parse_graph(format_graph(g)) == g


# SHA-256 of the generated graph files (psym at the CLI's default budget of
# 8).  The determinism tests above compare two runs of the same code; these
# pins also catch a change in the order of RNG calls or of the edge lines.
GOLDEN_GRAPHS = {
    ("psym", (2, 2, 2), 0): "65c1687505ef01437b42c586fa071647df4ada243710ae4ddf45037ebeebdab8",
    ("psym", (2, 2, 2), 1): "90952c78bd19e416c60e9466b3b587df58d3797a8c8a89d9864c7ae01d1f854f",
    ("psym", (2, 2, 2), 2): "2cb5465e53f9b9624293711e4aceb6c6aeb4abf8e3d181b54344ab4845dfe208",
    ("psym", (4, 4, 4), 0): "ddf37c88ecd2fb6e3e2977a6b3effbf6680037ebb38d32fbdba6fd7664f9692f",
    ("psym", (4, 4, 4), 1): "1022a355db147104ec39d3f41c5a0924c63b350f349082ae4aac79847608002a",
    ("psym", (4, 4, 4), 2): "0c42d05449be63144e819b0bcd61695051e26925cb9e7ca89fd0aa3a840b56d7",
    ("psym", (2, 4, 4, 4), 0): "db3b35775dfdf345e8dbe3de6ddd8fae934c9fd5ff38193d6c0d2896e91af6ba",
    ("psym", (2, 4, 4, 4), 1): "f6209285571b85bc907f3afaeb9a292b4b1ab61f780de413c0a387c79cc39c4a",
    ("psym", (2, 4, 4, 4), 2): "042982d261b95cc8b55a3c1a04ab14d4386258985b88309f1c94ae9630282201",
    ("theorem", (2, 2, 2), 0): "1334ac5c917ca9f07286879498dfda0013a671ecff5efb89bd23c97e3131941f",
    ("theorem", (2, 2, 2), 1): "85481148f9493e35b75a94b053b8bebfee495332330917e1fd27acd6ac6a36aa",
    ("theorem", (2, 2, 2), 2): "7ad10f633eabae684c4977e517c6a7ec51b8ea773fd87b07940e7c06f8a74498",
    ("theorem", (4, 4, 4), 0): "f204948f15e08ef0740a05072aa74637198d623f195f3566cd6f2311ef73c728",
    ("theorem", (4, 4, 4), 1): "f4a040e2ed187283d73d0e4e7a25250df19db60478ea39a922ed742a126f7bd1",
    ("theorem", (4, 4, 4), 2): "8e4a35128f4c7eeadd361837ff72f5ca4b39469e8eec700480608ad65763f550",
    ("theorem", (2, 4, 4, 4), 0): "902b22a5e6905c2e9be19f3d3cb3c3cfd91c451fb519c078059e1567b30b64bb",
    ("theorem", (2, 4, 4, 4), 1): "55c98d90418356fbabc6cb6b4f6186be6b7906ec7c7bc9a76b8f3a79779c993c",
    ("theorem", (2, 4, 4, 4), 2): "e69e54bb27f6d8978aa67246f8b4dd2fd192a34ea01c193e6e24e3e42dc6a58b",
    ("dsym", (2, 2, 2), 0): "e9955c61dd75ac21bfb44a670316ecf92faab89d9912e1fd82f7edcb5c46bd16",
    ("dsym", (2, 2, 2), 1): "ba833532cead2cb560b1cd7bb93f4c3858025cf51f2795c35b5908b42bd635ab",
    ("dsym", (2, 2, 2), 2): "463085d0306b027844434e57457888e0024cdd2df3b790495b53e1c8500a3c2c",
    ("dsym", (4, 4, 4), 0): "a78b365d8879b5b39ccdca53566f03060257cf316e3afb7dac2dde5bd3bd3fe4",
    ("dsym", (4, 4, 4), 1): "1caeb96b0f7bfc7113caa2eaf71ee86aaad08b04ba8f9a5dafc876bea717c2ca",
    ("dsym", (4, 4, 4), 2): "fdd4208cbe876ab2139f7ffb12999474e50f1fdf52f29c8be4c91309355c4355",
    ("dsym", (2, 4, 4, 4), 0): "21ed99b7d7cbe9f40d2ef7146402dfc840e9b7301b88b6a28f389ff982e7c65d",
    ("dsym", (2, 4, 4, 4), 1): "585e9187dbe2fadb48975bcdfe0e3283bf4cb0772199b764897b6c18cbf9076c",
    ("dsym", (2, 4, 4, 4), 2): "97521e3dc41d2fb9949f4cfa85b6b11adcf5ad964cb3395b7c6d915a6bb55983",
}

FAMILIES = {
    "psym": lambda profile, seed: gen_partially_symmetric(profile, 8, seed),
    "theorem": gen_theorem_graph,
    "dsym": gen_degree_symmetric_only,
}


@pytest.mark.parametrize("family, dims, seed", list(GOLDEN_GRAPHS))
def test_golden_output(family, dims, seed):
    text = format_graph(FAMILIES[family](DimensionProfile(dims), seed))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GRAPHS[family, dims, seed]
