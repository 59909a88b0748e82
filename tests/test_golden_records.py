"""Golden decomposition records: the sha256 of ``format_decomposition(decompose(g))``
for theorem graphs, seeds 0-2, and of the grid's terms written one by one.

``GOLDEN_BASIS`` pins the basis form ``decompose`` writes, the one record
form.  ``GOLDEN`` pins :func:`per_term_text` of the same decompositions: the
per-term form ``decompose`` wrote before the basis form, which no program
writes or reads any more.  Its bytes are those of the terms a grid expands
to (weights, ladders, first factors and the eigenvector each term picks on
each axis), so these digests pin that expansion bit for bit.

The profiles are every theorem profile of the certify workloads in
``perfbench/workloads.py``, plus (2, 2, 128), whose terms reassemble in
several blocks, and (4, 16, 16), at the default vertex cap.  Records are an
output contract: a change that moves any of these digests changes the bytes
of a record, and must be announced as a format change.

The ``residual`` line holds the factored bound, which is computed with
numpy's own elementwise operations, reductions and ``einsum`` loops (the
per-axis Gram forms, with no ``optimize`` path), never a BLAS call, so
these digests hold under any ``OPENBLAS_NUM_THREADS`` (CI runs this file
under 1 and 2 threads).  They still depend on the CPU kernels: LAPACK's
``eigh`` gives the factor rows and ladders, and numpy picks its SIMD
summation loops per CPU, so another instruction set or library build can
move the last digits of a record, and with them a digest.
"""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from graphsep import (
    SIGNLESS,
    DimensionProfile,
    decompose,
    density_matrix,
    format_decomposition,
    format_graph,
    gen_theorem_graph,
    parse_decomposition,
    verify_decomposition,
)
from graphsep.cli import main
from graphsep.separability import TermGrid, projector
from graphsep.textio import format_float


def per_term(decomposition):
    """The decomposition with its terms held one by one: a tuple of terms,
    which only the dense path judges."""
    return replace(decomposition, terms=tuple(decomposition.terms))


def chosen_rows(grid, terms=None):
    """Per term of ``terms`` (the grid's own by default), for each axis
    k >= 2, the row of ``grid.vectors[k - 2]`` whose projector is the term's
    factor k, bit for bit (a KeyError when no row's is)."""
    lookups = [{projector(v).tobytes(): j for j, v in enumerate(vectors)} for vectors in grid.vectors]
    assert [len(lookup) for lookup in lookups] == [len(vectors) for vectors in grid.vectors]
    terms = grid if terms is None else terms
    return [tuple(lookup[f.tobytes()] for lookup, f in zip(lookups, term.factors[1:])) for term in terms]


def row_text(row):
    return " ".join(map(format_float, np.asarray(row, dtype=float).tolist()))


def per_term_text(decomposition):
    """The record of a grid decomposition in per-term form: the header, then
    per term ``term i``, its ``index`` (its position among siblings at each
    ladder level), ``weight`` and ``ladder`` lines, ``factor 1 order N_1``
    and the rows of its first factor, and per axis k >= 2 ``factor k vector
    N_k`` and the eigenvector whose projector is its factor k."""
    grid = decomposition.terms
    text = format_decomposition(decomposition)
    lines = text[: text.index("\nweight ")].split("\n")
    positions = itertools.product(*(range(1, len(values) + 1) for values in grid.eigenvalues[::-1]))
    for i, (term, index, rows) in enumerate(zip(grid, positions, chosen_rows(grid)), start=1):
        lines += [f"term {i}", "index " + " ".join(map(str, index))]
        lines += ["weight " + row_text([term.weight]), "ladder " + row_text(term.ladder)]
        lines.append(f"factor 1 order {len(term.factors[0])}")
        lines += map(row_text, term.factors[0])
        for k, (vectors, j) in enumerate(zip(grid.vectors, rows), start=2):
            lines += [f"factor {k} vector {len(vectors)}", row_text(vectors[j])]
    return "\n".join(lines) + "\n"


GOLDEN = {
    (3, 2, 2): (
        "ceec9cb25d11c4ab8528e3202d8b6149d26772e0c436e47aa54e154e360957bb",
        "afe286083b3854a2a9e619b8086ecdb7cdc5fea3a6cea0f6b91ed17f21633669",
        "76ec314a5a78bedf10c588661cd5631e65d523acd01c674675640b845809c2a9",
    ),
    (2, 2, 64): (
        "a678c524722968f4f08d49ced03d7ba29220f30f491ef391abeb69fc5ef487bb",
        "0e9b30d39fc5473b5c5f1589e221600b19745d8e88d6df1a25e99e7397f9030c",
        "1be8089cf64d4dd8ab5df4f05667c1e39e16c7b48b4d448674e32c0066294fd8",
    ),
    (2, 4, 32): (
        "81c95d0dfd77417b1b10c0f0968bbdc31b510a775de39d8ac9db3b2a81936621",
        "7da3effc89eb78c6912d983291336b1b43be19a31f2f65b9cea5c90d3c698ccf",
        "654a9ed5ee960d8fb93df47480c59e837641415d04575f61c173f5bdafdab72e",
    ),
    (4, 2, 32): (
        "11ccfe8f3dd37650809fb929e9eb095ac8f6683bbb34c925174bcf194580b596",
        "355153df09a2246679651cd5bd9b909fc88bd20c2850176c7041446afb47decc",
        "9eb273c4b77477aa91d98f55b60b21df1841dc2518ceff88cf9ce790c6538b5c",
    ),
    (2, 4, 4, 4, 4): (
        "6c15826053c3471e5121011aa328c126dad9e39d1361f992b9d159eba01f26ae",
        "9fea9402570a51d0e5a9fc1b8481abd3a510f3cc20dae5eac96dbcc8253b8fd6",
        "f3f6bfc468a8554c289201fb191fa07d2d00bd0fc6aa0df15c276cf78aa231cf",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "1285c6fad13d7f9ee94362f6a52a8052d6138d465a5632f15f637d02ccceb1a3",
        "2e08d106a54d36b2319994cea841c4a501bf424b2d47a58bf29af5241d0600ef",
        "5ca46d933489e893445c79e6108d99c555e0ed59193fa33e8f30b9ad1b7a64db",
    ),
    (4, 4, 4, 4): (
        "64a8e508577a65c3081bdc062b7ec6960c0b8b329c6fa8a9272a14740ff1bdf4",
        "87fd18ae569772ae548eaa0394587d2e1a2020404cc7134bce135d58c5ee6338",
        "c766f7c87f537b3a0eaedb27e5efe3158f3a1f6c6c1d2aed152344e40165346d",
    ),
    (2, 4, 4, 4): (
        "88a0e5301572cca64996a5c554c169e035f2cb260e6426880ecfe1ef5a7ab50d",
        "f9da05ab146bb2867abab986bc5ec16a47bc3bef1900988fc801e4d4fc3e13e5",
        "1c0ad3c95518e040db9939ce90e7ffda80c84a7a4c870c1083aaac4287b165b4",
    ),
    (2, 2, 128): (
        "4f170c0e0c545a0962d4f67ed5555b807478b1447ba01144b1f5ab5840f905a4",
        "d778b9b4422ae60b0c92536ea605e0e663be6a42a771027d19dc6f2f37624289",
        "32546e79c0b1f1549295a1dc4d749eee2bac71c1f27f50f4d1d786de3cc0fbc7",
    ),
    (4, 16, 16): (
        "eaba0c3eed6f67ba0ca5ca2b350be00ffc755f2ec9dbcb667f438f038485c179",
        "4d2e6742b6c38ca92c09bb10f208f6db3d4bd3a90355aa32b0c9ea1314bca400",
        "061e2984836c674e71f1e7530dfffa0e3a9d2710a47d469fef5d587e5d36a24e",
    ),
}


GOLDEN_BASIS = {
    (3, 2, 2): (
        "0155b7e0e2a9624c75c3d99be7c55aa1ec72f3b5823ea8017dbbc7f6438968f9",
        "bea9348f5f87b2a0e35735414f37d8d1e002bb67d00459c21c5fa994e2aeef34",
        "1e4aee932c7f9e82b7c7c02fc57b21ecd9ab8d269826fe78e6f487ef2c325700",
    ),
    (2, 2, 64): (
        "f29fee7042d004b522549213c2904c429cae909b171dddecd77a1e19a496ea60",
        "8f5fa964558c2182cdbed601a291777930857a88960914c04075626bdec067f6",
        "51dfa9218d44b2a9e4b02009bb6bfbc44ae6561c6109a9eb272b556996b10694",
    ),
    (2, 4, 32): (
        "f384e9d60ecad8ceafae24065ce0e243117548473dc4e0252e5bb610cddb67f3",
        "608ea1e50fee962c34039760e67b6c3d329fee112858e0631f19581734a85bfc",
        "ec1c2d67cfbb692baffa842b2ad6bb4deb25c226e92b278c3c22f5cd4ef41641",
    ),
    (4, 2, 32): (
        "a4bf206fe451f5ccb75d85db6aad3fab8d67e037eeef59072636de1291dff45a",
        "04f883ae55c0f6a7b34acebe385be9b8e8add43d32aba9fcd7a1d11beb80558e",
        "b3f4b7c09951acb9e1f67f1e3ef103a548af388ff5027f50f40c9d14857b4f15",
    ),
    (2, 4, 4, 4, 4): (
        "126d687828051bc902fc3b9bb04ab2322395c726dd9a660e07d749e64f9331b7",
        "ae0ccc177cedf2277ea38913ef133a402c84d71db18817259f8066ba925facb4",
        "ec1969c8f15280c8a81eafc360c4afb4840d29a80046ec1af2932bc17259b02c",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "39d7aaccc5e99f6d27958d3b4fa3c09b78f431eb181b7a70fbadbfcb9dbf52f2",
        "d4ce560dc7089b200b485b84744fbfc47dac39278969308036ef5661cbf12510",
        "37a0ba1b77911b874c27fe3f56082eafd94dab32ae21c9a495c238aa633cd430",
    ),
    (4, 4, 4, 4): (
        "d9d42e42acad91e675aa67ad7101daf562abaeb073f569b6173c261b659044f3",
        "fca4cd640d0bdc9d7af2b9efef7d55f987728ca18b26e7ceec6e3db3d380062d",
        "ba483920243967c08c3f10c0fc99bcca3f74b33eca8890330ba1796e8b2fc48a",
    ),
    (2, 4, 4, 4): (
        "af77859852df77e66f7c4c6785eb35bd142e062d190730164d2763656a3071b8",
        "25a3d83aa825fbdd005b56a61f8d41d14041288fda74d5f26b2d13e8aa229ad2",
        "1c2814e9cf03a7c49de9f1599da8c7cb918337b78e905804b3ca8c5542ca2e2c",
    ),
    (2, 2, 128): (
        "56e33eb4661ca4b40b1eff6eb08879624cad0987d72109144b50c9f13744b46c",
        "336309e23f56597778e7a006e74bc13c91942214f6449f1171fb5a2587c8e25b",
        "5031e1d1288de3fe590b962d5f044f600a813f0d6b9d5d72f88072dd6b53aef5",
    ),
    (4, 16, 16): (
        "e5598de465da15b7862b04d0a5f9e5393eaa2e9a24b0f3b300a67b0529322e8f",
        "6d77b1705f3fe0a2eb9b686795260dafcf0e5a8ecbe3796189442802c0b314da",
        "5af8e13c509906fe059a958946d98f74c8db2477674cbcf88b98f6034169e357",
    ),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_record_bytes_match_golden_digest(dims):
    for seed, (expected, expected_basis) in enumerate(zip(GOLDEN[dims], GOLDEN_BASIS[dims])):
        dec = decompose(gen_theorem_graph(DimensionProfile(dims), seed))
        assert digest(per_term_text(dec)) == expected, f"seed {seed}"
        assert digest(format_decomposition(dec)) == expected_basis, f"seed {seed}"


GRID_ARRAYS = ("top_pattern", "layer_degrees")


def same_bits(a, b):
    """Equal arrays, bit for bit once each zero is +0 (the record writes -0 as 0)."""
    a, b = (np.ascontiguousarray(x) + 0.0 for x in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_basis_record_reads_back_as_the_grid_and_verifies(dims, tmp_path, capsys):
    # The basis record reads back as the grid in memory, and its terms as
    # the grid's terms, one by one: weight, ladder and every factor.  It
    # verifies with exit 0 on the factored path, which prints the recorded
    # bound, and its terms held one by one pass the dense path.
    for seed in range(3):
        graph = gen_theorem_graph(DimensionProfile(dims), seed)
        dec = decompose(graph)
        record = parse_decomposition(format_decomposition(dec))
        grid = record.terms
        assert isinstance(grid, TermGrid) and grid.weight == dec.terms.weight
        for name in GRID_ARRAYS:
            assert same_bits(getattr(grid, name), getattr(dec.terms, name)), (seed, name)
        for name in ("vectors", "eigenvalues"):
            assert all(map(same_bits, getattr(grid, name), getattr(dec.terms, name))), (seed, name)
        for t, (got, held) in enumerate(zip(grid, dec.terms, strict=True)):
            assert same_bits(got.weight, held.weight) and same_bits(got.ladder, held.ladder), (seed, t)
            assert all(map(same_bits, got.factors, held.factors)), (seed, t)
        assert verify_decomposition(per_term(record), density_matrix(graph, SIGNLESS)).passed
        (tmp_path / "g.graph").write_text(format_graph(graph))
        (tmp_path / "g.dec").write_text(format_decomposition(dec))
        assert main(["verify", str(tmp_path / "g.graph"), str(tmp_path / "g.dec")]) == 0, seed
        captured = capsys.readouterr()
        assert "verified=pass" in captured.out.splitlines() and captured.err == ""
        assert f"residual={dec.residual:.3e}" in captured.out.splitlines()
