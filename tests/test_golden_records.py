"""Golden decomposition records: the sha256 of ``format_decomposition(decompose(g))``
for theorem graphs, seeds 0-2, in both record forms.

``GOLDEN_BASIS`` pins the basis form ``decompose`` writes; ``GOLDEN`` pins the
per-term form of the same decompositions (:func:`per_term`), as ``decompose``
wrote them before the basis form, which the per-term writer must still
give byte for byte.

The profiles are every theorem profile of the certify workloads in
``perfbench/workloads.py``, plus (2, 2, 128), whose terms reassemble in
several blocks, and (4, 16, 16), at the default vertex cap.  Records are an
output contract: a change that moves any of these digests changes the bytes
of a record, and must be announced as a format change.

The ``residual`` line holds the factored bound, which is computed with
numpy's own elementwise operations and reductions, never a BLAS call, so
these digests hold under any ``OPENBLAS_NUM_THREADS`` (CI runs this file
under 1 and 2 threads).  They still depend on the CPU kernels: LAPACK's
``eigh`` gives the factor rows and ladders, and numpy picks its SIMD
summation loops per CPU, so another instruction set or library build can
move the last digits of a record, and with them a digest.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from graphsep import (
    DimensionProfile,
    decompose,
    format_decomposition,
    format_graph,
    gen_theorem_graph,
    parse_decomposition,
)
from graphsep.cli import main
from graphsep.separability import TermGrid


def per_term(decomposition):
    """The decomposition with its terms held one by one, which the writer
    writes in per-term form."""
    return replace(decomposition, terms=tuple(decomposition.terms))


GOLDEN = {
    (3, 2, 2): (
        "c2249f1a225b7916b131700c163d0a956d3c070762d956ee42da3d6531781f72",
        "48b21615030539b54b1fc86f61e99773a07f1a3e91a10ead801c0b3f59d04d1d",
        "acdfd935e16c314a5d360112826705216952d87f93096ea3dbc5734dc25a2c6a",
    ),
    (2, 2, 64): (
        "85fbc4ceab32698d9c55f5a706f58540baee5129b71db86fbbf76b3a83deee84",
        "961d67c851bc505d18c78da473e2a39f7b2b0ff371aa5ae51e9a9ec94b0a5fb4",
        "7c6f6015a9df245c57084ff7cc1721a0ef031c8bf0d80be4727bf5404129873a",
    ),
    (2, 4, 32): (
        "6444e387116ef9810a151000e7be1e5d29f7ab85cd7d8b7a7e5ae8923626b5c8",
        "9d37beb67d39c5e1751e81eca79bf9064280aa2bfde267d4ae02bb91a717000f",
        "0ebb11a962ffd48bbcc50775953f5388f27dbedf4f969f0f8599331dd2354795",
    ),
    (4, 2, 32): (
        "ae44cabb15f2d5e84d70e92c842cca6b55e1d8110aee708f8edab3ea7657a22c",
        "f1fdb9068ec6a6c4b552e9a2df923c3736253393e9ad335d3217407f61ff771f",
        "8e1d624ff7dbbd6aae52de337d92fddb8fe918d80ddbde1fcd53f74cd88c63f8",
    ),
    (2, 4, 4, 4, 4): (
        "78dfe641338c89bee43e83ac5cc4c574c2863341e21a63bae90c53d1aed59d3c",
        "84f953d95af34da47fd072fdc30faa949a98e8a43bc4c7af389964e28735af5b",
        "e759f404189c2bc018c21c282d0837c879328f99c5f133218da0159d5447b5a4",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "7f2d37f862e12d67829b508f34ca8bf897de892b1dc285668783bd7ccae39943",
        "655ea3c953aa0cc575ce626ab7890733826099ffebcc93a5c86970118a71eb1b",
        "db44e5e26452959f38f2d9d94ce98a0aef4e47a0937d259200e71b0955a09bd4",
    ),
    (4, 4, 4, 4): (
        "d6df974a925fdbad0a2f352097bc90a31bd0e8208ff4befd4672845e0d2697cb",
        "23679ba40b9a0a925b094a0fc977f79914f47ef0e01e76ea6268f82ba6920990",
        "690981f1b6e3fff5cc409d9f58abfb78ce78cdb300be77bb3e439ae3a59bf6c5",
    ),
    (2, 4, 4, 4): (
        "a0a29d0bd14f5a36b44c3c54700aa282604d57e6a5df69e92f6d767389449ef3",
        "71ce32ae9781e56018b8d5693292db15f47e9054c0f0cfa4e6c43e2471f63917",
        "bf308cc031547384c4c278bdc5fc378ac5e30ada39e47145455f7689fb1032a0",
    ),
    (2, 2, 128): (
        "bb269cb89d9a86b8580994edd80257b2bee43a7a231a27fa590e36ff920c78b8",
        "4bf3834338a4d0dd90a6ae93729607d30ce8ffcefa388515a1027ab959d2000d",
        "28f8d9843cf2e67cb1fea7e30f1fe8639dfbe30849b21d5b4b8b49ec7e327286",
    ),
    (4, 16, 16): (
        "d5511afdb7b439ca8a2899f2a9e4a3dc5696cbbcfa5d0d8d4040ff316c864b51",
        "b258d9485116931c060cd70c134dd1085ddcea414e19387312b5335d1d2073b3",
        "2d04b95a9fda8b0f8ea1ba43979ca4d13398bdf1be6cc4c334e51400ae3e7829",
    ),
}


GOLDEN_BASIS = {
    (3, 2, 2): (
        "bfd2671987278e338ed29887cacb973eb520b481854c51882b2c4cd2b8a33076",
        "8a2ba0d31e66c613f106f2a97c1d35c1a87bf0cbe979a4df6ecf9b5a9af1f35c",
        "8f4383b43de7e50d866967300007a9c749a1bbe5caa1b4d839e14339d7f2d1c7",
    ),
    (2, 2, 64): (
        "ff5138ae20acc663b4c637393aa12479098263a26789642d9e69457afa3ce5fc",
        "df83ae7964add2c818e89d6b07d630d4c1adff0d7ddf395d07fa9a26b6d4b4e3",
        "a26b43c82cdf8f8e46d758e101a9038d5f2340b076be1d54821b2be0916d44b5",
    ),
    (2, 4, 32): (
        "2e5a2e76207b07435379bba93e84d98958cf141a27967088928fa7c2a992e6a4",
        "7356bbb0f17b986c05f83b3332ecafc636e9956ff094038a3be9ec024226ba97",
        "84689baecd2dd37bd54f86334f9d400552014b420f14e6df419c1bc66279ccbd",
    ),
    (4, 2, 32): (
        "f4ee67b701256874eb4458de512af6c8a4374e1f84133f6c995b9a7bb815911f",
        "fdcb8f0c9edb6806987c160713168a93215ca8b4b30a9a0a4121861301536d86",
        "0f707cf8938e4302b057c598087edbf6cebb9539e20885db03c8b2479dd160a2",
    ),
    (2, 4, 4, 4, 4): (
        "10233532a4cb10c74e86a498e35630e2b98936cd303b69a0ef3a292eef9b9b36",
        "6dbadc31115aeeece64f94fd009c212c9e74a6b60373269d7785e13a2ae84f84",
        "93874c5c6da1f338f641f69a6f6f72ebfd4c2184522dbfbedd4e4e25eda2e87b",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "1a1527632d70c218147928274ac94a915f28217edc95b7ee6a6c9c7dc7be198e",
        "f67c895e94bbf1e7937e37cdbfb62f831d4d4c8603373344fbea89213445f8cb",
        "2a0b2106d1c08e4d6e18558cf841516965759c54f755446ae08a365328f14919",
    ),
    (4, 4, 4, 4): (
        "70e8a490ca425f7f884b28e5ce3ce534c52a381443747bd73d1d4a705eba699a",
        "c997a2d3cc028412b896d1c65b1fbe2848fba81cd6ef81f60b918da9b76197f8",
        "b94f9e3b8c6e0ec6204d94f445ec2954cf8a1e9b15cb01c28ed47d81516618a0",
    ),
    (2, 4, 4, 4): (
        "1e4a4a95e166251204ac9708537b0da5604d4edb4fd3efe70d2e77249c42eeb3",
        "69e166c893109d5dd3cb7982bba45f3ad786bf8424d413f998341b0515b3c285",
        "0adedfc5def5fe664df337bb524f30c1699bd8f8fc019333ad7d2324002e4e59",
    ),
    (2, 2, 128): (
        "72f0e1095d134c327e338373077a19ee5d6d75393baf7ff0f65719a67d2a1b8a",
        "745903def2c24450c3652d4cff3e289a3c99ad729cd7d84ea003f1febb89f52f",
        "79c756faa950fe67784a4c55c8ec78e29c996c027dc2b82160bc095dba56e168",
    ),
    (4, 16, 16): (
        "cf1f60480f6a97ca9c313f695cb0c7f261420a4eac4ddf4a8ea0bff10ef08c00",
        "fb831ed8c7e54aeecc7894ae0f576f6f32c318112bb26cbff5f3324a3afe569b",
        "f1741d412bfde01877a7dba22556a6e0ba807342fbf08102fa32ceae84603aec",
    ),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_record_bytes_match_golden_digest(dims):
    for seed, (expected, expected_basis) in enumerate(zip(GOLDEN[dims], GOLDEN_BASIS[dims])):
        dec = decompose(gen_theorem_graph(DimensionProfile(dims), seed))
        assert digest(format_decomposition(per_term(dec))) == expected, f"seed {seed}"
        assert digest(format_decomposition(dec)) == expected_basis, f"seed {seed}"


GRID_ARRAYS = ("firsts", "choice", "index", "ladder", "top_pattern", "layer_degrees")


def same_bits(a, b):
    """Equal arrays, bit for bit once each zero is +0 (the record writes -0 as 0)."""
    a, b = (np.ascontiguousarray(x) + 0.0 for x in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_both_forms_read_and_verify_alike(dims, tmp_path, capsys):
    # The basis record reads back as the grid in memory, and verify prints
    # the same for it as for the per-term record of the same decomposition.
    for seed in range(3):
        graph = gen_theorem_graph(DimensionProfile(dims), seed)
        dec = decompose(graph)
        grid = parse_decomposition(format_decomposition(dec)).terms
        assert isinstance(grid, TermGrid) and grid.weight == dec.terms.weight
        for name in GRID_ARRAYS:
            assert same_bits(getattr(grid, name), getattr(dec.terms, name)), (seed, name)
        for name in ("vectors", "eigenvalues"):
            assert all(map(same_bits, getattr(grid, name), getattr(dec.terms, name))), (seed, name)
        (tmp_path / "g.graph").write_text(format_graph(graph))
        results = []
        for text in (format_decomposition(dec), format_decomposition(per_term(dec))):
            (tmp_path / "g.dec").write_text(text)
            code = main(["verify", str(tmp_path / "g.graph"), str(tmp_path / "g.dec")])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1] and results[0][0] == 0, seed
