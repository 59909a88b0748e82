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
numpy's own elementwise operations, reductions and ``einsum`` loops (the
per-axis Gram forms, with no ``optimize`` path), never a BLAS call, so
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
        "b4cebc063681e30186afae4ccffbe452a53a8ea6746ae4b85ace3d57aa279cd7",
        "c1b40eb249de1498c0ecfaa87b3008e975d566a476efa046ba6fd94fd28f2cde",
        "80a1c0e74187677b29c67732f74416b6477bfc0457abf090882c470670a71854",
    ),
    (2, 2, 64): (
        "d33ed7327a9c7bf08cf5c7e80a43f54ea46c510716c7a13c37318dfbb62cd1d6",
        "033201344c5c116601bcdf2eb9ed7fbdb14d84c47ae395ff56a47ec33e3d1b40",
        "6b344979ae15c74a65ca78b98480c8452a8de4c2040ac247688bcf817ed36500",
    ),
    (2, 4, 32): (
        "91880e78edcb534d9cf214c13100b76e221318ce154022235661c754f4624f0a",
        "b9fc59ff5b197bf4a4fafa23211662c91d3f8102ecb79907e3ec15f64e13e849",
        "a7ff6d7d747ac60901fd85e36253f112e1f86541a321400490679aed73813ca2",
    ),
    (4, 2, 32): (
        "4ec65f84041e7424654ae08dcb4124419fd03ae54616eaeeaa7943bf3f165a2a",
        "f06fb78ec091f189676e88c992955d9b9159ae2b2c530826d8cbc37d9bb22cf5",
        "0ee2044fcf4c7a83de9e1448acf49702143b0b03434eabd5825a8256286ca9bf",
    ),
    (2, 4, 4, 4, 4): (
        "075e3a121b2e95e7beb45d77b1e0c3977b1c40dceb4f26449465af55de44c5f4",
        "76846952f445eb80c55d2a022478a8916c37706d276e569677efdf7b43e9606e",
        "d9b4848942fcee737bc9718c67c9db4a4117ec4ee442b245152c32b39932ba80",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "1786b48e608fc82e1f57bbedd7c3db6b0f7a7729ecaa807ff2fa22c95d59acd4",
        "8b6a01c79719929892422b533435a979863fbb0c9dd394adb5372485851807ae",
        "c367a1d83f83a9d2e1b88614481f6fe5e5d5798619be2034fe92405096ed79de",
    ),
    (4, 4, 4, 4): (
        "2e1335f1c6d685dd9feb307814b5cf64f32806473f0400bb812e1075e434bc36",
        "b6884d4e30e65e08a08711ee4478dd1ac30d56a5ffbaca6e15620eda34cf997a",
        "6abbc10598b1fd653da89d1fb60326f2bfa3503244e41daf5730bb85bf88781e",
    ),
    (2, 4, 4, 4): (
        "e1b4006bf3966f07b507c161a984f27e28c332d70e03ff47d331c767ede6de5c",
        "87cd393df2f032d44d1a06456fb0d9262839cdb46c8aeceaa19831038e854918",
        "64e237ae51e61c5fd8ae93e27904e78cb209f3c123c16f7024a0fbfb089d1805",
    ),
    (2, 2, 128): (
        "11cb593d58929c1265103c502f73dabd7ced49907bf06c2a96188faf174d7dfe",
        "9122e6b612fe261824302a45a85949cdefdfbb55572ffd8a10388ff2b2a2a901",
        "78a3a2421348ef27206b85269960f7475359f9279bc7f8b8577288106044389b",
    ),
    (4, 16, 16): (
        "145386389238b34b2b334880339e21bab8d9f14a22e89f3ac08fa7c8eafd84af",
        "c33add923f2e19f92905583824fd41108f78a8351218e53cb5b688fef175f872",
        "b6d54d74d888eecc6d1f3d804dd5d5da3c0adc517659d57915647c29edc07aa6",
    ),
}


GOLDEN_BASIS = {
    (3, 2, 2): (
        "e0c1aa5770b4cde255c67e0e5342a521e5481314a70d31db08268d720cd922eb",
        "bfc7a2aeab5a3bc2703e637181c48069facba7ec9ac1c582ec19ab513424ccce",
        "cb333589befdee3b5e45c15ad57e5c23d3096356c63d1c2f08e6a974d2ae6bf4",
    ),
    (2, 2, 64): (
        "4eb649bf9c184c1e15845f5f50b1045308c24912eee4be88f50362fe825cb436",
        "484e09fe63a0c92979e98d1399d71bd452c425c5f308559b1911eb93fa9e6f0a",
        "aeb9318c9a867d371d1c7bcadbe6c957f76bbaf5f5ac1954615bdc0add1606a2",
    ),
    (2, 4, 32): (
        "4cf1279c9a09baaecb28b8ac9f01152f2fa25f09d9ec55cbc519d2b98d8c8c81",
        "e197558f6e55795e8f23c678298c2553d3a790bfa0806bd441ee1f8d26632adb",
        "3797caef51b46a486a33459c46d2556a7d87c758c5632efbe306c300b4903ae3",
    ),
    (4, 2, 32): (
        "767dd437e27aab2c5315e815e0f68a8996c8301a41d1e3cc3ba4e06da11d3f9c",
        "3657235a47e2ccc7b7eac987d14f039d8d6d304864da2b75212765524aefec86",
        "ef6d73e90333dd94ad5eabb728d8d7aa408e06ee2a1e9b1eeff3ca72c8e4fb68",
    ),
    (2, 4, 4, 4, 4): (
        "a0c9530a837bc136e9aa1a9d8a743bdb9b7a7992264cea2edd98bb89b082d0fe",
        "84f466f96372664d4ca0e024a53f1385ceddbdbc107c334485c4c2c769b06a47",
        "58c096caeae5b5f40d07ea3d785e2f9716181ec43c66db86d6bac1ec07401e63",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "86804546675c3a0a97ff1ea035ecc7b691e81d7d59b400bf95bbe6bedcfc41f4",
        "4be4531808c621e4e60721a7fc06c425deaa1fb3877e1e698cafd4a3c8c740b3",
        "74ef08901e76e58b616e79067fc0bf17ef38ce6b75a310490324c9aea2e27c2c",
    ),
    (4, 4, 4, 4): (
        "9f13ebd566c06ceeaff39ddd5dafc921a14e4ceae52e9224d833de55b32bb40a",
        "03bb49b29706ed7e0ecd84ceb5ed5140eb92f941102250fe485246c4822880d5",
        "61dedf2658e0b6c8df14a6b8a2de8088f79c91195f02bf9b7772433f9d652070",
    ),
    (2, 4, 4, 4): (
        "dc3980e190231244c1f745610000661b2719ee5ea0e9a9a4a48e148c72695865",
        "e0f9a86e2c9ab8599c944a3f77f104804a281045911158bb84a00ee2bd1d8a31",
        "f2e56bccff4bcf7c5e820ade7e0c85bb89b3265304c67e1c1a442c77742a0771",
    ),
    (2, 2, 128): (
        "edb915cec5cfb7194946b69fe867d8c83b702215cef81bdb035c3d69c46c160c",
        "2fe2de5e870dfe9bc83d76ec7b550403cfa2d321c2396ee3fc3f44407f1f1c5c",
        "35feab67788d54176e8d27522dba5f9ccee7ca4a27eb235acf7e30264be7b4a7",
    ),
    (4, 16, 16): (
        "f11a42a0ba66305514d8ce291d3e3ef59c876f07b7eab765d105bca4fdeba991",
        "2c518948b98ba66de14f135489212e819c7078cadcabfde0cdd73047141a8248",
        "b96ba28aa9d97c944706c89f3b588ce8e4a1f26b3329e5ca03712ba6c18c31aa",
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
