"""Golden decomposition records: the sha256 of ``format_decomposition(decompose(g))``
for theorem graphs, seeds 0-2.

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

import pytest

from graphsep import DimensionProfile, decompose, format_decomposition, gen_theorem_graph

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


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_record_bytes_match_golden_digest(dims):
    for seed, expected in enumerate(GOLDEN[dims]):
        graph = gen_theorem_graph(DimensionProfile(dims), seed)
        record = format_decomposition(decompose(graph))
        assert hashlib.sha256(record.encode()).hexdigest() == expected, f"seed {seed}"
