"""Golden decomposition records: the sha256 of ``format_decomposition(decompose(g))``
for theorem graphs, seeds 0-2.

The profiles are every theorem profile of the certify workloads in
``perfbench/workloads.py``, plus (2, 2, 128), whose terms reassemble in
several blocks, and (4, 16, 16), at the default vertex cap.  Records are an
output contract: a change that moves any of these digests changes the bytes
of a record, and must be announced as a format change.
"""

import hashlib

import pytest

from graphsep import DimensionProfile, decompose, format_decomposition, gen_theorem_graph

GOLDEN = {
    (3, 2, 2): (
        "d48324324802d616acacb636dd5327892b6f500f40f7d05099d6c45b169bed9f",
        "cbf4a773901b35015168100116fa8f77db979939380c343a64e4a6cddfa778e9",
        "8a60f47fa843e033e7b11fe79475e779fc961974adf989b186219ba3179fcee7",
    ),
    (2, 2, 64): (
        "6fab28d955a4aab2a0e5104c937bccf69c6c389edf8572534aa5815d21e88d9f",
        "423c835c00167d8130b92d3ef446318d400d0a04eac519e27be303f6e23f6a19",
        "6b7ae3440984dffa683c551b3ec67eb15da29f90d5767de36a4f48fff37e0366",
    ),
    (2, 4, 32): (
        "9ca92ceff78308d8383dbca11d56f74a47541e69d1ae10065c29f7d1e7385f12",
        "60df2aa1fe857d2cf3f4aad15237228c8fcd0d6190e6dc20c55b1a0fef3576b2",
        "50e753bbc913ffafde3267769a1c0b51c623fbddd2ed63c0dcd25e2851788890",
    ),
    (4, 2, 32): (
        "fc1c5c388333f1fcd92319d67e95a77ed28e922df13881a4d7969a530fd3056a",
        "bb3f290f5520b89c093c52db52d07cb77382c3f0663821d61ca3ab056d94a8f6",
        "be91280cad7ec4aa712cee4fde0c8773c4fdb880011bcdcede2e45240d874743",
    ),
    (2, 4, 4, 4, 4): (
        "b86a77256b5c6da3e3bd86a9b350d2173440afbd08b77e4ff5fda002fdb528ff",
        "2e391c06c30a9c29968b3eb5d8b1503884ada75717a7e886309155e4c88890df",
        "3fb72a1b872f37a5bd83d262a6b966a3cb5c0d2334b0ecbeff49fb384a30e796",
    ),
    (2, 2, 2, 2, 2, 2, 2, 2): (
        "7cc535650e20c33a0d1cad145f3accdc521204fd9d5d680242332b8e10099063",
        "ee4939ec307a4d79c16a47f9b2526ff9b29ed5a2f904f673d1a901c4ee6f4155",
        "23fce0f9b172a5f9902990ada9fd0acbb0fa08c5d97b5e31a311d726b55428b6",
    ),
    (4, 4, 4, 4): (
        "154e5f929d854978310424337c3ec0f287650b5c9515c7ed2b4886b94cb8e0b0",
        "1363bdb810f4e87de6608a3dbbb058da7363f1d3fd15fafc3d7f75eba7ab49e6",
        "26bad07fd07b2ba9d906d05c6635d582e3d1a7bcd88c162a1dbef3cc5c713884",
    ),
    (2, 4, 4, 4): (
        "c9106699e4582e6d8a039278ccb2a442971dc5eb0b7d07e01b53a45a45c91454",
        "15f56882060c7a93e48522700aeb26b9cd76d04e329ed29e821dcf258d79cf91",
        "7dedae6ba24a8ca3a02d8ee0f56f3e50e72519a650aa6a5fcc30f8bf8f91aef1",
    ),
    (2, 2, 128): (
        "557af5818adbf66f2be82f6a34d70d74f543985302a0578448517d66838ed6df",
        "d2ee6d7f2638bf4eff7b8d8b55081af4d90646149bbd11e8a11958727105bb3c",
        "0b578f71381d2f4952858d7bb6fd54c559700b950fe2b747f29126d40a87d725",
    ),
    (4, 16, 16): (
        "c08c52e731be26d4c76e6748de6be09d25e1a1a4a55d8f8e230feac9674439a3",
        "926f01658112a2e0015e241aa424684d77bd4ba07d96f74295ea8288eb9e0b82",
        "94e86b7e3500e729b1fd908628419253164d436ecbbb0745724a0123d6430e87",
    ),
}


@pytest.mark.parametrize("dims", list(GOLDEN), ids=lambda dims: "x".join(map(str, dims)))
def test_record_bytes_match_golden_digest(dims):
    for seed, expected in enumerate(GOLDEN[dims]):
        graph = gen_theorem_graph(DimensionProfile(dims), seed)
        record = format_decomposition(decompose(graph))
        assert hashlib.sha256(record.encode()).hexdigest() == expected, f"seed {seed}"
