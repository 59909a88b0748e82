"""The per-term record writer against the row-memo writer it replaced.

``format_decomposition_row_memo`` is the writer as it stood before weights,
ladders and rank-one factor blocks got memos of their own: one dict from a
row's float64 bytes to its text, every other line built per term.  The
current writer must give the same bytes on every record, generated or hand
built, including values whose text does not follow from their bits alone
(-0.0, NaNs of any payload) and keys that share one object across terms and
axes.
"""

import math

import numpy as np
import pytest

from graphsep import (
    DecompositionTerm,
    DimensionProfile,
    SeparableDecomposition,
    decompose,
    format_decomposition,
    gen_theorem_graph,
    parse_decomposition,
)
from graphsep.separability import projector
from graphsep.textio import format_float
from test_golden_records import GOLDEN, per_term


def format_decomposition_row_memo(decomposition):
    """Oracle: the record writer with one memo, for rows by their bytes."""
    texts = {}

    def text_of(row):
        key = row.tobytes()
        text = texts.get(key)
        if text is None:
            text = texts[key] = " ".join(map(format_float, row.tolist()))
        return text

    lines = ["graphsep-decomposition"]
    lines.append("dims " + " ".join(str(d) for d in decomposition.profile.dims))
    lines.append(f"terms {len(decomposition.terms)}")
    if decomposition.residual is not None:
        lines.append("residual " + format_float(decomposition.residual))
    if decomposition.certificates is not None:
        flags = " ".join(
            f"{name}={'pass' if ok else 'fail'}" for name, ok in decomposition.certificates
        )
        lines.append("certificates " + flags)
    for i, term in enumerate(decomposition.terms, start=1):
        lines.append(f"term {i}")
        if term.index is not None:
            lines.append("index " + " ".join(str(r) for r in term.index))
        lines.append("weight " + format_float(term.weight))
        if term.ladder is not None:
            lines.append("ladder " + text_of(np.asarray(term.ladder, dtype=float)))
        vectors = term.vectors or (None,) * len(term.factors)
        pairs = zip(term.factors, vectors, strict=True)
        for k, (factor, vector) in enumerate(pairs, start=1):
            if vector is None:
                rows = np.asarray(factor, dtype=float)
                lines.append(f"factor {k} order {len(rows)}")
            else:
                rows = np.asarray(vector, dtype=float)[None, :]
                lines.append(f"factor {k} vector {rows.shape[1]}")
            lines.extend(map(text_of, rows))
    return "\n".join(lines) + "\n"


def assert_writes_like_oracle(decomposition):
    text = format_decomposition(decomposition)
    assert text == format_decomposition_row_memo(decomposition)
    return text


GOLDEN_CASES = [(dims, seed) for dims in GOLDEN for seed in range(3)]


@pytest.mark.parametrize(
    "dims, seed", GOLDEN_CASES, ids=[f"{'x'.join(map(str, d))}-{s}" for d, s in GOLDEN_CASES]
)
def test_golden_records_and_their_round_trips_write_like_oracle(dims, seed):
    # The per-term form of each decomposition, and of its per-term record read back.
    text = assert_writes_like_oracle(per_term(decompose(gen_theorem_graph(DimensionProfile(dims), seed))))
    assert assert_writes_like_oracle(parse_decomposition(text)) == text


def record(terms, dims=(2, 2, 3), **header):
    return SeparableDecomposition(DimensionProfile(dims), tuple(terms), **header)


F1 = np.array([[0.5, 0.25], [0.25, 0.5]])
V2 = np.array([0.6, 0.8])
V3 = np.array([1.0, 0.0, 0.0])


def rank_one(weight, v2=V2, v3=V3, index=None, ladder=None, f1=F1):
    vectors = (None, v2, v3)
    factors = (f1, projector(np.asarray(v2, dtype=float)), projector(np.asarray(v3, dtype=float)))
    return DecompositionTerm(weight, factors, index, ladder, vectors=vectors)


NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000002], dtype=np.uint64
).view(float)


def test_special_values_write_like_oracle():
    # -0.0 and 0.0 share a text but not their bytes or (for ladders) their
    # tuple keys' objects; NaNs of other payloads and signs all write "nan".
    terms = [
        rank_one(-0.0, np.array([-0.0, 1.0]), ladder=(-0.0, 2.0), index=(1, 1)),
        rank_one(0.0, np.array([0.0, 1.0]), ladder=(0.0, 2.0), index=(1, 2)),
        rank_one(math.nan, np.array([math.nan, math.inf]), ladder=(math.nan, -math.inf)),
        rank_one(float(NAN_PAYLOADS[0]), NAN_PAYLOADS[:2].copy(), ladder=tuple(NAN_PAYLOADS[1:])),
        rank_one(math.inf, np.array([-math.inf, math.inf]), np.array([math.nan, -0.0, math.inf])),
        rank_one(-math.inf, f1=np.array([[math.nan, -math.inf], [-0.0, math.inf]])),
    ]
    text = assert_writes_like_oracle(record(terms, residual=-0.0))
    lines = text.splitlines()
    assert lines.count("weight 0.0000000000000000e+00") == 2
    assert lines.count("weight nan") == 2
    assert lines.count("ladder nan nan") == 1 and lines.count("ladder nan -inf") == 1


@pytest.mark.parametrize(
    "weight",
    [1, 0, np.float64(0.25), np.float32(0.1), np.int64(3), np.float64(-0.0), np.float64(math.nan)],
    ids=["int-1", "int-0", "float64", "float32", "int64", "float64-minus-zero", "float64-nan"],
)
def test_int_and_numpy_scalar_weights_write_like_oracle(weight):
    # Each weight next to its float64 value, which equals it (but for NaN
    # and float32) and shares its hash.
    assert_writes_like_oracle(record([rank_one(weight), rank_one(float(weight)), rank_one(weight)]))


def test_vector_shared_by_terms_and_axes_writes_like_oracle():
    shared = np.array([1.0, 0.0])
    triple = np.array([0.0, 0.6, 0.8])
    same_bytes = shared.copy()
    terms = [
        DecompositionTerm(
            0.25,
            (projector(shared), projector(shared), projector(triple)),
            vectors=(shared, shared, triple),
        ),
        rank_one(0.25, shared, triple, ladder=(1.0, 1.0)),
        rank_one(0.25, same_bytes, triple, ladder=(1.0, 1.0)),
        DecompositionTerm(
            0.25,
            (F1, projector(shared), projector(triple)),
            vectors=(None, shared, None),
        ),
    ]
    text = assert_writes_like_oracle(record(terms))
    lines = text.splitlines()
    assert lines.count("factor 1 vector 2") == 1 and lines.count("factor 2 vector 2") == 4
    assert lines.count("factor 3 vector 3") == 3 and lines.count("factor 3 order 3") == 1


def test_terms_without_vectors_index_or_ladder_write_like_oracle():
    special = np.array([[math.nan, math.inf], [-math.inf, 0.25]])
    terms = [
        DecompositionTerm(0.5, (F1, special, np.diag([-0.0, 0.0, math.nan]))),
        DecompositionTerm(0.25, (F1, projector(V2), projector(V3)), index=(1, 2)),
        DecompositionTerm(0.25, (F1, projector(V2), projector(V3)), ladder=(0.5, -1.0)),
        DecompositionTerm(0.25, (F1, F1, projector(V3)), vectors=(None, None, V3)),
        rank_one(0.25, [0.6, 0.8], [1, 0, 0], index=(2, 1), ladder=[0.5, -1.0]),
    ]
    assert_writes_like_oracle(
        record(terms, certificates=(("reassembly", True), ("ppt", False)))
    )


@pytest.mark.parametrize("with_header", [False, True])
def test_one_term_record_writes_like_oracle(with_header):
    header = {"residual": 1e-17, "certificates": (("dominance", True),)} if with_header else {}
    text = assert_writes_like_oracle(record([rank_one(1.0, index=(1, 1), ladder=(0.5,))], **header))
    assert text.count("term 1\n") == 1


def test_empty_ladder_writes_like_oracle():
    # A hand-built ladder of no values is a row of no bytes: "ladder ".
    text = assert_writes_like_oracle(record([rank_one(1.0, ladder=())]))
    assert "\nladder \n" in text
