"""The record writer against a per-value oracle.

The writer formats every row by one ``%`` format, with no memo; the oracle
formats every value on its own with ``format_float``.  They must give the
same bytes on every record, generated or hand built, including values whose
text does not follow from their bits alone (-0.0, NaNs of any payload).
Only a grid has a record: terms held one by one are refused.  A record
read back is the grid it was written from: it writes the same bytes, and its
terms expand as the written grid's do.
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
from graphsep.separability import TermGrid, projector
from graphsep.textio import format_float
from test_golden_records import GOLDEN, per_term, per_term_text

GOLDEN_CASES = [(dims, seed) for dims in GOLDEN for seed in range(3)]

NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000002], dtype=np.uint64
).view(float)


def format_basis_oracle(decomposition):
    """Oracle: the basis-form record, every value through ``format_float``."""
    grid = decomposition.terms

    def text_of(row):
        return " ".join(map(format_float, np.asarray(row, dtype=float).tolist()))

    lines = ["graphsep-decomposition"]
    lines.append("dims " + " ".join(str(d) for d in decomposition.profile.dims))
    lines.append(f"terms {len(grid)}")
    if decomposition.residual is not None:
        lines.append("residual " + format_float(decomposition.residual))
    if decomposition.certificates is not None:
        flags = " ".join(
            f"{name}={'pass' if ok else 'fail'}" for name, ok in decomposition.certificates
        )
        lines.append("certificates " + flags)
    lines.append("weight " + format_float(grid.weight))
    for k, (values, vectors) in enumerate(zip(grid.eigenvalues, grid.vectors), start=2):
        lines.append(f"axis {k} basis {len(values)}")
        lines.append("eigenvalues " + text_of(values))
        lines.extend(map(text_of, vectors))
    lines.append(f"pattern 1 order {len(grid.top_pattern)}")
    lines.extend(" ".join(map(str, row)) for row in grid.top_pattern.tolist())
    lines.append("degrees " + " ".join(map(str, grid.layer_degrees.tolist())))
    return "\n".join(lines) + "\n"


SUBNORMALS = [5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 2.2250738585072014e-308]


@pytest.mark.parametrize(
    "dims, seed", GOLDEN_CASES, ids=[f"{'x'.join(map(str, d))}-{s}" for d, s in GOLDEN_CASES]
)
def test_golden_basis_records_write_like_oracle(dims, seed):
    dec = decompose(gen_theorem_graph(DimensionProfile(dims), seed))
    assert format_decomposition(dec) == format_basis_oracle(dec)


@pytest.mark.parametrize(
    "dims, seed", GOLDEN_CASES, ids=[f"{'x'.join(map(str, d))}-{s}" for d, s in GOLDEN_CASES]
)
def test_golden_records_and_their_round_trips_write_like_oracle(dims, seed):
    # Each golden record read back writes the same bytes, as the oracle
    # writes them, and its terms expand to the written grid's, bit for bit.
    dec = decompose(gen_theorem_graph(DimensionProfile(dims), seed))
    text = format_decomposition(dec)
    back = parse_decomposition(text)
    assert format_decomposition(back) == format_basis_oracle(back) == text
    assert per_term_text(back) == per_term_text(dec)


def test_special_values_in_a_basis_write_like_oracle():
    # -0.0, NaNs of any payload and sign, +-inf and subnormals, in the
    # eigenvalues and in repeated and distinct vector rows: one % format per
    # row gives the text of format_float on each value.
    values = np.array([-0.0, math.nan, math.inf, -math.inf, *SUBNORMALS, *NAN_PAYLOADS, 1 / 3, -1e300, 0.0, -math.nan])
    vectors = values[: 4 * 4].reshape(4, 4).copy()
    vectors[3] = vectors[0]
    grid = TermGrid(
        -0.0,
        (values[:4].copy(), values[4:8].copy()),
        (vectors, np.roll(values, 3)[:16].reshape(4, 4).copy()),
        np.array([[0, 1], [1, 0]]),
        np.array([16, 16]),
    )
    dec = SeparableDecomposition(DimensionProfile((2, 4, 4)), grid, residual=-0.0)
    text = format_decomposition(dec)
    assert text == format_basis_oracle(dec)
    assert "eigenvalues 0.0000000000000000e+00 nan inf -inf" in text.splitlines()
    assert "4.9406564584124654e-324" in text and "nan" in text


def small_grid(weight):
    """A hand-built (2, 2, 3) grid with the common weight ``weight``."""
    return TermGrid(
        weight,
        (np.array([1.0, -1.0]), np.array([2.0, 0.5, -0.0])),
        (np.array([[0.6, 0.8], [0.8, -0.6]]), np.eye(3)),
        np.array([[0, 1], [1, 0]]),
        np.array([6, 6]),
    )


@pytest.mark.parametrize(
    "weight",
    [1, 0, np.float64(0.25), np.float32(0.1), np.int64(3), np.float64(-0.0), np.float64(math.nan)],
    ids=["int-1", "int-0", "float64", "float32", "int64", "float64-minus-zero", "float64-nan"],
)
def test_int_and_numpy_scalar_weights_write_like_oracle(weight):
    dec = SeparableDecomposition(DimensionProfile((2, 2, 3)), small_grid(weight), residual=1e-17)
    text = format_decomposition(dec)
    assert text == format_basis_oracle(dec)
    assert "weight " + format_float(weight) in text.splitlines()


@pytest.mark.parametrize(
    "residual, certificates",
    [(None, None), (1e-17, None), (None, (("reassembly", True), ("ppt", False))), (0.0, (("dominance", True),))],
    ids=["bare", "residual", "certificates", "both"],
)
def test_optional_header_lines_write_like_oracle_and_read_back(residual, certificates):
    # A grid without a residual or certificates has no line for it, and
    # reads back without it.
    dec = SeparableDecomposition(
        DimensionProfile((2, 2, 3)), small_grid(0.25), residual=residual, certificates=certificates
    )
    text = format_decomposition(dec)
    assert text == format_basis_oracle(dec)
    lines = text.splitlines()
    assert any(line.startswith("residual ") for line in lines) == (residual is not None)
    assert any(line.startswith("certificates ") for line in lines) == (certificates is not None)
    back = parse_decomposition(text)
    assert (back.residual, back.certificates) == (residual, certificates)
    assert format_decomposition(back) == text


def test_terms_held_one_by_one_have_no_record():
    # A tuple of terms, a decompose result's or hand built, has no record form.
    f1 = np.array([[0.5, 0.25], [0.25, 0.5]])
    term = DecompositionTerm(1.0, (f1, projector(np.array([0.6, 0.8])), np.eye(3) / 3))
    dec = decompose(gen_theorem_graph(DimensionProfile((2, 2, 3)), 1))
    for held in (per_term(dec), SeparableDecomposition(DimensionProfile((2, 2, 3)), (term,))):
        with pytest.raises(ValueError, match="^only a TermGrid has a record, not a tuple of terms$"):
            format_decomposition(held)
