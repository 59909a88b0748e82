"""Both text parsers against their line-by-line oracles.

``parse_graph`` classifies each line once and converts the edge lines
``format_graph`` writes in bulk.  ``parse_decomposition`` walks the record's
content lines once and reads every line of values (a row, or a ``weight``,
``eigenvalues`` or ``degrees`` line) through one reader.  The oracles here
read every line on its own and build each array as they go:
``parse_graph_by_lines`` (in ``test_graphs``) and
``parse_decomposition_by_lines`` below.  Every case must give an equal graph
or record (arrays bit for bit, signs of zeros included) or the same message
on the same line.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsep import (
    DimensionProfile,
    GraphFormatError,
    SeparableDecomposition,
    format_graph,
    parse_decomposition,
    parse_graph,
    vertex_label,
)
from graphsep.separability import TermGrid
from graphsep.textio import ByteLines
from test_graphs import assert_parse_matches_oracle, content_lines, mutated_graph_texts, small_graphs
from test_separability import mutated_records, sample_records, theorem_record

# -- the record oracle ----------------------------------------------------------


def parse_decomposition_by_lines(text):
    """Oracle: the record parser that reads every line on its own, with the
    checks on the ``axis``, ``pattern``, ``eigenvalues`` and ``degrees``
    lines, and the refusal of a per-term record."""
    lines = list(content_lines(text))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            end = lines[-1][0] + 1 if lines else 1
            raise GraphFormatError("unexpected end of decomposition record", line=end)
        item = lines[pos]
        pos += 1
        return item

    def take_values(size, convert, keyword=None):
        lineno, line = take()
        values = line.split()
        if keyword is not None:
            if values[0] != keyword:
                raise GraphFormatError(f"expected '{keyword}' line, got {line!r}", line=lineno)
            values = values[1:]
        if len(values) != size:
            raise GraphFormatError(f"expected {size} values, got {len(values)}", line=lineno)
        try:
            row = [convert(v) for v in values]
        except ValueError:
            row = None
        if row is None or (convert is int and not all(-(2**63) <= x < 2**63 for x in row)):
            what = "integer" if convert is int else "numeric"
            raise GraphFormatError(f"bad {what} value in {line!r}", line=lineno)
        return row

    lineno, line = take()
    if line != "graphsep-decomposition":
        raise GraphFormatError("expected 'graphsep-decomposition' header", line=lineno)
    lineno, line = take()
    tokens = line.split()
    if tokens[0] != "dims":
        raise GraphFormatError("expected 'dims' line", line=lineno)
    try:
        profile = DimensionProfile(tuple(int(t) for t in tokens[1:]))
    except ValueError as exc:
        raise GraphFormatError(str(exc), line=lineno) from None
    terms_lineno, line = take()
    tokens = line.split()
    if tokens[0] != "terms" or len(tokens) != 2:
        raise GraphFormatError("expected 'terms N' line", line=terms_lineno)
    try:
        expected_terms = int(tokens[1])
    except ValueError:
        expected_terms = -1
    if expected_terms < 0:
        raise GraphFormatError(f"bad term count {tokens[1]!r}", line=terms_lineno)

    residual = None
    certificates = None
    while pos < len(lines) and lines[pos][1].split()[0] in ("residual", "certificates"):
        lineno, line = take()
        tokens = line.split()
        if tokens[0] == "residual":
            try:
                residual = float(tokens[1]) if len(tokens) == 2 else math.nan
            except ValueError:
                residual = math.nan
            if not (math.isfinite(residual) and residual >= 0.0):
                raise GraphFormatError(
                    f"bad residual line {line!r}: expected 'residual x' with finite x >= 0",
                    line=lineno,
                )
        else:
            flags = []
            for tok in tokens[1:]:
                name, _, value = tok.partition("=")
                if not name or value not in ("pass", "fail"):
                    raise GraphFormatError(f"bad certificate flag {tok!r}", line=lineno)
                flags.append((name, value == "pass"))
            certificates = tuple(flags)

    if pos < len(lines) and lines[pos][1].split()[0] == "term":
        lineno, line = take()
        raise GraphFormatError(
            f"{line!r} starts a per-term record, a form no longer read;"
            " re-run 'graphsep decompose' to write the record in basis form",
            line=lineno,
        )
    dims = profile.dims
    if expected_terms != math.prod(dims[1:]):
        raise GraphFormatError(
            f"terms {expected_terms} does not match the {math.prod(dims[1:])} terms of the basis",
            line=terms_lineno,
        )
    weight = take_values(1, float, "weight")[0]
    eigenvalues, vectors = [], []
    for k, d in enumerate(dims[1:], start=2):
        lineno, line = take()
        if line.split() != ["axis", str(k), "basis", str(d)]:
            raise GraphFormatError(f"expected 'axis {k} basis {d}', got {line!r}", line=lineno)
        eigenvalues.append(np.array(take_values(d, float, "eigenvalues")))
        vectors.append(np.array([take_values(d, float) for _ in range(d)]))
    lineno, line = take()
    if line.split() != ["pattern", "1", "order", str(dims[0])]:
        raise GraphFormatError(f"expected 'pattern 1 order {dims[0]}', got {line!r}", line=lineno)
    top = np.array([take_values(dims[0], int) for _ in range(dims[0])], dtype=np.int64)
    degrees = np.array(take_values(dims[0], int, "degrees"), dtype=np.int64)
    if pos != len(lines):
        lineno, line = lines[pos]
        raise GraphFormatError(f"trailing content {line!r}", line=lineno)
    grid = TermGrid(weight, tuple(eigenvalues), tuple(vectors), top, degrees)
    return SeparableDecomposition(profile, grid, residual=residual, certificates=certificates)


def same_bits(a, b):
    """Equal arrays or floats, bit for bit (NaN payloads and zero signs too)."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes()


def assert_same_record(got, expected):
    assert got.profile == expected.profile
    assert same_bits(got.residual, expected.residual)
    assert got.certificates == expected.certificates
    a, b = got.terms, expected.terms
    assert isinstance(a, TermGrid) and isinstance(b, TermGrid)
    assert same_bits(a.weight, b.weight)
    for name in ("eigenvalues", "vectors"):
        x, y = getattr(a, name), getattr(b, name)
        assert len(x) == len(y) and all(map(same_bits, x, y)), name
    for name in ("top_pattern", "layer_degrees"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int64 and x.shape == y.shape and np.array_equal(x, y), name


def assert_record_matches_oracle(text):
    try:
        expected = parse_decomposition_by_lines(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            parse_decomposition(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert_same_record(parse_decomposition(text), expected)


def test_oracle_reads_every_sample_record():
    for text in sample_records():
        assert_record_matches_oracle(text)


# -- existing mutations ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(mutated_records())
def test_record_parser_matches_line_oracle(text):
    assert_record_matches_oracle(text)


# -- one error of each kind at a random line --------------------------------------

GRAPH_ERRORS = ("loop", "range", "duplicate", "duplicate-label", "bad-token", "directive", "bad-label")


@st.composite
def graph_texts_with_one_error(draw):
    """A valid graph text (some edges as label lines) with one bad line put
    at a random place after the header."""
    graph = draw(small_graphs())
    profile = graph.profile
    total = profile.total

    def label(v):
        return ",".join(map(str, vertex_label(v, profile)))

    lines = ["dims " + " ".join(map(str, profile.dims))]
    for a, b in graph.edge_array().tolist():
        lines.append(f"e {a} {b}" if draw(st.booleans()) else f"E {label(a)} {label(b)}")
    kind = draw(st.sampled_from(GRAPH_ERRORS))
    vertex = draw(st.integers(1, total))
    if kind == "loop":
        bad = draw(st.sampled_from([f"e {vertex} {vertex}", f"E {label(vertex)} {label(vertex)}"]))
    elif kind == "range":
        bad = draw(st.sampled_from([f"e 0 {vertex}", f"e {vertex} {total + 1}", f"e -3 {vertex}"]))
    elif kind in ("duplicate", "duplicate-label"):
        a, b = draw(st.sampled_from(graph.edge_array().tolist() or [(1, 2)]))
        a, b = draw(st.sampled_from([(a, b), (b, a)]))
        bad = f"e {a} {b}" if kind == "duplicate" else f"E {label(a)} {label(b)}"
    elif kind == "bad-token":
        bad = draw(st.sampled_from([f"e {vertex} x", f"e {vertex}", f"e {vertex} 2 3", "e 1.5 2"]))
    elif kind == "directive":
        bad = draw(st.sampled_from([f"f {vertex} 1", "edge 1 2", "dims 2 2"]))
    else:
        bad = draw(st.sampled_from([f"E {label(vertex)} 1", "E 1,1 1,1,1,1,1", f"E {label(vertex)}"]))
    lines.insert(draw(st.integers(1, len(lines))), bad)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(graph_texts_with_one_error())
def test_graph_error_matches_line_oracle(text):
    assert_parse_matches_oracle(text)


RECORD_ERRORS = ("bad-float", "short-row", "long-row", "bad-token", "directive", "eigenvalues", "degrees")


@st.composite
def records_with_one_error(draw):
    """A valid record with one line spoilt: a row value, a row length, a
    keyword token, an unknown line, or an eigenvalues or degrees line."""
    lines = draw(st.sampled_from(sample_records())).splitlines()
    kind = draw(st.sampled_from(RECORD_ERRORS))
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit() or line[:1] == "-"]
    keyed = [i for i, line in enumerate(lines) if i not in rows]
    if kind in ("bad-float", "short-row", "long-row"):
        i = draw(st.sampled_from(rows))
        values = lines[i].split()
        if kind == "bad-float":
            values[draw(st.integers(0, len(values) - 1))] = draw(
                st.sampled_from(["x", "1.0.0", "1e", "--1", "0x10", "1,5"])
            )
        elif kind == "short-row":
            del values[draw(st.integers(0, len(values) - 1))]
        else:
            values.append("0.0000000000000000e+00")
        lines[i] = " ".join(values)
    elif kind == "bad-token":
        i = draw(st.sampled_from(keyed))
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(["x", "-1", "nan", "99"]))
        lines[i] = " ".join(tokens)
    elif kind == "directive":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["frobnicate 1", "e 1 2"])))
    else:
        at = [i for i, line in enumerate(lines) if line.startswith(kind + " ")]
        i = draw(st.sampled_from(at))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(["drop", "add", "zero", "big"]))
        if edit == "drop":
            tokens.pop()
        elif edit == "add":
            tokens.append("1")
        else:
            tokens[draw(st.integers(1, len(tokens) - 1))] = "0" if edit == "zero" else "65"
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(records_with_one_error())
def test_record_error_matches_line_oracle(text):
    assert_record_matches_oracle(text)


# -- non-canonical spellings ------------------------------------------------------

GRAPH_TEXT = "# a graph\ndims 2 2 2\ne 1 5\nE 1,1,2 2,1,2\ne 3 7\ne 4 8\n"


def respell(text, line, old, new, count=1):
    """``text`` with ``old`` replaced by ``new`` in its 0-based line ``line``."""
    lines = text.split("\n")
    lines[line] = lines[line].replace(old, new, count)
    return "\n".join(lines)


GRAPH_FORMS = {
    "crlf": GRAPH_TEXT.replace("\n", "\r\n"),
    "cr": GRAPH_TEXT.replace("\n", "\r"),
    "form-feed": GRAPH_TEXT.replace("\ne 3", "\x0ce 3"),
    "nel": GRAPH_TEXT.replace("\ne 3", "\x85e 3"),
    "line-separator": GRAPH_TEXT.replace("\ne 3", "\u2028e 3"),
    "tabs": GRAPH_TEXT.replace("e 3 7", "e\t3\t7"),
    "plus": respell(GRAPH_TEXT, 2, "e 1", "e +1"),
    "arabic-indic": respell(GRAPH_TEXT, 2, "5", "\u0665"),
    "underscore": GRAPH_TEXT.replace("e 4 8", "e 4 0_8"),
    "19-digits": GRAPH_TEXT.replace("e 4 8", "e 4 0000000000000000008"),
    "19-digit-range": GRAPH_TEXT.replace("e 4 8", "e 4 1000000000000000008"),
    "past-int64": GRAPH_TEXT.replace("e 4 8", "e 4 99999999999999999999"),
    "past-int64-loop": GRAPH_TEXT.replace("e 4 8", "e 99999999999999999999 99999999999999999999"),
    "half": GRAPH_TEXT.replace("e 4 8", "e 4 0.5"),
    "milli": GRAPH_TEXT.replace("e 4 8", "e 4 1e-3"),
    "nan": GRAPH_TEXT.replace("e 4 8", "e 4 nan"),
    "minus-inf": GRAPH_TEXT.replace("e 4 8", "e -inf 8"),
    "comment-mid-file": GRAPH_TEXT.replace("e 3 7", "# between\ne 3 7 # trailing"),
    "leading-space": GRAPH_TEXT.replace("e 3 7", "  e 3 7  "),
    "double-space": GRAPH_TEXT.replace("e 3 7", "e  3 7"),
    "edge-before-header": "e 1 2\n" + GRAPH_TEXT,
    "comment-then-edge-first": "# x\n\ne 1 2\ndims 2 2\n",
    "no-header": "# only\n",
    "lone-surrogate": GRAPH_TEXT.replace("e 4 8", "e 4 \ud800"),
    "no-final-newline": GRAPH_TEXT.rstrip("\n"),
    "round-trip": format_graph(parse_graph(GRAPH_TEXT)),
}


@pytest.mark.parametrize("name", sorted(GRAPH_FORMS))
def test_graph_forms_match_line_oracle(name):
    assert_parse_matches_oracle(GRAPH_FORMS[name])


def record_text():
    """A sample record with at least two axes after the first."""
    return next(text for text in sample_records() if text.count("\naxis ") >= 2)


def record_forms():
    text = record_text()
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("axis 2 ")) + 2
    pattern = next(i for i, line in enumerate(lines) if line.startswith("pattern 1 ")) + 1
    first = lines[row].split()[0]
    forms = {
        "crlf": text.replace("\n", "\r\n"),
        "form-feed": text.replace("\naxis 3", "\x0caxis 3"),
        "nel": text.replace("\nweight", "\x85weight", 1),
        "tab-row": respell(text, row, " ", "\t"),
        "tab-header": respell(text, row - 2, " ", "\t"),
        "comment-mid-file": respell(text, pattern, lines[pattern], lines[pattern] + " # note").replace(
            "\naxis 3", "\n# between axes\n\naxis 3"
        ),
        "leading-space-row": respell(text, row, lines[row], " " + lines[row]),
        "double-space-row": respell(text, pattern, " ", "  "),
        "eigenvalues-comment": text.replace("\neigenvalues", "\n# l\neigenvalues", 1),
        "no-final-newline": text.rstrip("\n"),
    }
    for name, value in {
        "plus": "+1",
        "arabic-indic": "\u0661",
        "underscore": "1_0",
        "19-digits": "1234567890123456789",
        "half": "0.5",
        "milli": "1e-3",
        "nan": "nan",
        "minus-inf": "-inf",
        "repr": repr(0.1),
        "short-exponent": "5.0000000000000000e-1",
        "four-digit-exponent": "1.0000000000000000e+1234",
        "overflow": "1.0000000000000000e+309",
        "subnormal": "4.9406564584124654e-324",
        "negative-zero": "-0.0000000000000000e+00",
        "upper-exponent": "1.0000000000000000E+00",
    }.items():
        forms["row-" + name] = respell(text, row, first, value)
        forms["pattern-" + name] = respell(text, pattern, lines[pattern].split()[-1], value)
        forms["weight-" + name] = text.replace("\nweight ", "\nweight " + value + " #", 1)
    forms["degrees-arabic-indic"] = text.replace("\ndegrees ", "\ndegrees \u0661", 1)
    forms["degrees-plus"] = text.replace("\ndegrees ", "\ndegrees +", 1)
    return forms


RECORD_FORMS = record_forms()


@pytest.mark.parametrize("name", sorted(RECORD_FORMS))
def test_record_forms_match_line_oracle(name):
    assert_record_matches_oracle(RECORD_FORMS[name])


# -- two faults in one record: the earlier line, and on one line the first check --

M22_RECORD = [
    "graphsep-decomposition",
    "dims 2 2",
    "terms 2",
    "weight 0.5",
    "axis 2 basis 2",
    "eigenvalues 1.0 -1.0",  # line 6
    "0.6 0.8",  # line 7
    "0.8 -0.6",
    "pattern 1 order 2",  # line 9
    "0 1",
    "1 0",
    "degrees 1 1",  # line 12
]

TWO_FAULTS = {
    # line number -> its new text (None drops the line), and the message.
    "bad-row-then-bad-header": (
        {7: "0.6 x", 9: "pattern 1 oder 2"},
        "line 7: bad numeric value in '0.6 x'",
    ),
    "row-count-and-token": ({7: "x 0.6 0.8"}, "line 7: expected 2 values, got 3"),
    "eigenvalues-token-and-count": ({6: "eigenvalues x 1.0 -1.0"}, "line 6: expected 2 values, got 3"),
    "degrees-token-and-count": ({12: "degrees x 1 1"}, "line 12: expected 2 values, got 3"),
    "pattern-row-then-degrees": ({10: "0 x", 12: "degrees x"}, "line 10: bad integer value in '0 x'"),
    "last-line-missing": ({12: None}, "line 12: unexpected end of decomposition record"),
    "same-bad-row-twice": ({7: "x 1.0", 8: "x 1.0"}, "line 7: bad numeric value in 'x 1.0'"),
}


def m22_text(edits):
    """``M22_RECORD`` with the lines ``edits`` names replaced by its texts
    (None drops a line, a text with line breaks puts in several)."""
    lines = [edits.get(lineno, line) for lineno, line in enumerate(M22_RECORD, start=1)]
    return "\n".join(line for line in lines if line is not None) + "\n"


def assert_pinned(text, message):
    """The parser and the line oracle agree on ``text``; it fails with
    ``message``, or with None reads."""
    assert_record_matches_oracle(text)
    if message is None:
        parse_decomposition(text)
        return
    with pytest.raises(GraphFormatError) as got:
        parse_decomposition(text)
    assert str(got.value) == message


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_two_faults_give_the_pinned_message(name):
    edits, message = TWO_FAULTS[name]
    assert_pinned(m22_text(edits), message)


# -- each line of the basis checked as it is taken -----------------------------------

EIGENVALUES_AND_DEGREES = {
    "eigenvalues-long": ({6: "eigenvalues 1.0 -1.0 0.0"}, "line 6: expected 2 values, got 3"),
    "eigenvalues-bare": ({6: "eigenvalues"}, "line 6: expected 2 values, got 0"),
    "eigenvalues-token": ({6: "eigenvalues x -1.0"}, "line 6: bad numeric value in 'eigenvalues x -1.0'"),
    "eigenvalues-keyword": (
        {6: "eigenvalue 1.0 -1.0"},
        "line 6: expected 'eigenvalues' line, got 'eigenvalue 1.0 -1.0'",
    ),
    "eigenvalues-missing": ({6: None}, "line 6: expected 'eigenvalues' line, got '0.6 0.8'"),
    # Non-finite values are read; verification judges them.
    "eigenvalues-non-finite": ({6: "eigenvalues nan -inf"}, None),
    "degrees-float": ({12: "degrees 1 1.0"}, "line 12: bad integer value in 'degrees 1 1.0'"),
    "degrees-hex": ({12: "degrees 0x1 1"}, "line 12: bad integer value in 'degrees 0x1 1'"),
    # Past int64: not a value the reader holds.
    "degrees-past-int64": (
        {12: "degrees 9223372036854775808 1"},
        "line 12: bad integer value in 'degrees 9223372036854775808 1'",
    ),
    "degrees-below-int64": (
        {12: "degrees -9223372036854775809 1"},
        "line 12: bad integer value in 'degrees -9223372036854775809 1'",
    ),
    "degrees-int64-bounds": ({12: "degrees 9223372036854775807 -9223372036854775808"}, None),
    "degrees-short": ({12: "degrees 1"}, "line 12: expected 2 values, got 1"),
    "degrees-keyword": ({12: "degree 1 1"}, "line 12: expected 'degrees' line, got 'degree 1 1'"),
    # A negative degree is read; verification judges it.
    "degrees-negative": ({12: "degrees -1 0"}, None),
}


@pytest.mark.parametrize("name", sorted(EIGENVALUES_AND_DEGREES))
def test_eigenvalues_and_degrees_lines_are_checked(name):
    edits, message = EIGENVALUES_AND_DEGREES[name]
    assert_pinned(m22_text(edits), message)


AXIS_AND_PATTERN = {
    "axis-keyword": ({5: "axis 2 bases 2"}, "line 5: expected 'axis 2 basis 2', got 'axis 2 bases 2'"),
    "axis-order-token": ({5: "axis 2 basis x"}, "line 5: expected 'axis 2 basis 2', got 'axis 2 basis x'"),
    "axis-extra-token": ({5: "axis 2 basis 2 2"}, "line 5: expected 'axis 2 basis 2', got 'axis 2 basis 2 2'"),
    "axis-wrong-axis": ({5: "axis 3 basis 2"}, "line 5: expected 'axis 2 basis 2', got 'axis 3 basis 2'"),
    # Headers are compared token by token: any run of blanks separates them.
    "axis-spacing": ({5: "axis\t2  basis 2"}, None),
    "eigenvalues-before-axis": (
        {5: "eigenvalues 1.0 -1.0", 6: "axis 2 basis 2"},
        "line 5: expected 'axis 2 basis 2', got 'eigenvalues 1.0 -1.0'",
    ),
    # One eigenvector too many: it stands where F_1's header must.
    "extra-vector-row": ({8: "0.8 -0.6\n1.0 0.0"}, "line 9: expected 'pattern 1 order 2', got '1.0 0.0'"),
    "pattern-order": ({9: "pattern 1 order 3"}, "line 9: expected 'pattern 1 order 2', got 'pattern 1 order 3'"),
    "pattern-axis": ({9: "pattern 2 order 2"}, "line 9: expected 'pattern 1 order 2', got 'pattern 2 order 2'"),
    "pattern-header-missing": ({9: None}, "line 9: expected 'pattern 1 order 2', got '0 1'"),
    "pattern-short-row": ({10: "0"}, "line 10: expected 2 values, got 1"),
}


@pytest.mark.parametrize("name", sorted(AXIS_AND_PATTERN))
def test_axis_and_pattern_headers_are_checked(name):
    edits, message = AXIS_AND_PATTERN[name]
    assert_pinned(m22_text(edits), message)


HEADER_LINES = {
    "dims-keyword": ({2: "dim 2 2"}, "line 2: expected 'dims' line"),
    "dims-one-axis": ({2: "dims 2"}, "line 2: need at least 2 subsystems, got 1"),
    "dims-order-one": ({2: "dims 2 1"}, "line 2: axis 2: dimension must be >= 2, got 1"),
    "dims-token": ({2: "dims 2 x"}, "line 2: invalid literal for int() with base 10: 'x'"),
    "terms-bare": ({3: "terms"}, "line 3: expected 'terms N' line"),
    "terms-two-counts": ({3: "terms 2 2"}, "line 3: expected 'terms N' line"),
    "terms-keyword": ({3: "term 2"}, "line 3: expected 'terms N' line"),
    "terms-too-many": ({3: "terms 3"}, "line 3: terms 3 does not match the 2 terms of the basis"),
    # The residual and certificates lines come in either order; a second
    # residual line replaces the first.
    "certificates-then-residual": ({3: "terms 2\ncertificates reassembly=pass ppt=fail\nresidual 1e-17"}, None),
    "residual-twice": ({3: "terms 2\nresidual 1.0\nresidual 0.0"}, None),
    "certificate-value": ({3: "terms 2\ncertificates ppt=maybe"}, "line 4: bad certificate flag 'ppt=maybe'"),
    # Header lines are read only before the weight.
    "residual-after-weight": ({4: "weight 0.5\nresidual 0.0"}, "line 5: expected 'axis 2 basis 2', got 'residual 0.0'"),
    # Comments and blank lines before the magic line count in line numbers.
    "comment-before-magic": (
        {1: "# a note\n\ngraphsep-decomposition", 12: "degrees 1"},
        "line 14: expected 2 values, got 1",
    ),
}


@pytest.mark.parametrize("name", sorted(HEADER_LINES))
def test_header_lines_are_checked(name):
    edits, message = HEADER_LINES[name]
    assert_pinned(m22_text(edits), message)


def test_header_lines_read_in_either_order_and_the_last_residual_holds():
    for edits in (HEADER_LINES["certificates-then-residual"][0], HEADER_LINES["residual-twice"][0]):
        record = parse_decomposition(m22_text(edits))
        assert record.residual == (1e-17 if record.certificates else 0.0)
    record = parse_decomposition(m22_text(HEADER_LINES["certificates-then-residual"][0]))
    assert record.certificates == (("reassembly", True), ("ppt", False))


def test_int64_degrees_are_held_exactly():
    record = parse_decomposition(m22_text(EIGENVALUES_AND_DEGREES["degrees-int64-bounds"][0]))
    assert record.terms.layer_degrees.tolist() == [2**63 - 1, -(2**63)]


def test_untouched_record_reads_back():
    text = "\n".join(M22_RECORD) + "\n"
    assert_record_matches_oracle(text)
    assert len(parse_decomposition(text).terms) == 2


def test_cut_record_names_the_line_after_its_last():
    # Cut after every complete line, with a comment and a blank line after
    # the cut: the error names the line after the last content line.
    lines = theorem_record((2, 4, 4, 4), 1).splitlines()
    for cut in range(len(lines)):
        text = "\n".join(lines[:cut] + ["# cut here", ""]) + "\n"
        with pytest.raises(GraphFormatError, match="unexpected end of decomposition record") as got:
            parse_decomposition(text)
        assert got.value.line == cut + 1, cut


# -- graphs: the existing mutations on more texts ---------------------------------


@settings(max_examples=200, deadline=None)
@given(mutated_graph_texts(), st.sampled_from(["\n", "\r\n", "\x0c", "\x85"]))
def test_graph_breaks_match_line_oracle(text, newline):
    assert_parse_matches_oracle(text.replace("\n", newline))


# -- graphs: runs of chosen lines, and line numbers built only on an error ------------

SELECT_TEXTS = ["", "e 1 2", "dims 2 2\ne 1 3\n\n# note\ne 2 4\nE 1,1 2,2", "a\nb\u00e9\n\nc"]


def select_masks(count):
    rng = np.random.default_rng(count)
    masks = {
        "empty": np.zeros(count, dtype=bool),
        "full": np.ones(count, dtype=bool),
        "first-only": np.arange(count) == 0,
        "last-only": np.arange(count) == count - 1,
        "alternating": np.arange(count) % 2 == 0,
        "alternating-from-second": np.arange(count) % 2 == 1,
    }
    masks.update((f"random-{i}", rng.random(count) < 0.5) for i in range(4))
    return masks


@pytest.mark.parametrize("text", SELECT_TEXTS)
def test_select_joins_the_chosen_lines(text):
    lines = ByteLines(text)
    split = (text + "\n").splitlines()  # a final break starts one more, empty line
    assert len(lines) == len(split)
    for name, mask in select_masks(len(split)).items():
        expected = b"".join(line.encode() + b"\n" for line, chosen in zip(split, mask) if chosen)
        assert lines.select(mask) == expected, name


# One text per way an edge row gets its line number: a bad row among the
# canonical lines, a duplicate among them, a duplicate of an 'E' line (whose
# rows are merged in line order), and an earlier duplicate behind a bad row.
LAZY_LINE_NUMBERS = {
    "loop": ("dims 2 2\ne 1 3\ne 3 3\ne 2 4\n", "line 3: loop at vertex 3"),
    "out-of-range": ("dims 2 2\ne 1 3\n# note\ne 2 9\n", "line 4: edge (2,9) leaves the range 1..4"),
    "duplicate-canonical": (
        "dims 2 2\ne 1 3\ne 2 4\n\ne 3 1\n",
        "line 5: duplicate edge (1,3), first seen on line 2",
    ),
    "duplicate-of-label-line": (
        "dims 2 2\ne 2 4\nE 1,1 2,1\ne 3 1\n",
        "line 4: duplicate edge (1,3), first seen on line 3",
    ),
    "label-line-duplicate": (
        "dims 2 2\ne 1 3\ne 2 4\nE 2,2 1,2\n",
        "line 4: duplicate edge (2,4), first seen on line 3",
    ),
    "duplicate-before-loop": (
        "dims 2 2\ne 1 3\ne 1 3\ne 2 2\n",
        "line 3: duplicate edge (1,3), first seen on line 2",
    ),
    "loop-before-duplicate": (
        "dims 2 2\ne 4 4\ne 1 3\ne 1 3\n",
        "line 2: loop at vertex 4",
    ),
}


@pytest.mark.parametrize("name", sorted(LAZY_LINE_NUMBERS))
def test_edge_errors_name_their_line(name):
    text, message = LAZY_LINE_NUMBERS[name]
    assert_parse_matches_oracle(text)
    with pytest.raises(GraphFormatError) as got:
        parse_graph(text)
    assert str(got.value) == message


# -- splices of keywords, values, digits and breaks ---------------------------------

SPLICES = st.sampled_from(
    list("eE0123456789.,+-#_ax\t\n\r\x0c\x85\u0661 ")
    + ["e ", "dims 2 2 2\n", "1.0000000000000000e+00", " 5.0000000000000000e-01", "weight ", "eigenvalues ", "term "]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SPLICES, max_size=60))
# Both labels are bad; the first one is named, as the oracle names it.
@example(["E", " ", "0", "\t", "e"])
def test_spliced_graph_text_matches_line_oracle(pieces):
    assert_parse_matches_oracle("dims 2 2 2\n" + "".join(pieces))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sample_records()), st.data())
def test_spliced_record_matches_line_oracle(text, data):
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    cut = data.draw(st.integers(0, len(lines[i])))
    rest = data.draw(st.integers(cut, len(lines[i])))
    lines[i] = lines[i][:cut] + "".join(data.draw(st.lists(SPLICES, max_size=6))) + lines[i][rest:]
    assert_record_matches_oracle("\n".join(lines))
