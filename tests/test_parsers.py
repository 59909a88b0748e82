"""Both text parsers against their line-by-line oracles.

``parse_graph`` classifies each line once and converts the edge lines
``format_graph`` writes in bulk.  ``parse_decomposition`` walks the record's
content lines once, reads every line of values (a row, or a ``weight``,
``index`` or ``ladder`` line) through one reader, and takes a vector row
text it has read before on the same axis without converting it again.  The oracles here read every
line on its own and build each factor as they go: ``parse_graph_by_lines``
(in ``test_graphs``) and ``parse_decomposition_by_lines`` below.  Every
case must give an equal graph or record (factors bit for bit, signs of
zeros included) or the same message on the same line.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    DecompositionTerm,
    DimensionProfile,
    GraphFormatError,
    SeparableDecomposition,
    format_graph,
    parse_decomposition,
    parse_graph,
    vertex_label,
)
from graphsep.separability import projector
from test_graphs import assert_parse_matches_oracle, content_lines, mutated_graph_texts, small_graphs
from test_separability import mutated_records, sample_records, theorem_record

# -- the record oracle ----------------------------------------------------------


def parse_decomposition_by_lines(text):
    """Oracle: the record parser that reads every line on its own, with the
    checks on ``index`` (n - 1 integers, entry s in 1..N_{n-s+1}) and
    ``ladder`` (n - 1 floats) lines."""
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

    def take_row(size):
        lineno, line = take()
        values = line.split()
        if len(values) != size:
            raise GraphFormatError(f"expected {size} values, got {len(values)}", line=lineno)
        try:
            return [float(v) for v in values]
        except ValueError:
            raise GraphFormatError(f"bad numeric value in {line!r}", line=lineno) from None

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
    lineno, line = take()
    tokens = line.split()
    if tokens[0] != "terms" or len(tokens) != 2:
        raise GraphFormatError("expected 'terms N' line", line=lineno)
    try:
        expected_terms = int(tokens[1])
    except ValueError:
        expected_terms = -1
    if expected_terms < 0:
        raise GraphFormatError(f"bad term count {tokens[1]!r}", line=lineno)

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

    dims = profile.dims
    n = profile.n
    terms = []
    for i in range(1, expected_terms + 1):
        lineno, line = take()
        if line.split() != ["term", str(i)]:
            raise GraphFormatError(f"expected 'term {i}', got {line!r}", line=lineno)
        index = None
        ladder = None
        if pos < len(lines) and lines[pos][1].startswith("index "):
            lineno, line = take()
            tokens = line.split()[1:]
            if len(tokens) != n - 1:
                raise GraphFormatError(f"expected {n - 1} values, got {len(tokens)}", line=lineno)
            try:
                index = tuple(int(t) for t in tokens)
            except ValueError:
                index = None
            if index is None or not all(-(2**63) <= r < 2**63 for r in index):
                raise GraphFormatError(f"bad integer value in {line!r}", line=lineno)
            for s, r in enumerate(index, start=1):
                if not 1 <= r <= dims[n - s]:
                    raise GraphFormatError(
                        f"index entry {s} is {r}, outside 1..{dims[n - s]}", line=lineno
                    )
        lineno, line = take()
        tokens = line.split()
        if tokens[0] != "weight":
            raise GraphFormatError(f"expected 'weight' line, got {line!r}", line=lineno)
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 1 values, got {len(tokens) - 1}", line=lineno)
        try:
            weight = float(tokens[1])
        except ValueError:
            raise GraphFormatError(f"bad numeric value in {line!r}", line=lineno) from None
        if pos < len(lines) and lines[pos][1].startswith("ladder "):
            lineno, line = take()
            tokens = line.split()[1:]
            if len(tokens) != n - 1:
                raise GraphFormatError(f"expected {n - 1} values, got {len(tokens)}", line=lineno)
            try:
                ladder = tuple(float(t) for t in tokens)
            except ValueError:
                raise GraphFormatError(f"bad numeric value in {line!r}", line=lineno) from None
        factors = []
        vectors = []
        for k in range(1, n + 1):
            lineno, line = take()
            tokens = line.split()
            if tokens[:2] != ["factor", str(k)] or len(tokens) != 4 or tokens[2] not in ("order", "vector"):
                raise GraphFormatError(
                    f"expected 'factor {k} order d' or 'factor {k} vector d', got {line!r}",
                    line=lineno,
                )
            form = tokens[2]
            try:
                order = int(tokens[3])
            except ValueError:
                raise GraphFormatError(f"bad order {tokens[3]!r}", line=lineno) from None
            if order != dims[k - 1]:
                raise GraphFormatError(
                    f"factor {k} {form} {order} does not match dimension {dims[k - 1]}",
                    line=lineno,
                )
            if form == "vector":
                vectors.append(np.array(take_row(order)))
                factors.append(projector(vectors[-1]))
            else:
                vectors.append(None)
                factors.append(np.array([take_row(order) for _ in range(order)]))
        terms.append(DecompositionTerm(weight, tuple(factors), index, ladder, vectors=tuple(vectors)))
    if pos != len(lines):
        lineno, line = lines[pos]
        raise GraphFormatError(f"trailing content {line!r}", line=lineno)
    return SeparableDecomposition(profile, tuple(terms), residual=residual, certificates=certificates)


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
    assert len(got.terms) == len(expected.terms)
    for a, b in zip(got.terms, expected.terms):
        assert same_bits(a.weight, b.weight)
        assert a.index == b.index
        assert same_bits(a.ladder, b.ladder)
        assert len(a.factors) == len(b.factors) == len(a.vectors) == len(b.vectors)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb, equal_nan=True)
            assert np.array_equal(np.signbit(fa), np.signbit(fb))
            assert same_bits(fa, fb)
        for va, vb in zip(a.vectors, b.vectors):
            assert same_bits(va, vb)


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


RECORD_ERRORS = ("bad-float", "short-row", "long-row", "bad-token", "directive", "index", "ladder")


@st.composite
def records_with_one_error(draw):
    """A valid record with one line spoilt: a row value, a row length, a
    keyword token, an unknown line, or an index or ladder line."""
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
    """A sample record with at least two terms."""
    return next(text for text in sample_records() if text.count("\nterm ") >= 2)


def record_forms():
    text = record_text()
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("factor 2 vector")) + 1
    dense = next(i for i, line in enumerate(lines) if line.startswith("factor 1 order")) + 1
    first = lines[row].split()[0]
    forms = {
        "crlf": text.replace("\n", "\r\n"),
        "form-feed": text.replace("\nterm 2", "\x0cterm 2"),
        "nel": text.replace("\nweight", "\x85weight", 1),
        "tab-row": respell(text, row, " ", "\t"),
        "tab-header": respell(text, row - 1, " ", "\t"),
        "comment-mid-file": respell(text, dense, lines[dense], lines[dense] + " # note").replace(
            "\nterm 2", "\n# between terms\n\nterm 2"
        ),
        "leading-space-row": respell(text, row, lines[row], " " + lines[row]),
        "double-space-row": respell(text, dense, " ", "  "),
        "ladder-comment": text.replace("\nladder", "\n# l\nladder", 1),
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
        forms["dense-" + name] = respell(text, dense, lines[dense].split()[-1], value)
        forms["weight-" + name] = text.replace("\nweight ", "\nweight " + value + " #", 1)
    forms["index-arabic-indic"] = text.replace("\nindex 1", "\nindex \u0661", 1)
    forms["index-plus"] = text.replace("\nindex 1", "\nindex +1", 1)
    return forms


RECORD_FORMS = record_forms()


@pytest.mark.parametrize("name", sorted(RECORD_FORMS))
def test_record_forms_match_line_oracle(name):
    assert_record_matches_oracle(RECORD_FORMS[name])


# -- index and ladder lines are checked ------------------------------------------

M22_RECORD = (
    "graphsep-decomposition\ndims 2 2\nterms 1\nterm 1\n{index}weight 1.0\n{ladder}"
    "factor 1 order 2\n0.5 0.5\n0.5 0.5\nfactor 2 vector 2\n1.0 0.0\n"
)


@pytest.mark.parametrize(
    "index, ladder, message",
    [
        ("index 1 1 1 1\n", "", "line 5: expected 1 values, got 4"),
        ("index\n", "", None),  # no "index " prefix: not an index line
        ("index 3\n", "", "line 5: index entry 1 is 3, outside 1..2"),
        ("index 0\n", "", "line 5: index entry 1 is 0, outside 1..2"),
        ("index x\n", "", "line 5: bad integer value in 'index x'"),
        ("index 1.0\n", "", "line 5: bad integer value in 'index 1.0'"),
        # Past int64: not a value the reader holds, so not a range error.
        ("index 9223372036854775808\n", "", "line 5: bad integer value in 'index 9223372036854775808'"),
        ("index -9223372036854775809\n", "", "line 5: bad integer value in 'index -9223372036854775809'"),
        ("index 9223372036854775807\n", "", "line 5: index entry 1 is 9223372036854775807, outside 1..2"),
        # A bad token and a wrong count: the count is checked first.
        ("index x 1\n", "", "line 5: expected 1 values, got 2"),
        ("", "ladder 1.0 2.0\n", "line 6: expected 1 values, got 2"),
        ("", "ladder x\n", "line 6: bad numeric value in 'ladder x'"),
        ("index 2\n", "ladder 1.0\n", ""),
        ("", "", ""),
    ],
)
def test_index_and_ladder_lines_are_checked(index, ladder, message):
    text = M22_RECORD.format(index=index, ladder=ladder)
    if message is None:
        with pytest.raises(GraphFormatError, match="^line 5: expected 'weight' line, got 'index'$"):
            parse_decomposition(text)
    elif message:
        with pytest.raises(GraphFormatError) as got:
            parse_decomposition(text)
        assert str(got.value) == message
    else:
        parse_decomposition(text)
    assert_record_matches_oracle(text)


def test_index_bounds_follow_the_ladder_order():
    # Entry 1 ranges over the last axis, entry 2 over the one before.
    text = M22_RECORD.replace("dims 2 2", "dims 2 2 3").replace(
        "1.0 0.0\n", "1.0 0.0\nfactor 3 vector 3\n1.0 0.0 0.0\n"
    )
    parse_decomposition(text.format(index="index 3 2\n", ladder=""))
    with pytest.raises(GraphFormatError, match="^line 5: index entry 2 is 3, outside 1..2$"):
        parse_decomposition(text.format(index="index 3 3\n", ladder=""))


# -- two faults in one record: the earlier line, and on one line the first check --

TWO_TERM_RECORD = [
    "graphsep-decomposition",
    "dims 2 2",
    "terms 2",
    "term 1",
    "weight 0.5",
    "factor 1 order 2",
    "0.5 0.5",  # line 7
    "0.5 0.5",
    "factor 2 vector 2",
    "1.0 0.0",
    "term 2",
    "weight 0.5",
    "factor 1 order 2",  # line 13
    "0.5 -0.5",
    "-0.5 0.5",
    "factor 2 vector 2",
    "0.0 1.0",  # line 17
]

TWO_FAULTS = {
    # line number -> its new text (None drops the line), and the message.
    "bad-row-then-bad-header": (
        {7: "0.5 x", 13: "factor 1 oder 2"},
        "line 7: bad numeric value in '0.5 x'",
    ),
    "row-count-and-token": ({7: "x 0.5 0.5"}, "line 7: expected 2 values, got 3"),
    "ladder-token-and-count": ({5: "weight 0.5\nladder x 1.0"}, "line 6: expected 1 values, got 2"),
    "index-token-and-count": ({5: "index x 1\nweight 0.5"}, "line 5: expected 1 values, got 2"),
    "last-row-missing": ({17: None}, "line 17: unexpected end of decomposition record"),
    # A row that fails is not kept, so its first line is the one named.
    "same-bad-row-twice": ({10: "x 1.0", 17: "x 1.0"}, "line 10: bad numeric value in 'x 1.0'"),
}


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_two_faults_give_the_pinned_message(name):
    edits, message = TWO_FAULTS[name]
    lines = [edits.get(lineno, line) for lineno, line in enumerate(TWO_TERM_RECORD, start=1)]
    text = "\n".join(line for line in lines if line is not None) + "\n"
    assert_record_matches_oracle(text)
    with pytest.raises(GraphFormatError) as got:
        parse_decomposition(text)
    assert str(got.value) == message


def test_cut_per_term_record_names_the_line_after_its_last():
    # Cut after every complete line, with a comment and a blank line after
    # the cut: the error names the line after the last content line.
    lines = theorem_record((2, 4, 4, 4), 1).splitlines()
    for cut in range(len(lines)):
        text = "\n".join(lines[:cut] + ["# cut here", ""]) + "\n"
        with pytest.raises(GraphFormatError, match="unexpected end of decomposition record") as got:
            parse_decomposition(text)
        assert got.value.line == cut + 1, cut


# -- repeated rows: a vector row text is converted once per axis ---------------

M42_RECORD = [
    "graphsep-decomposition",
    "dims 4 2",
    "terms 1",
    "term 1",
    "weight 1.0",
    "factor 1 order 4",
    *["0.25 0.25 0.25 0.25"] * 4,  # lines 7-10
    "factor 2 vector 2",
    "0.25 0.25 0.25 0.25",  # line 12: a row read before, now under order 2
]


def test_row_read_before_is_checked_against_its_new_order():
    text = "\n".join(M42_RECORD) + "\n"
    assert_record_matches_oracle(text)
    with pytest.raises(GraphFormatError) as got:
        parse_decomposition(text)
    assert str(got.value) == "line 12: expected 2 values, got 4"


def test_respelt_second_occurrence_of_a_row_keeps_its_bits():
    original = theorem_record((2, 4, 4), 1)
    lines = original.splitlines()
    rows = [i + 1 for i, line in enumerate(lines) if " vector " in line]
    first = next(i for i in rows if [lines[j] for j in rows].count(lines[i]) > 1)
    second = next(i for i in rows if i > first and lines[i] == lines[first])
    respelt = " ".join(repr(float(x)) for x in lines[second].split())
    assert respelt != lines[second]
    lines[second] = respelt
    text = "\n".join(lines) + "\n"
    assert_record_matches_oracle(text)
    assert_same_record(parse_decomposition(text), parse_decomposition(original))
    # A bad value in the second occurrence is its own text, never the first's.
    lines[second] = original.splitlines()[second] + "x"
    text = "\n".join(lines) + "\n"
    assert_record_matches_oracle(text)
    with pytest.raises(GraphFormatError, match="bad numeric value") as got:
        parse_decomposition(text)
    assert got.value.line == second + 1


# -- graphs: the existing mutations on more texts ---------------------------------


@settings(max_examples=200, deadline=None)
@given(mutated_graph_texts(), st.sampled_from(["\n", "\r\n", "\x0c", "\x85"]))
def test_graph_breaks_match_line_oracle(text, newline):
    assert_parse_matches_oracle(text.replace("\n", newline))


# -- splices of keywords, values, digits and breaks ---------------------------------

SPLICES = st.sampled_from(
    list("eE0123456789.,+-#_ax\t\n\r\x0c\x85\u0661 ")
    + ["e ", "dims 2 2 2\n", "1.0000000000000000e+00", " 5.0000000000000000e-01", "weight ", "ladder "]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SPLICES, max_size=60))
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
