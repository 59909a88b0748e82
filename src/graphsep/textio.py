"""Helpers for the line-oriented text interfaces.

All floating-point output uses 17 significant digits (round-trippable
doubles) with negative zero normalised to zero, so dumps diff stably
across platforms.  Both parsers read their text as a :class:`ByteLines`:
one byte array and the offsets of its lines, numbered as
``str.splitlines()`` numbers them, so that the lines the formatters write
can be classified (:func:`float_values` finds ``format_float``'s values)
and converted with array operations.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def format_float(x: float) -> str:
    """17-significant-digit scientific form; ``-0`` comes out as ``0``."""
    return f"{float(x) + 0.0:.16e}"


def format_value(x) -> str:
    """Integers verbatim, everything else through :func:`format_float`."""
    if isinstance(x, (int,)) or (hasattr(x, "dtype") and x.dtype.kind in "iu"):
        return str(int(x))
    return format_float(x)


def strip_comment(raw: str) -> str:
    """The line without its ``#`` comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, stripped_line)`` skipping blanks and ``#`` comments.

    Line numbers are 1-based; ``#`` starts a comment anywhere on a line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if line:
            yield lineno, line


# The breaks str.splitlines() knows in ASCII text, but for "\n".
_ASCII_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


class ByteLines:
    """The lines of a text as one byte array and their offsets.

    ``data`` holds ``"\n" + text + "\n"`` in UTF-8 (lone surrogates passed
    through), with every break that ``str.splitlines()`` knows written as
    ``"\n"``.  Line ``i`` (1-based, as ``str.splitlines()`` numbers it)
    spans ``data[starts[i - 1]:ends[i - 1]]`` and is followed by a newline
    byte; so is byte 0, which precedes line 1.  A text ending in a break
    gets one more, empty line.
    """

    def __init__(self, text: str):
        # Only a text with a break other than "\n" is split by
        # str.splitlines() and rejoined, which keeps every line and its number.
        if not text.isascii() or any(brk in text for brk in _ASCII_BREAKS):
            text = "\n".join(text.splitlines())
        raw = ("\n" + text + "\n").encode("utf-8", "surrogatepass")
        data = np.frombuffer(raw, np.uint8)
        breaks = np.flatnonzero(data == 0x0A)
        self.raw = raw
        self.data = data
        self.starts = breaks[:-1] + 1
        self.ends = breaks[1:]

    def __len__(self) -> int:
        return len(self.starts)

    def line(self, index: int) -> str:
        """The text of the line at 0-based ``index`` (line ``index + 1``)."""
        return self.raw[self.starts[index] : self.ends[index]].decode("utf-8", "surrogatepass")

    def each(self, chosen: np.ndarray) -> Iterator[tuple[int, str]]:
        """``(index, text)`` of the chosen lines (a boolean per line), in order."""
        at = np.flatnonzero(chosen)
        for index, start, end in zip(at.tolist(), self.starts[at].tolist(), self.ends[at].tolist()):
            yield index, self.raw[start:end].decode("utf-8", "surrogatepass")

    def texts(self, chosen: np.ndarray) -> list[str]:
        """The chosen lines (a boolean per line), in order, each without its
        ``#`` comment and surrounding whitespace."""
        keep = np.repeat(chosen, self.ends - self.starts + 1)
        texts = self.data[1:][keep].tobytes().decode("utf-8", "surrogatepass").split("\n")
        data, starts, ends = self.data, self.starts, self.ends
        # Only a line with a "#", or with a byte at either end that may be
        # whitespace (a control byte, a space or part of a non-ASCII
        # character), needs stripping; an empty line has newlines there.
        rough = (data[starts] <= 0x20) | (data[starts] >= 0x80)
        rough |= (data[ends - 1] <= 0x20) | (data[ends - 1] >= 0x80)
        rough[np.searchsorted(ends, np.flatnonzero(data == ord("#")))] = True
        for at in np.flatnonzero(rough[chosen]).tolist():
            texts[at] = strip_comment(texts[at])
        return texts[:-1]

    def select(self, chosen: np.ndarray) -> bytes:
        """The bytes of the chosen lines (a boolean per line), each followed
        by its newline, copied a run of consecutive chosen lines at a time."""
        edges = np.flatnonzero(np.diff(chosen, prepend=False, append=False))
        starts, ends = self.starts, self.ends
        return b"".join(
            self.raw[starts[first] : ends[last - 1] + 1]
            for first, last in zip(edges[0::2].tolist(), edges[1::2].tolist())
        )


# Offsets, from its decimal point, of the bytes a "%.16e" value spans (with
# an optional sign, and an exponent of two or three digits) and of the
# separators around it: a value starts at offset -1 or -2 and ends at 20 or 21.
_VALUE_SPAN = np.arange(-3, 23)


def float_values(lines: ByteLines) -> tuple[np.ndarray, np.ndarray]:
    """Per line, how many values in ``format_float``'s ``%.16e`` form it
    holds, and how many of its bytes are left when those values and one
    space between each two are taken away.

    The count is 0 for a line with a decimal point outside such a value.
    Otherwise, a line with no bytes left is a row of values as
    ``format_decomposition`` writes it, and a ``weight x`` or
    ``ladder ...`` line with 7 bytes left holds its keyword, one space and
    such values.
    """
    data, starts, ends = lines.data, lines.starts, lines.ends
    count = len(lines)
    if len(data) < len(_VALUE_SPAN):
        return np.zeros(count, dtype=np.int64), ends - starts  # too short for a value
    # Every value has one decimal point; take the bytes around each point.
    # A point too near either end of the text for its whole span is not
    # taken for a value.
    points = np.flatnonzero(data == ord("."))
    line_of = np.searchsorted(ends, points)
    windows = np.lib.stride_tricks.sliding_window_view(data, len(_VALUE_SPAN))
    first = points + _VALUE_SPAN[0]
    inside = (first >= 0) & (first < len(windows))
    span = windows[np.where(inside, first, 0)]
    digit = span - ord("0") < 10  # uint8: bytes below "0" wrap past 9
    gap = (span == ord(" ")) | (span == ord("\n"))

    def at(offset):
        return offset + 3  # column of an offset in span

    signed = span[:, at(-2)] == ord("-")
    wide = digit[:, at(21)]  # a three-digit exponent
    well_formed = (
        inside
        & digit[:, at(-1)]
        & digit[:, at(1) : at(17)].all(axis=1)
        & (span[:, at(17)] == ord("e"))
        & ((span[:, at(18)] == ord("+")) | (span[:, at(18)] == ord("-")))
        & digit[:, at(19)]
        & digit[:, at(20)]
        & np.where(signed, gap[:, at(-3)], gap[:, at(-2)])
        & np.where(wide, gap[:, at(22)], gap[:, at(21)])
    )
    values = np.bincount(line_of, minlength=count)
    malformed = np.bincount(line_of, weights=~well_formed, minlength=count)
    # Well-formed values are disjoint and each lies between gaps, so they
    # and the single spaces between them cover all of the line but what is
    # left, and that is a prefix (letters and the like sit in no value).
    spanned = np.bincount(line_of, weights=22 + signed + wide, minlength=count) + values - 1
    left = np.where(values > 0, ends - starts - spanned, ends - starts).astype(np.int64)
    return np.where(malformed == 0, values, 0), left
