"""Helpers for the line-oriented text interfaces.

All floating-point output uses 17 significant digits (round-trippable
doubles) with negative zero normalised to zero, so dumps diff stably
across platforms.  :func:`format_rows` writes every row of numbers, of a
``graphsep build`` matrix and of a record alike, and :func:`format_float`
one value.  ``parse_graph`` reads its text as a :class:`ByteLines`: one byte
array and the offsets of its lines, numbered as ``str.splitlines()`` numbers
them; it finds the edge lines ``format_graph`` writes with array operations
and converts them together.
``parse_decomposition`` walks ``str.splitlines()`` one line at a time, each
line stripped of its comment by :func:`strip_comment`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def format_float(x: float) -> str:
    """17-significant-digit scientific form; ``-0`` comes out as ``0``."""
    return f"{float(x) + 0.0:.16e}"


def format_rows(rows: np.ndarray) -> list[str]:
    """The text of each row of a 2-d array: integers as ``str`` writes them,
    other values as :func:`format_float` does, by one ``%`` format a row.
    Rows are converted one at a time; no nested list of the array is held."""
    if rows.dtype.kind in "iu":
        return [" ".join(map(str, row.tolist())) for row in rows]
    form = " ".join(["%.16e"] * rows.shape[1])
    # Adding 0.0 turns -0.0 into 0.0, as format_float does; a signalling
    # NaN's payload needs no warning.
    with np.errstate(invalid="ignore"):
        rows = rows + 0.0
    return [form % tuple(row.tolist()) for row in rows]


def strip_comment(raw: str) -> str:
    """The line without its ``#`` comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


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
        breaks = (data == 0x0A).nonzero()[0]
        self.raw = raw
        self.data = data
        self.starts = breaks[:-1] + 1
        self.ends = breaks[1:]

    def __len__(self) -> int:
        return len(self.starts)

    def each(self, chosen: np.ndarray) -> Iterator[tuple[int, str]]:
        """``(index, text)`` of the chosen lines (a boolean per line), in order."""
        at = chosen.nonzero()[0]
        for index, start, end in zip(at.tolist(), self.starts[at].tolist(), self.ends[at].tolist()):
            yield index, self.raw[start:end].decode("utf-8", "surrogatepass")

    def select(self, chosen: np.ndarray) -> bytes:
        """The bytes of the chosen lines (a boolean per line), each followed
        by its newline, copied a run of consecutive chosen lines at a time."""
        padded = np.zeros(len(chosen) + 2, dtype=bool)
        padded[1:-1] = chosen
        edges = (padded[1:] != padded[:-1]).nonzero()[0]
        starts, ends = self.starts, self.ends
        return b"".join(
            self.raw[starts[first] : ends[last - 1] + 1]
            for first, last in zip(edges[0::2].tolist(), edges[1::2].tolist())
        )
