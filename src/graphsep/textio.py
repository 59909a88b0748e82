"""Helpers for the line-oriented text interfaces.

All floating-point output uses 17 significant digits (round-trippable
doubles) with negative zero normalised to zero, so dumps diff stably
across platforms.  Both parsers read their text as a :class:`ByteLines`:
one byte array and the offsets of its lines, numbered as
``str.splitlines()`` numbers them.  ``parse_graph`` finds the edge lines
``format_graph`` writes with array operations and converts them together;
``parse_decomposition`` walks :meth:`ByteLines.texts`, the lines stripped
of comments, one line at a time.
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

    def each(self, chosen: np.ndarray) -> Iterator[tuple[int, str]]:
        """``(index, text)`` of the chosen lines (a boolean per line), in order."""
        at = np.flatnonzero(chosen)
        for index, start, end in zip(at.tolist(), self.starts[at].tolist(), self.ends[at].tolist()):
            yield index, self.raw[start:end].decode("utf-8", "surrogatepass")

    def texts(self) -> list[str]:
        """Every line, in order, without its ``#`` comment and surrounding
        whitespace."""
        texts = self.raw[1:-1].decode("utf-8", "surrogatepass").split("\n")
        data, starts, ends = self.data, self.starts, self.ends
        # Only a line with a "#", or with a byte at either end that may be
        # whitespace (a control byte, a space or part of a non-ASCII
        # character), needs stripping; an empty line has newlines there.
        rough = (data[starts] <= 0x20) | (data[starts] >= 0x80)
        rough |= (data[ends - 1] <= 0x20) | (data[ends - 1] >= 0x80)
        rough[np.searchsorted(ends, np.flatnonzero(data == ord("#")))] = True
        for at in np.flatnonzero(rough).tolist():
            texts[at] = strip_comment(texts[at])
        return texts

    def select(self, chosen: np.ndarray) -> bytes:
        """The bytes of the chosen lines (a boolean per line), each followed
        by its newline, copied a run of consecutive chosen lines at a time."""
        edges = np.flatnonzero(np.diff(chosen, prepend=False, append=False))
        starts, ends = self.starts, self.ends
        return b"".join(
            self.raw[starts[first] : ends[last - 1] + 1]
            for first, last in zip(edges[0::2].tolist(), edges[1::2].tolist())
        )
