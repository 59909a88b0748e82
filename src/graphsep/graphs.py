"""Multipartite-labelled simple graphs and their matrix representations.

A graph lives on a dimension profile (N_1, ..., N_n): every vertex carries a
label (i_1, ..., i_n) with 1 <= i_k <= N_k, and vertex numbers 1..N_1*...*N_n
run through the labels in lexicographic (mixed-radix) order.  A graph holds
its edges once, as a sorted read-only (E, 2) array of vertex numbers.
Adjacency, degree and both Laplacian matrices are built from that array in
exact integer arithmetic.  A density matrix, the unit-trace floating-point
normalisation of a Laplacian, is written straight from the same array into
one V x V float array, and its symmetry is checked tile by tile
(:func:`max_asymmetry`), so neither step makes a V x V temporary.

The plain-text graph format is line oriented: a ``dims N_1 N_2 ... N_n``
header, then edge lines that are either ``e a b`` (vertex numbers) or
``E i1,...,in j1,...,jn`` (labels).  ``#`` starts a comment.  Duplicate
edges and loops are rejected with their line number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError
from .textio import ByteLines, format_value, strip_comment

DEFAULT_MAX_VERTICES = 1024
MAX_VERTICES_ENV = "GRAPHSEP_MAX_VERTICES"

COMBINATORIAL = "combinatorial"
SIGNLESS = "signless"

# Side of the square tiles that max_asymmetry scans; each tile's difference
# buffer takes 512 KiB.
SYMMETRY_TILE = 256

Label = tuple[int, ...]
Edge = tuple[int, int]


def vertex_cap() -> int:
    """Largest allowed vertex count (``GRAPHSEP_MAX_VERTICES`` or 1024)."""
    raw = os.environ.get(MAX_VERTICES_ENV)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{MAX_VERTICES_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap < 4:
        raise ValueError(f"{MAX_VERTICES_ENV} must be at least 4, got {cap}")
    return cap


@dataclass(frozen=True)
class DimensionProfile:
    """Ordered subsystem dimensions (N_1, ..., N_n), each >= 2, with n >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least 2 subsystems, got {len(dims)}")
        for axis, d in enumerate(dims, start=1):
            if d < 2:
                raise ValueError(f"axis {axis}: dimension must be >= 2, got {d}")
        total = math.prod(dims)
        cap = vertex_cap()
        if total > cap:
            raise ValueError(
                f"{total} vertices exceeds the cap of {cap}"
                f" (set {MAX_VERTICES_ENV} to raise it)"
            )

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix place values: stride k multiplies (i_k - 1)."""
        return tuple(math.prod(self.dims[k + 1 :]) for k in range(self.n))


def vertex_index(label: Label, profile: DimensionProfile) -> int:
    """1-based vertex number of ``label`` under ``profile``.

    The number is the mixed-radix value (i_1-1)N_2...N_n + ... + (i_n-1) + 1,
    so labels enumerate lexicographically.
    """
    label = tuple(label)
    if len(label) != profile.n:
        raise ValueError(
            f"label has {len(label)} coordinates, profile has {profile.n} axes"
        )
    index = 1
    for axis, (coord, dim, stride) in enumerate(
        zip(label, profile.dims, profile.strides), start=1
    ):
        if not 1 <= coord <= dim:
            raise ValueError(
                f"axis {axis}: coordinate {coord} out of range 1..{dim}"
            )
        index += (coord - 1) * stride
    return index


def vertex_label(index: int, profile: DimensionProfile) -> Label:
    """Label of vertex number ``index``; inverse of :func:`vertex_index`."""
    if not 1 <= index <= profile.total:
        raise ValueError(f"vertex {index} out of range 1..{profile.total}")
    return tuple(int(c) + 1 for c in np.unravel_index(index - 1, profile.dims))


@dataclass(frozen=True, eq=False)
class MultipartiteGraph:
    """A simple graph whose vertices carry multipartite labels.

    The edges are stored once, as a read-only (E, 2) int64 array of rows
    ``a < b`` in lexicographic order.  Pairs may be given in either
    orientation and duplicates collapse; loops and vertex numbers outside
    1..V are rejected, naming the first offending pair.  Graphs compare and
    hash by profile and edge array.
    """

    profile: DimensionProfile
    _edges: np.ndarray

    def __init__(self, profile: DimensionProfile, edges=()):
        try:
            pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        except OverflowError:
            raise ValueError(f"a vertex number leaves the range 1..{profile.total}") from None
        if pairs.size and pairs.shape[1:] != (2,):
            raise ValueError(f"edges must be vertex pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        total = profile.total
        a, b = pairs.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bad = (lo == hi) | (lo < 1) | (hi > total)
        if bad.any():
            a, b = pairs[np.argmax(bad)].tolist()
            if a == b:
                raise ValueError(f"loop at vertex {a} is not allowed")
            raise ValueError(f"edge ({a},{b}) leaves the range 1..{total}")
        # Keys lo*(V+1)+hi sort rows lexicographically; dropping repeated keys
        # collapses duplicates.  (Sort and mask rather than np.unique, whose
        # hash-based path in numpy 2 is about 20x slower here.)
        keys = np.sort(lo * (total + 1) + hi)
        self._store(profile, keys[np.diff(keys, prepend=-1) > 0])

    @classmethod
    def _from_keys(cls, profile: DimensionProfile, keys: np.ndarray) -> MultipartiteGraph:
        """The graph of strictly increasing keys lo*(V+1)+hi with
        1 <= lo < hi <= V, which the caller has already judged."""
        graph = cls.__new__(cls)
        graph._store(profile, keys)
        return graph

    def _store(self, profile: DimensionProfile, keys: np.ndarray) -> None:
        canonical = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, profile.total + 1, out=(canonical[:, 0], canonical[:, 1]))
        canonical.setflags(write=False)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "_edges", canonical)

    def __eq__(self, other):
        if not isinstance(other, MultipartiteGraph):
            return NotImplemented
        return self.profile == other.profile and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.profile, self._edges.tobytes()))

    @property
    def num_vertices(self) -> int:
        return self.profile.total

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as ``(a, b)`` tuples with ``a < b``, derived from the
        stored array on each call."""
        return frozenset(map(tuple, self._edges.tolist()))

    def edge_array(self) -> np.ndarray:
        """The stored sorted, read-only (E, 2) int64 array of rows ``a < b``."""
        return self._edges

    def degree_sequence(self) -> np.ndarray:
        """Vertex degrees as an integer vector indexed by vertex-1."""
        return np.bincount(self._edges.ravel() - 1, minlength=self.num_vertices).astype(np.int64)


def adjacency_matrix(graph: MultipartiteGraph) -> np.ndarray:
    """0/1 symmetric adjacency matrix with zero diagonal (exact integers)."""
    total = graph.num_vertices
    mat = np.zeros((total, total), dtype=np.int64)
    rows, cols = (graph.edge_array() - 1).T
    mat[rows, cols] = 1
    mat[cols, rows] = 1
    return mat


def degree_matrix(graph: MultipartiteGraph) -> np.ndarray:
    """Diagonal matrix of vertex degrees; trace is twice the edge count."""
    return np.diag(graph.degree_sequence())


def laplacian(graph: MultipartiteGraph) -> np.ndarray:
    """Degree matrix minus adjacency matrix (rows sum to zero)."""
    return degree_matrix(graph) - adjacency_matrix(graph)


def signless_laplacian(graph: MultipartiteGraph) -> np.ndarray:
    """Degree matrix plus adjacency matrix (entrywise nonnegative)."""
    return degree_matrix(graph) + adjacency_matrix(graph)


def max_asymmetry(matrix: np.ndarray) -> float:
    """Largest |m_ij - m_ji| of a square float array (0 if empty), or NaN
    if any difference is NaN.

    Each upper-triangle tile is compared with its mirror through one reused
    buffer, so no V x V temporary is made.  |x - y| and |y - x| round
    alike, so the value is exactly ``np.max(np.abs(m - m.T))``.
    """
    order, size = matrix.shape[0], SYMMETRY_TILE
    buffer = np.empty(min(order, size) ** 2)
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for r in range(0, order, size):
            for c in range(r, order, size):
                tile = matrix[r : r + size, c : c + size]
                diff = buffer[: tile.size].reshape(tile.shape)
                np.subtract(tile, matrix[c : c + size, r : r + size].T, out=diff)
                np.abs(diff, out=diff)
                # np.maximum keeps a NaN from either side.
                worst = np.maximum(worst, diff.max())
    return float(worst)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace symmetric matrix tagged with its profile and kind.

    The matrix is kept as a read-only float array: a read-only float
    ndarray that owns its data is taken as it is, any other input is copied
    once, so no caller can write the stored matrix.  Finiteness and symmetry
    are then checked tile by tile with :func:`max_asymmetry`.
    """

    matrix: np.ndarray
    profile: DimensionProfile
    kind: str

    def __post_init__(self):
        if self.kind not in (COMBINATORIAL, SIGNLESS):
            raise ValueError(f"unknown density matrix kind {self.kind!r}")
        mat = self.matrix
        if not (
            type(mat) is np.ndarray
            and mat.dtype == np.float64
            and mat.flags.owndata
            and not mat.flags.writeable
        ):
            mat = np.array(mat, dtype=float)
        total = self.profile.total
        if mat.shape != (total, total):
            raise ValueError(
                f"matrix order {mat.shape} does not match {total} vertices"
            )
        # Both tests are phrased as not (x <= bound), so NaN or inf fails.
        if not max_asymmetry(mat) <= 1e-12:
            raise ValueError("density matrix must be finite and symmetric within 1e-12")
        trace = float(np.trace(mat))
        if not abs(trace - 1.0) <= 1e-12:
            raise ValueError(f"density matrix trace is {trace!r}, not 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def _trace_scale(graph: MultipartiteGraph) -> float:
    """2|E| as a float: the trace of both Laplacians, which a density matrix
    divides them by.  The empty graph has zero trace, so it raises."""
    if graph.num_edges == 0:
        raise ValueError(
            "empty graph has zero trace: no density matrix is defined"
        )
    return float(2 * graph.num_edges)


def density_matrix(graph: MultipartiteGraph, kind: str = COMBINATORIAL) -> DensityMatrix:
    """Laplacian (or signless Laplacian) normalised to unit trace.

    The matrix is written straight from the edge array into one float array
    of zeros: -1/(2|E|) (or +1/(2|E|)) at both orientations of each edge and
    degree/(2|E|) on the diagonal, bit for bit ``(D -+ A) / float(2|E|)``.
    Both Laplacians have trace 2|E|, so the empty graph has no density
    matrix; that case raises a zero-trace error.
    """
    scale = _trace_scale(graph)
    if kind not in (COMBINATORIAL, SIGNLESS):
        raise ValueError(f"unknown density matrix kind {kind!r}")
    total = graph.num_vertices
    mat = np.zeros((total, total))
    rows, cols = (graph.edge_array() - 1).T
    mat[rows, cols] = mat[cols, rows] = (-1.0 if kind == COMBINATORIAL else 1.0) / scale
    np.fill_diagonal(mat, graph.degree_sequence() / scale)
    mat.setflags(write=False)  # handed to DensityMatrix without a copy
    return DensityMatrix(mat, graph.profile, kind)


_EDGE_LINE_MAX = 21
_INT64_MAX = np.iinfo(np.int64).max


def _canonical_edge_lines(lines: ByteLines) -> np.ndarray:
    """One boolean per line: is it ``e a b``, as :func:`format_graph` writes
    it, with a and b runs of digits?  Such a line has at most 21 bytes, so a
    and b have at most 17 digits each and fit int64."""
    data, starts, ends = lines.data, lines.starts, lines.ends
    # Digits weigh 0, spaces 2 and every other byte 3; the sums run in uint8,
    # which is exact for a line of at most 21 bytes and its newline.  With
    # "e " in front and digits at both ends, a line weighs 10 with its
    # newline exactly when one space and digits make up the rest.
    weight = (data - ord("0") > 9).view(np.uint8) * np.uint8(3) - (data == ord(" ")).view(np.uint8)
    weights = np.add.reduceat(weight, starts - 1)
    lengths = ends - starts
    at = np.flatnonzero((weights == 10) & (lengths >= 5) & (lengths <= _EDGE_LINE_MAX))
    s, e = starts[at], ends[at]
    fits = (
        (data[s] == ord("e"))
        & (data[s + 1] == ord(" "))
        & (data[s + 2] - ord("0") < 10)  # uint8: bytes below "0" wrap past 9
        & (data[e - 1] - ord("0") < 10)
    )
    canonical = np.zeros(len(lines), dtype=bool)
    canonical[at[fits]] = True
    return canonical


def _edge_line(line: str, profile: DimensionProfile, lineno: int) -> Edge:
    """The vertex numbers of one ``e`` or ``E`` line, as written."""
    tokens = line.split()
    if tokens[0] == "e":
        if len(tokens) != 3:
            raise GraphFormatError(
                "'e' line needs exactly two vertex numbers", line=lineno
            )
        try:
            return int(tokens[1]), int(tokens[2])
        except ValueError:
            raise GraphFormatError(
                f"bad vertex number in {line!r}", line=lineno
            ) from None
    if tokens[0] == "E":
        if len(tokens) != 3:
            raise GraphFormatError(
                "'E' line needs exactly two comma-separated labels",
                line=lineno,
            )
        try:
            # The first label is checked in full before the second is read.
            a = vertex_index(tuple(int(t) for t in tokens[1].split(",")), profile)
            return a, vertex_index(tuple(int(t) for t in tokens[2].split(",")), profile)
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=lineno) from None
    raise GraphFormatError(
        f"unknown directive {tokens[0]!r} (use 'e' or 'E')", line=lineno
    )


def _edge_error(a: int, b: int, total: int) -> str:
    """Why the edge line ``a b`` is refused: a loop, else a vertex outside 1..V."""
    if a == b:
        return f"loop at vertex {a}"
    return f"edge ({a},{b}) leaves the range 1..{total}"


def parse_graph(text: str) -> MultipartiteGraph:
    """Parse the plain-text graph format; errors carry 1-based line numbers.

    The text is split into lines once, and each line is classified once.
    Edge lines written as :func:`format_graph` writes them (``e a b``, single
    spaces, plain digits) are converted together by one array conversion;
    every other line (the header, comments, ``E`` labels, other spellings
    of numbers, malformed lines) is read on its own.  Loops, vertices
    outside 1..V and duplicates are then judged on the combined edge array,
    each row with its line number, and the error on the earliest line wins.
    """
    lines = ByteLines(text)
    canonical = _canonical_edge_lines(lines)
    first_edge = int(np.argmax(canonical)) if canonical.any() else len(lines)
    profile = None
    token_error = None
    pairs: list[Edge] = []  # edges of the lines read on their own
    pair_lines: list[int] = []
    for index, line in lines.each(~canonical & (lines.ends > lines.starts)):
        line = strip_comment(line)
        if not line:
            continue
        lineno = index + 1
        if profile is None:
            if first_edge < index:
                break  # an edge line came first: reported below
            tokens = line.split()
            if tokens[0] != "dims":
                raise GraphFormatError(
                    f"expected 'dims N_1 ... N_n' header, got {tokens[0]!r}",
                    line=lineno,
                )
            try:
                profile = DimensionProfile(tuple(int(t) for t in tokens[1:]))
            except ValueError as exc:
                raise GraphFormatError(str(exc), line=lineno) from None
            total = profile.total
            continue
        try:
            a, b = _edge_line(line, profile, lineno)
        except GraphFormatError as exc:
            token_error = exc
            break
        if not (-_INT64_MAX <= a <= _INT64_MAX and -_INT64_MAX <= b <= _INT64_MAX):
            # Past int64, so outside 1..V: this line's verdict is settled.
            token_error = GraphFormatError(_edge_error(a, b, total), line=lineno)
            break
        pairs.append((a, b))
        pair_lines.append(lineno)
    if profile is None:
        if first_edge < len(lines):
            raise GraphFormatError(
                "expected 'dims N_1 ... N_n' header, got 'e'", line=first_edge + 1
            )
        raise GraphFormatError("missing 'dims' header")

    edges = np.fromstring(
        lines.select(canonical).replace(b"e", b" "), dtype=np.int64, sep=" "
    ).reshape(-1, 2)
    linenos = np.flatnonzero(canonical) + 1
    if pairs:
        edges = np.concatenate([edges, np.array(pairs, dtype=np.int64).reshape(-1, 2)])
        linenos = np.concatenate([linenos, pair_lines])
        order = np.argsort(linenos, kind="stable")
        edges, linenos = edges[order], linenos[order]
    # The first failing line of each kind; all have distinct lines.
    errors = [] if token_error is None else [token_error]
    a, b = edges.T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    bad = (lo == hi) | (lo < 1) | (hi > total)
    if bad.any():
        row = int(np.argmax(bad))
        errors.append(GraphFormatError(
            _edge_error(*edges[row].tolist(), total), line=int(linenos[row])
        ))
        lo, hi, linenos = lo[~bad], hi[~bad], linenos[~bad]
    keys = lo * (total + 1) + hi
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        # A stable sort keeps repeated keys in line order: the first row of
        # each run is where that edge was first seen.
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        row = int(order[1:][ordered[1:] == ordered[:-1]].min())
        first = int(order[np.searchsorted(ordered, keys[row])])
        errors.append(GraphFormatError(
            f"duplicate edge ({lo[row]},{hi[row]}), first seen on line {linenos[first]}",
            line=int(linenos[row]),
        ))
    if errors:
        raise min(errors, key=lambda error: error.line)
    return MultipartiteGraph._from_keys(profile, ordered)


def format_graph(graph: MultipartiteGraph) -> str:
    """Serialise a graph in the plain-text format (sorted edge lines)."""
    lines = ["dims " + " ".join(str(d) for d in graph.profile.dims)]
    lines.extend(f"e {a} {b}" for a, b in graph.edge_array().tolist())
    return "\n".join(lines) + "\n"


def format_matrix(matrix: np.ndarray) -> str:
    """Rows of space-separated values; integers plain, floats at 17 digits."""
    matrix = np.asarray(matrix)
    return "\n".join(
        " ".join(format_value(x) for x in row) for row in matrix
    ) + "\n"
