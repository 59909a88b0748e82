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
from .textio import content_lines, format_value

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
        keys = keys[np.diff(keys, prepend=-1) > 0]
        canonical = np.stack(np.divmod(keys, total + 1), axis=1)
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
    tile buffer, so no V x V temporary is made.  |x - y| and |y - x| round
    alike, so the value is exactly ``np.max(np.abs(m - m.T))``.
    """
    order, size = matrix.shape[0], SYMMETRY_TILE
    buffer = np.empty((min(order, size),) * 2)
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for r in range(0, order, size):
            for c in range(r, order, size):
                upper = matrix[r : r + size, c : c + size]
                diff = buffer[: upper.shape[0], : upper.shape[1]]
                np.subtract(upper, matrix[c : c + size, r : r + size].T, out=diff)
                np.abs(diff, out=diff)
                # np.maximum keeps a NaN from either side.
                worst = np.maximum(worst, diff.max())
    return float(worst)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace symmetric matrix tagged with its profile and kind.

    The matrix is copied once into a read-only float array; finiteness and
    symmetry are then checked tile by tile with :func:`max_asymmetry`.
    """

    matrix: np.ndarray
    profile: DimensionProfile
    kind: str

    def __post_init__(self):
        if self.kind not in (COMBINATORIAL, SIGNLESS):
            raise ValueError(f"unknown density matrix kind {self.kind!r}")
        mat = np.array(self.matrix, dtype=float)
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

    @property
    def order(self) -> int:
        return self.profile.total


def density_matrix(graph: MultipartiteGraph, kind: str = COMBINATORIAL) -> DensityMatrix:
    """Laplacian (or signless Laplacian) normalised to unit trace.

    The matrix is written straight from the edge array into one float array
    of zeros: -1/(2|E|) (or +1/(2|E|)) at both orientations of each edge and
    degree/(2|E|) on the diagonal, bit for bit ``(D -+ A) / float(2|E|)``.
    Both Laplacians have trace 2|E|, so the empty graph has no density
    matrix; that case raises a zero-trace error.
    """
    if graph.num_edges == 0:
        raise ValueError(
            "empty graph has zero trace: no density matrix is defined"
        )
    if kind not in (COMBINATORIAL, SIGNLESS):
        raise ValueError(f"unknown density matrix kind {kind!r}")
    scale = float(2 * graph.num_edges)
    total = graph.num_vertices
    mat = np.zeros((total, total))
    rows, cols = (graph.edge_array() - 1).T
    mat[rows, cols] = mat[cols, rows] = (-1.0 if kind == COMBINATORIAL else 1.0) / scale
    np.fill_diagonal(mat, graph.degree_sequence() / scale)
    return DensityMatrix(mat, graph.profile, kind)


def parse_graph(text: str) -> MultipartiteGraph:
    """Parse the plain-text graph format; errors carry 1-based line numbers."""
    profile = None
    ends: list[int] = []  # vertex numbers, two per edge line
    first_line: dict[int, int] = {}  # edge key a*(V+1)+b (a < b) -> its line
    for lineno, line in content_lines(text):
        tokens = line.split()
        if profile is None:
            if tokens[0] != "dims":
                raise GraphFormatError(
                    f"expected 'dims N_1 ... N_n' header, got {tokens[0]!r}",
                    line=lineno,
                )
            try:
                dims = tuple(int(t) for t in tokens[1:])
                profile = DimensionProfile(dims)
            except ValueError as exc:
                raise GraphFormatError(str(exc), line=lineno) from None
            total = profile.total
            continue
        if tokens[0] == "e":
            if len(tokens) != 3:
                raise GraphFormatError(
                    "'e' line needs exactly two vertex numbers", line=lineno
                )
            try:
                a, b = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphFormatError(
                    f"bad vertex number in {line!r}", line=lineno
                ) from None
        elif tokens[0] == "E":
            if len(tokens) != 3:
                raise GraphFormatError(
                    "'E' line needs exactly two comma-separated labels",
                    line=lineno,
                )
            try:
                u = tuple(int(t) for t in tokens[1].split(","))
                v = tuple(int(t) for t in tokens[2].split(","))
                a = vertex_index(u, profile)
                b = vertex_index(v, profile)
            except ValueError as exc:
                raise GraphFormatError(str(exc), line=lineno) from None
        else:
            raise GraphFormatError(
                f"unknown directive {tokens[0]!r} (use 'e' or 'E')", line=lineno
            )
        if a == b:
            raise GraphFormatError(f"loop at vertex {a}", line=lineno)
        if not (1 <= a <= total and 1 <= b <= total):
            raise GraphFormatError(
                f"edge ({a},{b}) leaves the range 1..{total}", line=lineno
            )
        lo, hi = min(a, b), max(a, b)
        seen = first_line.setdefault(lo * (total + 1) + hi, lineno)
        if seen != lineno:
            raise GraphFormatError(
                f"duplicate edge ({lo},{hi}), first seen on line {seen}",
                line=lineno,
            )
        ends += (a, b)
    if profile is None:
        raise GraphFormatError("missing 'dims' header")
    return MultipartiteGraph(profile, np.array(ends, dtype=np.int64).reshape(-1, 2))


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
