"""Layer-swap edge rewrite and the symmetry predicates it induces.

The rewrite acts on one chosen axis: every edge whose endpoints disagree on
that coordinate has the two coordinate values exchanged between endpoints,
and all other edges stay put.  It is a pure relabelling, so it runs on the
whole (E, 2) edge array at once: exchanging the axis digits of endpoints a
and b moves a by (digit(b) - digit(a)) * stride and b back by as much, with
the digits read from one table over the V vertices.  At the matrix level
this is exactly the partial transpose of the adjacency matrix on that
subsystem, which ``gtpt_matrix_identity`` certifies on the 2|E| nonzero
positions of both matrices, without building either one;
``separability.theorem1_transfer`` reads the density-matrix identity off
the same positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .graphs import DimensionProfile, Edge, MultipartiteGraph


def swap_edges(profile: DimensionProfile, edges, axis: int = 1) -> np.ndarray:
    """Images of an (E, 2) array of edges under the axis swap.

    Row ``i`` of the result is the image of row ``i`` of ``edges``, written
    with the smaller vertex number first; intra-layer edges map to
    themselves.  Vertex numbers outside the profile raise ``ValueError``.
    """
    n, total = profile.n, profile.total
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and not (1 <= edges.min() and edges.max() <= total):
        raise ValueError(f"a vertex number leaves the range 1..{total}")
    # digit[v] is the axis digit of vertex number v (digit[0] is unused).
    stride = profile.strides[axis - 1]
    digit = np.arange(-1, total) // stride % profile.dims[axis - 1]
    a, b = edges.T
    shift = (digit[b] - digit[a]) * stride
    a, b = a + shift, b - shift
    images = np.empty_like(edges)
    np.minimum(a, b, out=images[:, 0])
    np.maximum(a, b, out=images[:, 1])
    return images


def swap_edge(profile: DimensionProfile, edge: Edge, axis: int = 1) -> Edge:
    """Image of one edge under the axis swap (identity for intra-layer edges)."""
    a, b = swap_edges(profile, [edge], axis)[0].tolist()
    return (a, b)


def gtpt(graph: MultipartiteGraph, axis: int = 1) -> MultipartiteGraph:
    """Rewrite every cross-layer edge by swapping its axis coordinates.

    The rewrite maps the whole edge array at once.  The image of an edge is
    again two distinct vertices in range, so the image graph is built from
    its sorted keys lo*(V+1)+hi without a second judgement; if two source
    edges ever landed on the same image the edge count would drop, which is
    flagged loudly instead of silently shrinking the graph.
    """
    images = swap_edges(graph.profile, graph.edge_array(), axis)
    keys = np.sort(images[:, 0] * (graph.num_vertices + 1) + images[:, 1])
    distinct = len(keys) - int(np.count_nonzero(keys[1:] == keys[:-1]))
    if distinct != graph.num_edges:
        raise ConstructionError(
            f"axis-{axis} rewrite collapsed {graph.num_edges} edges into {distinct}"
        )
    return MultipartiteGraph._from_keys(graph.profile, keys)


@dataclass(frozen=True)
class DegreeSymmetryReport:
    """Whether the rewrite preserves every vertex degree, with the deltas."""

    symmetric: bool
    axis: int
    changed: tuple[tuple[int, int, int], ...]  # (vertex, degree before, after)

    def __bool__(self) -> bool:
        return self.symmetric


def is_degree_symmetric(graph: MultipartiteGraph, axis: int = 1) -> DegreeSymmetryReport:
    """Compare the degree sequence of the graph and of its rewrite, vertexwise."""
    before = graph.degree_sequence()
    images = swap_edges(graph.profile, graph.edge_array(), axis)
    after = np.bincount(images.ravel() - 1, minlength=graph.num_vertices)
    changed = tuple(
        (int(v) + 1, int(before[v]), int(after[v]))
        for v in np.nonzero(before != after)[0]
    )
    return DegreeSymmetryReport(not changed, axis, changed)


@dataclass(frozen=True)
class PartialSymmetryReport:
    """Whether every cross-layer edge has its swapped partner present."""

    symmetric: bool
    axis: int
    violating_edge: Edge | None = None
    missing_partner: Edge | None = None

    def __bool__(self) -> bool:
        return self.symmetric


def is_partially_symmetric(graph: MultipartiteGraph, axis: int = 1) -> PartialSymmetryReport:
    """Report the first edge (in sorted order) whose partner edge is absent.

    A graph passes exactly when it is a fixed point of the rewrite.
    """
    edges = graph.edge_array()
    partners = swap_edges(graph.profile, edges, axis)
    # Edge rows as scalar keys a*(V+1)+b: the stored edge array is sorted, so
    # its keys ascend.  The rewrite is an involution on vertex pairs, so the
    # partners of distinct edges are distinct: every partner is an edge
    # exactly when the sorted partner keys are the edge keys.
    stride = graph.num_vertices + 1
    keys = edges[:, 0] * stride + edges[:, 1]
    wanted = partners[:, 0] * stride + partners[:, 1]
    if np.array_equal(np.sort(wanted), keys):
        return PartialSymmetryReport(True, axis)
    # Only a failing graph looks up each partner, to name the first edge.
    missing = keys[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)] != wanted
    first = int(np.argmax(missing))
    return PartialSymmetryReport(
        False, axis, tuple(edges[first].tolist()), tuple(partners[first].tolist())
    )


@dataclass(frozen=True, eq=False)
class MatrixIdentityReport:
    """Entrywise comparison of the rewrite's adjacency with the partial transpose."""

    holds: bool
    axis: int
    first_difference: tuple[int, int, int, int] | None = None
    # (row, col, rewrite value, transpose value), 1-based indices

    def __bool__(self) -> bool:
        return self.holds


def _adjacency_positions(graph: MultipartiteGraph, axis: int | None = None) -> np.ndarray:
    """The sorted row-major positions r*V + c of the nonzero entries of
    A(graph), both orientations of every edge, each moved by the partial
    transpose on ``axis`` when one is given.

    The partial transpose moves row r by (column digit - row digit) * stride
    and column c back by as much, so position r*V + c moves by that times
    V - 1.  Both digits are read from one table over the V vertices.
    """
    total = graph.num_vertices
    a, b = (graph.edge_array() - 1).T
    forward, backward = a * total + b, b * total + a
    if axis is not None:
        stride = graph.profile.strides[axis - 1]
        digit = np.arange(total) // stride % graph.profile.dims[axis - 1]
        shift = (digit[b] - digit[a]) * (stride * (total - 1))
        forward += shift
        backward -= shift
    return np.sort(np.concatenate((forward, backward)))


def gtpt_matrix_identity(graph: MultipartiteGraph, axis: int = 1) -> MatrixIdentityReport:
    """Certify adjacency(rewrite(G)) == partial transpose of adjacency(G).

    A 0/1 matrix is the set of positions r*V + c of its nonzero entries, so
    each side is the sorted positions of both orientations of its edges
    (:func:`_adjacency_positions`) and the comparison is exact; neither
    V x V matrix is built.  The right side moves each entry of A the way
    :func:`linalg.partial_transpose_matrix` does, exchanging the axis digit
    of its row and of its column, and never calls the rewrite it checks.  A
    failure here indicates an implementation bug, not a property of the
    graph; its witness is the first differing entry in row-major order, the
    smallest position that one side holds and the other lacks.
    """
    lhs = _adjacency_positions(gtpt(graph, axis))
    rhs = _adjacency_positions(graph, axis)
    if np.array_equal(lhs, rhs):
        return MatrixIdentityReport(True, axis)
    first = int(np.setxor1d(lhs, rhs, assume_unique=True)[0])
    r, c = divmod(first, graph.num_vertices)
    return MatrixIdentityReport(
        False, axis, (r + 1, c + 1, int(first in lhs), int(first in rhs))
    )
