"""Seeded constructors for test-corpus graphs.

Three families: graphs closed under the axis-1 edge swap, graphs that
additionally satisfy every decomposition hypothesis, and degree-symmetric
graphs that deliberately break the no-intra-layer-edge condition.

The pseudo-random source is splitmix64: state advances by the odd constant
0x9E3779B97F4A7C15 and outputs are finalised by xor-shift-multiply rounds
with 0xBF58476D1CE4E5B9 (shift 30) and 0x94D049BB133111EB (shift 27),
followed by a final shift of 31.  Identical (profile, budget, seed) inputs
therefore reproduce identical graphs on any platform, and independent
streams can be split off a parent stream.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError
from .graphs import DimensionProfile, MultipartiteGraph
from .separability import check_theorem_conditions
from .transforms import swap_edges

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny splittable 64-bit generator (splitmix64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high]; modulo fold (bias is negligible at the
        range sizes used here and determinism is what matters)."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self.next_uint64() % (high - low + 1)

    def chance(self, num: int = 1, den: int = 2) -> bool:
        """True with probability num/den."""
        return self.next_uint64() % den < num

    def split(self) -> "SplitMix64":
        """Independent child stream."""
        return SplitMix64(self.next_uint64())


def _random_distinct_pair(rng: SplitMix64, total: int) -> tuple[int, int]:
    a = rng.randint(1, total)
    b = rng.randint(1, total - 1)
    if b >= a:
        b += 1
    return a, b


def gen_partially_symmetric(
    profile: DimensionProfile, edge_budget: int, seed: int
) -> MultipartiteGraph:
    """Random graph closed under the axis-1 edge swap.

    Draws ``edge_budget`` candidate edges and inserts each together with its
    swapped partner, so the closure holds by construction.  Deterministic
    for a fixed seed.
    """
    if edge_budget < 0:
        raise ValueError(f"edge budget must be >= 0, got {edge_budget}")
    rng = SplitMix64(seed)
    drawn = np.zeros((edge_budget, 2), dtype=np.int64)
    for row in drawn:
        row[:] = _random_distinct_pair(rng, profile.total)
    return MultipartiteGraph(
        profile, np.concatenate((drawn, swap_edges(profile, drawn, axis=1)))
    )


def _random_top_pattern(rng: SplitMix64, order: int):
    """Symmetric 0/1 matrix with zero diagonal and at least one entry set."""
    pattern = np.zeros((order, order), dtype=np.int64)
    pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
    chosen = [p for p in pairs if rng.chance()]
    if not chosen:
        chosen = [pairs[rng.randint(0, len(pairs) - 1)]]
    for i, j in chosen:
        pattern[i, j] = 1
        pattern[j, i] = 1
    return pattern


def _random_regular_pattern(rng: SplitMix64, order: int):
    """Symmetric 0/1 circulant with constant row sums, never all zero.

    Rows are shifts of one index set closed under negation mod the order,
    which keeps the matrix symmetric with equal row sums; those constant
    row sums are what make every vertex of a layer end up with the same
    degree in the assembled graph.
    """
    classes = [(0,)]
    for s in range(1, order // 2 + 1):
        classes.append((s,) if 2 * s == order else (s, order - s))
    chosen = [c for c in classes if rng.chance()]
    if not chosen:
        chosen = [classes[rng.randint(0, len(classes) - 1)]]
    pattern = np.zeros((order, order), dtype=np.int64)
    for cls in chosen:
        for shift in cls:
            for i in range(order):
                pattern[i, (i + shift) % order] = 1
    return pattern


def gen_theorem_graph(profile: DimensionProfile, seed: int) -> MultipartiteGraph:
    """Random graph satisfying every decomposition hypothesis.

    Samples the adjacency matrix directly in factored form: a symmetric,
    zero-diagonal top pattern choosing which layer pairs are linked, and one
    symmetric constant row-sum 0/1 circulant per remaining axis.  Their
    Kronecker product meets every condition, so one draw is enough; the
    edges are read off the factors' nonzero entries.  The result is still
    checked, and a failure raises rather than returns.
    """
    rng = SplitMix64(seed)
    dims = profile.dims
    factors = [_random_top_pattern(rng, dims[0])]
    factors.extend(_random_regular_pattern(rng, d) for d in dims[1:])
    # The nonzero entries of A = F_1 (x) ... (x) F_n, one per choice of a
    # nonzero entry in every factor, as 0-based row and column numbers; the
    # edges are those above the diagonal.  No V x V array is built.
    rows = cols = np.zeros(1, dtype=np.int64)
    for pattern, d in zip(factors, dims):
        r, c = np.nonzero(pattern)
        rows = (rows[:, None] * d + r).ravel()
        cols = (cols[:, None] * d + c).ravel()
    upper = rows < cols
    graph = MultipartiteGraph(profile, np.column_stack((rows[upper], cols[upper])) + 1)
    if not check_theorem_conditions(graph).holds:
        raise ConstructionError(
            f"theorem graph for profile {dims} and seed {seed} fails the hypotheses"
        )
    return graph


def gen_degree_symmetric_only(
    profile: DimensionProfile, seed: int
) -> MultipartiteGraph:
    """Degree-symmetric graph that generally fails the decomposition
    hypotheses.

    Augments a swap-closed draw with random intra-layer edges.  The swap
    leaves intra-layer edges untouched, so degree symmetry survives while
    the no-intra-layer-edge condition breaks; closure under the swap also
    survives, which callers can confirm with ``is_partially_symmetric``.
    """
    rng = SplitMix64(seed)
    total = profile.total
    layer_size = math.prod(profile.dims[1:])
    budget = rng.randint(1, max(2, total // 4))
    base = gen_partially_symmetric(profile, budget, rng.next_uint64())
    extra = np.zeros((rng.randint(1, 3), 2), dtype=np.int64)
    for row in extra:
        layer = rng.randint(0, profile.dims[0] - 1)
        row[:] = _random_distinct_pair(rng, layer_size)
        row += layer * layer_size
    return MultipartiteGraph(profile, np.concatenate((base.edge_array(), extra)))
