"""Hypothesis checks and certified fully separable decompositions.

A multipartite graph qualifies for the construction here when three block
conditions hold on top of axis-1 partial symmetry: no edge stays inside a
top layer, at every prefix depth all nonzero blocks of the adjacency matrix
coincide with a single common block, and all vertices of a top layer share
one degree.  Together these say the adjacency matrix factors exactly as a
Kronecker product A = F_1 (x) ... (x) F_n of one 0/1 pattern per axis (the
top pattern with zero diagonal; P. M. Weichsel, Proc. AMS 13 (1962)).  The
checks read the edge array, never a V x V matrix, and decide the blocks by
one count (:func:`check_theorem_conditions`); the level walk and the axis-1
edge test run only to name the witnesses of a graph that fails it.

``decompose`` then walks an eigenvalue ladder down that factorisation, one
level at a time.  It eigendecomposes each axis pattern F_2..F_n once; a
ladder value is the product of one eigenvalue per axis, chosen from the
innermost axis outward, and a pattern scaled by a ladder value keeps its own
eigenvectors.  Each term is the degree diagonal plus the scaled top pattern
(normalised by the total layer degree) times rank-one projectors for the
remaining subsystems.  The result is certified once, by
:func:`certify_decomposition`, and the routine refuses rather than
approximates.

``verify_decomposition`` works on per-axis factor stacks, one (B, d_k, d_k)
array per axis for a block of B terms; blocks are capped in size so the
stacks add bounded memory, and every benchmark-sized decomposition is one
block.  Each stack is certified by :func:`certificates._factor_failures`,
one batched eigenvalue call per axis and block.  The weighted sum of
Kronecker products is reassembled from the same stacks as one matrix
product of two per-term Kronecker tables per block (:func:`_reassemble`),
so no V x V matrix is built per term.

A ``decompose`` result holds its terms as the basis that implies them
(:class:`TermGrid`): the common weight, per axis k >= 2 the eigenvalues and
eigenvectors of F_k, F_1 and the layer degrees.  That basis is the one record
form: ``format_decomposition`` writes it, with no line per term, and
``parse_decomposition`` reads it back as the same grid.  The first factors,
the ladder and the term objects are built only on demand.  Library callers
may still hold terms one by one, as a tuple, for :func:`verify_decomposition`
and :func:`theorem1_transfer`; such a decomposition has no record.

``certify_decomposition`` is what ``decompose`` and the CLI's ``verify``
run.  It compares profiles, then, when the graph's conditions give its
factors F_k and the terms are a :class:`TermGrid`, it bounds |S - rho|_F
from the basis alone (:func:`certificates._factored_certificate`), in time
and memory that do not grow with the number of terms.  The factored path
only passes; a tuple of terms, a graph whose conditions fail, or a bound
above ``tol`` goes to ``verify_decomposition`` against rho, the unchanged
reference, whose verdict and failure texts are returned.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .certificates import VerificationCertificate, _factor_failures, _factored_certificate
from .errors import ConstructionError, GraphFormatError, PreconditionError
from .graphs import (
    COMBINATORIAL,
    SIGNLESS,
    DensityMatrix,
    DimensionProfile,
    Edge,
    Label,
    MultipartiteGraph,
    _trace_scale,
    density_matrix,
)
from .linalg import (
    is_psd,
    kron,
    partial_transpose_matrix,
    spectral_decomposition,
)
from .textio import format_float, format_rows, strip_comment
from .transforms import _adjacency_positions, gtpt, is_degree_symmetric, is_partially_symmetric


@dataclass(frozen=True, eq=False)
class BlockLevelReport:
    """Uniformity of the adjacency blocks at one prefix depth: the level is
    uniform exactly when it names no mismatching block pair."""

    level: int
    first_mismatch: tuple[Label, Label] | None = None

    @property
    def uniform(self) -> bool:
        return self.first_mismatch is None


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of every hypothesis check, held as the witnesses that decide it.

    Each verdict is a property over its witness, so no report can pair a
    verdict with a witness that contradicts it.  ``layer_degree_sets`` lists
    the distinct degrees seen in each top layer.  ``overall`` is the
    conjunction of the three block/degree conditions; partial symmetry is
    reported alongside as a separate prerequisite, and ``holds`` adds both
    prerequisites of :func:`decompose` to ``overall``.
    """

    profile: DimensionProfile
    num_edges: int
    partial_symmetry_violation: Edge | None
    intra_layer_edges: tuple[Edge, ...]
    block_levels: tuple[BlockLevelReport, ...]
    layer_degree_sets: tuple[tuple[int, ...], ...]
    adjacency_factors: tuple[np.ndarray, ...] | None

    @property
    def partially_symmetric(self) -> bool:
        return self.partial_symmetry_violation is None

    @property
    def no_intra_layer_edges(self) -> bool:
        return not self.intra_layer_edges

    @property
    def uniform_blocks(self) -> bool:
        return all(lv.uniform for lv in self.block_levels)

    @property
    def uniform_layer_degrees(self) -> bool:
        return all(len(s) == 1 for s in self.layer_degree_sets)

    @property
    def layer_degrees(self) -> tuple[int, ...] | None:
        """Each top layer's one degree, or None when some layer has two."""
        if not self.uniform_layer_degrees:
            return None
        return tuple(s[0] for s in self.layer_degree_sets)

    @property
    def overall(self) -> bool:
        return (
            self.no_intra_layer_edges
            and self.uniform_blocks
            and self.uniform_layer_degrees
        )

    @property
    def holds(self) -> bool:
        """At least one edge, axis-1 partial symmetry and ``overall``."""
        return self.num_edges > 0 and self.partially_symmetric and self.overall

    def failure_summary(self) -> str:
        """One line per failed check, for error messages and CLI output."""
        problems = []
        if self.num_edges == 0:
            problems.append("empty graph: no edges (zero-trace density matrix)")
        if not self.partially_symmetric:
            problems.append(
                f"not partially symmetric: edge {self.partial_symmetry_violation}"
                " lacks its swapped partner"
            )
        if not self.no_intra_layer_edges:
            first, *more = self.intra_layer_edges
            problems.append(f"intra-layer edge {first}" + (f" (+{len(more)} more)" if more else ""))
        for lv in self.block_levels:
            if not lv.uniform:
                row, col = lv.first_mismatch
                problems.append(
                    f"level {lv.level}: block at prefixes {row} x {col}"
                    " differs from the common block"
                )
        if not self.uniform_layer_degrees:
            problems.append(
                "layer degrees not uniform: "
                + ", ".join(
                    f"layer {t + 1} has degrees {sorted(s)}"
                    for t, s in enumerate(self.layer_degree_sets)
                    if len(s) > 1
                )
            )
        return "; ".join(problems) if problems else "all conditions hold"


def _block_level_report(rows, cols, dims: tuple[int, ...], level: int) -> BlockLevelReport:
    """Check that all nonzero blocks over distinct length-``level`` prefixes
    agree, from the 0-based positions ``(rows, cols)`` of A's nonzero entries."""
    size = math.prod(dims[level:])
    prefixes = math.prod(dims[:level])
    row_prefix = rows // size
    col_prefix = cols // size
    off = row_prefix != col_prefix  # equal prefixes are not compared here
    keys = (row_prefix * prefixes + col_prefix)[off]
    if keys.size == 0:
        return BlockLevelReport(level)
    cells = ((rows - row_prefix * size) * size + cols - col_prefix * size)[off]
    # Blocks in row-major order of their keys.  A block holds a set of
    # cells, so it equals the first block exactly when it holds as many
    # cells and all of them lie in the first block.
    blocks, counts = np.unique(keys, return_counts=True)
    first = np.zeros(size * size, dtype=bool)
    first[cells[keys == blocks[0]]] = True
    failing = np.concatenate((blocks[counts != counts[0]], keys[~first[cells]]))
    if failing.size == 0:
        return BlockLevelReport(level)

    def decode(flat: int) -> Label:
        return tuple(int(c) + 1 for c in np.unravel_index(flat, dims[:level]))

    row, col = divmod(int(failing.min()), prefixes)
    return BlockLevelReport(level, (decode(row), decode(col)))


def check_theorem_conditions(graph: MultipartiteGraph) -> ConditionReport:
    """Evaluate all decomposition hypotheses with exact integer comparisons,
    on the edge array; no V x V array is built.

    F_k, the symmetrised pattern of the edges' axis-k coordinate pairs, has a
    1 at each edge's coordinates, so A <= F_1 (x) ... (x) F_n entrywise and
    the two are equal exactly when 2|E| = prod_k nnz(F_k).  Then every nonzero
    block over distinct length-z prefixes is F_{z+1} (x) ... (x) F_n, and, each
    F_k being symmetric, every partial transpose leaves A in place: all levels
    are uniform and the graph is partially symmetric on every axis.  Only when
    the count fails do the level walk and the axis-1 edge test run, to name
    the first mismatching block and violating edge.
    """
    profile = graph.profile
    dims = profile.dims
    total = profile.total
    layer_size = total // dims[0]

    edges = graph.edge_array()
    a, b = (edges - 1).T
    patterns = []
    for coord, d in zip(np.unravel_index(np.arange(total), dims), dims):
        pattern = np.zeros((d, d), dtype=np.int64)
        pattern[coord[a], coord[b]] = 1
        patterns.append(pattern | pattern.T)
    # Python ints: the product of the n counts can pass 2^63.
    kronecker = 2 * graph.num_edges == math.prod(int(np.count_nonzero(f)) for f in patterns)

    # An edge inside a top layer is a 1 on F_1's diagonal.
    intra = ()
    if patterns[0].diagonal().any():
        layers = (edges - 1) // layer_size
        intra = tuple(map(tuple, edges[layers[:, 0] == layers[:, 1]].tolist()))

    if kronecker:
        levels = tuple(BlockLevelReport(z) for z in range(1, profile.n))
        violation = None
    else:
        violation = is_partially_symmetric(graph, axis=1).violating_edge
        # The nonzero entries of A, 0-based: both orientations of every edge.
        rows, cols = np.concatenate((a, b)), np.concatenate((b, a))
        levels = tuple(_block_level_report(rows, cols, dims, z) for z in range(1, profile.n))

    degrees = graph.degree_sequence()
    degree_sets = tuple(
        tuple(sorted(set(degrees[t * layer_size : (t + 1) * layer_size].tolist())))
        for t in range(dims[0])
    )

    return ConditionReport(
        profile=profile,
        num_edges=graph.num_edges,
        partial_symmetry_violation=violation,
        intra_layer_edges=intra,
        block_levels=levels,
        layer_degree_sets=degree_sets,
        adjacency_factors=tuple(patterns) if kronecker and not intra and graph.num_edges else None,
    )


@dataclass(frozen=True, eq=False)
class DecompositionTerm:
    """One product term: a weight and one unit-trace PSD factor per subsystem.

    Terms of a :class:`TermGrid` also carry the eigenvalue at each ladder
    level (``ladder``).  Verification judges ``weight`` and ``factors``.
    """

    weight: float
    factors: tuple[np.ndarray, ...]
    ladder: tuple[float, ...] | None = None


def projector(vector: np.ndarray) -> np.ndarray:
    """The rank-one factor v v^T of a record vector (a projector when |v| = 1),
    or the (T, d, d) stack of them for a (T, d) stack of vectors."""
    # Non-finite record entries give non-finite factors, which verification
    # rejects; they need no warning here.
    with np.errstate(over="ignore", invalid="ignore"):
        return vector[..., :, None] * vector[..., None, :]


@dataclass(eq=False)
class TermGrid(Sequence):
    """The terms of a grid decomposition, held as the basis that implies them.

    The construction has one term per choice of eigenvector on axes 2..n, so
    a grid is fixed by its common ``weight``, per axis k >= 2 the
    eigenvalues of F_k and its eigenvectors (one a row, in the same order),
    the 0/1 top pattern F_1 and the layer degrees delta; ``len`` is
    N_2*...*N_n.  The term objects are built on first access, once, in one
    walk down the ladder; on each axis k >= 2 a term holds the projector of
    its chosen row of ``vectors[k - 2]``, and the terms share one array per
    (axis, eigenvector).

    Level s of the ladder expands every term so far (a ladder value) into one
    child per eigenvalue of F_{n-s+1}, so the terms stay in lexicographic
    order of their positions among siblings.  A value times F_k has F_k's
    eigenvectors and that value times F_k's eigenvalues; a negative value
    reverses their order, so siblings always descend.  Factor 1 of every
    term is delta + lam F_1 for its last ladder value lam, normalised by the
    total layer degree.
    """

    weight: float
    eigenvalues: tuple[np.ndarray, ...]  # per axis k >= 2, (N_k,)
    vectors: tuple[np.ndarray, ...]  # per axis k >= 2, (N_k, N_k): one vector a row
    top_pattern: np.ndarray  # F_1, (N_1, N_1) integers
    layer_degrees: np.ndarray  # delta, (N_1,) integers

    def __len__(self) -> int:
        return math.prod(len(values) for values in self.eigenvalues)

    def __getitem__(self, position):
        return self._terms[position]

    def __iter__(self):
        return iter(self._terms)

    @cached_property
    def _terms(self) -> tuple[DecompositionTerm, ...]:
        # A record's values may be non-finite or overflow, and its degrees
        # may sum to 0: its first factors then fail their check, with no
        # warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = np.ones(1)
            ladders = np.empty((1, 0))  # per term, the value after each level
            chosen = np.empty((1, 0), dtype=np.int64)  # per term, the eigenvector per level
            for eig in reversed(self.eigenvalues):
                order = np.arange(len(eig))
                picks = np.where(values[:, None] < 0.0, len(eig) - 1 - order, order)
                values = (values[:, None] * eig[picks]).ravel()
                ladders = np.column_stack((np.repeat(ladders, len(eig), axis=0), values))
                chosen = np.column_stack((np.repeat(chosen, len(eig), axis=0), picks.ravel()))
            top = np.diag(self.layer_degrees.astype(float))
            top = top + values[:, None, None] * self.top_pattern.astype(float)
            firsts = top / sum(self.layer_degrees.tolist())
        projectors = [list(projector(v)) for v in self.vectors]
        return tuple(
            DecompositionTerm(
                weight=self.weight,
                factors=(first,) + tuple(p[j] for p, j in zip(projectors, row)),
                ladder=ladder,
            )
            for first, row, ladder in zip(firsts, chosen[:, ::-1].tolist(), map(tuple, ladders.tolist()))
        )


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """A convex combination of Kronecker products of per-subsystem factors.

    ``terms`` is a :class:`TermGrid` for :func:`decompose` results and basis
    records, and a tuple of :class:`DecompositionTerm` otherwise.
    """

    profile: DimensionProfile
    terms: Sequence[DecompositionTerm]
    adjacency_factors: tuple[np.ndarray, ...] | None = None
    residual: float | None = None
    certificates: tuple[tuple[str, bool], ...] | None = None

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.terms)

    def assemble(self) -> np.ndarray:
        """Sum of weighted Kronecker products, as the dense V x V matrix
        (see :func:`_reassemble`)."""
        dims = self.profile.dims
        return _reassemble(dims, self.weights, _stacked_blocks(self.terms, dims))


# Terms are stacked in blocks of at most this many floats of factor stacks
# and Kronecker tables (16 MB), so verification and reassembly add a bounded
# amount of memory whatever the profile.  The benchmark profiles fit in one
# block.
_BLOCK_ENTRIES = 1 << 21


def _split_axes(dims) -> int:
    """Axes before the returned position form the left group: the split
    that minimises a^2 + b^2 for a, b the orders of the two groups."""
    return min(
        range(1, len(dims)),
        key=lambda s: math.prod(dims[:s]) ** 2 + math.prod(dims[s:]) ** 2,
    )


def _reassemble(dims, weights, blocks) -> np.ndarray:
    """The weighted sum of Kronecker products of the factor stacks in
    ``blocks`` (as :func:`_stacked_blocks` yields them), as a V x V matrix.

    The axes split into groups of orders a and b = V / a (:func:`_split_axes`).
    For a block of B terms, row t of L (B x a^2) is the flattened Kronecker
    product of term t's left factors, row t of R (B x b^2) that of its right
    factors, and the weights go into the smaller table.  Then L^T R (or
    R^T L) is one matrix product whose entry ((i, j), (k, l)) is entry
    ((i, k), (j, l)) of the block's sum: no V x V matrix is built per term.
    """
    total = math.prod(dims)
    split = _split_axes(dims)
    a = math.prod(dims[:split])
    b = total // a
    weights = np.asarray(weights, dtype=float)[:, None]
    summed = np.zeros((a * a, b * b))
    for start, stacks in blocks:
        count = len(stacks[0])
        left = kron(stacks[:split]).reshape(count, -1)
        right = kron(stacks[split:]).reshape(count, -1)
        block_weights = weights[start : start + count]
        # The smaller table takes the weights and goes first: OpenBLAS
        # then touches (and keeps resident) less of its packing workspace.
        if a <= b:
            summed += (left * block_weights).T @ right
        else:
            summed += ((right * block_weights).T @ left).T
    return summed.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(total, total)


def _stacked_blocks(terms, dims, found: dict | None = None):
    """Yield ``(start, stacks)`` for consecutive blocks of ``terms``, where
    ``stacks[k]`` is the float array of shape (B, d_k, d_k) holding the k-th
    factors of terms ``start .. start + B - 1``.  With a dict ``found``, the
    factors of each block are certified, one stack at a time
    (:func:`certificates._factor_failures`), before it is yielded, and the
    failure texts stored under (term, axis), 1-based."""
    split = _split_axes(dims)
    a = math.prod(dims[:split])
    b = math.prod(dims[split:])
    per_term = sum(d * d for d in dims) + a * a + b * b
    size = max(1, _BLOCK_ENTRIES // per_term)
    for start in range(0, len(terms), size):
        block = terms[start : start + size]
        stacks = tuple(
            np.array([term.factors[k] for term in block], dtype=float).reshape(-1, d, d)
            for k, d in enumerate(dims)
        )
        if found is not None:
            for k, stack in enumerate(stacks, start=1):
                for t, texts in _factor_failures(stack).items():
                    found[start + t + 1, k] = texts
        yield start, stacks


def decompose(graph: MultipartiteGraph, tol: float = 1e-8) -> SeparableDecomposition:
    """Produce a certified fully separable decomposition of the signless
    density matrix of ``graph``.

    Preconditions: at least one edge, axis-1 partial symmetry, and all three
    block/degree conditions (see :func:`check_theorem_conditions`).  The
    number of terms is always N_2*...*N_n, one per tuple of eigenvalue
    choices, each with the uniform weight 1/(N_2*...*N_n); eigenvalues that
    are zero or repeated keep their own rank-one term.  The ladder needs one
    eigendecomposition per axis pattern F_2..F_n: level s of a term holds the
    product of the eigenvalues chosen for F_n, ..., F_{n-s+1}, and siblings
    run in descending order of that product.  The terms are held as the
    :class:`TermGrid` of that basis, expanded only on demand.

    The grid is verified once, by :func:`certify_decomposition` with the
    relative reassembly tolerance ``tol``.  Its factored certificate proves
    every mixing matrix dominant and every factor PSD from the basis; when
    it declines, the dense reference path gives the verdict.  Raises
    :class:`PreconditionError` when the hypotheses fail and
    :class:`ConstructionError` when the certificate fails (which would mean
    a hypothesis gap, a bug or a too tight ``tol``, and is never silently
    returned).
    """
    report = check_theorem_conditions(graph)
    if not report.holds:
        raise PreconditionError(
            "cannot decompose the empty graph (zero-trace density matrix)"
            if graph.num_edges == 0
            else "decomposition hypotheses fail: " + report.failure_summary(),
            report=report,
        )
    factors = report.adjacency_factors
    profile = graph.profile

    # Each distinct pattern is eigendecomposed once; equal axes share it.
    patterns = [f.astype(float) for f in factors[1:]]
    shared = {key: spectral_decomposition(p) for key, p in {p.tobytes(): p for p in patterns}.items()}
    spectra = [shared[p.tobytes()] for p in patterns]
    terms = TermGrid(
        1.0 / math.prod(profile.dims[1:]),
        tuple(eig.eigenvalues for eig in spectra),
        tuple(eig.eigenvectors.T for eig in spectra),
        factors[0],
        np.asarray(report.layer_degrees, dtype=np.int64),
    )

    decomposition = SeparableDecomposition(
        profile=profile,
        terms=terms,
        adjacency_factors=factors,
    )
    certificate = certify_decomposition(decomposition, graph, tol, report)
    if not certificate.passed:
        raise ConstructionError(
            "decomposition failed verification: "
            + "; ".join(certificate.failures),
            residual=certificate.residual,
        )
    return replace(
        decomposition,
        residual=certificate.residual,
        certificates=(
            ("dominance", True),
            ("eigen-bounds", True),
            ("factors", True),
            ("weights", True),
            ("reassembly", True),
        ),
    )


def _require_profile(decomposition: SeparableDecomposition, profile: DimensionProfile) -> None:
    """Raise ``ValueError`` unless the decomposition is on ``profile``."""
    if decomposition.profile != profile:
        raise ValueError(
            f"decomposition profile {decomposition.profile.dims} does not"
            f" match density matrix profile {profile.dims}"
        )


def verify_decomposition(
    decomposition: SeparableDecomposition,
    rho: DensityMatrix,
    tol: float = 1e-8,
) -> VerificationCertificate:
    """Check weights, per-factor properties, and the reassembly residual.

    Passes only when the weights form a probability vector (within 1e-10),
    every factor is finite, symmetric, unit trace and PSD, and the weighted
    sum of Kronecker products matches ``rho`` within ``tol`` in relative
    Frobenius norm.  Every test is phrased as ``not (x <= bound)``, so NaN
    anywhere (or a NaN ``tol``) fails instead of passing.  Structural
    mismatches (wrong profile, factor count or factor orders) raise before
    any numeric check.

    The factor checks run on per-axis stacks of shape (B, d_k, d_k), for
    blocks of B terms (one block for all but the largest factors), with one
    batched symmetric eigenvalue call per axis and block
    (:func:`certificates._factor_failures`).  The residual is reassembled
    from the same stacks (:func:`_reassemble`).
    Failures are listed term by term, factors in axis order.
    """
    _require_profile(decomposition, rho.profile)
    dims = rho.profile.dims
    n = len(dims)
    terms = decomposition.terms
    for i, term in enumerate(terms, start=1):
        if len(term.factors) != n:
            raise ValueError(
                f"term {i} has {len(term.factors)} factors for {n} subsystems"
            )
        for k, factor in enumerate(term.factors, start=1):
            shape = np.asarray(factor, dtype=float).shape
            expected = (dims[k - 1], dims[k - 1])
            if shape != expected:
                raise ValueError(
                    f"term {i} factor {k}: shape {shape}, expected {expected}"
                )
    failures: list[str] = []
    if not terms:
        failures.append("decomposition has no terms")
    weight_sum = float(sum(t.weight for t in terms))
    if not abs(weight_sum - 1.0) <= 1e-10:
        failures.append(f"weights sum to {weight_sum:.17g}, expected 1")
    found: dict[tuple[int, int], list[str]] = {}
    # Non-finite or huge inputs fail their factor checks; their NaN or inf
    # residual fails too, with no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        assembled = _reassemble(dims, decomposition.weights, _stacked_blocks(terms, dims, found))
        residual = float(np.linalg.norm(assembled - rho.matrix))
        norm = float(np.linalg.norm(rho.matrix))
    for i, term in enumerate(terms, start=1):
        if not math.isfinite(term.weight):
            failures.append(f"term {i}: non-finite weight {term.weight!r}")
        elif term.weight < -1e-12:
            failures.append(f"term {i}: negative weight {term.weight:.17g}")
        for k in range(1, n + 1):
            failures.extend(f"term {i} factor {k}: {text}" for text in found.get((i, k), ()))
    relative = residual / norm
    if not relative <= tol:
        failures.append(
            f"reassembly residual {residual:.3e}"
            f" is {relative:.3e} of the target norm (tolerance {tol:.1e})"
        )
    return VerificationCertificate(
        not failures, residual, relative, weight_sum, tuple(failures), tol
    )


def certify_decomposition(
    decomposition: SeparableDecomposition,
    graph: MultipartiteGraph,
    tol: float = 1e-8,
    report: ConditionReport | None = None,
) -> VerificationCertificate:
    """Check ``decomposition`` against the signless density matrix of ``graph``.

    The profiles are compared first; a mismatch raises ``ValueError`` before
    any matrix is built.  When the graph's conditions give its factors
    (``report``, from :func:`check_theorem_conditions` unless passed in) and
    its terms are a :class:`TermGrid`, the factored bound of
    :func:`certificates._factored_certificate` is tried first; it only ever
    passes.  Every other record, and every basis record that bound does not
    pass, goes to :func:`verify_decomposition` against rho, whose verdict
    and failure texts are returned unchanged.
    """
    _require_profile(decomposition, graph.profile)
    if report is None:
        report = check_theorem_conditions(graph)
    certificate = _factored_certificate(decomposition, report, tol)
    if certificate is None:
        certificate = verify_decomposition(decomposition, density_matrix(graph, SIGNLESS), tol)
    return certificate


@dataclass(frozen=True)
class PptCertificate:
    """Positivity of the state under one subsystem partial transpose."""

    passed: bool
    subsystem: int
    min_eigenvalue: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.passed


def ppt_check(rho: DensityMatrix, subsystem: int, tol: float = 1e-9) -> PptCertificate:
    """Check that the partial transpose on ``subsystem`` stays PSD.

    Every fully separable state passes for every subsystem, so this is a
    necessary-condition cross-check on decomposition outputs.
    """
    transposed = partial_transpose_matrix(rho.matrix, rho.profile, subsystem)
    cert = is_psd(transposed, tol=tol)
    return PptCertificate(cert.psd, subsystem, cert.min_eigenvalue, tol)


@dataclass(frozen=True, eq=False)
class TransferCertificate:
    """Identity between the rewrite's density matrix and the partial transpose."""

    holds: bool
    axis: int
    max_difference: float
    image: MultipartiteGraph
    transported: SeparableDecomposition | None = None
    transported_certificate: VerificationCertificate | None = None

    def __bool__(self) -> bool:
        if self.transported_certificate is not None:
            return self.holds and self.transported_certificate.passed
        return self.holds


def theorem1_transfer(
    graph: MultipartiteGraph,
    axis: int = 1,
    decomposition: SeparableDecomposition | None = None,
) -> TransferCertificate:
    """Certify that rewriting the graph transposes its combinatorial density
    matrix on the chosen subsystem.

    Requires degree symmetry on ``axis`` (otherwise the degree matrices of
    the graph and its rewrite differ and the identity fails by
    construction).  The identity is read off the sorted positions that
    :func:`gtpt_matrix_identity` compares: rho_L is deg/s on the diagonal,
    which the partial transpose keeps, and -1/s at the nonzero entries of
    A, which it moves (s = 2|E|, s' for the rewrite).  So the largest
    entrywise difference is the largest of the diagonal differences,
    |-1/s' + 1/s| on shared positions, 1/s' on positions only the rewrite
    holds and 1/s on those only the moved A holds: bit for bit the dense
    value, with no V x V array.  When a separable decomposition of the
    graph's combinatorial density matrix is supplied, the transported
    decomposition (subsystem factor transposed in every term) is emitted and
    verified against the rewrite's density matrix.
    """
    degree_report = is_degree_symmetric(graph, axis)
    if not degree_report.symmetric:
        preview = ", ".join(
            f"vertex {v}: {b}->{a}" for v, b, a in degree_report.changed[:4]
        )
        raise PreconditionError(
            f"graph is not degree symmetric on axis {axis} ({preview})",
            report=degree_report,
        )
    image = gtpt(graph, axis)
    scale, image_scale = _trace_scale(graph), _trace_scale(image)
    image_positions = _adjacency_positions(image)
    moved_positions = _adjacency_positions(graph, axis)
    shared = np.intersect1d(image_positions, moved_positions, assume_unique=True).size
    differences = [
        float(np.max(np.abs(image.degree_sequence() / image_scale - graph.degree_sequence() / scale)))
    ]
    if shared:
        differences.append(abs(-1.0 / image_scale - -1.0 / scale))
    if shared < image_positions.size:
        differences.append(1.0 / image_scale)
    if shared < moved_positions.size:
        differences.append(1.0 / scale)
    max_difference = max(differences)
    holds = max_difference <= 1e-12

    transported = None
    transported_certificate = None
    if decomposition is not None:
        if decomposition.profile != graph.profile:
            raise ValueError(
                "decomposition profile does not match the graph profile"
            )
        moved_terms = tuple(
            DecompositionTerm(
                weight=term.weight,
                factors=tuple(
                    np.ascontiguousarray(np.asarray(f).T)
                    if k == axis - 1
                    else np.asarray(f)
                    for k, f in enumerate(term.factors)
                ),
            )
            for term in decomposition.terms
        )
        transported = SeparableDecomposition(graph.profile, moved_terms)
        transported_certificate = verify_decomposition(
            transported, density_matrix(image, COMBINATORIAL)
        )
    return TransferCertificate(
        holds, axis, max_difference, image, transported, transported_certificate
    )


_DECOMPOSITION_MAGIC = "graphsep-decomposition"


def format_decomposition(decomposition: SeparableDecomposition) -> str:
    """Serialise a decomposition as a stable, diffable text record.

    Header lines carry the profile, term count, reassembly residual and
    certificate flags, all values at 17 significant digits.  The terms,
    which must be a :class:`TermGrid` (every :func:`decompose` result and
    parsed record), follow in basis form: ``weight w``; per axis k >= 2,
    ``axis k basis N_k``, an ``eigenvalues`` line and the N_k eigenvectors,
    one a row; ``pattern 1 order N_1`` and the rows of F_1; ``degrees`` and
    delta.  That is O(sum_k N_k^2) values, with no line per term.  Every
    row of numbers is written by :func:`textio.format_rows`, the writer
    ``graphsep build`` uses too; its text is the same as formatting every
    float on its own with :func:`textio.format_float`.  Terms held one by
    one have no record, and raise ``ValueError``.
    """
    grid = decomposition.terms
    if not isinstance(grid, TermGrid):
        raise ValueError(f"only a TermGrid has a record, not a {type(grid).__name__} of terms")
    lines = [_DECOMPOSITION_MAGIC]
    lines.append("dims " + " ".join(str(d) for d in decomposition.profile.dims))
    lines.append(f"terms {len(grid)}")
    if decomposition.residual is not None:
        lines.append("residual " + format_float(decomposition.residual))
    if decomposition.certificates is not None:
        flags = " ".join(
            f"{name}={'pass' if ok else 'fail'}"
            for name, ok in decomposition.certificates
        )
        lines.append("certificates " + flags)
    lines.append("weight " + format_float(float(grid.weight)))
    for k, (values, vectors) in enumerate(zip(grid.eigenvalues, grid.vectors), start=2):
        lines.append(f"axis {k} basis {len(values)}")
        lines.append("eigenvalues " + format_rows(values[None])[0])
        lines.extend(format_rows(vectors))
    lines.append(f"pattern 1 order {len(grid.top_pattern)}")
    lines.extend(format_rows(grid.top_pattern))
    lines.append("degrees " + format_rows(grid.layer_degrees[None])[0])
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> SeparableDecomposition:
    """Parse the decomposition record format; errors carry line numbers.

    One walk over the record's content lines (blank lines and ``#``
    comments skipped) reads each line in file order, so an error is raised
    on its own line, the earliest first.  The header (``dims``, ``terms``,
    then any ``residual`` and ``certificates`` lines) is followed by the
    lines :func:`format_decomposition` writes, each checked as it is taken:
    the weight, per axis k >= 2 its header, eigenvalues and N_k eigenvector
    rows, F_1's header and rows of integers, and the degrees.  Every line of
    values, with a keyword (``weight``, ``eigenvalues``, ``degrees``) or
    without (a row), is read by :func:`_basis_rows`.  The ``terms`` count
    must be N_2*...*N_n, and the record reads back as the :class:`TermGrid`
    that :func:`decompose` held, bit for bit but for the signs of zeros.

    A ``term`` line after the header starts a per-term record, a form that
    earlier versions wrote and that is no longer read: that line is named.
    """
    lines = [strip_comment(line) for line in text.splitlines()]
    linenos = [lineno for lineno, line in enumerate(lines, start=1) if line]
    texts = [line for line in lines if line] + [""]  # "" stands for the end
    count = len(linenos)
    end = (linenos[-1] if linenos else 0) + 1  # a cut record names the line after its last
    pos = 0

    def take():
        nonlocal pos
        if pos >= count:
            raise GraphFormatError("unexpected end of decomposition record", line=end)
        pos += 1
        return linenos[pos - 1], texts[pos - 1]

    lineno, line = take()
    if line != _DECOMPOSITION_MAGIC:
        raise GraphFormatError(
            f"expected {_DECOMPOSITION_MAGIC!r} header", line=lineno
        )
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
    terms_lineno = lineno

    residual = None
    certificates = None
    while texts[pos] and texts[pos].split()[0] in ("residual", "certificates"):
        lineno, line = take()
        tokens = line.split()
        if tokens[0] == "residual":
            try:
                residual = float(tokens[1]) if len(tokens) == 2 else math.nan
            except ValueError:
                residual = math.nan
            if not (math.isfinite(residual) and residual >= 0.0):
                raise GraphFormatError(
                    f"bad residual line {line!r}: expected 'residual x' with"
                    " finite x >= 0",
                    line=lineno,
                )
        else:
            flags = []
            for tok in tokens[1:]:
                name, _, value = tok.partition("=")
                if not name or value not in ("pass", "fail"):
                    raise GraphFormatError(
                        f"bad certificate flag {tok!r}", line=lineno
                    )
                flags.append((name, value == "pass"))
            certificates = tuple(flags)

    if texts[pos].split()[:1] == ["term"]:
        lineno, line = take()
        raise GraphFormatError(
            f"{line!r} starts a per-term record, a form no longer read;"
            " re-run 'graphsep decompose' to write the record in basis form",
            line=lineno,
        )
    dims = profile.dims
    implied = math.prod(dims[1:])
    if expected_terms != implied:
        raise GraphFormatError(
            f"terms {expected_terms} does not match the {implied} terms of the basis",
            line=terms_lineno,
        )
    weight = float(_basis_rows(take, 1, 1, float, "weight")[0, 0])
    eigenvalues, vectors = [], []
    for k, d in enumerate(dims[1:], start=2):
        lineno, line = take()
        if line.split() != ["axis", str(k), "basis", str(d)]:
            raise GraphFormatError(f"expected 'axis {k} basis {d}', got {line!r}", line=lineno)
        eigenvalues.append(_basis_rows(take, 1, d, float, "eigenvalues")[0])
        vectors.append(_basis_rows(take, d, d, float))
    lineno, line = take()
    if line.split() != ["pattern", "1", "order", str(dims[0])]:
        raise GraphFormatError(f"expected 'pattern 1 order {dims[0]}', got {line!r}", line=lineno)
    top_pattern = _basis_rows(take, dims[0], dims[0], int)
    degrees = _basis_rows(take, 1, dims[0], int, "degrees")[0]
    if pos != count:
        lineno, line = take()
        raise GraphFormatError(f"trailing content {line!r}", line=lineno)
    grid = TermGrid(weight, tuple(eigenvalues), tuple(vectors), top_pattern, degrees)
    return SeparableDecomposition(profile, grid, residual=residual, certificates=certificates)


def _basis_rows(take, count: int, d: int, kind, keyword: str | None = None) -> np.ndarray:
    """The (count, d) values of the next ``count`` record lines, each after
    its ``keyword`` if it has one, as float64 or (``kind`` int) int64: every
    keyword line of values and every row.  Each line is judged as it is
    taken (keyword, then value count, then one ``kind`` map over its
    values), so the first line that fails is the one named."""
    rows = np.empty((count, d), dtype=np.int64 if kind is int else float)
    for row in rows:
        lineno, line = take()
        tokens = line.split()
        if keyword is not None:
            if tokens[0] != keyword:
                raise GraphFormatError(f"expected '{keyword}' line, got {line!r}", line=lineno)
            tokens = tokens[1:]
        if len(tokens) != d:
            raise GraphFormatError(f"expected {d} values, got {len(tokens)}", line=lineno)
        try:
            row[:] = [*map(kind, tokens)]
        except (ValueError, OverflowError):
            what = "integer" if kind is int else "numeric"
            raise GraphFormatError(f"bad {what} value in {line!r}", line=lineno) from None
    return rows
