"""Certificates that judge a decomposition without a density matrix.

``_factor_failures`` checks one per-axis stack of factors: finite,
symmetric, unit trace and PSD, by one batched eigenvalue call.
:func:`separability.verify_decomposition` runs it on its blocks, and the
factored certificate on its stack of first factors.

``_factored_certificate`` bounds |S - rho|_F for a decomposition held as a
grid (:class:`separability.TermGrid`: one common weight, the N_k vectors
of each axis k >= 2, the terms covering the product grid once, as
:func:`_covers_grid` checks) of a graph with A = F_1 (x) ... (x) F_n, from
the grid's per-axis arrays and the graph's factors alone, with no
V x V matrix or eigensolve and no BLAS call, so the bound's bits do not
depend on the BLAS thread count (C. F. Van Loan, "The ubiquitous Kronecker
product", J. Comput. Appl. Math. 123 (2000); N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., ch. 3, for the gamma_m
rounding bounds).  It only ever passes;
:func:`separability.certify_decomposition` falls back to the dense path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .separability import ConditionReport, SeparableDecomposition


@dataclass(frozen=True)
class VerificationCertificate:
    """Result of checking a decomposition against a density matrix."""

    passed: bool
    residual: float
    relative_residual: float
    weight_sum: float
    failures: tuple[str, ...]
    tolerance: float

    def __bool__(self) -> bool:
        return self.passed


def _factor_failures(stack: np.ndarray) -> dict[int, list[str]]:
    """Failed factor certificates in one (B, d, d) axis stack, by position in it.

    A factor must be finite, then symmetric within 1e-12; only a factor
    that is both is checked for unit trace (within 1e-10) and, by one
    batched ``eigvalsh``, for ``lambda_min >= -1e-9 * max(1, |lambda_max|)``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(stack).all(axis=(1, 2))
        traces = np.trace(stack, axis1=1, axis2=2)
        scratch = stack - stack.transpose(0, 2, 1)
        asymmetry = np.abs(scratch, out=scratch).max(axis=(1, 2))
        checked = finite & (asymmetry <= 1e-12)
        del scratch  # freed before the masked copy below
    low = np.zeros(len(stack))
    high = np.zeros(len(stack))
    if checked.any():
        # A masked copy only when some factor is excluded.
        values = np.linalg.eigvalsh(stack if checked.all() else stack[checked])
        low[checked] = values[:, 0]
        high[checked] = values[:, -1]
    psd = low >= -1e-9 * np.maximum(1.0, np.abs(high))
    unit_trace = np.abs(traces - 1.0) <= 1e-10
    found: dict[int, list[str]] = {}
    for t in np.flatnonzero(~(checked & unit_trace & psd)).tolist():
        if not finite[t]:
            found[t] = ["non-finite entries"]
        elif not checked[t]:
            found[t] = ["not symmetric"]
        else:
            found[t] = []
            if not unit_trace[t]:
                found[t].append(f"trace {float(traces[t]):.17g}, expected 1")
            if not psd[t]:
                found[t].append(f"not PSD (min eigenvalue {float(low[t]):.3e})")
    return found


def _covers_grid(choice: np.ndarray, dims) -> bool:
    """Whether the (T, n - 1) eigenvector choices of a grid's terms are in
    range and take every cell of the product grid of axes 2..n once."""
    count = math.prod(dims[1:])
    if choice.shape != (count, len(dims) - 1) or (choice < 0).any() or (choice >= dims[1:]).any():
        return False
    cells = np.ravel_multi_index(tuple(choice.T), dims[1:])
    return bool((np.bincount(cells, minlength=count) == 1).all())


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of m
    roundings, and of a sum of m + 1 terms in any order."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _unit_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|v|^2 of each row of a (B, d) vector array, and whether the factor
    ``projector(v)`` of that row surely passes :func:`_factor_failures`.

    That factor is finite when v is finite with |v|^2 near 1, exactly
    symmetric, and PSD within its tolerance (see :func:`_factored_certificate`),
    so only its trace test is left.  The trace it takes and the |v|^2 here
    are two roundings of the same d squares, each within gamma_d |v|^2 of
    their exact sum (in any order, with or without a fused multiply-add),
    so near 1 they differ by less than 3 gamma_d; this test is 4 gamma_d
    inside 1e-10, so a row it accepts has a trace within 1e-10 of 1.
    """
    with np.errstate(over="ignore"):
        squares = np.einsum("ja,ja->j", vectors, vectors)
    limit = 1e-10 - 4.0 * _gamma(vectors.shape[1])
    return squares, np.isfinite(vectors).all(axis=1) & (np.abs(squares - 1.0) <= limit)


def _norm(x: np.ndarray) -> float:
    """Frobenius norm as numpy's own reduction (no BLAS dot), so the bits
    do not depend on the BLAS thread count."""
    return math.sqrt(float(np.sum(x * x)))


def _telescoped(diffs, lefts, rights) -> float:
    """Bound on |A_2 (x) ... (x) A_n - C_2 (x) ... (x) C_n|_F from per-axis
    bounds on |A_k - C_k|, |A_k| and |C_k|:
    sum_k |A_k - C_k| prod_{i<k} |A_i| prod_{i>k} |C_i|."""
    return sum(
        diff * math.prod(lefts[:k]) * math.prod(rights[k + 1 :])
        for k, diff in enumerate(diffs)
    )


def _factored_certificate(
    decomposition: SeparableDecomposition, report: ConditionReport, tol: float
) -> VerificationCertificate | None:
    """A passing certificate for a decomposition whose terms are a
    :class:`separability.TermGrid`, from its per-axis arrays; None whenever
    it cannot pass, and for terms held any other way.

    With the graph's exact 0/1 factors (A = F_1 (x) ... (x) F_n), layer
    degrees delta (each F_k, k >= 2, regular and delta = r_1 prod_k |F_k|_inf
    in integers, so D = diag(delta) (x) I) and 2|E|, and with the record's
    common weight w, first factors X_t and distinct projectors P_{k,j}:

        2|E| (S - rho) = diag(delta) (x) (U - I) + F_1 (x) (B - F)
                         + sum_t R_t (x) P_{2,t} (x) ... (x) P_{n,t}

    where U = (x)_k U_k, U_k = sum_j P_{k,j}; B = (x)_k B_k, B_k = sum_j
    mu_{k,j} P_{k,j}; F = (x)_{k>=2} F_k; and R_t = 2|E| w X_t - diag(delta)
    - lambda_t F_1 with lambda_t the product of the term's mu.  The identity
    holds for any mu, since the terms cover the grid once; mu_{k,j} is the
    Rayleigh quotient v^T F_k v of the axis's vector v = v_{k,j}, as
    computed.  F_1 has a zero diagonal, so the
    first two parts are orthogonal; each is bounded by the telescoping sum
    (:func:`_telescoped`), the third by the triangle inequality.  Sums with
    cancellation get an absolute allowance of gamma_m times the sum of
    absolute values (Higham, ch. 3); every other computed quantity is a sum
    or product of non-negative numbers, whose relative rounding is covered
    by one factor 1 + gamma_K at the end.  |2|E| rho|_F^2 = sum deg^2 + 2|E|
    is an integer.  No V x V matrix, eigensolve or BLAS call is made, so the
    bound's bits depend only on numpy's CPU kernels.

    Each axis k >= 2 is worked from its (N, N) array V of vectors, one a
    row, in Gram form: U_k as V^T V and B_k as (V * mu)^T V, each entry one
    dot product of length N, and |P_{k,j}|_F <= (1 + u) |v_j|^2, so no
    (N, N, N) stack is formed.  ``np.einsum`` without ``optimize`` runs
    numpy's own loops, never BLAS.  P_{k,j} is ``projector(v_j)``, with each
    entry of v v^T rounded once (u = 2^-53), so entry (a, b) of U_k lies
    within u sum_j |v_ja v_jb| of the same sum of exact products, and the
    computed dot product within gamma_N of that; V * mu rounds once more.
    As |(|v| |v|^T)|_F = |v|^2, the allowances are (gamma_N + u) sum_j
    |v_j|^2 for U_k and (gamma_{N+1} + u) sum_j |mu_j| |v_j|^2 for B_k.

    The weight check and the check of the first factors are
    :func:`separability.verify_decomposition`'s, which forms each factor
    k >= 2 as ``projector(v)``: it is exactly symmetric, as x y rounds like
    y x, and it is v v^T + E with |E|_F <= 2^-53 |v|^2 (underflow adds at
    most d^2 2^-1074), so lambda_min >= -2^-53 |v|^2 (Higham, ch. 3).  With
    unit trace, |v|^2 is within about 1e-10 of 1, far inside that check's
    PSD tolerance of 1e-9: a finite projector with |trace - 1| <= 1e-10
    passes it, and no other does.  :func:`_unit_rows` accepts only finite
    vectors whose projector has such a trace, from |v|^2 alone, with no
    projector or eigensolve.  The ``ladder`` and ``index`` lines play no
    part.
    """
    from .separability import TermGrid  # separability imports this module

    factors = report.adjacency_factors
    degrees = report.layer_degrees
    dims = decomposition.profile.dims
    n = len(dims)
    if factors is None or degrees is None or report.profile != decomposition.profile:
        return None
    grid = decomposition.terms
    if not isinstance(grid, TermGrid) or not _covers_grid(grid.choice, dims):
        return None
    weight, firsts, choice = grid.weight, grid.firsts, grid.choice
    # With T equal weights, a sum within 1e-10 of 1 is also finite and
    # positive: the other two weight checks hold.
    weight_sum = float(sum(itertools.repeat(weight, len(grid))))
    # einsum's loop order, and so its order of summation, follows the
    # strides: in C order the bound's bits do not depend on the layout.
    vectors = [np.ascontiguousarray(v) for v in grid.vectors]
    squares, unit = zip(*map(_unit_rows, vectors))
    if not abs(weight_sum - 1.0) <= 1e-10 or _factor_failures(firsts) or not all(map(np.all, unit)):
        return None

    delta = np.asarray(degrees, dtype=np.int64)
    rows = [f.sum(axis=1) for f in factors]
    regular = all(r.min() == r.max() for r in rows[1:])
    twice_edges = 2 * report.num_edges
    count = len(firsts)  # T = prod_{k>=2} N_k
    if not (
        regular
        and all(((f == 0) | (f == 1)).all() for f in factors)
        and not factors[0].diagonal().any()
        and np.array_equal(delta, rows[0] * math.prod(int(r[0]) for r in rows[1:]))
        and count * int(delta.sum()) == twice_edges
    ):
        return None

    # Per axis: upper bounds on |U_k - I|, |U_k|, |I|, |B_k - F_k|, |B_k|, |F_k|.
    bounds = []
    mus = []  # per axis, each term's mu
    norms = []  # per axis, each term's bound on |P|_F
    for k, (v, square, pattern) in enumerate(zip(vectors, squares, factors[1:])):
        d = len(v)
        pattern = pattern.astype(float)
        mu = np.einsum("ja,ja->j", v, np.einsum("ab,jb->ja", pattern, v))
        summed = np.einsum("ja,jb->ab", v, v)
        weighted = np.einsum("ja,jb->ab", v * mu[:, None], v)
        u_slack = (_gamma(d) + _UNIT_ROUNDOFF) * float(square.sum())
        b_slack = (_gamma(d + 1) + _UNIT_ROUNDOFF) * float((np.abs(mu) * square).sum())
        bounds.append((
            _norm(summed - np.eye(d)) + u_slack, _norm(summed) + u_slack, math.sqrt(d),
            _norm(weighted - pattern) + b_slack, _norm(weighted) + b_slack,
            math.sqrt(float(pattern.sum())),
        ))
        mus.append(mu[choice[:, k]])
        norms.append((1.0 + _UNIT_ROUNDOFF) * square[choice[:, k]])
    u_diff, u_norm, i_norm, b_diff, b_norm, f_norm = zip(*bounds)
    first = factors[0]
    degree_squares = int((delta * delta).sum())
    diagonal = math.sqrt(degree_squares) * _telescoped(u_diff, u_norm, i_norm)
    off_diagonal = math.sqrt(float(first.sum())) * _telescoped(b_diff, b_norm, f_norm)

    lam = np.prod(mus, axis=0)  # gamma_{n-2} from the exact product of the mu
    top = first.astype(float)
    scaled = (twice_edges * weight) * firsts
    target = np.diag(delta.astype(float)) + lam[:, None, None] * top  # exact
    deviation = np.abs(scaled - target)
    deviation += (
        _gamma(3) * (np.abs(scaled) + deviation) + _gamma(n) * np.abs(lam)[:, None, None] * top
    )
    per_term = np.sqrt(np.einsum("tab,tab->t", deviation, deviation)) * np.prod(norms, axis=0)
    deviations = float(per_term.sum())

    # The longest chain of roundings on non-negative values, with slack.
    chain = count + sum(d * d for d in dims) + 8 * n + 32
    total = (math.hypot(diagonal, off_diagonal) + deviations) * (1.0 + _gamma(chain))
    residual = total / twice_edges
    relative = total / math.sqrt(count * degree_squares + twice_edges)
    if not relative <= tol:
        return None
    return VerificationCertificate(True, residual, relative, weight_sum, (), tol)
