"""Certificates that judge a decomposition without a density matrix.

``_factor_failures`` checks one per-axis stack of factors: finite,
symmetric, unit trace and PSD, by one batched eigenvalue call.
:func:`separability.verify_decomposition` runs it on its blocks.

``_factored_certificate`` bounds |S - rho|_F for a decomposition held as its
basis (:class:`separability.TermGrid`: one common weight, per axis k >= 2
the eigenvalues and vectors of F_k, F_1 and the layer degrees) of a graph
with A = F_1 (x) ... (x) F_n, from that basis and the graph's factors
alone: no V x V matrix, no array that grows with the number of terms T, no
eigensolve and no BLAS call, so the bound's bits do not depend on the BLAS
thread count (C. F. Van Loan, "The ubiquitous Kronecker product",
J. Comput. Appl. Math. 123 (2000); S. Gershgorin (1931) for the first
factors; N. J. Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., ch. 3, for the gamma_m rounding bounds).  It only ever passes;
:func:`separability.certify_decomposition` falls back to the dense path.
"""

from __future__ import annotations

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


# The least eigenvalue the Gershgorin test lets a first factor have: a tenth
# of the dense check's PSD tolerance, the rest left for its eigensolve's error.
_DISC_SLACK = 1e-10


def _axis_sums(vectors: np.ndarray, pattern: np.ndarray):
    """Per-axis quantities of the factored bound, from the (N, N) array of
    an axis's vectors (one a row) and its 0/1 pattern F_k: the computed
    |v_j|^2, whether each row passes :func:`_unit_rows`, the Rayleigh
    quotients mu_j, and upper bounds on |U_k - I|, |U_k|, |I|, |B_k - F_k|,
    |B_k| and |F_k| (see :func:`_factored_certificate`)."""
    # einsum's loop order, and so its order of summation, follows the
    # strides: in C order the bound's bits do not depend on the layout.
    v = np.ascontiguousarray(vectors)
    d = len(v)
    square, unit = _unit_rows(v)
    pattern = pattern.astype(float)
    mu = np.einsum("ja,ja->j", v, np.einsum("ab,jb->ja", pattern, v))
    summed = np.einsum("ja,jb->ab", v, v)
    weighted = np.einsum("ja,jb->ab", v * mu[:, None], v)
    u_slack = (_gamma(d) + _UNIT_ROUNDOFF) * float(square.sum())
    b_slack = (_gamma(d + 1) + _UNIT_ROUNDOFF) * float((np.abs(mu) * square).sum())
    bounds = (
        _norm(summed - np.eye(d)) + u_slack, _norm(summed) + u_slack, math.sqrt(d),
        _norm(weighted - pattern) + b_slack, _norm(weighted) + b_slack,
        math.sqrt(float(pattern.sum())),
    )
    return square, bool(unit.all()), mu, bounds


def _factored_certificate(
    decomposition: SeparableDecomposition, report: ConditionReport, tol: float
) -> VerificationCertificate | None:
    """A passing certificate for a decomposition whose terms are a
    :class:`separability.TermGrid`, from its basis; None whenever it cannot
    pass, and for terms held any other way.

    With the graph's exact 0/1 factors (A = F_1 (x) ... (x) F_n), layer
    degrees delta (each F_k, k >= 2, regular and delta = r_1 prod_k |F_k|_inf
    in integers, so D = diag(delta) (x) I), 2|E| = T sum(delta), and a grid
    whose F_1 and delta are the graph's, with common weight w, first factors
    X_t and projectors P_{k,j} = ``projector(v_{k,j})``:

        2|E| (S - rho) = diag(delta) (x) (U - I) + F_1 (x) (B - F)
                         + sum_t R_t (x) P_{2,t} (x) ... (x) P_{n,t}

    where U = (x)_k U_k, U_k = sum_j P_{k,j}; B = (x)_k B_k, B_k = sum_j
    mu_{k,j} P_{k,j}; F = (x)_{k>=2} F_k; and R_t = 2|E| w X_t - diag(delta)
    - lambda_t F_1 with lambda_t the product of the term's mu.  The identity
    holds for any mu, since the terms are the full product grid of the
    axes' vectors, each cell once; mu_{k,j} is the Rayleigh quotient
    v^T F_k v of v = v_{k,j}, as computed.  F_1 has a zero diagonal, so the
    first two parts are orthogonal; each is bounded by the telescoping sum
    (:func:`_telescoped`), the third by the triangle inequality.  Sums with
    cancellation get an absolute allowance of gamma_m times the sum of
    absolute values (Higham, ch. 3); every other computed quantity is a sum
    or product of non-negative numbers, whose relative rounding is covered
    by one factor 1 + gamma_K at the end.  |2|E| rho|_F^2 = sum deg^2 + 2|E|
    is an integer.

    Each axis k >= 2 is worked from its (N, N) array V of vectors, one a
    row, in Gram form (:func:`_axis_sums`), once per distinct (V, F_k) pair
    by their bytes: U_k as V^T V and B_k as (V * mu)^T V, each entry one dot
    product of length N, and |P_{k,j}|_F <= s_{k,j} = (1 + u) |v_j|^2.
    ``np.einsum`` without ``optimize`` runs numpy's own loops, never BLAS.
    Each entry of v v^T is rounded once (u = 2^-53), so entry (a, b) of U_k
    lies within u sum_j |v_ja v_jb| of the same sum of exact products, and
    the computed dot product within gamma_N of that; V * mu rounds once
    more.  As |(|v| |v|^T)|_F = |v|^2, the allowances are (gamma_N + u)
    sum_j |v_j|^2 for U_k and (gamma_{N+1} + u) sum_j |mu_j| |v_j|^2 for B_k.

    The third part has a closed form over the axes.  Term t's first factor,
    as the grid builds it, has the entries fl(delta_i / s) on its diagonal
    and fl(lam_t / s) where F_1 has a 1, with s = sum(delta) and lam_t the
    computed product of the recorded eigenvalues a_{k,j} the term chooses,
    within gamma_{n-2} of the exact product.  With p = fl(T w) and e =
    |p - 1| + 2 u p >= |T w (1 + eps) - 1| for |eps| <= u, R_t has the
    diagonal delta_i (T w (1 + eps_i) - 1) and the off-diagonal entries
    T w (1 + eps_t) lam_t - lambda_t, so

        |R_t|_F <= |delta| e + sqrt(nnz F_1) (|prod a - prod mu|
                   + (gamma_{n-2} + e (1 + gamma_{n-2})) prod |a|).

    Over the full grid, sum_t prod_k s_{k,t} = prod_k sum_j s_{k,j}, and
    likewise with |a| s, while the telescoped differences factorise:
    sum_t |prod_k a - prod_k mu| prod_k s <= sum_k (prod_{i<k} sum_j |a_ij|
    s_ij) (sum_j |a_kj - mu_kj| s_kj) (prod_{i>k} sum_j |mu_ij| s_ij).  So
    the whole bound takes O(sum_k N_k^3) time and O(sum_k N_k^2) memory.

    The checks are those of :func:`separability.verify_decomposition`, each
    shown to pass from the basis:

    - Weights: the T equal weights sum, in any order, to within gamma_{T-1}
      T w of T w, and p is within u T w of it, so |p - 1| + gamma_{T+1} p
      <= 1e-10 puts that sum within 1e-10 of 1 (and so finite and positive).
    - Factors k >= 2: ``projector(v)`` is exactly symmetric, as x y rounds
      like y x, and it is v v^T + E with |E|_F <= 2^-53 |v|^2 (underflow
      adds at most d^2 2^-1074), so lambda_min >= -2^-53 |v|^2 (Higham,
      ch. 3).  With unit trace, |v|^2 is within about 1e-10 of 1, far inside
      the PSD tolerance of 1e-9: a finite projector with |trace - 1| <=
      1e-10 passes, and no other does.  :func:`_unit_rows` accepts only
      finite vectors whose projector has such a trace, from |v|^2 alone.
    - First factors: exactly symmetric, as F_1 is.  Their trace is the
      rounded sum of fl(delta_i / s), whose exact sum is 1: within
      gamma_{N_1 + 1} of 1, which must be at most 1e-10.  By Gershgorin,
      lambda_min(X_t) >= min_i (fl(delta_i / s) - r_1(i) |fl(lam_t / s)|),
      and |lam_t| <= M (1 + gamma_{n-2}) with M = prod_k max_j |a_kj|, one
      product for all T terms.  So r_1(i) M kappa <= delta_i + 1e-10 s for
      every top row i, kappa = 1 + gamma_{2n+8} covering the roundings of
      lam_t, M, the division by s and the test's own two sides, puts
      lambda_min(X_t) >= -1e-10 (``_DISC_SLACK``) for every t.  The
      recorded eigenvalues must be finite, and so must every product of the
      largest |a_kj| over axes n..m (each bounds a partial ladder value),
      with room for its roundings: then every first factor is finite.

    The terms' ladders, which the grid implies, play no part.
    """
    from .separability import TermGrid  # separability imports this module

    factors, degrees, grid = report.adjacency_factors, report.layer_degrees, decomposition.terms
    dims = decomposition.profile.dims
    n = len(dims)
    if factors is None or degrees is None or report.profile != decomposition.profile:
        return None
    delta = np.asarray(degrees, dtype=np.int64)
    first = factors[0]
    rows = [f.sum(axis=1) for f in factors]
    count = len(grid)  # T = prod_{k>=2} N_k
    twice_edges = 2 * report.num_edges
    total_degree = int(delta.sum())
    if not (
        isinstance(grid, TermGrid)
        and all(r.min() == r.max() for r in rows[1:])
        and all(((f == 0) | (f == 1)).all() for f in factors)
        and not first.diagonal().any()
        and np.array_equal(delta, rows[0] * math.prod(int(r[0]) for r in rows[1:]))
        and count * total_degree == twice_edges
        and np.array_equal(grid.top_pattern, first)
        and np.array_equal(grid.layer_degrees, delta)
        and _gamma(dims[0] + 1) <= 1e-10
    ):
        return None

    weight_sum = count * float(grid.weight)  # p = fl(T w)
    if not abs(weight_sum - 1.0) + _gamma(count + 1) * weight_sum <= 1e-10:
        return None
    eigenvalues = grid.eigenvalues
    if not all(np.isfinite(a).all() for a in eigenvalues):
        return None
    largest = [float(np.abs(a).max()) for a in eigenvalues]
    partial = [math.prod(largest[m:]) for m in range(len(largest))]  # partial[0] = M
    if not (
        max(partial) <= 1e300
        and (rows[0] * (partial[0] * (1.0 + _gamma(2 * n + 8))) <= delta + _DISC_SLACK * total_degree).all()
    ):
        return None

    # Per axis: upper bounds on |U_k - I|, |U_k|, |I|, |B_k - F_k|, |B_k|,
    # |F_k|, and the sums over j of s, |a| s, |mu| s and |a - mu| s.
    distinct = {}
    bounds, sizes, a_sums, mu_sums, a_diffs = [], [], [], [], []
    for a, v, pattern in zip(eigenvalues, grid.vectors, factors[1:]):
        key = (v.tobytes(), pattern.tobytes())
        if key not in distinct:
            distinct[key] = _axis_sums(v, pattern)
        square, unit, mu, axis_bounds = distinct[key]
        if not unit:
            return None
        s = (1.0 + _UNIT_ROUNDOFF) * square
        bounds.append(axis_bounds)
        sizes.append(float(s.sum()))
        a_sums.append(float((np.abs(a) * s).sum()))
        mu_sums.append(float((np.abs(mu) * s).sum()))
        a_diffs.append(float((np.abs(a - mu) * s).sum()))
    u_diff, u_norm, i_norm, b_diff, b_norm, f_norm = zip(*bounds)
    degree_squares = int((delta * delta).sum())
    top_norm = math.sqrt(float(first.sum()))
    diagonal = math.sqrt(degree_squares) * _telescoped(u_diff, u_norm, i_norm)
    off_diagonal = top_norm * _telescoped(b_diff, b_norm, f_norm)

    slack = abs(weight_sum - 1.0) + 2.0 * _UNIT_ROUNDOFF * weight_sum  # e
    ladder = _gamma(n - 2)
    deviations = math.sqrt(degree_squares) * slack * math.prod(sizes) + top_norm * (
        _telescoped(a_diffs, a_sums, mu_sums) + (ladder + slack * (1.0 + ladder)) * math.prod(a_sums)
    )

    # The longest chain of roundings on non-negative values, with slack.
    chain = sum(d * d for d in dims) + 8 * n + 32
    total = (math.hypot(diagonal, off_diagonal) + deviations) * (1.0 + _gamma(chain))
    residual = total / twice_edges
    relative = total / math.sqrt(count * degree_squares + twice_edges)
    if not relative <= tol:
        return None
    return VerificationCertificate(True, residual, relative, weight_sum, (), tol)
