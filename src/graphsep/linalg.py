"""Dense symmetric-matrix kernels.

Covers what the rest of the package needs: a full eigendecomposition with
orthonormal vectors (LAPACK, through ``numpy.linalg.eigh``), positivity and
diagonal-dominance certificates, row-sum norms, Kronecker products, and the
subsystem partial transpose.  Everything here is a pure function over
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DimensionProfile, max_asymmetry

SYMMETRY_ATOL = 1e-12


def require_symmetric(matrix, atol: float = SYMMETRY_ATOL, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a float array, or raise if it is not square symmetric.

    Symmetry is checked tile by tile (:func:`graphs.max_asymmetry`), so a
    float input is neither copied nor shadowed by a V x V temporary.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    # Phrased as not (x <= atol), so a NaN or inf entry fails as well.
    if not max_asymmetry(mat) <= atol:
        raise ValueError(f"{name} is not finite and symmetric within {atol}")
    return mat


@dataclass(frozen=True, eq=False)
class Eigendecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of rank-one terms; should reproduce the input matrix."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def spectral_decomposition(matrix) -> Eigendecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK (``eigh``).

    Output order is descending by eigenvalue (stable), and each vector is
    sign-normalised so its first non-negligible component is positive.
    """
    values, vectors = np.linalg.eigh(require_symmetric(matrix))
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    # Columns are unit vectors, so "non-negligible" is an absolute 1e-12.
    if vectors.size:
        lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(len(values))]
        vectors = vectors * np.where(lead < 0.0, -1.0, 1.0)
    return Eigendecomposition(values, vectors)


@dataclass(frozen=True)
class PsdCertificate:
    """Positive-semidefiniteness verdict with the extreme eigenvalues."""

    psd: bool
    min_eigenvalue: float
    max_eigenvalue: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.psd


def is_psd(matrix, tol: float = 1e-9) -> PsdCertificate:
    """Check ``lambda_min >= -tol * max(1, |lambda_max|)``.

    The tolerance scales with the largest eigenvalue magnitude (floored at
    one) so the verdict does not depend on overall matrix scale.
    """
    mat = require_symmetric(matrix)
    values = np.linalg.eigvalsh(mat)
    lo = float(values[0])
    hi = float(values[-1])
    return PsdCertificate(lo >= -tol * max(1.0, abs(hi)), lo, hi, tol)


@dataclass(frozen=True)
class DominanceCertificate:
    """Row-by-row diagonal dominance verdict."""

    dominant: bool
    violating_rows: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.dominant


def is_diagonally_dominant(matrix, tol: float = 1e-12) -> DominanceCertificate:
    """Check each diagonal entry against its absolute off-diagonal row sum.

    A row passes when ``m[i, i] >= sum_j |m[i, j]| - m[i, i]`` up to a small
    relative slack, and the diagonal entry is positive whenever the row has
    any off-diagonal mass.  Integer inputs are judged exactly; the slack only
    absorbs float rounding in computed matrices.  Violating rows are listed
    0-based.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    diag = np.diagonal(mat)
    off = np.sum(np.abs(mat), axis=1) - np.abs(diag)
    scale = np.maximum(1.0, np.maximum(np.abs(diag), off))
    slack = tol * scale
    dominated = diag >= off - slack
    positive = (diag > 0.0) | (off <= slack)
    ok = dominated & positive
    violating = tuple(int(i) for i in np.nonzero(~ok)[0])
    return DominanceCertificate(not violating, violating)


def inf_norm(matrix) -> float:
    """Maximum absolute row sum."""
    mat = np.asarray(matrix, dtype=float)
    if mat.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(mat), axis=1)))


def kron(factors) -> np.ndarray:
    """Kronecker product of the factors, left to right.

    Leading axes broadcast as a stack: (T, p, p) and (T, q, q) stacks give
    the (T, pq, pq) stack of per-term products.
    """
    factors = [np.asarray(f) for f in factors]
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = factors[0]
    for b in factors[1:]:
        product = out[..., :, None, :, None] * b[..., None, :, None, :]
        *stack, p, q, r, s = product.shape
        out = product.reshape(*stack, p * q, r * s)
    return out


def partial_transpose_matrix(matrix, profile: DimensionProfile, subsystem: int) -> np.ndarray:
    """Transpose the given subsystem's index pair, leaving the others alone.

    Entry ((.., i_t, ..), (.., j_t, ..)) moves to ((.., j_t, ..), (.., i_t, ..)).
    Pure reindexing: exact, trace-preserving, and an involution.  The matrix
    is viewed as a tensor with one row and one column index per subsystem,
    that subsystem's pair is swapped, and the result is a V x V copy.
    """
    mat = np.asarray(matrix)
    total = profile.total
    if mat.shape != (total, total):
        raise ValueError(
            f"matrix order {mat.shape} does not match profile total {total}"
        )
    n = profile.n
    if not 1 <= subsystem <= n:
        raise ValueError(f"subsystem {subsystem} out of range 1..{n}")
    tensor = mat.reshape(profile.dims + profile.dims)
    return np.swapaxes(tensor, subsystem - 1, n + subsystem - 1).copy().reshape(total, total)
