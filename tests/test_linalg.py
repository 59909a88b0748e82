"""Symmetric-matrix kernels: eigensolver, certificates, kron, partial transpose."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    DimensionProfile,
    MultipartiteGraph,
    adjacency_matrix,
    density_matrix,
    inf_norm,
    is_diagonally_dominant,
    is_psd,
    kron,
    laplacian,
    partial_transpose_matrix,
    spectral_decomposition,
)


def symmetric_2x2_eigenvalues(a, b, c):
    """Oracle: roots of the characteristic polynomial of [[a, b], [b, c]]."""
    mean = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + disc, mean - disc


def symmetric_3x3_eigenvalues(mat):
    """Oracle: trigonometric closed form for a symmetric 3x3 matrix."""
    mat = np.asarray(mat, dtype=float)
    q = np.trace(mat) / 3.0
    b = mat - q * np.eye(3)
    p = math.sqrt(max(np.sum(b * b) / 6.0, 0.0))
    if p == 0.0:
        return (q, q, q)
    det = np.linalg.det(b / p)
    r = min(1.0, max(-1.0, det / 2.0))
    phi = math.acos(r) / 3.0
    return tuple(
        q + 2.0 * p * math.cos(phi + 2.0 * math.pi * k / 3.0) for k in (0, 1, 2)
    )


def random_symmetric(rng, order):
    s = rng.standard_normal((order, order))
    return (s + s.T) / 2.0


class TestSpectralDecomposition:
    def test_identity(self):
        ed = spectral_decomposition(np.eye(3))
        assert np.allclose(ed.eigenvalues, [1, 1, 1], atol=0)
        assert np.allclose(ed.eigenvectors.T @ ed.eigenvectors, np.eye(3), atol=1e-14)

    def test_exchange_matrix(self):
        ed = spectral_decomposition([[0, 1], [1, 0]])
        assert np.allclose(ed.eigenvalues, [1, -1], atol=1e-14)
        r = 1 / math.sqrt(2)
        assert np.allclose(ed.eigenvectors[:, 0], [r, r], atol=1e-14)
        assert np.allclose(ed.eigenvectors[:, 1], [r, -r], atol=1e-14)

    def test_scalar_matrix(self):
        ed = spectral_decomposition([[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(ed.eigenvalues, [2, 2], atol=0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_decomposition([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="square"):
            spectral_decomposition(np.ones((2, 3)))

    @pytest.mark.parametrize("order", [2, 3, 5, 9, 17, 33, 64])
    def test_reconstruction_and_orthonormality(self, order):
        rng = np.random.default_rng(order)
        s = random_symmetric(rng, order)
        ed = spectral_decomposition(s)
        scale = max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(ed.reconstruct() - s) <= 1e-10 * scale
        gram = ed.eigenvectors.T @ ed.eigenvectors
        assert np.max(np.abs(gram - np.eye(order))) <= 1e-10

    def test_descending_order_and_sign_convention(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_symmetric(rng, 6)
            ed = spectral_decomposition(s)
            assert all(np.diff(ed.eigenvalues) <= 1e-14)
            for r in range(6):
                col = ed.eigenvectors[:, r]
                lead = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
                assert lead > 0

    def test_eigenvalues_within_row_sum_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            s = random_symmetric(rng, int(rng.integers(2, 12)))
            ed = spectral_decomposition(s)
            bound = inf_norm(s)
            assert np.max(np.abs(ed.eigenvalues)) <= bound + 1e-12 * max(1, bound)

    def test_2x2_against_characteristic_roots(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = rng.uniform(-1, 1, size=3)
            ed = spectral_decomposition([[a, b], [b, c]])
            hi, lo = symmetric_2x2_eigenvalues(a, b, c)
            assert abs(ed.eigenvalues[0] - hi) <= 1e-12
            assert abs(ed.eigenvalues[1] - lo) <= 1e-12

    def test_3x3_against_characteristic_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_symmetric(rng, 3)
            ed = spectral_decomposition(s)
            expect = sorted(symmetric_3x3_eigenvalues(s), reverse=True)
            assert np.max(np.abs(ed.eigenvalues - expect)) <= 1e-12


class TestCertificates:
    def test_non_finite_entry_raises(self, non_finite):
        bad = non_finite(np.eye(3))
        for check in (is_psd, spectral_decomposition):
            with pytest.raises(ValueError, match="finite and symmetric"):
                check(bad)

    def test_laplacian_is_psd(self):
        g = MultipartiteGraph(DimensionProfile((2, 2)), [(1, 2)])
        assert is_psd(laplacian(g))

    def test_indefinite_matrix(self):
        cert = is_psd([[1.0, 2.0], [2.0, 1.0]])
        assert not cert
        assert abs(cert.min_eigenvalue - (-1.0)) <= 1e-12

    def test_zero_matrix_is_psd(self):
        assert is_psd(np.zeros((3, 3)))

    def test_dominance_equality_case(self):
        assert is_diagonally_dominant([[1.0, 1.0], [1.0, 1.0]])

    def test_dominance_violation(self):
        cert = is_diagonally_dominant([[1.0, 2.0], [2.0, 1.0]])
        assert not cert
        assert cert.violating_rows == (0, 1)

    def test_dominance_diagonal(self):
        assert is_diagonally_dominant(np.diag([3.0, 4.0]))

    def test_dominance_requires_positive_diagonal(self):
        assert not is_diagonally_dominant([[0.0, 1.0], [1.0, 2.0]])
        assert is_diagonally_dominant(np.zeros((2, 2)))

    def test_gershgorin_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            s = random_symmetric(rng, n)
            np.fill_diagonal(s, np.sum(np.abs(s), axis=1) + rng.uniform(0, 1, n))
            assert is_diagonally_dominant(s)
            assert is_psd(s)

    def test_inf_norm_examples(self):
        assert inf_norm([[0, 1], [1, 0]]) == 1.0
        assert inf_norm(np.zeros((2, 2))) == 0.0
        assert inf_norm([[1, -2], [-2, 1]]) == 3.0


class TestKron:
    def test_identity_product(self):
        assert np.array_equal(kron([np.eye(2), np.eye(2)]), np.eye(4))

    def test_matches_block_expansion(self, rho_q_m222_expected):
        ones = np.ones((2, 2))
        got = kron([ones, np.eye(2), np.eye(2)])
        assert np.array_equal(got, 8.0 * rho_q_m222_expected)

    def test_single_factor(self):
        a = np.arange(4).reshape(2, 2)
        assert np.array_equal(kron([a]), a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            kron([])

    def test_associativity_exact_on_integers(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, c = (
                rng.integers(-3, 4, size=(2, 2)),
                rng.integers(-3, 4, size=(3, 3)),
                rng.integers(-3, 4, size=(2, 2)),
            )
            left = kron([a, kron([b, c])])
            flat = kron([a, b, c])
            assert np.array_equal(left, flat)
            assert np.array_equal(kron([kron([a, b]), c]), flat)


# 1-4 factors, each (shape, int64 or float), a stack size and a seed.
kron_operands = st.tuples(
    st.lists(
        st.tuples(st.tuples(st.integers(1, 4), st.integers(1, 4)), st.sampled_from(("int64", "float"))),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)


def chained_np_kron(factors):
    out = factors[0]
    for factor in factors[1:]:
        out = np.kron(out, factor)
    return out


@settings(max_examples=200, deadline=None)
@given(kron_operands)
def test_kron_is_bitwise_chained_np_kron(operands):
    spec, count, seed = operands
    rng = np.random.default_rng(seed)

    def draw(shape, kind):
        return rng.integers(-5, 6, size=shape) if kind == "int64" else rng.standard_normal(shape)

    factors = [draw(shape, kind) for shape, kind in spec]
    got, want = kron(factors), chained_np_kron(factors)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # Stacks: term t of the result is the product of every stack's t-th matrix.
    stacks = [np.stack([draw(shape, kind) for _ in range(count)]) for shape, kind in spec]
    got = kron(stacks)
    for t in range(count):
        want = chained_np_kron([stack[t] for stack in stacks])
        assert got[t].dtype == want.dtype and got[t].shape == want.shape
        assert got[t].tobytes() == want.tobytes()


class TestPartialTranspose:
    def test_identity_fixed(self, profile222):
        eye = np.eye(8)
        for t in (1, 2, 3):
            assert np.array_equal(partial_transpose_matrix(eye, profile222, t), eye)

    def test_involution_and_trace(self, profile222):
        rng = np.random.default_rng(6)
        for t in (1, 2, 3):
            s = random_symmetric(rng, 8)
            once = partial_transpose_matrix(s, profile222, t)
            assert np.trace(once) == np.trace(s)
            assert np.array_equal(
                partial_transpose_matrix(once, profile222, t), s
            )

    def test_reindexing_oracle_bipartite(self):
        # Independent elementwise definition on (2, 2).
        p = DimensionProfile((2, 2))
        m = np.arange(16.0).reshape(4, 4)
        got = partial_transpose_matrix(m, p, 1)
        expected = np.empty_like(m)
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        expected[j1 * 2 + i2, i1 * 2 + j2] = m[i1 * 2 + i2, j1 * 2 + j2]
        assert np.array_equal(got, expected)
        got2 = partial_transpose_matrix(m, p, 2)
        expected2 = np.empty_like(m)
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        expected2[i1 * 2 + j2, j1 * 2 + i2] = m[i1 * 2 + i2, j1 * 2 + j2]
        assert np.array_equal(got2, expected2)

    def test_partially_symmetric_state_is_fixed(self, m222, profile222):
        rho = density_matrix(m222, "signless")
        pt = partial_transpose_matrix(rho.matrix, profile222, 1)
        assert np.array_equal(pt, rho.matrix)

    def test_order_mismatch(self, profile222):
        with pytest.raises(ValueError, match="does not match"):
            partial_transpose_matrix(np.eye(4), profile222, 1)

    def test_subsystem_out_of_range(self, profile222):
        with pytest.raises(ValueError, match="subsystem 4"):
            partial_transpose_matrix(np.eye(8), profile222, 4)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_involution_property(self, seed, t):
        p = DimensionProfile((2, 2, 2))
        rng = np.random.default_rng(seed)
        s = random_symmetric(rng, 8)
        once = partial_transpose_matrix(s, p, t)
        assert np.array_equal(partial_transpose_matrix(once, p, t), s)
