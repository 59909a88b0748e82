import math

import numpy as np
import pytest

from graphsep import DimensionProfile, MultipartiteGraph, vertex_index


@pytest.fixture
def profile222():
    return DimensionProfile((2, 2, 2))


@pytest.fixture
def m222(profile222):
    """Perfect matching between the two top layers of (2, 2, 2)."""
    pairs = [((1, j, k), (2, j, k)) for j in (1, 2) for k in (1, 2)]
    return MultipartiteGraph(
        profile222, [(vertex_index(u, profile222), vertex_index(v, profile222)) for u, v in pairs]
    )


@pytest.fixture
def rho_q_m222_expected():
    """Hand-expanded signless density matrix of the matching graph."""
    eye4 = np.eye(4)
    return np.block([[eye4, eye4], [eye4, eye4]]) / 8.0


@pytest.fixture(
    params=[(v, at) for v in (math.nan, math.inf, -math.inf) for at in ("above", "diagonal")],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def non_finite(request):
    """Copy a square matrix with one NaN or +-inf above the diagonal or on it."""
    value, at = request.param

    def spoil(matrix):
        out = np.array(matrix, dtype=float)
        out[(0, 1) if at == "above" else (1, 1)] = value
        return out

    return spoil
