import numpy as np
import pytest
import scipy.sparse as sp

from tifem import EngineeringConstants, check_stability, cook_mesh
from tifem.mesh import COOK_CORNERS


def sample_admissible(rng, E_t_range=(0.5, 300.0), margin=1e-2):
    """Random engineering constants inside the admissible region.

    The margin keeps samples away from the region boundary so that derived
    parameters stay well scaled for tolerance-based comparisons.
    """
    while True:
        p = rng.uniform(0.2, 6.0)
        nu_t = rng.uniform(-0.95, 0.95)
        nu_l = rng.uniform(-0.95, 0.95)
        q = rng.uniform(1.0, 3.0)
        E_t = rng.uniform(*E_t_range)
        ec = EngineeringConstants(E_t, p, q, nu_t, nu_l)
        if (
            check_stability(ec).admissible
            and (1.0 - nu_t) * p - 2.0 * nu_l**2 > margin
            and (2.0 * nu_t + 1.0) * p - (2.0 * nu_l + 1.0) > margin
        ):
            return ec


def random_quad(rng, scale=1.0):
    """Convex, positively oriented quadrilateral."""
    while True:
        base = scale * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        quad = base + rng.uniform(-0.2 * scale, 0.2 * scale, size=(4, 2))
        if _is_convex_ccw(quad):
            return quad


def distorted_cook_mesh(n, order, rng):
    """cook_mesh(n, order) with every interior node moved at random by up to
    a fifth of the smallest node spacing: general quadrilaterals, and for
    Q2 curved edges too."""
    mesh = cook_mesh(n, order)
    boundary = np.unique(np.concatenate([*map(np.asarray, mesh.boundary_nodes.values())]))
    interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary)
    spacing = (COOK_CORNERS[2, 1] - COOK_CORNERS[1, 1]) / (n * order)
    mesh.nodes[interior] += rng.uniform(-0.2, 0.2, size=(interior.size, 2)) * spacing
    return mesh


def dense(A):
    """The dense matrix of a square CSC (`tifem.assembly.CSC`), from its arrays."""
    n = A.indptr.size - 1
    out = np.zeros((n, n))
    out[A.indices, np.repeat(np.arange(n), np.diff(A.indptr))] = A.data
    return out


def scipy_csr(K):
    """K, a CSC symmetric bit for bit (`LinearSystem.stiffness`), as scipy's
    CSR of the same arrays: the oracle the tests slice and multiply."""
    return sp.csr_matrix((K.data, K.indices, K.indptr))


def random_parallelogram(rng, scale=1.0):
    p0 = rng.uniform(-scale, scale, size=2)
    e1 = rng.uniform(0.3 * scale, scale, size=2) * np.array([1.0, 0.0])
    e1 = e1 + np.array([0.0, rng.uniform(-0.3, 0.3) * scale])
    e2 = np.array([rng.uniform(-0.3, 0.3) * scale, rng.uniform(0.3 * scale, scale)])
    if e1[0] * e2[1] - e1[1] * e2[0] < 0:
        e1, e2 = e2, e1
    return np.array([p0, p0 + e1, p0 + e1 + e2, p0 + e2])


def one_point_oracle(coords, selector):
    """Hand-written one-point term w det J b b^T at xi = 0, w = 4, with
    b = B^T selector, for Q1 coordinates (..., 4, 2)."""
    grads = 0.25 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    J = np.einsum("...ni,nj->...ij", coords, grads)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    dN = grads @ np.linalg.inv(J)
    B = np.zeros(coords.shape[:-2] + (3, 8))
    B[..., 0, 0::2] = dN[..., 0]
    B[..., 1, 1::2] = dN[..., 1]
    B[..., 2, 0::2] = dN[..., 1]
    B[..., 2, 1::2] = dN[..., 0]
    b = np.einsum("i,...ij->...j", selector, B)
    return 4.0 * detJ[..., None, None] * b[..., :, None] * b[..., None, :]


def _is_convex_ccw(quad):
    for i in range(4):
        a, b, c = quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0.05:
            return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
