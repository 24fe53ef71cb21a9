"""Reference-element machinery: shape functions, quadrature, element stiffness.

The bilinear form is split into an isotropic part (volumetric lambda-term plus
the 2 mu_t deviatoric-type term) and the anisotropic part (alpha coupling,
beta extensional term, gamma shear-difference term).  The under-integrated
variants evaluate the designated term with the one-point Gauss rule; the
mixed variant condenses an elementwise-constant multiplier, which is the
elementwise L2 projection of the extensional strain onto constants.  The two
coincide on every Q1 element: each is (int g)(int g)^T / |E| with g the
term's integrand (Malkus and Hughes, CMAME 15, 1978).

The form is linear in the material coefficients, so the kernel splits in two
(Kirby and Logg, ACM TOMS 32(3), 2006).  The element moments M_jl = int
dN_a/dx_j dN_b/dx_l on the kernel's own rule, and the reduced moments
(int dN_a/dx_j)(int dN_b/dx_l) / |E| from the same rule, hold all of the
geometry and none of the material (`moments`); each stiffness contracts them
with the material's 4 x 4 coefficients in gradient form
(`gradient_coefficients`, `stiffness_blocks`).
On Q1 the reduced moments are rank-one products on the full set's geometry,
one call of `geometry` for both sets and one multiplication per entry.
`moments` runs over chunks of consecutive elements whose element matrices
hold about _BLOCK entries together (`element_chunks`), so that no temporary
of its geometry is the length of the mesh, and `assembly.assemble` contracts
and scatters over the same chunks.  `assembly.assemble` keeps a mesh's
moments on the mesh (`QuadMesh.cached`), built on first use from the nodes
as they are at that time, and contracts them for every operator;
`element_stiffness` and `p0_projected_term` build them from their
coordinates on every call.
"""

import enum
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .material import _in_plane, plane_strain_stiffness
from .mesh import LOCAL_NODES


class NonPositiveJacobian(ValueError):
    """Element geometry has a non-positive or non-finite Jacobian determinant."""


_BLOCK = 1 << 16  # entries in an element chunk's matrices, or in a column block of a mat-vec


def element_chunks(E, n):
    """(e0, e1) of consecutive chunks of E elements of n nodes, elements e0
    to e1 - 1, whose element matrices, (2n)^2 entries each, hold about
    _BLOCK entries together: 202 Q2 or 1024 Q1 elements."""
    step = max(1, _BLOCK // (2 * n) ** 2)
    return [(e0, min(e0 + step, E)) for e0 in range(0, E, step)]


class FormulationVariant(enum.Enum):
    Q1_CG = "Q1_CG"
    Q2_CG = "Q2_CG"
    Q1_CG_UI_lambda = "Q1_CG_UI_lambda"
    Q1_CG_UI_beta = "Q1_CG_UI_beta"
    Q1_CG_UI_betalambda = "Q1_CG_UI_betalambda"
    Q1_MIXED_P0_beta = "Q1_MIXED_P0_beta"

    @property
    def order(self):
        return 2 if self is FormulationVariant.Q2_CG else 1

    @property
    def reduced(self):
        """Coefficients of the terms this variant reduces to (int g)(int g)^T / |E|.

        Variants with equal order and reduced terms have equal stiffness:
        Q1_MIXED_P0_beta builds the matrix of Q1_CG_UI_beta."""
        return {
            "Q1_CG_UI_lambda": ("lam",),
            "Q1_CG_UI_beta": ("beta",),
            "Q1_CG_UI_betalambda": ("lam", "beta"),
            "Q1_MIXED_P0_beta": ("beta",),
        }.get(self.value, ())


# Coefficient of each reducible term by its public name.
_COEFFICIENT = {"volumetric": "lam", "extensional": "beta"}


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (k, 2)
    weights: np.ndarray  # (k,)


@lru_cache(maxsize=None)
def gauss_rule_1d(n):
    """Gauss-Legendre points and weights with n points on [-1, 1], read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def gauss_rule(n):
    """Tensor-product Gauss-Legendre rule with n points per direction."""
    x, w = gauss_rule_1d(n)
    pts = np.array([(xi, eta) for eta in x for xi in x])
    wts = np.array([wi * wj for wj in w for wi in w])
    return QuadratureRule(points=pts, weights=wts)


def _lagrange_1d(order, t):
    """1D Lagrange basis at nodes (-1, 1, 0)[: order + 1] on a float array t:
    values and derivatives, each of shape t.shape + (order + 1,)."""
    if order == 1:
        vals = [0.5 * (1 - t), 0.5 * (1 + t)]
        ders = [np.full_like(t, -0.5), np.full_like(t, 0.5)]
    elif order == 2:
        vals = [0.5 * t * (t - 1.0), 0.5 * t * (t + 1.0), 1.0 - t * t]
        ders = [t - 0.5, t + 0.5, -2.0 * t]
    else:
        raise ValueError("order must be 1 or 2")
    return np.stack(vals, axis=-1), np.stack(ders, axis=-1)


def shape_functions(order, xi):
    """Shape function values and reference gradients at reference points.

    xi: (..., 2).  Returns (values (..., n), gradients (..., n, 2)) with n = 4
    (Q1) or 9 (Q2), the tensor product of the 1D bases over mesh.LOCAL_NODES.
    """
    xi = np.asarray(xi, dtype=float)
    ls, dls = _lagrange_1d(order, xi[..., 0])
    lt, dlt = _lagrange_1d(order, xi[..., 1])
    i, j = LOCAL_NODES[: (order + 1) ** 2].T
    vals = ls[..., i] * lt[..., j]
    grads = np.stack([dls[..., i] * lt[..., j], ls[..., i] * dlt[..., j]], axis=-1)
    return vals, grads


@lru_cache(maxsize=None)
def _tabulated(order, n_gauss):
    """The rule, its points followed by the reference nodes (k, 2), and the
    shape values (k, n) and reference gradients (k, n, 2) on them."""
    rule = gauss_rule(n_gauss)
    nodes = np.array([-1.0, 1.0, 0.0])[LOCAL_NODES[: (order + 1) ** 2]]
    points = np.concatenate([rule.points, nodes])
    return rule, points, *shape_functions(order, points)


def _interpolate(nodal, table):
    """sum_n table[k, n] nodal[e, n, i] as (E, i, k), from nodal (E, n, i) and
    table (k, n): one (E i, n) @ (n, k) product, where an einsum over the
    small axes runs many times slower."""
    E, n, _ = nodal.shape
    return (np.swapaxes(nodal, 1, 2).reshape(-1, n) @ table.T).reshape(E, -1, len(table))


def geometry(coords, order, n_gauss, first=0):
    """Element geometry batched over elements and Gauss points.

    coords: (E, n, 2) node coordinates.  Returns shape values (q, n),
    physical gradients (E, q, n, 2) and weight * det J (E, q) on the
    n_gauss x n_gauss rule.  det J must be positive and finite on the rule
    and at the nodes; a bilinear map's det J is affine, so on Q1 the corners
    decide.  An element where det J is not a positive finite number, NaN
    included, is named by its index in coords plus first, the index of
    coords' first element in its mesh.
    """
    rule, points, vals, grads = _tabulated(order, n_gauss)
    k, n = vals.shape
    # J[e, i, :, j] = dx_i/dxi_j at each point
    J = _interpolate(coords, np.swapaxes(grads, 1, 2).reshape(2 * k, n)).reshape(-1, 2, k, 2)
    detJ = J[:, 0, :, 0] * J[:, 1, :, 1] - J[:, 0, :, 1] * J[:, 1, :, 0]
    bad = np.argwhere(~((detJ > 0.0) & (detJ < np.inf)))  # NaN fails both
    if bad.size:
        e, q = bad[0]
        raise NonPositiveJacobian(
            f"element {first + e}: det J = {detJ[e, q]} at {points[q].tolist()}"
        )
    q = len(rule.weights)
    detJ = detJ[:, :q]
    # J^-1 = [[J11, -J01], [-J10, J00]] / det J, as (E, q, 2, 2)
    inv = np.stack([J[:, 1, :q, 1], -J[:, 0, :q, 1], -J[:, 1, :q, 0], J[:, 0, :q, 0]], axis=-1)
    inv /= detJ[..., None]
    return vals[:q], grads[:q] @ inv.reshape(-1, q, 2, 2), rule.weights * detJ


# Voigt row (strain 11, 22, 2*12) of each displacement-gradient component
# du_i/dx_j, in the order ij = 00, 01, 10, 11: with S the (3, 4) matrix taking
# the gradient to the strain, S^T D S = D[_VOIGT][:, _VOIGT] and S^T s = s[_VOIGT].
_VOIGT = [0, 2, 2, 1]


def _reduced_coefficient(term, coefficient, frame):
    """coefficient (S^T s)(S^T s)^T, the gradient-form coefficient of a reduced
    term, from the Voigt selector s (strain ordering 11, 22, 2*12) of the
    lam-term or the beta-term: s . eps is the divergence or the fibre strain
    a . eps a."""
    if term == "lam":
        s = np.array([1.0, 1.0, 0.0])
    elif frame is None:
        raise ValueError("extensional term needs a fibre frame")
    else:
        a1, a2 = _in_plane(frame)
        s = np.array([a1 * a1, a2 * a2, a1 * a2])
    t = s[_VOIGT]
    return coefficient * np.outer(t, t)


# The blocks jl = 00, 01, 11 of a moment set; M_10 = M_01^T.
_JL = ((0, 0), (0, 1), (1, 1))


def moments(coords, order):
    """Material-free element moments on the kernel's (order + 1)^2 rule.

    coords: (E, n, 2).  Returns the moments M_jl[e, a, b] = sum_q w det J
    dN_a/dx_j dN_b/dx_l as (3, E, n, n) for jl = 00, 01, 11 (M_10 = M_01^T),
    in a tuple that on order 1 holds the reduced moments (int dN_a/dx_j)
    (int dN_b/dx_l) / |E| next: both sets from one call of `geometry` per
    chunk of `element_chunks`, written into one array.
    """
    E, n, _ = coords.shape
    sets = np.empty((2 if order == 1 else 1, 3, E, n, n))
    for e0, e1 in element_chunks(E, n):
        _, dN, wdet = geometry(coords[e0:e1], order, order + 1, first=e0)
        wdN = wdet[..., None, None] * dN
        # one (n, q) @ (q, n) product per element and block
        for M, (j, l) in zip(sets[0, :, e0:e1], _JL):
            np.matmul(np.swapaxes(wdN[..., j], 1, 2), dN[..., l], out=M)
        if order == 1:
            # a rank-one product per element and block: each entry is the one
            # product (int dN_a/dx_j / |E|) int dN_b/dx_l
            g = np.sum(wdN, axis=1)
            wg = g * (1.0 / wdet.sum(axis=1))[:, None, None]
            for M, (j, l) in zip(sets[1, :, e0:e1], _JL):
                np.multiply(wg[:, :, j, None], g[:, None, :, l], out=M)
    return tuple(sets)


def gradient_coefficients(mp, frame, variant):
    """The symmetric 4 x 4 coefficients over the gradient components ij = 00,
    01, 10, 11 that a variant's stiffness contracts with the element moments:
    for the terms integrated in full, S^T D S made exactly symmetric, then,
    for a variant with reduced terms, the sum of their `_reduced_coefficient`s,
    which goes with the reduced moments."""
    D = plane_strain_stiffness(replace(mp, **dict.fromkeys(variant.reduced, 0.0)), frame)
    C = D[np.ix_(_VOIGT, _VOIGT)]
    coefficients = [0.5 * (C + C.T)]
    if variant.reduced:
        coefficients.append(sum(_reduced_coefficient(term, getattr(mp, term), frame)
                                for term in variant.reduced))
    return coefficients


def stiffness_blocks(coefficients, *sets):
    """Element matrices from coefficients C (4, 4), as `gradient_coefficients`
    gives them, each paired in order with one moment set (3, E, n, n), as
    `moments` gives them.  Returns (2, 2, E, n, n), exactly symmetric:
    K[i, k, e, a, b] is entry (2a + i, 2b + k) of element e's matrix, the
    sum over the pairs of sum_jl C[ij, kl] M_jl[e, a, b].

    The four blocks ik come from one (4, 3) @ (3, E n^2) product per pair:
    the symmetrisation turns the M_10 = M_01^T part into a second M_01 part.
    """
    def product(C, M):
        C = C.reshape(2, 2, 2, 2)
        fold = np.stack([C[:, 0, :, 0], 2.0 * C[:, 0, :, 1], C[:, 1, :, 1]], axis=-1)
        return fold.reshape(4, 3) @ M.reshape(3, -1)

    (C, M), *rest = zip(coefficients, sets)
    K = product(C, M)
    for C_term, M_term in rest:
        K += product(C_term, M_term)
    K = K.reshape((2, 2) + M.shape[1:])
    # into a new array: K += K.transpose(...) would read what it writes, so
    # numpy would first copy all of K
    K = np.add(K, K.transpose(1, 0, 2, 4, 3))
    K *= 0.5
    return K


def _interleaved(K):
    """(E, 2n, 2n) element matrices from blocks (2, 2, E, n, n)."""
    _, _, E, n, _ = K.shape
    return K.transpose(2, 3, 0, 4, 1).reshape(E, 2 * n, 2 * n)


def element_stiffness(coords, mp, frame, variant):
    """Element stiffness matrix for one formulation variant.

    coords: (n, 2) node coordinates matching the variant's order, giving a
    (2n, 2n) matrix, or (E, n, 2) for E elements, giving (E, 2n, 2n).
    """
    coords = np.asarray(coords, dtype=float)
    order = variant.order
    n_expected = (order + 1) ** 2
    if coords.ndim not in (2, 3) or coords.shape[-2:] != (n_expected, 2):
        raise ValueError(
            f"{variant.value} expects {n_expected} nodes, got shape {coords.shape}"
        )
    K = stiffness_blocks(gradient_coefficients(mp, frame, variant),
                         *moments(coords.reshape(-1, n_expected, 2), order))
    return _interleaved(K).reshape(coords.shape[:-2] + (2 * n_expected,) * 2)


def p0_projected_term(coords, coefficient, which, frame=None):
    """Stiffness term built with elementwise L2 projection onto constants.

    which: "volumetric" (divergence integrand) or "extensional" (fibre-strain
    integrand, requires a frame).  Order-1 elements only.
    """
    if which not in _COEFFICIENT:
        raise ValueError(f"unknown term selector {which!r}")
    C = _reduced_coefficient(_COEFFICIENT[which], coefficient, frame)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (4, 2):
        raise ValueError("reduced terms are defined for order-1 elements")
    _, reduced = moments(coords[None], 1)
    return _interleaved(stiffness_blocks([C], reduced))[0]


# One-point under-integrated term: the matrix of p0_projected_term on every
# Q1 element.  For a bilinear map, w det J dN/dx = w (dN/dxi dy/deta -
# dN/deta dy/dxi) is bilinear in (xi, eta) and det J is affine, so int g and
# |E| are exact on the one-point rule (xi = 0, w = 4) as on the 2x2 rule.
one_point_term = p0_projected_term
