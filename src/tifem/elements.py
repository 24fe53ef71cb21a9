"""Reference-element machinery: shape functions, quadrature, element stiffness.

The bilinear form is split into an isotropic part (volumetric lambda-term plus
the 2 mu_t deviatoric-type term) and the anisotropic part (alpha coupling,
beta extensional term, gamma shear-difference term).  The under-integrated
variants evaluate the designated term with the one-point Gauss rule; the
mixed variant condenses an elementwise-constant multiplier, which is the
elementwise L2 projection of the extensional strain onto constants.  The two
coincide on every Q1 element, and the kernel builds both from its 2x2 rule.
"""

import enum
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .material import _in_plane, plane_strain_stiffness
from .mesh import LOCAL_NODES


class NonPositiveJacobian(ValueError):
    """Element geometry has a non-positive Jacobian determinant."""


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
    x, w = np.polynomial.legendre.leggauss(n)
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


def geometry(coords, order, n_gauss):
    """Element geometry batched over elements and Gauss points.

    coords: (E, n, 2) node coordinates.  Returns shape values (q, n),
    physical gradients (E, q, n, 2) and weight * det J (E, q) on the
    n_gauss x n_gauss rule.  det J must be positive on the rule and at the
    nodes; a bilinear map's det J is affine, so on Q1 the corners decide.
    """
    rule, points, vals, grads = _tabulated(order, n_gauss)
    k, n = vals.shape
    # J[e, i, :, j] = dx_i/dxi_j at each point
    J = _interpolate(coords, np.swapaxes(grads, 1, 2).reshape(2 * k, n)).reshape(-1, 2, k, 2)
    detJ = J[:, 0, :, 0] * J[:, 1, :, 1] - J[:, 0, :, 1] * J[:, 1, :, 0]
    bad = np.argwhere(detJ <= 0.0)
    if bad.size:
        e, q = bad[0]
        raise NonPositiveJacobian(
            f"element {e}: det J = {detJ[e, q]} at {points[q].tolist()}"
        )
    q = len(rule.weights)
    detJ = detJ[:, :q]
    # J^-1 = [[J11, -J01], [-J10, J00]] / det J, as (E, q, 2, 2)
    inv = np.stack([J[:, 1, :q, 1], -J[:, 0, :q, 1], -J[:, 1, :q, 0], J[:, 0, :q, 0]], axis=-1)
    inv /= detJ[..., None]
    return vals[:q], grads[:q] @ inv.reshape(-1, q, 2, 2), rule.weights * detJ


def _strain_matrix(dN):
    """Voigt B matrices (..., 3, 2n) from physical gradients (..., n, 2)."""
    B = np.zeros(dN.shape[:-2] + (3, 2 * dN.shape[-2]))
    B[..., 0, 0::2] = dN[..., 0]
    B[..., 1, 1::2] = dN[..., 1]
    B[..., 2, 0::2] = dN[..., 1]
    B[..., 2, 1::2] = dN[..., 0]
    return B


def _selector(term, frame):
    """Voigt selector s (strain ordering 11, 22, 2*12) of the lam-term or the
    beta-term: s . eps is the divergence or the fibre strain a . eps a."""
    if term == "lam":
        return np.array([1.0, 1.0, 0.0])
    if frame is None:
        raise ValueError("extensional term needs a fibre frame")
    a1, a2 = _in_plane(frame)
    return np.array([a1 * a1, a2 * a2, a1 * a2])


def _reduced_term(B, wdet, selector):
    """Unit-coefficient terms (int g)(int g)^T / |E| with g = B^T selector,
    from B (E, q, 3, 2n) and weight * det J (E, q) on a rule exact for g."""
    E, q, _, ndof = B.shape
    g = ((wdet[..., None] * selector).reshape(E, 1, 3 * q) @ B.reshape(E, 3 * q, ndof))[:, 0]
    return g[:, :, None] * g[:, None, :] / wdet.sum(axis=1)[:, None, None]


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
    reduced = variant.reduced
    D = plane_strain_stiffness(replace(mp, **dict.fromkeys(reduced, 0.0)), frame)
    _, dN, wdet = geometry(coords.reshape(-1, n_expected, 2), order, order + 1)
    B = _strain_matrix(dN)
    E, q, _, ndof = B.shape
    Bw = (B * wdet[..., None, None]).reshape(E, 3 * q, ndof)
    K = np.swapaxes(Bw, 1, 2) @ (D @ B).reshape(E, 3 * q, ndof)
    for term in reduced:
        K += getattr(mp, term) * _reduced_term(B, wdet, _selector(term, frame))
    K += np.swapaxes(K, 1, 2)
    K *= 0.5
    return K.reshape(coords.shape[:-2] + (ndof, ndof))


def p0_projected_term(coords, coefficient, which, frame=None):
    """Stiffness term built with elementwise L2 projection onto constants.

    which: "volumetric" (divergence integrand) or "extensional" (fibre-strain
    integrand, requires a frame).  Order-1 elements only.
    """
    if which not in _COEFFICIENT:
        raise ValueError(f"unknown term selector {which!r}")
    selector = _selector(_COEFFICIENT[which], frame)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (4, 2):
        raise ValueError("reduced terms are defined for order-1 elements")
    _, dN, wdet = geometry(coords[None], 1, 2)
    return coefficient * _reduced_term(_strain_matrix(dN), wdet, selector)[0]


# One-point under-integrated term: the matrix of p0_projected_term on every
# Q1 element.  For a bilinear map, w det J dN/dx = w (dN/dxi dy/deta -
# dN/deta dy/dxi) is bilinear in (xi, eta) and det J is affine, so int g and
# |E| are exact on the one-point rule (xi = 0, w = 4) as on the 2x2 rule.
one_point_term = p0_projected_term
