"""Constitutive model for transversely isotropic linear elasticity.

The material is described either by engineering constants (Young's moduli,
Poisson ratios, shear moduli via the ratios p = E_l/E_t and q = mu_l/mu_t)
or by the five tensor coefficients (lambda, mu_t, mu_l, alpha, beta) plus
the derived gamma = 2(mu_l - mu_t).  All operations here are pure functions;
the value types are immutable and safe to share across threads.
EngineeringConstants is a named tuple, so it unpacks in field order, and
check_stability takes it or any sequence of the same five floats: the
stability scan passes plain tuples that it builds in C, since even a named
tuple's __new__ would be a Python call per grid point.  The other value
types are frozen dataclasses.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np


class DegenerateDenominator(ValueError):
    """Parameter conversion hit a (near-)zero denominator."""


class ParameterOverflow(ValueError):
    """Parameter conversion overflowed the float range."""


class SingularStiffness(ValueError):
    """Plane-strain stiffness is numerically singular."""


class EngineeringConstants(NamedTuple):
    """Physical parametrization: (E_t, p, q, nu_t, nu_l).

    E_t is the transverse Young's modulus, p = E_l/E_t the moduli ratio,
    q = mu_l/mu_t the shear ratio, nu_t and nu_l the transverse and
    longitudinal Poisson ratios.
    """

    E_t: float
    p: float
    q: float
    nu_t: float
    nu_l: float

    @property
    def E_l(self):
        return self.p * self.E_t

    @property
    def mu_t(self):
        return self.E_t / (2.0 * (1.0 + self.nu_t))

    @property
    def mu_l(self):
        return self.q * self.mu_t


@dataclass(frozen=True)
class MaterialParameters:
    """Coefficients of the elasticity tensor (all stress units)."""

    lam: float
    mu_t: float
    mu_l: float
    alpha: float
    beta: float

    @property
    def gamma(self):
        # Shear-difference modulus, tied exactly to the two shear moduli.
        return 2.0 * (self.mu_l - self.mu_t)


@dataclass(frozen=True)
class FibreFrame:
    """Unit fibre direction; 2 components in plane strain, 3 in 3D."""

    a: tuple

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        n = np.linalg.norm(a)
        if not abs(n - 1.0) <= 1e-14:
            raise ValueError(f"fibre direction must be a unit vector, |a| = {n}")
        object.__setattr__(self, "a", tuple(a))

    @classmethod
    def from_angle(cls, angle):
        """In-plane frame a = (cos angle, sin angle)."""
        return cls((math.cos(angle), math.sin(angle)))

    @property
    def vec(self):
        return np.asarray(self.a, dtype=float)


# Identifiers for the five pointwise-stability conditions, in check order.
ALL_CONDITIONS = ("p_positive", "shear_ordering", "nu_t_bound", "discriminant", "denominator")


@dataclass(frozen=True)
class StabilityVerdict:
    violated: tuple = ()

    @property
    def admissible(self):
        return not self.violated


def derive_parameters(ec):
    """Convert engineering constants to elasticity-tensor coefficients.

    Raises DegenerateDenominator when the shared denominator
    (1 + nu_t)((1 - nu_t) p - 2 nu_l^2) is numerically zero, which happens
    on the stability boundary, and ParameterOverflow when a square of an
    input leaves the float range.
    """
    p, q, nu_t, nu_l, E_t = ec.p, ec.q, ec.nu_t, ec.nu_l, ec.E_t
    try:
        p_sq, nu_t_sq, nu_l_sq = p**2, nu_t**2, nu_l**2
    except OverflowError as err:
        raise ParameterOverflow(
            f"parameters overflow the float range for p={p}, nu_t={nu_t}, nu_l={nu_l}"
        ) from err
    d = (1.0 + nu_t) * ((1.0 - nu_t) * p - 2.0 * nu_l_sq)
    if abs(d) < 1e-14 * max(1.0, abs(p)):
        raise DegenerateDenominator(
            f"parameter denominator {d} vanishes for p={p}, nu_t={nu_t}, nu_l={nu_l}"
        )
    lam = (nu_t * p + nu_l_sq) / d * E_t
    alpha = ((nu_l - nu_t + nu_t * nu_l) * p - nu_l_sq) / d * E_t
    beta = (
        (1.0 - nu_t_sq) * p_sq
        + (-2.0 * nu_t * nu_l + 2.0 * q * nu_t - 2.0 * nu_l + 1.0 - 2.0 * q) * p
        - (1.0 - 4.0 * q) * nu_l_sq
    ) / d * E_t
    return MaterialParameters(lam=lam, mu_t=ec.mu_t, mu_l=ec.mu_l, alpha=alpha, beta=beta)


# The verdict for each set of violated conditions; bit i of the index
# stands for ALL_CONDITIONS[i].
_VERDICTS = tuple(
    StabilityVerdict(tuple(c for i, c in enumerate(ALL_CONDITIONS) if mask >> i & 1))
    for mask in range(2 ** len(ALL_CONDITIONS))
)


def check_stability(ec):
    """Certify the sufficient pointwise-stability conditions.

    ec is an EngineeringConstants or any sequence of the same five floats in
    its field order, (E_t, p, q, nu_t, nu_l); both give the same verdict.
    The five conditions: p > 0; mu_l >= mu_t > 0; nu_t > -1;
    (2 nu_t + 1) p - (2 nu_l + 1) > 0; (1 - nu_t) p - 2 nu_l^2 > 0.
    NaN inputs produce a verdict with every condition violated; a nu_l^2
    past the float range counts as +inf, which violates the last condition.
    Verdicts are shared immutable values from a 32-entry table, one per
    set of violated conditions.
    """
    E_t, p, q, nu_t, nu_l = ec
    if E_t != E_t or p != p or q != q or nu_t != nu_t or nu_l != nu_l:  # NaN
        return _VERDICTS[-1]
    # EngineeringConstants.mu_t, written out on the local floats
    mu_t = E_t / (2.0 * (1.0 + nu_t)) if nu_t != -1.0 else math.inf
    nu_l_sq = nu_l * nu_l  # +inf past the float range, where nu_l**2 raises
    mask = (
        (not p > 0.0)
        + 2 * (not q * mu_t >= mu_t > 0.0)
        + 4 * (not nu_t > -1.0)
        + 8 * (not (2.0 * nu_t + 1.0) * p - (2.0 * nu_l + 1.0) > 0.0)
        + 16 * (not (1.0 - nu_t) * p - 2.0 * nu_l_sq > 0.0)
    )
    return _VERDICTS[mask]


def stiffness_apply(mp, frame, eps):
    """Apply the elasticity tensor to a symmetric strain, any dimension.

    sigma = lam tr(eps) I + 2 mu_t eps + beta (M:eps) M
          + alpha ((M:eps) I + tr(eps) M) + gamma (eps M + M eps),
    with M = a (x) a.
    """
    eps = np.asarray(eps, dtype=float)
    a = frame.vec
    if a.shape[0] != eps.shape[0]:
        raise ValueError("fibre direction and strain dimension mismatch")
    M = np.outer(a, a)
    tr = np.trace(eps)
    Me = float(np.tensordot(M, eps))
    I = np.eye(eps.shape[0])
    return (
        mp.lam * tr * I
        + 2.0 * mp.mu_t * eps
        + mp.beta * Me * M
        + mp.alpha * (Me * I + tr * M)
        + mp.gamma * (eps @ M + M @ eps)
    )


def stiffness_matrix_e3(mp):
    """6x6 Voigt stiffness for fibre e3, ordering (11, 22, 33, 23, 13, 12).

    Engineering shear strains (factor 2) on the strain side.
    """
    lam, mu_t, mu_l = mp.lam, mp.mu_t, mp.mu_l
    alpha, beta, gamma = mp.alpha, mp.beta, mp.gamma
    C = np.zeros((6, 6))
    C[0, 0] = C[1, 1] = lam + 2.0 * mu_t
    C[0, 1] = C[1, 0] = lam
    C[0, 2] = C[2, 0] = C[1, 2] = C[2, 1] = lam + alpha
    C[2, 2] = lam + 2.0 * mu_t + beta + 2.0 * alpha + 2.0 * gamma
    C[3, 3] = C[4, 4] = mu_l
    C[5, 5] = mu_t
    return C


def compliance_matrix_e3(ec):
    """6x6 Voigt compliance for fibre e3 from the engineering constants."""
    E_t, E_l = ec.E_t, ec.E_l
    mu_t, mu_l = ec.mu_t, ec.mu_l
    S = np.zeros((6, 6))
    S[0, 0] = S[1, 1] = 1.0 / E_t
    S[0, 1] = S[1, 0] = -ec.nu_t / E_t
    S[0, 2] = S[2, 0] = S[1, 2] = S[2, 1] = -ec.nu_l / E_l
    S[2, 2] = 1.0 / E_l
    S[3, 3] = S[4, 4] = 1.0 / mu_l
    S[5, 5] = 1.0 / mu_t
    return S


def _in_plane(frame):
    """(a1, a2) of an in-plane unit fibre; any other fibre raises ValueError."""
    if abs(np.linalg.norm(frame.vec[:2]) - 1.0) > 1e-14:
        raise ValueError("plane strain needs an in-plane unit fibre")
    return frame.vec[:2]


def plane_strain_stiffness(mp, frame):
    """3x3 Voigt stiffness (11, 22, 12; engineering shear) for in-plane fibre.

    Direct restriction of the stress-strain law to in-plane tensors with
    in-plane fibre direction; this is what the element integrands use.
    """
    a1, a2 = _in_plane(frame)
    lam, mu_t = mp.lam, mp.mu_t
    alpha, beta, gamma = mp.alpha, mp.beta, mp.gamma
    C = np.empty((3, 3))
    C[0, 0] = lam + 2.0 * mu_t + beta * a1**4 + 2.0 * (alpha + gamma) * a1**2
    C[1, 1] = lam + 2.0 * mu_t + beta * a2**4 + 2.0 * (alpha + gamma) * a2**2
    C[0, 1] = C[1, 0] = lam + alpha + beta * a1**2 * a2**2
    C[0, 2] = C[2, 0] = (alpha + gamma) * a1 * a2 + beta * a1**3 * a2
    C[1, 2] = C[2, 1] = (alpha + gamma) * a1 * a2 + beta * a1 * a2**3
    C[2, 2] = mu_t + 0.5 * gamma + beta * a1**2 * a2**2
    return C


def plane_strain_compliance(mp, frame):
    """3x3 plane-strain compliance: cofactor inverse of plane_strain_stiffness.

    Used by the beam's analytical solution.  C is scaled by 2^-k, with 2^k
    the binary order of its largest entry, before the cofactors are taken:
    the scaling is exact, and the cubes in the determinant cannot overflow.
    """
    C = plane_strain_stiffness(mp, frame)
    k = math.frexp(np.abs(C).max())[1]
    (c11, c12, c13), (_, c22, c23), (_, _, c33) = np.ldexp(C, -k)
    det = (
        c11 * (c22 * c33 - c23**2)
        - c12 * (c12 * c33 - c13 * c23)
        + c13 * (c12 * c23 - c13 * c22)
    )
    scale = math.ldexp(
        abs(mp.lam) + 2.0 * mp.mu_t + abs(mp.alpha) + abs(mp.beta) + abs(mp.gamma), -k
    ) ** 3
    if abs(det) <= 1e-14 * scale:
        raise SingularStiffness(f"plane-strain stiffness determinant {det} * 2**{3 * k} ~ 0")

    S = np.empty((3, 3))
    S[0, 0] = c22 * c33 - c23**2
    S[0, 1] = S[1, 0] = c13 * c23 - c12 * c33
    S[0, 2] = S[2, 0] = c12 * c23 - c13 * c22
    S[1, 1] = c11 * c33 - c13**2
    S[1, 2] = S[2, 1] = c12 * c13 - c11 * c23
    S[2, 2] = c11 * c22 - c12**2
    return np.ldexp(S / det, -k)


def error_bound_constant(mp):
    """Scaled a-priori error constant (max(lam, 2 mu_t) + alpha + beta + gamma)/mu_t.

    The generic multiplicative constant is normalized to 1; only the
    dependence on the material parameters is meaningful.
    """
    if not mp.mu_t > 0.0:
        raise ValueError("mu_t must be positive")
    return (max(mp.lam, 2.0 * mp.mu_t) + mp.alpha + mp.beta + mp.gamma) / mp.mu_t
