import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tifem import (
    DegenerateDenominator,
    EngineeringConstants,
    FibreFrame,
    FormulationVariant,
    MaterialParameters,
    ParameterOverflow,
    SingularStiffness,
    StabilityVerdict,
    check_stability,
    compliance_matrix_e3,
    assemble,
    derive_parameters,
    element_stiffness,
    error_bound_constant,
    p0_projected_term,
    plane_strain_compliance,
    plane_strain_stiffness,
    rectangle_mesh,
    stiffness_apply,
    stiffness_matrix_e3,
)
from tifem.material import ALL_CONDITIONS
from conftest import sample_admissible

E3 = FibreFrame((0.0, 0.0, 1.0))


class TestEngineeringConstants:
    def test_positional_and_keyword_construction(self):
        ec = EngineeringConstants(2.0, 3.0, 1.5, 0.25, 0.1)
        assert ec == EngineeringConstants(E_t=2.0, p=3.0, q=1.5, nu_t=0.25, nu_l=0.1)
        assert (ec.E_t, ec.p, ec.q, ec.nu_t, ec.nu_l) == (2.0, 3.0, 1.5, 0.25, 0.1)

    @pytest.mark.parametrize("name", ["E_t", "p", "q", "nu_t", "nu_l"])
    def test_fields_cannot_be_assigned(self, name):
        ec = EngineeringConstants(2.0, 3.0, 1.5, 0.25, 0.1)
        with pytest.raises(AttributeError):
            setattr(ec, name, 7.0)
        assert getattr(ec, name) != 7.0

    def test_equal_and_hashed_by_value(self):
        a = EngineeringConstants(2.0, 3.0, 1.5, 0.25, 0.1)
        b = EngineeringConstants(2.0, 3.0, 1.5, 0.25, 0.1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != EngineeringConstants(2.0, 3.0, 1.5, 0.25, 0.2)

    def test_derived_moduli(self):
        ec = EngineeringConstants(E_t=2.0, p=3.0, q=1.5, nu_t=0.25, nu_l=0.1)
        assert ec.E_l == 3.0 * 2.0
        assert ec.mu_t == 2.0 / (2.0 * 1.25)
        assert ec.mu_l == 1.5 * ec.mu_t


class TestDeriveParameters:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.49995])
    def test_isotropic_reduction(self, nu):
        ec = EngineeringConstants(1.0, 1.0, 1.0, nu, nu)
        mp = derive_parameters(ec)
        assert abs(mp.alpha) < 1e-12
        assert abs(mp.beta) < 1e-12
        assert mp.gamma == 0.0
        lam_ref = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        assert mp.lam == pytest.approx(lam_ref, rel=1e-12, abs=1e-15)
        assert mp.mu_t == pytest.approx(1.0 / (2.0 * (1.0 + nu)))

    def test_zero_poisson(self):
        mp = derive_parameters(EngineeringConstants(1.0, 1.0, 1.0, 0.0, 0.0))
        assert mp.lam == 0.0
        assert mp.alpha == 0.0
        assert mp.beta == 0.0
        assert mp.mu_t == 0.5
        assert mp.mu_l == 0.5

    def test_against_compliance_inverse(self):
        # independent oracle: numerically invert the 6x6 compliance matrix
        # and read the coefficients off the e3-aligned stiffness pattern
        ec = EngineeringConstants(250.0, 3.0, 1.0, 0.49995, 0.49995)
        mp = derive_parameters(ec)
        C = np.linalg.inv(compliance_matrix_e3(ec))
        lam = C[0, 1]
        mu_t = (C[0, 0] - lam) / 2.0
        alpha = C[0, 2] - lam
        gamma = 2.0 * (C[3, 3] - C[5, 5])
        beta = C[2, 2] - lam - 2.0 * mu_t - 2.0 * alpha - 2.0 * gamma
        assert mp.lam == pytest.approx(lam, rel=1e-10)
        assert mp.mu_t == pytest.approx(mu_t, rel=1e-10)
        assert mp.alpha == pytest.approx(alpha, rel=1e-10)
        assert mp.beta == pytest.approx(beta, rel=1e-10, abs=1e-8)

    def test_gamma_consistency(self, rng):
        for _ in range(50):
            ec = sample_admissible(rng)
            mp = derive_parameters(ec)
            assert mp.gamma == 2.0 * (mp.mu_l - mp.mu_t)

    def test_degenerate_denominator(self):
        # (1 - nu_t) p = 2 nu_l^2 puts the shared denominator at zero
        with pytest.raises(DegenerateDenominator):
            derive_parameters(EngineeringConstants(1.0, 1.0, 1.0, 0.5, 0.5))

    def test_nu_t_minus_one_is_degenerate(self):
        # 1 + nu_t is a factor of the shared denominator (and of mu_t's)
        with pytest.raises(DegenerateDenominator):
            derive_parameters(EngineeringConstants(1.0, 2.0, 1.0, -1.0, 0.3))

    @pytest.mark.parametrize("p,nu_l", [(2.0, 1e200), (1e200, 0.3)])
    def test_overflow_is_a_value_error(self, p, nu_l):
        with pytest.raises(ParameterOverflow):
            derive_parameters(EngineeringConstants(1.0, p, 1.0, 0.3, nu_l))
        assert issubclass(ParameterOverflow, ValueError)


class TestStability:
    def test_near_boundary_examples(self):
        assert check_stability(EngineeringConstants(1.0, 1.0, 1.0, 0.5, 0.49)).admissible
        verdict = check_stability(EngineeringConstants(1.0, 1.0, 1.0, 0.5, 0.51))
        assert not verdict.admissible
        assert "discriminant" in verdict.violated

    def test_moderate_anisotropy(self):
        verdict = check_stability(EngineeringConstants(1.0, 2.0, 1.0, 0.3, 0.3))
        assert verdict.admissible
        # the two algebraic conditions evaluated by hand
        assert (2 * 0.3 + 1) * 2 - (2 * 0.3 + 1) == pytest.approx(1.6)
        assert (1 - 0.3) * 2 - 2 * 0.3**2 == pytest.approx(1.22)

    def test_overflowing_nu_l_violates_the_denominator(self):
        verdict = check_stability(EngineeringConstants(1.0, 2.0, 1.0, 0.3, 1e200))
        assert verdict.violated == ("discriminant", "denominator")

    def test_nan_input(self):
        verdict = check_stability(EngineeringConstants(1.0, float("nan"), 1.0, 0.3, 0.3))
        assert not verdict.admissible
        assert len(verdict.violated) == 5

    @pytest.mark.parametrize(
        "ec,violated",
        [
            (EngineeringConstants(1.0, 2.0, 1.0, -1.0, 0.3), ("nu_t_bound", "discriminant")),
            (EngineeringConstants(1.0, 2.0, 1.0, -1.5, 0.3),
             ("shear_ordering", "nu_t_bound", "discriminant")),
            (EngineeringConstants(-1.0, 2.0, 1.0, 0.3, 0.3), ("shear_ordering",)),
            (EngineeringConstants(0.0, 2.0, 1.0, 0.3, 0.3), ("shear_ordering",)),
            (EngineeringConstants(1.0, 2.0, 0.5, 0.3, 0.3), ("shear_ordering",)),
            (EngineeringConstants(1.0, 0.0, 1.0, 0.3, 0.3),
             ("p_positive", "discriminant", "denominator")),
            (EngineeringConstants(1.0, -1.0, 1.0, 0.3, 0.3),
             ("p_positive", "discriminant", "denominator")),
        ],
        ids=["nu_t=-1", "nu_t<-1", "E_t<0", "E_t=0", "q<1", "p=0", "p<0"],
    )
    def test_violated_at_the_edges(self, ec, violated):
        verdict = check_stability(ec)
        assert verdict.violated == violated
        assert not verdict.admissible

    def test_scale_invariance(self, rng):
        for _ in range(20):
            ec = sample_admissible(rng)
            scaled = EngineeringConstants(7.5 * ec.E_t, ec.p, ec.q, ec.nu_t, ec.nu_l)
            assert check_stability(ec).violated == check_stability(scaled).violated

    def test_pointwise_stability_random_strains(self, rng):
        for _ in range(5):
            ec = sample_admissible(rng)
            mp = derive_parameters(ec)
            for _ in range(1000):
                e = rng.normal(size=(3, 3))
                e = 0.5 * (e + e.T)
                if np.all(e == 0.0):
                    continue
                energy = float(np.tensordot(e, stiffness_apply(mp, E3, e)))
                assert energy > 0.0


def list_form_violated(ec, square=lambda x: x**2):
    """check_stability as it was before the verdict table, kept as the oracle."""
    vals = (ec.E_t, ec.p, ec.q, ec.nu_t, ec.nu_l)
    if any(math.isnan(v) for v in vals):
        return ALL_CONDITIONS

    violated = []
    if not ec.p > 0.0:
        violated.append("p_positive")
    mu_t = ec.mu_t if ec.nu_t != -1.0 else math.inf
    if not (ec.q * mu_t >= mu_t > 0.0):
        violated.append("shear_ordering")
    if not ec.nu_t > -1.0:
        violated.append("nu_t_bound")
    if not (2.0 * ec.nu_t + 1.0) * ec.p - (2.0 * ec.nu_l + 1.0) > 0.0:
        violated.append("discriminant")
    if not (1.0 - ec.nu_t) * ec.p - 2.0 * square(ec.nu_l) > 0.0:
        violated.append("denominator")
    return tuple(violated)


# Any float, with NaN, the infinities, both zeros and nu_t = -1 drawn often.
any_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 0.5]),
    st.floats(),
)


class TestVerdictTable:
    @settings(max_examples=300, derandomize=True, database=None)
    @given(E_t=any_float, p=any_float, q=any_float, nu_t=any_float, nu_l=any_float)
    def test_matches_the_list_form(self, E_t, p, q, nu_t, nu_l):
        ec = EngineeringConstants(E_t, p, q, nu_t, nu_l)
        try:
            expected = StabilityVerdict(list_form_violated(ec))
        except OverflowError:
            # nu_l**2 past the float range counts as +inf
            expected = StabilityVerdict(list_form_violated(ec, square=lambda x: math.inf))
            assert "denominator" in expected.violated
        verdict = check_stability(ec)
        assert verdict == expected
        assert hash(verdict) == hash(expected)
        assert verdict.admissible == (not verdict.violated)

    @settings(max_examples=300, derandomize=True, database=None)
    @given(E_t=any_float, p=any_float, q=any_float, nu_t=any_float, nu_l=any_float)
    @example(E_t=1.0, p=math.nan, q=1.0, nu_t=0.3, nu_l=0.3)
    @example(E_t=1.0, p=math.inf, q=-math.inf, nu_t=0.3, nu_l=0.3)
    @example(E_t=1.0, p=2.0, q=1.0, nu_t=-1.0, nu_l=-1.0)
    @example(E_t=1.0, p=2.0, q=1.0, nu_t=1e200, nu_l=1e200)
    def test_plain_sequence_gives_the_same_verdict(self, E_t, p, q, nu_t, nu_l):
        # the stability scan passes plain tuples in field order
        ec = EngineeringConstants(E_t, p, q, nu_t, nu_l)
        verdict = check_stability(ec)
        assert check_stability(tuple(ec)) is verdict
        assert check_stability(list(ec)) is verdict

    def test_verdicts_are_shared(self):
        a = check_stability(EngineeringConstants(1.0, 2.0, 1.0, 0.3, 0.3))
        b = check_stability(EngineeringConstants(5.0, 3.0, 1.5, 0.2, 0.1))
        assert a.admissible and a is b


class TestStiffnessApply:
    def test_zero_strain(self):
        mp = derive_parameters(EngineeringConstants(10.0, 2.0, 1.5, 0.2, 0.1))
        sigma = stiffness_apply(mp, E3, np.zeros((3, 3)))
        assert np.all(sigma == 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_isotropic_identity_strain(self, d):
        mp = MaterialParameters(lam=2.0, mu_t=1.5, mu_l=1.5, alpha=0.0, beta=0.0)
        frame = FibreFrame((1.0, 0.0)) if d == 2 else E3
        sigma = stiffness_apply(mp, frame, np.eye(d))
        assert np.allclose(sigma, (d * 2.0 + 2 * 1.5) * np.eye(d))

    def test_e3_fibre_strain(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        e = np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        sigma = stiffness_apply(mp, E3, e)
        s33 = mp.lam + 2 * mp.mu_t + mp.beta + 2 * mp.alpha + 2 * mp.gamma
        assert sigma[2, 2] == pytest.approx(s33, rel=1e-13)
        assert sigma[0, 0] == pytest.approx(mp.lam + mp.alpha, rel=1e-13)
        assert sigma[1, 1] == pytest.approx(mp.lam + mp.alpha, rel=1e-13)
        off = sigma - np.diag(np.diag(sigma))
        assert np.allclose(off, 0.0)

    def test_fibre_sign_symmetry(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        for _ in range(10):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            e = rng.normal(size=(3, 3))
            e = 0.5 * (e + e.T)
            s_plus = stiffness_apply(mp, FibreFrame(tuple(a)), e)
            s_minus = stiffness_apply(mp, FibreFrame(tuple(-a)), e)
            assert np.allclose(s_plus, s_minus, rtol=0, atol=1e-12 * np.abs(s_plus).max())


class TestVoigtMatrices:
    def test_isotropic_matrix(self):
        mp = MaterialParameters(lam=2.0, mu_t=1.5, mu_l=1.5, alpha=0.0, beta=0.0)
        C = stiffness_matrix_e3(mp)
        expected = np.array(
            [
                [5, 2, 2, 0, 0, 0],
                [2, 5, 2, 0, 0, 0],
                [2, 2, 5, 0, 0, 0],
                [0, 0, 0, 1.5, 0, 0],
                [0, 0, 0, 0, 1.5, 0],
                [0, 0, 0, 0, 0, 1.5],
            ],
            dtype=float,
        )
        assert np.allclose(C, expected)

    def test_fibre_axis_entry(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        C = stiffness_matrix_e3(mp)
        assert C[2, 2] == mp.lam + 2 * mp.mu_t + mp.beta + 2 * mp.alpha + 2 * mp.gamma

    def test_positive_definite_for_admissible(self, rng):
        for _ in range(25):
            ec = sample_admissible(rng)
            C = stiffness_matrix_e3(derive_parameters(ec))
            assert np.allclose(C, C.T)
            assert np.linalg.eigvalsh(C).min() > 0.0

    def test_roundtrip_with_compliance(self, rng):
        for _ in range(50):
            ec = sample_admissible(rng)
            C = stiffness_matrix_e3(derive_parameters(ec))
            S = compliance_matrix_e3(ec)
            assert np.abs(C @ S - np.eye(6)).max() < 1e-10

    def test_uniaxial_fibre_stress(self, rng):
        ec = sample_admissible(rng)
        S = compliance_matrix_e3(ec)
        eps = S @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert eps[0] == pytest.approx(-ec.nu_l * eps[2], rel=1e-10)
        assert eps[1] == pytest.approx(-ec.nu_l * eps[2], rel=1e-10)

    def test_uniaxial_transverse_stress(self, rng):
        ec = sample_admissible(rng)
        S = compliance_matrix_e3(ec)
        eps = S @ np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert eps[2] == pytest.approx(-ec.nu_l * (ec.E_t / ec.E_l) * eps[0], rel=1e-10)


class TestPlaneStrain:
    def test_symmetry(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        S = plane_strain_compliance(mp, FibreFrame.from_angle(0.7))
        assert np.allclose(S, S.T, rtol=0, atol=0)

    def test_matches_numerical_inverse(self, rng):
        for _ in range(25):
            ec = sample_admissible(rng)
            mp = derive_parameters(ec)
            frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
            C = plane_strain_stiffness(mp, frame)
            S = plane_strain_compliance(mp, frame)
            assert np.abs(S - np.linalg.inv(C)).max() < 1e-10 * np.abs(S).max()

    def test_stiffness_consistent_with_tensor_form(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        frame = FibreFrame.from_angle(1.1)
        C = plane_strain_stiffness(mp, frame)
        for _ in range(10):
            e = rng.normal(size=(2, 2))
            e = 0.5 * (e + e.T)
            sigma = stiffness_apply(mp, frame, e)
            sv = C @ np.array([e[0, 0], e[1, 1], 2 * e[0, 1]])
            assert np.allclose(sigma, [[sv[0], sv[2]], [sv[2], sv[1]]], rtol=1e-12)

    def test_angle_pi_equals_zero(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        S0 = plane_strain_compliance(mp, FibreFrame.from_angle(0.0))
        Spi = plane_strain_compliance(mp, FibreFrame.from_angle(math.pi))
        assert np.allclose(S0, Spi, rtol=0, atol=1e-12 * np.abs(S0).max())

    @pytest.mark.parametrize("a", [(0.6, 0.0, 0.8), (0.0, 0.0, 1.0)])
    def test_out_of_plane_fibre_is_rejected(self, a):
        # the 3x3 matrix restricts the law to in-plane fibres; an out-of-plane
        # one would give entries that stiffness_apply does not
        mp = MaterialParameters(lam=2.0, mu_t=1.0, mu_l=1.5, alpha=0.7, beta=3.0)
        frame = FibreFrame(a)
        mesh = rectangle_mesh(2.0, 1.0, 2, 1)
        message = "needs an in-plane unit fibre"
        with pytest.raises(ValueError, match=message):
            plane_strain_stiffness(mp, frame)
        with pytest.raises(ValueError, match=message):
            element_stiffness(mesh.nodes[mesh.elements], mp, frame, FormulationVariant.Q1_CG)
        with pytest.raises(ValueError, match=message):
            assemble(mesh, mp, frame, FormulationVariant.Q1_CG_UI_beta)
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        with pytest.raises(ValueError, match=message):
            p0_projected_term(square, 1.0, "extensional", frame)

    @pytest.mark.parametrize("k", [-400, 0, 400])
    def test_power_of_two_scaling_is_exact(self, rng, k):
        # C -> 2^k C gives S -> 2^-k S bit for bit, also where the cubes of
        # unscaled coefficients would overflow (k = 400) or underflow (-400)
        mp = derive_parameters(sample_admissible(rng))
        scaled = MaterialParameters(*(math.ldexp(c, k) for c in astuple(mp)))
        frame = FibreFrame.from_angle(0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = plane_strain_compliance(scaled, frame)
        assert np.array_equal(S, np.ldexp(plane_strain_compliance(mp, frame), -k))

    def test_singular_stiffness_raises(self):
        mp = MaterialParameters(lam=0.0, mu_t=0.0, mu_l=0.0, alpha=0.0, beta=0.0)
        with pytest.raises((SingularStiffness, ZeroDivisionError)):
            plane_strain_compliance(mp, FibreFrame.from_angle(0.0))


class TestErrorBoundConstant:
    def test_isotropic_large_lambda(self):
        mp = MaterialParameters(lam=5.0, mu_t=1.0, mu_l=1.0, alpha=0.0, beta=0.0)
        assert error_bound_constant(mp) == 5.0

    def test_decreases_away_from_isotropy(self):
        def c1(p):
            ec = EngineeringConstants(1.0, p, 1.0, 0.49995, 0.49995)
            return error_bound_constant(derive_parameters(ec))

        assert c1(2.0) < c1(1.01)
        assert c1(1e6) > c1(10.0)


class TestFibreFrame:
    @pytest.mark.parametrize(
        "make",
        [lambda: FibreFrame((2.0, 0.0)), lambda: FibreFrame.from_angle(math.nan)],
        ids=["non-unit", "nan-angle"],
    )
    def test_rejects_non_unit_direction(self, make):
        with pytest.raises(ValueError):
            make()
