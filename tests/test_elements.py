import math
from dataclasses import replace

import numpy as np
import pytest

from tifem import (
    FibreFrame,
    FormulationVariant,
    MaterialParameters,
    NonPositiveJacobian,
    cook_mesh,
    derive_parameters,
    element_stiffness,
    gauss_rule,
    one_point_term,
    p0_projected_term,
    shape_functions,
)
from tifem import elements
from tifem.elements import geometry
from conftest import one_point_oracle, random_parallelogram, random_quad, sample_admissible

V = FormulationVariant


def rigid_body_modes(coords):
    n = coords.shape[0]
    modes = np.zeros((3, 2 * n))
    modes[0, 0::2] = 1.0
    modes[1, 1::2] = 1.0
    modes[2, 0::2] = -coords[:, 1]
    modes[2, 1::2] = coords[:, 0]
    return modes


def q2_coords(corners):
    """9-node coordinates on the bilinear patch spanned by 4 corners."""
    ref = np.array(
        [
            [-1, -1], [1, -1], [1, 1], [-1, 1],
            [0, -1], [1, 0], [0, 1], [-1, 0], [0, 0],
        ],
        dtype=float,
    )
    vals = np.array([shape_functions(1, xi)[0] for xi in ref])
    return vals @ corners


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_sum_to_reference_area(self, n):
        assert gauss_rule(n).weights.sum() == pytest.approx(4.0)

    def test_polynomial_exactness(self):
        rule = gauss_rule(2)
        # degree-3 monomial in each variable is integrated exactly
        val = sum(w * xi[0] ** 3 * xi[1] ** 2 for xi, w in zip(rule.points, rule.weights))
        assert val == pytest.approx(0.0, abs=1e-14)
        val = sum(w * xi[0] ** 2 * xi[1] ** 2 for xi, w in zip(rule.points, rule.weights))
        assert val == pytest.approx(4.0 / 9.0)


class TestShapeFunctions:
    def test_q1_center(self):
        vals, _ = shape_functions(1, (0.0, 0.0))
        assert np.allclose(vals, 0.25)

    @pytest.mark.parametrize("order", [1, 2])
    def test_partition_of_unity(self, order, rng):
        for _ in range(50):
            xi = rng.uniform(-1, 1, size=2)
            vals, grads = shape_functions(order, xi)
            assert vals.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_nodal_interpolation(self, order):
        ref = np.array(
            [
                [-1, -1], [1, -1], [1, 1], [-1, 1],
                [0, -1], [1, 0], [0, 1], [-1, 0], [0, 0],
            ],
            dtype=float,
        )
        n = 4 if order == 1 else 9
        for i in range(n):
            vals, _ = shape_functions(order, ref[i])
            expected = np.zeros(n)
            expected[i] = 1.0
            assert np.allclose(vals, expected, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_batched_points_equal_single_points(self, order, rng):
        pts = rng.uniform(-1, 1, size=(3, 5, 2))
        vals, grads = shape_functions(order, pts)
        n = (order + 1) ** 2
        assert vals.shape == (3, 5, n) and grads.shape == (3, 5, n, 2)
        for idx in np.ndindex(3, 5):
            v, g = shape_functions(order, tuple(pts[idx]))
            assert np.array_equal(vals[idx], v) and np.array_equal(grads[idx], g)

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            shape_functions(3, (0.0, 0.0))

    @pytest.mark.parametrize("order", [1, 2])
    def test_gradients_match_finite_differences(self, order, rng):
        step = 1e-6
        for _ in range(10):
            xi = rng.uniform(-0.9, 0.9, size=2)
            _, grads = shape_functions(order, xi)
            for d in range(2):
                lo, hi = np.array(xi), np.array(xi)
                lo[d] -= step
                hi[d] += step
                fd = (shape_functions(order, hi)[0] - shape_functions(order, lo)[0]) / (2 * step)
                assert np.abs(grads[:, d] - fd).max() < 1e-8


class TestGeometry:
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_the_einsum_and_inverse_form(self, order, rng):
        # random distorted quads; the Q2 ones also get curved edges
        coords = np.array([random_quad(rng) for _ in range(20)])
        if order == 2:
            coords = np.array([q2_coords(c) for c in coords])
            coords += rng.uniform(-0.03, 0.03, size=coords.shape)
        for n_gauss in (order + 1, order + 2):
            rule = gauss_rule(n_gauss)
            vals, grads = shape_functions(order, rule.points)
            J = np.einsum("eni,qnj->eqij", coords, grads)
            dN = grads @ np.linalg.inv(J)
            wdet = rule.weights * np.linalg.det(J)
            got = geometry(coords, order, n_gauss)
            for g, want in zip(got, (vals, dN, wdet)):
                assert g.shape == want.shape
                assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()

    def test_non_convex_q1_quad_is_rejected(self):
        coords = np.array([[(0.0, 0.0), (1.0, 0.0), (0.4, 0.4), (0.0, 1.0)]])
        # det J is positive at the 2x2 Gauss points and negative at corner 2
        _, grads = shape_functions(1, gauss_rule(2).points)
        assert np.all(np.linalg.det(np.einsum("ni,qnj->qij", coords[0], grads)) > 0)
        message = r"^element 0: det J = -0\.0499\d* at \[1\.0, 1\.0\]$"
        with pytest.raises(NonPositiveJacobian, match=message):
            geometry(coords, 1, 2)
        mp = MaterialParameters(lam=2.0, mu_t=1.0, mu_l=1.0, alpha=0.0, beta=0.0)
        for variant in (V.Q1_CG, V.Q1_CG_UI_betalambda):
            with pytest.raises(NonPositiveJacobian):
                element_stiffness(coords[0], mp, FibreFrame.from_angle(0.0), variant)


def matmul_moments(coords, order):
    """The full and reduced moments as one (n, q) @ (q, n) and one (n, 1) @
    (1, n) product per element and block jl = 00, 01, 11, stacked: the
    formulas that elements.moments computes into one array."""
    _, dN, wdet = geometry(coords, order, order + 1)
    blocks = ((0, 0), (0, 1), (1, 1))
    wdN = np.swapaxes(wdet[..., None, None] * dN, 1, 3)
    full = np.stack([wdN[:, j] @ dN[..., l] for j, l in blocks])
    g = np.sum(wdet[..., None, None] * dN, axis=1, keepdims=True)
    wg = np.swapaxes(1.0 / wdet.sum(axis=1, keepdims=True)[..., None, None] * g, 1, 3)
    return full, np.stack([wg[:, j] @ g[..., l] for j, l in blocks])


class TestMoments:
    @pytest.mark.parametrize("n, order", [(16, 1), (128, 1), (16, 2), (64, 2)])
    def test_equal_the_matmul_formulas_bit_for_bit(self, n, order):
        mesh = cook_mesh(n, order)
        coords = mesh.nodes[mesh.elements]
        got = elements.moments(coords, order)
        full, reduced = matmul_moments(coords, order)
        assert len(got) == (2 if order == 1 else 1)
        assert got[0].tobytes() == full.tobytes()
        if order == 1:
            assert got[1].tobytes() == reduced.tobytes()

    def test_equal_the_matmul_formulas_on_distorted_elements(self, rng):
        coords = np.array([random_quad(rng) for _ in range(50)])
        q2 = np.array([q2_coords(c) for c in coords])
        q2 += rng.uniform(-0.03, 0.03, size=q2.shape)
        for order, c in ((1, coords), (2, q2)):
            got = elements.moments(c, order)
            for g, want in zip(got, matmul_moments(c, order)):
                assert g.shape == want.shape and g.tobytes() == want.tobytes()


class TestElementStiffness:
    @pytest.mark.parametrize("variant", list(V))
    def test_symmetry_and_rigid_body_modes(self, variant, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
        corners = random_quad(rng, scale=2.0)
        coords = corners if variant.order == 1 else q2_coords(corners)
        K = element_stiffness(coords, mp, frame, variant)
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()
        for mode in rigid_body_modes(coords):
            assert np.abs(K @ mode).max() < 1e-10 * np.abs(K).max()

    @pytest.mark.parametrize("variant", list(V))
    def test_no_hourglass_modes(self, variant, rng):
        # The rigid modes are in the null space (test above); exactly three
        # eigenvalues at roundoff level means nothing else is.  Roundoff sits
        # near 1e-16 of the largest |eigenvalue| and the smallest elastic one
        # above 1e-5 of it, so 1e-10 is clear of both.  The count is of
        # magnitudes: a reduced variant's stiffness can be indefinite when the
        # material matrix with the reduced coefficient zeroed is.
        for _ in range(20):
            mp = derive_parameters(sample_admissible(rng))
            frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
            corners = random_quad(rng, scale=2.0)
            coords = corners if variant.order == 1 else q2_coords(corners)
            magnitudes = np.abs(np.linalg.eigvalsh(element_stiffness(coords, mp, frame, variant)))
            assert np.count_nonzero(magnitudes < 1e-10 * magnitudes.max()) == 3

    def test_mixed_equals_underintegrated_on_parallelogram(self, rng):
        for _ in range(10):
            ec = sample_admissible(rng)
            mp = derive_parameters(ec)
            frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
            coords = random_parallelogram(rng)
            K_ui = element_stiffness(coords, mp, frame, V.Q1_CG_UI_beta)
            K_mx = element_stiffness(coords, mp, frame, V.Q1_MIXED_P0_beta)
            assert np.abs(K_ui - K_mx).max() <= 1e-12 * np.abs(K_ui).max()
        # general convex quads and every element of a distorted mesh, batched;
        # the oracle is the UI form with its one-point rule written out
        cook = cook_mesh(16, 1)
        for coords in [random_quad(rng) for _ in range(10)] + [cook.nodes[cook.elements]]:
            mp = derive_parameters(sample_admissible(rng))
            frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
            a1, a2 = frame.vec
            selector = np.array([a1 * a1, a2 * a2, a1 * a2])
            K_ui = element_stiffness(coords, mp, frame, V.Q1_CG_UI_beta)
            K_mx = element_stiffness(coords, mp, frame, V.Q1_MIXED_P0_beta)
            K_1p = element_stiffness(coords, replace(mp, beta=0.0), frame, V.Q1_CG)
            K_1p = K_1p + mp.beta * one_point_oracle(coords, selector)
            scale = np.abs(K_ui).max(axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(K_ui - K_mx) <= 1e-12 * scale)
            assert np.all(np.abs(K_1p - K_mx) <= 1e-12 * scale)

    @pytest.mark.parametrize("variant", list(V))
    def test_one_geometry_call_per_kernel_call(self, variant, rng, monkeypatch):
        calls = []
        real = elements.geometry
        monkeypatch.setattr(elements, "geometry", lambda *a: calls.append(a) or real(*a))
        mp = derive_parameters(sample_admissible(rng))
        corners = np.stack([random_quad(rng) for _ in range(3)])
        coords = corners if variant.order == 1 else np.stack([q2_coords(c) for c in corners])
        element_stiffness(coords, mp, FibreFrame.from_angle(0.5), variant)
        assert len(calls) == 1

    def test_underintegration_noop_when_beta_zero(self, rng):
        mp = MaterialParameters(lam=2.0, mu_t=1.0, mu_l=1.0, alpha=0.0, beta=0.0)
        frame = FibreFrame.from_angle(0.4)
        coords = random_quad(rng)
        K_full = element_stiffness(coords, mp, frame, V.Q1_CG)
        K_ui = element_stiffness(coords, mp, frame, V.Q1_CG_UI_beta)
        assert np.array_equal(K_full, K_ui)

    def test_underintegration_noop_when_lambda_zero(self, rng):
        mp = MaterialParameters(lam=0.0, mu_t=1.0, mu_l=1.3, alpha=0.2, beta=0.7)
        frame = FibreFrame.from_angle(1.0)
        coords = random_quad(rng)
        K_full = element_stiffness(coords, mp, frame, V.Q1_CG)
        K_ui = element_stiffness(coords, mp, frame, V.Q1_CG_UI_lambda)
        assert np.array_equal(K_full, K_ui)

    def test_frame_invariance(self, rng):
        # rotating geometry and fibre together preserves strain energy
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        angle = 0.6
        theta = rng.uniform(0, 2 * math.pi)
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        coords = random_quad(rng)
        u = rng.normal(size=8)
        K = element_stiffness(coords, mp, FibreFrame.from_angle(angle), V.Q1_CG)
        K_rot = element_stiffness(
            coords @ R.T, mp, FibreFrame.from_angle(angle + theta), V.Q1_CG
        )
        u_rot = (R @ u.reshape(4, 2).T).T.ravel()
        e = u @ K @ u
        e_rot = u_rot @ K_rot @ u_rot
        assert e_rot == pytest.approx(e, rel=1e-10)

    def test_inverted_element_raises(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])  # clockwise
        mp = MaterialParameters(lam=1.0, mu_t=1.0, mu_l=1.0, alpha=0.0, beta=0.0)
        with pytest.raises(NonPositiveJacobian):
            element_stiffness(coords, mp, FibreFrame.from_angle(0.0), V.Q1_CG)

    def test_wrong_node_count(self):
        coords = np.zeros((4, 2))
        mp = MaterialParameters(lam=1.0, mu_t=1.0, mu_l=1.0, alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            element_stiffness(coords, mp, FibreFrame.from_angle(0.0), V.Q2_CG)


class TestP0Projection:
    def test_matches_one_point_on_parallelogram(self, rng):
        for which in ("volumetric", "extensional"):
            frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
            a1, a2 = frame.vec
            selector = {"volumetric": np.array([1.0, 1.0, 0.0]),
                        "extensional": np.array([a1 * a1, a2 * a2, a1 * a2])}[which]
            coords = random_parallelogram(rng)
            K_oracle = 3.7 * one_point_oracle(coords, selector)
            K = p0_projected_term(coords, 3.7, which, frame)
            assert np.abs(K - K_oracle).max() <= 1e-12 * max(np.abs(K_oracle).max(), 1.0)

    def test_identity_on_constant_divergence_field(self, rng):
        # u = (x, 0) has unit divergence everywhere; the projection is a
        # no-op, so the projected energy equals coefficient * element area
        coords = random_quad(rng)
        u = np.zeros(8)
        u[0::2] = coords[:, 0]
        K = p0_projected_term(coords, 2.5, "volumetric")
        rule = gauss_rule(2)
        area = 0.0
        for xi, w in zip(rule.points, rule.weights):
            _, grads = shape_functions(1, xi)
            J = coords.T @ grads
            area += w * (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
        assert u @ K @ u == pytest.approx(2.5 * area, rel=1e-12)

    def test_general_quad_against_high_order_oracle(self, rng):
        # oracle: 5x5 Gauss applied to the projected integrand
        for _ in range(5):
            frame = FibreFrame.from_angle(rng.uniform(0, math.pi))
            coords = random_quad(rng)
            a1, a2 = frame.vec
            selector = np.array([a1 * a1, a2 * a2, a1 * a2])
            rule = gauss_rule(5)
            g = np.zeros(8)
            area = 0.0
            for xi, w in zip(rule.points, rule.weights):
                vals, grads = shape_functions(1, xi)
                J = coords.T @ grads
                detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
                dN = grads @ np.linalg.inv(J)
                B = np.zeros((3, 8))
                B[0, 0::2] = dN[:, 0]
                B[1, 1::2] = dN[:, 1]
                B[2, 0::2] = dN[:, 1]
                B[2, 1::2] = dN[:, 0]
                g += w * detJ * (B.T @ selector)
                area += w * detJ
            K_oracle = 1.9 * np.outer(g, g) / area
            K = p0_projected_term(coords, 1.9, "extensional", frame)
            assert np.abs(K - K_oracle).max() <= 1e-12 * max(np.abs(K).max(), 1.0)
            # the one-point rule gives the same matrix on a general quad
            K_1p_oracle = 1.9 * one_point_oracle(coords, selector)
            assert np.abs(K - K_1p_oracle).max() <= 1e-12 * max(np.abs(K).max(), 1.0)

    def test_rejects_bad_selector(self, rng):
        with pytest.raises(ValueError, match="unknown term selector 'shear'"):
            p0_projected_term(random_quad(rng), 1.0, "shear")

    # one_point_term is the exported alias of p0_projected_term
    @pytest.mark.parametrize("term", [p0_projected_term, one_point_term],
                             ids=["p0_projected_term", "one_point_term"])
    def test_extensional_term_needs_a_frame(self, term, rng):
        with pytest.raises(ValueError, match="needs a fibre frame"):
            term(random_quad(rng), 1.0, "extensional")
