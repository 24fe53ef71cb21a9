import ast
import math
import tracemalloc
from dataclasses import replace
from functools import reduce
from operator import getitem
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from tifem import (
    BeamConfig,
    CookConfig,
    FibreFrame,
    FormulationVariant,
    IndefiniteSystem,
    LinearSystem,
    MaterialParameters,
    NonPositiveJacobian,
    SingularSystem,
    UnknownBoundaryTag,
    apply_dirichlet,
    assemble,
    cook_mesh,
    derive_parameters,
    element_stiffness,
    h1_error,
    rectangle_mesh,
    run_beam,
    run_cook,
    solve,
)
from tifem import EngineeringConstants, FieldSolution, gauss_rule, shape_functions
import tifem.assembly
import tifem.benchmarks
import tifem.elements
import tifem.material
from tifem.assembly import _at_points, _norm_inf, _pattern, eliminate
from tifem.elements import _BLOCK, element_chunks, gradient_coefficients, stiffness_blocks
from conftest import dense, distorted_cook_mesh, sample_admissible, scipy_csr

V = FormulationVariant

MP_ISO = MaterialParameters(lam=2.0, mu_t=1.0, mu_l=1.0, alpha=0.0, beta=0.0)
FRAME0 = FibreFrame.from_angle(0.0)


def system_of(K, load):
    """A system whose K_FF is the hand matrix K: K on the first dofs of a
    one-element Q1 mesh, whose 8 x 8 pattern is dense, the other dofs held at 0.
    K must be symmetric, as every assembled K is bit for bit: solve reads
    K_FF's column j from K's row j."""
    mesh = rectangle_mesh(1.0, 1.0, 1, 1)
    k = len(K)
    full = np.zeros((8, 8))
    full[:k, :k] = K
    pattern = _pattern(mesh)
    rows = np.repeat(np.arange(8), np.diff(pattern.indptr))
    system = LinearSystem(full[rows, pattern.indices], np.concatenate([load, np.zeros(8 - k)]),
                          mesh, V.Q1_CG, FRAME0)
    system.constrained.update(dict.fromkeys(range(k, 8), 0.0))
    return system


class TestAssemble:
    def test_single_element_equals_element_matrix(self, rng):
        mesh = rectangle_mesh(2.0, 1.0, 1, 1, order=1)
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        frame = FibreFrame.from_angle(0.3)
        system = assemble(mesh, mp, frame, V.Q1_CG)
        Ke = element_stiffness(mesh.nodes[mesh.elements[0]], mp, frame, V.Q1_CG)
        conn = mesh.elements[0]
        edofs = np.empty(8, dtype=int)
        edofs[0::2] = 2 * conn
        edofs[1::2] = 2 * conn + 1
        K = dense(system.stiffness)
        assert np.allclose(K[np.ix_(edofs, edofs)], Ke)

    def test_two_element_hand_scatter(self):
        # independent bookkeeping: scatter the two element matrices by hand
        mesh = rectangle_mesh(2.0, 1.0, 2, 1, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        K_oracle = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
        for e in range(2):
            conn = mesh.elements[e]
            Ke = element_stiffness(mesh.nodes[conn], MP_ISO, FRAME0, V.Q1_CG)
            for i_loc, i_node in enumerate(conn):
                for j_loc, j_node in enumerate(conn):
                    for ci in range(2):
                        for cj in range(2):
                            K_oracle[2 * i_node + ci, 2 * j_node + cj] += Ke[
                                2 * i_loc + ci, 2 * j_loc + cj
                            ]
        assert np.allclose(dense(system.stiffness), K_oracle)

    def test_zero_loads(self):
        mesh = rectangle_mesh(1.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        assert np.all(system.load == 0.0)

    def test_global_symmetry(self, rng):
        mesh = rectangle_mesh(2.0, 1.0, 3, 2, order=2)
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        system = assemble(mesh, mp, FibreFrame.from_angle(0.9), V.Q2_CG)
        K = dense(system.stiffness)
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()

    def test_unknown_traction_tag(self):
        mesh = rectangle_mesh(1.0, 1.0, 1, 1, order=1)
        with pytest.raises(UnknownBoundaryTag):
            assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"front": (1.0, 0.0)})

    def test_order_mismatch(self):
        mesh = rectangle_mesh(1.0, 1.0, 1, 1, order=2)
        with pytest.raises(ValueError):
            assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)

    def test_constant_traction_resultant(self):
        mesh = rectangle_mesh(2.0, 1.0, 2, 2, order=2)
        system = assemble(
            mesh, MP_ISO, FRAME0, V.Q2_CG, tractions={"right": (0.0, 3.0)}
        )
        # total vertical load equals traction * edge length
        assert system.load[1::2].sum() == pytest.approx(3.0 * 1.0, rel=1e-12)
        assert system.load[0::2].sum() == pytest.approx(0.0, abs=1e-12)

    def test_body_force_resultant(self):
        for variant in (V.Q1_CG, V.Q2_CG):
            mesh = rectangle_mesh(2.0, 1.0, 3, 2, order=variant.order)
            # constant and pointwise forces with the same resultant over [0, 2] x [-1/2, 1/2]
            for force in ((0.0, -5.0), lambda x, y: (0.0, -5.0 * x)):
                system = assemble(mesh, MP_ISO, FRAME0, variant, body_force=force)
                assert system.load[1::2].sum() == pytest.approx(-5.0 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("variant", list(V))
    def test_hand_scatter_on_distorted_mesh(self, variant, rng):
        mesh = cook_mesh(3, variant.order)
        mp = derive_parameters(sample_admissible(rng))
        frame = FibreFrame.from_angle(0.7)
        system = assemble(mesh, mp, frame, variant)
        K_oracle = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
        for conn in mesh.elements:
            Ke = element_stiffness(mesh.nodes[conn], mp, frame, variant)
            for i_loc, i_node in enumerate(conn):
                for j_loc, j_node in enumerate(conn):
                    K_oracle[2 * i_node : 2 * i_node + 2, 2 * j_node : 2 * j_node + 2] += Ke[
                        2 * i_loc : 2 * i_loc + 2, 2 * j_loc : 2 * j_loc + 2
                    ]
        K = dense(system.stiffness)
        assert np.abs(K - K_oracle).max() <= 1e-12 * np.abs(K_oracle).max()

    def test_inverted_element_is_named(self):
        mesh = rectangle_mesh(2.0, 2.0, 2, 2, order=1)
        mesh.elements[2] = mesh.elements[2][::-1]  # clockwise
        with pytest.raises(NonPositiveJacobian, match=r"^element 2: det J = -0\.25 "):
            assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)

    def test_inverted_element_past_the_first_chunk_is_named(self):
        # cook_mesh(16, 2) has 256 Q2 elements, two chunks of 202 and 54:
        # the first bad element is named by its index in the mesh
        mesh = cook_mesh(16, 2)
        assert len(element_chunks(*mesh.elements.shape)) == 2
        mirrored = [0, 3, 2, 1, 7, 6, 5, 4, 8]  # the same element, clockwise
        for e in (230, 250):
            mesh.elements[e] = mesh.elements[e][mirrored]
        with pytest.raises(NonPositiveJacobian) as alone:
            tifem.elements.geometry(mesh.nodes[mesh.elements[230:231]], 2, 3)
        assert str(alone.value).startswith("element 0: det J = -")
        message = "element 230" + str(alone.value).removeprefix("element 0")
        with pytest.raises(NonPositiveJacobian) as err:
            assemble(mesh, MP_ISO, FRAME0, V.Q2_CG)
        assert str(err.value) == message

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 on the way
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("n, order, element", [(4, 1, 12), (16, 2, 230)])
    def test_non_finite_node_is_refused(self, n, order, element, value):
        # a NaN det J is no det J <= 0: the first element holding the node is
        # named, on Q2 past the first of cook_mesh(16, 2)'s two chunks.  The
        # node is the element's last local node, which no earlier one holds
        mesh = cook_mesh(n, order)
        node = mesh.elements[element, -1]
        assert np.flatnonzero((mesh.elements == node).any(axis=1))[0] == element
        mesh.nodes[node] = (value, 1.0)
        variant = V.Q1_CG if order == 1 else V.Q2_CG
        with pytest.raises(NonPositiveJacobian, match=rf"^element {element}: det J = (nan|-?inf) "):
            assemble(mesh, MP_ISO, FRAME0, variant)


class TestDirichletAndSolve:
    def test_homogeneous_constraints_leave_load(self):
        mesh = rectangle_mesh(1.0, 1.0, 2, 1, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"right": (1.0, 0.0)})
        load_before = system.load.copy()
        apply_dirichlet(system, {"left": lambda x, y: (0.0, 0.0)})
        assert np.array_equal(system.load, load_before)
        assert all(system.constrained[d] == 0.0 for d in system.constrained)

    def test_all_dofs_constrained(self):
        mesh = rectangle_mesh(1.0, 1.0, 1, 1, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        apply_dirichlet(
            system, {tag: lambda x, y: (x, 2 * y) for tag in ("left", "right")}
        )
        sol = solve(system)
        assert np.allclose(sol.displacements[0::2], mesh.nodes[:, 0])
        assert np.allclose(sol.displacements[1::2], 2 * mesh.nodes[:, 1])

    @pytest.mark.parametrize("mesh, variant", [
        (rectangle_mesh(1.0, 1.0, 1, 1, order=1), V.Q1_CG),
        (rectangle_mesh(1.0, 1.0, 1, 1, order=2), V.Q2_CG),
        (cook_mesh(3, order=1), V.Q1_CG),
    ], ids=["Q1-element", "Q2-element", "distorted-Q1-mesh"])
    def test_single_element_against_dense_oracle(self, mesh, variant):
        system = assemble(mesh, MP_ISO, FRAME0, variant, tractions={"right": (2.0, 1.0)})
        apply_dirichlet(system, {"left": lambda x, y: (0.0, 0.0)})
        sol = solve(system)

        K = dense(system.stiffness)
        free = [d for d in range(system.n_dofs) if d not in system.constrained]
        u_oracle = np.zeros(system.n_dofs)
        u_oracle[free] = np.linalg.solve(K[np.ix_(free, free)], system.load[free])
        assert np.abs(sol.displacements - u_oracle).max() < 1e-12

    def test_unconstrained_system_is_singular(self):
        mesh = rectangle_mesh(1.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"right": (1.0, 0.0)})
        with pytest.raises(SingularSystem):
            solve(system)

    def test_inhomogeneous_dirichlet_moves_to_load(self):
        # prescribing u = (x, 0) on all edges of a homogeneous block must
        # reproduce the linear field in the interior
        mesh = rectangle_mesh(1.0, 1.0, 3, 3, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        apply_dirichlet(
            system,
            {tag: lambda x, y: (x, 0.0) for tag in ("left", "right", "top", "bottom")},
        )
        sol = solve(system)
        assert np.allclose(sol.displacements[0::2], mesh.nodes[:, 0], atol=1e-12)
        assert np.allclose(sol.displacements[1::2], 0.0, atol=1e-12)

    @pytest.mark.parametrize("K", [
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[1e-12, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]],
    ], ids=["zero-diagonal", "singular", "indefinite-badly-scaled"])
    def test_non_spd_input_is_rejected_or_solved(self, K):
        # solve expects SPD; anything else must raise or be solved correctly
        K = np.array(K)
        load = np.arange(1.0, K.shape[0] + 1)
        try:
            u = solve(system_of(K, load)).displacements[: K.shape[0]]
        except SingularSystem:
            return
        u_oracle = np.linalg.solve(K, load)
        assert np.abs(u - u_oracle).max() <= 1e-12 * np.abs(u_oracle).max()

    def test_hand_system_reduces_to_the_hand_matrix(self):
        # system_of must hand solve exactly K and the load
        K = np.diag([4.0, 5.0, 6.0, 7.0]) + np.diag([1.0, -1.0, 2.0], 1) + np.diag([1.0, -1.0, 2.0], -1)
        K[0, 3] = K[3, 0] = 0.5
        load = np.array([1.0, -2.0, 3.0, 0.5])
        free, u, K_ff, rhs, _ = eliminate(system_of(K, load))
        assert free.tolist() == [0, 1, 2, 3]
        assert np.array_equal(dense(K_ff), K[np.ix_(free, free)])
        assert np.array_equal(rhs, load[free])
        assert not u.any()

    def test_backward_error_norm_is_the_row_sum_norm(self):
        # largest absolute row sum 7 (row 1), largest column sum 9 (column 2)
        A = sp.csc_matrix([[1.0, 0.0, -4.0], [2.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
        assert spla.norm(A, 1) == 9.0
        assert _norm_inf(A) == pytest.approx(spla.norm(A, np.inf), rel=1e-15, abs=0.0)
        assert _norm_inf(A) == 7.0

    def test_single_pinned_node_is_singular(self):
        mesh = rectangle_mesh(2.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"right": (1.0, 0.5)})
        apply_dirichlet(system, node_constraints=[(0, 0, 0.0), (0, 1, 0.0)])
        with pytest.raises(SingularSystem):
            solve(system)

    @pytest.mark.parametrize("load, left", [
        ((np.nan, 0.0), (0.0, 0.0)),
        ((1.0, 0.0), (np.nan, 0.0)),
    ], ids=["nan-load", "nan-dirichlet"])
    def test_non_finite_data_is_rejected(self, load, left):
        # NaN in f_F or in u_C reaches the right-hand side f_F - K_F u
        mesh = rectangle_mesh(2.0, 1.0, 2, 1, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"right": load})
        apply_dirichlet(system, {"left": left})
        with pytest.raises(SingularSystem, match="^solver produced non-finite values$"):
            solve(system)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("term", ["lam", "beta", "mu_t"])
    def test_non_finite_stiffness_is_rejected(self, term, bad):
        # with nonzero prescribed values, so that K u is formed
        mesh = rectangle_mesh(2.0, 1.0, 3, 2, order=1)
        mp = replace(derive_parameters(EngineeringConstants(250.0, 3.0, 1.0, 0.3, 0.3)),
                     **{term: bad})
        with np.errstate(invalid="ignore"):
            system = assemble(mesh, mp, FibreFrame.from_angle(0.3), V.Q1_CG)
            apply_dirichlet(system, {"left": (0.0, 0.0), "right": (0.1, None)})
            with pytest.raises(SingularSystem):
                solve(system)

    @pytest.mark.parametrize("variant", list(V))
    @pytest.mark.parametrize("p, nu", [(1.0001, 0.49995), (1e5, 0.49999)])
    def test_distorted_mesh_against_dense_oracle(self, variant, p, nu):
        mesh = cook_mesh(3, variant.order)
        mp = derive_parameters(EngineeringConstants(250.0, p, 1.0, nu, nu))
        system = assemble(mesh, mp, FibreFrame.from_angle(math.pi / 3), variant,
                          tractions={"right": (0.0, 6.25)})
        apply_dirichlet(system, {"left": lambda x, y: (0.0, 0.0)})
        sol = solve(system)
        free = np.setdiff1d(np.arange(system.n_dofs), list(system.constrained))
        K_ff = dense(system.stiffness)[np.ix_(free, free)]
        u_oracle = np.linalg.solve(K_ff, system.load[free])
        # Both solves are backward stable, so each is accurate only to about
        # eps * cond(K_ff); at p = 1e5 that is up to 8e-9 here, and the dense
        # solve alone then misses the exact answer by more than 1e-10.
        tol = np.finfo(float).eps * np.linalg.cond(K_ff)
        dev = np.linalg.norm(sol.displacements[free] - u_oracle)
        assert dev <= tol * np.linalg.norm(u_oracle)

    def test_dissection_fills_less_than_minimum_degree(self):
        # the Q2 n=64 Cook panel: the ordered factors of the K_ff that solve
        # factorises against those of SuperLU's minimum-degree ordering of
        # K + K^T on the same matrix
        mp = derive_parameters(EngineeringConstants(250.0, 1e4, 1.0, 0.3, 0.3))
        system = assemble(cook_mesh(64, 2), mp, FRAME0, V.Q2_CG, tractions={"right": (0.0, 6.25)})
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        solve(system)
        K_ff = eliminate(system).K_ff
        K_ff = sp.csc_matrix(K_ff, shape=(K_ff.indptr.size - 1,) * 2)

        def fill(permc_spec):
            lu = spla.splu(K_ff, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            return lu.L.nnz + lu.U.nnz

        assert fill("NATURAL") < fill("MMD_AT_PLUS_A")

    def test_solver_determinism(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        mesh = rectangle_mesh(2.0, 1.0, 6, 3, order=1)
        results = []
        for _ in range(2):
            system = assemble(
                mesh, mp, FibreFrame.from_angle(0.7), V.Q1_CG,
                tractions={"right": (0.5, 1.5)},
            )
            apply_dirichlet(system, {"left": lambda x, y: (0.0, 0.0)})
            results.append(solve(system).displacements.tobytes())
        assert results[0] == results[1]


def one_shot_data(mesh, mp, frame, variant):
    """K's values as one bincount of all of the mesh's element matrices over
    their slots, the moments and element matrices each made for all
    elements at once: assembly without element chunks."""
    E, n = mesh.elements.shape
    with mock.patch.object(tifem.elements, "_BLOCK", E * (2 * n) ** 2):  # one chunk
        sets = tifem.elements.moments(mesh.nodes[mesh.elements], mesh.order)
    Ke = stiffness_blocks(gradient_coefficients(mp, frame, variant), *sets)
    pattern = _pattern(mesh)
    return np.bincount(pattern.slots(0, E).ravel(), Ke.ravel(), pattern.indices.size)


class TestChunkedAssembly:
    """assemble runs over chunks of elements whose matrices hold about
    _BLOCK entries, and gives the bits of assembling them all at once."""

    @pytest.mark.parametrize("variant", list(V))
    def test_equals_the_one_shot_bincount_bit_for_bit(self, variant, rng):
        # 2304 Q1 elements in three chunks of 1024, 576 Q2 in three of 202
        n = 48 if variant.order == 1 else 24
        mesh = distorted_cook_mesh(n, variant.order, rng)
        assert len(element_chunks(*mesh.elements.shape)) == 3
        for p in (1e4, None):
            ec = (EngineeringConstants(250.0, p, 1.0, 0.49995, 0.49995) if p
                  else sample_admissible(rng))
            mp, frame = derive_parameters(ec), FibreFrame.from_angle(rng.uniform(0, math.pi))
            data = assemble(mesh, mp, frame, variant).data
            assert data.tobytes() == one_shot_data(mesh, mp, frame, variant).tobytes()

    def test_chunks_cover_the_elements_in_order(self):
        assert element_chunks(0, 9) == []
        assert element_chunks(405, 9) == [(0, 202), (202, 404), (404, 405)]
        assert element_chunks(2048, 4) == [(0, 1024), (1024, 2048)]
        assert element_chunks(3, 200) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n, variant", [(64, V.Q2_CG), (128, V.Q1_CG_UI_betalambda)])
    def test_memory_beyond_what_it_keeps_is_bounded_by_a_chunk(self, n, variant):
        # what assemble keeps is K's values, the load, the mesh's moments and
        # its pattern (built here first: its own build is not assembly's);
        # above that it holds one chunk's element matrices, their slots and
        # the contraction's temporaries, about 8 bytes x _BLOCK each, and the
        # elements' coordinates while it builds the moments.  Assembling all
        # elements at once held about 21 MB above it on the Q2 n = 64 panel
        mesh = cook_mesh(n, variant.order)
        _pattern(mesh)
        mp = derive_parameters(EngineeringConstants(250.0, 1e4, 1.0, 0.49995, 0.49995))
        tracemalloc.start()
        try:
            system = assemble(mesh, mp, FibreFrame.from_angle(math.pi / 3), variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = system.data.nbytes + system.load.nbytes + sum(
            M.nbytes for M in mesh.cached("moments", None))
        assert peak - kept < 4 * 8 * _BLOCK


class TestGather:
    """K is gathered on the mesh's pattern and K_FF cut from it by an index map."""

    @staticmethod
    def coo_oracle(mesh, Ke):
        conn = mesh.elements
        edofs = np.stack([2 * conn, 2 * conn + 1], axis=-1).reshape(conn.shape[0], -1)
        m = edofs.shape[1]
        rows, cols = np.repeat(edofs, m, axis=1).ravel(), np.tile(edofs, m).ravel()
        n = 2 * mesh.n_nodes
        return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    @pytest.mark.parametrize("variant", list(V))
    def test_stiffness_matches_the_coo_sum(self, variant, rng):
        mesh = distorted_cook_mesh(3, variant.order, rng)
        mp = derive_parameters(sample_admissible(rng))
        frame = FibreFrame.from_angle(0.7)
        K = scipy_csr(assemble(mesh, mp, frame, variant).stiffness)
        # every element matrix is exactly symmetric, and K sums each entry
        # and its mirror image in the same order
        assert (K != K.T).nnz == 0
        oracle = self.coo_oracle(mesh, element_stiffness(mesh.nodes[mesh.elements], mp, frame, variant))
        # same entries, none dropped or doubled, each summed to a few ulp
        assert K.has_canonical_format
        assert np.array_equal(K.indptr, oracle.indptr)
        assert np.array_equal(K.indices, oracle.indices)
        assert np.abs(K.data - oracle.data).max() <= 4 * np.finfo(float).eps * np.abs(oracle.data).max()

    @pytest.mark.parametrize("order", [1, 2])
    def test_stiffness_is_a_csc_view(self, order):
        # K's CSR arrays are its CSC arrays: stiffness is the CSC of the
        # system's data on the mesh's pattern, and reads as scipy's CSR of them
        mesh = cook_mesh(3, order)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG if order == 1 else V.Q2_CG)
        K = system.stiffness
        pattern = _pattern(mesh)
        assert type(K) is tifem.assembly.CSC
        assert K.data is system.data
        assert K.indices is pattern.indices and K.indptr is pattern.indptr
        oracle = scipy_csr(K)
        assert K.nnz == oracle.nnz == system.data.size
        assert np.array_equal(dense(K), oracle.toarray())

    def test_pattern_is_shared_read_only(self):
        mesh = rectangle_mesh(2.0, 1.0, 2, 1, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        K = system.stiffness
        assert np.shares_memory(K.indices, _pattern(mesh).indices)
        assert np.shares_memory(K.data, system.data)
        with pytest.raises(ValueError, match="read-only"):
            K.indices[0] = 1
        with pytest.raises(AttributeError):
            system.stiffness = K

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("constraints", ["cook-clamp", "beam-edge-and-pin"])
    def test_reduced_system_matches_slicing(self, order, constraints):
        mp = derive_parameters(EngineeringConstants(250.0, 10.0, 1.0, 0.3, 0.2))
        frame = FibreFrame.from_angle(1.1)
        variant = V.Q1_CG if order == 1 else V.Q2_CG
        if constraints == "cook-clamp":
            mesh = cook_mesh(4, order)
            system = assemble(mesh, mp, frame, variant, tractions={"right": (0.0, 6.25)})
            apply_dirichlet(system, {"left": (0.0, 0.0)})
        else:
            mesh = rectangle_mesh(4.0, 1.0, 4, 2, order)
            system = assemble(mesh, mp, frame, variant,
                              tractions={"right": lambda x, y: (-3.0 * y, 0.0)})
            corner = int(np.argmin(np.abs(mesh.nodes - (0.0, -0.5)).sum(axis=1)))
            apply_dirichlet(system, {"left": lambda x, y: (0.1 * y - 0.2 * y**2, None)},
                            node_constraints=[(corner, 1, 0.05)])
        for _ in range(2):  # the second solve takes the cached layout
            free, u, K_ff, rhs, _ = eliminate(system)
            K = scipy_csr(system.stiffness)
            oracle = K[free][:, free].tocsc()
            assert np.array_equal(K_ff.indptr, oracle.indptr)
            assert np.array_equal(K_ff.indices, oracle.indices)
            assert np.array_equal(K_ff.data, oracle.data)
            assert np.array_equal(rhs, system.load[free] - K[free] @ u)
        assert sorted(np.flatnonzero(u)) == sorted(d for d, g in system.constrained.items() if g)

    def test_each_free_set_keeps_its_layout(self, monkeypatch):
        # a mesh solved under constraints A, then B, then A again builds the
        # K_FF layouts of A and B once each, and each K_FF is K's slice
        built = []
        free_layout = tifem.assembly._free_layout
        monkeypatch.setattr(tifem.assembly, "_free_layout",
                            lambda *args: built.append(args) or free_layout(*args))
        mesh = cook_mesh(4, 1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"right": (0.0, 1.0)})
        K = scipy_csr(system.stiffness)
        A = {"left": (0.0, 0.0)}
        B = {"left": (0.0, 0.0), "bottom": (None, 0.0)}
        sizes = []
        for bcs in (A, B, A):
            system.constrained.clear()
            free, _, K_ff, _, _ = eliminate(apply_dirichlet(system, bcs))
            oracle = K[free][:, free].tocsc()
            assert np.array_equal(K_ff.indptr, oracle.indptr)
            assert np.array_equal(K_ff.indices, oracle.indices)
            assert np.array_equal(K_ff.data, oracle.data)
            sizes.append(free.size)
        assert sizes[0] == sizes[2] > sizes[1]
        assert len(built) == 2

    def test_solve_reads_the_current_data(self):
        # the cached layout holds positions only: K's values are read from
        # system.data on every solve, and scaling K by 2 halves u exactly
        mesh = cook_mesh(3, 1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, tractions={"right": (0.0, 1.0)})
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        u = solve(system).displacements
        system.data *= 2.0
        assert np.array_equal(system.stiffness.data, system.data)
        assert np.array_equal(solve(system).displacements, 0.5 * u)

    def test_sweep_builds_each_pattern_once(self, monkeypatch):
        calls = []
        covered = []  # the elements of each geometry call

        def counted(module, name, label):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(label)
                if label == "geometry":
                    covered.append(len(args[0]))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(tifem.assembly, "_stiffness_pattern", "pattern")
        counted(tifem.assembly, "_free_layout", "layout")
        counted(tifem.assembly, "moments", "moments")
        # the element geometry of the moments; loads and the error rule take
        # theirs through tifem.assembly's own name
        counted(tifem.elements, "geometry", "geometry")
        counted(tifem.assembly, "_error_rule", "error rule")
        # each call integrates one load field, calling its function once
        counted(tifem.assembly, "_add_load", "load")
        counted(tifem.benchmarks, "_nearest_node", "monitored node")
        counted(tifem.benchmarks, "beam_exact", "exact solution")
        counted(tifem.material, "derive_parameters", "material")
        report = run_cook(CookConfig(p_list=(2.0, 10.0, 100.0), refine=(2, 4),
                                     variants=(V.Q1_CG, V.Q2_CG, V.Q1_CG_UI_lambda)))
        assert report.all_ok and len(report.rows) == 18
        # one pattern, K_FF layout, load and call of moments per mesh (2
        # refinements x 2 orders), whose one geometry gives a Q1 mesh its
        # reduced moments too, and one material per p
        assert sorted(calls) == (["geometry"] * 4 + ["layout"] * 4 + ["load"] * 4
                                 + ["material"] * 3 + ["moments"] * 4 + ["pattern"] * 4)
        calls.clear()
        covered.clear()
        constrained, solved = [], []
        apply = tifem.benchmarks.apply_dirichlet
        solve = tifem.benchmarks.solve
        monkeypatch.setattr(tifem.benchmarks, "apply_dirichlet",
                            lambda system, *a, **k: constrained.append(system) or apply(system, *a, **k))
        monkeypatch.setattr(tifem.benchmarks, "solve",
                            lambda system: solved.append(system) or solve(system))
        report = run_beam(BeamConfig())
        assert report.all_ok and len(report.rows) == 72
        # the systems on a mesh share its load, which none of them can write
        assert len(solved) == len(constrained) == 60
        assert not any(s.load.flags.writeable for s in constrained)
        assert len({id(s.load) for s in constrained}) == len({id(s.mesh) for s in constrained}) == 8
        # 60 solves on 8 meshes (4 refinements x 2 orders) for 3 values of p:
        # the traction is integrated and the two monitored nodes found once
        # per mesh, the moments, their geometry and the error rule's
        # geometry built once per mesh, and the material and its exact
        # solution once per p.  The moments' geometry covers each mesh's
        # elements once, chunk by chunk: the Q2 40 x 8 mesh's 320 elements
        # take two calls
        meshes = {id(s.mesh): s.mesh for s in constrained}.values()
        assert sum(covered) == sum(len(mesh.elements) for mesh in meshes)
        assert sorted(calls) == (
            ["error rule"] * 8 + ["exact solution"] * 3 + ["geometry"] * 9 + ["layout"] * 8
            + ["load"] * 8 + ["material"] * 3 + ["moments"] * 8 + ["monitored node"] * 16
            + ["pattern"] * 8)


def test_src_imports_no_scipy():
    # the program imports no scipy module: assembly finds SuperLU's extension
    # by the import system, and the mesh is geometry and topology only
    importers = set()
    for path in Path(tifem.assembly.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.add(path.name)
    assert importers == set()


class TestIndefiniteSystem:
    """A pivot of K_FF's diagonal-pivoted factorisation that is negative, or a
    row pivoted off the diagonal, refuses the system."""

    # admissible, but the reduced variants' K_FF is indefinite on the panel
    EC = EngineeringConstants(152.066, 0.647, 1.265, -0.022, -0.546)

    @pytest.mark.parametrize("variant", [
        V.Q1_CG_UI_lambda, V.Q1_CG_UI_beta, V.Q1_MIXED_P0_beta, V.Q1_CG_UI_betalambda])
    def test_negative_pivots_are_the_inertia(self, variant):
        mesh = cook_mesh(8, 1)
        system = assemble(mesh, derive_parameters(self.EC), FRAME0, variant,
                          tractions={"right": (0.0, 6.25)})
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        K_ff = eliminate(system).K_ff
        negative = np.count_nonzero(np.linalg.eigvalsh(dense(K_ff)) < 0)
        assert negative > 0
        with pytest.raises(IndefiniteSystem, match=f"^K_ff is not positive definite: {negative} negative pivots$"):
            solve(system)

    def test_conforming_variant_still_solves(self):
        mesh = cook_mesh(8, 1)
        system = assemble(mesh, derive_parameters(self.EC), FRAME0, V.Q1_CG,
                          tractions={"right": (0.0, 6.25)})
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        solve(system)
        K_ff = eliminate(system).K_ff
        assert np.linalg.eigvalsh(dense(K_ff)).min() > 0

    def test_off_diagonal_pivot_is_refused(self):
        # SuperLU can factorise [[0, 1], [1, 0]] only by swapping its rows
        with pytest.raises(IndefiniteSystem, match="rows pivoted off the diagonal$"):
            solve(system_of([[0.0, 1.0], [1.0, 0.0]], np.array([1.0, 2.0])))

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solve_succeeds_exactly_when_k_ff_is_positive_definite(self, seed):
        # random admissible materials and fibres on distorted Q1 and Q2 panels:
        # the dense inertia of K_FF decides between a solution and a refusal
        rng = np.random.default_rng(seed)
        mp = derive_parameters(sample_admissible(rng))
        frame = FibreFrame.from_angle(rng.uniform(0.0, math.pi))
        meshes = {order: cook_mesh(3, order) for order in (1, 2)}
        for variant in V:
            system = assemble(meshes[variant.order], mp, frame, variant,
                              tractions={"right": (0.0, 6.25)})
            apply_dirichlet(system, {"left": (0.0, 0.0)})
            K_ff = eliminate(system).K_ff
            if np.linalg.eigvalsh(dense(K_ff)).min() > 0:
                solve(system)
            else:
                with pytest.raises(IndefiniteSystem):
                    solve(system)


def test_solve_never_copies_the_factors(monkeypatch):
    # solve reads the pivots in place: with factors whose L and U raise when
    # read, a positive definite K_FF still solves and an indefinite one is
    # still refused with its inertia
    factorise = tifem.assembly._factorise

    def unreadable(arrays, shape):
        raise AssertionError("solve read lu.L or lu.U")

    def factorise_unreadable(K_ff):
        with monkeypatch.context() as m:
            m.setattr(tifem.assembly, "_factor_csc", unreadable)
            return factorise(K_ff)

    monkeypatch.setattr(tifem.assembly, "_factorise", factorise_unreadable)
    mesh = cook_mesh(8, 1)
    for variant in (V.Q1_CG, V.Q1_CG_UI_lambda):
        system = assemble(mesh, derive_parameters(TestIndefiniteSystem.EC), FRAME0, variant,
                          tractions={"right": (0.0, 6.25)})
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        K_ff = eliminate(system).K_ff
        lu = factorise_unreadable(K_ff)
        for name in ("L", "U"):
            with pytest.raises(AssertionError, match="read lu.L or lu.U"):
                getattr(lu, name)
        negative = np.count_nonzero(np.linalg.eigvalsh(dense(K_ff)) < 0)
        if variant is V.Q1_CG:
            assert negative == 0
            solve(system)
        else:
            with pytest.raises(IndefiniteSystem, match=f"^K_ff is not positive definite: {negative} negative pivots$"):
                solve(system)


class TestContracts:
    """The patch test, theta = theta + pi, the scaling in E_t, and rotation
    and mirror covariance, for all six variants on distorted panels with
    random admissible materials and fibres."""

    # Local node k of a mirrored element is the node at the reference point
    # of k mirrored in xi, which keeps det J positive; its local edge e is
    # the old edge _MIRROR_EDGE[e].
    _MIRROR_NODE = [1, 0, 3, 2, 4, 7, 6, 5, 8]
    _MIRROR_EDGE = [0, 3, 2, 1]

    @staticmethod
    def clamped_panel(mesh, mp, frame, variant, traction):
        """Displacements of the panel clamped on the left under a constant
        traction on the right; a system that solve refuses as indefinite is
        solved densely."""
        system = assemble(mesh, mp, frame, variant, tractions={"right": tuple(traction)})
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        try:
            return solve(system).displacements.reshape(-1, 2)
        except IndefiniteSystem:
            free, u, K_ff, rhs, _ = eliminate(system)
            u[free] = np.linalg.solve(dense(K_ff), rhs)
            return u.reshape(-1, 2)

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotation_covariance(self, seed):
        # rotating the nodes, the fibre and the load by phi rotates u
        rng = np.random.default_rng(seed)
        mp = derive_parameters(sample_admissible(rng))
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        traction = rng.uniform(-1.0, 1.0, size=2)
        for variant in V:
            mesh = distorted_cook_mesh(3, variant.order, rng)
            rotated = replace(mesh, nodes=mesh.nodes @ R.T)
            u = self.clamped_panel(mesh, mp, FibreFrame.from_angle(theta), variant, traction)
            u_rot = self.clamped_panel(rotated, mp, FibreFrame.from_angle(theta + phi), variant,
                                       R @ traction)
            assert np.abs(u_rot - u @ R.T).max() <= 1e-10 * np.abs(u).max()

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mirror_covariance(self, seed):
        # x -> -x with the fibre and the load reflected reflects u; each
        # element's nodes are renumbered so that it stays counterclockwise
        rng = np.random.default_rng(seed)
        mp = derive_parameters(sample_admissible(rng))
        theta = rng.uniform(0.0, math.pi)
        traction = rng.uniform(-1.0, 1.0, size=2)
        M = np.array([-1.0, 1.0])
        for variant in V:
            mesh = distorted_cook_mesh(3, variant.order, rng)
            mirrored = replace(
                mesh, nodes=mesh.nodes * M,
                elements=mesh.elements[:, self._MIRROR_NODE[: mesh.elements.shape[1]]],
                boundary_edges={tag: [(e, self._MIRROR_EDGE[k]) for e, k in pairs]
                                for tag, pairs in mesh.boundary_edges.items()},
            )
            u = self.clamped_panel(mesh, mp, FibreFrame.from_angle(theta), variant, traction)
            u_mir = self.clamped_panel(mirrored, mp, FibreFrame.from_angle(math.pi - theta),
                                       variant, M * traction)
            assert np.abs(u_mir - u * M).max() <= 1e-10 * np.abs(u).max()

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_linear_field_is_reproduced(self, seed):
        # a linear displacement held on every boundary node is the discrete
        # solution at every interior node; a system that solve refuses as
        # indefinite (a reduced variant's K_FF can be) is checked through
        # its dense solve
        rng = np.random.default_rng(seed)
        mp = derive_parameters(sample_admissible(rng))
        frame = FibreFrame.from_angle(rng.uniform(0.0, math.pi))
        G = rng.uniform(-1e-2, 1e-2, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=2)

        def linear(x, y):
            return c[0] + G[0, 0] * x + G[0, 1] * y, c[1] + G[1, 0] * x + G[1, 1] * y

        for variant in V:
            mesh = distorted_cook_mesh(4, variant.order, rng)
            system = assemble(mesh, mp, frame, variant)
            apply_dirichlet(system, dict.fromkeys(("left", "right", "top", "bottom"), linear))
            try:
                u = solve(system).displacements
            except IndefiniteSystem:
                free, u, K_ff, rhs, _ = eliminate(system)
                u[free] = np.linalg.solve(dense(K_ff), rhs)
            exact = np.column_stack(linear(*mesh.nodes.T)).ravel()
            assert np.abs(u - exact).max() <= 1e-10 * np.abs(exact).max()

    @pytest.mark.parametrize("variant", list(V))
    def test_fibre_angle_is_taken_modulo_pi(self, variant, rng):
        mesh = distorted_cook_mesh(3, variant.order, rng)
        mp = derive_parameters(sample_admissible(rng))
        theta = rng.uniform(0.0, math.pi)
        K = assemble(mesh, mp, FibreFrame.from_angle(theta), variant).data
        K_pi = assemble(mesh, mp, FibreFrame.from_angle(theta + math.pi), variant).data
        # a = -a up to the rounding of cos and sin
        assert np.abs(K_pi - K).max() <= 1e-13 * np.abs(K).max()

    @pytest.mark.parametrize("variant", list(V))
    def test_stiffness_and_displacements_scale_with_e_t(self, variant, rng):
        # scaling E_t by 2^k scales every coefficient, K and the pivots
        # exactly, so K by 2^k and u by 2^-k bit for bit
        mesh = distorted_cook_mesh(3, variant.order, rng)
        ec = sample_admissible(rng)
        frame = FibreFrame.from_angle(rng.uniform(0.0, math.pi))
        results = {}
        for k in (0, -7, 5):
            mp = derive_parameters(ec._replace(E_t=ec.E_t * 2.0**k))
            system = assemble(mesh, mp, frame, variant, tractions={"right": (0.0, 6.25)})
            apply_dirichlet(system, {"left": (0.0, 0.0)})
            results[k] = system.data, solve(system).displacements
        K, u = results[0]
        for k in (-7, 5):
            assert np.array_equal(results[k][0], 2.0**k * K)
            assert np.array_equal(results[k][1], 2.0**-k * u)


class TestH1Error:
    def test_zero_fields(self):
        mesh = rectangle_mesh(1.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        apply_dirichlet(
            system, {tag: lambda x, y: (0.0, 0.0) for tag in ("left", "right")}
        )
        sol = solve(system)
        h1, l2 = h1_error(sol, lambda x, y: (0.0, 0.0), lambda x, y: ((0.0, 0.0), (0.0, 0.0)))
        assert h1 == 0.0
        assert l2 == 0.0

    def test_interpolation_error_positive(self):
        mesh = rectangle_mesh(1.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        exact = lambda x, y: (x * x, 0.0)
        grad = lambda x, y: ((2 * x, 0.0), (0.0, 0.0))
        apply_dirichlet(
            system,
            {tag: lambda x, y: (x * x, 0.0) for tag in ("left", "right", "top", "bottom")},
        )
        sol = solve(system)
        h1, l2 = h1_error(sol, exact, grad)
        assert h1 > 0.0
        assert l2 > 0.0
        assert h1 >= l2

    def test_exact_linear_field_reproduced(self):
        # linear exact field lies in the Q1 space; errors vanish
        mesh = rectangle_mesh(2.0, 1.0, 3, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        apply_dirichlet(
            system,
            {tag: lambda x, y: (0.1 * x + 0.2 * y, -0.3 * x) for tag in
             ("left", "right", "top", "bottom")},
        )
        sol = solve(system)
        h1, _ = h1_error(sol, lambda x, y: (0.1 * x + 0.2 * y, -0.3 * x), ((0.1, 0.2), (-0.3, 0.0)))
        assert h1 < 1e-12


    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_the_written_out_integral(self, order, rng):
        # a random field on a distorted panel against the sums over elements
        # and points written out from the shape functions and the Jacobian
        mesh = distorted_cook_mesh(3, order, rng)
        sol = FieldSolution(mesh, rng.standard_normal(2 * mesh.n_nodes))

        def exact_u(x, y):
            return np.sin(x / 20.0) * y / 40.0, np.cos(y / 30.0) + x * y / 1000.0

        def exact_grad(x, y):
            return ((np.cos(x / 20.0) * y / 800.0, np.sin(x / 20.0) / 40.0),
                    (y / 1000.0, -np.sin(y / 30.0) / 30.0 + x / 1000.0))

        rule = gauss_rule(order + 2)
        N, dN_ref = shape_functions(order, rule.points)        # (q, n), (q, n, 2)
        X = mesh.nodes[mesh.elements]                           # (E, n, 2)
        U = sol.displacements.reshape(-1, 2)[mesh.elements]     # (E, n, 2)
        J = np.einsum("eni,qnj->eqij", X, dN_ref)
        w = rule.weights * np.linalg.det(J)                     # (E, q)
        dN = np.einsum("qnk,eqkj->eqnj", dN_ref, np.linalg.inv(J))
        x, y = np.einsum("qn,eni->ieq", N, X)
        ue = np.stack(exact_u(x, y), axis=-1)                      # (E, q, 2)
        Ge = np.array(exact_grad(x, y)).transpose(2, 3, 0, 1)       # (E, q, 2, 2)
        du = np.einsum("qn,eni->eqi", N, U) - ue
        dG = np.einsum("eni,eqnj->eqij", U, dN) - Ge
        l2 = np.sqrt(np.einsum("eq,eqi,eqi->", w, du, du))
        h1 = np.sqrt(l2**2 + np.einsum("eq,eqij,eqij->", w, dG, dG))
        assert h1_error(sol, exact_u, exact_grad) == pytest.approx((h1, l2), rel=1e-12)
        exact_l2 = np.sqrt(np.einsum("eq,eqi,eqi->", w, ue, ue))
        exact_h1 = np.sqrt(exact_l2**2 + np.einsum("eq,eqij,eqij->", w, Ge, Ge))
        assert h1_error(sol, exact_u, exact_grad, relative=True) == pytest.approx(
            (h1 / exact_h1, l2 / exact_l2), rel=1e-12)


class TestFieldFunctions:
    """Every field is called once on coordinate arrays and shape-checked."""

    @staticmethod
    def counted(func, calls, name):
        def wrapper(x, y):
            calls.append((name, x.shape))
            return func(x, y)
        return wrapper

    def test_each_field_called_once(self):
        mesh = rectangle_mesh(2.0, 1.0, 3, 2, order=2)
        calls = []
        system = assemble(
            mesh, MP_ISO, FRAME0, V.Q2_CG,
            body_force=self.counted(lambda x, y: (0.0, -x), calls, "body"),
            tractions={tag: self.counted(lambda x, y: (y, 1.0), calls, tag)
                       for tag in ("right", "top")},
        )
        apply_dirichlet(system, {
            "left": self.counted(lambda x, y: (0.0, 0.0), calls, "left"),
            "bottom": self.counted(lambda x, y: (None, 0.1 * x), calls, "bottom"),
        })
        sol = solve(system)
        h1_error(sol, self.counted(lambda x, y: (x, y), calls, "u"),
                 self.counted(lambda x, y: ((1.0, 0.0), (0.0, 1.0)), calls, "grad"))
        assert calls == [
            ("body", (6, 9)), ("right", (2, 3)), ("top", (3, 3)),
            ("left", (5,)), ("bottom", (7,)), ("u", (6, 16)), ("grad", (6, 16)),
        ]
        bottom = np.array(mesh.boundary_nodes["bottom"])
        assert np.array_equal(sol.displacements[2 * bottom + 1], 0.1 * mesh.nodes[bottom, 0])

    def test_stacked_array_equals_nested_tuple(self):
        mesh = rectangle_mesh(2.0, 1.0, 3, 2, order=1)
        loads = [
            assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, body_force=f, tractions={"right": f}).load
            for f in (lambda x, y: (x * y, 2.0 + 0 * x), lambda x, y: np.stack([x * y, 2.0 + 0 * x]))
        ]
        assert np.array_equal(loads[0], loads[1])

    @pytest.mark.parametrize("ny", [1, 2])  # one row of 2 elements: E == 2 components
    @pytest.mark.parametrize("grad", [lambda x, y: (2 * x, 0.0), (0.0, 0.0)], ids=["callable", "constant"])
    def test_gradient_with_two_components_is_rejected(self, ny, grad):
        mesh = rectangle_mesh(2.0, 1.0, 2, ny, order=1)
        sol = solve(apply_dirichlet(
            assemble(mesh, MP_ISO, FRAME0, V.Q1_CG),
            {tag: lambda x, y: (0.0, 0.0) for tag in ("left", "right")},
        ))
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(2, 2\)"):
            h1_error(sol, lambda x, y: (0.0, 0.0), grad)

    @pytest.mark.parametrize("kind", ["traction", "body_force"])
    @pytest.mark.parametrize("spec", [(1.0, 0.0, 0.0), lambda x, y: (x, 0.0, y)],
                             ids=["constant", "callable"])
    def test_three_component_load_is_rejected(self, kind, spec):
        mesh = rectangle_mesh(2.0, 1.0, 2, 2, order=1)
        loads = {"tractions": {"right": spec}} if kind == "traction" else {"body_force": spec}
        with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
            assemble(mesh, MP_ISO, FRAME0, V.Q1_CG, **loads)

    @pytest.mark.parametrize("func", [lambda x, y: (0.0, 0.0, 0.0),
                                      lambda x, y: (np.stack([x, y]), None)],
                             ids=["three-components", "stacked-component"])
    def test_malformed_dirichlet_is_rejected(self, func):
        mesh = rectangle_mesh(2.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        with pytest.raises(ValueError):
            apply_dirichlet(system, {"left": func})
        assert system.constrained == {}

    def test_malformed_later_tag_leaves_system_unconstrained(self):
        mesh = rectangle_mesh(2.0, 1.0, 2, 2, order=1)
        system = assemble(mesh, MP_ISO, FRAME0, V.Q1_CG)
        bcs = {"left": lambda x, y: (0.0, 0.0), "right": lambda x, y: (0.0, 0.0, 0.0)}
        with pytest.raises(ValueError):
            apply_dirichlet(system, bcs)
        assert system.constrained == {}
        with pytest.raises(UnknownBoundaryTag):
            apply_dirichlet(system, {"left": lambda x, y: (0.0, 0.0), "front": (0.0, 0.0)})
        assert system.constrained == {}
        with pytest.raises(ValueError):
            apply_dirichlet(system, {"left": bcs["left"]}, node_constraints=[(0, 0, "free")])
        assert system.constrained == {}

    def test_constant_dirichlet_equals_function(self):
        mesh = rectangle_mesh(2.0, 1.0, 2, 2, order=2)
        systems = [
            apply_dirichlet(assemble(mesh, MP_ISO, FRAME0, V.Q2_CG),
                            {"left": g, "bottom": (None, 0.5)})
            for g in ((0.25, 0.0), lambda x, y: (0.25, 0.0))
        ]
        assert systems[0].constrained == systems[1].constrained
        assert systems[0].constrained[2 * mesh.boundary_nodes["left"][0]] == 0.25
        assert len(systems[0].constrained) == 2 * 5 + 5 - 1


    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_components_are_broadcast_and_stacked_last(self, data):
        # components nested as tuples or lists, each a scalar, a float or int
        # array of the points' shape, or an array with as many axes, each of
        # length 1 or the points', or all of them stacked into one array; the
        # oracle broadcasts each component and stacks them on a last axis
        points = data.draw(st.sampled_from([(5,), (3, 4), (2, 2)]), label="points")
        shape = data.draw(st.sampled_from([(), (2,), (2, 2)]), label="shape")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal(points)

        def leaf():
            kind = data.draw(st.sampled_from(["scalar", "int", "array", "int array", "broadcast"]))
            if kind == "scalar":
                return float(rng.standard_normal())
            if kind == "int":
                return int(rng.integers(-5, 5))
            if kind == "array":
                return rng.standard_normal(points)
            if kind == "int array":
                return rng.integers(-5, 5, size=points)
            return rng.standard_normal(tuple(data.draw(st.sampled_from([1, n])) for n in points))

        def nest(depth):
            if depth == len(shape):
                return leaf()
            kind = data.draw(st.sampled_from([tuple, list]))
            return kind(nest(depth + 1) for _ in range(shape[depth]))

        def oracle(val):
            comps = [np.broadcast_to(reduce(getitem, i, val), points) for i in np.ndindex(shape)]
            return np.stack(comps, axis=-1, dtype=float).reshape(points + shape)

        val = nest(0)
        if data.draw(st.booleans(), label="stacked"):
            val = np.moveaxis(oracle(val), range(len(points)),
                              range(len(shape), len(shape) + len(points)))
        got = _at_points(val, x, x, shape)
        want = oracle(val)
        # the same values, C-ordered so that sums over them have one order
        assert got.shape == points + shape and got.dtype == float and got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("val, points, shape", [
        (((1.0, np.ones(5)), (np.ones(5),)), (5,), (2,)),  # nested to different depths
        ((np.ones(5), np.ones(4)), (5,), (2,)),            # a component not of the points' shape
        ((np.ones(5), [1.0, 2.0, 3.0, 4.0, 5.0]), (5,), (2,)),  # a list is a component axis
        # an array with fewer axes than the points is not broadcast: its
        # axes are component axes, here one too many or nested too deep
        (np.ones(4), (3, 4), ()),
        ((np.ones(4), 0.0), (3, 4), (2,)),
    ], ids=["ragged", "not-broadcastable", "list-of-points", "fewer-axes", "fewer-axes-nested"])
    def test_ragged_components_are_rejected(self, val, points, shape):
        x = np.zeros(points)
        with pytest.raises(ValueError):
            _at_points(val, x, x, shape)


class TestNodeConstraints:
    """Pointwise pins name an existing node and the component 0 or 1."""

    @pytest.mark.parametrize("pin", [(-1, 0, 0.5), (0, 2, 0.5), (0.5, 0, 0.0), (100, 0, 0.0),
                                     (9, 0, 0.0), (0, -1, 0.0),
                                     # a flag is no index, though True == 1
                                     (True, 0, 1.0), (1, True, 5.0), (False, 1, 0.0),
                                     (np.bool_(True), 0, 1.0), (1, np.bool_(False), 5.0)])
    def test_invalid_pin_is_rejected(self, pin):
        mesh = rectangle_mesh(2.0, 2.0, 2, 2, order=1)
        system = apply_dirichlet(assemble(mesh, MP_ISO, FRAME0, V.Q1_CG), {"left": (0.0, 0.0)})
        before = dict(system.constrained)
        with pytest.raises(ValueError, match=r"^pin \("):
            apply_dirichlet(system, node_constraints=[pin])
        assert system.constrained == before

    @pytest.mark.parametrize("node", [8, np.int64(8)], ids=["int", "numpy"])
    def test_valid_pin_is_recorded(self, node):
        mesh = rectangle_mesh(2.0, 2.0, 2, 2, order=1)
        system = apply_dirichlet(assemble(mesh, MP_ISO, FRAME0, V.Q1_CG),
                                 node_constraints=[(node, 1, 0.5)])
        assert system.constrained == {17: 0.5}


class TestFrameInvariance:
    def test_global_energy_under_rotation(self, rng):
        ec = sample_admissible(rng)
        mp = derive_parameters(ec)
        theta = 0.83
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )

        def run(rotate):
            mesh = rectangle_mesh(2.0, 1.0, 4, 2, order=1)
            angle = 0.4
            trac = np.array([0.3, 1.1])
            if rotate:
                mesh.nodes = mesh.nodes @ R.T
                angle += theta
                trac = R @ trac
            system = assemble(
                mesh, mp, FibreFrame.from_angle(angle), V.Q1_CG,
                tractions={"right": tuple(trac)},
            )
            apply_dirichlet(system, {"left": lambda x, y: (0.0, 0.0)})
            sol = solve(system)
            return sol.displacements @ (system.stiffness @ sol.displacements)

        e0, e1 = run(False), run(True)
        assert e1 == pytest.approx(e0, rel=1e-10)
