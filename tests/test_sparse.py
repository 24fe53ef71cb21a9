"""tifem's numpy sparse layouts, mat-vecs and direct SuperLU call against the
scipy.sparse code they replace.

`tifem.assembly` builds K's pattern and K_FF's layout with numpy and calls
the `gstrf` of scipy's private SuperLU extension itself, whose pivots it
reads in place from SuperLU's own storage.  The scipy.sparse forms are kept
here as oracles: every layout array must come out the same, dtype included,
every mat-vec the same bits, the factorisation the same solution, factors
and row order as `scipy.sparse.linalg.splu`'s, and the pivots read in place
the same bits as the last stored entry of each column of the object's U.  A
scipy release that changes gstrf's call or how it stores the factors fails
here.
"""

import importlib.machinery
import importlib.util
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from tifem import (
    EngineeringConstants,
    FibreFrame,
    FormulationVariant,
    apply_dirichlet,
    assemble,
    cook_mesh,
    derive_parameters,
    rectangle_mesh,
)
import tifem.assembly
from tifem.assembly import (
    _BLOCK, CSC, _column_blocks, _factorise, _free_layout, _norm_inf, _pivots, eliminate,
    _stiffness_pattern,
)
from conftest import dense, distorted_cook_mesh, sample_admissible, scipy_csr

V = FormulationVariant


def oracle_pattern(elements, n_nodes):
    """_stiffness_pattern through scipy's COO -> CSR and BSR -> CSR."""
    E, n = elements.shape
    rows = np.repeat(elements, n, axis=1).ravel()
    cols = np.tile(elements, n).ravel()
    nodal = sp.csr_matrix((np.ones(rows.size, np.int8), (rows, cols)), shape=(n_nodes, n_nodes))
    nodal.data = np.arange(nodal.nnz, dtype=np.int32)
    s = np.asarray(nodal[rows, cols], dtype=np.int32).reshape(E, n, n)
    ptr = nodal.indptr.astype(np.int32)
    dofs = sp.bsr_matrix((np.ones((nodal.nnz, 2, 2), np.int8), nodal.indices, ptr),
                         shape=(2 * n_nodes, 2 * n_nodes)).tocsr()
    return (dofs.indptr, dofs.indices, 2 * (s + ptr[elements][:, :, None]),
            (2 * np.diff(ptr))[elements])


def pair_values(indptr, indices):
    """Values of a symmetric K on the pattern, each entry its unordered
    pair's own number: min(i, j) n + max(i, j) at (i, j)."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return np.minimum(rows, indices) * n + np.maximum(rows, indices)


def oracle_free_layout(indptr, indices, free):
    """_free_layout's arrays with keep read as values, from scipy's slice of
    the symmetric K of `pair_values`: _free_layout reads entry (i, j) of
    K_FF from K's (j, i), so only the values of a symmetric K are exact, and
    on this K every value names its pair."""
    n = indptr.size - 1
    P = sp.csr_matrix((pair_values(indptr, indices), indices, indptr), shape=(n, n))
    P = P[free][:, free].tocsc()
    return P.data, P.indices, P.indptr


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


@st.composite
def meshes(draw):
    """A distorted Cook panel or a rectangle grid, Q1 or Q2, with 1 to 5
    cells a side, and a seed for what is drawn on it."""
    seed = draw(st.integers(0, 2**32 - 1))
    order = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        mesh = distorted_cook_mesh(draw(st.integers(1, 5)), order, rng)
    else:
        mesh = rectangle_mesh(2.0, 1.0, draw(st.integers(1, 5)), draw(st.integers(1, 5)), order)
    return mesh, rng


def random_free(mesh, rng):
    """The dofs in ascending number, each kept with a drawn probability, at
    least one kept: a free set as solve takes it."""
    keep = rng.random(2 * mesh.n_nodes) < rng.uniform(0.05, 1.0)
    keep[rng.integers(keep.size)] = True
    return np.flatnonzero(keep)


def free_sets(mesh, rng):
    """Free sets of every kind solve may take: random masks, every dof, the
    interior nodes' dofs, one component of every node, and one dof."""
    boundary = np.unique(np.concatenate([*map(np.asarray, mesh.boundary_nodes.values())]))
    interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary)
    sets = [random_free(mesh, rng), random_free(mesh, rng), np.arange(2 * mesh.n_nodes),
            2 * np.arange(mesh.n_nodes) + rng.integers(2), rng.integers(2 * mesh.n_nodes, size=1)]
    if interior.size:
        sets.append((2 * interior[:, None] + [0, 1]).ravel())
    return sets


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(drawn=meshes())
def test_layouts_equal_scipys(drawn):
    mesh, rng = drawn
    pattern = _stiffness_pattern(mesh.elements, mesh.n_nodes)
    assert_same_arrays(pattern, oracle_pattern(mesh.elements, mesh.n_nodes))
    values = pair_values(pattern.indptr, pattern.indices)
    for free in free_sets(mesh, rng):
        keep, indices, indptr = _free_layout(pattern.indptr, pattern.indices, free)
        # a mask over K's data, which keeps K_FF's entries in K's order
        assert keep.dtype == bool and keep.shape == values.shape
        assert_same_arrays((values[keep], indices, indptr),
                           oracle_free_layout(pattern.indptr, pattern.indices, free))


def constrained_system(mesh, rng, variant):
    """A random admissible material and fibre on the mesh, with the dofs
    outside a random free set held at random values."""
    mp = derive_parameters(sample_admissible(rng))
    system = assemble(mesh, mp, FibreFrame.from_angle(rng.uniform(0.0, math.pi)), variant,
                      tractions={"right": tuple(rng.uniform(-1.0, 1.0, 2))})
    hold(system, random_free(mesh, rng), rng)
    return system


def hold(system, free, rng):
    """Hold the dofs outside free at random values, and only those."""
    fixed = np.setdiff1d(np.arange(system.n_dofs), free)
    system.constrained.clear()
    system.constrained.update(zip(fixed.tolist(), rng.uniform(-1.0, 1.0, fixed.size).tolist()))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(drawn=meshes())
def test_mat_vecs_have_scipys_bits(drawn):
    mesh, rng = drawn
    variant = V.Q1_CG_UI_betalambda if mesh.order == 1 else V.Q2_CG
    system = constrained_system(mesh, rng, variant)
    K = scipy_csr(system.stiffness)
    for free in free_sets(mesh, rng):
        hold(system, free, rng)
        got, u, K_ff, rhs, _ = eliminate(system)
        assert np.array_equal(got, free)
        assert rhs.tobytes() == (system.load - K @ u)[free].tobytes()
        oracle = K[free][:, free].tocsc()
        assert_same_arrays(K_ff, (oracle.data, oracle.indices, oracle.indptr))
        x = rng.standard_normal(free.size)
        assert (K_ff @ x).tobytes() == (oracle @ x).tobytes()


@pytest.mark.parametrize("variant", list(V))
def test_assembled_stiffness_is_symmetric_bit_for_bit(variant):
    # eliminate reads K's rows of the fixed dofs as its columns
    rng = np.random.default_rng(11)
    mesh = distorted_cook_mesh(4, variant.order, rng)
    mp = derive_parameters(EngineeringConstants(250.0, 1e4, 1.0, 0.3, 0.3))
    system = assemble(mesh, mp, FibreFrame.from_angle(rng.uniform(0.0, math.pi)), variant)
    K = scipy_csr(system.stiffness)
    assert K.T.tocsr().data.tobytes() == K.data.tobytes()
    K = K.toarray()
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


@pytest.mark.parametrize("prescribed", [
    # both components of the left edge's nodes, zero, nonzero, -0.0 and
    # zero again in turn, and a nonzero pin inside
    lambda mesh: {**{2 * node + c: [0.0, 0.25, -0.0, 0.0, -1.5][(2 * k + c) % 5]
                     for k, node in enumerate(mesh.boundary_nodes["left"]) for c in (0, 1)},
                  2 * (mesh.n_nodes // 2) + 1: 0.125},
    lambda mesh: {2 * mesh.boundary_nodes["left"][1] + 1: -0.75},
], ids=["mixed-zero-and-nonzero", "one-fixed-dof"])
@pytest.mark.parametrize("order", [1, 2])
def test_rhs_from_the_fixed_rows_has_scipys_bits(prescribed, order):
    mesh = distorted_cook_mesh(3, order, np.random.default_rng(5))
    variant = V.Q1_CG_UI_betalambda if order == 1 else V.Q2_CG
    mp = derive_parameters(EngineeringConstants(250.0, 10.0, 1.0, 0.3, 0.3))
    system = assemble(mesh, mp, FibreFrame.from_angle(1.0), variant,
                      tractions={"right": (0.0, 6.25)})
    system.constrained.update(prescribed(mesh))
    free, u, K_ff, rhs, _ = eliminate(system)
    assert free.size == system.n_dofs - len(system.constrained)
    assert rhs.tobytes() == (system.load - scipy_csr(system.stiffness) @ u)[free].tobytes()
    assert rhs.tobytes() != system.load[free].tobytes()


def splu(K_ff):
    """What solve factorised before it called gstrf itself, at its panel width."""
    A = sp.csc_matrix(K_ff, shape=(K_ff.indptr.size - 1,) * 2)
    return spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     panel_size=tifem.assembly._SPLU_OPTIONS["PanelSize"],
                     options=dict(SymmetricMode=True))


def test_panel_width_is_at_most_the_compiled_default():
    # gstrf factorises panels of PanelSize columns.  Above SuperLU's
    # compiled default of 20, scipy 1.17.1's SuperLU corrupts the heap: splu
    # at panel_size=32 on the Q2 n=64 panel's K_FF aborts with "munmap_chunk():
    # invalid pointer" under MALLOC_CHECK_=3, where widths 1 to 20 run clean
    width = tifem.assembly._SPLU_OPTIONS["PanelSize"]
    assert isinstance(width, int) and 1 <= width <= 20


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(drawn=meshes(), variant=st.sampled_from(list(V)))
def test_factorisation_equals_splus(drawn, variant):
    # every variant, so that indefinite and singular K_FF are drawn too
    mesh, rng = drawn
    if variant.order != mesh.order:
        variant = V.Q1_CG if mesh.order == 1 else V.Q2_CG
    system = constrained_system(mesh, rng, variant)
    _, _, K_ff, rhs, _ = eliminate(system)
    try:
        expected = splu(K_ff)
    except RuntimeError as err:
        with pytest.raises(RuntimeError, match=str(err)):
            _factorise(K_ff)
        return
    lu = _factorise(K_ff)
    assert lu.solve(rhs).tobytes() == expected.solve(rhs).tobytes()
    assert np.array_equal(lu.perm_r, expected.perm_r)
    assert np.array_equal(lu.perm_c, expected.perm_c)
    for got, want in ((lu.L, expected.L), (lu.U, expected.U)):
        assert_same_arrays(got, (want.data[: want.nnz], want.indices[: want.nnz], want.indptr))
    # the pivots solve reads in place are the last stored entry of each U
    # column, U's diagonal
    last = lu.U.indptr[1:] - 1
    assert np.array_equal(lu.U.indices[last], np.arange(last.size))
    assert _pivots(lu).tobytes() == lu.U.data[last].tobytes()
    assert lu.U.data[last].tobytes() == expected.U.diagonal().tobytes()


def test_hand_factors():
    # L D L^T of [[4, 1, 0], [1, 5, 2], [0, 2, 6]], U = D L^T with pivots
    # 4, 5 - 1/4 and 6 - 4 / 4.75, each U column ending on its diagonal
    A = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    csc = sp.csc_matrix(A)
    lu = _factorise(CSC(csc.data, csc.indices, csc.indptr))
    L, U = dense(lu.L), dense(lu.U)
    assert np.array_equal(np.diag(L), np.ones(3)) and not np.triu(L, 1).any()
    assert not np.tril(U, -1).any()
    assert np.allclose(np.diag(U), [4.0, 4.75, 6.0 - 4.0 / 4.75], rtol=1e-15, atol=0.0)
    assert np.allclose(L @ U, A, rtol=1e-15, atol=1e-15)
    assert np.array_equal(lu.U.indices[lu.U.indptr[1:] - 1], [0, 1, 2])
    assert _pivots(lu).tobytes() == lu.U.data[lu.U.indptr[1:] - 1].tobytes()


def test_off_diagonal_pivots():
    # [[0, 1], [1, 0]] factorises only with its rows swapped; L's store holds
    # each pivot on the diagonal of P A, as U does
    lu = _factorise(CSC(np.array([1.0, 1.0]), np.array([1, 0], np.int32),
                        np.array([0, 1, 2], np.int32)))
    assert np.array_equal(lu.perm_r, [1, 0])
    assert np.array_equal(lu.U.indices[lu.U.indptr[1:] - 1], [0, 1])
    assert _pivots(lu).tobytes() == lu.U.data[lu.U.indptr[1:] - 1].tobytes()
    assert np.array_equal(_pivots(lu), [1.0, 1.0])


def misread_layout(lu):
    raise RuntimeError("SuperLU's L has a column whose pivot is not on its diagonal")


@pytest.mark.parametrize("misread", [lambda lu: -_pivots(lu), lambda lu: _pivots(lu)[::-1],
                                     misread_layout], ids=["sign", "order", "layout"])
def test_import_check_refuses_a_misread(monkeypatch, misread):
    # a scipy whose factors _pivots misreads is refused when tifem is imported
    tifem.assembly._check_pivot_layout()
    monkeypatch.setattr(tifem.assembly, "_pivots", misread)
    with pytest.raises(ImportError, match=r"^scipy \S+ lays out SuperLU's factors otherwise"):
        tifem.assembly._check_pivot_layout()


def test_superlu_is_scipys_extension():
    # the import system found the file that scipy.sparse.linalg itself loads
    from scipy.sparse.linalg._dsolve import _superlu

    assert tifem.assembly._superlu.__file__ == _superlu.__file__


def test_missing_superlu_extension_is_an_import_error(monkeypatch, tmp_path):
    # a scipy whose _dsolve directory has no _superlu extension: the error
    # names the directory
    dsolve = tmp_path / "scipy" / "sparse" / "linalg" / "_dsolve"
    dsolve.mkdir(parents=True)
    init = str(tmp_path / "scipy" / "__init__.py")
    scipy = importlib.machinery.ModuleSpec("scipy", None, origin=init)
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: scipy if name == "scipy" else find_spec(name, *args))
    message = f"no SuperLU extension _superlu in {dsolve}"
    with pytest.raises(ImportError, match=f"^{re.escape(message)}$"):
        tifem.assembly._load_superlu()


def panel_K_ff(n, variant):
    """K_FF of the Cook panel at p = 1e4 as the panel_large commands solve it."""
    mp = derive_parameters(EngineeringConstants(250.0, 1e4, 1.0, 0.3, 0.3))
    system = assemble(cook_mesh(n, variant.order), mp, FibreFrame.from_angle(math.pi / 3), variant,
                      tractions={"right": (0.0, 6.25)})
    apply_dirichlet(system, {"left": (0.0, 0.0)})
    return eliminate(system).K_ff


@pytest.mark.parametrize("n, variant, fill", [(64, V.Q2_CG, 4_216_544),
                                              (128, V.Q1_CG_UI_betalambda, 4_228_560)])
def test_panel_lu_fill(n, variant, fill):
    # the two panel_large factorisations, 8,445,104 L + U nonzeros together:
    # the nested-dissection order's fill, which depends on the pattern alone
    lu = _factorise(panel_K_ff(n, variant))
    assert lu.L.nnz + lu.U.nnz == fill


def row_sum_norm(A):
    """The largest absolute row sum, each row summed in storage order over
    all of the data at once."""
    return np.bincount(A.indices, np.abs(A.data), A.indptr.size - 1).max()


@pytest.mark.parametrize("n, variant, several", [(32, V.Q2_CG, True), (4, V.Q1_CG, False)])
def test_blocked_mat_vec_and_norm(n, variant, several):
    # the Q2 n=32 panel's K_FF spans several column blocks, the Q1 n=4 one
    # fits in one
    K_ff = panel_K_ff(n, variant)
    blocks = len(list(_column_blocks(K_ff.indptr)))
    assert blocks > 2 if several else blocks == 1
    A = sp.csc_matrix(K_ff, shape=(K_ff.indptr.size - 1,) * 2)
    x = np.random.default_rng(3).standard_normal(A.shape[0])
    assert (K_ff @ x).tobytes() == (A @ x).tobytes()
    assert _norm_inf(K_ff) == row_sum_norm(K_ff)
    assert _norm_inf(K_ff) == pytest.approx(spla.norm(A, np.inf), rel=1e-15, abs=0.0)


def test_blocked_mat_vec_and_norm_of_a_non_symmetric_matrix():
    # five column blocks of a matrix whose rows and columns differ: the
    # product and the norm sum rows, not columns, across the blocks
    A = sp.random(3000, 3000, density=0.03, format="csc", random_state=2)
    A.data -= 0.5
    assert len(list(_column_blocks(A.indptr))) == 5
    x = np.random.default_rng(5).standard_normal(3000)
    assert (CSC(A.data, A.indices, A.indptr) @ x).tobytes() == (A @ x).tobytes()
    assert row_sum_norm(A) != row_sum_norm(A.T.tocsc())
    assert _norm_inf(A) == row_sum_norm(A)
    # scipy sums each row in another order; some 90 terms a row
    assert _norm_inf(A) == pytest.approx(spla.norm(A, np.inf), rel=1e-14, abs=0.0)


def test_mat_vec_and_norm_memory_is_bounded_by_the_block():
    # the Q2 n=64 panel's K_FF holds 8.3 MB of data; a mat-vec or a norm
    # makes temporaries of one column block at a time: at most four 8-byte
    # arrays of a block's length, besides the result and the row sums
    K_ff = panel_K_ff(64, V.Q2_CG)
    x = np.random.default_rng(4).standard_normal(K_ff.indptr.size - 1)
    bound = 4 * 8 * _BLOCK + 2 * x.nbytes
    assert bound < K_ff.data.nbytes / 3
    for product in (lambda: K_ff @ x, lambda: _norm_inf(K_ff)):
        tracemalloc.start()
        try:
            product()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

