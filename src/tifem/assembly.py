"""Global assembly, boundary conditions, linear solve, and error norms.

Degrees of freedom are interleaved: node i owns dofs (2i, 2i+1) for the
x and y displacement components.  Dirichlet constraints are eliminated at
solve time: the free dofs F solve K_FF u_F = (f - K u)_F, where u holds the
prescribed values, zero on F.  The assembled matrix always covers all dofs.
F lists the free dofs node by node in the mesh's nested-dissection order
(`QuadMesh.dissection`), and K_FF is factorised with no further ordering.

This module alone builds, slices and factorises sparse matrices, and does
their bookkeeping once per mesh, not per assembly (George and Liu, Computer
Solution of Large Sparse Positive Definite Systems, 1981), in the mesh's
cache (`QuadMesh.cached`).  `_pattern` is the CSR pattern of K and where
every element-matrix entry goes in its data, so K is one bincount of the
element matrices over each entry's slot, with nothing sorted per assembly.
`_free_layout` is, for each set F solved for, the CSC layout of K_FF as a
gather of K's data, already permuted.  A LinearSystem holds K's values on
its mesh's pattern, so every K and K_FF of a mesh takes this one path.

Field functions (body force, tractions, Dirichlet data, exact solutions) are
called once each as func(x, y) on coordinate arrays of quadrature points
(E, q) or boundary nodes (n,).  They return nested components, (u, v) or
((ux, uy), (vx, vy)), as tuples, lists or leading axes of an array ending in
x's axes; each is a scalar or an array with x's number of axes, each of
length 1 or x's (fewer axes are read as component axes, not broadcast).  A
constant stands for its value.  Components not nested to the expected shape
raise ValueError.
The load is integrated by `load_vector`, which `assemble` calls; a sweep
that solves many operators on one mesh under one load (`benchmarks._sweep`)
integrates it once per mesh, so its field function is called once per mesh,
not once per operator.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import getitem
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import (
    FormulationVariant, _interpolate, _lagrange_1d, gauss_rule_1d, geometry, moments,
    stiffness_blocks,
)


class UnknownBoundaryTag(KeyError):
    pass


class SingularSystem(ValueError):
    """The constrained system is singular (e.g. unresolved rigid-body modes)."""


class IndefiniteSystem(SingularSystem):
    """K_FF is not positive definite: its diagonal-pivoted factorisation has a
    negative pivot, or had to pivot a row off the diagonal."""


class StiffnessPattern(NamedTuple):
    """CSR pattern of K over the interleaved dofs and where each element
    entry goes: entry (2l + a, 2m + b) of element e sits at
    block[e, l, m] + a step[e, l] + b in the data."""
    indptr: np.ndarray           # (2 n_nodes + 1,) int32
    indices: np.ndarray          # (nnz,) int32, sorted within each row
    block: np.ndarray            # (E, n, n) int32 data index of each node pair's entry (2i, 2j)
    step: np.ndarray             # (E, n) int32 data distance from dof row 2i to row 2i + 1

    def slots(self):
        """(2, 2, E, n, n) index into the data of every element-matrix entry:
        [a, b, e, l, m] holds that of entry (2l + a, 2m + b) of element e.
        It is built as np.intp, the index type np.bincount would convert it to."""
        slot = np.empty((2, 2) + self.block.shape, np.intp)
        slot[0, 0] = self.block
        slot[1, 0] = self.block + self.step[:, :, None]
        slot[:, 1] = slot[:, 0] + 1
        return slot


def _stiffness_pattern(elements, n_nodes):
    """StiffnessPattern of a connectivity.

    The E n^2 node pairs go through scipy's COO -> CSR once; every node pair
    (i, j) then owns the 2 x 2 dof block (2i + a, 2j + b), so the dof pattern
    is the node pattern with blocks for entries, and the rest is arithmetic:
    dof row 2i + a starts 4 ptr[i] + 2 a deg[i] into the data, deg[i] the
    node count of row i, and a node pair at s - ptr[i] into its row sits at
    twice that into each of its dof rows.  Only the node-pair index is kept
    per element entry; `slots` expands it to the dofs for each assembly.
    """
    E, n = elements.shape
    rows = np.repeat(elements, n, axis=1).ravel()
    cols = np.tile(elements, n).ravel()
    nodal = sp.csr_matrix((np.ones(rows.size, np.int8), (rows, cols)), shape=(n_nodes, n_nodes))
    nodal.data = np.arange(nodal.nnz, dtype=np.int32)
    s = np.asarray(nodal[rows, cols], dtype=np.int32).reshape(E, n, n)
    ptr = nodal.indptr.astype(np.int32)
    dofs = sp.bsr_matrix((np.ones((nodal.nnz, 2, 2), np.int8), nodal.indices, ptr),
                         shape=(2 * n_nodes, 2 * n_nodes)).tocsr()
    return StiffnessPattern(dofs.indptr, dofs.indices, 2 * (s + ptr[elements][:, :, None]),
                            (2 * np.diff(ptr))[elements])


def _free_layout(indptr, indices, free):
    """K_FF = K[free][:, free] in CSC for every K with this CSR pattern, as
    (take, indices, indptr) with K_FF's data K.data[take].  It is scipy's own
    slice of a copy of the pattern valued by data position, so K_FF has
    exactly the layout that slicing K would give it."""
    n = indptr.size - 1
    P = sp.csr_matrix((np.arange(indices.size, dtype=np.int32), indices, indptr), shape=(n, n))
    P = P[free][:, free].tocsc()
    return P.data, P.indices, P.indptr


def _pattern(mesh):
    """The mesh's StiffnessPattern, built once per mesh and read-only."""
    return mesh.cached("pattern", lambda: _stiffness_pattern(mesh.elements, mesh.n_nodes))


@dataclass
class LinearSystem:
    data: np.ndarray             # K's values on _pattern(mesh)
    load: np.ndarray
    mesh: object
    variant: FormulationVariant
    frame: object
    constrained: dict = field(default_factory=dict)  # dof -> prescribed value

    @property
    def n_dofs(self):
        return self.load.shape[0]

    @property
    def stiffness(self):
        """K in CSR: a view of data on the mesh's pattern, nothing copied."""
        pattern = _pattern(self.mesh)
        return sp.csr_matrix((self.data, pattern.indices, pattern.indptr),
                             shape=(self.n_dofs, self.n_dofs))


@dataclass
class FieldSolution:
    mesh: object
    displacements: np.ndarray  # (2 * n_nodes,)

    def at_node(self, node):
        return self.displacements[2 * node : 2 * node + 2]


def _at_points(func, x, y, shape):
    """Evaluate a field function, or a constant, on x, y into x.shape + shape."""
    val = func(x, y) if callable(func) else func
    if (got := _layout(val, x.ndim)) != shape:
        raise ValueError(f"field components have shape {got}, expected {shape}")
    out = np.empty(x.shape + shape)
    for i in np.ndindex(shape):  # broadcast and convert each component in place
        np.copyto(out[(..., *i)], reduce(getitem, i, val), casting="same_kind")
    return out


def _layout(val, ndim):
    """Component shape of val, whose arrays end in ndim point axes, or "ragged"."""
    if isinstance(val, (tuple, list)):
        sub = {_layout(v, ndim) for v in val}
        return (len(val),) + sub.pop() if len(sub) == 1 and "ragged" not in sub else "ragged"
    s = np.shape(val)
    return s[: len(s) - ndim] if len(s) >= ndim else s


def _add_load(f, conn, vals, wmeas, coords, spec):
    """Add int N_a t dx over each cell (element or edge) to the load f.

    conn (E, n) node indices, vals (q, n) shape values, wmeas (E, q) weight
    times measure, coords (E, n, 2).
    """
    x, y = np.swapaxes(_interpolate(coords, vals), 0, 1)
    t = _at_points(spec, x, y, (2,))
    fe = _interpolate(wmeas[..., None] * t, vals.T)          # (E, 2, n)
    np.add.at(f.reshape(-1, 2), conn, np.swapaxes(fe, 1, 2))


def load_vector(mesh, body_force=None, tractions=None):
    """The load f (2 n_nodes,): int N_a b dx over the elements plus int N_a t ds
    over each tagged boundary.

    body_force and each tractions[tag] are field functions or constants with
    components (fx, fy); each is called once (see the module docstring).
    """
    conn = mesh.elements
    f = np.zeros(2 * mesh.n_nodes)
    if body_force is not None:
        coords = mesh.nodes[conn]
        vals, _, wdet = geometry(coords, mesh.order, mesh.order + 1)
        _add_load(f, conn, vals, wdet, coords, body_force)

    if tractions:
        # edge rule with order + 1 points (exact for the traction data used here)
        pts_1d, wts_1d = gauss_rule_1d(mesh.order + 1)
        vals, ders = _lagrange_1d(mesh.order, pts_1d)
        for tag, spec in tractions.items():
            if tag not in mesh.boundary_edges:
                raise UnknownBoundaryTag(tag)
            enodes = mesh.edge_nodes(*np.transpose(mesh.boundary_edges[tag]))
            ecoords = mesh.nodes[enodes]
            tx, ty = np.swapaxes(_interpolate(ecoords, ders), 0, 1)  # tangent
            ds = np.hypot(tx, ty)
            _add_load(f, enodes, vals, wts_1d * ds, ecoords, spec)
    return f


def assemble(mesh, mp, frame, variant, body_force=None, tractions=None):
    """Assemble the global stiffness and load for one formulation variant.

    The load is `load_vector(mesh, body_force, tractions)`.
    """
    if variant.order != mesh.order:
        raise ValueError(f"{variant.value} needs an order-{variant.order} mesh")
    full = mesh.cached("moments", lambda: moments(mesh.nodes[mesh.elements], mesh.order))
    reduced = None
    if variant.reduced:
        reduced = mesh.cached("reduced moments",
                              lambda: moments(mesh.nodes[mesh.elements], 1, reduced=True))
    Ke = stiffness_blocks(mp, frame, variant, full, reduced)
    pattern = _pattern(mesh)
    data = np.bincount(pattern.slots().ravel(), Ke.ravel(), pattern.indices.size)
    return LinearSystem(data=data, load=load_vector(mesh, body_force, tractions), mesh=mesh,
                        variant=variant, frame=frame)


def apply_dirichlet(system, bcs=None, node_constraints=()):
    """Record Dirichlet constraints on the system.

    bcs: tag -> field function or constant, called once on the tag's nodes,
    giving exactly (gx, gy); a component given as None is left free.
    node_constraints: iterable of (node, component, value) for pointwise
    pins, node an integer in [0, n_nodes) and component 0 or 1.  Returns the
    system, its `constrained` updated only if all evaluate.
    """
    mesh = system.mesh
    constrained = {}
    for tag, func in (bcs or {}).items():
        if tag not in mesh.boundary_nodes:
            raise UnknownBoundaryTag(tag)
        nodes = np.array(mesh.boundary_nodes[tag], dtype=int)
        x, y = mesh.nodes[nodes].T
        gx, gy = func(x, y) if callable(func) else func
        for comp, g in enumerate((gx, gy)):
            if g is not None:
                dofs = (2 * nodes + comp).tolist()
                constrained.update(zip(dofs, _at_points(g, x, y, ()).tolist()))
    for node, comp, value in node_constraints:
        # bool is an int, and True == 1: a flag is no node or component
        is_flag = isinstance(node, (bool, np.bool_)) or isinstance(comp, (bool, np.bool_))
        is_node = isinstance(node, (int, np.integer)) and 0 <= node < mesh.n_nodes
        if is_flag or not is_node or comp not in (0, 1):
            raise ValueError(f"pin ({node!r}, {comp!r}) not in [0, {mesh.n_nodes}) x {{0, 1}}")
        constrained[2 * int(node) + int(comp)] = float(value)
    system.constrained.update(constrained)
    return system


def _reduced(system):
    """Free dofs F, u holding the prescribed values (zero on F), and K_FF
    (CSC) and rhs = (f - K u)_F of the eliminated system."""
    constrained = system.constrained
    fixed = np.fromiter(constrained, np.intp, len(constrained))
    values = np.fromiter(constrained.values(), float, len(constrained))
    u = np.zeros(system.n_dofs)
    u[fixed] = values
    mask = np.ones(system.n_dofs, dtype=bool)
    mask[fixed] = False
    mesh = system.mesh
    dofs = (2 * mesh.dissection[:, None] + [0, 1]).ravel()
    free = dofs[mask[dofs]]
    if free.size == 0:
        return free, u, None, None
    pattern = _pattern(mesh)
    take, indices, indptr = mesh.cached(
        ("free layout", free.tobytes()), lambda: _free_layout(pattern.indptr, pattern.indices, free))
    K_ff = sp.csc_matrix((system.data[take], indices, indptr), shape=(free.size, free.size))
    # with every prescribed value 0, K u = 0 and rhs = f_F
    f = system.load - system.stiffness @ u if values.any() else system.load
    return free, u, K_ff, f[free]


def solve(system):
    """Direct sparse solve with symmetric elimination of constrained dofs.

    K_ff must be SPD: the free dofs are taken in the mesh's nested-dissection
    order, and splu factorises K_ff in that order with diagonal pivots.
    Other input raises SingularSystem, IndefiniteSystem if a pivot shows K_ff
    is not positive definite, or returns a solution the checks below
    verified."""
    free, u, K_ff, rhs = _reduced(system)
    if free.size == 0:
        return FieldSolution(system.mesh, u)
    try:
        lu = spla.splu(K_ff, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        u_f = lu.solve(rhs)
    except RuntimeError as err:
        raise SingularSystem(str(err)) from err
    # One step of iterative refinement, then a backward-error check.  With
    # coefficient ratios up to 1e9 the plain load-relative residual floors
    # near eps * ||K|| * ||u||, so the contract is normwise backward error.
    r = rhs - K_ff @ u_f
    u_f = u_f + lu.solve(r)
    if not np.all(np.isfinite(u_f)):
        raise SingularSystem("solver produced non-finite values")
    r = rhs - K_ff @ u_f
    norm_K = _norm_inf(K_ff)
    denom = max(norm_K * np.linalg.norm(u_f) + np.linalg.norm(rhs), 1e-300)
    residual = np.linalg.norm(r) / denom
    if residual > 1e-10:
        raise SingularSystem(f"backward error {residual} exceeds 1e-10")
    del K_ff  # release K_FF's data before lu.U copies the factors
    # An exactly rank-deficient matrix can slip through factorisation with
    # roundoff-sized pivots; flag those explicitly.  With the rows in their
    # own order (perm_r the identity) the factorisation is a symmetric LDL^T,
    # and the signs of the pivots are the inertia of K_ff.
    pivots = lu.U.diagonal()
    size = np.abs(pivots)
    if size.min() <= 1e-13 * size.max():
        raise SingularSystem("factorisation produced a negligible pivot")
    negative = np.count_nonzero(pivots < 0)
    perm = lu.perm_r
    permuted = (perm[1:] <= perm[:-1]).any()  # a permutation is the identity iff increasing
    if negative or permuted:
        raise IndefiniteSystem(
            f"K_ff is not positive definite: {negative} negative pivots"
            + (", rows pivoted off the diagonal" if permuted else "")
        )
    u[free] = u_f
    return FieldSolution(system.mesh, u)


def _norm_inf(A):
    """Infinity norm (largest absolute row sum) of a CSC matrix, from its
    arrays: spla.norm(A, np.inf) would first build an absolute-value copy."""
    return np.bincount(A.indices, np.abs(A.data), A.shape[0]).max()


def _error_rule(mesh):
    """Shape values, physical gradients and weight * det J (`geometry`) on
    the rule two orders above the element order, and its points' x and y.
    The gradients are laid out (E, n, 2q), [e, a, 2k + j] = dN_a/dx_j at
    point k, so that one (2, n) @ (n, 2q) product per element gives a
    field's gradient at every point."""
    coords = mesh.nodes[mesh.elements]
    vals, dN, wdet = geometry(coords, mesh.order, mesh.order + 2)
    E, q, n, _ = dN.shape
    dN = np.swapaxes(dN, 1, 2).reshape(E, n, 2 * q)
    return (vals, dN, wdet, *np.swapaxes(_interpolate(coords, vals), 0, 1))


def h1_error(solution, exact_u, exact_grad, relative=False):
    """Full H1 and L2 errors against exact displacement and gradient fields.

    exact_u -> (u, v) and exact_grad -> ((ux, uy), (vx, vy)), du_i/dx_j, are
    field functions or constants, each called once on all quadrature points.
    Quadrature is two orders above the element order.  With relative=True
    both errors are normalized by the corresponding norms of the exact field.
    """
    mesh = solution.mesh
    vals, dN, wdet, x, y = mesh.cached("error rule", lambda: _error_rule(mesh))
    ue = solution.displacements.reshape(-1, 2).take(mesh.elements, axis=0)  # (E, n, 2)
    uh = np.swapaxes(_interpolate(ue, vals), 1, 2)
    Gh = np.swapaxes(ue, 1, 2) @ dN                            # (E, 2, 2q)
    Gh = np.swapaxes(Gh.reshape(x.shape[0], 2, -1, 2), 1, 2)   # du_i/dx_j
    ux = _at_points(exact_u, x, y, (2,))
    Gx = _at_points(exact_grad, x, y, (2, 2))
    l2_sq = np.sum(wdet * np.sum((uh - ux) ** 2, axis=-1))
    grad_sq = np.sum(wdet * np.sum((Gh - Gx) ** 2, axis=(-2, -1)))
    exact_l2_sq = np.sum(wdet * np.sum(ux**2, axis=-1))
    exact_h1_sq = exact_l2_sq + np.sum(wdet * np.sum(Gx**2, axis=(-2, -1)))
    l2 = np.sqrt(l2_sq)
    h1 = np.sqrt(l2_sq + grad_sq)
    if relative:
        l2 /= max(np.sqrt(exact_l2_sq), 1e-300)
        h1 /= max(np.sqrt(exact_h1_sq), 1e-300)
    return h1, l2
