"""Global assembly, boundary conditions, linear solve, and error norms.

Degrees of freedom are interleaved: node i owns dofs (2i, 2i+1) for the
x and y displacement components.  K is gathered onto the mesh's cached CSR
pattern (`QuadMesh.pattern`): one bincount of the element matrices over each
entry's slot, with nothing sorted per assembly.  Dirichlet constraints are
eliminated at solve time: the free dofs F solve K_FF u_F = (f - K u)_F, where
u holds the prescribed values, zero on F.  The assembled matrix always covers
all dofs.  F lists the free dofs node by node in the mesh's nested-dissection
order (`QuadMesh.dissection`), and K_FF is gathered from K's data, already
permuted, through the mesh's layout for F (`QuadMesh.free_layout`) and
factorised with no further ordering.  A LinearSystem holds K's values on its
mesh's pattern, so every system takes this one path.

Field functions (body force, tractions, Dirichlet data, exact solutions) are
called once each as func(x, y) on coordinate arrays of quadrature points
(E, q) or boundary nodes (n,).  They return nested components, (u, v) or
((ux, uy), (vx, vy)), as tuples, lists or leading axes of an array ending in
x's axes; each is a scalar or broadcasts to x.shape.  A constant stands for
its value.  Components not nested to the expected shape raise ValueError.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import getitem

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


@dataclass
class LinearSystem:
    data: np.ndarray             # K's values on mesh.pattern
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
        pattern = self.mesh.pattern
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
    comps = [np.broadcast_to(reduce(getitem, i, val), x.shape) for i in np.ndindex(shape)]
    return np.stack(comps, axis=-1, dtype=float).reshape(x.shape + shape)


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


def assemble(mesh, mp, frame, variant, body_force=None, tractions=None):
    """Assemble the global stiffness and load for one formulation variant.

    body_force and each tractions[tag] are field functions or constants with
    components (fx, fy); each is called once (see the module docstring).
    """
    if variant.order != mesh.order:
        raise ValueError(f"{variant.value} needs an order-{variant.order} mesh")
    conn = mesh.elements
    full = mesh.cached("moments", lambda: moments(mesh.nodes[conn], mesh.order))
    reduced = None
    if variant.reduced:
        reduced = mesh.cached("reduced moments",
                              lambda: moments(mesh.nodes[conn], 1, reduced=True))
    Ke = stiffness_blocks(mp, frame, variant, full, reduced)
    pattern = mesh.pattern
    data = np.bincount(pattern.slots().ravel(), Ke.ravel(), pattern.indices.size)

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

    return LinearSystem(data=data, load=f, mesh=mesh, variant=variant, frame=frame)


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
        is_node = isinstance(node, (int, np.integer)) and 0 <= node < mesh.n_nodes
        if not is_node or comp not in (0, 1):
            raise ValueError(f"pin ({node!r}, {comp!r}) not in [0, {mesh.n_nodes}) x {{0, 1}}")
        constrained[2 * int(node) + int(comp)] = float(value)
    system.constrained.update(constrained)
    return system


def _reduced(system):
    """Free dofs F, u holding the prescribed values (zero on F), and K_FF
    (CSC) and rhs = (f - K u)_F of the eliminated system."""
    u = np.zeros(system.n_dofs)
    u[list(system.constrained)] = list(system.constrained.values())
    mask = np.ones(system.n_dofs, dtype=bool)
    mask[list(system.constrained)] = False
    mesh = system.mesh
    dofs = (2 * mesh.dissection[:, None] + [0, 1]).ravel()
    free = dofs[mask[dofs]]
    if free.size == 0:
        return free, u, None, None
    take, indices, indptr = mesh.free_layout(free)
    K_ff = sp.csc_matrix((system.data[take], indices, indptr), shape=(free.size, free.size))
    return free, u, K_ff, (system.load - system.stiffness @ u)[free]


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
    permuted = not np.array_equal(lu.perm_r, np.arange(free.size))
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
    the rule two orders above the element order, and its points' x and y."""
    coords = mesh.nodes[mesh.elements]
    vals, dN, wdet = geometry(coords, mesh.order, mesh.order + 2)
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
    ue = solution.displacements.reshape(-1, 2)[mesh.elements]  # (E, n, 2)
    uh = np.swapaxes(_interpolate(ue, vals), 1, 2)
    Gh = np.swapaxes(ue, 1, 2)[:, None] @ dN                   # du_i/dx_j
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
