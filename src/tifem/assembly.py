"""Global assembly, boundary conditions, linear solve, and error norms.

Degrees of freedom are interleaved: node i owns dofs (2i, 2i+1) for the
x and y displacement components.  Dirichlet constraints are eliminated at
solve time: the free dofs F solve K_FF u_F = (f - K u)_F, where u holds the
prescribed values, zero on F.  The assembled matrix always covers all dofs.
K u is taken from K's rows of the fixed dofs with nonzero values, which K's
exact symmetry makes its columns.
F lists the free dofs in ascending number, the order in which the mesh
numbers its nodes for elimination, and K_FF is factorised in that order.

This module alone builds, slices and factorises sparse matrices, and does
their bookkeeping once per mesh, not per assembly (George and Liu, Computer
Solution of Large Sparse Positive Definite Systems, 1981), in the mesh's
cache (`QuadMesh.cached`).  `_pattern` is the CSR pattern of K and where
every element-matrix entry goes in its data, so K is accumulated chunk by
chunk of elements (`elements.element_chunks`, about 2^16 matrix entries
each): each chunk's element matrices are added into K's data at their
entries' slots with np.add.at, unbuffered and in element order, the order in
which one bincount of all of them would add them, with nothing sorted per
assembly and no temporary the length of the mesh's element matrices.
`_free_layout` is, for each set F solved for, the CSC layout of K_FF as a
boolean mask over K's data: K's exact symmetry makes K's rows of F, cut to
F's columns, K_FF's columns, so K_FF's data is K's data where the mask holds,
in K's order.  A LinearSystem holds K's values on its mesh's pattern, so
every K and K_FF of a mesh takes this one path, and its `stiffness` is K as
a CSC view of them, nothing copied: K's CSR arrays are its CSC arrays.

Elimination (`eliminate`) cuts K_FF and rhs from a system, and `solve`
factorises what it gives, eliminating a system first.  A sweep eliminates
each system before its solve and drops it, so K's values are not alive at
the factorisation, and before the last factorisation on a mesh it drops
the mesh's moments, pattern and K_FF layouts too (`release`), so that the
factorisation's memory is its factors' and K_FF's.

Both layouts and every mat-vec are numpy, and give the arrays and the bits
that scipy.sparse gives.  K_FF's mat-vec and its norm ||K_FF||_inf go over
blocks of columns of about 2^16 stored entries (`_column_blocks`), so that
no temporary of theirs is as long as K_FF's data: each adds its terms into
the rows with np.add.at, unbuffered and in storage order, so every row sums
them in the order of scipy's CSC mat-vec.  scipy is used for its SuperLU
extension alone, which the import system finds in scipy's directory and
loads under its own name (`_load_superlu`), so that no scipy module is
imported: scipy.sparse would add about 0.2 s to every command's start.
`_factorise` calls its `gstrf` with exactly the arguments that
scipy.sparse.linalg.splu(K_FF, permc_spec="NATURAL",
diag_pivot_thresh=0.0, panel_size=2, options=dict(SymmetricMode=True))
passes it.  gstrf's panel workspace is n x width, and 72% of the
supernodes of the panels' nested-dissection order are one or two columns
wide, so a width of 2 in place of the compiled default 20 saves memory and
moves the solution at roundoff only.  Above 20, scipy 1.17.1's SuperLU
corrupts the heap, so a test holds the width at most 20.  The solve's memory
is then the factors' and K_FF's.  `solve` reads the pivots in place from the
factor object's L, SuperLU's supernodal store (SCformat; Demmel, Eisenstat,
Gilbert, Li and Liu, SIMAX 20, 1999), through `ctypes` and numpy views of
its arrays, and never builds the CSC copies of L and U that the object's `L`
and `U` serve.
`gstrf` and that layout are private to scipy.  They were checked on scipy
1.17.1; pyproject.toml asks for 1.15 or later, the oldest series the CI
installs.  At import a 3 x 3 factorisation must give the pivots of its `U`
bit for bit, so a release that moves the file, changes the call or changes
the layout raises ImportError, and the oracle tests in tests/test_sparse.py
check both against `splu`.

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

import ctypes
import importlib.machinery
import importlib.util
from dataclasses import dataclass, field
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .elements import (
    _BLOCK, FormulationVariant, _interpolate, _lagrange_1d, element_chunks, gauss_rule_1d,
    geometry, gradient_coefficients, moments, stiffness_blocks,
)


class UnknownBoundaryTag(KeyError):
    pass


class SingularSystem(ValueError):
    """The constrained system is singular (e.g. unresolved rigid-body modes)."""


class IndefiniteSystem(SingularSystem):
    """K_FF is not positive definite: its diagonal-pivoted factorisation has a
    negative pivot, or had to pivot a row off the diagonal."""


class CSC(NamedTuple):
    """A square sparse matrix in compressed sparse column form: column j
    holds rows indices[indptr[j]:indptr[j + 1]] with values data there."""
    data: np.ndarray
    indices: np.ndarray          # int32
    indptr: np.ndarray           # int32

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def __matmul__(self, x):
        """The product with a vector, with the bits of scipy's CSC mat-vec:
        each entry adds its terms in storage order, column block by column
        block (`_column_blocks`), so no temporary has the data's length.
        np.add.at adds them unbuffered, in the order given."""
        y = np.zeros(x.size)
        for c0, c1, p0, p1 in _column_blocks(self.indptr):
            terms = np.repeat(x[c0:c1], np.diff(self.indptr[c0 : c1 + 1]))
            np.multiply(terms, self.data[p0:p1], out=terms)
            np.add.at(y, self.indices[p0:p1], terms)
        return y


def _column_blocks(indptr):
    """(c0, c1, p0, p1) for consecutive blocks of a CSC's columns, columns c0
    to c1 - 1 holding entries p0 to p1 - 1: each block starts at the first
    column at or past a multiple of _BLOCK in the data."""
    cuts = np.searchsorted(indptr, np.arange(_BLOCK, indptr[-1], _BLOCK)).tolist()
    bounds = list(dict.fromkeys([0, *cuts, indptr.size - 1]))  # ascending, without repeats
    starts = indptr.take(bounds).tolist()
    return zip(bounds[:-1], bounds[1:], starts[:-1], starts[1:])


class StiffnessPattern(NamedTuple):
    """CSR pattern of K over the interleaved dofs and where each element
    entry goes: entry (2l + a, 2m + b) of element e sits at
    block[e, l, m] + a step[e, l] + b in the data."""
    indptr: np.ndarray           # (2 n_nodes + 1,) int32
    indices: np.ndarray          # (nnz,) int32, sorted within each row
    block: np.ndarray            # (E, n, n) int32 data index of each node pair's entry (2i, 2j)
    step: np.ndarray             # (E, n) int32 data distance from dof row 2i to row 2i + 1

    def slots(self, e0, e1):
        """(2, 2, e1 - e0, n, n) index into the data of every element-matrix
        entry of elements e0 to e1 - 1: [a, b, e, l, m] holds that of entry
        (2l + a, 2m + b) of element e0 + e.  It is built as np.intp, the
        index type np.add.at would convert it to."""
        block = self.block[e0:e1]
        slot = np.empty((2, 2) + block.shape, np.intp)
        slot[0, 0] = block
        slot[1, 0] = block + self.step[e0:e1, :, None]
        slot[:, 1] = slot[:, 0] + 1
        return slot


def _stiffness_pattern(elements, n_nodes):
    """StiffnessPattern of a connectivity.

    The E n^2 node pairs (i, j) are sorted once by the key i n_nodes + j and
    the distinct ones kept: that is the node pattern in CSR, ptr[i] where
    row i starts and deg[i] its length.  Every node pair owns the 2 x 2 dof
    block (2i + a, 2j + b), so the dof pattern is the node pattern with
    blocks for entries, and the rest is arithmetic: dof row 2i + a starts
    4 ptr[i] + 2 a deg[i] into the data and holds node row i's columns j as
    2j, 2j + 1, and a node pair at s - ptr[i] into its row sits at twice
    that into each of its dof rows.  Only the node-pair index is kept per
    element entry; `slots` expands it to the dofs, chunk by chunk of
    elements, for each assembly.
    """
    E, n = elements.shape
    itype = np.int32 if n_nodes * n_nodes < 2**31 else np.int64
    nodes = elements.astype(itype)
    keys = (nodes[:, :, None] * itype(n_nodes) + nodes[:, None, :]).ravel()
    order = np.argsort(keys)
    keys = keys.take(order)
    first = np.empty(keys.size, bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    s = np.empty(keys.size, np.int32)
    s[order] = np.cumsum(first, dtype=np.int32) - 1
    keys = keys[first]
    ptr = np.searchsorted(keys, np.arange(n_nodes + 1, dtype=itype) * itype(n_nodes)).astype(np.int32)
    deg = np.diff(ptr)
    # node row i's columns twice over, for its dof rows 2i and 2i + 1
    twice = np.arange(2 * keys.size) - np.repeat(np.repeat(ptr, 2)[1:-1], np.repeat(deg, 2))
    indices = np.empty((twice.size, 2), np.int32)
    np.multiply((keys % itype(n_nodes)).take(twice), 2, out=indices[:, 0], casting="unsafe")
    np.add(indices[:, 0], 1, out=indices[:, 1])
    indptr = np.empty(2 * n_nodes + 1, np.int32)
    indptr[0::2] = 4 * ptr
    indptr[1::2] = indptr[:-1:2] + 2 * deg
    return StiffnessPattern(indptr, indices.ravel(), 2 * (s.reshape(E, n, n) + ptr[elements][:, :, None]),
                            (2 * deg)[elements])


def _free_layout(indptr, indices, free):
    """K_FF = K[free][:, free] in CSC, scipy's arrays, as (keep, indices,
    indptr) with data K.data[keep], for ascending free and every K on this
    CSR pattern that is symmetric bit for bit: K_FF's column of free dof j is
    K's row j cut to the free columns, entry (i, j) read from K's (j, i).
    keep is a boolean mask over K's data, true on the entries whose row and
    column are both free, which it keeps in their storage order."""
    index = np.full(indptr.size - 1, -1, np.int32)
    index[free] = np.arange(free.size, dtype=np.int32)
    is_free = index >= 0
    keep = np.repeat(is_free, np.diff(indptr))
    keep &= is_free.take(indices)
    ptr = np.zeros(free.size + 1, np.int32)
    ptr[1:] = np.cumsum(keep, dtype=np.int32).take(indptr.take(free + 1) - 1)
    return keep, index.take(indices[keep]), ptr


def _load_superlu():
    """scipy's SuperLU extension, found by the import system in scipy's
    _dsolve directory and loaded under its own name: importing it from
    scipy.sparse.linalg would import all of scipy.sparse, and scipy's
    directory is found without running its __init__."""
    dsolve = Path(importlib.util.find_spec("scipy").origin).parent / "sparse" / "linalg" / "_dsolve"
    spec = importlib.machinery.PathFinder.find_spec("_superlu", [str(dsolve)])
    if spec is None:
        raise ImportError(f"no SuperLU extension _superlu in {dsolve}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_superlu = _load_superlu()
# the options scipy.sparse.linalg.splu(A, permc_spec="NATURAL",
# diag_pivot_thresh=0.0, panel_size=2, options=dict(SymmetricMode=True))
# passes to gstrf; PanelSize stays at most 20 (see the module docstring)
_SPLU_OPTIONS = dict(DiagPivotThresh=0.0, ColPerm="NATURAL", PanelSize=2, Relax=None,
                     SymmetricMode=True)


def _factorise(K_ff):
    """SuperLU's factors of K_ff in its own column order, pivoting on the
    diagonal where it can: splu's call, with L and U read as CSC."""
    return _superlu.gstrf(K_ff.indptr.size - 1, K_ff.nnz, K_ff.data, K_ff.indices, K_ff.indptr,
                          csc_construct_func=_factor_csc, ilu=False, options=_SPLU_OPTIONS)


def _factor_csc(arrays, shape):
    """SuperLU's arrays of L or U, their storage cut to the entries."""
    data, indices, indptr = arrays
    return CSC(data[: indptr[-1]], indices[: indptr[-1]], indptr)


class _SuperMatrix(ctypes.Structure):
    """SuperLU's SuperMatrix: storage, value and shape kinds, size, store."""
    _fields_ = [("Stype", ctypes.c_int), ("Dtype", ctypes.c_int), ("Mtype", ctypes.c_int),
                ("nrow", ctypes.c_int), ("ncol", ctypes.c_int), ("Store", ctypes.c_void_p)]


class _SuperLUObject(ctypes.Structure):
    """scipy's SuperLU object as its C struct lays it out."""
    _fields_ = [("head", ctypes.c_char * object.__basicsize__),
                ("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("L", _SuperMatrix), ("U", _SuperMatrix),
                ("perm_r", ctypes.c_void_p), ("perm_c", ctypes.c_void_p),
                ("cached_U", ctypes.c_void_p), ("cached_L", ctypes.c_void_p),
                ("csc_construct_func", ctypes.c_void_p), ("type", ctypes.c_int)]


class _SCformat(ctypes.Structure):
    """L's supernodal store.  Supernode s holds columns sup_to_col[s] to
    sup_to_col[s + 1] - 1 as one dense block, column j's values from
    nzval[nzval_colptr[j]], its rows rowind[rowind_colptr[sup_to_col[s]]:]
    in P A's row order, the supernode's own columns first."""
    _fields_ = [("nnz", ctypes.c_int), ("nsuper", ctypes.c_int), ("nzval", ctypes.c_void_p),
                ("nzval_colptr", ctypes.c_void_p), ("rowind", ctypes.c_void_p),
                ("rowind_colptr", ctypes.c_void_p), ("col_to_sup", ctypes.c_void_p),
                ("sup_to_col", ctypes.c_void_p)]


_SLU_SC, _SLU_D = 3, 1  # L's Stype and Dtype: supernodal, double


class _Memory:
    """count values of a numpy type at an address, described to numpy by its
    array interface, read-only: numpy takes the type as given, where a ctypes
    array type would have it infer one in Python on every view."""

    def __init__(self, address, count, typestr):
        self.__array_interface__ = dict(data=(address, True), shape=(count,), typestr=typestr,
                                        version=3)


_INT, _DOUBLE = np.dtype(np.intc).str, np.dtype(np.double).str  # C int, double


def _view(address, count, typestr):
    """The count typestr values at address, as numpy's view of that memory."""
    return np.asarray(_Memory(address, count, typestr))


def _pivots(lu):
    """A copy of the n pivots of a factor object of `_factorise`, read in
    place: column j's pivot is entry j - sup_to_col[col_to_sup[j]] of its
    column in L's store, the diagonal of its supernode's block, and its row
    must read j.  The views into SuperLU's memory end with this call."""
    obj = _SuperLUObject.from_address(id(lu))
    n = obj.n
    L = obj.L
    store = _SCformat.from_address(L.Store)
    # what the object also shows publicly (U's store, an NCformat, starts
    # with its nnz), and L's kinds and size
    if ((obj.m, n) != lu.shape or (L.Stype, L.Dtype, L.nrow, L.ncol) != (_SLU_SC, _SLU_D, n, n)
            or store.nnz + ctypes.c_int.from_address(obj.U.Store).value != lu.nnz
            or not np.array_equal(_view(obj.perm_r, n, _INT), lu.perm_r)
            or not np.array_equal(_view(obj.perm_c, n, _INT), lu.perm_c)):
        raise RuntimeError("SuperLU's factor object does not match its public attributes")
    first = _view(store.sup_to_col, store.nsuper + 1, _INT).take(
        _view(store.col_to_sup, n, _INT))
    offset = np.arange(n, dtype=np.intc) - first
    rowptr = _view(store.rowind_colptr, n + 1, _INT)
    rows = _view(store.rowind, rowptr[n], _INT).take(rowptr.take(first) + offset)
    if (rows != np.arange(n)).any():
        raise RuntimeError("SuperLU's L has a column whose pivot is not on its diagonal")
    at = _view(store.nzval_colptr, n + 1, _INT)
    return _view(store.nzval, at[n], _DOUBLE).take(at[:n] + offset)


def _check_pivot_layout():
    """Raise ImportError unless `_pivots` reads this scipy's factors: the size
    of its SuperLU object, and the pivots of a 3 x 3 bit for bit."""
    lu = _factorise(CSC(np.array([4.0, 1.0, 1.0, 5.0, 2.0, 2.0, 6.0]),
                        np.array([0, 1, 0, 1, 2, 1, 2], np.int32), np.array([0, 2, 5, 7], np.int32)))
    U = lu.U
    try:
        same = (type(lu).__basicsize__ == ctypes.sizeof(_SuperLUObject)
                and _pivots(lu).tobytes() == U.data.take(U.indptr[1:] - 1).tobytes())
    except (RuntimeError, IndexError):
        same = False
    if not same:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} lays out SuperLU's factors "
                          "otherwise than tifem.assembly reads them")


_check_pivot_layout()


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
        """K as a CSC view of data on the mesh's pattern, nothing copied: K
        is symmetric bit for bit, so its CSR arrays are its CSC arrays."""
        pattern = _pattern(self.mesh)
        return CSC(self.data, pattern.indices, pattern.indptr)


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

    K's values are accumulated over chunks of elements (see the module
    docstring).  The load is `load_vector(mesh, body_force, tractions)`.
    """
    if variant.order != mesh.order:
        raise ValueError(f"{variant.value} needs an order-{variant.order} mesh")
    sets = mesh.cached("moments", lambda: moments(mesh.nodes[mesh.elements], mesh.order))
    pattern = _pattern(mesh)
    coefficients = gradient_coefficients(mp, frame, variant)
    data = np.zeros(pattern.indices.size)
    for e0, e1 in element_chunks(*mesh.elements.shape):
        Ke = stiffness_blocks(coefficients, *(M[:, e0:e1] for M in sets))
        # flat: np.add.at takes its fast path on one-dimensional operands only
        np.add.at(data, pattern.slots(e0, e1).ravel(), Ke.ravel())
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


class Eliminated(NamedTuple):
    """A system with its Dirichlet constraints eliminated: its free dofs F, u
    holding the prescribed values (zero on F), K_FF and rhs = (f - K u)_F,
    and its mesh.  It holds neither K's values nor the system."""
    free: np.ndarray
    u: np.ndarray
    K_ff: object                 # CSC, or None if no dof is free
    rhs: object                  # (F,) array, or None if no dof is free
    mesh: object


def eliminate(system):
    """The system with its Dirichlet constraints eliminated, an Eliminated."""
    constrained = system.constrained
    fixed = np.fromiter(constrained, np.intp, len(constrained))
    values = np.fromiter(constrained.values(), float, len(constrained))
    u = np.zeros(system.n_dofs)
    u[fixed] = values
    mask = np.ones(system.n_dofs, dtype=bool)
    mask[fixed] = False
    free = np.flatnonzero(mask)
    mesh = system.mesh
    if free.size == 0:
        return Eliminated(free, u, None, None, mesh)
    pattern = _pattern(mesh)
    keep, indices, indptr = mesh.cached(
        ("free layout", free.tobytes()), lambda: _free_layout(pattern.indptr, pattern.indices, free))
    K_ff = CSC(system.data[keep], indices, indptr)
    f = system.load
    if values.any():  # else K u = 0 and rhs = f_F
        # K u from the rows of the dofs j where u_j != 0, in ascending j.  K
        # is symmetric bit for bit, so row j holds column j, and entry i sums
        # K_ij u_j in the order scipy's CSR mat-vec sums row i; the terms it
        # also adds where u_j = 0 are zeros, which change no sum from +0.
        nonzero = np.flatnonzero(u)
        start = pattern.indptr.take(nonzero)
        count = pattern.indptr.take(nonzero + 1) - start
        at = np.arange(count.sum()) + np.repeat(start + count - np.cumsum(count), count)
        terms = system.data.take(at) * np.repeat(u.take(nonzero), count)
        f = f - np.bincount(pattern.indices.take(at), terms, system.n_dofs)
    return Eliminated(free, u, K_ff, f[free], mesh)


def release(mesh):
    """Drop from the mesh's cache what only assembly and elimination read:
    its moments, its pattern and its K_FF layouts.  Each is built again on
    its next use."""
    mesh.forget("moments", "pattern", "free layout")


def solve(system):
    """Direct sparse solve with symmetric elimination of constrained dofs.

    system is a LinearSystem, which is eliminated first, or an Eliminated.
    K_ff must be SPD: SuperLU factorises it with diagonal pivots in the
    order of the free dofs, the mesh's elimination order.
    Other input raises SingularSystem, IndefiniteSystem if a pivot shows K_ff
    is not positive definite, or returns a solution the checks below
    verified."""
    free, u, K_ff, rhs, mesh = system if isinstance(system, Eliminated) else eliminate(system)
    u = u.copy()  # an Eliminated may be solved again
    if free.size == 0:
        return FieldSolution(mesh, u)
    try:
        lu = _factorise(K_ff)
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
    # An exactly rank-deficient matrix can slip through factorisation with
    # roundoff-sized pivots; flag those explicitly.  With the rows in their
    # own order (perm_r the identity) the factorisation is a symmetric LDL^T,
    # and the signs of the pivots are the inertia of K_ff.  The pivots are
    # read in place from L's supernodal store, without copying the factors.
    pivots = _pivots(lu)
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
    return FieldSolution(mesh, u)


def _norm_inf(A):
    """Infinity norm (largest absolute row sum) of any square CSC, from its
    arrays.  Each row sum adds its entries in storage order, block by block
    of `_column_blocks`, so no temporary has the data's length."""
    sums = np.zeros(A.indptr.size - 1)
    for _, _, p0, p1 in _column_blocks(A.indptr):
        np.add.at(sums, A.indices[p0:p1], np.abs(A.data[p0:p1]))
    return sums.max()


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
    # the components' sums are written out in np.sum's order over these
    # short axes, left to right, without its per-call cost
    d = (uh - ux) ** 2
    l2_sq = np.sum(wdet * (d[..., 0] + d[..., 1]))
    e = (Gh - Gx) ** 2
    grad_sq = np.sum(wdet * (((e[..., 0, 0] + e[..., 0, 1]) + e[..., 1, 0]) + e[..., 1, 1]))
    d = ux**2
    exact_l2_sq = np.sum(wdet * (d[..., 0] + d[..., 1]))
    e = Gx**2
    exact_grad_sq = np.sum(wdet * (((e[..., 0, 0] + e[..., 0, 1]) + e[..., 1, 0]) + e[..., 1, 1]))
    exact_h1_sq = exact_l2_sq + exact_grad_sq
    l2 = np.sqrt(l2_sq)
    h1 = np.sqrt(l2_sq + grad_sq)
    if relative:
        l2 /= max(np.sqrt(exact_l2_sq), 1e-300)
        h1 /= max(np.sqrt(exact_h1_sq), 1e-300)
    return h1, l2
