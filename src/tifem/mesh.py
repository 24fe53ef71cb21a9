"""Structured quadrilateral meshes for the beam and the tapered Cook panel.

Local nodes follow LOCAL_NODES: Q1 elements carry its first 4 rows, the
corners counterclockwise; Q2 elements append the 4 midside nodes (one per
edge, same ordering) and the center node.  Local edges: 0 = bottom (nodes
0-1), 1 = right (1-2), 2 = top (2-3), 3 = left (3-0).

Every mesh is a structured grid, and QuadMesh.dissection holds a nested-
dissection elimination order of its nodes (George, SIAM J. Numer. Anal.
10(2), 1973): a grid line of element edges separates the nodes on either
side exactly, so each block of the grid is cut across its longer side at the
middle such line, its two halves are ordered first and the line last, down
to blocks with no interior element-edge line.  The linear solve factorises
in this order.

The sparse bookkeeping of the stiffness is done once per mesh, not per
assembly (George and Liu, Computer Solution of Large Sparse Positive Definite
Systems, 1981): QuadMesh.pattern holds the CSR pattern of K over the
interleaved dofs (node i owns 2i and 2i + 1) and where every element-matrix
entry goes in its data, and QuadMesh.free_layout the CSC layout of K_FF for
the last set of free dofs solved for.  Both are built on first use from the
connectivity as it then is.  A LinearSystem holds K's values on its mesh's
pattern, so every K and K_FF of the mesh shares this bookkeeping.

The floating-point geometry is likewise kept per mesh (QuadMesh.cached): the
material-free element moments that every stiffness on the mesh contracts
(`elements.moments`), and the error rule's shape values, gradients, weights
and points.  Like the pattern, each is built on first use, from the nodes as
they are at that time.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# 1D node indices (i, j) of each local node in the basis at (-1, 1, 0); the
# shape functions and the connectivity both derive from this one table.
LOCAL_NODES = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (1, 2), (2, 1), (0, 2), (2, 2)])
# Local nodes of each local edge: endpoints, then the midside node (Q2 only).
_EDGE_LOCAL = np.array([(0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 0, 7)])

COOK_CORNERS = np.array([(0.0, 0.0), (48.0, 44.0), (48.0, 60.0), (0.0, 44.0)])


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
        [a, b, e, l, m] holds that of entry (2l + a, 2m + b) of element e."""
        slot = np.empty((2, 2) + self.block.shape, np.int32)
        slot[0, 0] = self.block
        slot[1, 0] = self.block + self.step[:, :, None]
        slot[:, 1] = slot[:, 0] + 1
        return slot


@dataclass
class QuadMesh:
    nodes: np.ndarray            # (n_nodes, 2)
    elements: np.ndarray         # (n_elems, 4) or (n_elems, 9)
    boundary_edges: dict         # tag -> list of (element, local edge)
    boundary_nodes: dict         # tag -> sorted node index list
    h: float                     # max element diameter
    order: int                   # 1 or 2
    dissection: np.ndarray       # (n_nodes,) node elimination order
    _layout: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @functools.cached_property
    def pattern(self):
        """The StiffnessPattern of this mesh's dofs; its arrays are read-only,
        as every matrix assembled on it shares them."""
        return _stiffness_pattern(self.elements, self.n_nodes)

    def free_layout(self, free):
        """_free_layout of self.pattern for the free dofs `free`.  The last
        free set's layout is kept, so a sweep under fixed constraints slices
        the pattern once."""
        key = free.tobytes()
        if key not in self._layout:
            self._layout.clear()
            self._layout[key] = _free_layout(self.pattern.indptr, self.pattern.indices, free)
        return self._layout[key]

    def cached(self, key, build):
        """build(), an array or a tuple of arrays, on the first call with this
        key, kept read-only for every later call: the element moments and the
        error rule's geometry are built once per mesh, like the pattern, from
        the nodes as they are at that time."""
        if key not in self._cache:
            value = build()
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]

    def edge_nodes(self, element, local_edge):
        """Node indices along a local edge, endpoints first, midside last; for
        equal-length arrays of elements and local edges, one row per pair."""
        local = _EDGE_LOCAL[local_edge, : self.order + 1]
        return self.elements[np.asarray(element)[..., None], local]


def _structured_mesh(nx, ny, order, mapping):
    """Grid of nx x ny cells on the unit square, nodes placed by `mapping`."""
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    mx, my = nx * order, ny * order
    s = np.linspace(0.0, 1.0, mx + 1)
    t = np.linspace(0.0, 1.0, my + 1)
    S, T = np.meshgrid(s, t, indexing="xy")
    nodes = mapping(S.ravel(), T.ravel())

    # Grid offsets of each local node from its element's lower-left node.
    di, dj = np.array([0, order, 1])[LOCAL_NODES[: (order + 1) ** 2]].T
    j0, i0 = np.divmod(np.arange(nx * ny)[:, None], nx)
    elements = (j0 * order + dj) * (mx + 1) + i0 * order + di

    boundary_edges = {
        "bottom": [(ex, 0) for ex in range(nx)],
        "right": [(ey * nx + nx - 1, 1) for ey in range(ny)],
        "top": [((ny - 1) * nx + ex, 2) for ex in range(nx)],
        "left": [(ey * nx, 3) for ey in range(ny)],
    }

    corners = elements[:, :4]
    pts = nodes[corners]                      # (E, 4, 2)
    diffs = pts[:, :, None, :] - pts[:, None, :, :]
    h = float(np.sqrt((diffs**2).sum(-1).max()))

    mesh = QuadMesh(
        nodes=nodes,
        elements=elements,
        boundary_edges=boundary_edges,
        boundary_nodes={},
        h=h,
        order=order,
        dissection=_dissection(mx, my, order),
    )
    for tag, pairs in boundary_edges.items():
        mesh.boundary_nodes[tag] = np.unique(mesh.edge_nodes(*np.transpose(pairs))).tolist()
    return mesh


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
    pattern = StiffnessPattern(dofs.indptr, dofs.indices, 2 * (s + ptr[elements][:, :, None]),
                               (2 * np.diff(ptr))[elements])
    for array in pattern:
        array.flags.writeable = False
    return pattern


def _free_layout(indptr, indices, free):
    """K_FF = K[free][:, free] in CSC for every K with this CSR pattern, as
    (take, indices, indptr) with K_FF's data K.data[take].  It is scipy's own
    slice of a copy of the pattern valued by data position, so K_FF has
    exactly the layout that slicing K would give it."""
    n = indptr.size - 1
    P = sp.csr_matrix((np.arange(indices.size, dtype=np.int32), indices, indptr), shape=(n, n))
    P = P[free][:, free].tocsc()
    layout = (P.data, P.indices, P.indptr)
    for array in layout:
        array.flags.writeable = False
    return layout


def _dissection(mx, my, order):
    """Nested-dissection order of the (my + 1) x (mx + 1) node grid.

    Element edges lie on the grid lines whose index is a multiple of
    `order`; a Q2 element straddles each odd line.
    """
    grid = np.arange((mx + 1) * (my + 1)).reshape(my + 1, mx + 1)
    parts = []

    def middle_line(lo, hi):
        # middle element-edge line strictly between lo and hi, or None
        first, last = lo // order + 1, (hi - 1) // order
        return order * ((first + last) // 2) if first <= last else None

    def visit(i0, i1, j0, j1):
        # the block of grid columns i0..i1 and rows j0..j1, bounds included
        si, sj = middle_line(i0, i1), middle_line(j0, j1)
        if si is not None and (sj is None or i1 - i0 >= j1 - j0):
            visit(i0, si - 1, j0, j1)
            visit(si + 1, i1, j0, j1)
            parts.append(grid[j0 : j1 + 1, si])
        elif sj is not None:
            visit(i0, i1, j0, sj - 1)
            visit(i0, i1, sj + 1, j1)
            parts.append(grid[sj, i0 : i1 + 1])
        else:
            parts.append(grid[j0 : j1 + 1, i0 : i1 + 1].ravel())

    visit(0, mx, 0, my)
    return np.concatenate(parts)


def rectangle_mesh(L, H, nx, ny, order=1):
    """Axis-aligned grid over [0, L] x [-H/2, H/2].

    Boundary tags: left, right, top, bottom.
    """
    if L <= 0 or H <= 0:
        raise ValueError("L and H must be positive")

    def mapping(s, t):
        return np.column_stack([L * s, H * (t - 0.5)])

    return _structured_mesh(nx, ny, order, mapping)


def cook_mesh(n, order=1):
    """n x n mesh of the tapered Cook panel.

    Bilinear image of the unit square onto the quadrilateral with corners
    (0,0), (48,44), (48,60), (0,44).  Tags: left (clamped), right (loaded),
    top, bottom, and "tip" for the monitored corner (48, 60).
    """
    p00, p10, p11, p01 = COOK_CORNERS

    def mapping(s, t):
        return (
            np.outer((1 - s) * (1 - t), p00)
            + np.outer(s * (1 - t), p10)
            + np.outer(s * t, p11)
            + np.outer((1 - s) * t, p01)
        )

    mesh = _structured_mesh(n, n, order, mapping)
    tip = int(np.argmin(((mesh.nodes - p11) ** 2).sum(axis=1)))
    mesh.boundary_nodes["tip"] = [tip]
    return mesh
