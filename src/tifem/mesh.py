"""Structured quadrilateral meshes for the beam and the tapered Cook panel.

Local nodes follow LOCAL_NODES: Q1 elements carry its first 4 rows, the
corners counterclockwise; Q2 elements append the 4 midside nodes (one per
edge, same ordering) and the center node.  Local edges: 0 = bottom (nodes
0-1), 1 = right (1-2), 2 = top (2-3), 3 = left (3-0).

Every mesh is a structured grid, its nodes numbered in a nested-dissection
elimination order (George, SIAM J. Numer. Anal. 10(2), 1973): a grid line
of element edges separates the nodes on either side exactly, so each block
of the grid is cut across its longer side at the middle such line, its two
halves are numbered first and the line last, down to blocks with no
interior element-edge line.  The order is built level by level, every block
of a level at once, each placed where the recursion would place it.  The
linear solve factorises the free dofs in ascending number, in this order.

Whatever the solves on a mesh share is kept in the mesh's one cache
(QuadMesh.cached) and built there on first use, from the mesh as it is at
that time: the sparse layout of its stiffness and of K_FF for each set of
free dofs solved for (`assembly._pattern`, `assembly._free_layout`), the
material-free element moments that every stiffness on the mesh contracts
(`elements.moments`), and the error rule's shape values, weights, points and
gradients, the last laid out for one product per element
(`assembly._error_rule`).  What a sweep's driver fixes per mesh, its load
vector and the nodes it reads, the driver keeps next to the mesh
(`benchmarks._sweep`).
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# 1D node indices (i, j) of each local node in the basis at (-1, 1, 0); the
# shape functions and the connectivity both derive from this one table.
LOCAL_NODES = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (1, 2), (2, 1), (0, 2), (2, 2)])
# Local nodes of each local edge: endpoints, then the midside node (Q2 only).
_EDGE_LOCAL = np.array([(0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 0, 7)])

COOK_CORNERS = np.array([(0.0, 0.0), (48.0, 44.0), (48.0, 60.0), (0.0, 44.0)])


@dataclass
class QuadMesh:
    nodes: np.ndarray            # (n_nodes, 2)
    elements: np.ndarray         # (n_elems, 4) or (n_elems, 9)
    boundary_edges: dict         # tag -> list of (element, local edge)
    boundary_nodes: dict         # tag -> sorted node index list
    h: float                     # max element diameter
    order: int                   # 1 or 2
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    def cached(self, key, build):
        """build(), an array or a tuple of arrays, on the first call with this
        key, kept read-only for every later call: the mesh's one cache, which
        assembly and error integration fill (see the module docstring).
        Nothing is evicted, so a mesh keeps one K_FF layout per distinct set
        of free dofs it is solved with; every driver solves a mesh under one."""
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
    grid_nodes = mapping(S.ravel(), T.ravel())

    # Grid offsets of each local node from its element's lower-left node.
    di, dj = np.array([0, order, 1])[LOCAL_NODES[: (order + 1) ** 2]].T
    j0, i0 = np.divmod(np.arange(nx * ny)[:, None], nx)
    elements = (j0 * order + dj) * (mx + 1) + i0 * order + di
    # node k is grid node ordered[k], and grid node g is node rank[g]
    ordered = _dissection(mx, my, order)
    rank = np.empty_like(ordered)
    rank[ordered] = np.arange(ordered.size)

    boundary_edges = {
        "bottom": [(ex, 0) for ex in range(nx)],
        "right": [(ey * nx + nx - 1, 1) for ey in range(ny)],
        "top": [((ny - 1) * nx + ex, 2) for ex in range(nx)],
        "left": [(ey * nx, 3) for ey in range(ny)],
    }

    # the longest of the six corner pairs' distances over the elements, each
    # corner of every element a view of the grid of element corners
    grid = grid_nodes.reshape(my + 1, mx + 1, 2)[::order, ::order]
    corners = grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]
    longest = []
    for a, b in combinations(corners, 2):
        d = (a - b) ** 2
        longest.append((d[..., 0] + d[..., 1]).max())
    h = float(np.sqrt(np.max(longest)))

    mesh = QuadMesh(
        nodes=grid_nodes[ordered],
        elements=rank[elements],
        boundary_edges=boundary_edges,
        boundary_nodes={},
        h=h,
        order=order,
    )
    for tag, pairs in boundary_edges.items():
        mesh.boundary_nodes[tag] = sorted(set(mesh.edge_nodes(*np.transpose(pairs)).ravel().tolist()))
    return mesh


def _dissection(mx, my, order):
    """Nested-dissection order of the (my + 1) x (mx + 1) node grid.

    Element edges lie on the grid lines whose index is a multiple of
    `order`; a Q2 element straddles each odd line.  The order is built level
    by level over arrays of blocks: a block that is cut places its first
    half where its own order starts, its second half after that and its
    line last, and every block that is not cut, and every line, is a
    rectangle of the grid that fills its place row by row.
    """
    # rows (i0, i1, j0, j1, start): the block of grid columns i0..i1 and rows
    # j0..j1, bounds included, whose order starts at position start
    block = np.array([[0, mx, 0, my, 0]])
    placed = []
    while block.size:
        i0, i1, j0, j1, _ = block.T
        si, sj = _middle_line(i0, i1, order), _middle_line(j0, j1, order)
        across = (si >= 0) & ((sj < 0) | (i1 - i0 >= j1 - j0))
        cut = across | (sj >= 0)
        placed.append(block[~cut])
        block = block[cut]
        # the line's grid index, and the bounds it sets: (i0, i1) or (j0, j1)
        line_at = np.where(across, si, sj)[cut]
        rows = np.arange(block.shape[0])
        lo = np.where(across[cut], 0, 2)
        first, second, line = block.copy(), block.copy(), block.copy()
        first[rows, lo + 1] = line_at - 1
        second[rows, lo] = line_at + 1
        line[rows, lo] = line[rows, lo + 1] = line_at
        second[:, 4] += _size(first)
        line[:, 4] = second[:, 4] + _size(second)
        placed.append(line)
        block = np.concatenate([first, second])
    placed = np.concatenate(placed)
    i0, i1, j0, _, start = placed.T
    width, size = i1 - i0 + 1, _size(placed)
    at = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    row, col = np.divmod(at, np.repeat(width, size))
    row += np.repeat(j0, size)
    col += np.repeat(i0, size)
    nodes = np.empty(at.size, np.intp)
    nodes[np.repeat(start, size) + at] = row * (mx + 1) + col
    return nodes


def _middle_line(lo, hi, order):
    """The middle element-edge line strictly between lo and hi of each
    block, or -1 where there is none."""
    first, last = lo // order + 1, (hi - 1) // order
    return np.where(first <= last, order * ((first + last) // 2), -1)


def _size(block):
    """The number of grid nodes in each block (i0, i1, j0, j1, start)."""
    return (block[:, 1] - block[:, 0] + 1) * (block[:, 3] - block[:, 2] + 1)


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
