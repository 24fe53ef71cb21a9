import math

import numpy as np
import pytest

from tifem import cook_mesh, rectangle_mesh
from tifem.elements import gauss_rule, shape_functions
from tifem.mesh import COOK_CORNERS, LOCAL_NODES, _dissection, _structured_mesh


def element_jacobians(mesh, n_gauss=3):
    rule = gauss_rule(n_gauss)
    dets = []
    for conn in mesh.elements:
        coords = mesh.nodes[conn]
        row = []
        for xi in rule.points:
            _, grads = shape_functions(mesh.order, xi)
            J = coords.T @ grads
            row.append(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
        dets.append(row)
    return np.array(dets)


def polygon_area(vertices):
    # shoelace formula, the independent area oracle
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def mesh_area(mesh):
    rule = gauss_rule(2)
    total = 0.0
    for conn in mesh.elements:
        coords = mesh.nodes[conn]
        for xi, w in zip(rule.points, rule.weights):
            _, grads = shape_functions(mesh.order, xi)
            J = coords.T @ grads
            total += w * (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    return total


class TestRectangleMesh:
    def test_single_cell(self):
        mesh = rectangle_mesh(10.0, 2.0, 1, 1, order=1)
        assert mesh.n_nodes == 4
        assert len(mesh.elements) == 1
        assert mesh.h == pytest.approx(math.hypot(10.0, 2.0))
        assert np.allclose(sorted(mesh.nodes[:, 0]), [0, 0, 10, 10])
        assert np.allclose(sorted(mesh.nodes[:, 1]), [-1, -1, 1, 1])

    def test_q2_node_count(self):
        mesh = rectangle_mesh(10.0, 2.0, 5, 1, order=2)
        assert mesh.n_nodes == (5 * 2 + 1) * (1 * 2 + 1)
        assert len(mesh.elements) == 5

    @pytest.mark.parametrize("order", [1, 2])
    def test_node_count_formula(self, order):
        mesh = rectangle_mesh(4.0, 3.0, 3, 2, order=order)
        assert mesh.n_nodes == (3 * order + 1) * (2 * order + 1)

    def test_affine_jacobians(self):
        dets = element_jacobians(rectangle_mesh(10.0, 2.0, 5, 2, order=1))
        assert np.all(dets > 0)
        assert np.allclose(dets, dets[:, :1])  # constant per element

    def test_boundary_tags(self):
        mesh = rectangle_mesh(10.0, 2.0, 4, 2, order=1)
        for tag, coord, value in [
            ("left", 0, 0.0), ("right", 0, 10.0), ("bottom", 1, -1.0), ("top", 1, 1.0),
        ]:
            nodes = mesh.boundary_nodes[tag]
            assert np.allclose(mesh.nodes[nodes][:, coord], value)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rectangle_mesh(10.0, 2.0, 0, 1)
        with pytest.raises(ValueError):
            rectangle_mesh(-1.0, 2.0, 1, 1)
        with pytest.raises(ValueError):
            rectangle_mesh(10.0, 2.0, 1, 1, order=3)
        for size in (math.nan, math.inf, -math.inf):
            for L, H in ((size, 2.0), (10.0, size)):
                with pytest.raises(ValueError, match="^L and H must be positive and finite$"):
                    rectangle_mesh(L, H, 1, 1)


class TestCookMesh:
    def test_corner_nodes(self):
        mesh = cook_mesh(1, order=1)
        for corner in COOK_CORNERS:
            assert np.min(np.abs(mesh.nodes - corner).sum(axis=1)) < 1e-12

    def test_left_edge_midpoint(self):
        mesh = cook_mesh(2, order=1)
        assert np.min(np.abs(mesh.nodes - [0.0, 22.0]).sum(axis=1)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_positive_jacobians(self, n):
        assert np.all(element_jacobians(cook_mesh(n, order=1)) > 0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_area_matches_shoelace(self, order):
        mesh = cook_mesh(6, order=order)
        assert mesh_area(mesh) == pytest.approx(polygon_area(COOK_CORNERS), rel=1e-10)

    def test_tip_node(self):
        mesh = cook_mesh(4, order=2)
        tip = mesh.boundary_nodes["tip"][0]
        assert np.allclose(mesh.nodes[tip], [48.0, 60.0])

    def test_refinement_halves_h(self):
        for n in (2, 4, 8):
            ratio = cook_mesh(2 * n).h / cook_mesh(n).h
            assert 0.45 <= ratio <= 0.55

    @pytest.mark.parametrize("mapping", [
        lambda s, t: np.column_stack([s + 0.5 * t, t]),
        lambda s, t: np.column_stack([s - 0.5 * t, t]),
        lambda s, t: np.column_stack([s, t + 0.5 * s]),
        lambda s, t: np.column_stack([s, t - 0.5 * s]),
        lambda s, t: np.column_stack([s + 0.05 * np.sin(9 * t), t + 0.05 * np.cos(7 * s)]),
    ], ids=["shear-right", "shear-left", "shear-up", "shear-down", "wavy"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_h_is_the_longest_corner_distance(self, mapping, order):
        # every element's four corners, all pairs: each shear makes another
        # corner pair the longest
        for nx, ny in ((5, 5), (7, 3)):
            mesh = _structured_mesh(nx, ny, order, mapping)
            corners = mesh.nodes[mesh.elements[:, :4]]
            d = corners[:, :, None] - corners[:, None, :]
            assert mesh.h == float(np.sqrt((d**2).sum(-1).max()))

    def test_no_orphan_nodes(self):
        mesh = cook_mesh(3, order=2)
        referenced = set(mesh.elements.ravel().tolist())
        assert referenced == set(range(mesh.n_nodes))

    def test_boundary_edges_unique(self):
        mesh = cook_mesh(4)
        seen = set()
        for tag, pairs in mesh.boundary_edges.items():
            for pair in pairs:
                assert pair not in seen
                seen.add(pair)


REF_1D = np.array([-1.0, 1.0, 0.0])


def domain_map(corners, s, t):
    """Bilinear map of the unit square onto the quadrilateral `corners`."""
    vals, _ = shape_functions(1, np.stack([2 * s - 1, 2 * t - 1], axis=-1))
    return vals @ corners


class TestLocalNodeLayout:
    """Meshes store local node k at the reference position LOCAL_NODES[k]."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["cook", "rectangle"])
    def test_node_k_sits_at_its_reference_position(self, kind, order):
        nx, ny = (5, 5) if kind == "cook" else (4, 3)
        if kind == "cook":
            mesh, corners = cook_mesh(nx, order), COOK_CORNERS
        else:
            mesh = rectangle_mesh(8.0, 3.0, nx, ny, order)
            corners = np.array([(0.0, -1.5), (8.0, -1.5), (8.0, 1.5), (0.0, 1.5)])
        xi = REF_1D[LOCAL_NODES[: mesh.elements.shape[1]]]   # (n, 2)
        ey, ex = np.divmod(np.arange(len(mesh.elements)), nx)
        s = (ex[:, None] + (xi[:, 0] + 1) / 2) / nx
        t = (ey[:, None] + (xi[:, 1] + 1) / 2) / ny
        expected = domain_map(corners, s, t)                 # (E, n, 2)
        assert np.allclose(mesh.nodes[mesh.elements], expected, rtol=0, atol=1e-12 * 60)
        # and node k is the element's own bilinear corner map at xi_k
        vals, _ = shape_functions(1, xi)
        assert np.allclose(mesh.nodes[mesh.elements], vals @ mesh.nodes[mesh.elements[:, :4]],
                           rtol=0, atol=1e-12 * 60)

    def test_q2_connectivity_literal(self):
        mesh = rectangle_mesh(2.0, 1.0, 2, 1, order=2)
        # node k is grid node order[k]; the 5 x 3 grid nodes numbered along x first
        order = _dissection(4, 2, 2)
        assert order[mesh.elements].tolist() == [
            [0, 2, 12, 10, 1, 7, 11, 5, 6],
            [2, 4, 14, 12, 3, 9, 13, 7, 8],
        ]

    @pytest.mark.parametrize("order", [1, 2])
    def test_vectorised_edge_nodes_equal_single_pairs(self, order):
        mesh = cook_mesh(3, order)
        pairs = [pair for tag in sorted(mesh.boundary_edges) for pair in mesh.boundary_edges[tag]]
        batched = mesh.edge_nodes(*np.transpose(pairs))
        assert batched.shape == (len(pairs), order + 1)
        assert np.array_equal(batched, [mesh.edge_nodes(e, k) for e, k in pairs])

    def test_edge_nodes_lie_on_their_edge(self):
        mesh = rectangle_mesh(4.0, 2.0, 2, 2, order=2)
        for tag, coord, value in [("bottom", 1, -1.0), ("right", 0, 4.0),
                                  ("top", 1, 1.0), ("left", 0, 0.0)]:
            nodes = mesh.edge_nodes(*np.transpose(mesh.boundary_edges[tag]))
            assert np.allclose(mesh.nodes[nodes][..., coord], value)
            # endpoints first, midside last
            ends = mesh.nodes[nodes[:, :2]].mean(axis=1)
            assert np.allclose(mesh.nodes[nodes[:, 2]], ends)


def dissection_cuts(order, mx, element_order):
    """Read the order of an (my + 1) x (mx + 1) node grid as nested blocks and
    return the (first, second) halves of every cut, as positions in the
    order: a mesh's node k is grid node order[k], so these are its nodes.

    Each block of the order must hold a whole block of grid nodes and, if an
    interior grid line of element edges crosses it, end in a full such line,
    with the nodes on one side of the line before those on the other.
    """
    row, col = np.divmod(order, mx + 1)
    cuts = []

    def visit(seg):
        coords = col[seg], row[seg]
        extent = [(c.min(), c.max()) for c in coords]
        sizes = [hi - lo + 1 for lo, hi in extent]
        assert seg.size == sizes[0] * sizes[1]
        lines = [{s for s in range(lo + 1, hi) if s % element_order == 0} for lo, hi in extent]
        if not any(lines):
            return
        for axis in (0, 1):
            c, across = coords[axis], sizes[1 - axis]
            s = c[-1]
            if s in lines[axis] and np.all(c[-across:] == s):
                k = np.count_nonzero(c[:-across] < s)
                assert np.all(c[:k] < s) and np.all(c[k:-across] > s)
                first, second = seg[:k], seg[k:-across]
                cuts.append((first, second))
                visit(first)
                visit(second)
                return
        raise AssertionError(f"block {extent} does not end in a separating line")

    visit(np.arange(order.size))
    return cuts


def recursive_dissection(mx, my, order):
    """The nested-dissection order by one call per block, the recursion that
    mesh._dissection unrolls into levels."""
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


def assert_nodes_in_recursive_order(mesh, corners, mx, my):
    """mesh.nodes are the (my + 1) x (mx + 1) row-major grid of the unit
    square, mapped onto the quadrilateral `corners`, in the recursive order."""
    s, t = np.meshgrid(np.linspace(0.0, 1.0, mx + 1), np.linspace(0.0, 1.0, my + 1))
    grid = domain_map(corners, s.ravel(), t.ravel())
    assert np.allclose(mesh.nodes, grid[recursive_dissection(mx, my, mesh.order)],
                       rtol=0, atol=1e-12 * 60)


class TestDissection:
    MESHES = [
        ("rectangle", 1, 1), ("rectangle", 5, 1), ("rectangle", 9, 1),
        ("rectangle", 40, 8), ("rectangle", 3, 7), ("cook", 1, 1), ("cook", 6, 6),
    ]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind, nx, ny", MESHES)
    def test_cuts_separate_the_elements(self, kind, nx, ny, order):
        mesh = rectangle_mesh(10.0, 2.0, nx, ny, order) if kind == "rectangle" else cook_mesh(nx, order)
        grid_order = _dissection(nx * order, ny * order, order)
        assert np.array_equal(np.sort(grid_order), np.arange(mesh.n_nodes))
        for first, second in dissection_cuts(grid_order, nx * order, order):
            in_first = np.isin(mesh.elements, first).any(axis=1)
            in_second = np.isin(mesh.elements, second).any(axis=1)
            assert first.size and second.size
            assert not np.any(in_first & in_second)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["rectangle", "cook"])
    def test_nodes_are_the_grid_nodes_in_dissection_order(self, kind, order):
        if kind == "rectangle":
            nx, ny = 5, 3
            mesh = rectangle_mesh(8.0, 3.0, nx, ny, order)
            corners = np.array([(0.0, -1.5), (8.0, -1.5), (8.0, 1.5), (0.0, 1.5)])
        else:
            nx = ny = 6
            mesh, corners = cook_mesh(nx, order), COOK_CORNERS
        assert_nodes_in_recursive_order(mesh, corners, nx * order, ny * order)

    def test_cut_follows_element_edges(self):
        # a Q2 element straddles every odd grid line, so a 2 x 1 Q2 grid is cut
        # only at its middle vertex column, and a 1 x 1 one not at all
        assert _dissection(2, 2, 2).tolist() == list(range(9))
        assert _dissection(4, 2, 2).tolist() == [
            0, 1, 5, 6, 10, 11, 3, 4, 8, 9, 13, 14, 2, 7, 12,
        ]

    @pytest.mark.parametrize("order", [1, 2])
    def test_levels_give_the_recursive_order(self, order):
        # every grid of up to 40 x 20 cells of nodes, the grids of all small
        # meshes, in both orders
        for mx in range(order, 41, order):
            for my in range(order, 21, order):
                got = _dissection(mx, my, order)
                assert got.dtype == np.intp
                assert np.array_equal(got, recursive_dissection(mx, my, order)), (mx, my)
                assert np.array_equal(_dissection(my, mx, order),
                                      recursive_dissection(my, mx, order)), (my, mx)

    @pytest.mark.parametrize("n, order", [(128, 1), (64, 2)])
    def test_panel_grids_give_the_recursive_order(self, n, order):
        # the 129 x 129 node grids of the two large panel commands
        assert np.array_equal(_dissection(128, 128, order), recursive_dissection(128, 128, order))
        assert_nodes_in_recursive_order(cook_mesh(n, order), COOK_CORNERS, 128, 128)
