import io

import numpy as np
import pytest

from elastprec.mesh import (_ND_LEAF, MAX_LEVEL, build_uniform_mesh, dump_mesh,
                            nested_dissection)


def _nd_order(points, h):
    return nested_dissection(points, h).order


@pytest.mark.parametrize("level,nv,nt,ne", [
    (0, 4, 2, 5),
    (2, 25, 32, 56),
    (3, 81, 128, 208),
])
def test_entity_counts(level, nv, nt, ne):
    mesh = build_uniform_mesh(level)
    assert mesh.num_vertices == nv
    assert mesh.num_cells == nt
    assert mesh.num_edges == ne
    # Euler formula on a simply connected triangulation
    assert mesh.num_edges == mesh.num_vertices + mesh.num_cells - 1


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_cell_areas(level):
    mesh = build_uniform_mesh(level)
    areas = mesh.cell_areas()
    assert np.all(areas > 0)
    np.testing.assert_allclose(areas, mesh.h**2 / 2, rtol=0, atol=1e-16)
    assert abs(areas.sum() - 1.0) <= 1e-14


def test_boundary_counts_l2():
    mesh = build_uniform_mesh(2)
    assert int(mesh.boundary_vertex_flags.sum()) == 16  # 4 * 2^L
    assert int(mesh.boundary_edge_flags.sum()) == 16


def test_boundary_l0_diagonal_is_interior():
    mesh = build_uniform_mesh(0)
    assert int(mesh.boundary_vertex_flags.sum()) == 4
    assert int(mesh.boundary_edge_flags.sum()) == 4
    interior = np.flatnonzero(~mesh.boundary_edge_flags)
    assert interior.size == 1
    # the single interior edge is the splitting diagonal (0,0)-(1,1)
    a, b = mesh.edges[interior[0]]
    pts = mesh.vertices[[a, b]]
    assert {tuple(p) for p in pts} == {(0.0, 0.0), (1.0, 1.0)}


def test_edge_cell_counts():
    mesh = build_uniform_mesh(3)
    counts = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.num_edges)
    assert np.all(counts[mesh.boundary_edge_flags] == 1)
    assert np.all(counts[~mesh.boundary_edge_flags] == 2)


def test_connectivity_maps_consistent():
    mesh = build_uniform_mesh(2)
    for cell, edges in enumerate(mesh.cell_edges):
        for local, edge in enumerate(edges):
            # local edge k is opposite local vertex k
            verts = set(mesh.cells[cell]) - {mesh.cells[cell][local]}
            assert set(mesh.edges[edge]) == verts


def test_cells_counterclockwise():
    mesh = build_uniform_mesh(2)
    assert np.all(mesh.cell_areas() > 0)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_refinement_nesting(level):
    coarse = build_uniform_mesh(level)
    fine = build_uniform_mesh(level + 1)
    fine_set = {tuple(p) for p in fine.vertices}
    assert all(tuple(p) in fine_set for p in coarse.vertices)


def test_determinism():
    a = build_uniform_mesh(3)
    b = build_uniform_mesh(3)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.cells, b.cells)
    np.testing.assert_array_equal(a.edges, b.edges)


def test_level_validation():
    with pytest.raises(ValueError):
        build_uniform_mesh(-1)
    with pytest.raises(ValueError, match="maximum"):
        build_uniform_mesh(MAX_LEVEL + 1)


def test_mesh_arrays_read_only():
    mesh = build_uniform_mesh(1)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0


def test_dump_mesh():
    mesh = build_uniform_mesh(1)
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    lines = buf.getvalue().splitlines()
    # header + one line per entity
    assert len(lines) == 1 + mesh.num_vertices + mesh.num_cells + mesh.num_edges
    assert lines[1].startswith("vertex 0 ")


def test_nested_dissection_needs_a_mesh_line():
    # the 9 quadratic nodes of the level-0 mesh lie in one closed cell, and
    # no mesh line runs strictly inside it
    mesh = build_uniform_mesh(0)
    points = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    with pytest.raises(ValueError, match="no mesh line"):
        nested_dissection(points, mesh.h)


def _free_p2_nodes(mesh):
    points = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    boundary = np.concatenate([mesh.boundary_vertex_flags, mesh.boundary_edge_flags])
    return points[~boundary]


def _recursive_nested_dissection(points, h, cuts=None):
    """Reference: one recursive call per node set, depth first.

    Returns the order; given a dict ``cuts``, also fills in each node's list
    of cut digits (left 0, right 1, separator 2).
    """
    grid = np.rint(np.asarray(points) * (2.0 / h)).astype(np.int64)
    blocks = []

    def dissect(nodes, path):
        if nodes.size <= _ND_LEAF:
            blocks.append(nodes)
            if cuts is not None:
                cuts.update((int(k), path) for k in nodes)
            return
        lo, hi = grid[nodes].min(axis=0), grid[nodes].max(axis=0)
        axis = int(np.argmax(hi - lo))
        cut = 2 * ((lo[axis] + hi[axis] + 2) // 4)
        if not lo[axis] < cut < hi[axis]:
            raise ValueError(f"{nodes.size} nodes span no mesh line of spacing {h}")
        coord = grid[nodes, axis]
        dissect(nodes[coord < cut], path + [0])
        dissect(nodes[coord > cut], path + [1])
        blocks.append(nodes[coord == cut])
        if cuts is not None:
            cuts.update((int(k), path + [2]) for k in nodes[coord == cut])

    dissect(np.arange(grid.shape[0]), [])
    return np.concatenate(blocks)


@pytest.mark.parametrize("level", range(8))
def test_nested_dissection_matches_recursive_reference(level):
    mesh = build_uniform_mesh(level)
    points = _free_p2_nodes(mesh)
    order = _nd_order(points, mesh.h)
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, _recursive_nested_dissection(points, mesh.h))


@pytest.mark.parametrize("level", [0, 1, 2, 5])
def test_nested_dissection_paths_match_recursive_reference(level):
    mesh = build_uniform_mesh(level)
    points = _free_p2_nodes(mesh)
    dissection = nested_dissection(points, mesh.h)
    cuts = {}
    _recursive_nested_dissection(points, mesh.h, cuts)
    depth = np.array([len(cuts[k]) for k in range(points.shape[0])])
    digits = int(depth.max())
    assert dissection.digits == digits
    assert (digits == 0) == (level == 0)  # one free node at L0: a leaf, no cut
    np.testing.assert_array_equal(dissection.depth, depth)
    # each path is padded with zeros to the deepest node's length
    padded = [sum(d * 3 ** (digits - 1 - i) for i, d in enumerate(cuts[k]))
              for k in range(points.shape[0])]
    np.testing.assert_array_equal(dissection.path, padded)


def _outcome(order_fn, points, h):
    try:
        return order_fn(points, h).tolist()
    except ValueError as exc:
        return str(exc)


def test_nested_dissection_errors_match_recursive_reference():
    # the quadratic nodes of the level-0 mesh span no mesh line
    mesh = build_uniform_mesh(0)
    points = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    want = _outcome(_recursive_nested_dissection, points, mesh.h)
    assert want == "9 nodes span no mesh line of spacing 1.0"
    assert _outcome(_nd_order, points, mesh.h) == want
    # repeated half-grid points leave spanless sets at several depths; of
    # those, the one the depth-first reference meets first is named
    rng = np.random.default_rng(3)
    raised = 0
    for _ in range(40):
        points = rng.integers(0, 9, size=(rng.integers(20, 200), 2)) * 0.125
        want = _outcome(_recursive_nested_dissection, points, 0.25)
        assert _outcome(_nd_order, points, 0.25) == want
        raised += isinstance(want, str)
    assert 0 < raised < 40


def _unique_pair_edges(cells):
    """Reference: edges as lexicographically unique sorted vertex pairs."""
    pairs = np.sort(np.concatenate([cells[:, [1, 2]], cells[:, [0, 2]], cells[:, [0, 1]]]),
                    axis=1)
    edges, inverse, counts = np.unique(pairs, axis=0, return_inverse=True,
                                       return_counts=True)
    return edges, inverse.reshape(3, cells.shape[0]).T, counts == 1


@pytest.mark.parametrize("level", range(7))
def test_edges_match_unique_pair_reference(level):
    mesh = build_uniform_mesh(level)
    edges, cell_edges, boundary = _unique_pair_edges(mesh.cells)
    for got, want in ((mesh.edges, edges), (mesh.cell_edges, cell_edges),
                      (mesh.boundary_edge_flags, boundary)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
