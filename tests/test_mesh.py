import io

import numpy as np
import pytest

from elastprec.mesh import (MAX_LEVEL, build_uniform_mesh, dump_mesh,
                            nested_dissection_order)


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
        nested_dissection_order(points, mesh.h)
