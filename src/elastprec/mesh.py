"""Structured triangulations of the unit square.

The mesh at refinement level ``L`` covers ``[0, 1]^2`` with a regular grid
of ``2^L x 2^L`` squares, each split into two triangles along the
bottom-left-to-top-right diagonal.  Entity numbering is lexicographic
(by y, then x), so repeated runs produce bit-identical meshes.
``nested_dissection_order`` orders nodes of such a grid for elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hard cap on refinement depth; L=12 already means ~33.6M triangles.
MAX_LEVEL = 12

# Largest node set nested dissection leaves uncut.  With 8, the stiffness
# fill is within 5% of minimum degree's at L3-L4 and below it from L5 on;
# leaves of 16 or more nodes lose to minimum degree at L5 too.
_ND_LEAF = 8


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the unit square with full entity connectivity.

    Attributes
    ----------
    level : int
        Refinement level ``L``; the mesh size is ``h = 2**-L``.
    h : float
        Edge length of the underlying grid squares.
    vertices : (nv, 2) float array
        Vertex coordinates, ordered lexicographically by (y, x).
    cells : (nt, 3) int array
        Vertex triples, counterclockwise.
    edges : (ne, 2) int array
        Vertex pairs (low index first), sorted lexicographically.
    cell_edges : (nt, 3) int array
        Edge indices per cell; local edge ``k`` is opposite local vertex ``k``.
    boundary_vertex_flags, boundary_edge_flags : bool arrays
        True for entities lying on the domain boundary.

    All arrays are frozen (read-only) after construction, so a mesh can be
    shared freely between threads.
    """

    level: int
    h: float
    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    boundary_vertex_flags: np.ndarray
    boundary_edge_flags: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def cell_areas(self) -> np.ndarray:
        """Signed area of every cell (positive for counterclockwise cells)."""
        p0 = self.vertices[self.cells[:, 0]]
        p1 = self.vertices[self.cells[:, 1]]
        p2 = self.vertices[self.cells[:, 2]]
        d1 = p1 - p0
        d2 = p2 - p0
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_midpoints(self) -> np.ndarray:
        """Midpoint coordinates of every edge (the quadratic node positions)."""
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])


def build_uniform_mesh(level: int) -> Mesh:
    """Build the level-``L`` uniform triangulation of the unit square.

    Parameters
    ----------
    level : int
        Refinement level; must satisfy ``0 <= level <= MAX_LEVEL``.

    Returns
    -------
    Mesh
        Mesh with ``(2^L+1)^2`` vertices, ``2*4^L`` cells and
        ``vertices + cells - 1`` edges.
    """
    if level < 0:
        raise ValueError(f"refinement level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(
            f"refinement level {level} exceeds the supported maximum {MAX_LEVEL}; "
            f"a level-{level} mesh would hold {2 * 4 ** level} cells"
        )

    n = 2**level
    h = 1.0 / n

    # Vertices on the (n+1) x (n+1) grid, y-major so index = iy*(n+1) + ix.
    coords = np.arange(n + 1) * h
    xg, yg = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # Two counterclockwise triangles per square, split along the
    # bottom-left-to-top-right diagonal.
    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    bl = (iy * (n + 1) + ix).ravel()
    br = bl + 1
    tl = bl + (n + 1)
    tr = tl + 1
    lower = np.column_stack([bl, br, tr])
    upper = np.column_stack([bl, tr, tl])
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = lower
    cells[1::2] = upper

    edges, cell_edges, boundary_edges = _build_edges(cells)

    mesh = Mesh(
        level=level,
        h=h,
        vertices=vertices,
        cells=cells,
        edges=edges,
        cell_edges=cell_edges,
        boundary_vertex_flags=_boundary_vertices(vertices),
        boundary_edge_flags=boundary_edges,
    )
    for arr in (mesh.vertices, mesh.cells, mesh.edges, mesh.cell_edges,
                mesh.boundary_vertex_flags, mesh.boundary_edge_flags):
        arr.setflags(write=False)
    return mesh


def _build_edges(cells: np.ndarray):
    # Local edge k is opposite local vertex k.
    pairs = np.concatenate([cells[:, [1, 2]], cells[:, [0, 2]], cells[:, [0, 1]]])
    pairs = np.sort(pairs, axis=1)
    edges, inverse, counts = np.unique(pairs, axis=0, return_inverse=True,
                                       return_counts=True)
    if np.any(counts > 2):
        raise RuntimeError("edge shared by more than two cells; mesh is broken")
    cell_edges = inverse.reshape(3, cells.shape[0]).T.copy()
    return edges, cell_edges, counts == 1


def _boundary_vertices(vertices: np.ndarray) -> np.ndarray:
    x, y = vertices[:, 0], vertices[:, 1]
    return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)


def nested_dissection_order(points: np.ndarray, h: float) -> np.ndarray:
    """Nested-dissection elimination order of nodes of a structured grid.

    ``points`` are nodes on the half-grid of a mesh with spacing ``h`` (the
    P2 nodes lie there).  The bounding box of a set of nodes is cut across
    its longer side along the mesh line nearest its middle.  No cell
    straddles a mesh line, so the nodes on the line separate the two
    halves; both halves are ordered recursively, then the separator.  Sets
    of at most ``_ND_LEAF`` nodes keep their index order.  Returns a
    permutation of ``range(len(points))``.
    """
    # half-grid units: every node has integer coordinates, mesh lines are even
    grid = np.rint(np.asarray(points) * (2.0 / h)).astype(np.int64)
    blocks = []

    def dissect(nodes):
        if nodes.size <= _ND_LEAF:
            blocks.append(nodes)
            return
        lo, hi = grid[nodes].min(axis=0), grid[nodes].max(axis=0)
        axis = int(np.argmax(hi - lo))
        cut = 2 * ((lo[axis] + hi[axis] + 2) // 4)  # even integer nearest the middle
        if not lo[axis] < cut < hi[axis]:
            raise ValueError(f"{nodes.size} nodes span no mesh line of spacing {h}")
        coord = grid[nodes, axis]
        dissect(nodes[coord < cut])
        dissect(nodes[coord > cut])
        blocks.append(nodes[coord == cut])

    dissect(np.arange(grid.shape[0]))
    return np.concatenate(blocks)


def dump_mesh(mesh: Mesh, stream) -> None:
    """Write the mesh as plain text, one entity per line (debug aid)."""
    stream.write(f"mesh level={mesh.level} vertices={mesh.num_vertices} "
                 f"cells={mesh.num_cells} edges={mesh.num_edges}\n")
    for i, (x, y) in enumerate(mesh.vertices):
        stream.write(f"vertex {i} {x!r} {y!r}\n")
    for i, (a, b, c) in enumerate(mesh.cells):
        stream.write(f"cell {i} {a} {b} {c}\n")
    for i, (a, b) in enumerate(mesh.edges):
        tag = "boundary" if mesh.boundary_edge_flags[i] else "interior"
        stream.write(f"edge {i} {a} {b} {tag}\n")
