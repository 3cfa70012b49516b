"""Structured triangulations of the unit square.

The mesh at refinement level ``L`` covers ``[0, 1]^2`` with a regular grid
of ``2^L x 2^L`` squares, each split into two triangles along the
bottom-left-to-top-right diagonal.  Entity numbering is lexicographic
(by y, then x), so repeated runs produce bit-identical meshes.
``nested_dissection`` orders nodes of such a grid for elimination and
records the cut tree behind the order; every factorization of the program
is ordered by one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Hard cap on refinement depth; L=12 already means ~33.6M triangles.
MAX_LEVEL = 12

# Peak memory a mesh build allocates per cell, temporaries included:
# 320-329 bytes measured at L8-L10.
_MESH_BYTES_PER_CELL = 330

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


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: float, what: str) -> None:
    """Raise ``ValueError`` if ``need`` bytes, the predicted peak of
    ``what``, exceed the machine's physical memory; nothing is allocated."""
    have = _physical_memory_bytes()
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB, more than "
            f"the {have / 2**30:.1f} GiB of physical memory")


def check_mesh_memory(level: int) -> None:
    """``check_memory`` of a level-``level`` mesh build (``_MESH_BYTES_PER_CELL``)."""
    check_memory(2 * 4**level * _MESH_BYTES_PER_CELL, f"a level-{level} mesh")


def build_uniform_mesh(level: int) -> Mesh:
    """Build the level-``L`` uniform triangulation of the unit square.

    Parameters
    ----------
    level : int
        Refinement level; must satisfy ``0 <= level <= MAX_LEVEL``, and the
        mesh must fit in physical memory (``check_mesh_memory``).

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
    check_mesh_memory(level)

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

    edges, cell_edges, boundary_edges = _build_edges(cells, vertices.shape[0])

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


def _build_edges(cells: np.ndarray, num_vertices: int):
    """Edges, per-cell edge indices and boundary flags of a triangulation.

    Each edge is the vertex pair ``lo < hi``, keyed by the integer
    ``lo * num_vertices + hi``; sorting the keys sorts the pairs
    lexicographically.  Local edge ``k`` is opposite local vertex ``k``, and
    an edge of exactly one cell lies on the boundary.
    """
    a, b, c = cells.T
    first = np.concatenate([b, a, a])
    second = np.concatenate([c, c, b])
    keys = np.minimum(first, second) * num_vertices + np.maximum(first, second)
    keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        raise RuntimeError("edge shared by more than two cells; mesh is broken")
    edges = np.column_stack([keys // num_vertices, keys % num_vertices])
    cell_edges = inverse.reshape(3, cells.shape[0]).T.copy()
    return edges, cell_edges, counts == 1


def _boundary_vertices(vertices: np.ndarray) -> np.ndarray:
    x, y = vertices[:, 0], vertices[:, 1]
    return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)


@dataclass(frozen=True)
class NestedDissection:
    """Nested-dissection tree of a node set, node by node.

    Attributes
    ----------
    order : (n,) int array
        Elimination order: a permutation of the nodes, each subtree
        contiguous, its two halves before its separator.
    path : (n,) int array
        Base-3 path of each node's cuts (left 0, right 1, separator 2),
        ``digits`` digits long, the first cut most significant and zeros
        after the node's last cut.  Its first ``k`` digits,
        ``path // 3**(digits - k)``, name the depth-``k`` subtree holding
        the node.
    depth : (n,) int array
        Number of cuts in the node's path.  The node's set is the separator
        of its depth-``depth - 1`` subtree if its last digit is 2, and
        otherwise the leaf its cuts end in.
    digits : int
        Number of depths at which some set was cut.
    """

    order: np.ndarray
    path: np.ndarray
    depth: np.ndarray
    digits: int

    @cached_property
    def dof_order(self) -> np.ndarray:
        """Elimination order of a vector field on the nodes, blocked by
        component (node ``k`` owns dofs ``k`` and ``n + k``): the nodes in
        ``order``, each node's two dofs adjacent."""
        return np.column_stack([self.order, self.order + self.order.size]).ravel()


def nested_dissection(points: np.ndarray, h: float) -> NestedDissection:
    """Nested dissection of nodes of a structured grid.

    ``points`` are nodes on the half-grid of a mesh with spacing ``h`` (the
    P2 nodes lie there).  The bounding box of a set of nodes is cut across
    its longer side along the mesh line nearest its middle.  No cell
    straddles a mesh line, so the nodes on the line separate the two
    halves; both halves are ordered recursively, then the separator.  Sets
    of at most ``_ND_LEAF`` nodes are leaves and keep their index order.

    All sets of one depth are cut at once.  Each node carries the base-3
    path of its cuts, padded with zeros once its set is a leaf or a
    separator; one stable sort of the paths gives the left-right-separator
    order.  A set that spans no mesh line raises ``ValueError``; of several,
    the one met first in that order is named.
    """
    # half-grid units: every node has integer coordinates, mesh lines are even
    grid = np.rint(np.asarray(points) * (2.0 / h)).astype(np.int64)
    # one base-3 digit per depth; a cut halves the longer side, so a level-L
    # grid needs about 2L + 2 depths, and int64 holds 39
    path = np.zeros(grid.shape[0], dtype=np.int64)
    depth = np.zeros(grid.shape[0], dtype=np.int64)
    digits = 0
    nodes = np.arange(grid.shape[0])  # nodes of the sets still to cut, set by set
    sizes = np.array([nodes.size])
    spanless = []  # (one node, size) of each set that spans no mesh line
    while True:
        cut_set = sizes > _ND_LEAF
        nodes, sizes = nodes[np.repeat(cut_set, sizes)], sizes[cut_set]
        if nodes.size == 0:
            break
        starts = np.cumsum(sizes) - sizes
        coords = grid[nodes]
        lo = np.minimum.reduceat(coords, starts)
        hi = np.maximum.reduceat(coords, starts)
        axis = np.argmax(hi - lo, axis=1)
        rows = np.arange(sizes.size)
        lo, hi = lo[rows, axis], hi[rows, axis]
        cut = 2 * ((lo + hi + 2) // 4)  # even integer nearest the middle
        spans = (lo < cut) & (cut < hi)
        spanless.extend(zip(nodes[starts[~spans]], sizes[~spans]))
        keep = np.repeat(spans, sizes)
        nodes, sizes, axis, cut = nodes[keep], sizes[spans], axis[spans], cut[spans]
        coord = grid[nodes, np.repeat(axis, sizes)]
        side = np.sign(coord - np.repeat(cut, sizes))
        digit = np.where(side == 0, 2, side > 0)
        path *= 3
        path[nodes] += digit
        depth[nodes] += 1
        digits += 1
        # the halves become the next sets, left before right, index order kept
        half = digit < 2
        set_key = 2 * np.repeat(np.arange(sizes.size), sizes)[half] + digit[half]
        nodes = nodes[half][np.argsort(set_key, kind="stable")]
        sizes = np.bincount(set_key, minlength=2 * sizes.size)
    if spanless:
        _, size = min(spanless, key=lambda s: path[s[0]])
        raise ValueError(f"{size} nodes span no mesh line of spacing {h}")
    return NestedDissection(np.argsort(path, kind="stable"), path, depth, digits)


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
