# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Meshes, spaces and assembled operators
#
# The library solves displacement problems on the unit square with a
# structured triangulation: every grid square of size $h = 2^{-L}$ is split
# along its bottom-left-to-top-right diagonal.

# %%
import numpy as np

from elastprec import (assemble_div, assemble_pressure_mass, assemble_system,
                       build_space, build_uniform_mesh, interpolate)

mesh = build_uniform_mesh(3)
print(f"level {mesh.level}: h = {mesh.h}")
print(f"{mesh.num_vertices} vertices, {mesh.num_cells} cells, {mesh.num_edges} edges")
print(f"boundary: {int(mesh.boundary_vertex_flags.sum())} vertices, "
      f"{int(mesh.boundary_edge_flags.sum())} edges")

# %% [markdown]
# Entity counts obey the Euler relation $E = V + T - 1$ on the simply
# connected square, and all cells have area $h^2/2$.

# %%
assert mesh.num_edges == mesh.num_vertices + mesh.num_cells - 1
print("areas:", mesh.cell_areas().min(), "..", mesh.cell_areas().max(),
      "sum =", mesh.cell_areas().sum())

# %% [markdown]
# Displacements live in continuous piecewise quadratics (one dof per vertex
# and edge midpoint, two components); the auxiliary pressure in piecewise
# constants (`p0`) or continuous linears (`p1`).

# %%
V = build_space(mesh, "p2v")
print("velocity dofs:", V.dof_count, "| constrained:", int(V.dirichlet_mask.sum()))
for kind in ("p0", "p1"):
    print(f"pressure dofs ({kind}):", build_space(mesh, kind).dof_count)

# %% [markdown]
# `assemble_system` builds the strain stiffness $A$ and the load vector of
# the built-in manufactured problem; neither depends on the pressure space.
# Each pressure space adds the divergence coupling $B$ and the pressure mass
# $M_Q$, whose diagonal $D$ is the surrogate of the pressure projection:
# exact for `p0`, whose mass is diagonal, but not for `p1`.

# %%
system = assemble_system(mesh)
print("A:", system.A.shape, "nnz", system.A.nnz)
for kind in ("p0", "p1"):
    Q = build_space(mesh, kind)
    B, MQ = assemble_div(V, Q), assemble_pressure_mass(Q)
    diagonal = MQ.count_nonzero() == np.count_nonzero(MQ.diagonal())
    print(f"{kind}: B {B.shape} nnz {B.nnz} | MQ diagonal? {diagonal}",
          f"| D = {MQ.diagonal()[0]:.6g}")

# %% [markdown]
# Two sanity identities: the strain energy of $u = (x, 0)$ is exactly 1 on
# the unit square, and a rigid rotation carries no strain energy at all.

# %%
u_stretch = interpolate(V, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
u_rotate = interpolate(V, lambda p: np.column_stack([-p[:, 1], p[:, 0]]))
print("a(stretch, stretch) =", u_stretch @ (system.A @ u_stretch))
print("a(rotate, rotate)   =", u_rotate @ (system.A @ u_rotate))
