# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # A locking-free solve in the nearly-incompressible regime
#
# As the Poisson ratio approaches $1/2$ the scaled parameter
# $\lambda = \nu / (1 - 2\nu)$ blows up and naive displacement elements lose
# accuracy (volumetric locking).  The discretization here keeps its full
# convergence order uniformly in $\lambda$, because the penalized divergence
# is first projected onto the pressure space.

# %%
from elastprec.bench import poisson_to_lambda, prepare_case, solve_cell

for nu in (0.25, 0.49, 0.4999):
    print(f"nu = {nu} (lambda = {poisson_to_lambda(nu):g})")
    for level in (2, 3, 4):
        cell = solve_cell(prepare_case(level, "p2p0"), nu)
        print(f"  L={level}: {cell.iterations:2d} iterations, "
              f"L2 error {cell.l2_error:.3e}, H1 error {cell.h1_error:.3e}")

# %% [markdown]
# Errors contract like $O(h^3)$ in $L^2$ and $O(h^2)$ in $H^1$, and the
# $\nu = 0.4999$ column is indistinguishable from the compressible one:
# no locking.  Iteration counts stay in the single digits because the
# preconditioner is built for exactly this limit (see the next demo).
