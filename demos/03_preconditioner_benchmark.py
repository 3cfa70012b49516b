# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # The parameter-free preconditioner at work
#
# The preconditioner approximates $A_\lambda^{-1}$ by the convex combination
#
# $$M_\lambda = \tfrac{\lambda}{1+\lambda}\, P A^{-1}
#             + \tfrac{1}{1+\lambda}\, A^{-1},$$
#
# where $P$ projects onto discretely divergence-free fields through one
# Stokes saddle solve.  Everything expensive (one stiffness factorization,
# one saddle factorization) is independent of $\lambda$, so a single setup
# serves every material parameter.  A PCG run makes only one saddle solve:
# $P A^{-1} A_\lambda = P$, so $P z$ and $P p$ follow from their own
# recurrences, and each step costs one stiffness back-substitution.

# %%
from elastprec.bench import (ExperimentConfig, emit_report,
                             run_table_experiment)

config = ExperimentConfig(pairs=("p2p0",), levels=(2, 3, 4),
                          nu_values=(0.25, 0.4, 0.49, 0.499, 0.4999))
result = run_table_experiment(config)
print(emit_report(result, "markdown"))

# %% [markdown]
# Iteration counts and condition numbers are flat in $\nu$: the solver does
# not feel the incompressible limit.  The Taylor-Hood pair (`--pair p2p1`)
# stays bounded in $\nu$ too, but with much larger constants, because the
# continuous-pressure projection is applied through the diagonal of the
# pressure mass matrix: at $\nu = 0.4999$ it prints condition numbers
# 10.47 (L2) and 13.73 (L3), against 2.32 and 2.52 for P2-P0.

# %%
th = ExperimentConfig(pairs=("p2p1",), levels=(2, 3),
                      nu_values=(0.25, 0.4999))
print(emit_report(run_table_experiment(th), "markdown"))

# %% [markdown]
# The command-line equivalent:
#
# ```
# elastprec bench --pair p2p0 --levels 2..5 --format md
# ```
