# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Spectra, inf-sup constants and the two-sided divergence bound
#
# On small meshes every claim behind the preconditioner can be checked by
# dense linear algebra.  The spectrum of the preconditioned operator
# $M_\lambda A_\lambda$ stays inside a $\lambda$-independent interval whose
# endpoints are governed by the inf-sup constant $\beta_h$ of the
# velocity/pressure pair.

# %%
import numpy as np

from elastprec.bench import poisson_to_lambda, prepare_case
from elastprec.solver import (dense_preconditioned_spectrum, measure_inf_sup,
                              verify_norm_equivalence)

case = prepare_case(2, "p2p0")
red = case.reduced
for nu in (0.25, 0.49, 0.4999):
    lam = poisson_to_lambda(nu)
    spec = dense_preconditioned_spectrum(red, lam, case.a_factor, case.projector)
    print(f"nu = {nu:6}: spectrum [{spec[0]:.4f}, {spec[-1]:.4f}], "
          f"condition {spec[-1] / spec[0]:.3f}")

# %% [markdown]
# The inf-sup constant comes from the generalized eigenvalue problem
# $B A^{-1} B^T q = \theta M_Q q$ (the zero eigenvalue of the constant
# pressure is dropped): $\beta_h = \sqrt{\theta_{\min}}$, and
# $\theta_{\max} \le d = 2$ mirrors the bound
# $\|\mathrm{div}\, v\| \le \sqrt{2}\, \|\varepsilon(v)\|$.

# %%
for pair in ("p2p0", "p2p1"):
    for level in (2, 3):
        c = prepare_case(level, pair)
        r = measure_inf_sup(c.reduced.A, c.reduced.B, c.reduced.MQ)
        print(f"{pair} L={level}: beta_h = {r.beta_h:.4f}, "
              f"theta_max = {r.theta_max:.6f}")

# %% [markdown]
# For any velocity field $v$ the projected divergence is pinched between
# $\beta_h$ and $\sqrt{2}$ times the strain of the non-divergence-free part
# $v - P v$; this two-sided bound is exactly what makes the condition
# numbers above independent of $\lambda$.

# %%
beta = measure_inf_sup(red.A, red.B, red.MQ).beta_h
rng = np.random.default_rng(7)
ratios = []
for _ in range(200):
    v = rng.standard_normal(red.dim)
    lower, upper = verify_norm_equivalence(red, case.projector, beta, v)
    bv = red.B @ v
    dv = np.sqrt(bv @ red.mq_factor.solve(bv))
    d = v - case.projector.project(v)
    ratios.append(dv / np.sqrt(d @ (red.A @ d)))
print(f"observed ratio range [{min(ratios):.4f}, {max(ratios):.4f}] "
      f"inside [beta_h = {beta:.4f}, sqrt(2) = {np.sqrt(2):.4f}]")

# %% [markdown]
# For the Taylor-Hood pair the operator applies the pressure projection
# through the diagonal of the mass matrix by default (cheap, uniformly
# bounded); `projection="exact"` switches to the exact mass inverse, which
# tightens the large-$\lambda$ plateau of the condition number:

# %%
lam = poisson_to_lambda(0.4999)
for projection in ("diagonal", "exact"):
    c = prepare_case(2, "p2p1", projection=projection)
    spec = dense_preconditioned_spectrum(c.reduced, lam, c.a_factor,
                                         c.projector, projection)
    print(f"projection={projection:8s}: condition {spec[-1] / spec[0]:.3f}")
