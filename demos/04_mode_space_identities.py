# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Why the convex combination is the right preconditioner
#
# With periodic boundary conditions every Fourier mode decouples, and the
# combined operator is not merely spectrally equivalent to the elasticity
# inverse: it *is* the inverse.  Per mode $\xi$ the elasticity solution
# decomposes exactly as
#
# $$\hat u_\lambda = \tfrac{\lambda}{\lambda+1}\, \hat u_\infty
#                  + \tfrac{1}{\lambda+1}\, \hat u_0,$$
#
# with $\hat u_\infty$ the Stokes velocity and $\hat u_0$ the
# incompressibility-free solution.

# %%
import numpy as np

from elastprec import fourier

xi = np.array([2 * np.pi, 0.0])
f = np.array([1.0, 0.0])
for lam in (0.0, 3.0, 2499.5):
    u = fourier.solve_mode_elasticity(xi, lam, f)
    res = fourier.verify_convex_combination(xi, lam, f)
    print(f"lam = {lam:8g}: u_hat = {u.real}, combination residual = {res:.2e}")

# %% [markdown]
# The mechanism is the rank-one projector $\Pi_\xi = \xi \xi^* / |\xi|^2$:
# since $\Pi_\xi^2 = \Pi_\xi$, the inverse of $I + t \Pi_\xi$ is again of
# that form, $(I + t\Pi_\xi)^{-1} = I - \tfrac{t}{t+1}\Pi_\xi$.

# %%
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(1000):
    dim = int(rng.integers(2, 4))
    xi = rng.uniform(-10, 10, size=dim)
    if np.linalg.norm(xi) < 0.5:
        continue
    t = float(rng.choice([rng.uniform(-0.99, 2.0), 10.0 ** rng.uniform(0, 6)]))
    worst = max(worst, fourier.verify_inverse_idempotent(t, xi) / (1 + abs(t)))
print("worst scaled inverse-idempotent residual over 1000 draws:", worst)

# %% [markdown]
# Transverse forcing ($\hat f \perp \xi$) never feels the compressibility
# parameter, while longitudinal forcing is damped by $1/(\lambda + 1)$:

# %%
xi = np.array([1.0, 0.0])
for fhat, name in ((np.array([0.0, 1.0]), "transverse"),
                   (np.array([1.0, 0.0]), "longitudinal")):
    for lam in (0.0, 1.0, 1e6):
        u = fourier.solve_mode_elasticity(xi, lam, fhat)
        print(f"{name:12s} lam={lam:8g}: |u_hat| = {np.linalg.norm(u):.6f}")

# %% [markdown]
# The `fourier-*` checks of `elastprec verify` repeat this over random
# frequencies, data and parameters in 2D and 3D.
