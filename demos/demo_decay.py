"""Exponential death of coherences under a Schur-product channel.

Picks a random complete-decoherence channel, iterates it on a random state,
and shows each off-diagonal magnitude shrinking as |xi_lk|^n while the
diagonal never moves. The asymptotic state is the diagonal truncation. In the
Heisenberg picture the same channel converts a fixed observable into a
diagonal one: its off-diagonal entries decay and its diagonal stays put.
"""

import numpy as np

from schurmaps import (
    DensityMatrix,
    SchurChannel,
    apply_heisenberg,
    asymptotic_state,
    iterate,
    validate_correlation,
)

rng = np.random.default_rng(7)

d = 3
g = rng.normal(size=(d, 2 * d)) + 1j * rng.normal(size=(d, 2 * d))
xi = g @ g.conj().T
norm = np.sqrt(np.diag(xi).real)
xi = xi / np.outer(norm, norm)
ch = SchurChannel(validate_correlation(xi))
print("correlation matrix magnitudes:")
print(np.round(np.abs(ch.xi.matrix), 4))
print("complete decoherence:", ch.complete)

v = rng.normal(size=d) + 1j * rng.normal(size=d)
rho = DensityMatrix.pure(v)

print("\n n   |rho_01|      |rho_02|      |rho_12|      diag drift")
rho0 = rho
for n in (0, 1, 2, 5, 10, 20, 50):
    out = iterate(ch, rho0, n)
    drift = np.max(np.abs(np.diag(out.matrix) - np.diag(rho0.matrix)))
    print(
        f"{n:3d}   {abs(out.matrix[0, 1]):.6e}  {abs(out.matrix[0, 2]):.6e}"
        f"  {abs(out.matrix[1, 2]):.6e}  {drift:.1e}"
    )

limit = asymptotic_state(rho0)
print("\nasymptotic state (diagonal truncation):")
print(np.round(limit.matrix.real, 4))

obs = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1j], [0.0, -1j, -1.0]])  # a fixed Hermitian O
print("\nHeisenberg picture, xi o ... o xi o O (n times):")
print(" n   |O_01|        |O_12|        diag drift")
out, steps = obs, 0
for n in (0, 1, 2, 5, 10, 20, 50):
    while steps < n:
        out, steps = apply_heisenberg(ch, out), steps + 1
    drift = np.max(np.abs(np.diag(out) - np.diag(obs)))
    print(f"{n:3d}   {abs(out[0, 1]):.6e}  {abs(out[1, 2]):.6e}  {drift:.1e}")
