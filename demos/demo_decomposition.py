"""Random-unitary decompositions of correlation matrices.

Qubit channels decompose in closed form: the off-diagonal entry of xi fixes
the two flat vectors and their weights. Larger dimensions use a seeded
numerical search over flat phase vectors. Every decomposition found is
verified (reconstruction residual, flatness, orthogonality of the unitary
family) and then used to undo the channel. From d = 4 on, some channels have
no decomposition at all: an extreme correlation matrix of rank 2 is
certified by the Li-Tam test, and the search refuses it without running.
"""

import numpy as np

from schurmaps import (
    NoDecompositionFound,
    SchurChannel,
    SearchConfig,
    decompose_qubit,
    extremality_test,
    flat_search,
    run_correction,
    validate_correlation,
    verify_decomposition,
)

rng = np.random.default_rng(11)


def random_xi(d):
    g = rng.normal(size=(d, 2 * d)) + 1j * rng.normal(size=(d, 2 * d))
    m = g @ g.conj().T
    norm = np.sqrt(np.diag(m).real)
    return validate_correlation(m / np.outer(norm, norm))


def random_state(d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    from schurmaps import DensityMatrix

    return DensityMatrix.from_matrix(m / np.trace(m).real)


print("--- qubit: closed form ---")
xi = random_xi(2)
dec = decompose_qubit(xi)
rep = verify_decomposition(xi, dec)
print(f"weights {np.round(dec.weights, 4)}, residual {rep.residual:.2e}")
print(f"weight entropy {rep.shannon_entropy_bits:.4f} bits")
print("extremality verdict:", extremality_test(xi).verdict.value)

print("\n--- qutrit: seeded search ---")
xi = random_xi(3)
dec = flat_search(xi, SearchConfig(seed=0))
rep = verify_decomposition(xi, dec)
print(f"{dec.terms} terms, residual {rep.residual:.2e}, "
      f"flatness deviation {rep.flatness_deviation:.2e}")
print(f"weights {np.round(dec.weights, 4)}")

print("\n--- using the decomposition to undo the channel ---")
ch = SchurChannel(xi)
rho = random_state(3)
records, recovered = run_correction(ch, dec, rho)
for r in records:
    print(f"  outcome {r.outcome_index}: p = {r.probability:.4f}")
print(f"recovery residual = {np.linalg.norm(recovered.matrix - rho.matrix):.2e}")

print("\n--- d = 4: an extreme rank-2 channel has no decomposition ---")
v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
v /= np.linalg.norm(v, axis=1, keepdims=True)
xi = validate_correlation(v.conj() @ v.T)  # Gram matrix of four rays in C^2
ext = extremality_test(xi)
print(f"extremality verdict: {ext.verdict.value} (rank {ext.rank})")
try:
    flat_search(xi, SearchConfig(seed=0))
except NoDecompositionFound as exc:
    print(f"flat_search: {exc} ({exc.restarts} restarts)")
