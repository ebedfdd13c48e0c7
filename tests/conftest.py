"""Shared test helpers.

Oracle routines here are deliberately independent of the package internals:
they build matrices and eigensolvers from scratch so that agreement with the
library is a genuine cross-check.
"""
import numpy as np
import pytest

# Test-local Pauli matrices (independent of qbands.pauli).
SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word: str) -> np.ndarray:
    """Tensor product of Pauli letters, leftmost letter on the highest qubit."""
    out = SIGMA[word[0]]
    for letter in word[1:]:
        out = np.kron(out, SIGMA[letter])
    return out


def pauli_sum_expectation(coeffs: dict, state: np.ndarray) -> float:
    """Re<ψ| sum_w c_w σ_w |ψ> with σ_w built from the test-local matrices."""
    H = sum(c * kron_word(w) for w, c in coeffs.items())
    return float(np.real(np.vdot(state, H @ state)))


def rotation(letter: str, angle: float) -> np.ndarray:
    """exp(-i angle σ / 2) for one Pauli letter, from the test-local matrices."""
    return np.cos(angle / 2) * SIGMA["I"] - 1j * np.sin(angle / 2) * SIGMA[letter]


def layered_state(t, n_qubits: int, n_layers: int) -> np.ndarray:
    """Independent state of the layered circuit on |0...0>, built from SIGMA
    Kronecker products: per layer RY on qubits 1..n, then RZ on qubits 1..n,
    with CNOT(1->2), CNOT(2->3), ... between layers.  ``t`` holds per layer
    the RY angles, then the RZ angles, qubit 1 first."""
    I = SIGMA["I"]
    P0, P1 = (I + SIGMA["Z"]) / 2, (I - SIGMA["Z"]) / 2

    def on_qubits(factors):
        """Kronecker product of per-qubit factors, qubit 1's last."""
        out = np.ones((1, 1), dtype=complex)
        for m in reversed(factors):
            out = np.kron(out, m)
        return out

    def cnot(q):  # control q, target q + 1 (1-based)
        factors = [I] * n_qubits
        flipped = list(factors)
        factors[q - 1], flipped[q - 1], flipped[q] = P0, P1, SIGMA["X"]
        return on_qubits(factors) + on_qubits(flipped)

    psi = np.eye(2**n_qubits, dtype=complex)[0]
    t = np.asarray(t, dtype=float).reshape(n_layers, 2, n_qubits)
    for layer, (ry, rz) in enumerate(t):
        if layer:
            for q in range(1, n_qubits):
                psi = cnot(q) @ psi
        psi = on_qubits([rotation("Z", z) @ rotation("Y", y) for y, z in zip(ry, rz)]) @ psi
    return psi


def philox_stream(family: tuple[int, ...], t: int) -> np.random.Generator:
    """Stream t of a counter-addressed family, built from scratch: a Philox
    keyed by the family's seed-sequence hash, its counter at (0, 0, 0, t)."""
    key = np.random.SeedSequence(list(family)).generate_state(2, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=(0, 0, 0, t)))


def seeded(seed):
    """The ``stream`` of a one-row sampler call seeded with ``seed``: a fresh
    ``np.random.default_rng(seed)``, the generator such a call drew from."""
    return lambda b: np.random.default_rng(seed)


def rand_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (A + A.conj().T) / 2


def rand_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def jacobi_eigenvalues(H: np.ndarray, sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Works on the real-symmetric embedding [[A, -B], [B, A]] of H = A + iB,
    whose spectrum is that of H with every eigenvalue doubled.
    """
    A, B = np.real(H), np.imag(H)
    M = np.block([[A, -B], [B, A]])
    n = M.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.square(M - np.diag(np.diag(M)))))
        if off < 1e-14 * max(1.0, np.max(np.abs(np.diag(M)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(M[p, q]) < 1e-18:
                    continue
                tau = (M[q, q] - M[p, p]) / (2 * M[p, q])
                t = np.sign(tau) / (abs(tau) + np.sqrt(1 + tau * tau)) if tau else 1.0
                c = 1 / np.sqrt(1 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                M = rot.T @ M @ rot
    evals = np.sort(np.diag(M))
    return evals[::2]  # doubled spectrum: take one of each pair


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
