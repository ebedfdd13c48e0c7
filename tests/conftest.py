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


def meanfield_state(t) -> np.ndarray:
    """Mean-field circuit state RZ(φ)·RY(θ)|0> (no global-phase fix)."""
    return rotation("Z", t[1]) @ rotation("Y", t[0]) @ np.array([1, 0], dtype=complex)


def three_qubit_state(t) -> np.ndarray:
    """Independent three-qubit circuit state, built from SIGMA Kronecker
    products; t holds per layer RY angles on qubits 1-3, then RZ angles."""
    I = SIGMA["I"]
    P0, P1 = (I + SIGMA["Z"]) / 2, (I - SIGMA["Z"]) / 2

    def on_qubits(m3, m2, m1):
        return np.kron(m3, np.kron(m2, m1))

    cnot_12 = on_qubits(I, I, P0) + on_qubits(I, SIGMA["X"], P1)
    cnot_23 = on_qubits(I, P0, I) + on_qubits(SIGMA["X"], P1, I)
    psi = np.eye(8, dtype=complex)[0]
    for layer in range(3):
        ry = [rotation("Y", a) for a in t[6 * layer:6 * layer + 3]]
        rz = [rotation("Z", a) for a in t[6 * layer + 3:6 * layer + 6]]
        psi = on_qubits(*(z @ y for z, y in zip(rz[::-1], ry[::-1]))) @ psi
        if layer < 2:
            psi = cnot_23 @ cnot_12 @ psi
    return psi


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
