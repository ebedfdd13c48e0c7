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


def bfgs_row(f, grad, x0, max_iter=200, tol=1e-6, gradient_evaluations=1,
             energy_noise=0.0):
    """One BFGS restart, alone, written plainly from the algorithm that
    `vqe.optimize_quasinewton` documents: Armijo backtracking (c1 = 1e-4)
    along -H g with up to 8 halvings, the first trial step 1, or
    min(1, 1/|g|) while H is the identity; the first update from the
    identity scales H by y.s / y.y; a pair with y.s <= 1e-8 |y||s| leaves H
    as it is; a failed search resets H to the identity, or, from the
    identity, ends the restart ("precision").  It stops at max|g| <= tol
    ("gradient"), at max|g| <= max(tol, 2σ/√2) ("noise"), or after
    ``max_iter`` accepted steps ("max_iter"); with σ = ``energy_noise`` > 0
    no halving is taken whose predicted decrease step·|slope| is below σ/4.

    ``f`` and ``grad`` take one point.  Products are 1-D ``einsum`` and
    norms sqrt(Σ v²), the arithmetic each lock-step row does, so equal
    paths give equal bits.  Returns (x, energy, evaluations, iterations,
    stop).
    """
    x = np.array(x0, dtype=float)
    fx, g = f(x), grad(x)
    evaluations, iterations = 1 + gradient_evaluations, 0
    noise_tol = max(tol, 2 * energy_noise / np.sqrt(2))

    def gradient_stop():
        gmax = np.max(np.abs(g))
        return "gradient" if gmax <= tol else "noise" if gmax <= noise_tol else None

    def norm(v):
        return np.sqrt(np.add.reduce(v * v))

    H, identity = np.eye(len(x)), True
    stop = gradient_stop()
    while stop is None:
        p = -np.einsum("ij,j->i", H, g)
        slope = np.einsum("i,i->", g, p)
        if slope >= 0:  # not a descent direction: start again from the identity
            H, identity = np.eye(len(x)), True
            p = -g
            slope = -np.einsum("i,i->", g, g)
        step = min(1.0, 1.0 / norm(g)) if identity else 1.0
        for halving in range(9):
            if halving:
                if energy_noise and 0.5 * step * -slope < energy_noise / 4:
                    break
                step *= 0.5
            s = step * p
            trial = x + s
            f_trial = f(trial)
            evaluations += 1
            accepted = f_trial <= fx + 1e-4 * step * slope
            if accepted:
                break
        if not accepted:
            if identity:
                return x, fx, evaluations, iterations, "precision"
            H, identity = np.eye(len(x)), True
            continue
        g_new = grad(trial)
        evaluations += gradient_evaluations
        iterations += 1
        x, fx, y, g = trial, f_trial, g_new - g, g_new
        ys = np.einsum("i,i->", y, s)
        if ys > 1e-8 * norm(y) * norm(s):
            if identity:
                H = H * (ys / np.einsum("i,i->", y, y))
                identity = False
            rho = 1.0 / ys
            Hy = np.einsum("ij,j->i", H, y)
            yHy = np.einsum("i,i->", y, Hy)
            sHy = s[:, None] * Hy[None, :]
            H = H + (-rho * (sHy + sHy.T) + rho * (1.0 + rho * yHy) * s[:, None] * s[None, :])
        stop = gradient_stop()
        if stop is None and iterations >= max_iter:
            stop = "max_iter"
    return x, fx, evaluations, iterations, stop


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
