"""Exact statevector simulation: gates, the layered variational circuit
(mean field and three qubit are two sizes of it), and analytic Pauli
expectation values.

States are complex amplitude vectors over 2**n basis states; bitstring b
indexes the amplitude with qubit 1 as the least significant bit.  Qubit
indices throughout are 1-based to match the bitstring convention.

Gate conventions: RY(t) = exp(-i t Y / 2), RZ(t) = exp(-i t Z / 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .pauli import pauli_words, word_matrix_stack


def _ry_matrix(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(t: float) -> np.ndarray:
    return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """One circuit element; ``qubits`` are 1-based indices."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None


def ry(qubit: int, angle: float) -> Gate:
    return Gate("ry", (qubit,), float(angle))


def rz(qubit: int, angle: float) -> Gate:
    return Gate("rz", (qubit,), float(angle))


def cnot(control: int, target: int) -> Gate:
    if control == target:
        raise ValueError("CNOT control and target must differ")
    return Gate("cnot", (control, target))


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def num_qubits(state: np.ndarray) -> int:
    n = int(np.log2(len(state)))
    if 2**n != len(state):
        raise ValueError(f"state length {len(state)} is not a power of two")
    return n


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    if gate.kind == "ry":
        return _ry_matrix(gate.angle)
    if gate.kind == "rz":
        return _rz_matrix(gate.angle)
    raise ValueError(f"{gate.kind} has no single-qubit matrix")


def _apply_1q(state: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    axis = n - qubit  # reshaped axis 0 holds the most significant bit
    v = np.moveaxis(state.reshape((2,) * n), axis, 0)
    shape = v.shape
    v = mat @ v.reshape(2, -1)
    return np.moveaxis(v.reshape(shape), 0, axis).reshape(-1)


def _apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    v = state.reshape((2,) * n).copy()
    ic, it = n - control, n - target
    sel0 = [slice(None)] * n
    sel0[ic] = 1
    sel1 = list(sel0)
    sel0[it], sel1[it] = 0, 1
    v[tuple(sel0)], v[tuple(sel1)] = v[tuple(sel1)].copy(), v[tuple(sel0)].copy()
    return v.reshape(-1)


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Unitary action of one gate; returns a new statevector."""
    n = num_qubits(state)
    for q in gate.qubits:
        if not 1 <= q <= n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    if gate.kind == "cnot":
        return _apply_cnot(state, gate.qubits[0], gate.qubits[1], n)
    return _apply_1q(state, gate_matrix(gate), gate.qubits[0], n)


def apply_circuit(state: np.ndarray, gates) -> np.ndarray:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


# ---------------------------------------------------------------------------
# The layered variational circuit


def _entangler_gather(n_qubits: int) -> np.ndarray:
    """Index map of the CNOT(1->2)·CNOT(2->3)··· chain:
    entangled[:, c] = psi[:, map[c]]."""
    image = []
    for b in range(2**n_qubits):
        for q in range(n_qubits - 1):  # CNOT(q+1 -> q+2)
            if b >> q & 1:
                b ^= 2 << q
        image.append(b)
    return np.argsort(image)


@lru_cache(maxsize=None)
def _register_maps(n_qubits: int):
    """Per-qubit Z signs (n, 2**n) as floats, bit-flip index maps (n, 2**n),
    and the entangler's gather map and its inverse; cached, so read-only."""
    x = np.arange(2**n_qubits)
    bits = np.arange(n_qubits)[:, None]
    gather = _entangler_gather(n_qubits)
    maps = (1.0 - 2.0 * (x >> bits & 1)), x ^ (1 << bits), gather, np.argsort(gather)
    for array in maps:
        array.flags.writeable = False
    return maps


def _rotation_layers(T: np.ndarray, n_qubits: int, n_layers: int):
    """Forward pass of the layered circuit on |0...0> for (N, n_params) rows.

    Each layer is RY then RZ on every qubit (angles ordered RY on qubits
    1..n, then RZ on qubits 1..n); the CNOT chain entangler separates the
    layers.  Layer 0 acts on |0...0>, so it is the product of the first
    columns of its per-qubit RZ·RY matrices.  Every later layer is one
    (N, 2**n, 2**n) Kronecker product applied by batched matmul after the
    entangler permutation.  Returns the state after every layer and those
    Kronecker products (N, n_layers - 1, 2**n, 2**n), highest qubit first.
    """
    B = T.shape[0]
    half = 0.5 * T.reshape(B, n_layers, 2, n_qubits)  # layer, ry|rz, qubit
    ez = np.exp(-1j * half[:, :, 1])
    a = ez * np.cos(half[:, :, 0])
    b = ez.conj() * np.sin(half[:, :, 0])
    u = np.empty((B, n_layers, n_qubits, 2, 2), dtype=complex)  # RZ @ RY = [[a, -b*], [b, a*]]
    u[..., 0, 0] = a
    u[..., 1, 0] = b
    u[..., 0, 1] = -b.conj()
    u[..., 1, 1] = a.conj()
    first = u[:, 0, :, :, 0]  # (B, qubit, 2): each qubit's RZ·RY|0>
    psi = first[:, -1]
    kron = u[:, 1:, -1]
    for q in range(n_qubits - 2, -1, -1):
        dim = 2 * psi.shape[-1]
        psi = (psi[:, :, None] * first[:, q, None, :]).reshape(B, dim)
        kron = (kron[..., :, None, :, None] * u[:, 1:, q, None, :, None, :]
                ).reshape(B, n_layers - 1, dim, dim)
    gather = _register_maps(n_qubits)[2]
    states = [psi]
    for layer in range(n_layers - 1):
        states.append(np.matmul(kron[:, layer], states[-1][:, gather, None])[..., 0])
    return states, kron


def rotation_layers_gradient(thetas: np.ndarray, dense: np.ndarray,
                             n_qubits: int, n_layers: int) -> np.ndarray:
    """Row-wise gradient of <ψ(θ)|H|ψ(θ)> by one batched adjoint sweep.

    The circuit is that of `_rotation_layers`.  Every angle drives one gate
    exp(-iθP/2), so ∂E/∂θ = Im<λ|P|φ>, with φ the state just after the gate
    and λ = Hψ carried back to the same point (Jones & Gacon 2020,
    arXiv:2009.02823).  The sweep starts from λ = Hψ and undoes each
    layer's RZ block, RY block and entangler in turn; it carries μ = λ*,
    so that undoing a layer is a row vector times its Kronecker product.
    """
    T = np.asarray(thetas, dtype=float)
    B = T.shape[0]
    zsign, flip, _, scatter = _register_maps(n_qubits)
    states, kron = _rotation_layers(T, n_qubits, n_layers)
    rz = np.exp(-0.5j * np.einsum("blq,qx->blx", T.reshape(B, n_layers, 2, n_qubits)[:, :, 1],
                                  zsign))
    grad = np.empty((B, n_layers, 2, n_qubits))
    # Stacked matvecs and einsum, not 2-D matmul: BLAS rounds the latter
    # differently for one row, and a row must not depend on its batch.
    mu = np.matmul(dense, states[-1][..., None])[..., 0].conj()
    for layer in range(n_layers - 1, -1, -1):
        phi = states[layer]
        grad[:, layer, 1] = np.einsum("bx,qx->bq", np.imag(mu * phi), zsign)
        # After the RY block: φ' = RZ†φ, λ' = RZ†λ.  Y_q b = -i z_q b[flip_q],
        # so Im<λ'|Y_q|φ'> = -Re Σ conj(λ') z_q φ'[flip_q].
        phi = rz[:, layer].conj() * phi
        grad[:, layer, 0] = -np.real(
            np.sum((rz[:, layer] * mu)[:, None] * zsign * phi[:, flip], axis=-1))
        if layer:
            mu = np.matmul(mu[:, None, :], kron[:, layer - 1])[:, 0, scatter]
    return grad.reshape(B, -1)


@dataclass(frozen=True)
class Ansatz:
    """A parameterised state-preparation family.

    ``gradient_batch(thetas, H)`` gives the (N, n_params) gradients of
    <ψ|H|ψ> at an (N, n_params) stack of rows, H a dense Hermitian matrix;
    None when the family has no analytic gradient.
    """

    name: str
    n_qubits: int
    n_params: int
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    prepare: Callable[[np.ndarray], np.ndarray]
    prepare_batch: Callable[[np.ndarray], np.ndarray]
    gradient_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def random_parameters(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lows, self.highs)


def _layered_ansatz(name: str, n_qubits: int, n_layers: int, ry_low: float) -> Ansatz:
    """The hardware-efficient circuit (Kandala et al. 2017, arXiv:1704.05018)
    on ``n_qubits`` qubits: ``n_layers`` rotation layers, each RY on qubits
    1..n then RZ on qubits 1..n, with the CNOT(1->2)·CNOT(2->3)··· chain
    between layers.  Angles run layer by layer, RY before RZ; RY angles are
    drawn from [ry_low, π], RZ angles from [-π, π].

    ``prepare`` runs the gate list through the gate-list simulator;
    ``prepare_batch`` and the gradient run `_rotation_layers`.
    """
    n_params = 2 * n_qubits * n_layers
    qubits = range(1, n_qubits + 1)

    def prepare(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != (n_params,):
            raise ValueError(f"expected {n_params} parameters, got shape {t.shape}")
        gates: list[Gate] = []
        for layer, (ry_angles, rz_angles) in enumerate(t.reshape(n_layers, 2, n_qubits)):
            if layer:
                gates.extend(cnot(q, q + 1) for q in qubits[:-1])
            gates.extend(map(ry, qubits, ry_angles))
            gates.extend(map(rz, qubits, rz_angles))
        return apply_circuit(zero_state(n_qubits), gates)

    def prepare_batch(thetas) -> np.ndarray:
        return _rotation_layers(np.asarray(thetas, dtype=float), n_qubits, n_layers)[0][-1]

    return Ansatz(
        name=name,
        n_qubits=n_qubits,
        n_params=n_params,
        lows=((ry_low,) * n_qubits + (-np.pi,) * n_qubits) * n_layers,
        highs=(np.pi,) * n_params,
        prepare=prepare,
        prepare_batch=prepare_batch,
        gradient_batch=partial(rotation_layers_gradient, n_qubits=n_qubits,
                               n_layers=n_layers),
    )


# cos(θ/2)|0> + e^{iφ} sin(θ/2)|1> up to a global phase, from (θ, φ).
MEAN_FIELD = _layered_ansatz("mean-field", n_qubits=1, n_layers=1, ry_low=0.0)
# Three layers: two cannot pin arbitrary 8x8 eigenvectors.
THREE_QUBIT = _layered_ansatz("three-qubit", n_qubits=3, n_layers=3, ry_low=-np.pi)


def ansatz_for(n_qubits: int) -> Ansatz:
    if n_qubits == 1:
        return MEAN_FIELD
    if n_qubits == 3:
        return THREE_QUBIT
    raise ValueError(f"no ansatz available for {n_qubits} qubits")


# ---------------------------------------------------------------------------
# Analytic expectation values


def exact_pauli_expectations(state: np.ndarray) -> dict[str, float]:
    """All 4**n word expectations <ψ|σ_w|ψ> of a statevector."""
    n = num_qubits(state)
    stack = word_matrix_stack(n)
    vals = np.real(np.einsum("i,wij,j->w", state.conj(), stack, state))
    return {w: float(v) for w, v in zip(pauli_words(n), vals)}
