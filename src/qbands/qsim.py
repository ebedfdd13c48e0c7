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
from functools import lru_cache
from typing import Callable

import numpy as np

from .pauli import kron, rowwise, word_matrix_stack


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
    layers.  Every layer is one (N, 2**n, 2**n) Kronecker product of its
    per-qubit RZ·RY matrices, all layers in one `kron`.  Layer 0 acts on
    |0...0>, so its state is its product's first column; every later layer
    is applied by `rowwise` after the entangler permutation.  Returns the
    state after every layer and the products of layers 1.. (N,
    n_layers - 1, 2**n, 2**n), highest qubit first.
    Each layered ansatz keeps its last result in one read-only slot, which
    its ``prepare_batch`` and gradient share (`_layered_ansatz`).
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
    # The qubit axis runs from qubit 1; `kron` puts its first factor highest.
    layers = kron(u[:, :, ::-1])
    gather = _register_maps(n_qubits)[2]
    states = [layers[:, 0, :, 0]]
    for layer in range(1, n_layers):
        states.append(rowwise(layers[:, layer], states[-1][:, gather]))
    return states, layers[:, 1:]


def rotation_layers_gradient(T: np.ndarray, dense: np.ndarray, states, unitaries,
                             n_qubits: int, n_layers: int) -> np.ndarray:
    """Row-wise gradient of <ψ(θ)|H|ψ(θ)> by one batched adjoint sweep.

    ``states`` and ``unitaries`` are the forward pass of `_rotation_layers` at
    the (N, n_params) rows ``T``; the ansatz passes its memoised one, so a
    gradient at the rows of the last ``prepare_batch`` builds no state.
    Every angle drives one gate exp(-iθP/2), so ∂E/∂θ = Im<λ|P|φ>, with φ
    the state just after the gate and λ = Hψ carried back to the same point
    (Jones & Gacon 2020, arXiv:2009.02823).  The sweep starts from λ = Hψ
    and undoes each layer's entangler in turn; it carries μ = λ*, so that
    undoing a layer is a row vector times its Kronecker product.  The
    angles' terms then come from all layers at once: before a layer's RZ
    block for its RZ angles, and after its RY block (RZ undone) for its RY
    angles.
    """
    B = T.shape[0]
    zsign, flip, _, scatter = _register_maps(n_qubits)
    rz = np.exp(-0.5j * np.einsum("blq,qx->blx", T.reshape(B, n_layers, 2, n_qubits)[:, :, 1],
                                  zsign))
    # A row vector times each row's layer, stacked as in `rowwise`.
    mu = np.empty((B, n_layers, 2**n_qubits), dtype=complex)
    mu[:, -1] = rowwise(dense, states[-1]).conj()
    for layer in range(n_layers - 1, 0, -1):
        mu[:, layer - 1] = np.matmul(mu[:, layer, None, :], unitaries[:, layer - 1])[:, 0, scatter]
    phi = np.concatenate(states, axis=1).reshape(mu.shape)  # np.stack, without its wrapper
    grad = np.empty((B, n_layers, 2, n_qubits))
    grad[:, :, 1] = np.einsum("blx,qx->blq", (mu * phi).imag, zsign)
    # After the RY block: φ' = RZ†φ, λ' = RZ†λ.  Y_q b = -i z_q b[flip_q],
    # so Im<λ'|Y_q|φ'> = -Re Σ conj(λ') z_q φ'[flip_q].
    grad[:, :, 0] = -np.add.reduce(
        (rz * mu)[:, :, None] * zsign * (rz.conj() * phi)[:, :, flip], axis=-1).real
    return grad.reshape(B, -1)


@dataclass(frozen=True)
class Ansatz:
    """A parameterised state-preparation family.

    ``prepare_batch(thetas)`` gives the (N, 2**n) states of an
    (N, n_params) stack of rows; the layered circuits return the read-only
    stack of their one-slot forward-pass memo, shared by every caller at
    the same rows (`_layered_ansatz`).  ``gradient_batch(thetas, H)`` gives
    the (N, n_params) gradients of <ψ|H|ψ> at such a stack, H a dense
    Hermitian matrix.
    """

    name: str
    n_qubits: int
    n_params: int
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    prepare: Callable[[np.ndarray], np.ndarray]
    prepare_batch: Callable[[np.ndarray], np.ndarray]
    gradient_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def random_parameters(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lows, self.highs)


def _layered_ansatz(name: str, n_qubits: int, n_layers: int, ry_low: float) -> Ansatz:
    """The hardware-efficient circuit (Kandala et al. 2017, arXiv:1704.05018)
    on ``n_qubits`` qubits: ``n_layers`` rotation layers, each RY on qubits
    1..n then RZ on qubits 1..n, with the CNOT(1->2)·CNOT(2->3)··· chain
    between layers.  Angles run layer by layer, RY before RZ; RY angles are
    drawn from [ry_low, π], RZ angles from [-π, π].

    ``prepare`` runs the gate list through the gate-list simulator;
    ``prepare_batch`` and the gradient run `_rotation_layers` through one
    slot that holds the last forward pass, keyed by the shape and bytes of
    its float parameter stack (an optimizer rewrites its point array in
    place, so the array's identity is no key).  A gradient at the rows of
    the preceding ``prepare_batch`` reuses its states and Kronecker layers.
    The slot's arrays, the stack ``prepare_batch`` returns among them, are
    read-only.
    """
    n_params = 2 * n_qubits * n_layers
    qubits = range(1, n_qubits + 1)
    last = None  # ((shape, bytes), (states, unitaries)): one entry

    def forward(T: np.ndarray):
        nonlocal last
        key = T.shape, T.tobytes()
        if last is not None and last[0] == key:
            return last[1]
        # Drop the old entry before building the new one: holding both at
        # once raised the measured peak RSS of a `bands` run.
        last = None
        states, unitaries = _rotation_layers(T, n_qubits, n_layers)
        for array in (*states, unitaries):
            array.setflags(write=False)
        last = key, (states, unitaries)
        return states, unitaries

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
        return forward(np.asarray(thetas, dtype=float))[0][-1]

    def gradient_batch(thetas, dense) -> np.ndarray:
        T = np.asarray(thetas, dtype=float)
        return rotation_layers_gradient(T, dense, *forward(T), n_qubits, n_layers)

    return Ansatz(
        name=name,
        n_qubits=n_qubits,
        n_params=n_params,
        lows=((ry_low,) * n_qubits + (-np.pi,) * n_qubits) * n_layers,
        highs=(np.pi,) * n_params,
        prepare=prepare,
        prepare_batch=prepare_batch,
        gradient_batch=gradient_batch,
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


def exact_pauli_expectations(state: np.ndarray) -> np.ndarray:
    """All 4**n word expectations <ψ|σ_w|ψ> of a statevector, as a (4**n,)
    array in pauli_words order."""
    stack = word_matrix_stack(num_qubits(state))
    return np.real(np.einsum("i,wij,j->w", state.conj(), stack, state))
