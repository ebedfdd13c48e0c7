import dataclasses

import numpy as np
import pytest

from qbands import qsim
from qbands.pauli import SpectralDecomposition, decompose, pauli_words
from qbands.qsim import (
    MEAN_FIELD,
    THREE_QUBIT,
    Ansatz,
    ansatz_for,
    apply_circuit,
    apply_gate,
    cnot,
    exact_pauli_expectations,
    zero_state,
)
from qbands.tightbinding import KPoint, TBParameters, build_full_hamiltonian
from qbands.vqe import ExactBackend, minimize

from conftest import SIGMA, kron_word, layered_state, rand_hermitian, rand_state

HADAMARD = (SIGMA["X"] + SIGMA["Z"]) / np.sqrt(2)
PLUS = HADAMARD @ np.array([1, 0], dtype=complex)


def _backend_expectation(state, decomp):
    """<ψ|H|ψ> through the exact backend's objective, on a parameterless
    ansatz that prepares ``state``."""
    fixed = Ansatz("fixed", qsim.num_qubits(state), 0, (), (),
                   prepare=lambda t: state,
                   prepare_batch=lambda T: np.tile(state, (len(T), 1)),
                   gradient_batch=lambda T, H: np.zeros((len(T), 0)))
    f, _ = ExactBackend().make_objective(decomp, fixed)
    return f(np.zeros(0))


def _assert_same_ray(a, b):
    """a and b are one state up to a global phase: |<a|b>| = 1."""
    assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-12)


def _assert_gate_list_batch_and_oracle_agree(ansatz, n_layers, T):
    """prepare (gate list), each row of prepare_batch and the SIGMA oracle
    give one state per parameter row."""
    batch = ansatz.prepare_batch(T)
    assert batch.shape == (len(T), 2**ansatz.n_qubits)
    for row, t in zip(batch, T):
        oracle = layered_state(t, ansatz.n_qubits, n_layers)
        assert np.max(np.abs(ansatz.prepare(t) - oracle)) < 1e-12
        assert np.max(np.abs(row - oracle)) < 1e-12


def _rotation(gate):
    """RY/RZ matrix exp(-i t σ / 2) built from the test-local Pauli matrices."""
    sigma = SIGMA["Y"] if gate.kind == "ry" else SIGMA["Z"]
    return np.cos(gate.angle / 2) * SIGMA["I"] - 1j * np.sin(gate.angle / 2) * sigma


def _circuit_matrix(gates, n):
    """Independent dense unitary of a gate list (CNOT built from kron_word)."""
    dim = 2**n
    U = np.eye(dim, dtype=complex)
    for g in gates:
        if g.kind == "cnot":
            control, target = g.qubits
            P0 = np.zeros((dim, dim), dtype=complex)
            P1 = np.zeros((dim, dim), dtype=complex)
            for b in range(dim):
                if (b >> (control - 1)) & 1:
                    P1[b ^ (1 << (target - 1)), b] = 1
                else:
                    P0[b, b] = 1
            step = P0 + P1
        else:
            mats = [np.eye(2, dtype=complex)] * n
            mats[n - g.qubits[0]] = _rotation(g)
            step = mats[0]
            for m in mats[1:]:
                step = np.kron(step, m)
        U = step @ U
    return U


class TestGates:
    def test_ry_pi_flips(self):
        out = apply_gate(zero_state(1), qsim.ry(1, np.pi))
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_ry_half_pi_makes_plus(self):
        out = apply_gate(zero_state(1), qsim.ry(1, np.pi / 2))
        assert np.allclose(out, PLUS, atol=1e-15)

    def test_cnot_flips_target(self):
        # |01> (qubit 1 set) -> |11>
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0
        out = apply_gate(state, cnot(1, 2))
        assert np.allclose(out, np.eye(4)[0b11])

    def test_cnot_inactive_control(self):
        state = np.zeros(4, dtype=complex)
        state[0b10] = 1.0
        out = apply_gate(state, cnot(1, 2))
        assert np.allclose(out, state)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(zero_state(1), qsim.ry(2, 0.1))

    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            cnot(2, 2)

    def test_norm_preserved_under_random_circuits(self, rng):
        for _ in range(10):
            state = rand_state(rng, 8)
            gates = []
            for _ in range(20):
                kind = rng.integers(0, 3)
                q = int(rng.integers(1, 4))
                if kind == 0:
                    gates.append(qsim.ry(q, rng.uniform(-np.pi, np.pi)))
                elif kind == 1:
                    gates.append(qsim.rz(q, rng.uniform(-np.pi, np.pi)))
                else:
                    t = int(rng.integers(1, 4))
                    if t != q:
                        gates.append(cnot(q, t))
            out = apply_circuit(state, gates)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_matches_dense_unitary(self, rng):
        gates = [qsim.ry(1, 0.3), qsim.rz(2, -1.2), cnot(1, 3), qsim.rz(2, 0.7),
                 qsim.ry(3, -2.1), cnot(2, 1), qsim.rz(1, np.pi), qsim.ry(2, 1.9)]
        state = rand_state(rng, 8)
        assert np.allclose(
            apply_circuit(state, gates), _circuit_matrix(gates, 3) @ state, atol=1e-12
        )


class TestMeanField:
    """MEAN_FIELD is the layered circuit with one layer on one qubit:
    cos(θ/2)|0> + e^{iφ} sin(θ/2)|1> up to a global phase."""

    def test_zero_polar_angle(self):
        for phi in (-2.0, 0.0, 1.3):
            _assert_same_ray(MEAN_FIELD.prepare(np.array([0.0, phi])), [1.0, 0.0])

    def test_pi_polar_angle(self):
        _assert_same_ray(MEAN_FIELD.prepare(np.array([np.pi, 0.0])), [0.0, 1.0])

    def test_equator_with_quarter_phase(self):
        out = MEAN_FIELD.prepare(np.array([np.pi / 2, np.pi / 2]))
        _assert_same_ray(out, [1 / np.sqrt(2), 1j / np.sqrt(2)])

    def test_closed_form_amplitudes(self, rng):
        T = np.array([MEAN_FIELD.random_parameters(rng) for _ in range(20)])
        batch = MEAN_FIELD.prepare_batch(T)
        for row, (th, ph) in zip(batch, T):
            closed = [np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)]
            _assert_same_ray(MEAN_FIELD.prepare(np.array([th, ph])), closed)
            _assert_same_ray(row, closed)

    def test_batch_matches_single(self, rng):
        T = rng.uniform([-0.5, -np.pi], [np.pi, np.pi], size=(30, 2))
        _assert_gate_list_batch_and_oracle_agree(MEAN_FIELD, 1, T)

    def test_reaches_any_single_qubit_state(self, rng):
        # Invert the closed form on random targets.
        for _ in range(20):
            target = rand_state(rng, 2)
            theta = 2 * np.arccos(np.clip(abs(target[0]), 0, 1))
            phi = float(np.angle(target[1]) - np.angle(target[0]))
            out = MEAN_FIELD.prepare(np.array([theta, phi]))
            assert abs(np.vdot(out, target)) == pytest.approx(1.0, abs=1e-10)


class TestThreeQubit:
    """THREE_QUBIT is the layered circuit with three layers on three qubits."""

    def test_zero_parameters_prepare_vacuum(self):
        assert np.allclose(THREE_QUBIT.prepare(np.zeros(18)), np.eye(8)[0])

    def test_first_ry_pi_traces_through_entanglers(self):
        # RY(π) on qubit 1, everything else idle: |001> -> |011> -> |111>
        # after the first entangler pair, back to |101> after the second.
        thetas = np.zeros(18)
        thetas[0] = np.pi
        out = THREE_QUBIT.prepare(thetas)
        assert np.allclose(out, layered_state(thetas, 3, 3), atol=1e-12)
        assert np.allclose(out, np.eye(8)[0b101], atol=1e-12)

    def test_random_parameters_normalised(self, rng):
        for _ in range(10):
            out = THREE_QUBIT.prepare(rng.uniform(-np.pi, np.pi, 18))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError, match="18 parameters"):
            THREE_QUBIT.prepare(np.zeros(12))

    def test_batch_matches_single(self, rng):
        T = rng.uniform(-np.pi, np.pi, size=(25, 18))
        _assert_gate_list_batch_and_oracle_agree(THREE_QUBIT, 3, T)

    @pytest.mark.parametrize("rows", [1, 37, 740])
    def test_batch_matches_kronecker_oracle(self, rows, rng):
        T = rng.uniform(-np.pi, np.pi, size=(rows, 18))
        batch = THREE_QUBIT.prepare_batch(T)
        assert batch.shape == (rows, 8)
        oracle = np.array([layered_state(t, 3, 3) for t in T])
        assert np.max(np.abs(batch - oracle)) < 1e-12


class TestAnsatz:
    def test_registry(self):
        assert ansatz_for(1) is MEAN_FIELD
        assert ansatz_for(3) is THREE_QUBIT
        with pytest.raises(ValueError):
            ansatz_for(2)

    def test_parameter_counts(self):
        assert MEAN_FIELD.n_params == 2
        assert THREE_QUBIT.n_params == 18

    def test_parameter_ranges(self):
        # RY angles of the mean-field circuit start at 0, all others at -π.
        assert MEAN_FIELD.lows == (0.0, -np.pi)
        assert THREE_QUBIT.lows == (-np.pi,) * 18
        assert MEAN_FIELD.highs == (np.pi,) * 2
        assert THREE_QUBIT.highs == (np.pi,) * 18

    def test_random_parameters_in_domain(self, rng):
        t = MEAN_FIELD.random_parameters(rng)
        assert 0 <= t[0] <= np.pi and -np.pi <= t[1] <= np.pi


class TestExactExpectation:
    def test_z_on_basis_states(self):
        d = SpectralDecomposition(1, {"Z": 1.0})
        assert _backend_expectation(zero_state(1), d) == pytest.approx(1.0)
        assert _backend_expectation(PLUS, d) == pytest.approx(0.0, abs=1e-15)

    def test_meanfield_sweep_matches_dense_matvec(self, rng):
        H = rand_hermitian(rng, 2, scale=3.0)
        d = decompose(H)
        for th in np.linspace(0, np.pi, 7):
            for ph in np.linspace(-np.pi, np.pi, 7):
                psi = MEAN_FIELD.prepare(np.array([th, ph]))
                direct = float(np.real(psi.conj() @ (H @ psi)))
                assert _backend_expectation(psi, d) == pytest.approx(direct, abs=1e-12)

    def test_bounded_by_spectrum(self, rng):
        H = rand_hermitian(rng, 8, scale=2.0)
        d = decompose(H)
        lo, hi = np.linalg.eigvalsh(H)[[0, -1]]
        for _ in range(10):
            val = _backend_expectation(rand_state(rng, 8), d)
            assert lo - 1e-10 <= val <= hi + 1e-10

    def test_linear_in_coefficients(self, rng):
        state = rand_state(rng, 4)
        d1 = decompose(rand_hermitian(rng, 4))
        d2 = decompose(rand_hermitian(rng, 4))
        combined = {
            w: 0.5 * d1.coefficient(w) - 1.5 * d2.coefficient(w)
            for w in pauli_words(2)
        }
        lhs = _backend_expectation(state, SpectralDecomposition(2, combined))
        rhs = 0.5 * _backend_expectation(state, d1) - 1.5 * _backend_expectation(state, d2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            _backend_expectation(zero_state(2), SpectralDecomposition(1, {"Z": 1.0}))


class TestPauliExpectations:
    def test_vacuum_state(self):
        exps = exact_pauli_expectations(zero_state(3))
        assert exps.shape == (64,)
        for word, val in zip(pauli_words(3), exps):
            if set(word) <= {"I", "Z"}:
                assert val == pytest.approx(1.0)
            else:
                assert val == pytest.approx(0.0, abs=1e-15)

    def test_plus_state(self):
        i, x, y, z = exact_pauli_expectations(PLUS)  # pauli_words(1) order
        assert i == pytest.approx(1.0)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(0.0, abs=1e-15)
        assert z == pytest.approx(0.0, abs=1e-15)

    def test_density_matrix_roundtrip(self, rng):
        state = rand_state(rng, 8)
        exps = exact_pauli_expectations(state)
        rho = sum(e * kron_word(w) for w, e in zip(pauli_words(3), exps)) / 8
        assert np.max(np.abs(rho - np.outer(state, state.conj()))) < 1e-10

    def test_values_in_unit_interval(self, rng):
        exps = exact_pauli_expectations(rand_state(rng, 4))
        assert exps.shape == (16,) and np.all(np.abs(exps) <= 1 + 1e-12)


def test_cached_register_maps_are_read_only():
    for array in qsim._register_maps(2):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def _layer_by_layer_gradient(T, dense, states, kron, n_qubits, n_layers):
    """The adjoint sweep one layer at a time: each layer's RZ and RY terms
    from its own (N, 2**n) rows, as the sweep ran before its terms were
    taken from all layers at once.  Same arithmetic, so equal bit for bit."""
    B = T.shape[0]
    zsign, flip, _, scatter = qsim._register_maps(n_qubits)
    rz = np.exp(-0.5j * np.einsum("blq,qx->blx", T.reshape(B, n_layers, 2, n_qubits)[:, :, 1],
                                  zsign))
    grad = np.empty((B, n_layers, 2, n_qubits))
    mu = np.matmul(dense, states[-1][..., None])[..., 0].conj()
    for layer in range(n_layers - 1, -1, -1):
        phi = states[layer]
        grad[:, layer, 1] = np.einsum("bx,qx->bq", np.imag(mu * phi), zsign)
        phi = rz[:, layer].conj() * phi
        grad[:, layer, 0] = -np.real(
            np.sum((rz[:, layer] * mu)[:, None] * zsign * phi[:, flip], axis=-1))
        if layer:
            mu = np.matmul(mu[:, None, :], kron[:, layer - 1])[:, 0, scatter]
    return grad.reshape(B, -1)


@pytest.mark.parametrize("rows", [1, 2, 7, 40])
@pytest.mark.parametrize("ansatz, n_layers", [(MEAN_FIELD, 1), (THREE_QUBIT, 3)],
                         ids=["mean-field", "three-qubit"])
def test_sweep_equals_layer_by_layer_sweep(ansatz, n_layers, rows, rng):
    n = ansatz.n_qubits
    for _ in range(5):
        H = rand_hermitian(rng, 2**n)
        T = np.array([ansatz.random_parameters(rng) for _ in range(rows)])
        states, kron = qsim._rotation_layers(T, n, n_layers)
        expected = _layer_by_layer_gradient(T, H, states, kron, n, n_layers)
        assert (qsim.rotation_layers_gradient(T, H, states, kron, n, n_layers) == expected).all()


class TestForwardMemo:
    """Each layered ansatz keeps its last forward pass in one slot, keyed by
    the bytes of the parameter stack; the exact gradient reuses it."""

    @pytest.fixture
    def forward_passes(self, monkeypatch):
        """The stacks every `_rotation_layers` call runs on, in order."""
        stacks = []
        original = qsim._rotation_layers

        def counted(T, n_qubits, n_layers):
            stacks.append(T.copy())
            return original(T, n_qubits, n_layers)

        monkeypatch.setattr(qsim, "_rotation_layers", counted)
        return stacks

    @pytest.mark.parametrize("ansatz", [MEAN_FIELD, THREE_QUBIT],
                             ids=["mean-field", "three-qubit"])
    def test_gradient_from_memo_equals_rebuilt_one(self, ansatz, forward_passes, rng):
        H = rand_hermitian(rng, 2**ansatz.n_qubits)
        T = np.array([ansatz.random_parameters(rng) for _ in range(5)])
        ansatz.prepare_batch(T)
        hit = ansatz.gradient_batch(T, H)
        assert len(forward_passes) == 1
        ansatz.prepare_batch(T + 0.25)  # the slot now holds other rows
        miss = ansatz.gradient_batch(T, H)
        assert len(forward_passes) == 3
        assert (hit == miss).all()

    def test_point_changed_in_place_gets_its_own_gradient(self, rng):
        # An optimizer writes accepted trials into one point array and takes
        # the gradient at a view of it: the array's identity is no key.
        H = rand_hermitian(rng, 8)
        x = np.array([THREE_QUBIT.random_parameters(rng) for _ in range(3)])
        THREE_QUBIT.prepare_batch(x)
        x[1] += 0.5
        states, kron = qsim._rotation_layers(x.copy(), 3, 3)
        expected = qsim.rotation_layers_gradient(x.copy(), H, states, kron, 3, 3)
        assert (THREE_QUBIT.gradient_batch(x[:], H) == expected).all()

    @pytest.mark.parametrize("ansatz", [MEAN_FIELD, THREE_QUBIT],
                             ids=["mean-field", "three-qubit"])
    def test_prepared_stack_is_read_only(self, ansatz, rng):
        # The stack is the slot's own, shared by every caller at these rows.
        psi = ansatz.prepare_batch(np.array([ansatz.random_parameters(rng)]))
        with pytest.raises(ValueError, match="read-only"):
            psi[0, 0] = 1.0

    def test_gradient_at_the_objective_rows_builds_no_state(self, forward_passes):
        # One exact level: every gradient at the rows of the objective call
        # just before it runs no forward pass; any other runs one.
        events = []

        def prepare_batch(T):
            events.append(("objective", np.asarray(T, dtype=float).tobytes(), None))
            return THREE_QUBIT.prepare_batch(T)

        def gradient_batch(T, H):
            before = len(forward_passes)
            g = THREE_QUBIT.gradient_batch(T, H)
            events.append(("gradient", np.asarray(T, dtype=float).tobytes(),
                           len(forward_passes) - before))
            return g

        ansatz = dataclasses.replace(THREE_QUBIT, prepare_batch=prepare_batch,
                                     gradient_batch=gradient_batch)
        H = build_full_hamiltonian(TBParameters.default_silicon(), KPoint.high_symmetry("L"))
        minimize(decompose(H), ansatz, ExactBackend(), seed=3)
        hits = misses = 0
        for (kind, rows, _), (next_kind, next_rows, passes) in zip(events, events[1:]):
            if next_kind == "gradient":
                assert kind == "objective"
                same = rows == next_rows
                assert passes == (0 if same else 1)
                hits += same
                misses += not same
        assert hits > 0
        n_objective = sum(kind == "objective" for kind, _, _ in events)
        assert len(forward_passes) <= n_objective + misses
