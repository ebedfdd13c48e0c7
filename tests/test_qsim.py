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
from qbands.vqe import ExactBackend

from conftest import SIGMA, kron_word, layered_state, rand_hermitian, rand_state

HADAMARD = (SIGMA["X"] + SIGMA["Z"]) / np.sqrt(2)
PLUS = HADAMARD @ np.array([1, 0], dtype=complex)


def _backend_expectation(state, decomp):
    """<ψ|H|ψ> through the exact backend's objective, on a parameterless
    ansatz that prepares ``state``."""
    fixed = Ansatz("fixed", qsim.num_qubits(state), 0, (), (),
                   prepare=lambda t: state,
                   prepare_batch=lambda T: np.tile(state, (len(T), 1)))
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
        for word, val in exps.items():
            if set(word) <= {"I", "Z"}:
                assert val == pytest.approx(1.0)
            else:
                assert val == pytest.approx(0.0, abs=1e-15)

    def test_plus_state(self):
        exps = exact_pauli_expectations(PLUS)
        assert exps["I"] == pytest.approx(1.0)
        assert exps["X"] == pytest.approx(1.0)
        assert exps["Y"] == pytest.approx(0.0, abs=1e-15)
        assert exps["Z"] == pytest.approx(0.0, abs=1e-15)

    def test_density_matrix_roundtrip(self, rng):
        state = rand_state(rng, 8)
        exps = exact_pauli_expectations(state)
        rho = sum(exps[w] * kron_word(w) for w in pauli_words(3)) / 8
        assert np.max(np.abs(rho - np.outer(state, state.conj()))) < 1e-10

    def test_values_in_unit_interval(self, rng):
        exps = exact_pauli_expectations(rand_state(rng, 4))
        assert all(-1 - 1e-12 <= v <= 1 + 1e-12 for v in exps.values())


def test_cached_register_maps_are_read_only():
    for array in qsim._register_maps(2):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
