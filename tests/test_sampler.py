import itertools

import numpy as np
import pytest

from qbands import qsim
from qbands.pauli import decompose, pauli_words
from qbands.qsim import zero_state
from qbands.sampler import (
    ReadoutNoiseModel,
    basis_change,
    estimate_transition_rates,
    expectation_from_counts,
    mitigate_counts,
    mitigate_single,
    sample,
    sampled_expectation,
)

from conftest import SIGMA, kron_word, rand_hermitian, rand_state

HADAMARD = (SIGMA["X"] + SIGMA["Z"]) / np.sqrt(2)
PLUS = HADAMARD @ np.array([1, 0], dtype=complex)
# Asymmetric per-qubit rates: a reversed qubit order changes the outcome law.
W01, W10 = (0.0, 0.2), (0.1, 0.0)


def _counts(n, entries):
    """Count array of n qubits from {bitstring value: count}."""
    out = np.zeros(2**n, dtype=np.int64)
    for value, c in entries.items():
        out[value] = c
    return out


def _noisy_law(true_value, n, w01, w10):
    """Outcome law of basis state |true_value> under independent readout
    flips, by enumerating every flip pattern; index q-1 of the rates is
    qubit q."""
    law = np.zeros(2**n)
    for flips in itertools.product((0, 1), repeat=n):
        prob, read = 1.0, 0
        for q, flip in enumerate(flips):
            bit = (true_value >> q) & 1
            rate = w10[q] if bit else w01[q]
            prob *= rate if flip else 1 - rate
            read |= (bit ^ flip) << q
        law[read] += prob
    return law


class TestBasisChange:
    def test_z_needs_nothing(self):
        change = basis_change("Z")
        assert np.array_equal(change.unitary, np.eye(2))
        assert change.diagonal == "Z"

    def test_x_uses_hadamard(self):
        change = basis_change("X")
        assert np.allclose(change.unitary, HADAMARD, atol=1e-15)
        # <X> of |+> measured as a Z expectation after the rotation
        rotated = change.unitary @ PLUS
        assert qsim.exact_pauli_expectations(rotated)["Z"] == pytest.approx(1.0)

    def test_y_gate_product_is_hsz(self):
        change = basis_change("Y")
        U = change.unitary
        Smat = np.diag([1, 1j])
        assert np.allclose(U, HADAMARD @ Smat @ SIGMA["Z"], atol=1e-15)
        assert np.allclose(U.conj().T @ SIGMA["Z"] @ U, SIGMA["Y"], atol=1e-12)
        # The +1 eigenstate of Y lands on <Z> = +1
        y_plus = np.array([1, 1j]) / np.sqrt(2)
        assert qsim.exact_pauli_expectations(U @ y_plus)["Z"] == pytest.approx(1.0)

    def test_identity_letters_need_nothing(self):
        assert np.array_equal(basis_change("IZI").unitary, np.eye(8))

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjugation_recovers_word(self, n):
        for letters in itertools.product("IXYZ", repeat=n):
            word = "".join(letters)
            change = basis_change(word)
            U = change.unitary
            recovered = U.conj().T @ kron_word(change.diagonal) @ U
            assert np.max(np.abs(recovered - kron_word(word))) < 1e-12

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            basis_change("XQ")


class TestSample:
    def test_deterministic_zero_state(self):
        counts = sample(zero_state(1), 1000, rng=1)
        assert counts.tolist() == [1000, 0]

    def test_plus_state_binomial(self):
        counts = sample(PLUS, 8192, rng=7)
        frac = counts[0] / 8192
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / 8192)

    def test_readout_flips_at_injected_rate(self):
        noise = ReadoutNoiseModel.uniform(1, w01=0.03, w10=0.0)
        counts = sample(zero_state(1), 100_000, noise=noise, rng=3)
        frac = counts[1] / 100_000
        assert abs(frac - 0.03) <= 3 * np.sqrt(0.03 * 0.97 / 100_000)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integer_counts_over_all_outcomes(self, n):
        state = rand_state(np.random.default_rng(n), 2**n)
        noise = ReadoutNoiseModel.uniform(n, 0.02, 0.05)
        counts = sample(state, 5000, noise=noise, rng=42)
        assert counts.shape == (2**n,)
        assert np.issubdtype(counts.dtype, np.integer)
        assert counts.sum() == 5000 and counts.min() >= 0

    def test_seeded_replay(self):
        state = rand_state(np.random.default_rng(0), 4)
        noise = ReadoutNoiseModel.uniform(2, 0.02, 0.05)
        a = sample(state, 5000, noise=noise, rng=42)
        b = sample(state, 5000, noise=noise, rng=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, true_value", [(2, 0b01), (2, 0b10), (3, 0b011), (3, 0b100)])
    def test_asymmetric_noise_law_on_basis_states(self, n, true_value):
        w01 = W01 + (0.05,) * (n - 2)
        w10 = W10 + (0.15,) * (n - 2)
        state = np.zeros(2**n, dtype=complex)
        state[true_value] = 1.0
        M = 1_000_000
        counts = sample(state, M, noise=ReadoutNoiseModel(w01, w10), rng=17)
        law = _noisy_law(true_value, n, w01, w10)
        sigma = np.sqrt(law * (1 - law) / M)
        assert np.all(np.abs(counts / M - law) <= 5 * sigma + 1e-12)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(zero_state(1), 0)


class TestExpectationFromCounts:
    def test_worked_five_qubit_example(self):
        # I5 Z4 Z3 I2 Z1 on |00101>: substring 011, weight two, even parity.
        counts = _counts(5, {0b00101: 8192})
        assert expectation_from_counts(counts, "IZZIZ") == 1.0

    def test_single_qubit_two_p_minus_one(self):
        counts = _counts(1, {0: 75, 1: 25})
        assert expectation_from_counts(counts, "Z") == pytest.approx(0.5)

    def test_reads_the_named_qubit(self):
        # Qubit 1 reads 1 in every shot, qubit 2 reads 0.
        counts = _counts(2, {0b01: 100})
        assert expectation_from_counts(counts, "IZ") == -1.0
        assert expectation_from_counts(counts, "ZI") == 1.0

    def test_identity_word_is_one(self, rng):
        counts = _counts(2, {0b00: 13, 0b01: 5, 0b10: 0, 0b11: 7})
        assert expectation_from_counts(counts, "II") == 1.0

    def test_rejects_undiagonalised_word(self):
        with pytest.raises(ValueError, match="non-diagonal"):
            expectation_from_counts(_counts(1, {0: 1}), "X")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            expectation_from_counts(_counts(2, {0: 1}), "Z")

    def test_converges_to_exact(self, rng):
        # Estimator consistency at large M, within 4σ (seeded).
        for n in (2, 3):
            state = rand_state(rng, 2**n)
            for word in ("Z" * n, "ZI" + "Z" * (n - 2)):
                exact = qsim.exact_pauli_expectations(state)[word]
                counts = sample(state, 1_000_000, rng=11)
                est = expectation_from_counts(counts, word)
                sigma = np.sqrt(max(1 - exact**2, 1e-12) / 1_000_000)
                assert abs(est - exact) <= 4 * sigma


class TestSampledExpectation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_words_match_exact(self, n, rng):
        state = rand_state(rng, 2**n)
        exact = qsim.exact_pauli_expectations(state)
        M = 100_000
        for i, word in enumerate(pauli_words(n)):
            est = sampled_expectation(state, word, M, rng=100 + i)
            sigma = np.sqrt(max(1 - exact[word] ** 2, 1e-12) / M)
            assert abs(est - exact[word]) <= 4 * sigma + 1e-12

    def test_identity_needs_no_shots(self):
        assert sampled_expectation(zero_state(2), "II", 10) == 1.0


class TestTransitionRates:
    def test_noiseless_rates_are_exactly_zero(self):
        est = estimate_transition_rates(None, 1, 10_000, rng=5)
        assert est.w01 == (0.0,) and est.w10 == (0.0,)

    def test_recovers_injected_rates(self):
        noise = ReadoutNoiseModel.uniform(1, w01=0.03, w10=0.08)
        est = estimate_transition_rates(noise, 1, 100_000, rng=9)
        assert abs(est.w01[0] - 0.03) <= 3 * np.sqrt(0.03 * 0.97 / 100_000)
        assert abs(est.w10[0] - 0.08) <= 3 * np.sqrt(0.08 * 0.92 / 100_000)

    def test_per_qubit_rates(self):
        noise = ReadoutNoiseModel((0.02, 0.1), (0.05, 0.0))
        est = estimate_transition_rates(noise, 2, 200_000, rng=2)
        assert est.w01 == pytest.approx((0.02, 0.1), abs=0.005)
        assert est.w10 == pytest.approx((0.05, 0.0), abs=0.005)

    def test_estimates_trace_injected_drift(self):
        period, amp, base = 18.0, 0.01, 0.05
        noise = ReadoutNoiseModel.uniform(
            1, w01=0.0, w10=base, drift_amplitude=amp, drift_period=period
        )
        trials = 200_000
        sigma = np.sqrt(0.06 * 0.94 / trials)
        for t in range(0, 36, 3):
            est = estimate_transition_rates(noise, 1, trials, rng=50 + t, trial=t)
            truth = base + amp * np.sin(2 * np.pi * t / period)
            assert abs(est.w10[0] - truth) <= 4 * sigma

    def test_drift_requires_period(self):
        with pytest.raises(ValueError):
            ReadoutNoiseModel.uniform(1, 0.0, 0.05, drift_amplitude=0.01)

    @pytest.mark.parametrize("amplitude, period", [
        (float("nan"), 18), (float("inf"), 18), ("0.01", 18), (None, 18),
        (0.01, "18"), (0.01, float("nan")), (0.01, float("inf")), (0.01, 0),
        (0.01, -18), (0.01, True),
    ])
    def test_drift_fields_must_be_finite_reals(self, amplitude, period):
        with pytest.raises(ValueError, match="drift"):
            ReadoutNoiseModel.uniform(1, 0.0, 0.05, drift_amplitude=amplitude,
                                      drift_period=period)


class TestMitigation:
    def test_noiseless_passthrough(self):
        model = ReadoutNoiseModel.uniform(1, 0.0, 0.0)
        assert mitigate_single(0.5, model) == 0.5

    def test_symmetric_rates_example(self):
        model = ReadoutNoiseModel.uniform(1, 0.1, 0.1)
        assert mitigate_single(0.5, model) == pytest.approx(0.625)

    def test_monte_carlo_bias_inversion(self, rng):
        # Sample a known state through readout flips, then undo the bias.
        model = ReadoutNoiseModel.uniform(1, 0.1, 0.1)
        state = qsim.MEAN_FIELD.prepare(np.array([1.1, 0.0]))
        z_true = qsim.exact_pauli_expectations(state)["Z"]
        counts = sample(state, 200_000, noise=model, rng=6)
        raw = expectation_from_counts(counts, "Z")
        sigma = np.sqrt(1.0 / 200_000)
        assert abs(raw - 0.8 * z_true) <= 3 * sigma  # attenuated by 1 - p+
        corrected = mitigate_single(raw, model)
        assert abs(corrected - z_true) <= 3 * sigma / 0.8

    def test_clamped_to_physical_range(self):
        model = ReadoutNoiseModel.uniform(1, 0.15, 0.02)
        assert mitigate_single(-0.999, model) >= -1.0
        assert mitigate_single(0.9999, model) <= 1.0

    def test_ill_posed_rates_rejected(self):
        model = ReadoutNoiseModel.uniform(1, 0.6, 0.5)
        with pytest.raises(ValueError, match="ill-posed"):
            mitigate_single(0.1, model)

    def test_counts_reduces_to_single_qubit_formula(self, rng):
        model = ReadoutNoiseModel.uniform(1, 0.07, 0.12)
        counts = _counts(1, {0: 6200, 1: 3800})
        raw = expectation_from_counts(counts, "Z")
        assert mitigate_counts(counts, model, "Z") == pytest.approx(
            mitigate_single(raw, model), abs=1e-12
        )

    def test_zero_model_equals_parity_estimator(self, rng):
        model = ReadoutNoiseModel.uniform(2, 0.0, 0.0)
        state = rand_state(rng, 4)
        counts = sample(state, 20_000, rng=8)
        for word in ("ZZ", "IZ", "ZI", "II"):
            assert mitigate_counts(counts, model, word) == pytest.approx(
                expectation_from_counts(counts, word), abs=1e-12
            )

    def test_two_qubit_zz_recovery(self):
        model = ReadoutNoiseModel.uniform(2, 0.05, 0.05)
        counts = sample(zero_state(2), 100_000, noise=model, rng=12)
        raw = expectation_from_counts(counts, "ZZ")
        sigma_raw = np.sqrt((1 - 0.81**2) / 100_000)
        assert abs(raw - 0.81) <= 3 * sigma_raw  # (1 - 2w)^2 attenuation
        corrected = mitigate_counts(counts, model, "ZZ")
        assert abs(corrected - 1.0) <= 3 * sigma_raw / 0.81

    @pytest.mark.parametrize("word, qubit", [("ZI", 2), ("IZ", 1)])
    def test_unbiased_per_qubit_with_asymmetric_rates(self, word, qubit, rng):
        model = ReadoutNoiseModel(W01, W10)
        state = rand_state(rng, 4)
        exact = qsim.exact_pauli_expectations(state)[word]
        M = 200_000
        counts = sample(state, M, noise=model, rng=31)
        sigma = np.sqrt(1.0 / M) / (1 - (W01[qubit - 1] + W10[qubit - 1]))
        assert abs(mitigate_counts(counts, model, word) - exact) <= 4 * sigma

    def test_unbiased_for_random_rates(self, rng):
        # Mitigated estimates agree with the exact value for any rates
        # up to 0.2, within 3σ of the corrected estimator.
        M = 150_000
        for trial in range(6):
            w01, w10 = rng.uniform(0.0, 0.2, 2)
            model = ReadoutNoiseModel.uniform(1, w01, w10)
            state = rand_state(rng, 2)
            z = qsim.exact_pauli_expectations(state)["Z"]
            counts = sample(state, M, noise=model, rng=300 + trial)
            corrected = mitigate_counts(counts, model, "Z")
            sigma = np.sqrt(1.0 / M) / (1 - (w01 + w10))
            assert abs(corrected - z) <= 3 * sigma


class TestShotNoiseScaling:
    def test_standard_error_shrinks_as_inverse_root_m(self, rng):
        H = rand_hermitian(rng, 4, scale=1.5)
        dec = decompose(H)
        state = rand_state(rng, 4)
        sampled_words = [(w, c) for w, c in dec.coeffs.items() if set(w) != {"I"}]
        c_ident = dec.coefficient("II")
        ms = [2**k for k in range(7, 14, 2)]
        stds = []
        for mi, M in enumerate(ms):
            vals = []
            for rep in range(60):
                total = c_ident
                for wi, (w, c) in enumerate(sampled_words):
                    total += c * sampled_expectation(
                        state, w, M, rng=1000 * mi + 10 * rep + wi
                    )
                vals.append(total)
            stds.append(np.std(vals))
        slope = np.polyfit(np.log(ms), np.log(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
