import functools
import itertools
import re

import numpy as np
import pytest

from qbands import qsim, sampler
from qbands.pauli import decompose, pauli_words
from qbands.qsim import zero_state
from qbands.seeding import StreamFamily
from qbands.sampler import (
    STACKED_DRAW_LAWS,
    ReadoutNoiseModel,
    basis_change,
    confusion,
    estimate_transition_rates,
    expectation_from_counts,
    mitigate_counts,
    parity_table,
    parity_weights,
    sample,
    sampled_expectation,
)

from conftest import SIGMA, kron_word, philox_stream, rand_hermitian, rand_state, seeded

HADAMARD = (SIGMA["X"] + SIGMA["Z"]) / np.sqrt(2)
PLUS = HADAMARD @ np.array([1, 0], dtype=complex)
# Asymmetric per-qubit rates: a reversed qubit order changes the outcome law.
W01, W10 = (0.0, 0.2), (0.1, 0.0)


def _counts(n, entries):
    """One count row of n qubits from {bitstring value: count}, as the
    (1, 2**n) count stack of a one-word tuple."""
    out = np.zeros((1, 2**n), dtype=np.int64)
    for value, c in entries.items():
        out[0, value] = c
    return out


def _confusion(model):
    """The one-law confusion stack of a model's trial-0 law."""
    return confusion(model.laws([0]))


def _table(model):
    """The one-law parity table of a model's trial-0 law."""
    return parity_table(model.laws([0]))


def _no_draws(b):
    pytest.fail(f"row {b} drew from its stream")


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


def _exact(state, word):
    """<ψ|σ_word|ψ> from `exact_pauli_expectations`, read at the word's
    position in pauli_words order."""
    return qsim.exact_pauli_expectations(state)[pauli_words(len(word)).index(word)]


class TestBasisChange:
    def test_z_needs_nothing(self):
        change = basis_change(("Z",))
        assert np.array_equal(change.unitary, [np.eye(2)])
        assert change.diagonal == ("Z",)

    def test_x_uses_hadamard(self):
        change = basis_change(("X",))
        assert np.allclose(change.unitary[0], HADAMARD, atol=1e-15)
        # <X> of |+> measured as a Z expectation after the rotation
        rotated = change.unitary[0] @ PLUS
        assert _exact(rotated, "Z") == pytest.approx(1.0)

    def test_y_gate_product_is_hsz(self):
        change = basis_change(("Y",))
        U = change.unitary[0]
        Smat = np.diag([1, 1j])
        assert np.allclose(U, HADAMARD @ Smat @ SIGMA["Z"], atol=1e-15)
        assert np.allclose(U.conj().T @ SIGMA["Z"] @ U, SIGMA["Y"], atol=1e-12)
        # The +1 eigenstate of Y lands on <Z> = +1
        y_plus = np.array([1, 1j]) / np.sqrt(2)
        assert _exact(U @ y_plus, "Z") == pytest.approx(1.0)

    def test_identity_letters_need_nothing(self):
        assert np.array_equal(basis_change(("IZI",)).unitary, [np.eye(8)])

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjugation_recovers_word(self, n):
        words = tuple("".join(letters) for letters in itertools.product("IXYZ", repeat=n))
        change = basis_change(words)
        assert len(change.diagonal) == len(change.unitary) == len(words)
        for word, diagonal, U in zip(words, change.diagonal, change.unitary):
            recovered = U.conj().T @ kron_word(diagonal) @ U
            assert np.max(np.abs(recovered - kron_word(word))) < 1e-12

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            basis_change(("XQ",))

    @pytest.mark.parametrize("word", ["I", "Z", "X", "Y", "XYZ"])
    def test_shared_unitary_is_read_only(self, word):
        with pytest.raises(ValueError, match="read-only"):
            basis_change((word,)).unitary[0, 1, 1] = 5

    def test_one_word_string_is_refused(self):
        # Words come as a tuple; a bare string is not read as its letters.
        counts = _counts(2, {0: 1})
        for call in (lambda: basis_change("XY"),
                     lambda: expectation_from_counts(counts, "ZZ"),
                     lambda: mitigate_counts(counts, _table(ReadoutNoiseModel.uniform(2)), "ZZ"),
                     lambda: sampled_expectation(np.eye(4)[:1], "ZZ", 10, None, seeded(0))):
            with pytest.raises(TypeError, match="tuple of words"):
                call()


    def test_word_list_is_refused_before_the_caches(self):
        # A list cannot key the word caches; it is refused by name.
        counts = _counts(1, {0: 3, 1: 1})
        for call in (lambda: basis_change(["X"]),
                     lambda: parity_weights(["Z"], None),
                     lambda: expectation_from_counts(counts, ["Z"]),
                     lambda: mitigate_counts(counts, _table(ReadoutNoiseModel.uniform(1)), ["Z"])):
            with pytest.raises(TypeError, match=re.escape("words: expected a tuple of words, "
                                                          "got list ['")):
                call()
        assert expectation_from_counts(counts, ("Z",)).tolist() == [0.5]

class TestSample:
    def test_deterministic_zero_state(self):
        counts = sample(zero_state(1)[None, None], 1000, None, seeded(1))
        assert counts.tolist() == [[[1000, 0]]]

    def test_plus_state_binomial(self):
        counts = sample(PLUS[None, None], 8192, None, seeded(7))[0, 0]
        frac = counts[0] / 8192
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / 8192)

    def test_readout_flips_at_injected_rate(self):
        noise = ReadoutNoiseModel.uniform(1, w01=0.03, w10=0.0)
        counts = sample(zero_state(1)[None, None], 100_000, _confusion(noise), seeded(3))[0, 0]
        frac = counts[1] / 100_000
        assert abs(frac - 0.03) <= 3 * np.sqrt(0.03 * 0.97 / 100_000)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integer_counts_over_all_outcomes(self, n):
        state = rand_state(np.random.default_rng(n), 2**n)
        noise = ReadoutNoiseModel.uniform(n, 0.02, 0.05)
        counts = sample(state[None, None], 5000, _confusion(noise), seeded(42))
        assert counts.shape == (1, 1, 2**n)
        assert np.issubdtype(counts.dtype, np.integer)
        assert counts.sum() == 5000 and counts.min() >= 0

    def test_seeded_replay(self):
        state = rand_state(np.random.default_rng(0), 4)
        noise = ReadoutNoiseModel.uniform(2, 0.02, 0.05)
        a = sample(state[None, None], 5000, _confusion(noise), seeded(42))
        b = sample(state[None, None], 5000, _confusion(noise), seeded(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, true_value", [(2, 0b01), (2, 0b10), (3, 0b011), (3, 0b100)])
    def test_asymmetric_noise_law_on_basis_states(self, n, true_value):
        w01 = W01 + (0.05,) * (n - 2)
        w10 = W10 + (0.15,) * (n - 2)
        state = np.zeros(2**n, dtype=complex)
        state[true_value] = 1.0
        M = 1_000_000
        counts = sample(state[None, None], M, _confusion(ReadoutNoiseModel(w01, w10)),
                        seeded(17))[0, 0]
        law = _noisy_law(true_value, n, w01, w10)
        sigma = np.sqrt(law * (1 - law) / M)
        assert np.all(np.abs(counts / M - law) <= 5 * sigma + 1e-12)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(zero_state(1)[None, None], 0, None, seeded(0))

    class _Recorder:
        """A generator that records the shape of each multinomial's laws."""

        def __init__(self, g):
            self.g, self.shapes = g, []

        def multinomial(self, shots, laws):
            self.shapes.append(np.shape(laws))
            return self.g.multinomial(shots, laws)

    @pytest.mark.parametrize("m", [2, STACKED_DRAW_LAWS - 1, STACKED_DRAW_LAWS, 63])
    @pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
    def test_stacked_and_per_law_draws_agree(self, m, noisy, monkeypatch):
        # One 2-D multinomial call per row and one call per law give the
        # same counts and leave each row's generator in the same state.
        rng = np.random.default_rng(m)
        states = np.array([[rand_state(rng, 8) for _ in range(m)] for _ in range(2)])
        states[0, 0] = np.eye(8)[5]  # a law with one certain outcome
        states[1, -1] = (np.eye(8)[0] + np.eye(8)[3]) / np.sqrt(2)  # two halves
        law = _confusion(TestStacks.NOISE) if noisy else None
        runs = {}
        for branch, threshold in (("stacked", 1), ("per-law", m + 1)):
            monkeypatch.setattr(sampler, "STACKED_DRAW_LAWS", threshold)
            gens = [self._Recorder(philox_stream((3, 1), b)) for b in range(2)]
            counts = sample(states, 700, law, lambda b: gens[b])
            expected = [(m, 8)] if branch == "stacked" else [(8,)] * m
            assert all(g.shapes == expected for g in gens)
            runs[branch] = counts, [g.g.bit_generator.random_raw(4).tolist() for g in gens]
        assert np.array_equal(runs["stacked"][0], runs["per-law"][0])
        assert runs["stacked"][1] == runs["per-law"][1]
        monkeypatch.undo()
        # The default threshold takes the branch its row width selects.
        gens = [self._Recorder(philox_stream((3, 1), b)) for b in range(2)]
        assert np.array_equal(sample(states, 700, law, lambda b: gens[b]), runs["stacked"][0])
        assert gens[0].shapes[0] == ((m, 8) if m >= STACKED_DRAW_LAWS else (8,))


class TestExpectationFromCounts:
    def test_worked_five_qubit_example(self):
        # I5 Z4 Z3 I2 Z1 on |00101>: substring 011, weight two, even parity.
        counts = _counts(5, {0b00101: 8192})
        assert expectation_from_counts(counts, ("IZZIZ",)).tolist() == [1.0]

    def test_single_qubit_two_p_minus_one(self):
        counts = _counts(1, {0: 75, 1: 25})
        assert expectation_from_counts(counts, ("Z",))[0] == pytest.approx(0.5)

    def test_reads_the_named_qubit(self):
        # Qubit 1 reads 1 in every shot, qubit 2 reads 0.
        counts = _counts(2, {0b01: 100})
        assert expectation_from_counts(counts, ("IZ",)).tolist() == [-1.0]
        assert expectation_from_counts(counts, ("ZI",)).tolist() == [1.0]

    def test_identity_word_is_one(self, rng):
        counts = _counts(2, {0b00: 13, 0b01: 5, 0b10: 0, 0b11: 7})
        assert expectation_from_counts(counts, ("II",)).tolist() == [1.0]

    def test_rejects_undiagonalised_word(self):
        with pytest.raises(ValueError, match="non-diagonal"):
            expectation_from_counts(_counts(1, {0: 1}), ("X",))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            expectation_from_counts(_counts(2, {0: 1}), ("Z",))

    def test_converges_to_exact(self, rng):
        # Estimator consistency at large M, within 4σ (seeded).
        for n in (2, 3):
            state = rand_state(rng, 2**n)
            for word in ("Z" * n, "ZI" + "Z" * (n - 2)):
                exact = _exact(state, word)
                counts = sample(state[None, None], 1_000_000, None, seeded(11))[0]
                est = expectation_from_counts(counts, (word,))[0]
                sigma = np.sqrt(max(1 - exact**2, 1e-12) / 1_000_000)
                assert abs(est - exact) <= 4 * sigma


class TestSampledExpectation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_words_match_exact(self, n, rng):
        state = rand_state(rng, 2**n)
        exact = qsim.exact_pauli_expectations(state)
        M = 100_000
        for i, word in enumerate(pauli_words(n)):
            est = sampled_expectation(state[None], (word,), M, None, seeded(100 + i))[0, 0]
            sigma = np.sqrt(max(1 - exact[i] ** 2, 1e-12) / M)
            assert abs(est - exact[i]) <= 4 * sigma + 1e-12

    def test_identity_needs_no_shots(self):
        assert sampled_expectation(zero_state(2)[None], ("II",), 10, None,
                                   _no_draws).tolist() == [[1.0]]


class TestStacks:
    """A (B, 2**n) stack whose row b draws from stream first + b of a family
    is B one-row calls, each on its own fresh stream."""

    N, ROWS, SHOTS = 3, 5, 500
    NOISE = ReadoutNoiseModel((0.02, 0.05, 0.1), (0.04, 0.0, 0.07))
    RATES = ReadoutNoiseModel((0.03, 0.04, 0.09), (0.05, 0.01, 0.06))
    CONFUSION, TABLE = _confusion(NOISE), _table(RATES)
    FAMILY, FIRST = (7, 1), 4

    def _states(self, rng):
        return np.array([rand_state(rng, 2**self.N) for _ in range(self.ROWS)])

    def _family_rows(self, start=FIRST):
        """Row b's stream: stream ``start + b`` of one family."""
        family = StreamFamily(*self.FAMILY)
        return lambda b: family.stream(start + b)

    def _streams(self):
        """Row b's stream, built alone."""
        return [philox_stream(self.FAMILY, self.FIRST + b) for b in range(self.ROWS)]

    def test_sample_rows_are_one_row_calls(self, rng):
        states = self._states(rng)[:, None]  # (B, 1, 2**n)
        counts = sample(states, self.SHOTS, self.CONFUSION, self._family_rows())
        assert counts.shape == (self.ROWS, 1, 2**self.N)
        assert counts.tolist() == [sample(state[None], self.SHOTS, self.CONFUSION,
                                          lambda b, g=g: g)[0].tolist()
                                   for g, state in zip(self._streams(), states)]
        # A stack of one row from the family: stream ``first``.
        assert sample(states[2:3], self.SHOTS, self.CONFUSION,
                      self._family_rows(self.FIRST + 2)).tolist() == counts[2:3].tolist()

    @pytest.mark.parametrize("word", ["XYZ", "IZX", "ZZZ", "YII", "III"])
    @pytest.mark.parametrize("mitigate", [False, True])
    def test_sampled_expectation_rows_are_one_row_calls(self, word, mitigate, rng):
        states = self._states(rng)
        table = self.TABLE if mitigate else None
        stacked = sampled_expectation(states, (word,), self.SHOTS, self.CONFUSION,
                                      self._family_rows(), mitigation=table)
        alone = [sampled_expectation(state[None], (word,), self.SHOTS, self.CONFUSION,
                                     lambda b, g=g: g, mitigation=table)[0].tolist()
                 for g, state in zip(self._streams(), states)]
        assert stacked.tolist() == alone

    def test_estimators_of_count_rows_are_one_row_calls(self, rng):
        counts = sample(self._states(rng)[:, None], self.SHOTS, self.CONFUSION,
                        self._family_rows(0))  # (B, 1, 2**n)
        for word in ("ZZZ", "IZI", "ZIZ", "III"):
            assert expectation_from_counts(counts, (word,)).tolist() == [
                expectation_from_counts(row, (word,)).tolist() for row in counts]
            assert mitigate_counts(counts, self.TABLE, (word,)).tolist() == [
                mitigate_counts(row, self.TABLE, (word,)).tolist() for row in counts]

    def _row_laws(self):
        """One readout law and one rate law per row: a drifting model's
        laws at trials FIRST, FIRST + 1, ..., and per-row rates around RATES."""
        drifting = ReadoutNoiseModel(self.NOISE.w01, self.NOISE.w10, 0.03, 3)
        rates = self.RATES.laws([0]) + np.linspace(0.0, 0.04, self.ROWS)[:, None, None]
        return drifting.laws(np.arange(self.FIRST, self.FIRST + self.ROWS)), rates

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_per_row_laws_are_one_row_calls(self, mitigate, rng):
        # A stack of B laws gives row b its own: bit for bit the one-row call
        # under that row's law alone.
        laws, rates = self._row_laws()
        states = self._states(rng)
        stacked = sampled_expectation(states, ("XYZ", "IZX", "III", "ZZI"), self.SHOTS,
                                      confusion(laws), self._family_rows(),
                                      mitigation=parity_table(rates) if mitigate else None)
        alone = [sampled_expectation(state[None], ("XYZ", "IZX", "III", "ZZI"), self.SHOTS,
                                     confusion(laws[b:b + 1]), lambda _, g=g: g,
                                     mitigation=parity_table(rates[b:b + 1]) if mitigate
                                     else None)[0].tolist()
                 for b, (g, state) in enumerate(zip(self._streams(), states))]
        assert stacked.tolist() == alone
        assert len({tuple(row) for row in laws[:, 1]}) == self.ROWS

    def test_stacked_rate_estimates_are_one_row_estimates(self):
        # Row b of a stacked estimate is, bit for bit, the one-law estimate
        # drawn from the same stream.
        laws, _ = self._row_laws()
        stacked = estimate_transition_rates(confusion(laws), self.N, self.SHOTS,
                                            self._family_rows())
        assert stacked.shape == (self.ROWS, 2, self.N)
        assert stacked.tolist() == [
            estimate_transition_rates(confusion(laws[b:b + 1]), self.N, self.SHOTS,
                                      lambda _, g=g: g)[0].tolist()
            for b, g in enumerate(self._streams())]

    @pytest.mark.parametrize("rng_arg", [None, 7, np.random.default_rng(7), [1, 2], [1, 2, 3, 4]],
                             ids=["none", "seed", "generator", "too-few", "too-many"])
    def test_generator_count_must_match_rows(self, rng_arg):
        # Row b's generator is ``stream(b)``, asked for once per row, in row
        # order; a seed, None, a generator or a list of them is no stream.
        states = np.array([zero_state(1)] * 3)
        with pytest.raises(TypeError, match="not callable"):
            sample(states[:, None], 10, None, rng_arg)
        with pytest.raises(TypeError, match="not callable"):
            sampled_expectation(states, ("X",), 10, None, rng_arg)
        asked = []

        def stream(b):
            asked.append(b)
            return np.random.default_rng(7)

        sampled_expectation(states, ("X", "Z"), 10, None, stream)
        assert asked == [0, 1, 2]
        # No draw, no stream, when every word is the identity.
        sampled_expectation(states, ("I", "I"), 10, None, _no_draws)

    def test_law_stack_needs_one_law_or_one_per_row(self, rng):
        # Three laws for two rows are refused by name before any draw.
        states = self._states(rng)[:2]
        with pytest.raises(ValueError, match=r"confusion stack of shape \(3, 8, 8\) for 2 rows"):
            sample(states[:, None], self.SHOTS, np.repeat(self.CONFUSION, 3, axis=0), _no_draws)
        with pytest.raises(ValueError, match=r"mitigation stack of shape \(3, 8, 8\) for 2 rows"):
            sampled_expectation(states, ("ZZZ",), self.SHOTS, self.CONFUSION, _no_draws,
                                mitigation=np.repeat(self.TABLE, 3, axis=0))

    def test_rejects_stacks_above_rank_three(self):
        # (B, M, 2**n) is the only rank `sample` takes: M states per row.
        with pytest.raises(ValueError, match="stack"):
            sample(np.ones((2, 2, 2, 2)), 10, None, seeded(1))

    def test_rejects_one_state_and_lower_ranks(self):
        # One state is a stack of one row: `sample` takes (B, M, 2**n) only
        # and `sampled_expectation` (B, 2**n) only.
        for shape in [(2,), (1, 2)]:
            with pytest.raises(ValueError, match=r"\(B, M, 2\*\*n\) stack"):
                sample(np.ones(shape), 10, None, seeded(1))
        for shape in [(2,), (1, 1, 2)]:
            with pytest.raises(ValueError, match=r"\(B, 2\*\*n\) stack"):
                sampled_expectation(np.ones(shape), ("Z",), 10, None, seeded(1))


class TestDrawContract:
    """Row b of `sampled_expectation` is a hand computation: each measured
    word's outcome law from the test-local matrices, one multinomial draw
    per word from stream t + b of the family, then the mitigated parity."""

    SEED, FIRST, SHOTS = 11, 6, 700
    NOISE = TestStacks.NOISE
    RATES = TestStacks.RATES
    CONFUSION, TABLE = TestStacks.CONFUSION, TestStacks.TABLE
    WORDS = ("XYZ", "III", "ZIY", "IZI", "YXX")
    # Per-letter rotation onto Z, from the test-local matrices: H·S·Z for Y.
    ROTATION = {"I": SIGMA["I"], "Z": SIGMA["I"], "X": HADAMARD,
                "Y": HADAMARD @ np.diag([1, 1j]) @ SIGMA["Z"]}

    def _law(self, state, word):
        U = functools.reduce(np.kron, [self.ROTATION[letter] for letter in word])
        ideal = np.abs(U @ state) ** 2
        noisy = sum(p * _noisy_law(v, 3, self.NOISE.w01, self.NOISE.w10)
                    for v, p in enumerate(ideal))
        return noisy / noisy.sum()

    def _mitigated(self, counts, word):
        """sum_z p(z) prod over the Z positions of ((-1)^bit - p-) / (1 - p+)."""
        total = 0.0
        for z, c in enumerate(counts):
            weight = 1.0
            for j, letter in enumerate(word):
                q = len(word) - 1 - j  # leftmost letter on the highest qubit
                if letter != "I":
                    a, b = self.RATES.w01[q], self.RATES.w10[q]
                    weight *= ((-1) ** ((z >> q) & 1) - (b - a)) / (1 - (b + a))
            total += c * weight
        return min(1.0, max(-1.0, total / counts.sum()))

    def test_rows_are_hand_draws_from_their_streams(self, rng):
        states = np.array([rand_state(rng, 8) for _ in range(3)])
        family = StreamFamily(self.SEED, 1)
        values = sampled_expectation(states, self.WORDS, self.SHOTS, self.CONFUSION,
                                     lambda b: family.stream(self.FIRST + b),
                                     mitigation=self.TABLE)
        for b, state in enumerate(states):
            g = StreamFamily(self.SEED, 1).stream(self.FIRST + b)
            expected = [self._mitigated(g.multinomial(self.SHOTS, self._law(state, w)), w)
                        if w.strip("I") else 1.0 for w in self.WORDS]
            assert values[b] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rates_are_two_successive_draws(self, n):
        w01, w10 = (0.02, 0.1, 0.05)[:n], (0.07, 0.0, 0.15)[:n]
        trials = 5000
        g = np.random.default_rng(21)
        est = estimate_transition_rates(_confusion(ReadoutNoiseModel(w01, w10)), n, trials,
                                        lambda b: g)
        g = np.random.default_rng(21)
        zeros = g.multinomial(trials, _noisy_law(0, n, w01, w10))
        ones = g.multinomial(trials, _noisy_law(2**n - 1, n, w01, w10))
        bits = [[(z >> q) & 1 for q in range(n)] for z in range(2**n)]
        assert est.shape == (1, 2, n)
        assert est[0, 0].tolist() == [float(v) for v in zeros @ bits / trials]
        assert est[0, 1].tolist() == [float(1.0 - v) for v in ones @ bits / trials]


class TestAllWords:
    """One `sampled_expectation` call measures every word of every row: row b
    draws its words in order from its own stream of the family."""

    N, ROWS, SHOTS = 3, 4, 300
    CONFUSION, TABLE = TestStacks.CONFUSION, TestStacks.TABLE
    # Three measured words and all 63.
    WORD_LISTS = {"few": ("XYZ", "III", "IZX", "ZZI"), "all": pauli_words(3)}

    @pytest.mark.parametrize("words", WORD_LISTS.values(), ids=WORD_LISTS.keys())
    @pytest.mark.parametrize("mitigate", [False, True])
    def test_word_list_is_successive_one_word_calls(self, words, mitigate, rng):
        # Bit for bit: the stack's rows are their one-row calls, and a row's
        # word list is its words measured one after another from its
        # stream.
        states = np.array([rand_state(rng, 2**self.N) for _ in range(self.ROWS)])
        table = self.TABLE if mitigate else None
        family = StreamFamily(3, 1)
        stacked = sampled_expectation(states, words, self.SHOTS, self.CONFUSION,
                                      lambda b: family.stream(10 + b), mitigation=table)
        assert stacked.shape == (self.ROWS, len(words))
        for b, (state, row) in enumerate(zip(states, stacked)):
            alone = sampled_expectation(state[None], words, self.SHOTS, self.CONFUSION,
                                        lambda _: philox_stream((3, 1), 10 + b),
                                        mitigation=table)[0]
            g = philox_stream((3, 1), 10 + b)
            successive = [sampled_expectation(state[None], (word,), self.SHOTS, self.CONFUSION,
                                              lambda _: g, mitigation=table)[0, 0]
                          for word in words]
            assert row.tolist() == alone.tolist() == successive

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_one_sample_and_one_estimator_call(self, mitigate, monkeypatch):
        # Plain parity and mitigation take the same path: one draw for all
        # rows and words, then one estimator call over the (B, M, 2**n) counts.
        calls = []

        def record(name):
            original = getattr(sampler, name)

            def recorded(values, *rest, **kwargs):
                calls.append((name, np.shape(values)))
                return original(values, *rest, **kwargs)

            monkeypatch.setattr(sampler, name, recorded)

        for name in ("sample", "mitigate_counts", "expectation_from_counts"):
            record(name)
        table = _table(ReadoutNoiseModel.uniform(2, 0.1, 0.1)) if mitigate else None
        states = np.array([zero_state(2)] * 3)
        family = StreamFamily(1)
        sampled_expectation(states, ("ZZ", "II", "XI", "YX"), 10, None, family.stream,
                            mitigation=table)
        estimator = "mitigate_counts" if mitigate else "expectation_from_counts"
        assert calls == [("sample", (3, 3, 4)), (estimator, (3, 3, 4))]

    def test_ill_posed_rates_raise(self):
        table = _table(ReadoutNoiseModel((0.1, 0.6), (0.1, 0.5)))  # qubit 2 ill-posed
        states = np.array([zero_state(2)] * 2)
        assert sampled_expectation(states, ("IZ", "IX"), 10, None, StreamFamily(1).stream,
                                   mitigation=table).shape == (2, 2)
        with pytest.raises(ValueError, match="ill-posed"):
            sampled_expectation(states, ("IZ", "ZI"), 10, None, StreamFamily(1).stream,
                                mitigation=table)

    def test_estimators_of_word_lists_are_one_word_calls(self, rng):
        words = ("ZZI", "IIZ", "III")
        counts = np.array([[sample(rand_state(rng, 8)[None, None], 50, None,
                                   seeded(10 * b + m))[0, 0] for m in range(3)]
                           for b in range(2)])  # (B, M, 2**n)
        for estimate, extra in ((expectation_from_counts, ()),
                                (mitigate_counts, (self.TABLE,))):
            stacked = estimate(counts, *extra, words)
            assert stacked.tolist() == [[estimate(counts[b, m][None], *extra, (word,))[0]
                                         for m, word in enumerate(words)] for b in range(2)]
        with pytest.raises(ValueError, match="count stack"):
            expectation_from_counts(counts[:, :2], words)


class TestTransitionRates:
    def test_noiseless_rates_are_exactly_zero(self):
        est = estimate_transition_rates(None, 1, 10_000, lambda b: np.random.default_rng(5))
        assert est.tolist() == [[[0.0], [0.0]]]

    def test_recovers_injected_rates(self):
        noise = ReadoutNoiseModel.uniform(1, w01=0.03, w10=0.08)
        [[[w01], [w10]]] = estimate_transition_rates(_confusion(noise), 1, 100_000,
                                                     lambda b: np.random.default_rng(9))
        assert abs(w01 - 0.03) <= 3 * np.sqrt(0.03 * 0.97 / 100_000)
        assert abs(w10 - 0.08) <= 3 * np.sqrt(0.08 * 0.92 / 100_000)

    def test_per_qubit_rates(self):
        noise = ReadoutNoiseModel((0.02, 0.1), (0.05, 0.0))
        [(w01, w10)] = estimate_transition_rates(_confusion(noise), 2, 200_000,
                                                 lambda b: np.random.default_rng(2))
        assert w01 == pytest.approx((0.02, 0.1), abs=0.005)
        assert w10 == pytest.approx((0.05, 0.0), abs=0.005)

    def test_estimates_trace_injected_drift(self):
        period, amp, base = 18.0, 0.01, 0.05
        noise = ReadoutNoiseModel.uniform(
            1, w01=0.0, w10=base, drift_amplitude=amp, drift_period=period
        )
        trials = 200_000
        sigma = np.sqrt(0.06 * 0.94 / trials)
        # One stacked estimate, law t drawn from its own generator.
        ts = range(0, 36, 3)
        est = estimate_transition_rates(confusion(noise.laws(ts)), 1, trials,
                                        lambda b: np.random.default_rng(50 + ts[b]))
        for t, [_, [w10]] in zip(ts, est):
            truth = base + amp * np.sin(2 * np.pi * t / period)
            assert abs(w10 - truth) <= 4 * sigma

    def test_drift_requires_period(self):
        with pytest.raises(ValueError):
            ReadoutNoiseModel.uniform(1, 0.0, 0.05, drift_amplitude=0.01)

    @pytest.mark.parametrize("amplitude, period", [
        (float("nan"), 18), (float("inf"), 18), ("0.01", 18), (None, 18),
        (0.01, "18"), (0.01, float("nan")), (0.01, float("inf")), (0.01, 0),
        (0.01, -18), (0.01, True), (0.01, 1e-320), (0.01, 0.999),
    ])
    def test_drift_fields_must_be_finite_reals(self, amplitude, period):
        # A period is at least one trial: at 1e-320 the phase was inf from t = 1.
        with pytest.raises(ValueError, match="drift"):
            ReadoutNoiseModel.uniform(1, 0.0, 0.05, drift_amplitude=amplitude,
                                      drift_period=period)

    def test_drift_period_of_one_trial_is_finite(self):
        model = ReadoutNoiseModel.uniform(1, 0.0, 0.05, drift_amplitude=0.01, drift_period=1)
        assert np.isfinite(model.laws(np.array([0, 1, 2**62]))).all()


class TestNoiseModelRates:
    @pytest.mark.parametrize("w01, w10, message", [
        ((1.5,), (0.0,), "w01 rate 1.5"),
        ((0.0,), (-0.1,), "w10 rate -0.1"),
        ((float("nan"),), (0.0,), "w01 rate nan"),
        ((0.0,), (float("inf"),), "w10 rate inf"),
        ((True,), (0.0,), "w01 rate True"),
        ((0.0,), ("0.1",), "w10 rate '0.1'"),
        ((), (), "at least one qubit"),
        ((0.1, 0.2), (0.1,), "same length"),
    ])
    def test_rejected_at_construction(self, w01, w10, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ReadoutNoiseModel(w01, w10)

    def test_rates_are_kept_as_float_tuples(self):
        model = ReadoutNoiseModel([0, 1], np.array([0.5, 0.25]))
        assert model.w01 == (0.0, 1.0) and model.w10 == (0.5, 0.25)
        assert all(type(r) is float for r in model.w01 + model.w10)

    def test_uniform_broadcasts_scalars_only_to_its_qubit_count(self):
        assert ReadoutNoiseModel.uniform(3, 0.1, (0.0, 0.1, 0.2)).w01 == (0.1,) * 3
        with pytest.raises(ValueError, match="w01 and w10 need 3 per-qubit entries each"):
            ReadoutNoiseModel.uniform(3, 0.1, (0.0, 0.1))
        with pytest.raises(ValueError, match="at least one qubit"):
            ReadoutNoiseModel.uniform(0)


class TestReadoutLaw:
    def test_without_drift_is_its_own_law(self):
        # One law, the model's rates, whatever the trials.
        model = ReadoutNoiseModel((0.02, 0.1), (0.05, 0.0))
        assert model.laws([0]).tolist() == model.laws([7, 8]).tolist() == [
            [[0.02, 0.1], [0.05, 0.0]]]

    def test_matches_drift_formula(self):
        base, amp, period = (0.05, 0.3), 0.02, 7.0
        model = ReadoutNoiseModel((0.01, 0.0), base, amp, period)
        laws = model.laws(np.arange(40))
        assert laws.shape == (40, 2, 2)
        for t, (w01, w10) in enumerate(laws):
            assert tuple(w01) == model.w01
            assert w10 == pytest.approx(
                [b + amp * np.sin(2 * np.pi * t / period) for b in base], abs=1e-15)
            # Law t is the same alone, bit for bit.
            assert model.laws([t]).tolist() == [[list(w01), list(w10)]]

    def test_clipped_to_unit_interval(self):
        low = ReadoutNoiseModel.uniform(1, 0.0, 0.01, drift_amplitude=0.05, drift_period=4)
        assert low.laws([3])[0, 1].tolist() == [0.0]  # 0.01 - 0.05
        high = ReadoutNoiseModel.uniform(1, 0.0, 0.98, drift_amplitude=0.05, drift_period=4)
        assert high.laws([1])[0, 1].tolist() == [1.0]  # 0.98 + 0.05

    def test_ill_posed_only_at_drift_peak(self):
        model = ReadoutNoiseModel.uniform(1, 0.45, 0.5, drift_amplitude=0.1, drift_period=4)
        assert model.ill_posed.tolist() == [True]
        # Row 1 of a one-qubit table is Z, NaN where the law at t is ill-posed.
        table = parity_table(model.laws(np.arange(8)))
        assert np.isnan(table[:, 1]).all(axis=1).tolist() == [
            False, True, False, False, False, True, False, False]
        assert not ReadoutNoiseModel.uniform(1, 0.45, 0.5).ill_posed.any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_confusion_columns_are_basis_state_laws(self, n):
        w01, w10 = W01 + (0.05,) * (n - 2), W10 + (0.15,) * (n - 2)
        [matrix] = _confusion(ReadoutNoiseModel(w01, w10))
        for value in range(2**n):
            assert np.allclose(matrix[:, value], _noisy_law(value, n, w01, w10), atol=1e-15)

    @pytest.mark.parametrize("name", ["ill_posed"])
    def test_cached_arrays_are_read_only(self, name):
        model = ReadoutNoiseModel((0.02, 0.6), (0.05, 0.5))
        cached = getattr(model, name)
        assert getattr(model, name) is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0


class TestMitigation:
    def test_noiseless_passthrough(self):
        model = ReadoutNoiseModel.uniform(1, 0.0, 0.0)
        assert mitigate_counts(_counts(1, {0: 3, 1: 1}), _table(model), ("Z",)).tolist() == [0.5]

    def test_symmetric_rates_example(self):
        table = _table(ReadoutNoiseModel.uniform(1, 0.1, 0.1))
        assert mitigate_counts(_counts(1, {0: 3, 1: 1}), table, ("Z",))[0] == pytest.approx(0.625)

    def test_monte_carlo_bias_inversion(self, rng):
        # Sample a known state through readout flips, then undo the bias.
        model = ReadoutNoiseModel.uniform(1, 0.1, 0.1)
        state = qsim.MEAN_FIELD.prepare(np.array([1.1, 0.0]))
        z_true = _exact(state, "Z")
        counts = sample(state[None, None], 200_000, _confusion(model), seeded(6))[0]
        raw = expectation_from_counts(counts, ("Z",))[0]
        sigma = np.sqrt(1.0 / 200_000)
        assert abs(raw - 0.8 * z_true) <= 3 * sigma  # attenuated by 1 - p+
        corrected = mitigate_counts(counts, _table(model), ("Z",))[0]
        assert abs(corrected - z_true) <= 3 * sigma / 0.8

    def test_clamped_to_physical_range(self):
        table = _table(ReadoutNoiseModel.uniform(1, 0.15, 0.02))
        assert mitigate_counts(_counts(1, {0: 1, 1: 1999}), table, ("Z",))[0] >= -1.0  # raw -0.999
        assert mitigate_counts(_counts(1, {0: 19999, 1: 1}), table, ("Z",))[0] <= 1.0  # raw 0.9999

    def test_ill_posed_rates_rejected(self):
        model = ReadoutNoiseModel.uniform(1, 0.6, 0.5)
        with pytest.raises(ValueError, match="ill-posed"):
            mitigate_counts(_counts(1, {0: 11, 1: 9}), _table(model), ("Z",))  # raw 0.1

    def test_ill_posed_only_on_measured_qubits(self):
        table = _table(ReadoutNoiseModel((0.1, 0.6), (0.1, 0.5)))  # qubit 2 ill-posed
        counts = _counts(2, {0b00: 6, 0b01: 2, 0b10: 1, 0b11: 1})
        assert mitigate_counts(counts, table, ("IZ",))[0] == pytest.approx(0.4 / 0.8)  # raw 0.4, p+ 0.2
        with pytest.raises(ValueError, match="ill-posed"):
            mitigate_counts(counts, table, ("ZI",))

    def test_drifting_model_checked_under_its_trial_0_law(self):
        # Well-posed at trial 0 (p+ 0.9), ill-posed at the drift peak (p+
        # 1.05): the correction uses the trial-0 rates, so it gives a value.
        model = ReadoutNoiseModel.uniform(1, 0.4, 0.5, drift_amplitude=0.15, drift_period=4)
        counts = _counts(1, {0: 23, 1: 17})  # raw 0.15, p- 0.1
        assert model.ill_posed.tolist() == [True]
        assert mitigate_counts(counts, _table(model), ("Z",))[0] == pytest.approx(0.5)
        with pytest.raises(ValueError, match="ill-posed"):
            mitigate_counts(counts, parity_table(model.laws([1])), ("Z",))

    def test_weights_are_per_word_kronecker_products(self):
        # The parity-table rows of every I/Z word equal the word-by-word
        # Kronecker product of its per-qubit factors, bit for bit.
        model = ReadoutNoiseModel((0.02, 0.05, 0.1), (0.04, 0.0, 0.07),
                                  drift_amplitude=0.01, drift_period=3)
        words = tuple("".join(w) for w in itertools.product("IZ", repeat=3))
        [(w01, w10)] = model.laws([0])
        expected = []
        for word in words:
            factors = [(np.array([1.0, -1.0]) - (b - a)) / (1.0 - (b + a)) if letter == "Z"
                       else np.ones(2)
                       for letter, a, b in zip(word, w01[::-1], w10[::-1])]
            expected.append(functools.reduce(lambda u, v: np.outer(u, v).ravel(), factors))
        assert sampler.parity_weights(words, _table(model)).tolist() == \
            np.array(expected).tolist()

    def test_counts_reduces_to_single_qubit_formula(self, rng):
        model = ReadoutNoiseModel.uniform(1, 0.07, 0.12)
        counts = _counts(1, {0: 6200, 1: 3800})
        raw = expectation_from_counts(counts, ("Z",))[0]
        p_minus, p_plus = 0.12 - 0.07, 0.12 + 0.07
        assert mitigate_counts(counts, _table(model), ("Z",))[0] == pytest.approx(
            (raw - p_minus) / (1 - p_plus), abs=1e-12
        )

    def test_zero_model_equals_parity_estimator(self, rng):
        model = ReadoutNoiseModel.uniform(2, 0.0, 0.0)
        state = rand_state(rng, 4)
        counts = sample(state[None, None], 20_000, None, seeded(8))[0]
        for word in ("ZZ", "IZ", "ZI", "II"):
            assert mitigate_counts(counts, _table(model), (word,))[0] == pytest.approx(
                expectation_from_counts(counts, (word,))[0], abs=1e-12
            )

    def test_two_qubit_zz_recovery(self):
        model = ReadoutNoiseModel.uniform(2, 0.05, 0.05)
        counts = sample(zero_state(2)[None, None], 100_000, _confusion(model), seeded(12))[0]
        raw = expectation_from_counts(counts, ("ZZ",))[0]
        sigma_raw = np.sqrt((1 - 0.81**2) / 100_000)
        assert abs(raw - 0.81) <= 3 * sigma_raw  # (1 - 2w)^2 attenuation
        corrected = mitigate_counts(counts, _table(model), ("ZZ",))[0]
        assert abs(corrected - 1.0) <= 3 * sigma_raw / 0.81

    @pytest.mark.parametrize("word, qubit", [("ZI", 2), ("IZ", 1)])
    def test_unbiased_per_qubit_with_asymmetric_rates(self, word, qubit, rng):
        model = ReadoutNoiseModel(W01, W10)
        state = rand_state(rng, 4)
        exact = _exact(state, word)
        M = 200_000
        counts = sample(state[None, None], M, _confusion(model), seeded(31))[0]
        sigma = np.sqrt(1.0 / M) / (1 - (W01[qubit - 1] + W10[qubit - 1]))
        assert abs(mitigate_counts(counts, _table(model), (word,))[0] - exact) <= 4 * sigma

    def test_unbiased_for_random_rates(self, rng):
        # Mitigated estimates agree with the exact value for any rates
        # up to 0.2, within 3σ of the corrected estimator.
        M = 150_000
        for trial in range(6):
            w01, w10 = rng.uniform(0.0, 0.2, 2)
            model = ReadoutNoiseModel.uniform(1, w01, w10)
            state = rand_state(rng, 2)
            z = _exact(state, "Z")
            counts = sample(state[None, None], M, _confusion(model), seeded(300 + trial))[0]
            corrected = mitigate_counts(counts, _table(model), ("Z",))[0]
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
                        state[None], (w,), M, None, seeded(1000 * mi + 10 * rep + wi)
                    )[0, 0]
                vals.append(total)
            stds.append(np.std(vals))
        slope = np.polyfit(np.log(ms), np.log(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
