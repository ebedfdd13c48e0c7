"""Shot-based measurement: basis changes, sampled counts with readout noise,
parity estimators, transition-rate estimation and mitigation.

Counts are integer arrays whose last axis, of length 2**n, is indexed by
bitstring value, with qubit 1 as the least significant bit.

Readout noise is modelled as independent classical bit flips at measurement
time, with per-qubit rates w01 (|0> read as |1>) and w10 (|1> read as |0>).
An optional sinusoidal drift modulates w10 as a function of a trial counter,
never of wall-clock time, so runs stay reproducible.  Laws are plain data:
(L, 2, n) stacks of [w01, w10] per qubit, which `confusion` and
`parity_table` turn into the (L, 2**n, 2**n) stacks that `sample` and
`mitigate_counts` read, one law for every row or one per row.

Every function takes stacks of one shape.  `sample` draws a (B, M, 2**n)
stack of states, M per row, into (B, M, 2**n) counts.  `sampled_expectation`
measures a tuple of M words on every row of a (B, 2**n) stack, as (B, M)
estimates: one stacked rotation, one `sample` call and one estimator call.
`expectation_from_counts` and `mitigate_counts` read (..., M, 2**n) counts
against a tuple of M all-I/Z words through `parity_weights`, the words' rows
of a parity table, each tuple checked once.  Every product over qubits is
one `pauli.kron` and every row-wise product one `pauli.rowwise`.  Row b
draws its M states in order from the generator ``stream(b)``; with one
stream per row, such as ``lambda b: family.stream(first + b)`` of a
`seeding.StreamFamily`, each row gets the values it would get alone, bit
for bit, whatever B is.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .pauli import is_real, kron, rowwise


class IllPosedMitigationError(ValueError):
    """Mitigation under a rate model with w01 + w10 >= 1 on a measured qubit."""


@dataclass(frozen=True)
class ReadoutNoiseModel:
    """Per-qubit readout flip rates, with optional drift on w10: equally many
    of each, for at least one qubit, every rate a real number in [0, 1]."""

    w01: tuple[float, ...]
    w10: tuple[float, ...]
    drift_amplitude: float = 0.0
    drift_period: float | None = None

    def __post_init__(self):
        for name in ("w01", "w10"):
            rates = tuple(getattr(self, name))
            for r in rates:
                if not (is_real(r) and 0.0 <= r <= 1.0):
                    raise ValueError(f"{name} rate {r!r} is not a real number in [0, 1]")
            object.__setattr__(self, name, tuple(float(r) for r in rates))
        if not self.w01:
            raise ValueError("need rates for at least one qubit")
        if len(self.w01) != len(self.w10):
            raise ValueError("w01 and w10 must have the same length")
        amplitude, period = self.drift_amplitude, self.drift_period
        if not is_real(amplitude):
            raise ValueError(f"drift_amplitude must be a finite real, got {amplitude!r}")
        # The drift is read once per trial, so a period under one trial has
        # no meaning; from 1 on the phase 2πt/P is finite at every trial
        # (at P = 1e-320 it is inf from t = 1).  A period is checked with or
        # without drift, since the header records it either way.
        if period is not None and not (is_real(period) and period >= 1):
            raise ValueError(f"drift_period must be null or a finite real >= 1, got {period!r}")
        if amplitude and period is None:
            raise ValueError("drift_amplitude requires a drift_period")

    @classmethod
    def uniform(cls, n_qubits: int, w01: float = 0.0, w10: float = 0.0,
                drift_amplitude: float = 0.0,
                drift_period: float | None = None) -> "ReadoutNoiseModel":
        """Rates from scalars (every qubit) or per-qubit lists; a noise file's keys."""
        w01, w10 = ((v,) * n_qubits if np.isscalar(v) else tuple(v) for v in (w01, w10))
        if not len(w01) == len(w10) == n_qubits:
            raise ValueError(f"w01 and w10 need {n_qubits} per-qubit entries each")
        return cls(w01, w10, drift_amplitude, drift_period)

    def laws(self, trials) -> np.ndarray:
        """The (T, 2, n) laws in force at an array of T trials: w10 moved by
        the drift A·sin(2πt/P) and clipped to [0, 1].  A model without drift
        has one law, (1, 2, n), whatever the trials."""
        if not self.drift_amplitude:
            return np.array([[self.w01, self.w10]])
        mod = self.drift_amplitude * np.sin(2 * np.pi * np.asarray(trials) / self.drift_period)
        w10 = np.clip(np.array(self.w10) + mod[:, None], 0.0, 1.0)
        return np.stack([np.broadcast_to(self.w01, w10.shape), w10], axis=1)

    @functools.cached_property
    def ill_posed(self) -> np.ndarray:
        """Per qubit, whether mitigation can be ill-posed: w01 + w10 >= 1 with
        w10 at its drift peak.  Computed once; read-only."""
        w10_peak = np.minimum(np.array(self.w10) + abs(self.drift_amplitude), 1.0)
        return _read_only(np.array(self.w01) + w10_peak >= 1.0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_PARITY = np.array([1.0, -1.0])  # (-1)^bit of one measured qubit
_I2 = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# Per-letter (diagonal letter, 2x2 rotation); Y takes H·S·Z = H·diag(1, -i).
# `basis_change` copies them into its stacks, so they are never handed out.
_LETTER_BASIS = {"I": ("I", _I2), "Z": ("Z", _I2), "X": ("Z", _H),
                 "Y": ("Z", _H @ np.diag([1, -1j]))}


def confusion(laws: np.ndarray) -> np.ndarray:
    """(L, 2**n, 2**n) maps from true to read outcome probabilities of L laws:
    the Kronecker products of per-qubit [[1-w01, w10], [w01, 1-w10]]."""
    w01, w10 = laws[:, 0, ::-1], laws[:, 1, ::-1]
    return kron(np.stack([np.stack([1 - w01, w10], -1), np.stack([w01, 1 - w10], -1)], -2))


def parity_table(laws: np.ndarray) -> np.ndarray:
    """(L, 2**n, 2**n) parity weights of L rate laws: row r, dotted with the
    counts over the shots, estimates the all-I/Z word with Z on r's set bits.
    Per law, the Kronecker product of per-qubit [[1, 1], [z(0), z(1)]],
    z(bit) = ((-1)^bit - p⁻) / (1 - p⁺), p± = w10 ± w01, NaN where
    w01 + w10 >= 1 (ill-posed); zero rates give the plain parities ±1."""
    w01, w10 = laws[:, 0, ::-1, None], laws[:, 1, ::-1, None]
    p_plus = w10 + w01
    z = (_PARITY - (w10 - w01)) / np.where(p_plus >= 1.0, np.nan, 1.0 - p_plus)
    return kron(np.stack([np.ones_like(z), z], -2))


@dataclass(frozen=True, eq=False)
class MeasurementBasisChange:
    """Unitaries U mapping Pauli words onto their all-I/Z counterparts,
    σ = U† A U: ``diagonal`` is the tuple of the M all-I/Z words and
    ``unitary`` the (M, 2**n, 2**n) stack of the rotations."""

    diagonal: tuple[str, ...]
    unitary: np.ndarray


def _word_tuple(words: tuple[str, ...]) -> tuple[str, ...]:
    """``words``, refused unless it is a tuple of words: one word is not read
    as its letters, and the caches below are keyed by the tuple."""
    if isinstance(words, str):
        raise TypeError(f"words: expected a tuple of words, got the string {words!r}")
    if not isinstance(words, tuple):
        raise TypeError(f"words: expected a tuple of words, got {type(words).__name__} "
                        f"{words!r}; pass tuple(words)")
    return words


def basis_change(words: tuple[str, ...]) -> MeasurementBasisChange:
    """The stacked pre-measurement rotations of a tuple of Pauli words (one
    operator's measured words): per word, the Kronecker product of one fixed
    2x2 matrix per letter, leftmost letter on the highest qubit; a Hadamard
    for X, H·S·Z for Y, the identity for I and Z.  Built once per tuple and
    shared, so the unitary is read-only."""
    return _basis_change(_word_tuple(words))


@functools.lru_cache(maxsize=256)
def _basis_change(words: tuple[str, ...]) -> MeasurementBasisChange:
    for word in words:
        for letter in word:
            if letter not in _LETTER_BASIS:
                raise ValueError(f"bad Pauli letter {letter!r} in {word!r}")
    return MeasurementBasisChange(
        tuple("".join(_LETTER_BASIS[letter][0] for letter in word) for word in words),
        _read_only(kron(np.array([[_LETTER_BASIS[letter][1] for letter in word]
                                  for word in words]))))


# A row of at least this many laws is drawn in one 2-D multinomial call.  Over
# 8 outcomes (Philox, 1024 and 8192 shots) one call wins from 7 laws on (63:
# 51-64 against 125-132 us) and loses up to 6 (2: 9.5-9.9 against 4.6-4.7 us).
STACKED_DRAW_LAWS = 8


def _check_law_stack(name: str, stack: np.ndarray | None, rows: int) -> None:
    """Refuse a law stack that is neither one law for every row nor one per row."""
    if stack is not None and (stack.ndim != 3 or len(stack) not in (1, rows)):
        raise ValueError(f"{name} stack of shape {stack.shape} for {rows} rows: expected "
                         f"one law or one per row, shape (1 or {rows}, 2**n, 2**n)")


def sample(states: np.ndarray, shots: int, confusion: np.ndarray | None,
           stream: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Counts of ``shots`` measurements of every state of a (B, M, 2**n)
    stack (M states per row, such as one operator's word rotations), as a
    (B, M, 2**n) integer array.  Row b draws its M states, in order, from
    the generator ``stream(b)``; deterministic for fixed streams.

    Readout flips are independent per shot and qubit, so the noisy outcome
    law is |amplitude|^2 under a `confusion` stack of one law for every row
    or one per row (None: no noise); one multinomial draw per state over it
    gives the counts.  A row of ``STACKED_DRAW_LAWS`` or more draws them all
    in one call, which leaves the same counts and generator state.

    numpy's multinomial draws each outcome through a binomial, which takes
    another branch once a probability crosses 1/2 in its last bit: a change
    of the state neutral in exact arithmetic (a global phase, say) can move
    noiseless counts where an outcome has probability 1/2 up to round-off.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    states = np.asarray(states)
    if states.ndim != 3:
        raise ValueError(f"expected a (B, M, 2**n) stack of states, got shape {states.shape}")
    _check_law_stack("confusion", confusion, len(states))
    probs = np.abs(states) ** 2
    if confusion is not None:
        if confusion.shape[-1] != probs.shape[-1]:
            raise ValueError("noise model qubit count mismatch")
        probs = rowwise(confusion[:, None], probs)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    counts = np.empty(probs.shape, dtype=np.int64)
    for b, (laws, row) in enumerate(zip(probs, counts)):
        g = stream(b)
        if len(laws) >= STACKED_DRAW_LAWS:
            row[...] = g.multinomial(shots, laws)
        else:
            for j, law in enumerate(laws):
                row[j] = g.multinomial(shots, law)
    return counts


@functools.lru_cache(maxsize=256)
def _word_rows(words: tuple[str, ...]) -> np.ndarray:
    """The `parity_table` row of each of M all-I/Z words of one length, the
    row with Z on its set bits; checked and built once per tuple, so
    read-only."""
    if not words:
        raise ValueError("need at least one word")
    n = len(words[0])
    for word in words:
        if len(word) != n:
            raise ValueError(f"words of {n} and {len(word)} qubits in one call")
        for letter in word:
            if letter not in "IZ":
                raise ValueError(f"word {word!r} contains non-diagonal letter {letter!r}")
    return _read_only(np.array([int(word.replace("I", "0").replace("Z", "1"), 2)
                                for word in words]))


@functools.lru_cache(maxsize=8)
def _plain_parities(n_qubits: int) -> np.ndarray:
    """The noiseless `parity_table` of n qubits, entries ±1; read-only."""
    return _read_only(parity_table(np.zeros((1, 2, n_qubits))))


def parity_weights(words: tuple[str, ...], table: np.ndarray | None) -> np.ndarray:
    """M all-I/Z words' rows of a `parity_table` (None: the plain parities),
    (M, 2**n) for one law and (L, M, 2**n) for L.  A word on a qubit whose
    correction is ill-posed raises `IllPosedMitigationError`."""
    rows = _word_rows(_word_tuple(words))
    n = len(words[0])
    if table is None:
        table = _plain_parities(n)
    elif table.shape[-1] != 2**n:
        raise ValueError("noise model qubit count mismatch")
    weights = table[:, rows]
    if np.isnan(weights).any():
        raise IllPosedMitigationError("mitigation ill-posed: w01 + w10 >= 1 on some qubit")
    return weights[0] if len(weights) == 1 else weights


def _parity_estimates(counts: np.ndarray, words: tuple[str, ...],
                      table: np.ndarray | None) -> np.ndarray:
    """(..., M) estimates of M words from (..., M, 2**n) counts, one count
    row per word: the stacked dot of each count row with its word's
    weights, over its shots."""
    weights = parity_weights(words, table)
    counts = np.asarray(counts)
    if counts.shape[-1] != weights.shape[-1]:
        raise ValueError("word length does not match counts")
    if counts.ndim < 2 or counts.shape[-2] != len(words):
        raise ValueError(f"{len(words)} words need a (..., {len(words)}, 2**n) count "
                         f"stack, got shape {counts.shape}")
    return rowwise(weights[..., None, :], counts)[..., 0] / counts.sum(axis=-1)


def expectation_from_counts(counts: np.ndarray, words: tuple[str, ...]) -> np.ndarray:
    """Parity estimator of each of M all-I/Z words from (..., M, 2**n)
    counts, one count row per word, as (..., M): each bitstring contributes
    the parity (±1) of its bits at the word's Z positions."""
    return _parity_estimates(counts, words, None)


def estimate_transition_rates(confusion: np.ndarray | None, n_qubits: int, trials: int,
                              stream: Callable[[int], np.random.Generator]) -> np.ndarray:
    """(L, 2, n) laws estimated under each of L confusion matrices (None: one
    noiseless estimate).  Estimate l reads |0...0> ``trials`` times and counts
    per-qubit ones (giving w01), then |1...1> (giving w10): one `sample` row
    of the two states, drawn from ``stream(l)`` in that order."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = 2**n_qubits
    basis = np.zeros((1 if confusion is None else len(confusion), 2, dim))
    basis[:, 0, 0] = basis[:, 1, -1] = 1.0  # |0...0>, |1...1>
    bits = (np.arange(dim)[:, None] >> np.arange(n_qubits)) & 1  # column q-1 = qubit q
    ones_read = sample(basis, trials, confusion, stream) @ bits / trials
    return np.stack([ones_read[:, 0], 1.0 - ones_read[:, 1]], axis=1)


def mitigate_counts(counts: np.ndarray, table: np.ndarray,
                    words: tuple[str, ...]) -> np.ndarray:
    """Multi-qubit readout correction of each of M all-I/Z words:
    sum_z p(z) prod_i ((-1)^{z_i} - p⁻_i) / (1 - p⁺_i) over the Z positions,
    clamped to [-1, 1], under a `parity_table` of one law or one per row.
    Counts and words are read as by `expectation_from_counts`.  Mitigation
    ill-posed on a measured qubit raises `IllPosedMitigationError`."""
    return np.clip(_parity_estimates(counts, words, table), -1.0, 1.0)


def sampled_expectation(states: np.ndarray, words: tuple[str, ...], shots: int,
                        confusion: np.ndarray | None,
                        stream: Callable[[int], np.random.Generator],
                        mitigation: np.ndarray | None = None) -> np.ndarray:
    """(B, M) estimates <σ_w> of a tuple of M words on every row of a
    (B, 2**n) stack of states, by basis change, sampling and the parity rule.

    ``confusion`` is the readout law the counts are drawn under (see
    `sample`); ``mitigation`` is the `parity_table` that corrects them
    (usually of estimated rates, not the true injected noise); None
    disables correction.  An identity word needs no measurement and gives
    exactly 1.  Every other word is measured with ``shots`` shots, all
    in one `sample` call and one estimator call; row b draws its measured
    words, in order, from ``stream(b)`` (see `sample`).
    """
    states = np.asarray(states)
    if states.ndim != 2:
        raise ValueError(f"expected a (B, 2**n) stack of states, got shape {states.shape}")
    _check_law_stack("mitigation", mitigation, len(states))
    values = np.ones((len(states), len(words)))
    measured = [i for i, word in enumerate(_word_tuple(words)) if word.strip("I")]
    if measured:
        change = basis_change(tuple(words[i] for i in measured))
        rotated = rowwise(change.unitary, states[:, None])  # (B, M, 2**n)
        counts = sample(rotated, shots, confusion, stream)
        if mitigation is not None:
            values[:, measured] = mitigate_counts(counts, mitigation, change.diagonal)
        else:
            values[:, measured] = expectation_from_counts(counts, change.diagonal)
    return values
