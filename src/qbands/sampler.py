"""Shot-based measurement: basis changes, sampled counts with readout noise,
parity estimators, transition-rate estimation and mitigation.

Counts are integer arrays whose last axis, of length 2**n, is indexed by
bitstring value, with qubit 1 as the least significant bit.

Readout noise is modelled as independent classical bit flips at measurement
time, with per-qubit rates w01 (|0> read as |1>) and w10 (|1> read as |0>).
An optional sinusoidal drift modulates w10 as a function of a trial counter,
never of wall-clock time, so runs stay reproducible.  `ReadoutNoiseModel.at`
gives the drift-free law in force at a trial; everything below it measures
and corrects under such a law.

Every function takes stacks of one shape.  `sample` draws a (B, M, 2**n)
stack of states, M per row, into (B, M, 2**n) counts.  `sampled_expectation`
measures a tuple of M words on every row of a (B, 2**n) stack, as (B, M)
estimates: one stacked rotation, one `sample` call and one estimator call.
`expectation_from_counts` and `mitigate_counts` read (..., M, 2**n) counts
against a tuple of M all-I/Z words.  Every row-wise product is one stacked
mat-vec or dot.  Row b draws its M states in order from the generator
``stream(b)``; with one stream per row, such as
``lambda b: family.stream(first + b)`` of a `seeding.StreamFamily`, each row
gets the values it would get alone, bit for bit, whatever B is.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import qsim
from .pauli import is_real


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
        if amplitude and not (is_real(period) and period > 0):
            raise ValueError("drift_amplitude requires a finite real drift_period > 0, "
                             f"got {period!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.w01)

    @classmethod
    def uniform(cls, n_qubits: int, w01: float = 0.0, w10: float = 0.0,
                drift_amplitude: float = 0.0,
                drift_period: float | None = None) -> "ReadoutNoiseModel":
        """Rates from scalars (every qubit) or per-qubit lists; a noise file's keys."""
        w01, w10 = ((v,) * n_qubits if np.isscalar(v) else tuple(v) for v in (w01, w10))
        if not len(w01) == len(w10) == n_qubits:
            raise ValueError(f"w01 and w10 need {n_qubits} per-qubit entries each")
        return cls(w01, w10, drift_amplitude, drift_period)

    def at(self, trial: int) -> "ReadoutNoiseModel":
        """The drift-free law in force at a trial: w10 moved by the drift and
        clipped to [0, 1].  A model without drift is its own law."""
        if not self.drift_amplitude:
            return self
        mod = self.drift_amplitude * np.sin(2 * np.pi * trial / self.drift_period)
        w10 = np.clip(np.array(self.w10) + mod, 0.0, 1.0)
        return ReadoutNoiseModel(self.w01, tuple(float(v) for v in w10))

    @functools.cached_property
    def ill_posed(self) -> np.ndarray:
        """Per qubit, whether mitigation can be ill-posed: w01 + w10 >= 1 with
        w10 at its drift peak.  Computed once; read-only."""
        w10_peak = np.minimum(np.array(self.w10) + abs(self.drift_amplitude), 1.0)
        return _read_only(np.array(self.w01) + w10_peak >= 1.0)

    @functools.cached_property
    def confusion(self) -> np.ndarray:
        """The 2**n x 2**n map from true to read outcome probabilities of the
        trial-0 law: the Kronecker product of the per-qubit confusion matrices
        [[1-w01, w10], [w01, 1-w10]], leftmost factor on the highest qubit.
        Computed once; read-only."""
        return _read_only(_kron([np.array([[1 - a, b], [a, 1 - b]])
                                 for a, b in zip(self.w01[::-1], self.w10[::-1])]))


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


def _kron(factors: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-qubit factors, the first on the highest qubit."""
    if not factors:
        raise ValueError("need at least one qubit")
    return functools.reduce(np.kron, factors)


def _rowwise(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row of a (..., dim) stack, as one stacked
    mat-vec; ``matrix`` may itself be a stack that broadcasts against the
    rows.  Row b's product is the same for every B; ``rows @ matrix.T`` is
    not (BLAS rounds a one-row product differently)."""
    return np.matmul(matrix, rows[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class MeasurementBasisChange:
    """Unitaries U mapping Pauli words onto their all-I/Z counterparts,
    σ = U† A U: ``diagonal`` is the tuple of the M all-I/Z words and
    ``unitary`` the (M, 2**n, 2**n) stack of the rotations."""

    diagonal: tuple[str, ...]
    unitary: np.ndarray


@functools.lru_cache(maxsize=256)
def _word_change(word: str) -> tuple[str, np.ndarray]:
    """(all-I/Z word, rotation) of one Pauli word: the Kronecker product of
    one fixed 2x2 matrix per letter, leftmost letter on the highest qubit; a
    Hadamard for X, H·S·Z for Y, the identity for I and Z."""
    for letter in word:
        if letter not in _LETTER_BASIS:
            raise ValueError(f"bad Pauli letter {letter!r} in {word!r}")
    return ("".join(_LETTER_BASIS[letter][0] for letter in word),
            _kron([_LETTER_BASIS[letter][1] for letter in word]))


def _word_tuple(words: tuple[str, ...]) -> tuple[str, ...]:
    """``words``, refused when it is one word rather than a tuple of them."""
    if isinstance(words, str):
        raise TypeError(f"expected a tuple of words, got the string {words!r}")
    return words


@functools.lru_cache(maxsize=256)
def basis_change(words: tuple[str, ...]) -> MeasurementBasisChange:
    """The stacked pre-measurement rotations of a tuple of Pauli words (one
    operator's measured words).  Built once per tuple and shared, so the
    unitary is read-only."""
    changes = [_word_change(word) for word in _word_tuple(words)]
    return MeasurementBasisChange(tuple(d for d, _ in changes),
                                  _read_only(np.array([u for _, u in changes])))


def sample(states: np.ndarray, shots: int, noise: ReadoutNoiseModel | None,
           stream: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Counts of ``shots`` measurements of every state of a (B, M, 2**n)
    stack (M states per row, such as one operator's word rotations), as a
    (B, M, 2**n) integer array.  Row b draws its M states, in order, from
    the generator ``stream(b)``; deterministic for fixed streams.

    Readout flips are independent per shot and qubit, so the noisy outcome
    law is |amplitude|^2 under ``noise.confusion``; one multinomial draw per
    state over it gives the counts.  A drifting ``noise`` acts as its
    trial-0 law.

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
    probs = np.abs(states) ** 2
    if noise is not None:
        if noise.n_qubits != qsim.num_qubits(probs[0, 0]):
            raise ValueError("noise model qubit count mismatch")
        probs = _rowwise(noise.confusion, probs)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    counts = np.empty(probs.shape, dtype=np.int64)
    for b, (laws, row) in enumerate(zip(probs, counts)):
        g = stream(b)
        for j, law in enumerate(laws):
            row[j] = g.multinomial(shots, law)
    return counts


@functools.lru_cache(maxsize=256)
def _parity_weights(words: tuple[str, ...], model: ReadoutNoiseModel | None) -> np.ndarray:
    """(M, 2**n) weights of M all-I/Z words: a word's estimate is its row's
    dot with the counts over the shots.  A row is the Kronecker product over
    the word, leftmost letter on the highest qubit, of [1, 1] for I and, for
    Z, the corrected parity ((-1)^bit - p⁻) / (1 - p⁺), p± = w10 ± w01 of its
    qubit under ``model.at(0)``; without a model p± = 0, the plain parity ±1.
    Built once per model and word tuple, where the trial-0 law's
    ``ill_posed`` is checked; read-only."""
    if not words:
        raise ValueError("need at least one word")
    n = len(words[0])
    for word in words:
        if len(word) != n:
            raise ValueError(f"words of {n} and {len(word)} qubits in one call")
        for letter in word:
            if letter not in "IZ":
                raise ValueError(f"word {word!r} contains non-diagonal letter {letter!r}")
    # Column j is the word's j-th letter, on qubit n - j: rates reversed.
    is_z = np.array([[letter == "Z" for letter in word] for word in words])
    if model is None:
        w01 = w10 = np.zeros(n)
    else:
        if model.n_qubits != n:
            raise ValueError("noise model qubit count mismatch")
        law = model.at(0)
        if (is_z & law.ill_posed[::-1]).any():
            raise IllPosedMitigationError("mitigation ill-posed: w01 + w10 >= 1 on some qubit")
        w01, w10 = np.array(law.w01[::-1]), np.array(law.w10[::-1])
    z_factors = (_PARITY - (w10 - w01)[:, None]) / (1.0 - (w10 + w01))[:, None]
    factors = np.where(is_z[..., None], z_factors, 1.0)  # (M, n, 2)
    # The Kronecker product of vectors is their flattened outer product.
    weights = factors[:, 0]
    for j in range(1, n):
        weights = (weights[:, :, None] * factors[:, j, None, :]).reshape(len(words), -1)
    return _read_only(weights)


def _parity_estimates(counts: np.ndarray, words: tuple[str, ...],
                      model: ReadoutNoiseModel | None) -> np.ndarray:
    """(..., M) estimates of M words from (..., M, 2**n) counts, one count
    row per word: the stacked dot of each count row with its word's
    weights, over its shots."""
    weights = _parity_weights(_word_tuple(words), model)
    counts = np.asarray(counts)
    if counts.shape[-1] != weights.shape[-1]:
        raise ValueError("word length does not match counts")
    if counts.ndim < 2 or counts.shape[-2] != len(words):
        raise ValueError(f"{len(words)} words need a (..., {len(words)}, 2**n) count "
                         f"stack, got shape {counts.shape}")
    values = np.matmul(weights[..., None, :], counts[..., None])[..., 0, 0]
    return values / counts.sum(axis=-1)


def expectation_from_counts(counts: np.ndarray, words: tuple[str, ...]) -> np.ndarray:
    """Parity estimator of each of M all-I/Z words from (..., M, 2**n)
    counts, one count row per word, as (..., M): each bitstring contributes
    the parity (±1) of its bits at the word's Z positions."""
    return _parity_estimates(counts, words, None)


def estimate_transition_rates(noise: ReadoutNoiseModel | None, n_qubits: int, trials: int,
                              rng: np.random.Generator) -> ReadoutNoiseModel:
    """Empirical flip rates from repeated readout of prepared |0> and |1>.

    Reads the all-zeros state ``trials`` times and counts per-qubit ones
    (giving w01), then the all-ones state (giving w10): one `sample` row of
    the two states, both drawn from ``rng`` in that order."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = 2**n_qubits
    basis = np.zeros((2, dim))
    basis[0, 0] = basis[1, -1] = 1.0  # |0...0>, |1...1>
    bits = (np.arange(dim)[:, None] >> np.arange(n_qubits)) & 1  # column q-1 = qubit q
    ones_read = sample(basis[None], trials, noise, lambda b: rng)[0] @ bits / trials
    return ReadoutNoiseModel(tuple(float(v) for v in ones_read[0]),
                             tuple(float(v) for v in 1.0 - ones_read[1]))


def mitigate_counts(counts: np.ndarray, model: ReadoutNoiseModel,
                    words: tuple[str, ...]) -> np.ndarray:
    """Multi-qubit readout correction of each of M all-I/Z words:
    sum_z p(z) prod_i ((-1)^{z_i} - p⁻_i) / (1 - p⁺_i) over the Z positions,
    clamped to [-1, 1].  Counts and words are read as by
    `expectation_from_counts`.  A drifting ``model`` acts as its trial-0 law;
    mitigation ill-posed under that law on a measured qubit raises
    `IllPosedMitigationError`."""
    return np.clip(_parity_estimates(counts, words, model), -1.0, 1.0)


def sampled_expectation(states: np.ndarray, words: tuple[str, ...], shots: int,
                        noise: ReadoutNoiseModel | None,
                        stream: Callable[[int], np.random.Generator],
                        mitigation: ReadoutNoiseModel | None = None) -> np.ndarray:
    """(B, M) estimates <σ_w> of a tuple of M words on every row of a
    (B, 2**n) stack of states, by basis change, sampling and the parity rule.

    ``noise`` is the readout law the counts are drawn under; ``mitigation``
    is the rate model used for correction (usually an estimate, not the
    true injected noise); None disables correction.  An identity word needs
    no measurement and gives exactly 1.  Every other word is measured with
    ``shots`` shots, all in one `sample` call and one estimator call; row b
    draws its measured words, in order, from ``stream(b)`` (see `sample`).
    """
    states = np.asarray(states)
    if states.ndim != 2:
        raise ValueError(f"expected a (B, 2**n) stack of states, got shape {states.shape}")
    values = np.ones((len(states), len(words)))
    measured = [i for i, word in enumerate(_word_tuple(words)) if word.strip("I")]
    if measured:
        change = basis_change(tuple(words[i] for i in measured))
        rotated = _rowwise(change.unitary, states[:, None])  # (B, M, 2**n)
        counts = sample(rotated, shots, noise, stream)
        if mitigation is not None:
            values[:, measured] = mitigate_counts(counts, mitigation, change.diagonal)
        else:
            values[:, measured] = expectation_from_counts(counts, change.diagonal)
    return values
