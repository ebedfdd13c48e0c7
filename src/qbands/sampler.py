"""Shot-based measurement: basis changes, sampled counts with readout noise,
parity estimators, transition-rate estimation and mitigation.

Counts are integer arrays of length 2**n indexed by bitstring value, with
qubit 1 as the least significant bit.

Readout noise is modelled as independent classical bit flips at measurement
time, with per-qubit rates w01 (|0> read as |1>) and w10 (|1> read as |0>).
An optional sinusoidal drift modulates w10 as a function of a trial counter,
never of wall-clock time, so runs stay reproducible.  `ReadoutNoiseModel.at`
gives the drift-free law in force at a trial; everything below it measures
and corrects under such a law.

`sample`, `sampled_expectation`, `mitigate_counts` and
`expectation_from_counts` take one state (or count array) or a (B, 2**n)
stack of rows, and the last three one word or a sequence of M words.  One
`sampled_expectation` call measures every word of every row: one stacked
rotation, one `sample` call and one estimator call.  Every row-wise product
on a stack is one stacked mat-vec or dot.  A stack draws from a
`seeding.StreamFamily` and a first counter: row b draws all its words, in
order, from stream first + b, so each row gets the values it would get
alone, bit for bit, whatever B is.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .pauli import is_real
from .seeding import StreamFamily


def _as_rates(value, n_qubits: int, name: str) -> tuple[float, ...]:
    rates = (value,) * n_qubits if np.isscalar(value) else tuple(value)
    if len(rates) != n_qubits:
        raise ValueError(f"{name} needs {n_qubits} per-qubit entries")
    for r in rates:
        if not (is_real(r) and 0.0 <= r <= 1.0):
            raise ValueError(f"{name} rate {r!r} is not a real number in [0, 1]")
    return tuple(float(r) for r in rates)


@dataclass(frozen=True)
class ReadoutNoiseModel:
    """Per-qubit readout flip rates, with optional drift on w10."""

    w01: tuple[float, ...]
    w10: tuple[float, ...]
    drift_amplitude: float = 0.0
    drift_period: float | None = None

    def __post_init__(self):
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
        return cls(
            _as_rates(w01, n_qubits, "w01"),
            _as_rates(w10, n_qubits, "w10"),
            drift_amplitude,
            drift_period,
        )

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


# Shared by every caller (`_kron` hands a lone factor out as is), so read-only.
_PARITY = _read_only(np.array([1.0, -1.0]))  # (-1)^bit of one measured qubit
_H = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))
# Per-letter (diagonal letter, 2x2 rotation); Y takes H·S·Z = H·diag(1, -i).
_LETTER_BASIS = {
    "I": ("I", _read_only(np.eye(2, dtype=complex))),
    "Z": ("Z", _read_only(np.eye(2, dtype=complex))),
    "X": ("Z", _H),
    "Y": ("Z", _read_only(_H @ np.diag([1, -1j]))),
}


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


def _stack(rows) -> np.ndarray:
    """A (B, dim) stack: one state is a stack of one row."""
    rows = np.asarray(rows)
    if rows.ndim not in (1, 2):
        raise ValueError(f"expected one row or a (B, dim) stack, got shape {rows.shape}")
    return rows if rows.ndim == 2 else rows[None]


def _as_words(words) -> tuple[tuple[str, ...], bool]:
    """(the words as a tuple, whether a single word was given as a string)."""
    return ((words,), True) if isinstance(words, str) else (tuple(words), False)


def _scalar(values):
    """A float for a 0-d result, the array otherwise."""
    return float(values) if np.ndim(values) == 0 else values


def _row_streams(rows, rng, first: int):
    """Row b's generator, as a function of b: stream ``first + b`` of a
    `seeding.StreamFamily`, called when the row's draws begin.  A single row
    (one state, or a stack of one row) may instead take ``rng`` itself (a
    generator, a seed or None)."""
    if isinstance(rng, StreamFamily):
        return lambda b: rng.stream(first + b)
    if np.ndim(rows) == 1 or len(rows) == 1:
        generator = np.random.default_rng(rng)
        return lambda b: generator
    raise ValueError(f"a stack of {len(rows)} rows draws one stream per row from a "
                     f"seeding.StreamFamily; got {rng!r}")


@dataclass(frozen=True, eq=False)
class MeasurementBasisChange:
    """Unitary U mapping a Pauli word onto its all-I/Z counterpart: σ = U† A U.

    For a tuple of M words, ``diagonal`` is the tuple of their all-I/Z words
    and ``unitary`` the (M, 2**n, 2**n) stack of their rotations."""

    diagonal: str | tuple[str, ...]
    unitary: np.ndarray


@functools.lru_cache(maxsize=256)
def basis_change(words: str | tuple[str, ...]) -> MeasurementBasisChange:
    """Pre-measurement rotation for a Pauli word, or the stacked rotations
    of a tuple of words (one operator's measured words).

    The Kronecker product of one fixed 2x2 matrix per letter, leftmost letter
    on the highest qubit: a Hadamard for X, H·S·Z for Y, the identity for I
    and Z.  Built once per word or tuple and shared, so the unitary is
    read-only.
    """
    if not isinstance(words, str):
        changes = [basis_change(word) for word in words]
        return MeasurementBasisChange(tuple(c.diagonal for c in changes),
                                      _read_only(np.array([c.unitary for c in changes])))
    diagonal, factors = [], []
    for letter in words:
        if letter not in _LETTER_BASIS:
            raise ValueError(f"bad Pauli letter {letter!r} in {words!r}")
        d, u = _LETTER_BASIS[letter]
        diagonal.append(d)
        factors.append(u)
    return MeasurementBasisChange("".join(diagonal), _read_only(_kron(factors)))


def sample(
    state: np.ndarray,
    shots: int,
    noise: ReadoutNoiseModel | None = None,
    rng: np.random.Generator | int | StreamFamily | None = None,
    first: int = 0,
) -> np.ndarray:
    """Counts of ``shots`` measurements of a statevector, as an integer array
    of length 2**n indexed by bitstring value (qubit 1 the least significant
    bit).  Deterministic for a fixed generator, seed or stream.

    ``state`` may be a (B, 2**n) stack of statevectors, or a (B, M, 2**n)
    stack of M states per row (one operator's word rotations); ``rng`` is
    then a `seeding.StreamFamily`.  Row b is drawn from stream ``first + b``
    of the family alone, its M states in order, exactly as a call on that
    row with ``first + b`` would draw it.  A single row takes a family too
    (stream ``first``), or a generator or seed.

    Readout flips are independent per shot and qubit, so the noisy outcome
    law is |amplitude|^2 under ``noise.confusion``; one multinomial draw per
    state over it gives the counts.  A drifting ``noise`` acts as its
    trial-0 law.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    states = np.asarray(state)
    if states.ndim not in (1, 2, 3):
        raise ValueError("expected one state, a (B, 2**n) or a (B, M, 2**n) stack, "
                         f"got shape {states.shape}")
    stream = _row_streams(states, rng, first)
    probs = np.abs(states if states.ndim > 1 else states[None]) ** 2
    n = qsim.num_qubits(probs.reshape(-1, probs.shape[-1])[0])
    if noise is not None:
        if noise.n_qubits != n:
            raise ValueError("noise model qubit count mismatch")
        probs = _rowwise(noise.confusion, probs)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    laws = probs.reshape(len(probs), -1, probs.shape[-1])  # (B, M, 2**n)
    counts = np.empty(laws.shape, dtype=np.int64)
    for b, (row_laws, row) in enumerate(zip(laws, counts)):
        g = stream(b)
        for j, law in enumerate(row_laws):
            row[j] = g.multinomial(shots, law)
    return counts.reshape(states.shape)


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
            raise ValueError("mitigation ill-posed: w01 + w10 >= 1 on some qubit")
        w01, w10 = np.array(law.w01[::-1]), np.array(law.w10[::-1])
    z_factors = (_PARITY - (w10 - w01)[:, None]) / (1.0 - (w10 + w01))[:, None]
    factors = np.where(is_z[..., None], z_factors, 1.0)  # (M, n, 2)
    # The Kronecker product of vectors is their flattened outer product.
    weights = factors[:, 0]
    for j in range(1, n):
        weights = (weights[:, :, None] * factors[:, j, None, :]).reshape(len(words), -1)
    return _read_only(weights)


def _parity_estimates(counts: np.ndarray, words, model: ReadoutNoiseModel | None):
    """Estimates of one word from a (..., 2**n) count stack, or of M words
    from a (..., M, 2**n) one: the stacked dot of each count row with its
    word's weights, over its shots."""
    words, single = _as_words(words)
    weights = _parity_weights(words, model)
    counts = np.asarray(counts)
    if counts.shape[-1] != weights.shape[-1]:
        raise ValueError("word length does not match counts")
    if single:
        weights = weights[0]
    elif counts.ndim < 2 or counts.shape[-2] != len(words):
        raise ValueError(f"{len(words)} words need a (..., {len(words)}, 2**n) count "
                         f"stack, got shape {counts.shape}")
    values = np.matmul(weights[..., None, :], counts[..., None])[..., 0, 0]
    return values / counts.sum(axis=-1)


def expectation_from_counts(counts: np.ndarray, words):
    """Parity estimator of an all-I/Z word: each bitstring contributes the
    parity (±1) of its bits at the Z positions.  A (B, 2**n) count stack
    gives B estimates; a sequence of M words takes (..., M, 2**n) counts,
    one count row per word, and gives (..., M)."""
    return _scalar(_parity_estimates(counts, words, None))


def estimate_transition_rates(
    noise: ReadoutNoiseModel | None,
    n_qubits: int,
    trials: int,
    rng: np.random.Generator | int | None = None,
) -> ReadoutNoiseModel:
    """Empirical flip rates from repeated readout of prepared |0> and |1>.

    Reads the all-zeros state ``trials`` times and counts per-qubit ones
    (giving w01), then the all-ones state (giving w10)."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng)
    zeros = qsim.zero_state(n_qubits)
    ones = zeros[::-1]  # |1...1>
    bits = (np.arange(len(zeros))[:, None] >> np.arange(n_qubits)) & 1  # column q-1 = qubit q
    w01_hat = sample(zeros, trials, noise, rng) @ bits / trials
    w10_hat = 1.0 - sample(ones, trials, noise, rng) @ bits / trials
    return ReadoutNoiseModel(tuple(float(v) for v in w01_hat),
                             tuple(float(v) for v in w10_hat))


def mitigate_counts(counts: np.ndarray, model: ReadoutNoiseModel, words):
    """Multi-qubit readout correction of an all-I/Z word:
    sum_z p(z) prod_i ((-1)^{z_i} - p⁻_i) / (1 - p⁺_i) over the Z positions,
    clamped to [-1, 1].  Count stacks and word sequences are read as by
    `expectation_from_counts`.  A drifting ``model`` acts as its trial-0 law;
    mitigation ill-posed under that law on a measured qubit raises
    ValueError."""
    return _scalar(np.clip(_parity_estimates(counts, words, model), -1.0, 1.0))


def sampled_expectation(
    state: np.ndarray,
    words,
    shots: int,
    noise: ReadoutNoiseModel | None = None,
    rng: np.random.Generator | int | StreamFamily | None = None,
    mitigation: ReadoutNoiseModel | None = None,
    first: int = 0,
):
    """Estimate <σ_w> of a word, or of each of a sequence of M words, by
    basis change, sampling and the parity rule.

    ``noise`` is the readout law the counts are drawn under; ``mitigation``
    is the rate model used for correction (usually an estimate, not the
    true injected noise); None disables correction.  An identity word needs
    no measurement and gives exactly 1.  Every other word is measured with
    ``shots`` shots, all in one `sample` call and one estimator call.  A
    (B, 2**n) stack of states, with a `seeding.StreamFamily` as ``rng`` (see
    `sample`), gives B estimates per word; row b draws its words in order
    from stream ``first + b``, so it gets the values its state and stream
    give alone.  The result is a float for one state and one word, (M,) or
    (B,) when one of them is a sequence, and (B, M) for both.
    """
    words, single = _as_words(words)
    states = _stack(state)
    if not isinstance(rng, StreamFamily):
        # The one row's generator, built once; a stack raises here, even
        # when no word needs a draw.
        rng = _row_streams(state, rng, first)(0)
    values = np.ones((len(states), len(words)))
    measured = [i for i, word in enumerate(words) if word.strip("I")]
    if measured:
        change = basis_change(tuple(words[i] for i in measured))
        rotated = _rowwise(change.unitary, states[:, None])  # (B, M, 2**n)
        counts = sample(rotated, shots, noise, rng, first)
        if mitigation is not None:
            values[:, measured] = mitigate_counts(counts, mitigation, change.diagonal)
        else:
            values[:, measured] = expectation_from_counts(counts, change.diagonal)
    values = values[:, 0] if single else values
    return _scalar(values if np.ndim(state) == 2 else values[0])
