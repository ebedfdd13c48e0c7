"""Shot-based measurement: basis changes, sampled counts with readout noise,
parity estimators, transition-rate estimation and mitigation.

Counts are integer arrays of length 2**n indexed by bitstring value, with
qubit 1 as the least significant bit.

Readout noise is modelled as independent classical bit flips at measurement
time, with per-qubit rates w01 (|0> read as |1>) and w10 (|1> read as |0>).
An optional sinusoidal drift modulates w10 as a function of a trial counter,
never of wall-clock time, so runs stay reproducible.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import qsim


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_rates(value, n_qubits: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        rates = (float(value),) * n_qubits
    else:
        rates = tuple(float(v) for v in value)
        if len(rates) != n_qubits:
            raise ValueError(f"{name} needs {n_qubits} per-qubit entries")
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"{name} rate {r} outside [0, 1]")
    return rates


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
        if not (_is_real(amplitude) and math.isfinite(amplitude)):
            raise ValueError(f"drift_amplitude must be a finite real, got {amplitude!r}")
        if amplitude and not (_is_real(period) and 0 < period < math.inf):
            raise ValueError("drift_amplitude requires a finite real drift_period > 0, "
                             f"got {period!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.w01)

    @classmethod
    def uniform(cls, n_qubits: int, w01: float, w10: float,
                drift_amplitude: float = 0.0,
                drift_period: float | None = None) -> "ReadoutNoiseModel":
        return cls(
            _as_rates(w01, n_qubits, "w01"),
            _as_rates(w10, n_qubits, "w10"),
            drift_amplitude,
            drift_period,
        )

    @classmethod
    def from_dict(cls, data: Mapping, n_qubits: int) -> "ReadoutNoiseModel":
        """Noise config: {"w01": x|[...], "w10": x|[...],
        "drift_amplitude": a, "drift_period": p}."""
        if not isinstance(data, Mapping):
            raise ValueError(f"expected a mapping, got {type(data).__name__}")
        amplitude = data.get("drift_amplitude")
        return cls(
            _as_rates(data.get("w01", 0.0), n_qubits, "w01"),
            _as_rates(data.get("w10", 0.0), n_qubits, "w10"),
            0.0 if amplitude is None else amplitude,
            data.get("drift_period"),
        )

    def rates_at(self, trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(w01, w10) arrays at a trial index, drift applied and clipped."""
        w01 = np.array(self.w01)
        w10 = np.array(self.w10)
        if self.drift_amplitude and self.drift_period:
            mod = self.drift_amplitude * np.sin(2 * np.pi * trial / self.drift_period)
            w10 = np.clip(w10 + mod, 0.0, 1.0)
        return w01, w10


_PARITY = np.array([1.0, -1.0])  # (-1)^bit of one measured qubit
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# Per-letter (diagonal letter, 2x2 rotation); Y takes H·S·Z = H·diag(1, -i).
_LETTER_BASIS = {
    "I": ("I", np.eye(2, dtype=complex)),
    "Z": ("Z", np.eye(2, dtype=complex)),
    "X": ("Z", _H),
    "Y": ("Z", _H @ np.diag([1, -1j])),
}


def _kron(factors: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-qubit factors, the first on the highest qubit."""
    if not factors:
        raise ValueError("need at least one qubit")
    return functools.reduce(np.kron, factors)


@dataclass(frozen=True, eq=False)
class MeasurementBasisChange:
    """Unitary U mapping a Pauli word onto its all-I/Z counterpart: σ = U† A U."""

    source: str
    diagonal: str
    unitary: np.ndarray


def basis_change(word: str) -> MeasurementBasisChange:
    """Pre-measurement rotation for a Pauli word.

    The Kronecker product of one fixed 2x2 matrix per letter, leftmost letter
    on the highest qubit: a Hadamard for X, H·S·Z for Y, the identity for I
    and Z.
    """
    diagonal, factors = [], []
    for letter in word:
        if letter not in _LETTER_BASIS:
            raise ValueError(f"bad Pauli letter {letter!r} in {word!r}")
        d, u = _LETTER_BASIS[letter]
        diagonal.append(d)
        factors.append(u)
    return MeasurementBasisChange(word, "".join(diagonal), _kron(factors))


def sample(
    state: np.ndarray,
    shots: int,
    noise: ReadoutNoiseModel | None = None,
    rng: np.random.Generator | int | None = None,
    trial: int = 0,
) -> np.ndarray:
    """Counts of ``shots`` measurements of a statevector, as an integer array
    of length 2**n indexed by bitstring value (qubit 1 the least significant
    bit).  Deterministic for a fixed generator or seed.

    Readout flips are independent per shot and qubit, so the noisy outcome
    law is |amplitude|^2 under the Kronecker product of the per-qubit
    confusion matrices [[1-w01, w10], [w01, 1-w10]] (leftmost factor on the
    highest qubit); one multinomial draw over it gives the counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = qsim.num_qubits(state)
    probs = np.abs(state) ** 2
    if noise is not None:
        if noise.n_qubits != n:
            raise ValueError("noise model qubit count mismatch")
        w01, w10 = noise.rates_at(trial)
        confusion = [np.array([[1 - a, b], [a, 1 - b]])
                     for a, b in zip(w01[::-1], w10[::-1])]
        probs = _kron(confusion) @ probs
    return rng.multinomial(shots, probs / probs.sum())


def _diagonal_vector(counts: np.ndarray, word: str, z_factor) -> np.ndarray:
    """Kronecker product over an all-I/Z word, leftmost letter on the highest
    qubit: [1, 1] for I and ``z_factor(qubit)`` for Z."""
    if len(counts) != 2 ** len(word):
        raise ValueError("word length does not match counts")
    n = len(word)
    factors = []
    for pos, letter in enumerate(word):
        if letter == "Z":
            factors.append(z_factor(n - pos))
        elif letter == "I":
            factors.append(np.ones(2))
        else:
            raise ValueError(f"word {word!r} contains non-diagonal letter {letter!r}")
    return _kron(factors)


def expectation_from_counts(counts: np.ndarray, word: str) -> float:
    """Parity estimator of an all-I/Z word: each bitstring contributes the
    parity (±1) of its bits at the Z positions."""
    parity = _diagonal_vector(counts, word, lambda qubit: _PARITY)
    return float(counts @ parity / counts.sum())


def estimate_transition_rates(
    noise: ReadoutNoiseModel | None,
    n_qubits: int,
    trials: int,
    rng: np.random.Generator | int | None = None,
    trial: int = 0,
) -> ReadoutNoiseModel:
    """Empirical flip rates from repeated readout of prepared |0> and |1>.

    Reads the all-zeros state ``trials`` times and counts per-qubit ones
    (giving w01), then the all-ones state (giving w10)."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    zeros = qsim.zero_state(n_qubits)
    ones = zeros[::-1]  # |1...1>
    bits = (np.arange(len(zeros))[:, None] >> np.arange(n_qubits)) & 1  # column q-1 = qubit q
    w01_hat = sample(zeros, trials, noise, rng, trial) @ bits / trials
    w10_hat = 1.0 - sample(ones, trials, noise, rng, trial) @ bits / trials
    return ReadoutNoiseModel(tuple(float(v) for v in w01_hat),
                             tuple(float(v) for v in w10_hat))


def _check_invertible(p_plus: np.ndarray) -> None:
    if np.any(1.0 - p_plus <= 0.0):
        raise ValueError("mitigation ill-posed: w01 + w10 >= 1 on some qubit")


def mitigate_single(
    measured: float,
    model: ReadoutNoiseModel,
    qubit: int = 1,
    trial: int = 0,
) -> float:
    """Correct a single-qubit expectation: (<σ> - p⁻) / (1 - p⁺) with
    p± = w10 ± w01, clamped to [-1, 1]."""
    w01, w10 = model.rates_at(trial)
    p_plus = w10[qubit - 1] + w01[qubit - 1]
    p_minus = w10[qubit - 1] - w01[qubit - 1]
    _check_invertible(np.array([p_plus]))
    return float(np.clip((measured - p_minus) / (1.0 - p_plus), -1.0, 1.0))


def mitigate_counts(
    counts: np.ndarray,
    model: ReadoutNoiseModel,
    word: str,
    trial: int = 0,
) -> float:
    """Multi-qubit readout correction of an all-I/Z word:
    sum_z p(z) prod_i ((-1)^{z_i} - p⁻_i) / (1 - p⁺_i) over the Z positions,
    clamped to [-1, 1]."""
    if model.n_qubits != len(word):
        raise ValueError("noise model qubit count mismatch")
    w01, w10 = model.rates_at(trial)
    p_plus = w10 + w01
    p_minus = w10 - w01

    def corrected_parity(qubit):
        _check_invertible(p_plus[qubit - 1:qubit])
        return (_PARITY - p_minus[qubit - 1]) / (1.0 - p_plus[qubit - 1])

    total = counts @ _diagonal_vector(counts, word, corrected_parity)
    return float(np.clip(total / counts.sum(), -1.0, 1.0))


def sampled_expectation(
    state: np.ndarray,
    word: str,
    shots: int,
    noise: ReadoutNoiseModel | None = None,
    rng: np.random.Generator | int | None = None,
    mitigation: ReadoutNoiseModel | None = None,
    trial: int = 0,
) -> float:
    """Estimate <σ_word> by basis change, sampling and the parity rule.

    ``mitigation`` is the rate model used for correction (usually an
    estimate, not the true injected noise); None disables correction.
    The identity word needs no measurement and returns exactly 1.
    """
    change = basis_change(word)
    if change.diagonal == "I" * len(word):
        return 1.0
    counts = sample(change.unitary @ state, shots, noise, rng, trial)
    if mitigation is not None:
        return mitigate_counts(counts, mitigation, change.diagonal, trial)
    return expectation_from_counts(counts, change.diagonal)
