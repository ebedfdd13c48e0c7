"""Shot-based measurement: basis changes, bitstring sampling with readout
noise, parity estimators, transition-rate estimation and mitigation.

Readout noise is modelled as independent classical bit flips at measurement
time, with per-qubit rates w01 (|0> read as |1>) and w10 (|1> read as |0>).
An optional sinusoidal drift modulates w10 as a function of a trial counter,
never of wall-clock time, so runs stay reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import qsim
from .qsim import Gate


@dataclass(frozen=True)
class BitstringCounts:
    """Histogram of measured bitstrings; qubit 1 is the rightmost character."""

    n_qubits: int
    counts: Mapping[str, int]

    def __post_init__(self):
        for bits, c in self.counts.items():
            if len(bits) != self.n_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad bitstring {bits!r} for {self.n_qubits} qubits")
            if c < 0:
                raise ValueError(f"negative count for {bits!r}")

    @property
    def shots(self) -> int:
        return sum(self.counts.values())


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
        if self.drift_amplitude and not self.drift_period:
            raise ValueError("drift_amplitude requires drift_period")

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
        return cls(
            _as_rates(data.get("w01", 0.0), n_qubits, "w01"),
            _as_rates(data.get("w10", 0.0), n_qubits, "w10"),
            float(data.get("drift_amplitude", 0.0) or 0.0),
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


@dataclass(frozen=True)
class MeasurementBasisChange:
    """Gates U mapping a Pauli word onto its all-I/Z counterpart: σ = U† A U."""

    source: str
    diagonal: str
    gates: tuple[Gate, ...]


def basis_change(word: str) -> MeasurementBasisChange:
    """Pre-measurement rotation for a Pauli word.

    X qubits get a Hadamard; Y qubits get the gate sequence Z, S, H (applied
    in that order, so the composite operator is the matrix product H·S·Z);
    I and Z qubits need nothing.
    """
    n = len(word)
    gates: list[Gate] = []
    diagonal = []
    for pos, letter in enumerate(word):
        qubit = n - pos  # leftmost letter acts on the highest qubit
        if letter == "X":
            gates.append(qsim.h(qubit))
            diagonal.append("Z")
        elif letter == "Y":
            gates.extend([qsim.z(qubit), qsim.s(qubit), qsim.h(qubit)])
            diagonal.append("Z")
        elif letter in ("I", "Z"):
            diagonal.append(letter)
        else:
            raise ValueError(f"bad Pauli letter {letter!r} in {word!r}")
    return MeasurementBasisChange(word, "".join(diagonal), tuple(gates))


def sample(
    state: np.ndarray,
    shots: int,
    noise: ReadoutNoiseModel | None = None,
    rng: np.random.Generator | int | None = None,
    trial: int = 0,
) -> BitstringCounts:
    """Draw ``shots`` bitstrings from |amplitude|^2, flipping bits per the
    noise model.  Deterministic for a fixed generator or seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = qsim.num_qubits(state)
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    drawn = rng.choice(len(probs), size=shots, p=probs)
    bits = (drawn[:, None] >> np.arange(n)) & 1  # column q-1 = qubit q
    if noise is not None:
        if noise.n_qubits != n:
            raise ValueError("noise model qubit count mismatch")
        w01, w10 = noise.rates_at(trial)
        flip_prob = np.where(bits == 0, w01[None, :], w10[None, :])
        bits = bits ^ (rng.random(bits.shape) < flip_prob)
    weights = 1 << np.arange(n)
    values, freq = np.unique(bits @ weights, return_counts=True)
    counts = {format(int(v), f"0{n}b"): int(c) for v, c in zip(values, freq)}
    return BitstringCounts(n, counts)


def _zmask(word: str) -> int:
    """Bit mask of the Z positions of an all-I/Z word."""
    mask = 0
    n = len(word)
    for pos, letter in enumerate(word):
        if letter == "Z":
            mask |= 1 << (n - 1 - pos)
        elif letter != "I":
            raise ValueError(f"word {word!r} contains non-diagonal letter {letter!r}")
    return mask


def expectation_from_counts(counts: BitstringCounts, word: str) -> float:
    """Parity estimator of an all-I/Z word: each bitstring contributes the
    parity (±1) of its substring at the Z positions."""
    if len(word) != counts.n_qubits:
        raise ValueError("word length does not match counts")
    mask = _zmask(word)
    total = 0
    for bits, c in counts.counts.items():
        parity = bin(int(bits, 2) & mask).count("1") & 1
        total += -c if parity else c
    return total / counts.shots


def estimate_transition_rates(
    noise: ReadoutNoiseModel | None,
    n_qubits: int,
    trials: int,
    rng: np.random.Generator | int | None = None,
    trial: int = 0,
) -> ReadoutNoiseModel:
    """Empirical flip rates from repeated readout of prepared |0> and |1>.

    Prepares the all-zeros state ``trials`` times and counts per-qubit ones
    (giving w01), then the all-ones state via X gates (giving w10)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    zeros = qsim.zero_state(n_qubits)
    ones = qsim.apply_circuit(zeros, [qsim.x(q) for q in range(1, n_qubits + 1)])
    w01_hat = _marginal_ones(sample(zeros, trials, noise, rng, trial)) / trials
    ones_counts = sample(ones, trials, noise, rng, trial)
    w10_hat = 1.0 - _marginal_ones(ones_counts) / trials
    return ReadoutNoiseModel(tuple(float(v) for v in w01_hat),
                             tuple(float(v) for v in w10_hat))


def _marginal_ones(counts: BitstringCounts) -> np.ndarray:
    """Per-qubit number of shots that read 1 (index q-1 = qubit q)."""
    ones = np.zeros(counts.n_qubits)
    for bits, c in counts.counts.items():
        val = int(bits, 2)
        for q in range(counts.n_qubits):
            if (val >> q) & 1:
                ones[q] += c
    return ones


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
    counts: BitstringCounts,
    model: ReadoutNoiseModel,
    word: str,
    trial: int = 0,
) -> float:
    """Multi-qubit readout correction of an all-I/Z word:
    sum_z p(z) prod_i ((-1)^{z_i} - p⁻_i) / (1 - p⁺_i) over the Z positions,
    clamped to [-1, 1]."""
    if len(word) != counts.n_qubits:
        raise ValueError("word length does not match counts")
    if model.n_qubits != counts.n_qubits:
        raise ValueError("noise model qubit count mismatch")
    mask = _zmask(word)
    w01, w10 = model.rates_at(trial)
    p_plus = w10 + w01
    p_minus = w10 - w01
    z_qubits = [q for q in range(counts.n_qubits) if (mask >> q) & 1]
    if z_qubits:
        _check_invertible(p_plus[z_qubits])
    total = 0.0
    for bits, c in counts.counts.items():
        val = int(bits, 2)
        factor = 1.0
        for q in z_qubits:
            sign = -1.0 if (val >> q) & 1 else 1.0
            factor *= (sign - p_minus[q]) / (1.0 - p_plus[q])
        total += c * factor
    return float(np.clip(total / counts.shots, -1.0, 1.0))


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
    measured = qsim.apply_circuit(state, change.gates)
    counts = sample(measured, shots, noise, rng, trial)
    if mitigation is not None:
        return mitigate_counts(counts, mitigation, change.diagonal, trial)
    return expectation_from_counts(counts, change.diagonal)
