"""Pauli-word algebra: spectral decomposition of Hermitian matrices and the
coefficient updates (constant shift, ground-state deflation) used to walk a
spectrum from the bottom up.

A Pauli word is a string over ``{I, X, Y, Z}``; the rightmost letter acts on
qubit 1, the least significant bit of a basis-state index.  A Hermitian
matrix H of dimension 2**n is represented by the real coefficients
c_w = Tr(H† σ_w) / 2**n over all 4**n words.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Mapping

import numpy as np

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Coefficients below this magnitude are floating-point dust and are dropped
# so that shot budgets are never spent measuring null words.
COEFF_PRUNE_TOL = 1e-14

# Largest entrywise |H - H†| accepted as Hermitian.
HERM_TOL = 1e-9


@lru_cache(maxsize=None)
def pauli_words(n_qubits: int) -> tuple[str, ...]:
    """All 4**n words of length n, in lexicographic I, X, Y, Z order."""
    return tuple("".join(p) for p in product("IXYZ", repeat=n_qubits))


def word_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word (rightmost letter = least significant qubit)."""
    mat = PAULI_MATRICES[word[0]].copy()
    for letter in word[1:]:
        mat = np.kron(mat, PAULI_MATRICES[letter])
    return mat


@lru_cache(maxsize=8)
def word_matrix_stack(n_qubits: int) -> np.ndarray:
    """(4**n, 2**n, 2**n) stack of all word matrices, in pauli_words order;
    cached, so read-only."""
    stack = np.array([word_matrix(w) for w in pauli_words(n_qubits)])
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real Pauli coefficients of a Hermitian matrix.

    Absent words have coefficient zero.  Instances are treated as immutable
    values; every update operation returns a new decomposition.
    """

    n_qubits: int
    coeffs: Mapping[str, float]

    def coefficient(self, word: str) -> float:
        return self.coeffs.get(word, 0.0)

    @property
    def identity_word(self) -> str:
        return "I" * self.n_qubits

    def __len__(self) -> int:
        return len(self.coeffs)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense reconstruction, built on first use and then shared
        (read-only) by every consumer of this decomposition."""
        dense = reconstruct(self)
        dense.flags.writeable = False
        return dense


def require_hermitian(H: np.ndarray) -> None:
    """Raise ValueError if H deviates from Hermiticity by more than
    HERM_TOL entrywise."""
    dev = np.max(np.abs(H - H.conj().T)) if H.size else 0.0
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


def _prune(coeffs: dict[str, float]) -> dict[str, float]:
    return {w: c for w, c in coeffs.items() if abs(c) >= COEFF_PRUNE_TOL}


def decompose(H: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition c_w = Tr(H† σ_w) / 2**n of a Hermitian matrix.

    Raises ValueError if the matrix is not square with dimension a power of
    two, or is not Hermitian within HERM_TOL (real coefficients cannot
    represent an anti-Hermitian part).  Coefficients with magnitude below
    COEFF_PRUNE_TOL are omitted.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    require_hermitian(H)
    dim = H.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    stack = word_matrix_stack(n)
    # Tr(H† σ) = vdot(H, σ) summed entrywise; real for Hermitian H.
    traces = np.einsum("ij,wij->w", H.conj(), stack)
    coeffs = {
        w: float(t.real)
        for w, t in zip(pauli_words(n), traces / dim)
    }
    return SpectralDecomposition(n, _prune(coeffs))


@lru_cache(maxsize=8)
def _word_index(n_qubits: int) -> dict[str, int]:
    return {w: i for i, w in enumerate(pauli_words(n_qubits))}


def reconstruct(decomp: SpectralDecomposition) -> np.ndarray:
    """Dense matrix sum(c_w σ_w); inverse of decompose up to pruning."""
    n = decomp.n_qubits
    index = _word_index(n)
    weights = np.zeros(4**n)
    for word, c in decomp.coeffs.items():
        weights[index[word]] = c
    return np.tensordot(weights, word_matrix_stack(n), axes=1)


def shift_identity(decomp: SpectralDecomposition, s: float) -> SpectralDecomposition:
    """Subtract s from the identity coefficient: H -> H - s*1.

    Every eigenvalue of the reconstruction decreases by exactly s; no other
    coefficient changes.
    """
    coeffs = dict(decomp.coeffs)
    ident = decomp.identity_word
    coeffs[ident] = coeffs.get(ident, 0.0) - float(s)
    return SpectralDecomposition(decomp.n_qubits, _prune(coeffs))


def deflate(
    decomp: SpectralDecomposition,
    eps0: float,
    expectations: Mapping[str, float],
) -> SpectralDecomposition:
    """Remove a found eigenstate: c_w -> c_w - eps0 * <σ_w> / 2**n.

    ``expectations`` holds the Pauli expectations of the state that achieved
    energy ``eps0``; the update realises H' = H - eps0 |ψ><ψ| so that the
    found eigenvalue moves to zero.  All 4**n expectations are required for
    an exact update.  A word with a nonzero coefficient and no expectation
    raises ValueError; a missing identity expectation defaults to 1 (exact
    for any normalised state) and any other missing word is assumed to have
    zero expectation.
    """
    if eps0 == 0.0:
        return SpectralDecomposition(decomp.n_qubits, dict(decomp.coeffs))
    n = decomp.n_qubits
    dim = 2**n
    ident = decomp.identity_word
    coeffs = {}
    for word in pauli_words(n):
        c = decomp.coeffs.get(word, 0.0)
        if word in expectations:
            ev = float(expectations[word])
        elif word == ident:
            ev = 1.0
        elif c != 0.0:
            raise ValueError(f"missing expectation for word {word!r} with c={c}")
        else:
            ev = 0.0
        if abs(ev) > 1.0 + 1e-9:
            raise ValueError(f"expectation for {word!r} out of range: {ev}")
        coeffs[word] = c - eps0 * ev / dim
    return SpectralDecomposition(n, _prune(coeffs))


def gershgorin_upper_bound(H: np.ndarray) -> float:
    """Row-sum upper bound on the largest eigenvalue of a Hermitian matrix."""
    H = np.asarray(H)
    diag = np.real(np.diag(H))
    radii = np.sum(np.abs(H), axis=1) - np.abs(np.diag(H))
    return float(np.max(diag + radii))
