"""Pauli-word algebra: spectral decomposition of Hermitian matrices and the
coefficient updates (constant shift, ground-state deflation) used to walk a
spectrum from the bottom up.

A Pauli word is a string over ``{I, X, Y, Z}``; the rightmost letter acts on
qubit 1, the least significant bit of a basis-state index.  A Hermitian
matrix H of dimension 2**n is represented by the real coefficients
c_w = Tr(H† σ_w) / 2**n over all 4**n words.

Every module builds its products over qubits with `kron` (first factor on
the highest qubit) and its batch-independent mat-vecs with `rowwise`.
"""
from __future__ import annotations

import inspect
import math
import numbers
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


def kron(factors: np.ndarray) -> np.ndarray:
    """(..., r**n, c**n) Kronecker products of an (..., n, r, c) stack of
    per-qubit factors, the first on the highest qubit: bit for bit numpy's
    ``kron`` applied factor by factor.  One qubit gives a view."""
    if not factors.shape[-3]:
        raise ValueError("need at least one qubit")
    product = factors[..., 0, :, :]
    for q in range(1, factors.shape[-3]):
        factor = factors[..., q, :, :]
        rows, cols = product.shape[-2] * factor.shape[-2], product.shape[-1] * factor.shape[-1]
        product = (product[..., :, None, :, None] * factor[..., None, :, None, :]).reshape(
            *product.shape[:-2], rows, cols)
    return product


def rowwise(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row of a (..., dim) stack, as one stacked
    mat-vec; ``matrix`` may itself be a stack that broadcasts against the
    rows.  Row b's product is the same for every batch size; ``rows @
    matrix.T`` is not (BLAS rounds a one-row product differently), so every
    product that must not depend on its batch goes through here."""
    return np.matmul(matrix, rows[..., None])[..., 0]


@lru_cache(maxsize=8)
def word_matrix_stack(n_qubits: int) -> np.ndarray:
    """(4**n, 2**n, 2**n) stack of all word matrices, in pauli_words order,
    leftmost letter on the highest qubit; cached, so read-only."""
    stack = kron(np.array([[PAULI_MATRICES[letter] for letter in word]
                           for word in pauli_words(n_qubits)]))
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

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense reconstruction, built on first use and then shared
        (read-only) by every consumer of this decomposition."""
        dense = reconstruct(self)
        dense.flags.writeable = False
        return dense


def is_real(value) -> bool:
    """A real number with a finite float value, bool excluded: the one number
    rule of every input.  An integer too large for a float is not one."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def is_int(value) -> bool:
    """An integer, bool excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _key_list(keys) -> str:
    return ", ".join(f'"{k}"' for k in keys)


def from_json_object(make, obj, *args):
    """``make(*args, **obj)`` for a JSON object of an input file: keys starting
    with ``_`` are comments, and ``make`` checks the values.  Unknown or
    missing keys are a ValueError that names them and the accepted keys,
    the parameters of ``make`` after ``args``."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kwargs = {k: v for k, v in obj.items() if not str(k).startswith("_")}
    params = list(inspect.signature(make).parameters.values())[len(args):]
    accepted = [p.name for p in params]
    unknown = [k for k in kwargs if k not in accepted]
    missing = [p.name for p in params if p.default is p.empty and p.name not in kwargs]
    if unknown or missing:
        problems = [f"{label}{'s' if len(keys) > 1 else ''} {_key_list(keys)}"
                    for label, keys in (("unknown key", unknown), ("missing key", missing))
                    if keys]
        raise ValueError(f"{'; '.join(problems)}; the accepted keys are "
                         f"{_key_list(accepted)} (keys starting with \"_\" are comments)")
    try:
        return make(*args, **kwargs)
    except TypeError as exc:  # a value of the wrong type
        raise ValueError(str(exc)) from None


def require_hermitian(H: np.ndarray) -> None:
    """Raise ValueError if H has a non-finite entry or deviates from
    Hermiticity by more than HERM_TOL entrywise."""
    if not np.isfinite(H).all():
        raise ValueError("matrix has non-finite entries")
    dev = np.max(np.abs(H - H.conj().T)) if H.size else 0.0
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


def _prune(coeffs: dict[str, float]) -> dict[str, float]:
    return {w: c for w, c in coeffs.items() if abs(c) >= COEFF_PRUNE_TOL}


def decompose(H: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition c_w = Tr(H† σ_w) / 2**n of a Hermitian matrix.

    Raises ValueError if the matrix is not square with dimension a power of
    two and at least 2 (one qubit), or is not Hermitian within HERM_TOL
    (real coefficients cannot represent an anti-Hermitian part).
    Coefficients with magnitude below COEFF_PRUNE_TOL are omitted.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    dim = H.shape[0]
    if dim < 2:
        raise ValueError(f"matrix dimension {dim} acts on no qubit; at least one is needed")
    require_hermitian(H)
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


def _coefficient_vector(decomp: SpectralDecomposition) -> np.ndarray:
    """(4**n,) coefficients in pauli_words order, absent words zero."""
    return np.array([decomp.coeffs.get(w, 0.0) for w in pauli_words(decomp.n_qubits)])


def reconstruct(decomp: SpectralDecomposition) -> np.ndarray:
    """Dense matrix sum(c_w σ_w); inverse of decompose up to pruning."""
    return np.tensordot(_coefficient_vector(decomp), word_matrix_stack(decomp.n_qubits),
                        axes=1)


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
    expectations: np.ndarray,
) -> SpectralDecomposition:
    """Remove a found eigenstate: c_w -> c_w - eps0 * <σ_w> / 2**n.

    ``expectations`` is the (4**n,) array of the Pauli expectations, in
    pauli_words order, of the state that achieved energy ``eps0``; the
    update realises H' = H - eps0 |ψ><ψ| so that the found eigenvalue moves
    to zero.  Raises ValueError for another shape, or for a value that is
    not finite or exceeds 1 in magnitude (beyond 1e-9 of round-off).  The
    result holds its words in pauli_words order.
    """
    n = decomp.n_qubits
    words = pauli_words(n)
    ev = np.asarray(expectations)
    if ev.shape != (len(words),):
        raise ValueError(f"expected the {len(words)} expectations of {n}-qubit words "
                         f"in pauli_words order, got shape {ev.shape}")
    bad = ~(np.abs(ev) <= 1.0 + 1e-9)  # NaN compares False
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"expectation for {words[i]!r} out of range: {ev[i]}")
    coeffs = _coefficient_vector(decomp) - eps0 * ev / 2**n
    return SpectralDecomposition(n, _prune(dict(zip(words, coeffs.tolist()))))


def gershgorin_upper_bound(H: np.ndarray) -> float:
    """Row-sum upper bound on the largest eigenvalue of a Hermitian matrix."""
    H = np.asarray(H)
    diag = np.real(np.diag(H))
    radii = np.sum(np.abs(H), axis=1) - np.abs(np.diag(H))
    return float(np.max(diag + radii))
