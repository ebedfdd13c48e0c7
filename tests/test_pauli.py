import numpy as np
import pytest

from qbands.pauli import (
    SpectralDecomposition,
    decompose,
    deflate,
    gershgorin_upper_bound,
    pauli_words,
    reconstruct,
    shift_identity,
    word_matrix,
    word_matrix_stack,
)

from conftest import kron_word, rand_hermitian


class TestWords:
    def test_enumeration(self):
        assert pauli_words(1) == ("I", "X", "Y", "Z")
        assert len(pauli_words(3)) == 64
        assert pauli_words(2)[0] == "II"

    def test_orthogonality_trace_inner_product(self):
        # Tr(σ_i† σ_j) = 2^n δ_ij, exhaustively up to three qubits.
        for n in (1, 2, 3):
            stack = np.array([word_matrix(w) for w in pauli_words(n)])
            gram = np.einsum("aij,bij->ab", stack.conj(), stack)
            assert np.allclose(gram, 2**n * np.eye(4**n), atol=1e-12)

    def test_matches_independent_kron(self):
        for word in ("XZ", "IYZ", "ZZY"):
            assert np.array_equal(word_matrix(word), kron_word(word))

    def test_cached_stack_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            word_matrix_stack(1)[3] *= 2
        assert decompose(np.diag([1.0, -1.0])).coeffs == {"Z": 1.0}


class TestDecompose:
    def test_z_matrix(self):
        d = decompose(np.diag([1.0, -1.0]))
        assert d.coeffs == {"Z": 1.0}

    def test_identity(self):
        d = decompose(np.eye(2))
        assert d.coeffs == {"I": 1.0}

    def test_general_two_by_two(self, rng):
        # H = [[a, b - ic], [b + ic, d]] -> I:(a+d)/2, X:b, Y:c, Z:(a-d)/2,
        # from evaluating the trace symbolically.
        for _ in range(10):
            a, b, c, d = rng.normal(size=4)
            H = np.array([[a, b - 1j * c], [b + 1j * c, d]])
            dec = decompose(H)
            assert dec.coefficient("I") == pytest.approx((a + d) / 2, abs=1e-12)
            assert dec.coefficient("X") == pytest.approx(b, abs=1e-12)
            assert dec.coefficient("Y") == pytest.approx(c, abs=1e-12)
            assert dec.coefficient("Z") == pytest.approx((a - d) / 2, abs=1e-12)

    def test_coefficients_real(self, rng):
        H = rand_hermitian(rng, 8)
        for word in pauli_words(3):
            raw = np.trace(H.conj().T @ kron_word(word)) / 8
            assert abs(raw.imag) < 1e-13

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="power of two"):
            decompose(np.eye(3))
        with pytest.raises(ValueError, match="square"):
            decompose(np.ones((2, 4)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_hermitian_within_tolerance(self, rng):
        H = rand_hermitian(rng, 4)
        H[0, 1] += 1e-12
        assert np.max(np.abs(reconstruct(decompose(H)) - H)) < 1e-11

    def test_linearity(self, rng):
        H1 = rand_hermitian(rng, 4)
        H2 = rand_hermitian(rng, 4)
        a, b = 0.7, -2.3
        combined = decompose(a * H1 + b * H2)
        d1, d2 = decompose(H1), decompose(H2)
        for word in pauli_words(2):
            expect = a * d1.coefficient(word) + b * d2.coefficient(word)
            assert combined.coefficient(word) == pytest.approx(expect, abs=1e-12)

    def test_prunes_dust(self):
        d = decompose(np.diag([1e-16, -1e-16]))
        assert d.coeffs == {}


class TestReconstruct:
    def test_z(self):
        H = reconstruct(SpectralDecomposition(1, {"Z": 1.0}))
        assert np.array_equal(H, np.diag([1.0 + 0j, -1.0]))

    def test_empty_is_zero(self):
        assert np.array_equal(
            reconstruct(SpectralDecomposition(2, {})), np.zeros((4, 4))
        )

    def test_roundtrip_eight_by_eight(self, rng):
        H = rand_hermitian(rng, 8, scale=4.0)
        assert np.max(np.abs(reconstruct(decompose(H)) - H)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_property(self, n, rng):
        for _ in range(25):
            H = rand_hermitian(rng, 2**n, scale=rng.uniform(0.1, 10))
            assert np.max(np.abs(reconstruct(decompose(H)) - H)) < 1e-12


class TestShiftIdentity:
    def test_direct_example(self):
        shifted = shift_identity(SpectralDecomposition(1, {"Z": 1.0}), 2.0)
        assert shifted.coeffs == {"I": -2.0, "Z": 1.0}
        assert np.array_equal(reconstruct(shifted), np.diag([-1.0 + 0j, -3.0]))

    def test_zero_shift_is_identity(self, rng):
        d = decompose(rand_hermitian(rng, 4))
        assert shift_identity(d, 0.0).coeffs == d.coeffs

    def test_gershgorin_shift_makes_spectrum_negative(self, rng):
        for _ in range(10):
            H = rand_hermitian(rng, 8, scale=3.0)
            bound = gershgorin_upper_bound(H)
            shifted = shift_identity(decompose(H), bound + 1.0)
            assert np.all(np.linalg.eigvalsh(reconstruct(shifted)) < 0)

    def test_every_eigenvalue_drops_by_shift(self, rng):
        H = rand_hermitian(rng, 4)
        s = 3.7
        before = np.linalg.eigvalsh(H)
        after = np.linalg.eigvalsh(reconstruct(shift_identity(decompose(H), s)))
        assert np.allclose(after, before - s, atol=1e-12)


class TestGershgorin:
    def test_upper_bounds_spectrum(self, rng):
        for _ in range(20):
            H = rand_hermitian(rng, 8, scale=rng.uniform(0.5, 5))
            assert gershgorin_upper_bound(H) >= np.linalg.eigvalsh(H)[-1] - 1e-12

    def test_diagonal_matrix_is_tight(self):
        assert gershgorin_upper_bound(np.diag([2.0, -1.0])) == 2.0


class TestDeflate:
    def test_hand_worked_single_qubit(self):
        # H' = Z - (-1)|1><1| = diag(1, 0)
        d = SpectralDecomposition(1, {"Z": 1.0})
        out = deflate(d, -1.0, {"I": 1.0, "Z": -1.0})
        assert out.coeffs == {"I": 0.5, "Z": 0.5}
        assert np.array_equal(reconstruct(out), np.diag([1.0 + 0j, 0.0]))

    def test_zero_weight_is_identity(self, rng):
        d = decompose(rand_hermitian(rng, 4))
        assert deflate(d, 0.0, {}).coeffs == d.coeffs

    def test_exact_pair_moves_eigenvalue_to_zero(self, rng):
        H = rand_hermitian(rng, 4, scale=2.0)
        H -= (gershgorin_upper_bound(H) + 1.0) * np.eye(4)
        evals, evecs = np.linalg.eigh(H)
        ground = evecs[:, 0]
        expectations = {
            w: float(np.real(ground.conj() @ kron_word(w) @ ground))
            for w in pauli_words(2)
        }
        deflated = deflate(decompose(H), evals[0], expectations)
        spectrum = np.linalg.eigvalsh(reconstruct(deflated))
        expected = np.sort(np.concatenate([[0.0], evals[1:]]))
        assert np.max(np.abs(spectrum - expected)) < 1e-10

    def test_preserves_remaining_spectrum_eight_by_eight(self, rng):
        H = rand_hermitian(rng, 8, scale=2.0)
        H -= (gershgorin_upper_bound(H) + 1.0) * np.eye(8)
        evals, evecs = np.linalg.eigh(H)
        work = decompose(H)
        for level in range(3):
            vec = evecs[:, level]
            exps = {
                w: float(np.real(vec.conj() @ kron_word(w) @ vec))
                for w in pauli_words(3)
            }
            work = deflate(work, evals[level], exps)
        spectrum = np.linalg.eigvalsh(reconstruct(work))
        expected = np.sort(np.concatenate([[0.0] * 3, evals[3:]]))
        assert np.max(np.abs(spectrum - expected)) < 1e-10

    def test_missing_expectation_for_active_word(self):
        d = SpectralDecomposition(1, {"Z": 1.0})
        with pytest.raises(ValueError, match="missing expectation"):
            deflate(d, -1.0, {"I": 1.0})

    def test_rejects_out_of_range_expectation(self):
        d = SpectralDecomposition(1, {"Z": 1.0})
        with pytest.raises(ValueError, match="out of range"):
            deflate(d, -1.0, {"I": 1.0, "Z": -1.5})
