import numpy as np
import pytest

from qbands.pauli import (
    SpectralDecomposition,
    bit_table,
    decompose,
    deflate,
    from_json_object,
    gershgorin_upper_bound,
    is_real,
    kron,
    pauli_words,
    reconstruct,
    shift_identity,
    word_matrix_stack,
)

from conftest import kron_word, rand_hermitian, rand_state


class TestWords:
    def test_enumeration(self):
        assert pauli_words(1) == ("I", "X", "Y", "Z")
        assert len(pauli_words(3)) == 64
        assert pauli_words(2)[0] == "II"

    def test_orthogonality_trace_inner_product(self):
        # Tr(σ_i† σ_j) = 2^n δ_ij, exhaustively up to three qubits.
        for n in (1, 2, 3):
            stack = word_matrix_stack(n)
            gram = np.einsum("aij,bij->ab", stack.conj(), stack)
            assert np.allclose(gram, 2**n * np.eye(4**n), atol=1e-12)

    def test_matches_independent_kron(self):
        # Every word's matrix, in pauli_words order, bit for bit.
        for n in (1, 2, 3):
            stack = word_matrix_stack(n)
            assert stack.shape == (4**n, 2**n, 2**n)
            for word, matrix in zip(pauli_words(n), stack):
                assert matrix.tobytes() == kron_word(word).tobytes()

    def test_cached_stack_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            word_matrix_stack(1)[3] *= 2
        assert decompose(np.diag([1.0, -1.0])).coeffs == {"Z": 1.0}


class TestKron:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["0", "1", "2"])
    @pytest.mark.parametrize("cols", [2, 1], ids=["matrix", "column"])
    def test_is_successive_np_kron_bit_for_bit(self, n, lead, cols, rng):
        # The first factor on the highest qubit, as np.kron(np.kron(f0, f1), ...).
        factors = (rng.normal(size=(*lead, n, 2, cols))
                   + 1j * rng.normal(size=(*lead, n, 2, cols)))
        product = kron(factors)
        assert product.shape == (*lead, 2**n, cols**n)
        for index in np.ndindex(*lead):
            expected = factors[index][0]
            for factor in factors[index][1:]:
                expected = np.kron(expected, factor)
            assert np.ascontiguousarray(product[index]).tobytes() == expected.tobytes()

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            kron(np.ones((3, 0, 2, 2)))


class TestBitTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_kron_word(self, n):
        # Qubit q's Z is diagonal in its bit, (-1)^bit; its X maps b to flip[q-1, b].
        bit, flip = bit_table(n)
        assert bit.shape == flip.shape == (n, 2**n)
        for q in range(1, n + 1):
            word = ["I"] * n
            word[n - q] = "Z"
            assert (np.diag(kron_word("".join(word))) == 1 - 2 * bit[q - 1]).all()
            word[n - q] = "X"
            assert (kron_word("".join(word)) == np.eye(2**n)[flip[q - 1]]).all()


class TestNumberRule:
    def test_finite_reals(self):
        assert all(map(is_real, [0, -3, 1.5, np.float64(2.0), np.int32(7), 10**300]))

    @pytest.mark.parametrize("value", [True, float("inf"), float("nan"), "1", None, 10**400],
                             ids=["bool", "inf", "nan", "str", "none", "401-digit-int"])
    def test_rejected(self, value):
        assert not is_real(value)


class TestJsonObject:
    @staticmethod
    def make(scale, width, height=1.0, *, note=""):
        return scale * width * height

    def test_keys_are_the_parameters_after_args(self):
        assert from_json_object(self.make, {"width": 2.0, "_comment": "x"}, 3.0) == 6.0
        assert from_json_object(self.make, {"width": 2.0, "height": 4.0, "note": ""}, 3.0) == 24.0

    @pytest.mark.parametrize("obj, message", [
        ({"widht": 2.0}, 'unknown key "widht"; missing key "width"; '
                         'the accepted keys are "width", "height", "note"'),
        ({"width": 2.0, "depth": 1.0, "colour": 0},
         'unknown keys "depth", "colour"; the accepted keys are'),
        ({"height": 1.0}, 'missing key "width"; the accepted keys are'),
        ({"scale": 1.0, "width": 2.0}, 'unknown key "scale"'),
    ])
    def test_unknown_and_missing_keys_named(self, obj, message):
        with pytest.raises(ValueError) as exc:
            from_json_object(self.make, obj, 3.0)
        assert message in str(exc.value)
        assert "argument" not in str(exc.value)

    def test_value_of_the_wrong_type_is_a_value_error(self):
        with pytest.raises(ValueError, match="can't multiply"):
            from_json_object(self.make, {"width": 2.0, "height": [1]}, "3")


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

    def test_rejects_a_matrix_on_no_qubit(self):
        for H in (np.ones((1, 1)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="at least one is needed"):
                decompose(H)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            decompose(np.array([[bad, 0.0], [0.0, 1.0]]))

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

    def test_rejects_coefficients_that_overflow(self):
        # Finite entries whose trace sums overflow: c_I and c_X would be inf.
        with pytest.raises(ValueError, match="coefficient of 'I' is not finite"):
            decompose(np.full((2, 2), 1e308))


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


def _oracle_expectations(state, n):
    """<ψ|σ_w|ψ> of every word in pauli_words order, from the test-local
    matrices."""
    return np.array([np.vdot(state, kron_word(w) @ state).real for w in pauli_words(n)])


class TestDeflate:
    def test_hand_worked_single_qubit(self):
        # H' = Z - (-1)|1><1| = diag(1, 0); |1> has <I, X, Y, Z> = (1, 0, 0, -1).
        d = SpectralDecomposition(1, {"Z": 1.0})
        out = deflate(d, -1.0, np.array([1.0, 0.0, 0.0, -1.0]))
        assert list(out.coeffs.items()) == [("I", 0.5), ("Z", 0.5)]
        assert np.array_equal(reconstruct(out), np.diag([1.0 + 0j, 0.0]))

    def test_zero_weight_is_identity(self, rng):
        d = decompose(rand_hermitian(rng, 4))
        assert deflate(d, 0.0, _oracle_expectations(rand_state(rng, 4), 2)).coeffs == d.coeffs

    def test_exact_pair_moves_eigenvalue_to_zero(self, rng):
        H = rand_hermitian(rng, 4, scale=2.0)
        H -= (gershgorin_upper_bound(H) + 1.0) * np.eye(4)
        evals, evecs = np.linalg.eigh(H)
        deflated = deflate(decompose(H), evals[0], _oracle_expectations(evecs[:, 0], 2))
        spectrum = np.linalg.eigvalsh(reconstruct(deflated))
        expected = np.sort(np.concatenate([[0.0], evals[1:]]))
        assert np.max(np.abs(spectrum - expected)) < 1e-10

    def test_preserves_remaining_spectrum_eight_by_eight(self, rng):
        H = rand_hermitian(rng, 8, scale=2.0)
        H -= (gershgorin_upper_bound(H) + 1.0) * np.eye(8)
        evals, evecs = np.linalg.eigh(H)
        work = decompose(H)
        for level in range(3):
            work = deflate(work, evals[level], _oracle_expectations(evecs[:, level], 3))
        spectrum = np.linalg.eigvalsh(reconstruct(work))
        expected = np.sort(np.concatenate([[0.0] * 3, evals[3:]]))
        assert np.max(np.abs(spectrum - expected)) < 1e-10

    def test_nan_is_kept_not_pruned_as_dust(self):
        d = deflate(SpectralDecomposition(1, {"Z": 1.0}), float("nan"),
                    np.array([1.0, 0.0, 0.0, 1.0]))
        assert list(d.coeffs) == list(pauli_words(1))
        assert np.isnan(list(d.coeffs.values())).all()

    def test_rejects_expectations_of_wrong_shape(self):
        # A dict, a missing word, a stack of one row, another qubit count.
        d = SpectralDecomposition(1, {"Z": 1.0})
        for expectations in ({"I": 1.0, "Z": -1.0}, np.array([1.0, 0.0, 0.0]),
                             np.array([[1.0, 0.0, 0.0, -1.0]]), np.ones(16)):
            with pytest.raises(ValueError, match="expected the 4 expectations"):
                deflate(d, -1.0, expectations)

    def test_rejects_out_of_range_expectation(self):
        d = SpectralDecomposition(1, {"Z": 1.0})
        for bad in (-1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="expectation for 'Z' out of range"):
                deflate(d, -1.0, np.array([1.0, 0.0, 0.0, bad]))
