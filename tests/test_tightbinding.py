import json

import numpy as np
import pytest

from qbands.tightbinding import (
    KPoint,
    TBParameters,
    build_full_hamiltonian,
    build_s_block,
    diagonalize_classical,
    make_kpath,
    structure_factors,
)

from conftest import jacobi_eigenvalues, rand_hermitian

SI = TBParameters.default_silicon()
GAMMA = KPoint((0.0, 0.0, 0.0), "G")
X = KPoint((1.0, 0.0, 0.0), "X")
L = KPoint((0.5, 0.5, 0.5), "L")

# Primitive reciprocal lattice vectors of the FCC lattice, units of 2π/a.
RECIPROCAL = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]


def _params(**overrides) -> TBParameters:
    base = dict(lattice_constant=5.431, E_s=0.0, E_p=7.2,
                V_ss=-8.13, V_sp=5.88, V_xx=3.17, V_xy=7.51)
    base.update(overrides)
    return TBParameters(**base)


def _random_kpoints(n=12, seed=5):
    rng = np.random.default_rng(seed)
    return [KPoint(tuple(rng.uniform(-1.5, 1.5, 3))) for _ in range(n)]


class TestParameters:
    def test_default_silicon_values(self):
        assert SI.lattice_constant == pytest.approx(5.431)
        assert SI.E_p - SI.E_s == pytest.approx(7.20)
        assert SI.V_ss == pytest.approx(-8.13)

    def test_rejects_nonpositive_lattice_constant(self):
        with pytest.raises(ValueError):
            _params(lattice_constant=0.0)

    def test_rejects_non_finite_energy(self):
        with pytest.raises(ValueError):
            _params(E_p=float("nan"))

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "lattice_constant": 5.0, "E_s": -1.0, "E_p": 6.0,
            "V_ss": -8.0, "V_sp": 5.0, "V_xx": 3.0, "V_xy": 7.0,
        }))
        p = TBParameters.from_json(path)
        assert p.E_s == -1.0 and p.V_xy == 7.0

    def test_from_json_missing_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"lattice_constant": 5.0}))
        with pytest.raises(ValueError, match="missing"):
            TBParameters.from_json(path)

    @pytest.mark.parametrize("field, value", [("E_s", True), ("E_p", "7.20"),
                                              ("lattice_constant", None)])
    def test_rejects_bool_and_string_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            _params(**{field: value})

    def test_stores_integers_as_floats(self):
        p = _params(E_s=0, lattice_constant=5)
        assert type(p.E_s) is float and p.E_s == 0.0
        assert type(p.lattice_constant) is float and p.lattice_constant == 5.0


class TestStructureFactors:
    def test_zone_centre(self):
        g = structure_factors(GAMMA)
        assert g[0] == pytest.approx(1.0)
        assert np.allclose(g[1:], 0.0, atol=1e-15)

    def test_phase_sum_vanishes_at_X(self):
        # e^{iπ/2} + e^{iπ/2} + e^{-iπ/2} + e^{-iπ/2} = 0, evaluated directly
        phases = [np.exp(1j * np.pi / 2)] * 2 + [np.exp(-1j * np.pi / 2)] * 2
        assert abs(sum(phases)) < 1e-15
        assert abs(structure_factors(X)[0]) < 1e-15


class TestFullHamiltonian:
    def test_s_s_element_vanishes_at_X(self):
        H = build_full_hamiltonian(SI, X)
        assert abs(H[0, 4]) < 1e-12

    def test_hermitian_by_construction(self):
        for k in _random_kpoints():
            H = build_full_hamiltonian(SI, k)
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_decoupled_s_block_eigenvalues(self):
        # E_s = 0 and V_sp = 0 decouple the s block; its eigenvalues are
        # ±|V_ss| at the zone centre by the dense 2x2 eigensolver.
        p = _params(E_s=0.0, V_sp=0.0)
        H = build_full_hamiltonian(p, GAMMA)
        sub = H[np.ix_([0, 4], [0, 4])]
        evals = np.linalg.eigvalsh(sub)
        assert evals == pytest.approx([-abs(p.V_ss), abs(p.V_ss)], abs=1e-12)

    def test_spectrum_even_in_k(self):
        for k in _random_kpoints(6):
            minus = KPoint(tuple(-c for c in k.components))
            e1 = diagonalize_classical(build_full_hamiltonian(SI, k))
            e2 = diagonalize_classical(build_full_hamiltonian(SI, minus))
            assert np.max(np.abs(e1 - e2)) < 1e-10

    def test_spectrum_periodic_in_reciprocal_lattice(self):
        for k in _random_kpoints(4):
            e0 = diagonalize_classical(build_full_hamiltonian(SI, k))
            for G in RECIPROCAL:
                shifted = KPoint(tuple(c + g for c, g in zip(k.components, G)))
                e1 = diagonalize_classical(build_full_hamiltonian(SI, shifted))
                assert np.max(np.abs(e0 - e1)) < 1e-10

    def test_s_block_matches_full_without_sp_hopping(self):
        p = _params(V_sp=0.0)
        for k in _random_kpoints(6, seed=9):
            full = diagonalize_classical(build_full_hamiltonian(p, k))
            for e in diagonalize_classical(build_s_block(p, k)):
                assert np.min(np.abs(full - e)) < 1e-10

    def test_zone_centre_degeneracies(self):
        # Bonding/antibonding s singlets and two three-fold p multiplets.
        p = _params(V_sp=0.0)
        evals = diagonalize_classical(build_full_hamiltonian(p, GAMMA))
        groups = [[evals[0]]]
        for e in evals[1:]:
            if e - groups[-1][-1] < 1e-6:
                groups[-1].append(e)
            else:
                groups.append([e])
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 1, 3, 3]
        for g in groups:
            assert max(g) - min(g) < 1e-9


class TestSBlock:
    def test_zone_centre_closed_form(self):
        evals = diagonalize_classical(build_s_block(SI, GAMMA))
        assert evals == pytest.approx(
            [SI.E_s - abs(SI.V_ss), SI.E_s + abs(SI.V_ss)], abs=1e-12
        )

    def test_off_diagonal_magnitude_at_L(self):
        # Phase sum has modulus 2 of 4 at L: |e^{3iπ/4} + 3 e^{-iπ/4}| = 2.
        assert abs(np.exp(3j * np.pi / 4) + 3 * np.exp(-1j * np.pi / 4)) == pytest.approx(2.0)
        H = build_s_block(SI, L)
        assert abs(H[0, 1]) == pytest.approx(abs(SI.V_ss) / 2, abs=1e-12)

    def test_degenerate_at_X(self):
        H = build_s_block(SI, X)
        assert np.allclose(H, np.diag([SI.E_s, SI.E_s]), atol=1e-12)


class TestKPath:
    def test_degenerate_segment(self):
        path = make_kpath([GAMMA, GAMMA], 5)
        assert len(path) == 6
        assert np.allclose(path.coords, 0.0)
        for p in path.points:
            assert p.components == GAMMA.components

    def test_three_anchor_path(self):
        path = make_kpath([X, GAMMA, L], 20)
        assert len(path) == 41
        assert np.all(np.diff(path.coords) > 0)
        assert path.coords[0] == 0.0
        assert path.segment_starts == (0, 20, 40)
        # The second segment is sqrt(3)/2 long in units of 2π/a.
        assert path.coords[-1] == pytest.approx(1.0 + np.sqrt(3) / 2)

    def test_single_point_segments(self):
        path = make_kpath([GAMMA, X], 1)
        assert len(path) == 2
        assert path.points[0].components == GAMMA.components
        assert path.points[1].components == X.components

    def test_requires_two_anchors(self):
        with pytest.raises(ValueError):
            make_kpath([GAMMA], 5)

    def test_high_symmetry_labels(self):
        assert KPoint.high_symmetry("Gamma").components == (0.0, 0.0, 0.0)
        assert KPoint.high_symmetry("x").components == (1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            KPoint.high_symmetry("Q")


class TestDiagonalize:
    def test_sorted_diagonal(self):
        assert diagonalize_classical(np.diag([3.0, 1.0, 2.0, 0.0])).tolist() == [0, 1, 2, 3]

    def test_symmetric_two_by_two(self):
        t = -4.3
        evals = diagonalize_classical(np.array([[0.0, t], [t, 0.0]]))
        assert evals == pytest.approx([-abs(t), abs(t)])

    def test_against_jacobi_reference(self, rng):
        for _ in range(5):
            H = rand_hermitian(rng, 8, scale=3.0)
            assert np.max(np.abs(diagonalize_classical(H) - jacobi_eigenvalues(H))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize_classical(np.array([[0.0, 1.0], [0.0, 0.0]]))

