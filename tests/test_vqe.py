import numpy as np
import pytest

from qbands import sampler
from qbands.pauli import (
    SpectralDecomposition,
    decompose,
    deflate,
    gershgorin_upper_bound,
    reconstruct,
    shift_identity,
)
from qbands.qsim import MEAN_FIELD, THREE_QUBIT
from qbands.sampler import ReadoutNoiseModel
from qbands.tightbinding import (
    KPoint,
    TBParameters,
    build_full_hamiltonian,
    build_s_block,
    diagonalize_classical,
    make_kpath,
)
from qbands.vqe import (
    ExactBackend,
    OptimizerConfig,
    ShotsBackend,
    ZeroCaptureError,
    full_spectrum,
    grid_scan,
    minimize,
    optimize_direct,
    optimize_quasinewton,
)

from conftest import layered_state, pauli_sum_expectation, rand_hermitian

SI = TBParameters.default_silicon()
GAMMA = KPoint((0.0, 0.0, 0.0))
EXACT = ExactBackend()


def rosen(X):
    return (1 - X[:, 0]) ** 2 + 100 * (X[:, 1] - X[:, 0] ** 2) ** 2


def rosen_grad(X):
    x, y = X[:, 0], X[:, 1]
    return np.column_stack([-2 * (1 - x) - 400 * x * (y - x**2), 200 * (y - x**2)])


class TestOptimizerConfig:
    def test_method_aliases(self):
        # Only the documented spellings name a method.
        for method in ("quasi-newton", "quasi-newton-gradient", "direct",
                       "direct-search", "BFGS", "Cobyla"):
            with pytest.raises(ValueError):
                OptimizerConfig(method=method)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="adam")

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tol_ev=0.0)

    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": "x"}, {"max_iter": 2.0}, {"max_iter": True}, {"max_iter": 0},
        {"restarts": 2.5}, {"restarts": False}, {"restarts": "3"},
        {"tol_ev": "1e-6"}, {"tol_ev": True}, {"tol_ev": float("inf")},
        {"tol_ev": float("nan")}, {"seed": 1.0}, {"seed": "7"}, {"seed": True},
        {"seed": -1}, {"method": 3},
    ])
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            OptimizerConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(max_iter=np.int64(5), restarts=np.int32(2), seed=np.uint64(3))
        assert cfg.max_iter == 5 and cfg.restarts == 2 and cfg.seed == 3

    def test_from_dict(self):
        cfg = OptimizerConfig.from_dict(
            {"method": "cobyla", "max_iter": 77, "tol_ev": 1e-6, "restarts": 4, "seed": 9}
        )
        assert cfg.method == "cobyla" and cfg.max_iter == 77 and cfg.seed == 9

    @pytest.mark.parametrize("data, named", [
        ({"fd_step": 1e-4}, "fd_step"),
        ({"max_iters": 5, "seed": 1}, "max_iters"),
    ])
    def test_from_dict_names_unknown_keys(self, data, named):
        with pytest.raises(ValueError, match=named):
            OptimizerConfig.from_dict(data)


class TestOptimizers:
    def test_quadratic_both_methods(self):
        cfg = OptimizerConfig(tol_ev=1e-10)
        [bfgs] = optimize_quasinewton(lambda X: (X[:, 0] - 2.0) ** 2,
                                      lambda X: 2 * (X - 2.0), np.array([[0.0]]), cfg)
        direct = optimize_direct(lambda x: float((x[0] - 2.0) ** 2), np.array([0.0]), cfg)
        for res in (bfgs, direct):
            assert res.x[0] == pytest.approx(2.0, abs=1e-6)
            assert res.converged

    def test_rosenbrock_quasinewton(self):
        [res] = optimize_quasinewton(rosen, rosen_grad, np.array([[-1.0, 1.0]]),
                                     OptimizerConfig())
        assert res.fun < 1e-6
        assert res.converged

    def test_lockstep_rows_match_solo_runs(self, rng):
        def fb(X):
            return np.sum(np.sin(X) + 0.3 * X**2, axis=1)

        def gb(X):
            return np.cos(X) + 0.6 * X

        x0 = rng.uniform(-3, 3, size=(6, 3))
        together = optimize_quasinewton(fb, gb, x0, OptimizerConfig())
        x0_rosen = rng.uniform(-2, 2, size=(5, 2))
        together += optimize_quasinewton(rosen, rosen_grad, x0_rosen, OptimizerConfig())
        solo = [optimize_quasinewton(fb, gb, x[None], OptimizerConfig())[0] for x in x0]
        solo += [optimize_quasinewton(rosen, rosen_grad, x[None], OptimizerConfig())[0]
                 for x in x0_rosen]
        for a, b in zip(together, solo):
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
            assert a.fun == pytest.approx(b.fun, abs=1e-12)
            assert (a.evaluations, a.iterations, a.converged) == \
                (b.evaluations, b.iterations, b.converged)

    def test_exact_backend_rows_match_solo_runs(self, rng):
        dec = decompose(build_full_hamiltonian(SI, KPoint((0.5, 0.25, 0.0))))
        _, f_batch = EXACT.make_objective(dec, THREE_QUBIT)
        grad, cost = EXACT.make_gradient(dec, THREE_QUBIT)
        x0 = np.array([THREE_QUBIT.random_parameters(rng) for _ in range(4)])
        cfg = OptimizerConfig(max_iter=60)
        together = optimize_quasinewton(f_batch, grad, x0, cfg, cost)
        for x, a in zip(x0, together):
            [b] = optimize_quasinewton(f_batch, grad, x[None], cfg, cost)
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
            assert (a.evaluations, a.iterations) == (b.evaluations, b.iterations)

    def test_direct_search_tolerates_noise(self):
        target = np.array([0.7, -0.4])
        noise_rng = np.random.default_rng(1)

        def noisy(x):
            return float(10 * np.sum((x - target) ** 2) + 0.01 * noise_rng.normal())

        direct = optimize_direct(noisy, np.array([1.7, 0.6]), OptimizerConfig(max_iter=500))
        assert np.linalg.norm(direct.x - target) < 0.05

    def test_iteration_cap_flags_unconverged(self):
        [res] = optimize_quasinewton(rosen, rosen_grad, np.array([[-1.0, 1.0]]),
                                     OptimizerConfig(max_iter=2))
        assert not res.converged
        assert res.iterations == 2

    def test_failed_search_from_identity_is_converged_precision_loss(self):
        # Every trial point is uphill: the first search, from H = I, halves
        # 8 times and stops.  Evaluations: start (1 + gradient cost 5) plus
        # 9 trial rows.
        def fb(X):
            return np.where(np.all(X == 1.0, axis=1), 0.0, 1.0)

        [res] = optimize_quasinewton(fb, lambda X: np.ones_like(X), np.array([[1.0, 1.0]]),
                                     OptimizerConfig(), gradient_evaluations=5)
        assert res.converged and res.iterations == 0
        assert res.evaluations == 1 + 5 + 9
        assert np.all(res.x == 1.0)

    def test_failed_search_from_learned_hessian_resets_to_identity(self):
        # On |x|^2 from (3, 4), the first step along -g lands on (2.4, 3.2).
        # A gradient there that is off by a near-zero curvature pair
        # (y = 1e-4 s) teaches H = 1e4 along s, so the next search fails
        # after 8 halvings.  Resetting H to I and stepping along -g recovers;
        # stopping there instead would keep the bad point as "converged".
        calls = []

        def grad(X):
            calls.append(X.copy())
            if len(calls) == 2:
                return np.array([[6.0, 8.0]]) + 1e-4 * (X - np.array([3.0, 4.0]))
            return 2 * X

        [res] = optimize_quasinewton(lambda X: np.sum(X**2, axis=1), grad,
                                     np.array([[3.0, 4.0]]), OptimizerConfig())
        assert np.allclose(calls[1], [[2.4, 3.2]])
        assert res.converged and res.iterations > 2
        assert np.max(np.abs(res.x)) < 1e-6


class TestGradients:
    @pytest.mark.parametrize("ansatz, n_layers", [(MEAN_FIELD, 1), (THREE_QUBIT, 3)],
                             ids=["mean-field", "three-qubit"])
    def test_adjoint_matches_central_differences(self, ansatz, n_layers, rng):
        def oracle_state(t):
            return layered_state(t, ansatz.n_qubits, n_layers)

        H = rand_hermitian(rng, 2**ansatz.n_qubits, scale=2.0)
        dec = decompose(H)
        grad, cost = EXACT.make_gradient(dec, ansatz)
        assert cost == 1
        thetas = np.array([ansatz.random_parameters(rng) for _ in range(4)])
        h = 1e-5
        for theta, g in zip(thetas, grad(thetas)):
            fd = np.empty(ansatz.n_params)
            for j in range(ansatz.n_params):
                e = np.zeros(ansatz.n_params)
                e[j] = h
                fd[j] = (pauli_sum_expectation(dec.coeffs, oracle_state(theta + e))
                         - pauli_sum_expectation(dec.coeffs, oracle_state(theta - e))) / (2 * h)
            assert np.max(np.abs(g - fd)) <= 1e-8

    def test_parameter_shift_mean_matches_exact_gradient(self):
        dec = decompose(build_s_block(SI, KPoint((0.3, 0.1, -0.2))))
        theta = np.array([[1.1, -0.7]])
        exact, _ = EXACT.make_gradient(dec, MEAN_FIELD)
        backend = ShotsBackend(shots=2048, seed=37)
        shift, cost = backend.make_gradient(dec, MEAN_FIELD)
        assert cost == 4
        draws = np.array([shift(theta)[0] for _ in range(200)])
        assert backend.trial == 200 * cost
        sem = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - exact(theta)[0]) <= 5 * sem)


class TestExactObjective:
    @pytest.mark.parametrize("ansatz, build, n_layers", [
        (THREE_QUBIT, build_full_hamiltonian, 3),
        (MEAN_FIELD, build_s_block, 1),
    ])
    def test_scalar_is_batch_row_and_matches_statevector(self, ansatz, build,
                                                         n_layers, rng):
        H = build(SI, KPoint((0.5, 0.25, 0.0)))
        f, f_batch = EXACT.make_objective(decompose(H), ansatz)
        for _ in range(10):
            theta = ansatz.random_parameters(rng)
            assert f(theta) == f_batch(theta[None])[0]
            psi = layered_state(theta, ansatz.n_qubits, n_layers)
            assert f(theta) == pytest.approx(np.vdot(psi, H @ psi).real, abs=1e-12)


class TestMinimize:
    def test_single_z_ground_state(self):
        res = minimize(SpectralDecomposition(1, {"Z": 1.0}), MEAN_FIELD, EXACT,
                       OptimizerConfig(seed=3))
        assert res.energy == pytest.approx(-1.0, abs=1e-10)
        state = MEAN_FIELD.prepare(res.theta)
        assert abs(state[1]) == pytest.approx(1.0, abs=1e-6)

    def test_s_block_zone_centre(self):
        dec = decompose(build_s_block(SI, GAMMA))
        res = minimize(dec, MEAN_FIELD, EXACT, OptimizerConfig(seed=5))
        assert res.energy == pytest.approx(SI.E_s - abs(SI.V_ss), abs=1e-8)
        assert res.converged

    def test_full_hamiltonian_zone_centre_shifted(self):
        H = build_full_hamiltonian(SI, GAMMA)
        shift = gershgorin_upper_bound(H) + 1.0
        dec = shift_identity(decompose(H), shift)
        res = minimize(dec, THREE_QUBIT, EXACT,
                       OptimizerConfig(seed=2, restarts=20))
        oracle = diagonalize_classical(H)[0] - shift
        assert res.energy == pytest.approx(oracle, abs=1e-3)

    def test_variational_bound(self, rng):
        for _ in range(4):
            H = rand_hermitian(rng, 2, scale=2.0)
            dec = decompose(H)
            res = minimize(dec, MEAN_FIELD, EXACT, OptimizerConfig(seed=11))
            assert res.energy >= np.linalg.eigvalsh(H)[0] - 1e-9

    def test_energy_is_reevaluated_backend_expectation(self):
        dec = decompose(build_s_block(SI, GAMMA))
        res = minimize(dec, MEAN_FIELD, EXACT, OptimizerConfig(seed=1))
        assert res.energy == pytest.approx(
            pauli_sum_expectation(dec.coeffs, layered_state(res.theta, 1, 1)), abs=1e-12
        )

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubits"):
            minimize(SpectralDecomposition(3, {"III": 1.0}), MEAN_FIELD, EXACT)

    def test_restart_traces_recorded(self):
        dec = decompose(build_s_block(SI, GAMMA))
        res = minimize(dec, MEAN_FIELD, EXACT, OptimizerConfig(seed=1, restarts=4))
        assert len(res.restarts) == 4
        assert res.evaluations >= sum(t.evaluations for t in res.restarts)


class TestGridScan:
    def test_single_z_minimum_on_pi_row(self):
        scan = grid_scan(SpectralDecomposition(1, {"Z": 1.0}), 9, 9, EXACT)
        assert scan.argmin[2] == pytest.approx(-1.0)
        assert scan.argmin[0] == pytest.approx(np.pi)

    def test_single_x_surface_closed_form(self):
        scan = grid_scan(SpectralDecomposition(1, {"X": 1.0}), 16, 17, EXACT)
        TH, PH = np.meshgrid(scan.thetas, scan.phis, indexing="ij")
        assert np.max(np.abs(scan.energies - np.sin(TH) * np.cos(PH))) < 1e-12

    def test_phi_independent_when_only_diagonal_words(self):
        scan = grid_scan(SpectralDecomposition(1, {"I": 0.3, "Z": -2.0}), 9, 11,
                         EXACT)
        assert np.max(np.ptp(scan.energies, axis=1)) < 1e-12
        assert np.ptp(scan.energies, axis=0).max() > 1.0  # still varies in θ

    def test_shot_backend_minimum_near_oracle(self):
        k = KPoint((0.125, 0.125, 0.125))
        H = build_s_block(SI, k)
        dec = decompose(H)
        backend = ShotsBackend(shots=8192, seed=21)
        scan = grid_scan(dec, 12, 16, backend)
        oracle = diagonalize_classical(H)[0]
        sigma = np.sqrt(
            sum(c**2 for w, c in dec.coeffs.items() if w != "I") / 8192
        )
        assert abs(scan.argmin[2] - oracle) <= 3 * sigma + 0.05

    def test_argmin_consistent_with_minimize(self):
        k = KPoint((0.3, 0.1, -0.2))
        dec = decompose(build_s_block(SI, k))
        scan = grid_scan(dec, 32, 64, EXACT)
        res = minimize(dec, MEAN_FIELD, EXACT, OptimizerConfig(seed=4))
        step = max(
            np.max(np.abs(np.diff(scan.energies, axis=0))),
            np.max(np.abs(np.diff(scan.energies, axis=1))),
        )
        assert abs(scan.argmin[2] - res.energy) <= step

    def test_shots_scan_is_objective_batch_over_grid_rows(self):
        dec = decompose(build_s_block(SI, KPoint((0.125, 0.125, 0.125))))
        noise = ReadoutNoiseModel.uniform(1, 0.03, 0.06, drift_amplitude=0.02,
                                          drift_period=5)
        scan = grid_scan(dec, 4, 5, ShotsBackend(shots=128, noise=noise,
                                                 mitigate=True, seed=36))
        _, f_batch = ShotsBackend(shots=128, noise=noise, mitigate=True,
                                  seed=36).make_objective(dec, MEAN_FIELD)
        rows = np.array([(th, ph) for th in scan.thetas for ph in scan.phis])
        assert scan.energies.ravel().tolist() == f_batch(rows).tolist()

    def test_rejects_multi_qubit_decomposition(self):
        with pytest.raises(ValueError):
            grid_scan(SpectralDecomposition(3, {"ZII": 1.0}), 4, 4, EXACT)


class TestFullSpectrum:
    def test_diagonal_two_level(self):
        spec = full_spectrum(decompose(np.diag([-3.0, -1.0])), 2, MEAN_FIELD,
                             EXACT, OptimizerConfig(seed=6))
        assert np.allclose(spec.energies, [-3.0, -1.0], atol=1e-7)

    def test_degenerate_levels_reported_with_multiplicity(self):
        spec = full_spectrum(decompose(np.diag([-3.0, -3.0])), 2, MEAN_FIELD,
                             EXACT, OptimizerConfig(seed=6))
        assert np.allclose(spec.energies, [-3.0, -3.0], atol=1e-7)

    def test_random_eight_level_spectrum(self, rng):
        H = rand_hermitian(rng, 8, scale=1.5)
        spec = full_spectrum(decompose(H), 8, THREE_QUBIT, EXACT,
                             OptimizerConfig(seed=7, restarts=8))
        assert np.max(np.abs(spec.energies - np.linalg.eigvalsh(H))) < 1e-2
        assert len(spec.levels) == 8 and len(spec.residuals) == 8
        assert max(spec.residuals) < 1e-4

    def test_zone_centre_p_band_multiplets(self):
        H = build_full_hamiltonian(SI, GAMMA)
        spec = full_spectrum(decompose(H), 8, THREE_QUBIT, EXACT,
                             OptimizerConfig(seed=8, restarts=8))
        assert np.max(np.abs(spec.energies - diagonalize_classical(H))) < 1e-3

    def test_two_band_path_against_oracle(self):
        path = make_kpath(
            [KPoint((1.0, 0, 0)), GAMMA, KPoint((0.5, 0.5, 0.5))], 2
        )
        for k in path.points:
            H = build_s_block(SI, k)
            spec = full_spectrum(decompose(H), 2, MEAN_FIELD, EXACT,
                                 OptimizerConfig(seed=9))
            assert np.max(np.abs(spec.energies - diagonalize_classical(H))) < 1e-6

    def test_shift_covariance(self, rng):
        H = rand_hermitian(rng, 2, scale=2.0)
        dec = decompose(H)
        cfg = OptimizerConfig(seed=10)
        base = full_spectrum(dec, 2, MEAN_FIELD, EXACT, cfg)
        pre_shifted = full_spectrum(shift_identity(dec, 5.0), 2, MEAN_FIELD,
                                    EXACT, cfg)
        assert np.allclose(base.energies, pre_shifted.energies + 5.0, atol=1e-9)

    def test_deflation_step_exposes_next_eigenvalue(self):
        H = build_s_block(SI, KPoint((0.2, 0.2, 0.2)))
        oracle = diagonalize_classical(H)
        shift = gershgorin_upper_bound(H) + 1.0
        work = shift_identity(decompose(H), shift)
        cfg = OptimizerConfig(seed=12)
        res = minimize(work, MEAN_FIELD, EXACT, cfg)
        exps = EXACT.pauli_expectations(MEAN_FIELD.prepare(res.theta))
        deflated = deflate(work, res.energy, exps)
        new_ground = np.linalg.eigvalsh(reconstruct(deflated))[0]
        assert new_ground + shift == pytest.approx(oracle[1], abs=1e-6)

    def test_zero_capture_flagged(self):
        # A positive eigenvalue with the automatic shift suppressed is
        # indistinguishable from a deflated zero and must be refused.
        dec = decompose(np.diag([1.0, -3.0]))
        with pytest.raises(ZeroCaptureError) as err:
            full_spectrum(dec, 2, MEAN_FIELD, EXACT, OptimizerConfig(seed=13),
                          shift=0.0)
        assert err.value.level == 1
        assert err.value.energies_found == pytest.approx([-3.0], abs=1e-7)

    def test_level_count_validated(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(ValueError):
            full_spectrum(dec, 3, MEAN_FIELD, EXACT)


class TestShotsBackendDriver:
    def test_minimize_with_shots_near_oracle(self):
        dec = decompose(build_s_block(SI, GAMMA))
        backend = ShotsBackend(shots=4096, seed=31)
        res = minimize(dec, MEAN_FIELD, backend,
                       OptimizerConfig(method="cobyla", seed=14, restarts=2,
                                       tol_ev=1e-3))
        sigma = np.sqrt(
            sum(c**2 for w, c in dec.coeffs.items() if w != "I") / 4096
        )
        oracle = SI.E_s - abs(SI.V_ss)
        assert abs(res.energy - oracle) <= 4 * sigma

    def test_mitigated_run_with_noise(self):
        dec = decompose(build_s_block(SI, GAMMA))
        noise = ReadoutNoiseModel.uniform(1, 0.05, 0.05)
        backend = ShotsBackend(shots=4096, noise=noise, mitigate=True, seed=32)
        res = minimize(dec, MEAN_FIELD, backend,
                       OptimizerConfig(method="cobyla", seed=15, restarts=2,
                                       tol_ev=1e-3))
        sigma = np.sqrt(
            sum(c**2 for w, c in dec.coeffs.items() if w != "I") / 4096
        ) / 0.9
        assert abs(res.energy - (SI.E_s - abs(SI.V_ss))) <= 4 * sigma

    def test_trial_counter_advances(self):
        backend = ShotsBackend(shots=64, seed=33)
        f, f_batch = backend.make_objective(SpectralDecomposition(1, {"Z": 0.5}),
                                            MEAN_FIELD)
        f(np.array([0.4, 0.0]))
        f(np.array([0.4, 0.0]))
        assert backend.trial == 2
        f_batch(np.zeros((3, 2)))
        assert backend.trial == 5

    @pytest.mark.parametrize("drift, estimates", [(0.0, 1), (0.02, 3)])
    def test_rates_estimated_once_unless_drifting(self, drift, estimates, monkeypatch):
        laws = []
        estimate = sampler.estimate_transition_rates
        monkeypatch.setattr(sampler, "estimate_transition_rates",
                            lambda noise, *rest: laws.append(noise) or estimate(noise, *rest))
        noise = ReadoutNoiseModel.uniform(1, 0.03, 0.06, drift_amplitude=drift,
                                          drift_period=5)
        backend = ShotsBackend(shots=64, noise=noise, mitigate=True, seed=37)
        f, _ = backend.make_objective(SpectralDecomposition(1, {"Z": 0.5}), MEAN_FIELD)
        for _ in range(3):
            f(np.array([0.4, 0.0]))
        assert laws == [noise.at(t) for t in range(estimates)]

    def test_mitigation_tracks_drifting_rates(self):
        # w10 swings hard between successive trials; re-estimated rates must
        # be evaluated at the same tick as the measurement they correct.
        noise = ReadoutNoiseModel.uniform(
            1, w01=0.02, w10=0.1, drift_amplitude=0.08, drift_period=4
        )
        backend = ShotsBackend(shots=20_000, noise=noise, mitigate=True, seed=34)
        f, _ = backend.make_objective(SpectralDecomposition(1, {"Z": 1.0}), MEAN_FIELD)
        one = np.array([np.pi, 0.0])  # |1>
        for _ in range(6):
            assert f(one) == pytest.approx(-1.0, abs=0.05)

    @pytest.mark.parametrize("ansatz, build", [
        (MEAN_FIELD, build_s_block),
        (THREE_QUBIT, build_full_hamiltonian),
    ])
    @pytest.mark.parametrize("noise, mitigate", [
        (None, False),
        ((0.03, 0.06, 0.0, None), True),
        ((0.03, 0.06, 0.02, 5), True),
    ], ids=["noiseless", "mitigated", "mitigated-drift"])
    def test_batch_rows_equal_successive_scalar_calls(self, ansatz, build, noise,
                                                      mitigate, rng):
        dec = decompose(build(SI, KPoint((0.5, 0.25, 0.0))))
        model = ReadoutNoiseModel.uniform(ansatz.n_qubits, *noise) if noise else None

        def fresh():
            return ShotsBackend(shots=256, noise=model, mitigate=mitigate, seed=35)

        scalar, batch = fresh(), fresh()
        f, _ = scalar.make_objective(dec, ansatz)
        _, f_batch = batch.make_objective(dec, ansatz)
        thetas = np.array([ansatz.random_parameters(rng) for _ in range(3)])
        assert f_batch(thetas).tolist() == [f(t) for t in thetas]
        assert scalar.trial == batch.trial == 3
