
import numpy as np
import pytest

from qbands import cli, sampler, vqe
from qbands.pauli import (
    SpectralDecomposition,
    decompose,
    deflate,
    from_json_object,
    gershgorin_upper_bound,
    pauli_words,
    reconstruct,
    shift_identity,
)
from qbands.qsim import MEAN_FIELD, THREE_QUBIT
from qbands.sampler import ReadoutNoiseModel
from qbands.seeding import StreamFamily, spawn_rng, spawn_seed
from qbands.tightbinding import (
    MAX_ENERGY_EV,
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
    _with_defaults,
    full_spectrum,
    grid_scan,
    minimize,
    optimize_direct,
    optimize_quasinewton,
)

from conftest import (bfgs_row, kron_word, layered_state, pauli_sum_expectation,
                      rand_hermitian, rand_state)

SI = TBParameters.default_silicon()
GAMMA = KPoint((0.0, 0.0, 0.0))
EXACT = ExactBackend()


def rosen(X):
    """The Rosenbrock function of each row, in any dimension."""
    return np.sum(100.0 * (X[:, 1:] - X[:, :-1] ** 2) ** 2 + (1 - X[:, :-1]) ** 2, axis=1)


def rosen_grad(X):
    grad = np.zeros_like(X)
    d = X[:, 1:] - X[:, :-1] ** 2
    grad[:, :-1] = -400.0 * X[:, :-1] * d - 2 * (1 - X[:, :-1])
    grad[:, 1:] += 200.0 * d
    return grad


def _deflated_full_hamiltonian(params, k):
    """The 8x8 Hamiltonian after one deflation step, H - E |ψ><ψ| at a random
    state ψ: a dense operator whose 63 non-identity words are all measured."""
    psi = rand_state(np.random.default_rng(8), 8)
    deflated = build_full_hamiltonian(params, k) - 5.0 * np.outer(psi, psi.conj())
    assert len(decompose(deflated).coeffs) == 64
    return deflated


class TestWordOrder:
    """Coefficients and expectations pair up by position, so every array
    holds its words in pauli_words order.  Each word gets its own value,
    checked against the test-local Pauli matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_array_is_in_pauli_words_order(self, n, rng):
        words = pauli_words(n)
        values = np.arange(1.0, 4**n + 1) / 4**n  # distinct, one per word
        H = sum(c * kron_word(w) for w, c in zip(words, values))
        dec = decompose(H)
        assert list(dec.coeffs) == list(words)
        assert np.allclose(list(dec.coeffs.values()), values, atol=1e-14, rtol=0)
        # The coefficient dict's own order does not matter.
        scrambled = SpectralDecomposition(n, dict(reversed(list(zip(words, values)))))
        assert np.allclose(reconstruct(scrambled), H, atol=1e-14)

        state = rand_state(rng, 2**n)
        oracle = np.array([np.vdot(state, kron_word(w) @ state).real for w in words])
        assert np.allclose(EXACT.pauli_expectations(state), oracle, atol=1e-14)

        shots = 1_000_000
        sampled = ShotsBackend(shots=shots, seed=n).pauli_expectations(state)
        sigma = np.sqrt(np.maximum(1 - oracle**2, 1e-12) / shots)
        assert sampled.shape == (4**n,)
        assert np.all(np.abs(sampled - oracle) <= 5 * sigma + 1e-12)

        eps0 = -2.5
        deflated = deflate(scrambled, eps0, oracle)
        assert list(deflated.coeffs) == list(words)
        assert list(deflated.coeffs.values()) == (values - eps0 * oracle / 2**n).tolist()
        rho = np.outer(state, state.conj())
        assert np.allclose(reconstruct(deflated), H - eps0 * rho, atol=1e-13)


class TestOptimizerConfig:
    def test_method_aliases(self):
        # BFGS is the only optimiser: no spelling names a method, the two
        # that once did included.
        for method in ("bfgs", "cobyla", "quasi-newton", "direct", "BFGS", "Cobyla"):
            with pytest.raises(TypeError):
                OptimizerConfig(method=method)

    def test_rejects_unknown_method(self):
        # An optimiser file that still names a method is refused, and the
        # message names the key and the three accepted ones.
        with pytest.raises(ValueError, match='unknown key "method"; the accepted keys are '
                           '"max_iter", "tol_ev", "restarts" '):
            from_json_object(OptimizerConfig, {"method": "bfgs", "restarts": 2})

    def test_rejects_seed_key(self):
        # The master seed roots every stream: an optimiser file's seed, which
        # once replaced it, is an unknown key like any other.
        with pytest.raises(ValueError, match='unknown key "seed"; the accepted keys are '
                           '"max_iter", "tol_ev", "restarts" '):
            from_json_object(OptimizerConfig, {"seed": 0})

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
        {"tol_ev": float("nan")}, {"seed": 0}, {"max_iter": -3},
        {"restarts": np.float64(3.0)}, {"tol_ev": 1j}, {"tol_ev": -1e-6},
    ])
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            OptimizerConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(max_iter=np.int64(5), restarts=np.int32(2))
        assert cfg.max_iter == 5 and cfg.restarts == 2

    def test_from_dict(self):
        cfg = from_json_object(
            OptimizerConfig, {"max_iter": 77, "tol_ev": 1e-5, "restarts": 4}
        )
        assert cfg == OptimizerConfig(max_iter=77, tol_ev=1e-5, restarts=4)

    @pytest.mark.parametrize("data, named", [
        ({"fd_step": 1e-4}, "fd_step"),
        ({"max_iters": 5, "restarts": 1}, "max_iters"),
    ])
    def test_from_dict_names_unknown_keys(self, data, named):
        with pytest.raises(ValueError, match=named):
            from_json_object(OptimizerConfig, data)

    def test_from_dict_skips_comment_keys(self):
        cfg = from_json_object(OptimizerConfig, {"_comment": "fast", "restarts": 2})
        assert cfg == OptimizerConfig(restarts=2)


class TestOptimizers:
    def test_quadratic_both_methods(self):
        cfg = OptimizerConfig(tol_ev=1e-10)
        [bfgs] = optimize_quasinewton(lambda X: (X[:, 0] - 2.0) ** 2,
                                      lambda X: 2 * (X - 2.0), np.array([[0.0]]), cfg)
        calls = []
        direct = optimize_direct(lambda x: calls.append(x) or float((x[0] - 2.0) ** 2),
                                 np.array([0.0]), cfg)
        for res in (bfgs, direct):
            assert res.x[0] == pytest.approx(2.0, abs=1e-6)
            assert res.converged
        assert direct.stop == "cobyla"
        assert direct.evaluations == direct.iterations == len(calls) > 0

    def test_rosenbrock_quasinewton(self):
        [res] = optimize_quasinewton(rosen, rosen_grad, np.array([[-1.0, 1.0]]),
                                     OptimizerConfig())
        assert res.energy < 1e-6
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
            assert a.x.tolist() == b.x.tolist()
            assert (a.energy, a.evaluations, a.iterations, a.converged) == \
                (b.energy, b.evaluations, b.iterations, b.converged)

    def test_exact_backend_rows_match_solo_runs(self, rng):
        dec = decompose(build_full_hamiltonian(SI, KPoint((0.5, 0.25, 0.0))))
        _, f_batch = EXACT.make_objective(dec, THREE_QUBIT)
        grad, cost = EXACT.make_gradient(dec, THREE_QUBIT)
        x0 = np.array([THREE_QUBIT.random_parameters(rng) for _ in range(4)])
        cfg = OptimizerConfig(max_iter=60)
        together = optimize_quasinewton(f_batch, grad, x0, cfg, cost)
        for x, a in zip(x0, together):
            [b] = optimize_quasinewton(f_batch, grad, x[None], cfg, cost)
            assert a.x.tolist() == b.x.tolist()
            assert (a.energy, a.evaluations, a.iterations, a.converged) == \
                (b.energy, b.evaluations, b.iterations, b.converged)

    # Row kinds of the mixed-fate batch below.  A row is (u, kind): its energy
    # and gradient depend on u alone, per kind, and the kind coordinate has a
    # zero gradient, so it never moves.
    ACCEPT, HALVE, LEARNED, IDENTITY, UPHILL = range(5)

    @staticmethod
    def _fate_row(u, kind):
        """(f, df/du) of one row of the mixed-fate batch."""
        cls = TestOptimizers
        if kind == cls.ACCEPT:  # u^2 from 3: two unit trials, the second Newton's
            return u * u, 2 * u
        if kind == cls.HALVE:  # 50 u^2 from 1e-3: the unit trial overshoots
            return 50 * u * u, 100 * u
        if kind == cls.LEARNED:
            # u^2, but the gradient at u = 4 is off by a near-zero curvature
            # pair (y = 1e-4 s): the learned H = 1e4 makes the next search fail.
            return u * u, (10 + 1e-4 * (u - 5) if 3.5 < u < 4.5 else 2 * u)
        if kind == cls.IDENTITY:  # every trial from u = 1 is uphill
            return (0.0 if u == 1 else 1.0), 1.0
        # UPHILL, from u = 0: curvature 1/2 teaches H = 2, then curvature 2^66
        # cancels it to exactly 0, so the next direction -H g is 0 and its
        # slope 0: H is reset and the row steps along -g, halving twice.
        f = {0.0: 3.0, 0.5: 2.0, 1.0: 1.0}.get(u, -1e17)
        g = {0.0: -0.5, 0.5: -0.25, 1.0: 2.0**65}.get(u, 0.0)
        return f, g

    def test_rows_with_different_fates_match_solo_runs(self):
        # In the same rounds, rows accept their first trial, halve, fail from
        # a learned H, fail from the identity, and reset after an uphill
        # direction; each row's path is still the one it takes alone.
        trials = {kind: [] for kind in range(5)}

        def fb(X):
            for u, kind in X:
                trials[int(kind)].append(u)
            return np.array([self._fate_row(u, kind)[0] for u, kind in X])

        def gb(X):
            return np.array([[self._fate_row(u, kind)[1], 0.0] for u, kind in X])

        x0 = np.array([[3.0, self.ACCEPT], [1e-3, self.HALVE], [5.0, self.LEARNED],
                       [1.0, self.IDENTITY], [0.0, self.UPHILL]])
        together = optimize_quasinewton(fb, gb, x0, OptimizerConfig(), gradient_evaluations=3)
        seen = {kind: values[1:] for kind, values in trials.items()}  # [0]: the start
        for x, a in zip(x0, together):
            [b] = optimize_quasinewton(fb, gb, x[None], OptimizerConfig(), gradient_evaluations=3)
            assert a.x.tolist() == b.x.tolist()
            assert (a.energy, a.evaluations, a.iterations, a.converged) == \
                (b.energy, b.evaluations, b.iterations, b.converged)
            assert a.converged and a.x[1] == x[1]

        accept, halve, learned, identity, uphill = together
        # Two iterations of one trial and one gradient (cost 3) each.
        assert (accept.iterations, accept.evaluations) == (2, 1 + 3 + 2 * (1 + 3))
        # The first search halves 6 times before its step is accepted.
        assert seen[self.HALVE][:7] == [1e-3 - 0.1 * 0.5**k for k in range(7)]
        # The second search, along -H g with the learned H, fails all 9 trials
        # far from u = 4; the retry along -g from u = 4 is accepted near 3.
        assert seen[self.LEARNED][0] == pytest.approx(4.0)
        assert max(seen[self.LEARNED][1:10]) < -300
        assert seen[self.LEARNED][10] == pytest.approx(3.0, abs=1e-3)
        # Precision loss: 9 failed trials from the identity, no iteration.
        assert (identity.iterations, identity.evaluations) == (0, 1 + 3 + 9)
        assert seen[self.UPHILL] == [0.5, 1.0, 0.0, 0.5, 0.75]
        assert uphill.iterations == 3 and halve.iterations >= 2 and learned.iterations >= 3

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

    def test_flat_valley_curvature_updates_hessian(self):
        # On 1e-5 |x|^2 / 2 the first step along -g has y.s = 1e-5 |s|^2,
        # about 2e-15: tiny but exact, with y parallel to s.  Using the pair
        # makes the next step Newton's; dropping it for its absolute size
        # leaves H = I, which shrinks x by 1e-5 per step.
        a = 1e-5
        [res] = optimize_quasinewton(lambda X: 0.5 * a * np.sum(X**2, axis=1),
                                     lambda X: a * X, np.array([[1.0, 1.0]]),
                                     OptimizerConfig())
        assert res.converged and res.iterations <= 3
        assert np.max(np.abs(res.x)) < 0.1


def _row_noise(X, sigma, salt, shape=()):
    """Gaussian values of sd ``sigma``, each a pure function of its row's
    bytes, so a row gets the same value in any batch."""
    return sigma * np.array([
        np.random.default_rng([salt, *np.ascontiguousarray(row).view(np.uint32)])
        .standard_normal(shape) for row in X])


class TestAgainstOneRowOracle:
    """Every lock-step row equals `conftest.bfgs_row` run alone, to the bit:
    the same point, energy, evaluations, iterations and stop."""

    @staticmethod
    def assert_rows_match(f_batch, grad_batch, x0, config, gradient_evaluations=1,
                          energy_noise=0.0):
        results = optimize_quasinewton(f_batch, grad_batch, x0, config, gradient_evaluations,
                                       energy_noise=energy_noise)
        for res, x in zip(results, x0):
            ox, energy, evaluations, iterations, stop = bfgs_row(
                lambda v: float(f_batch(v[None])[0]), lambda v: grad_batch(v[None])[0], x,
                config.max_iter or 200, config.tol_ev, gradient_evaluations, energy_noise)
            assert res.x.tobytes() == ox.tobytes()
            assert (res.energy, res.evaluations, res.iterations, res.stop) == \
                (energy, evaluations, iterations, stop)
            assert res.converged == (stop != "max_iter")
        return results

    @pytest.mark.parametrize("label, k_index", [("L", 0), ("G", 1)])
    def test_exact_three_qubit_first_level(self, label, k_index):
        # Level 1 of `bands --mode 8band --kpath L,G:1 --seed 1` at this
        # k-point: the operator full_spectrum minimises first, and the
        # restarts the CLI's seed fan-out draws for it.
        H = build_full_hamiltonian(SI, KPoint.high_symmetry(label))
        work = shift_identity(decompose(H), gershgorin_upper_bound(H) + 1.0)
        seed = spawn_seed(spawn_seed(1, cli._STREAM_OPT, k_index), vqe._STREAM_LEVEL, 0)
        config = _with_defaults(OptimizerConfig(), THREE_QUBIT, EXACT)
        x0 = np.array([THREE_QUBIT.random_parameters(spawn_rng(seed, vqe._STREAM_RESTART, r))
                       for r in range(config.restarts)])
        _, f_batch = EXACT.make_objective(work, THREE_QUBIT)
        grad, cost = EXACT.make_gradient(work, THREE_QUBIT)
        results = self.assert_rows_match(f_batch, grad, x0, config, cost)
        assert all(r.converged for r in results)

    def test_rosenbrock_18_parameters_in_3_rows(self):
        x0 = np.random.default_rng(18).uniform(-2, 2, size=(3, 18))
        results = self.assert_rows_match(rosen, rosen_grad, x0, OptimizerConfig())
        assert sum(r.iterations for r in results) > 100

    def test_noisy_quadratic_with_noise_rules(self):
        sigma = 1e-2

        def f_batch(X):
            return 0.5 * np.sum(X**2, axis=1) + _row_noise(X, sigma, 0)

        def grad_batch(X):
            return X + _row_noise(X, sigma / np.sqrt(2), 1, X.shape[1:])

        x0 = np.random.default_rng(3).uniform(-2, 2, size=(4, 3))
        results = self.assert_rows_match(f_batch, grad_batch, x0, OptimizerConfig(), 6,
                                         energy_noise=sigma)
        assert {r.stop for r in results} <= {"noise", "precision"}


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
        _, f_batch = EXACT.make_objective(dec, ansatz)
        thetas = np.array([ansatz.random_parameters(rng) for _ in range(4)])
        f_batch(thetas + 0.5)
        rebuilt = grad(thetas)  # the ansatz's last forward pass is at other rows
        f_batch(thetas)
        reused = grad(thetas)  # the objective's forward pass at these rows
        h = 1e-5
        for theta, g in zip(np.concatenate([thetas, thetas]),
                            np.concatenate([rebuilt, reused])):
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
                       seed=3)
        assert res.energy == pytest.approx(-1.0, abs=1e-10)
        state = MEAN_FIELD.prepare(res.theta)
        assert abs(state[1]) == pytest.approx(1.0, abs=1e-6)

    def test_s_block_zone_centre(self):
        dec = decompose(build_s_block(SI, GAMMA))
        res = minimize(dec, MEAN_FIELD, EXACT, seed=5)
        assert res.energy == pytest.approx(SI.E_s - abs(SI.V_ss), abs=1e-8)
        assert res.converged

    def test_full_hamiltonian_zone_centre_shifted(self):
        H = build_full_hamiltonian(SI, GAMMA)
        shift = gershgorin_upper_bound(H) + 1.0
        dec = shift_identity(decompose(H), shift)
        res = minimize(dec, THREE_QUBIT, EXACT,
                       OptimizerConfig(restarts=20), seed=2)
        oracle = diagonalize_classical(H)[0] - shift
        assert res.energy == pytest.approx(oracle, abs=1e-3)

    def test_variational_bound(self, rng):
        for _ in range(4):
            H = rand_hermitian(rng, 2, scale=2.0)
            dec = decompose(H)
            res = minimize(dec, MEAN_FIELD, EXACT, seed=11)
            assert res.energy >= np.linalg.eigvalsh(H)[0] - 1e-9

    def test_energy_is_reevaluated_backend_expectation(self):
        dec = decompose(build_s_block(SI, GAMMA))
        res = minimize(dec, MEAN_FIELD, EXACT, seed=1)
        assert res.energy == pytest.approx(
            pauli_sum_expectation(dec.coeffs, layered_state(res.theta, 1, 1)), abs=1e-12
        )

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubits"):
            minimize(SpectralDecomposition(3, {"III": 1.0}), MEAN_FIELD, EXACT)

    def test_non_finite_energy_is_never_converged(self):
        # Every energy is NaN, so every line search fails from the identity:
        # a "precision" stop, which alone would count as converged.
        res = minimize(SpectralDecomposition(1, {"Z": float("nan")}), MEAN_FIELD, EXACT,
                       seed=1)
        assert np.isnan(res.energy)
        assert [r.stop for r in res.restarts] == ["precision"] * 2
        assert not res.converged

    def test_restart_traces_recorded(self):
        dec = decompose(build_s_block(SI, GAMMA))
        res = minimize(dec, MEAN_FIELD, EXACT, OptimizerConfig(restarts=4), seed=1)
        assert len(res.restarts) == 4
        assert res.evaluations >= sum(t.evaluations for t in res.restarts)

    def test_defaults_per_ansatz_and_backend(self):
        shots = ShotsBackend(shots=64)

        def defaults(ansatz, backend):
            config = _with_defaults(OptimizerConfig(), ansatz, backend)
            return config.restarts, config.max_iter

        assert defaults(THREE_QUBIT, EXACT) == (1, 1000)
        assert defaults(THREE_QUBIT, shots) == (20, None)
        assert defaults(MEAN_FIELD, EXACT) == (2, None)
        assert defaults(MEAN_FIELD, shots) == (3, None)
        explicit = OptimizerConfig(restarts=5, max_iter=7)
        assert _with_defaults(explicit, THREE_QUBIT, EXACT) == explicit
        res = minimize(decompose(build_s_block(SI, GAMMA)), MEAN_FIELD, EXACT)
        assert len(res.restarts) == 2


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
        res = minimize(dec, MEAN_FIELD, EXACT, seed=4)
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
                             EXACT, seed=6)
        assert np.allclose(spec.energies, [-3.0, -1.0], atol=1e-7)
        assert spec.failure is None and spec.rejected == ()

    def test_degenerate_levels_reported_with_multiplicity(self):
        spec = full_spectrum(decompose(np.diag([-3.0, -3.0])), 2, MEAN_FIELD,
                             EXACT, seed=6)
        assert np.allclose(spec.energies, [-3.0, -3.0], atol=1e-7)

    def test_random_eight_level_spectrum(self, rng):
        H = rand_hermitian(rng, 8, scale=1.5)
        spec = full_spectrum(decompose(H), 8, THREE_QUBIT, EXACT,
                             OptimizerConfig(restarts=8), seed=7)
        assert np.max(np.abs(spec.energies - np.linalg.eigvalsh(H))) < 1e-2
        assert len(spec.levels) == 8 and len(spec.residuals) == 8
        assert max(spec.residuals) < 1e-4

    @pytest.mark.parametrize("k", [GAMMA, KPoint((0.5, 0.5, 0.5))], ids=["G", "L"])
    def test_default_restarts_recover_eight_bands(self, k):
        H = build_full_hamiltonian(SI, k)
        spec = full_spectrum(decompose(H), 8, THREE_QUBIT, EXACT, OptimizerConfig())
        # 1 restart, or 2 for a level solved once more (see the retry tests).
        assert all(len(level.restarts) in (1, 2) for level in spec.levels)
        assert all(level.converged for level in spec.levels)
        assert np.max(np.abs(spec.energies - np.linalg.eigvalsh(H))) <= 1e-5

    def _first_level(self, tol, monkeypatch):
        """Γ's first 8-band level at 1 restart under RESIDUAL_TOL = ``tol``, and
        the operator it minimised."""
        monkeypatch.setattr(vqe, "RESIDUAL_TOL", tol)
        dec = decompose(build_full_hamiltonian(SI, GAMMA))
        config = OptimizerConfig(restarts=1)
        spec = full_spectrum(dec, 1, THREE_QUBIT, EXACT, config, seed=5)
        work = shift_identity(dec, spec.shift)
        return spec, work, config

    def test_level_above_residual_bound_is_solved_once_more(self, monkeypatch):
        base, work, config = self._first_level(vqe.RESIDUAL_TOL, monkeypatch)
        residual = base.residuals[0]
        assert 0 < residual <= vqe.RESIDUAL_TOL and len(base.levels[0].restarts) == 1
        below, _, _ = self._first_level(2 * residual, monkeypatch)
        assert below.levels[0].evaluations == base.levels[0].evaluations
        assert len(below.levels[0].restarts) == 1
        above, _, _ = self._first_level(residual / 2, monkeypatch)
        first = minimize(work, THREE_QUBIT, EXACT, config, spawn_seed(5, vqe._STREAM_LEVEL, 0))
        retry = minimize(work, THREE_QUBIT, EXACT, config,
                         spawn_seed(5, vqe._STREAM_LEVEL, 0, 1))
        level = above.levels[0]
        assert level.theta.tolist() == retry.theta.tolist()
        assert level.evaluations == first.evaluations + retry.evaluations
        assert [(r.energy, r.evaluations) for r in level.restarts] \
            == [(r.energy, r.evaluations) for r in first.restarts + retry.restarts]

    def test_residual_retry_runs_once_and_keeps_a_miss_unconverged(self, monkeypatch):
        # No residual meets a zero bound: every level is solved twice, not
        # more, and written unconverged although BFGS converged.
        spec, _, _ = self._first_level(0.0, monkeypatch)
        assert len(spec.levels[0].restarts) == 2
        assert spec.levels[0].restarts[1].converged
        assert not spec.levels[0].converged

    def test_shots_level_is_never_retried_for_its_residual(self, monkeypatch):
        dec = decompose(build_s_block(SI, GAMMA))
        config = OptimizerConfig(restarts=1)

        def solve():
            return full_spectrum(dec, 2, MEAN_FIELD, ShotsBackend(shots=256, seed=7), config,
                                 seed=6)

        base = solve()
        monkeypatch.setattr(vqe, "RESIDUAL_TOL", 0.0)
        spec = solve()
        assert min(spec.residuals) > 0
        assert [len(level.restarts) for level in spec.levels] == [1, 1]
        assert [level.converged for level in spec.levels] \
            == [level.converged for level in base.levels]
        assert spec.energies.tolist() == base.energies.tolist()

    def test_zone_centre_p_band_multiplets(self):
        H = build_full_hamiltonian(SI, GAMMA)
        spec = full_spectrum(decompose(H), 8, THREE_QUBIT, EXACT,
                             OptimizerConfig(restarts=8), seed=8)
        assert np.max(np.abs(spec.energies - diagonalize_classical(H))) < 1e-3

    def test_two_band_path_against_oracle(self):
        path = make_kpath(
            [KPoint((1.0, 0, 0)), GAMMA, KPoint((0.5, 0.5, 0.5))], 2
        )
        for k in path.points:
            H = build_s_block(SI, k)
            spec = full_spectrum(decompose(H), 2, MEAN_FIELD, EXACT,
                                 seed=9)
            assert np.max(np.abs(spec.energies - diagonalize_classical(H))) < 1e-6

    def test_shift_covariance(self, rng):
        H = rand_hermitian(rng, 2, scale=2.0)
        dec = decompose(H)
        base = full_spectrum(dec, 2, MEAN_FIELD, EXACT, seed=10)
        pre_shifted = full_spectrum(shift_identity(dec, 5.0), 2, MEAN_FIELD,
                                    EXACT, seed=10)
        assert np.allclose(base.energies, pre_shifted.energies + 5.0, atol=1e-9)

    def test_deflation_step_exposes_next_eigenvalue(self):
        H = build_s_block(SI, KPoint((0.2, 0.2, 0.2)))
        oracle = diagonalize_classical(H)
        shift = gershgorin_upper_bound(H) + 1.0
        work = shift_identity(decompose(H), shift)
        res = minimize(work, MEAN_FIELD, EXACT, seed=12)
        exps = EXACT.pauli_expectations(MEAN_FIELD.prepare(res.theta))
        deflated = deflate(work, res.energy, exps)
        new_ground = np.linalg.eigvalsh(reconstruct(deflated))[0]
        assert new_ground + shift == pytest.approx(oracle[1], abs=1e-6)

    def test_zero_capture_flagged(self):
        # A positive eigenvalue with the automatic shift suppressed is
        # indistinguishable from a deflated zero and must be refused: the
        # result keeps the level before it and the rejected retry.
        dec = decompose(np.diag([1.0, -3.0]))
        spec = full_spectrum(dec, 2, MEAN_FIELD, EXACT, seed=13, shift=0.0)
        assert spec.failure.startswith("deflation level 2 converged to ")
        assert spec.energies == pytest.approx([-3.0], abs=1e-7)
        assert len(spec.residuals) == 1
        [rejected] = spec.rejected
        assert rejected.energy > -vqe.ZERO_CAPTURE_TOL
        assert len(rejected.restarts) == 4  # 2 restarts, and 2 more on the retry

    def test_ill_posed_deflation_keeps_the_levels_found(self):
        # IIZ measures qubit 1 alone, so the first level is solved under
        # well-posed rates; its deflation measures every word, qubit 3's
        # too, whose estimated rates (0.6/0.6 injected) are ill-posed.
        dec = decompose(np.diag([-1.0, 1.0] * 4))
        assert list(dec.coeffs) == ["IIZ"]
        noise = ReadoutNoiseModel((0.0, 0.0, 0.6), (0.0, 0.0, 0.6))
        backend = ShotsBackend(shots=256, noise=noise, mitigate=True, seed=1)
        spec = full_spectrum(dec, 8, THREE_QUBIT, backend, OptimizerConfig(restarts=2), seed=2)
        assert spec.failure == "mitigation ill-posed: w01 + w10 >= 1 on some qubit"
        assert len(spec.levels) == len(spec.residuals) == 1
        assert spec.rejected == ()
        # 4σ of one 256-shot estimate of a ±1 word
        assert spec.energies == pytest.approx([-1.0], abs=4 / 16)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, backend", [
        ("2band", EXACT),
        ("2band", ShotsBackend(shots=256, noise=ReadoutNoiseModel.uniform(1, 0.05, 0.08),
                               mitigate=True, seed=3)),
        ("8band", EXACT),
    ], ids=["2band-exact", "2band-mitigated-shots", "8band-exact"])
    def test_energies_at_the_tight_binding_cap_stay_finite(self, mode, backend):
        # Silicon's signs, every energy at ±MAX_ENERGY_EV: no operation
        # overflows, and every level and residual is finite.
        cap = MAX_ENERGY_EV
        params = TBParameters(5.431, -cap, cap, -cap, cap, cap, cap)
        build, ansatz = ((build_s_block, MEAN_FIELD) if mode == "2band"
                         else (build_full_hamiltonian, THREE_QUBIT))
        H = build(params, KPoint((0.5, 0.5, 0.5)))
        spec = full_spectrum(decompose(H), len(H), ansatz, backend, seed=1)
        assert spec.failure is None
        assert np.isfinite(spec.energies).all() and np.isfinite(spec.residuals).all()

    def test_level_count_validated(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(ValueError):
            full_spectrum(dec, 3, MEAN_FIELD, EXACT)


class TestShotsBackendDriver:
    def test_minimize_with_shots_near_oracle(self):
        dec = decompose(build_s_block(SI, GAMMA))
        backend = ShotsBackend(shots=4096, seed=31)
        res = minimize(dec, MEAN_FIELD, backend,
                       OptimizerConfig(restarts=2, tol_ev=1e-3), seed=14)
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
                       OptimizerConfig(restarts=2, tol_ev=1e-3), seed=15)
        sigma = np.sqrt(
            sum(c**2 for w, c in dec.coeffs.items() if w != "I") / 4096
        ) / 0.9
        assert abs(res.energy - (SI.E_s - abs(SI.V_ss))) <= 4 * sigma

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_backend_refuses_a_seed_that_is_not_an_integer(self, seed):
        # Not rounded to seed 1: `seeding` refuses the master of the
        # backend's word streams.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ShotsBackend(shots=64, seed=seed)

    @pytest.mark.parametrize("solve", [
        lambda dec, backend: minimize(dec, MEAN_FIELD, backend, seed=-1),
        lambda dec, backend: full_spectrum(dec, 2, MEAN_FIELD, backend, seed=1.0),
    ], ids=["minimize", "full_spectrum"])
    def test_bad_seed_raises_before_any_evaluation(self, solve):
        backend = ShotsBackend(shots=64, seed=1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            solve(decompose(build_s_block(SI, GAMMA)), backend)
        assert backend.trial == 0

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
        # A static law is estimated once, under its law at trial 0; a drifting
        # law once per row, under the row's own law.
        laws = []
        estimate = sampler.estimate_transition_rates
        monkeypatch.setattr(sampler, "estimate_transition_rates", lambda confusion, *rest:
                            laws.append(confusion.tolist()) or estimate(confusion, *rest))
        noise = ReadoutNoiseModel.uniform(1, 0.03, 0.06, drift_amplitude=drift,
                                          drift_period=5)
        backend = ShotsBackend(shots=64, noise=noise, mitigate=True, seed=37)
        f, _ = backend.make_objective(SpectralDecomposition(1, {"Z": 0.5}), MEAN_FIELD)
        for _ in range(3):
            f(np.array([0.4, 0.0]))
        assert laws == [sampler.confusion(noise.laws([t])).tolist() for t in range(estimates)]

    @pytest.mark.parametrize("drift", [0.0, 0.02])
    def test_batch_is_one_sampler_call_under_its_row_laws(self, drift, monkeypatch):
        # Static or drifting, a batch of B rows is one sampled_expectation
        # call and at most one rate estimate, under one law or a stack of
        # one law per row, and builds no noise model per row.
        calls, built = [], []
        # (function, position of its confusion stack): recorded with the stack's shape.
        for name, at in (("estimate_transition_rates", 0), ("sampled_expectation", 3)):
            def counted(*args, _name=name, _at=at, _f=getattr(sampler, name), **kwargs):
                calls.append((_name, np.shape(args[_at])))
                return _f(*args, **kwargs)

            monkeypatch.setattr(sampler, name, counted)
        noise = ReadoutNoiseModel.uniform(1, 0.03, 0.06, drift_amplitude=drift,
                                          drift_period=5)
        post_init = ReadoutNoiseModel.__post_init__
        monkeypatch.setattr(ReadoutNoiseModel, "__post_init__",
                            lambda model: built.append(model) or post_init(model))
        backend = ShotsBackend(shots=64, noise=noise, mitigate=True, seed=42)
        _, f_batch = backend.make_objective(decompose(build_s_block(SI, GAMMA)), MEAN_FIELD)
        for first in (0, 5):
            calls.clear()
            f_batch(np.zeros((5, 2)))
            stack = (5 if drift else 1, 2, 2)
            estimates = [("estimate_transition_rates", stack)] if drift or not first else []
            assert calls == estimates + [("sampled_expectation", stack)]
        assert built == []

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
        (THREE_QUBIT, _deflated_full_hamiltonian),
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

        # One lock-step parameter-shift gradient: 2·d rows per restart.
        rows = 2 * ansatz.n_params * _with_defaults(OptimizerConfig(), ansatz,
                                                    fresh()).restarts
        scalar, batch = fresh(), fresh()
        f, _ = scalar.make_objective(dec, ansatz)
        _, f_batch = batch.make_objective(dec, ansatz)
        thetas = np.array([ansatz.random_parameters(rng) for _ in range(rows)])
        assert f_batch(thetas).tolist() == [f(t) for t in thetas]
        assert scalar.trial == batch.trial == rows

    @pytest.mark.parametrize("noise, mitigate", [
        (None, False),
        ((0.03, 0.06, 0.0, None), True),
        ((0.03, 0.06, 0.02, 5), True),
    ], ids=["noiseless", "mitigated", "mitigated-drift"])
    def test_batch_spawns_one_word_stream_per_row(self, noise, mitigate, monkeypatch):
        # Every word of a row draws from the row's one counter stream: B word
        # streams per batch of B rows (not B x words), keyed by trial, all from
        # the one word-stream family the backend builds; rate estimates keep
        # their own spawned streams.
        families, words, rates = [], [], []

        class RecordedFamily(StreamFamily):
            def __init__(self, *path):
                families.append(path)
                super().__init__(*path)

            def stream(self, t):
                words.append((*self.path, t))
                return super().stream(t)

        monkeypatch.setattr(vqe, "StreamFamily", RecordedFamily)
        monkeypatch.setattr(vqe, "spawn_rng",
                            lambda *path: rates.append(path) or spawn_rng(*path))
        model = ReadoutNoiseModel.uniform(3, *noise) if noise else None
        backend = ShotsBackend(shots=64, noise=model, mitigate=mitigate, seed=36)
        _, f_batch = backend.make_objective(
            decompose(_deflated_full_hamiltonian(SI, KPoint((0.5, 0.25, 0.0)))),
            THREE_QUBIT)
        for first in (0, 5):
            words.clear()
            rates.clear()
            f_batch(np.zeros((5, THREE_QUBIT.n_params)))
            assert words == [(36, vqe._STREAM_WORDS, t) for t in range(first, first + 5)]
            # Static rates are estimated once, at the first trial; drifting
            # rates at every row.
            trials = ([] if not mitigate else range(first, first + 5)
                      if model.drift_amplitude else [0] if first == 0 else [])
            assert rates == [(36, vqe._STREAM_RATES, t) for t in trials]
        assert families == [(36, vqe._STREAM_WORDS)]

    @pytest.mark.parametrize("noise, mitigate", [
        ((0.03, 0.06, 0.0, None), False),
        ((0.03, 0.06, 0.02, 5), True),
    ], ids=["static", "mitigated-drift"])
    @pytest.mark.parametrize("t", [0, 3, 6])
    def test_fresh_backend_at_trial_t_replays_row_t(self, noise, mitigate, t, rng):
        # Row t's value depends only on (seed, t): a backend whose counter
        # starts at t evaluates it alone, bit for bit.
        model = ReadoutNoiseModel.uniform(3, *noise)
        dec = decompose(_deflated_full_hamiltonian(SI, KPoint((0.5, 0.25, 0.0))))
        thetas = np.array([THREE_QUBIT.random_parameters(rng) for _ in range(7)])

        def fresh(trial):
            backend = ShotsBackend(shots=128, noise=model, mitigate=mitigate, seed=39)
            backend.trial = trial
            return backend.make_objective(dec, THREE_QUBIT)

        _, f_batch = fresh(0)
        f, _ = fresh(t)
        assert f(thetas[t]) == f_batch(thetas)[t]

    def test_identity_only_operator_estimates_rates_at_first_trial(self, monkeypatch):
        # Nothing is sampled for "I", yet the static rates are estimated at
        # the batch's first trial, as for any other operator.
        laws = []
        estimate = sampler.estimate_transition_rates
        monkeypatch.setattr(sampler, "estimate_transition_rates", lambda confusion, *rest:
                            laws.append(confusion.tolist()) or estimate(confusion, *rest))
        noise = ReadoutNoiseModel.uniform(1, 0.03, 0.06)
        backend = ShotsBackend(shots=64, noise=noise, mitigate=True, seed=40)
        _, f_batch = backend.make_objective(SpectralDecomposition(1, {"I": 0.7}), MEAN_FIELD)
        assert f_batch(np.zeros((3, 2))).tolist() == [0.7, 0.7, 0.7]
        assert laws == [sampler.confusion(noise.laws([0])).tolist()]
        assert backend.trial == 3

    def test_ill_posed_rates_raise(self):
        noise = ReadoutNoiseModel.uniform(1, 0.6, 0.5)
        backend = ShotsBackend(shots=64, noise=noise, mitigate=True, seed=41)
        f, _ = backend.make_objective(SpectralDecomposition(1, {"Z": 0.5}), MEAN_FIELD)
        with pytest.raises(ValueError, match="ill-posed"):
            f(np.array([0.4, 0.0]))

    def test_shots_objective_of_zero_operator_is_zero(self):
        backend = ShotsBackend(shots=64, seed=38)
        f, f_batch = backend.make_objective(SpectralDecomposition(1, {}), MEAN_FIELD)
        assert f_batch(np.zeros((3, 2))).tolist() == [0.0, 0.0, 0.0]
        assert f(np.zeros(2)) == 0.0


def _noisy_quadratic(sigma, seed=7):
    """(f_batch, grad_batch) of |x|^2 / 2 with Gaussian noise: sd ``sigma``
    on each energy row and sigma/√2 on each gradient component, as on a
    parameter-shift gradient of such energies."""
    rng = np.random.default_rng(seed)

    def fb(X):
        return 0.5 * np.sum(X**2, axis=1) + sigma * rng.standard_normal(len(X))

    def gb(X):
        return X + sigma / np.sqrt(2) * rng.standard_normal(X.shape)

    return fb, gb


class TestEnergyNoiseBound:
    NOISE_1Q = ReadoutNoiseModel.uniform(1, 0.05, 0.08)
    NOISE_3Q = ReadoutNoiseModel.uniform(3, 0.05, 0.08)

    @pytest.mark.parametrize("ansatz, build, k, noise", [
        (MEAN_FIELD, build_s_block, KPoint((0.2, 0.2, 0.2)), NOISE_1Q),
        (THREE_QUBIT, build_full_hamiltonian, KPoint.high_symmetry("X"), NOISE_3Q),
        (THREE_QUBIT, build_full_hamiltonian, KPoint.high_symmetry("X"), None),
    ], ids=["mean-field-mitigated", "three-qubit-mitigated", "three-qubit-plain"])
    def test_bound_covers_energy_and_gradient_spread(self, ansatz, build, k, noise):
        # 800 energy rows and 800 gradient rows at one θ, each row its own
        # stream: the spread of Ê and of every ĝ_j stays within the bounds
        # σ̄_E and σ̄_E/√2 (the sample std reads 0.59-1.01 of them here).
        dec = decompose(build(SI, k))
        backend = ShotsBackend(shots=1024, noise=noise, mitigate=noise is not None, seed=3)
        bound = backend.energy_noise(dec)
        _, f_batch = backend.make_objective(dec, ansatz)
        grad_batch, _ = backend.make_gradient(dec, ansatz)
        rows = np.repeat(ansatz.random_parameters(np.random.default_rng(0))[None], 800, 0)
        assert np.std(f_batch(rows), ddof=1) <= 1.1 * bound
        assert np.all(np.std(grad_batch(rows), axis=0, ddof=1) <= 1.1 * bound / np.sqrt(2))

    def test_closed_forms(self):
        dec = decompose(build_s_block(SI, KPoint((0.2, 0.2, 0.2))))
        c2 = sum(c**2 for w, c in dec.coeffs.items() if w != "I")
        assert ExactBackend().energy_noise(dec) == 0.0
        assert ShotsBackend(shots=512).energy_noise(dec) == pytest.approx(np.sqrt(c2 / 512))
        # Mitigated: every measured one-qubit word reads Z, whose weights are
        # (±1 - p⁻) / (1 - p⁺) under the rate estimate the backend corrects with.
        backend = ShotsBackend(shots=512, noise=self.NOISE_1Q, mitigate=True, seed=4)
        bound = backend.energy_noise(dec)
        # The backend's estimate: under the trial-0 law, from the trial-0 rate stream.
        [[[w01], [w10]]] = sampler.estimate_transition_rates(
            sampler.confusion(self.NOISE_1Q.laws([0])), 1, vqe.RATE_TRIALS,
            lambda b: spawn_rng(4, vqe._STREAM_RATES, 0))
        pm, pp = w10 - w01, w10 + w01
        v = ((1 + abs(pm)) / (1 - pp)) ** 2
        assert bound == pytest.approx(np.sqrt(c2 * v / 512))
        assert ShotsBackend(shots=512).energy_noise(SpectralDecomposition(1, {"I": 2.0})) == 0.0

    @pytest.mark.parametrize("drift", [0.0, 0.02])
    def test_bound_draws_nothing_the_rows_do_not(self, drift, monkeypatch):
        # The bound uses the rate estimate of the next trial, under that
        # trial's law and from the stream the row at that trial estimates
        # from: every energy is the one the backend makes without the bound,
        # and the bound draws from no rate stream the rows do not.  A static
        # law's one estimate serves both.
        dec = decompose(build_s_block(SI, GAMMA))
        noise = ReadoutNoiseModel.uniform(1, 0.03, 0.06, drift_amplitude=drift,
                                          drift_period=5)
        rows = np.random.default_rng(2).uniform(0, 3, size=(4, 2))
        streams = [[], []]
        energies = []
        for bounded in (False, True):
            monkeypatch.setattr(vqe, "spawn_rng", lambda *path, _s=streams[bounded]:
                                _s.append(path) or spawn_rng(*path))
            backend = ShotsBackend(shots=256, noise=noise, mitigate=True, seed=5)
            _, f_batch = backend.make_objective(dec, MEAN_FIELD)
            if bounded:
                assert backend.energy_noise(dec) > 0
            energies.append(f_batch(rows).tolist() + f_batch(rows[:1]).tolist())
        assert energies[0] == energies[1]
        rates = (5, vqe._STREAM_RATES)
        assert streams[0] == [(*rates, t) for t in (range(5) if drift else [0])]
        assert streams[1] == ([(*rates, 0)] if drift else []) + streams[0]

    def test_minimize_passes_the_backend_bound(self, monkeypatch):
        seen = []
        quasinewton = vqe.optimize_quasinewton
        monkeypatch.setattr(vqe, "optimize_quasinewton", lambda *a, energy_noise:
                            seen.append(energy_noise) or quasinewton(*a, energy_noise=energy_noise))
        dec = decompose(build_s_block(SI, GAMMA))
        shots = ShotsBackend(shots=256, seed=6)
        for backend in (EXACT, shots):
            minimize(dec, MEAN_FIELD, backend, OptimizerConfig(restarts=1), seed=1)
        assert seen == [0.0, ShotsBackend(shots=256).energy_noise(dec)] and seen[1] > 0


class TestNoiseAwareStop:
    X0 = np.random.default_rng(3).uniform(-2, 2, size=(4, 3))

    def test_zero_noise_path_is_unchanged(self):
        # (energy, evaluations, iterations, converged, x) of each row, as the
        # optimiser returned them before the noise rules existed.
        before = [
            (-0.01700845799006162, 72, 4, True,
             [0.02288429295225397, -0.005225612347518756, 0.018815303320005618]),
            (-0.019971149121821696, 78, 5, True,
             [0.0018921187531985636, -0.002931413616360509, -0.0006740291769033887]),
            (-0.0210871238467819, 102, 8, True,
             [-0.002569866145009438, -0.0037367737673708015, 0.0021894525420750235]),
            (-0.021200647188128138, 58, 4, True,
             [0.01168976399763331, -0.005670386379466222, -0.0011147179794975504]),
        ]
        results = optimize_quasinewton(*_noisy_quadratic(1e-2), self.X0, OptimizerConfig(), 6,
                                       energy_noise=0.0)
        assert [(r.energy, r.evaluations, r.iterations, r.converged, r.x.tolist())
                for r in results] == before
        assert {r.stop for r in results} == {"precision"}

    def test_noise_bound_stops_sooner(self):
        sigma = 1e-2
        chasing = optimize_quasinewton(*_noisy_quadratic(sigma), self.X0, OptimizerConfig(), 6)
        bounded = optimize_quasinewton(*_noisy_quadratic(sigma), self.X0, OptimizerConfig(), 6,
                                       energy_noise=sigma)
        stops = [r.stop for r in bounded]
        assert "noise" in stops and set(stops) <= {"noise", "precision"}
        assert all(r.converged for r in bounded)
        assert all(b.evaluations < c.evaluations for b, c in zip(bounded, chasing))
        assert {r.stop for r in chasing} == {"precision"}

    def test_line_search_takes_no_halving_below_the_noise(self):
        # Every trial is uphill.  From g = (10, 10) the first trial step is
        # 1/|g| and its slope -200; a halving to step s predicts a decrease of
        # 200 s, so with σ̄_E = 1 the halvings stop before 200 s < 1/4: the
        # search tries 1/|g| and 5 halvings (of 8; 200/(|g| 2^6) < 1/4), then
        # fails from the identity.  |g| = 10 stays above the noise stop, 2/√2.
        def fb(X):
            return np.where(np.all(X == 1.0, axis=1), 0.0, 1.0)

        def gb(X):
            return np.full_like(X, 10.0)

        x0 = np.array([[1.0, 1.0]])
        [noisy] = optimize_quasinewton(fb, gb, x0, OptimizerConfig(), 5, energy_noise=1.0)
        [exact] = optimize_quasinewton(fb, gb, x0, OptimizerConfig(), 5)
        assert (noisy.stop, noisy.iterations, noisy.evaluations) == ("precision", 0, 1 + 5 + 6)
        assert (exact.stop, exact.iterations, exact.evaluations) == ("precision", 0, 1 + 5 + 9)

    def test_stop_reasons(self):
        def quadratic(X):
            return np.sum((X - 2.0) ** 2, axis=1)

        def grad(X):
            return 2 * (X - 2.0)

        cfg = OptimizerConfig(tol_ev=1e-10)
        [gradient] = optimize_quasinewton(quadratic, grad, np.array([[0.0]]), cfg)
        [noise] = optimize_quasinewton(quadratic, grad, np.array([[2.1]]), cfg,
                                       energy_noise=0.5)
        [capped] = optimize_quasinewton(rosen, rosen_grad, np.array([[-1.0, 1.0]]),
                                        OptimizerConfig(max_iter=2))
        assert (gradient.stop, gradient.converged) == ("gradient", True)
        # |g| = 0.2 at the start is within 2·0.5/√2: no iteration is taken.
        assert (noise.stop, noise.converged, noise.iterations) == ("noise", True, 0)
        assert (capped.stop, capped.converged) == ("max_iter", False)
        assert vqe.STOPS == ("gradient", "noise", "precision", "max_iter")
