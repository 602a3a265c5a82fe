import warnings

import numpy as np
import pytest

from xsplice import (
    MeasurementSetting,
    TomographyData,
    TwoQubitState,
    bell_state,
    born_probabilities,
    error_bars,
    fidelity,
    pure_phi_state,
    reconstruct_mle,
    simulate_counts,
    standard_settings,
    state_fidelity,
    tangle,
    werner_state,
)


@pytest.fixture(scope="module")
def settings():
    return standard_settings()


@pytest.fixture(scope="module")
def werner_truth():
    return werner_state(0.896, "psi-")


class TestSettings:
    def test_count(self, settings):
        assert len(settings) == 36
        assert len({s.label for s in settings}) == 36

    def test_basis_relations(self, settings):
        by_label = {s.label: s for s in settings}
        h = by_label["HH"].projector_signal
        v = by_label["VH"].projector_signal
        d = by_label["DH"].projector_signal
        r = by_label["RH"].projector_signal
        assert abs(np.vdot(h, v)) == pytest.approx(0.0, abs=1e-15)
        assert abs(np.vdot(h, d)) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(np.vdot(h, r)) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_rectilinear_completeness(self, settings, werner_truth):
        by_label = {s.label: s for s in settings}
        total = sum(born_probabilities(werner_truth, [by_label[lab]])[0]
                    for lab in ("HH", "HV", "VH", "VV"))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            MeasurementSetting(np.array([1.0, 1.0]), np.array([1.0, 0.0]), "bad")


class TestSimulateCounts:
    def test_orthogonal_setting_is_dark(self, settings):
        hh = TwoQubitState(np.outer(bell_state("phi+") * 0 + np.array([1, 0, 0, 0.0]),
                                    np.array([1, 0, 0, 0.0]).conj()))
        by_label = {s.label: s for s in settings}
        data = simulate_counts(hh, [by_label["VV"]], 1e6, seed=1)
        assert data.counts[0] == 0.0

    def test_maximally_mixed_quarter(self, settings):
        mixed = TwoQubitState(np.eye(4, dtype=complex) / 4)
        n = 1e6
        data = simulate_counts(mixed, settings, n, seed=2)
        for c in data.counts:
            assert c == pytest.approx(n / 4, abs=4 * np.sqrt(n / 4))

    def test_frequencies_match_born_rule(self, settings, werner_truth):
        n = 1e6
        probs = born_probabilities(werner_truth, settings)
        data = simulate_counts(werner_truth, settings, n, seed=3)
        for c, p in zip(data.counts, probs):
            assert abs(c - n * p) <= 3 * np.sqrt(max(n * p, 1.0)) + 1

    def test_seeded(self, settings, werner_truth):
        a = simulate_counts(werner_truth, settings, 1e4, seed=7)
        b = simulate_counts(werner_truth, settings, 1e4, seed=7)
        assert a.counts == b.counts

    def test_data_validation(self, settings):
        with pytest.raises(ValueError):
            TomographyData(settings=tuple(settings), counts=(1.0,), total_per_setting=10)
        with pytest.raises(ValueError):
            TomographyData(settings=tuple(settings[:2]), counts=(1.0, -2.0),
                           total_per_setting=10)

    @pytest.mark.parametrize("counts, total", [((1.0, np.nan), 10), ((1.0, np.inf), 10),
                                               ((0.0, 0.0), 0), ((1.0, 2.0), -5),
                                               ((1.0, 2.0), np.nan), ((1.0, 2.0), np.inf)])
    def test_impossible_exposure_rejected(self, settings, counts, total):
        # reconstruct_mle would divide 0/0 on such data and return a meaningless state
        with pytest.raises(ValueError, match="finite"):
            TomographyData(settings=tuple(settings[:2]), counts=counts,
                           total_per_setting=total)

    @pytest.mark.parametrize("n", [0.0, -5.0, np.nan, np.inf])
    def test_simulate_rejects_impossible_exposure(self, settings, werner_truth, n):
        with pytest.raises(ValueError, match="counts per setting"):
            simulate_counts(werner_truth, settings, n, seed=1)


def poisson_log_likelihood(data, state):
    lam = data.total_per_setting * np.clip(
        born_probabilities(state, data.settings), 1e-12, None)
    counts = np.asarray(data.counts)
    return float((counts * np.log(lam) - lam).sum())


REPLICATE_COUNTS = [
    (481, 34, 251, 255, 268, 262, 33, 455, 266, 258, 234, 251,
     245, 241, 469, 37, 265, 224, 247, 242, 35, 454, 252, 242,
     247, 240, 242, 269, 21, 478, 276, 251, 279, 246, 471, 27),
    (488, 13, 240, 244, 251, 236, 25, 492, 244, 276, 258, 227,
     245, 233, 462, 15, 247, 251, 257, 231, 15, 467, 254, 239,
     262, 281, 237, 254, 26, 445, 243, 258, 222, 227, 441, 22),
]


def multistart_cholesky_mle(data):
    """Oracle: the NLL over rho = T T^dagger / tr(T T^dagger), T lower
    triangular with a real diagonal (16 real parameters; James, Kwiat,
    Munro & White, PRA 64, 052312 (2001)), minimised by scipy's L-BFGS-B
    on its analytic gradient from T = I/2 and two seeded random starts;
    the best optimum is kept."""
    from scipy.optimize import minimize

    vs = np.array([s.joint_vector for s in data.settings])
    flat = np.einsum("ki,kj->kij", vs.conj(), vs).reshape(-1, 16)  # row k . A.ravel() = tr(Pi_k A)
    counts, n = np.asarray(data.counts), data.total_per_setting
    lower = np.tril_indices(4, -1)

    def factor(t):
        T = np.diag(t[:4]).astype(complex)
        T[lower] = t[4:10] + 1j * t[10:]
        return T

    def nll_and_gradient(t):
        T = factor(t)
        a = T @ T.conj().T
        tr = t @ t
        p = (flat @ a.ravel()).real / tr
        lam = n * np.maximum(p, 1e-12)
        excess = lam - counts  # deviance terms, accurate below an ulp of the NLL
        nll = (excess - counts * np.log1p(excess / np.where(counts > 0, counts, 1.0))).sum()
        g = np.where(p > 1e-12, n * (1.0 - counts / lam), 0.0)
        m = (g @ flat.conj()).reshape(4, 4) - (g @ p) * np.eye(4)
        G = (2.0 / tr) * (m @ T)
        return nll, np.concatenate([G.real.diagonal(), G[lower].real, G[lower].imag])

    rng = np.random.default_rng(0)
    starts = [np.r_[np.full(4, 0.5), np.zeros(12)]] + [rng.normal(scale=0.3, size=16)
                                                         for _ in range(2)]
    best = min((minimize(nll_and_gradient, t0, jac=True, method="L-BFGS-B",
                         options={"maxiter": 4000, "ftol": 1e-15, "gtol": 1e-12})
                for t0 in starts), key=lambda res: res.fun)
    a = factor(best.x) @ factor(best.x).conj().T
    return TwoQubitState(a / np.trace(a).real)


class TestReconstruction:
    def test_exact_data_rank_one(self, settings):
        truth = pure_phi_state(0.0)
        exact = TomographyData(
            settings=tuple(settings),
            counts=tuple(1e5 * born_probabilities(truth, settings)),
            total_per_setting=1e5)
        rho = reconstruct_mle(exact)
        assert state_fidelity(rho, truth) >= 1 - 1e-6

    def test_exact_data_full_rank(self, settings, werner_truth):
        exact = TomographyData(
            settings=tuple(settings),
            counts=tuple(1e5 * born_probabilities(werner_truth, settings)),
            total_per_setting=1e5)
        rho = reconstruct_mle(exact)
        assert state_fidelity(rho, werner_truth) >= 1 - 1e-6

    def test_werner_sampled_reconstruction(self, settings, werner_truth):
        data = simulate_counts(werner_truth, settings, 1e5, seed=11)
        rho = reconstruct_mle(data)
        assert state_fidelity(rho, werner_truth) >= 0.99
        assert fidelity(rho, bell_state("psi-")) == pytest.approx(0.922, abs=0.01)
        assert tangle(rho) == pytest.approx(0.71, abs=0.03)

    def test_estimate_beats_truth_likelihood(self, settings, werner_truth):
        data = simulate_counts(werner_truth, settings, 1e4, seed=13)
        rho = reconstruct_mle(data)
        assert poisson_log_likelihood(data, rho) >= poisson_log_likelihood(data, werner_truth)

    def test_reconstruction_is_physical(self, settings, werner_truth):
        data = simulate_counts(werner_truth, settings, 1e3, seed=17)
        rho = reconstruct_mle(data)
        eig = np.linalg.eigvalsh(rho.matrix)
        assert eig.min() >= -1e-10
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    # Poisson draws at 1e3 counts per setting on which a single L-BFGS-B
    # start from the maximally mixed state, in the Cholesky parametrisation
    # used before, ended in an ABNORMAL line search. "fd": a bootstrap
    # replicate around the MLE of the 30 mW paper-model state. "rounding":
    # a draw from the 10 mW paper-model state, where rounding noise of the
    # NLL stalled the line search at a boundary optimum.
    @pytest.mark.parametrize("counts", REPLICATE_COUNTS, ids=["fd", "rounding"])
    def test_bootstrap_replicate_converges(self, settings, counts):
        data = TomographyData(settings=tuple(settings), counts=counts,
                              total_per_setting=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reconstruct_mle(data)

    # "stalled": a single L-BFGS-B start stopped 0.045 above the optimum on
    # this rank-deficient MLE, where three starts found it.
    @pytest.mark.parametrize("draw", ["stalled", "fd", "rounding"])
    def test_one_solve_reaches_the_multistart_optimum(self, settings, draw):
        if draw == "stalled":
            data = simulate_counts(pure_phi_state(0.3), settings, 1e4, seed=[1619, 99])
        else:
            counts = REPLICATE_COUNTS[["fd", "rounding"].index(draw)]
            data = TomographyData(settings=tuple(settings), counts=counts,
                                  total_per_setting=1e3)
        nll = -poisson_log_likelihood(data, reconstruct_mle(data))
        oracle = -poisson_log_likelihood(data, multistart_cholesky_mle(data))
        assert nll <= oracle + 1e-9 * abs(oracle)
        # and the oracle is an optimum too, so the bound above has teeth
        assert oracle <= nll + 1e-9 * abs(nll)

    def test_informationally_incomplete_rejected(self, settings, werner_truth):
        subset = settings[:10]
        data = simulate_counts(werner_truth, subset, 1e4, seed=19)
        with pytest.raises(ValueError, match="informationally complete"):
            reconstruct_mle(data)

    def test_basis_consistency_under_local_unitary(self, settings, werner_truth):
        # rotate the truth and every analyzer by the same local unitary;
        # the reconstruction must co-rotate
        theta = 0.3
        u1 = np.array([[np.cos(theta), -np.sin(theta)],
                       [np.sin(theta), np.cos(theta)]], dtype=complex)
        U = np.kron(u1, np.eye(2, dtype=complex))
        rotated_truth = TwoQubitState(U @ werner_truth.matrix @ U.conj().T)
        rotated_settings = [
            MeasurementSetting(u1 @ s.projector_signal, s.projector_idler, s.label)
            for s in settings
        ]
        data = simulate_counts(werner_truth, settings, 1e5, seed=23)
        rotated_data = TomographyData(settings=tuple(rotated_settings),
                                      counts=data.counts,
                                      total_per_setting=data.total_per_setting)
        rho = reconstruct_mle(data)
        rho_rotated = reconstruct_mle(rotated_data)
        expected = TwoQubitState(U @ rho.matrix @ U.conj().T)
        assert state_fidelity(rho_rotated, expected) >= 0.999


class TestErrorBars:
    def test_single_round_degenerate(self, settings, werner_truth):
        data = simulate_counts(werner_truth, settings, 1e3, seed=29)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            f_std, t_std = error_bars(data, 1, seed=1)
        assert f_std == 0.0 and t_std == 0.0

    def test_seeded(self, settings, werner_truth):
        data = simulate_counts(werner_truth, settings, 1e3, seed=31)
        a = error_bars(data, 5, seed=5)
        b = error_bars(data, 5, seed=5)
        assert a == b

    def test_scaling_with_counts(self, settings, werner_truth):
        # bootstrap spread shrinks like 1/sqrt(counts per setting)
        stds = []
        for n, seed in ((1e3, 37), (1e4, 38), (1e5, 39)):
            data = simulate_counts(werner_truth, settings, n, seed=seed)
            f_std, _ = error_bars(data, 24, seed=seed)
            stds.append(f_std)
        for lo, hi in zip(stds[1:], stds[:-1]):
            ratio = hi / lo
            assert ratio == pytest.approx(np.sqrt(10.0), rel=0.30)
