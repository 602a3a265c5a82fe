import warnings

import numpy as np
import pytest

from xsplice import tomography
from xsplice import (
    MeasurementSetting,
    TomographyData,
    TwoQubitState,
    bell_state,
    best_bell_fidelity,
    born_probabilities,
    effective_state_at_power,
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
from conftest import expected_counts


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

    def test_projector_stack_is_the_kron_construction(self, settings):
        rng = np.random.default_rng(3)
        kets = rng.normal(size=(20, 2, 2)) + 1j * rng.normal(size=(20, 2, 2))
        kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
        random = [MeasurementSetting(a, b) for a, b in kets]
        for group in (settings, random):
            vs = np.array([np.kron(s.projector_signal, s.projector_idler) for s in group])
            assert np.array_equal(tomography._projector_stack(group),
                                  np.einsum("ki,kj->kij", vs, vs.conj()))

    def test_no_settings(self, werner_truth):
        assert tomography._projector_stack([]).shape == (0, 4, 4)
        assert born_probabilities(werner_truth, []).shape == (0,)


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

    def test_no_settings_give_empty_data(self, werner_truth):
        data = simulate_counts(werner_truth, [], 1e3, seed=1)
        assert data.settings == () and data.counts == ()

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

    def test_simulate_names_an_oversized_mean(self, settings, werner_truth):
        # numpy's sampler itself says only "lam value too large"
        with pytest.raises(ValueError, match=r"expected count \S+e\+299 exceeds the largest "
                                             r"Poisson mean the sampler accepts"):
            simulate_counts(werner_truth, settings, 1e300, seed=1)


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


# The first bootstrap replicate of the pure_phi_1e5 case of
# test_pinned_replicates, at 1e5 counts per setting: a rank-one optimum.
PURE_PHI_REPLICATE = (
    50064, 0, 25194, 24815, 24876, 24956, 1, 49886, 25012, 25376, 24632, 25067,
    24913, 25073, 48892, 1068, 32403, 17604, 24731, 24699, 1035, 49134, 17456, 32245,
    24720, 25202, 32349, 17722, 1089, 48887, 25275, 25011, 17701, 32618, 49077, 1117,
)


def fista_to_step(data, step_tol, max_steps=100_000):
    """Reference: FISTA alone (backtracked step, restart when the NLL
    rises) from I/4, run until a step moves the state by at most
    ``step_tol`` (Frobenius). No Newton steps."""
    flat = tomography._projector_stack(data.settings).reshape(len(data.settings), 16)
    counts, n = np.asarray(data.counts), data.total_per_setting

    def nll(rho):
        return tomography._rate_deviance(expected_counts(rho, flat, n), counts)

    x = y = np.eye(4, dtype=complex) / 4
    fx = fy = nll(x)
    t, lip = 1.0, n
    for _ in range(max_steps):
        g = tomography._rate_gradient(expected_counts(y, flat, n), flat, counts, n)
        while True:
            z = tomography._project(y - g / lip)[0]
            step = z - y
            fz = nll(z)
            if (fz <= fy + np.vdot(g, step).real + 0.5 * lip * np.vdot(step, step).real
                    or np.linalg.norm(step) <= step_tol):
                break
            lip *= 2.0
        if fz > fx:
            if y is x:
                break
            y, fy, t = x, fx, 1.0
            continue
        x_old, x, fx = x, z, fz
        lip *= 0.9
        if np.linalg.norm(step) <= step_tol:
            break
        t_old, t = t, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t_old - 1.0) / t) * (x - x_old)
        fy = nll(y)
        if fy == np.inf:
            y, fy, t = x, fx, 1.0
    return x


def multistart_cholesky_mle(data):
    """Oracle: the NLL over rho = T T^dagger / tr(T T^dagger), T lower
    triangular with a real diagonal (16 real parameters; James, Kwiat,
    Munro & White, PRA 64, 052312 (2001)), minimised by scipy's L-BFGS-B
    on its analytic gradient from T = I/2 and two seeded random starts;
    the best optimum is kept."""
    from scipy.optimize import minimize

    vs = np.array([np.kron(s.projector_signal, s.projector_idler) for s in data.settings])
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


def newton_inputs(data):
    """``reconstruct_mle``'s arguments to ``_newton_start``: flat, J, counts, n."""
    flat = tomography._projector_stack(data.settings).reshape(len(data.settings), 16)
    n = data.total_per_setting
    jac = n * (flat @ tomography._TRACELESS.transpose(0, 2, 1).reshape(15, 16).T).real
    return flat, jac, np.asarray(data.counts), n


def newton_start_reference(flat, counts, n):
    """Reference: the Newton start as it was before its Hessian's rank was
    decided once per solve. Each step tests the Hessian by a Cholesky
    factorisation, and each trial state is formed by ``np.tensordot``
    before its likelihood is tested."""
    def positive_definite(m):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return True

    x, theta = np.eye(4, dtype=complex) / 4, np.zeros(15)
    jac = n * (flat @ tomography._TRACELESS.transpose(0, 2, 1).reshape(15, 16).T).real
    lam0 = n * (flat @ x.T.ravel()).real
    lam, f = lam0, tomography._rate_deviance(lam0, counts)
    for _ in range(100):
        w = np.divide(counts, lam, out=np.zeros_like(lam), where=counts > 0)
        grad = jac.T @ (1.0 - w)
        hess = (jac.T * (w / lam)) @ jac
        if not positive_definite(hess):
            break
        step = np.linalg.solve(hess, grad)
        dec = grad @ step
        last = dec <= np.finfo(float).eps * np.abs(lam - counts).sum()
        for alpha in (1.0, 0.5, 0.25, 0.125):
            trial = theta - alpha * step
            x_t = np.eye(4) / 4 + np.tensordot(trial, tomography._TRACELESS, 1)
            lam_t = lam0 + jac @ trial
            f_t = tomography._rate_deviance(lam_t, counts)
            if (last or f_t <= f - 0.25 * alpha * dec) and positive_definite(x_t):
                break
        else:
            break
        theta, x, lam, f = trial, x_t, lam_t, f_t
        if last:
            break
    return x


# A draw with 19 settings at zero whose 17 seen settings leave J_seen of
# rank 14: rounding let the reference's Cholesky test pass a singular
# Hessian, and np.linalg.solve then raised LinAlgError out of reconstruct_mle.
SINGULAR_SEEN = (
    843, 0, 0, 425, 470, 487, 0, 0, 506, 0, 493, 0, 0, 485, 113, 866, 0, 543,
    0, 496, 0, 100, 461, 0, 0, 464, 0, 0, 842, 0, 0, 0, 489, 0, 126, 0,
)
SINGULAR_SEEN_EXPOSURE = 1942.0609824511573


def assert_minimum_norm_steps(x, flat, jac, counts, n, rank, name):
    """Where the rows of J with counts have rank < 15, Newton steps were
    taken (x has a lower NLL than I/4), each the minimum-norm step H^+ g:
    x - I/4 has no component along the null space of those rows."""
    theta = np.einsum("jab,ba->j", tomography._TRACELESS, x).real  # tr(E_j x) = theta_j
    null = np.linalg.svd(jac[counts > 0])[2][rank:]
    assert np.abs(null @ theta).max() <= 1e-14, name
    start = tomography._rate_deviance(expected_counts(np.eye(4) / 4, flat, n), counts)
    assert tomography._rate_deviance(expected_counts(x, flat, n), counts) < start, name


class TestNewtonStart:
    @staticmethod
    def draws(settings):
        """(name, data, rank of the seen rows of J) of seeded draws."""
        labels = [s.label for s in settings]
        for n in (1e3, 1e4, 1e5):
            for purity, fam, seed in ((0.6, "phi+", 1), (0.9, "psi-", 2), (0.99, "phi-", 3)):
                data = simulate_counts(werner_state(purity, fam), settings, n, seed=[seed, int(n)])
                yield f"werner_{purity}_{n:.0e}", data, 15
        for i, counts in enumerate(REPLICATE_COUNTS):
            yield f"replicate_{i}", TomographyData(tuple(settings), counts, 1e3), 15
        yield "pure_phi", TomographyData(tuple(settings), PURE_PHI_REPLICATE, 1e5), 15
        base = simulate_counts(werner_state(0.9, "psi-"), settings, 1e4, seed=7).counts
        for unseen, rank in ((("HH", "VV"), 15), (("RR", "LL", "DA"), 15),
                             (["L" + b for b in "HVDARL"], 15),
                             (("RR", "RL", "LR", "LL"), 14),
                             ([a + b for a in "RL" for b in "HVDARL"], 11),
                             ([lab for lab in labels if lab not in ("HH", "VV")], 2)):
            counts = tuple(0.0 if lab in unseen else c for lab, c in zip(labels, base))
            yield f"unseen_{'_'.join(unseen)}", TomographyData(tuple(settings), counts, 1e4), rank

    def test_same_iterate_as_the_reference(self, settings):
        for name, data, expected_rank in self.draws(settings):
            flat, jac, counts, n = newton_inputs(data)
            rank = np.linalg.matrix_rank(jac[counts > 0], tol=1e-10 * n)
            assert rank == expected_rank, name
            got = tomography._newton_start(flat, jac, counts, n)[0]
            if rank == 15:
                assert got.tobytes() == newton_start_reference(flat, counts, n).tobytes(), name
            else:
                assert_minimum_norm_steps(got, flat, jac, counts, n, rank, name)

    def test_singular_seen_rows_take_minimum_norm_steps(self, settings):
        data = TomographyData(tuple(settings), SINGULAR_SEEN, SINGULAR_SEEN_EXPOSURE)
        flat, jac, counts, n = newton_inputs(data)
        assert np.linalg.matrix_rank(jac[counts > 0], tol=1e-10 * n) == 14
        with pytest.raises(np.linalg.LinAlgError):
            newton_start_reference(flat, counts, n)
        got = tomography._newton_start(flat, jac, counts, n)[0]
        assert_minimum_norm_steps(got, flat, jac, counts, n, 14, "singular_seen")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = reconstruct_mle(data)
        oracle = multistart_cholesky_mle(data)
        nll, best = -poisson_log_likelihood(data, rho), -poisson_log_likelihood(data, oracle)
        assert nll <= best + 1e-9 * abs(best)

    def test_only_states_that_pass_are_formed_and_tested(self, monkeypatch, settings):
        # the Hessian is never factorised, and a trial state is formed
        # (without np.tensordot) and tested only once its NLL passes: each
        # Cholesky test is of a 4 x 4 state and passes, so there is at most
        # one per accepted step. The reference made two per step.
        cholesky, tests, passed = np.linalg.cholesky, [], []

        def counted_cholesky(m):
            tests.append(m.shape)
            factor = cholesky(m)  # raises where the test fails
            passed.append(m.shape)
            return factor

        def no_tensordot(*args, **kwargs):
            raise AssertionError("np.tensordot called in _newton_start")

        monkeypatch.setattr(np, "tensordot", no_tensordot)
        for seed in range(10):
            data = simulate_counts(werner_state(0.9), settings, 1e4, seed=seed)
            flat, jac, counts, n = newton_inputs(data)
            tests.clear()
            passed.clear()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "cholesky", counted_cholesky)
                x = tomography._newton_start(flat, jac, counts, n)[0]
            assert not np.array_equal(x, np.eye(4) / 4), seed  # steps were taken
            assert 1 <= len(tests) == len(passed), seed
            assert set(tests) == {(4, 4)}, seed


# (counts, exposure) of draws from a 9000-solve stress run whose solves
# reach the edge cases of the Newton steps:
FACE_DRAWS = {
    # the expected count of a setting without counts rounds to 0 in the
    # Newton start, where c/lam^2 would be 0/0
    "two_counts": ((0,) * 26 + (1, 0, 0, 1) + (0,) * 6, 3.0),
    # the Newton iterate is singular to rounding: a face start from it has
    # an eigenvalue below 0, of which no square root is taken
    "four_counts": ((0,) * 15 + (88, 0, 0, 0, 0, 302) + (0,) * 8 + (416, 0, 0, 0, 0, 257, 0),
                    1000.0),
    # far from the optimum, the face steps need alpha below 1/8
    "sparse_3": ((0, 0, 0, 0, 1, 0, 1, 0, 3, 0, 4, 0, 3, 1, 1, 2, 2, 0,
                  0, 1, 1, 1, 1, 0, 5, 0, 0, 0, 1, 0, 0, 1, 2, 0, 1, 0), 3.0),
    # the last face step has a decrement between 1 and 4 times the rounding,
    # where the Armijo test's alpha/4 of it cannot be verified
    "rank3_100": ((21, 20, 29, 13, 46, 4, 15, 44, 12, 44, 25, 22, 32, 22, 21, 32, 53, 5,
                   4, 38, 18, 20, 23, 17, 9, 47, 20, 41, 64, 18, 22, 4, 14, 14, 12, 14), 100.0),
    # a rank-3 optimum with an eigenvalue of 0.0015, whose gap is 6.8 ulp
    "rank3_10": ((3, 3, 1, 2, 2, 2, 1, 1, 3, 1, 0, 4, 3, 0, 0, 1, 0, 1,
                  3, 12, 1, 8, 0, 5, 1, 4, 1, 2, 2, 1, 3, 4, 0, 2, 2, 1), 10.0),
}


class TestCertificate:
    @staticmethod
    def draws(settings):
        """(name, data): seeded random truths of ranks 1-4 at 1e3-1e5 counts,
        every draw of ``TestNewtonStart.draws`` with settings at zero, and
        ``FACE_DRAWS``."""
        rng = np.random.default_rng(2001)
        for i in range(96):
            rank, n = 1 + i % 4, (1e3, 1e4, 1e5)[i // 4 % 3]
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            truth = TwoQubitState(g @ g.conj().T / np.vdot(g, g).real)
            yield f"rank{rank}_{n:.0e}_{i}", simulate_counts(truth, settings, n, seed=[i, 2001])
        for name, data, _ in TestNewtonStart.draws(settings):
            if 0.0 in data.counts:
                yield name, data
        for name, (counts, n) in FACE_DRAWS.items():
            yield name, TomographyData(tuple(settings), counts, n)

    def test_every_solve_is_certified(self, monkeypatch, settings):
        # the state returned is one the gap certificate passed, and no
        # solve falls back to its lowest-deviance state with a warning
        certify, passed = tomography._certified, []

        def recorded(rho, *args):
            ok = certify(rho, *args)
            if ok:
                passed.append(rho)
            return ok

        monkeypatch.setattr(tomography, "_certified", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, data in self.draws(settings):
                passed.clear()
                rho = reconstruct_mle(data).matrix
                assert len(passed) == 1, name
                assert np.array_equal(rho, 0.5 * (passed[0] + passed[0].conj().T)), name

    def test_counts_in_hh_and_vv_only_give_the_closed_form(self, settings):
        # the seen rows have rank 2 and 34 settings are dark: the likelihood
        # fixes rho_11 and rho_44 alone, and the minimum-norm steps keep the
        # HH-VV coherence of I/4 at 0
        (data,) = [data for _, data, rank in TestNewtonStart.draws(settings) if rank == 2]
        c_hh, c_vv = data.counts[0], data.counts[7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = reconstruct_mle(data).matrix
        assert np.abs(rho - np.diag([c_hh, 0.0, 0.0, c_vv]) / (c_hh + c_vv)).max() <= 1e-12

    def test_uncertified_solve_returns_its_lowest_deviance_state(self, monkeypatch, settings):
        monkeypatch.setattr(tomography, "_certified", lambda *args: False)
        faces, face_newton = [], tomography._face_newton

        def recorded(*args):
            face = face_newton(*args)
            faces.append(face)
            return face

        monkeypatch.setattr(tomography, "_face_newton", recorded)
        data = simulate_counts(pure_phi_state(0.3), settings, 1e4, seed=[1619, 99])
        with pytest.warns(RuntimeWarning, match="^likelihood maximization did not converge; "
                                                "returning best iterate$"):
            rho = reconstruct_mle(data).matrix
        flat, jac, counts, n = newton_inputs(data)
        x = tomography._newton_start(flat, jac, counts, n)[0]
        candidates = [(tomography._rate_deviance(expected_counts(x, flat, n), counts), x)]
        candidates += [(tomography._rate_deviance(lam, counts), m) for m, lam in filter(None, faces)]
        assert len(candidates) == 5  # the Newton start and the four ranks
        best = min(candidates, key=lambda c: c[0])[1]
        assert np.array_equal(rho, 0.5 * (best + best.conj().T))


class TestDeviance:
    def test_expected_count_below_half_an_ulp(self):
        # 1e-20 - 1 rounds to -1, where log1p(-1) = -inf would warn
        counts = np.array([1.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tomography._rate_deviance(np.array([1e-20, 2.0, 3.0]), counts) == np.inf
            assert tomography._rate_deviance(np.array([0.0, 2.0, 3.0]), counts) == np.inf
            got = tomography._rate_deviance(np.array([0.5, 2.0, 3.0]), counts)
        assert got == pytest.approx(2.5 - np.log(0.5) - 2.0 * np.log(1.5), rel=1e-15)


def smolin_eigenvalues(mu):
    """Smolin, Gambetta & Smith's sort-based loop: the eigenvalues ``mu`` of a
    trace-one Hermitian matrix, sorted, moved onto the simplex."""
    mu = np.sort(mu)[::-1]
    lam, acc, i = np.zeros(len(mu)), 0.0, len(mu)
    while mu[i - 1] + acc / i < 0:
        acc += mu[i - 1]
        i -= 1
    lam[:i] = mu[:i] + acc / i
    return lam


class TestProjection:
    @pytest.mark.parametrize("seed", range(8))
    def test_is_the_sort_based_simplex_projection(self, seed):
        # trace-one Hermitian matrices whose spectra need 0 to 3 eigenvalues cut
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        mu = rng.normal(scale=[0.1, 0.3, 1.0, 2.0][seed % 4], size=4)
        mu += (1.0 - mu.sum()) / 4
        h = (q * mu) @ q.conj().T
        rho, rank = tomography._project(0.5 * (h + h.conj().T))
        lam = smolin_eigenvalues(mu)
        order = np.argsort(mu)[::-1]
        assert np.abs(rho - (q[:, order] * lam) @ q[:, order].conj().T).max() <= 1e-12
        assert rank == np.count_nonzero(lam)


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

    # Settings without counts leave the Newton Hessian singular, and the
    # Newton steps are its minimum-norm ones. With counts in HH and VV only,
    # the HH-VV coherence does not change the likelihood; the solve keeps
    # the 0 of I/4.
    @pytest.mark.parametrize("seen, expected", [
        ({}, np.eye(4) / 4),
        ({"HH": 1000.0}, np.diag([1.0, 0.0, 0.0, 0.0])),
        ({"HH": 500.0, "VV": 500.0}, np.diag([0.5, 0.0, 0.0, 0.5])),
        ({"HH": 256.0, "VV": 236.0}, np.diag([256.0, 0.0, 0.0, 236.0]) / 492.0),
        ({"HH": 700.0, "VV": 300.0}, np.diag([0.7, 0.0, 0.0, 0.3])),
    ], ids=["no-counts", "HH", "HH-VV", "HH-VV-256-236", "HH-VV-700-300"])
    def test_degenerate_counts(self, settings, seen, expected):
        data = TomographyData(settings=tuple(settings),
                              counts=tuple(seen.get(s.label, 0.0) for s in settings),
                              total_per_setting=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = reconstruct_mle(data).matrix
        assert np.abs(rho - expected).max() <= 1e-12

    def test_interior_estimates_take_few_projections(self, monkeypatch, settings):
        # Newton steps reach these interior optima, certified where they
        # stop, with no projection; projected gradient steps from I/4 took
        # 550 projections here in all
        project, calls = tomography._project, []
        monkeypatch.setattr(tomography, "_project", lambda h: calls.append(h) or project(h))
        for seed in range(10):
            calls.clear()
            reconstruct_mle(simulate_counts(werner_state(0.9), settings, 1e4, seed=seed))
            assert len(calls) == 0, seed

    def test_boundary_estimates_take_few_projections(self, monkeypatch, settings):
        # "fd" and "rounding" have interior optima, no projection each;
        # "stalled" and the pure_phi_1e5 estimate of test_pinned_replicates
        # have rank-one optima. Projected gradient steps took 56 and 44
        # projections on those; one projection of the Newton target now
        # gives the rank where Newton steps on the face finish them
        draws = [TomographyData(settings=tuple(settings), counts=counts, total_per_setting=1e3)
                 for counts in REPLICATE_COUNTS]
        draws += [simulate_counts(pure_phi_state(0.3), settings, 1e4, seed=[1619, 99]),
                  simulate_counts(pure_phi_state(0.3), settings, 1e5, seed=41)]
        project, calls = tomography._project, []
        monkeypatch.setattr(tomography, "_project", lambda h: calls.append(h) or project(h))
        per_solve = []
        for data in draws:
            calls.clear()
            reconstruct_mle(data)
            per_solve.append(len(calls))
        assert per_solve == [0, 0, 1, 1]

    @pytest.mark.parametrize("truth, projected_rank", [
        (0.7 * np.outer(bell_state("phi+"), bell_state("phi+")) + 0.3 * np.diag([0, 1, 0, 0]), 3),
        (pure_phi_state(0.3).matrix, 1),
    ], ids=["rank-3-projection", "rank-1-projection"])
    def test_rank_search_goes_upward_only(self, monkeypatch, settings, truth, projected_rank):
        # with no rank certified, every rank from the projection's up to 4
        # is tried once, in order, and no lower one
        data = simulate_counts(TwoQubitState(truth), settings, 1e5, seed=0)
        face_newton, project, ranks, seen = tomography._face_newton, tomography._project, [], []

        def face_spy(x, rank, *args):
            seen.append(rank)
            return face_newton(x, rank, *args)

        def project_spy(h):
            z, rank = project(h)
            ranks.append(rank)
            return z, rank

        monkeypatch.setattr(tomography, "_certified", lambda *_: False)
        monkeypatch.setattr(tomography, "_face_newton", face_spy)
        monkeypatch.setattr(tomography, "_project", project_spy)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            reconstruct_mle(data)
        assert ranks == [projected_rank]
        assert seen == list(range(projected_rank, 5))

    def test_boundary_optimum_is_not_left_to_the_step_stop(self, settings):
        # a projected gradient solve stopped at a 1e-10 step had ended this
        # rank-one solve 2.6e-7 above the reference, the same steps run on
        # to a 1e-15 step (1264 steps)
        data = TomographyData(settings=tuple(settings), counts=PURE_PHI_REPLICATE,
                              total_per_setting=1e5)
        flat = tomography._projector_stack(settings).reshape(36, 16)
        counts = np.asarray(data.counts)
        reference = fista_to_step(data, step_tol=1e-15)
        lam = expected_counts(reference, flat, 1e5)
        rounding = np.finfo(float).eps * np.abs(lam - counts).sum()
        got = tomography._rate_deviance(expected_counts(reconstruct_mle(data).matrix, flat, 1e5),
                                        counts)
        assert got <= tomography._rate_deviance(lam, counts) + rounding

    def test_informationally_incomplete_rejected(self, settings, werner_truth):
        for subset in (settings[:10], []):
            data = simulate_counts(werner_truth, subset, 1e4, seed=19)
            with pytest.raises(ValueError, match=r"^settings are not informationally "
                                                 r"complete \(rank < 16\)$"):
                reconstruct_mle(data)

    def test_minimal_complete_set(self, settings, werner_truth):
        # {H, V, D, R} (x) {H, V, D, R}: 16 settings, the fewest that are complete
        minimal = [s for s in settings if set(s.label) <= set("HVDR")]
        assert len(minimal) == 16
        data = simulate_counts(werner_truth, minimal, 1e5, seed=43)
        assert state_fidelity(reconstruct_mle(data), werner_truth) > 0.99

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

    # (fidelity_std, tangle_std) with the B divisor of np.std's default,
    # scaled here by sqrt(B / (B - 1)) to the B - 1 divisor. They pin the
    # replicate draws (simulate_counts from the estimate, on one generator)
    # and the solve. werner_1e3 and model_30mw_1e4 have interior optima;
    # pure_phi_1e5's four optima are on the boundary, where Newton steps on
    # the face finish them at a certified optimum. Their zero eigenvalues
    # are rounding, which the concurrence sets to 0 rather than let its
    # square roots lift them to about 1e-8.
    @pytest.mark.parametrize("case, expected", [
        ("werner_1e3", (0.0023288207248321068, 0.0077230573739875095)),
        ("model_30mw_1e4", (0.0004969345159843845, 0.0017301757385986454)),
        ("pure_phi_1e5", (0.0001730513815973629, 0.00030564973333903296)),
    ])
    def test_pinned_replicates(self, settings, paper_config, case, expected):
        if case == "werner_1e3":
            truth, n, seed, n_bootstrap, boot_seed = werner_state(0.896, "psi-"), 1e3, 31, 5, 5
        elif case == "model_30mw_1e4":
            cfg = paper_config
            truth = effective_state_at_power(cfg.noise, cfg.fiber, cfg.compensators,
                                             cfg.signal, cfg.pump, 30.0,
                                             baseline_noise=cfg.baseline_noise)
            n, seed, n_bootstrap, boot_seed = 1e4, [7, 1], 4, [7, 2]
        else:
            truth, n, seed, n_bootstrap, boot_seed = pure_phi_state(0.3), 1e5, 41, 3, 43
        target = best_bell_fidelity(truth)[1]
        data = simulate_counts(truth, settings, n, seed=seed)
        got = error_bars(data, n_bootstrap, seed=boot_seed, fidelity_target=target)
        scale = np.sqrt(n_bootstrap / (n_bootstrap - 1))
        assert got == pytest.approx(tuple(v * scale for v in expected), rel=1e-12, abs=0)

    def test_generator_seed_is_drawn_in_place(self, settings, werner_truth):
        data = simulate_counts(werner_truth, settings, 1e3, seed=31)
        rng = np.random.default_rng(5)
        assert error_bars(data, 5, seed=rng) == error_bars(data, 5, seed=5)
        assert rng.bit_generator.state != np.random.default_rng(5).bit_generator.state

    @pytest.mark.parametrize("n_bootstrap, fidelity_target, match", [
        (2.5, "psi-", "n_bootstrap"), (0, "psi-", "n_bootstrap"), ("3", "psi-", "n_bootstrap"),
        (3, "psi", "unknown Bell state"), (3, "PSI-", "unknown Bell state"),
        (1, "psi-", "n_bootstrap"),
    ], ids=["fractional", "zero", "string", "no-sign", "upper-case", "one"])
    def test_arguments_checked_before_reconstruction(self, monkeypatch, settings, werner_truth,
                                                     n_bootstrap, fidelity_target, match):
        data = simulate_counts(werner_truth, settings, 1e3, seed=29)

        def no_solve(_):
            raise AssertionError("reconstruct_mle ran before the arguments were checked")

        monkeypatch.setattr(tomography, "reconstruct_mle", no_solve)
        with pytest.raises(ValueError, match=match):
            error_bars(data, n_bootstrap, seed=1, fidelity_target=fidelity_target)
