import warnings

import numpy as np
import pytest

from xsplice import (
    GaussianSpectrum,
    TwoQubitState,
    bell_state,
    best_bell_fidelity,
    concurrence,
    fidelity,
    mixed_state_over_spectra,
    pure_phi_state,
    relabel_signal_flip,
    spectral_mean_phase,
    state_fidelity,
    tangle,
    total_phase,
    compensated_phase,
    visibility,
    werner_state,
)
from conftest import exact_quadratic_average
from xsplice.counts import effective_state_at_power, visibility_vs_power
from xsplice.states import (QUAD_NODES, QUAD_SPAN_SIGMAS, VisibilityUndefinedError,
                            _INTERPOLATION_TOL, _LINE_FIT, _LINE_POWERS, _PROBE_ROWS, _PROBE_X,
                            _PROBES, _alias_check, _alias_estimate, _coherence, _fit_lines,
                            _probe_misfit, _spectral_axes, spectral_grid)


def _warns_unconverged(phase, signal, pump):
    """Whether ``mixed_state_over_spectra`` warns on ``phase``, and its coherence."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = mixed_state_over_spectra(phase, signal, pump)
    return any("not converged" in str(w.message) for w in caught), 2 * state.matrix[0, 3]


def _direct_doubled_rule(phase, signal, pump):
    """Oracle: the doubled rule on a second evaluation of the phase."""
    ls, lp, w = spectral_grid(signal, pump, 2 * QUAD_NODES, QUAD_SPAN_SIGMAS)
    return np.sum(w * np.exp(-1j * phase(ls, lp)))


def _paper_phases(cfg):
    """The paper phase at 0-60 mW, with and without compensators, pump FWHM x 0.8-1.2."""
    for comps in (cfg.compensators, None):
        if comps:
            fn = lambda s, p, comps=comps: compensated_phase(cfg.fiber, comps, s, p)
        else:
            fn = lambda s, p: total_phase(cfg.fiber, s, p)
        for scale in (0.8, 0.9, 1.0, 1.1, 1.2):
            for power in range(0, 61, 10):
                pump = GaussianSpectrum(cfg.pump.center_nm, cfg.pump.fwhm_nm * scale
                                        * (1.0 + cfg.noise.spm_coeff * power))
                mean = spectral_mean_phase(fn, cfg.signal, pump)
                yield (lambda s, p, fn=fn, mean=mean: fn(s, p) - mean), pump


#: Reference rule for phases with no closed form: the state's window
#: with 64 times its nodes, so its aliases lie past 2,100 rad/sigma.
_FINE_X = np.linspace(-QUAD_SPAN_SIGMAS, QUAD_SPAN_SIGMAS, 64 * QUAD_NODES + 1)
_FINE_W = np.exp(-0.5 * _FINE_X ** 2) / np.sum(np.exp(-0.5 * _FINE_X ** 2))


def _exact_1d(f):
    """Gaussian average of e^{-i f(x)}, x in sigma, on the reference rule."""
    return complex(np.sum(_FINE_W * np.exp(-1j * f(_FINE_X))))


class TestGaussianSpectrum:
    def test_validation(self):
        for center, fwhm in ((670.0, 0.0), (670.0, np.nan), (670.0, np.inf),
                             (np.nan, 0.23), (np.inf, 0.23), (-np.inf, 0.23)):
            with pytest.raises(ValueError):
                GaussianSpectrum(center, fwhm)

    def test_density_normalized(self):
        spec = GaussianSpectrum(670.0, 0.23)
        grid = np.linspace(670.0 - 8 * spec.sigma_nm, 670.0 + 8 * spec.sigma_nm, 20001)
        assert np.trapezoid(spec.density(grid), grid) == pytest.approx(1.0, abs=1e-9)


class TestPureState:
    def test_phi_zero_is_phi_plus(self):
        state = pure_phi_state(0.0)
        assert fidelity(state, bell_state("phi+")) == pytest.approx(1.0, abs=1e-14)

    def test_phi_pi_is_phi_minus(self):
        state = pure_phi_state(np.pi)
        assert fidelity(state, bell_state("phi-")) == pytest.approx(1.0, abs=1e-14)

    def test_no_cross_populations(self):
        for phi in (0.0, 0.4, 2.0, 5.5):
            m = pure_phi_state(phi).matrix
            assert m[1, 1] == 0.0
            assert m[2, 2] == 0.0


class TestStateValidation:
    def test_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            TwoQubitState(m)

    def test_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitState(np.eye(4, dtype=complex) / 2)

    def test_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            TwoQubitState(m)

    def test_non_finite(self):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TwoQubitState(m)

    def test_json_round_trip(self):
        state = werner_state(0.7)
        again = TwoQubitState.from_json_dict(state.to_json_dict())
        assert np.allclose(again.matrix, state.matrix)


class TestSpectralMixture:
    def test_constant_phase_is_pure(self, signal_spectrum, pump_spectrum):
        for phi0 in (0.0, 1.3, -2.2):
            mixed = mixed_state_over_spectra(lambda s, p: np.full_like(s, phi0),
                                             signal_spectrum, pump_spectrum)
            assert np.allclose(mixed.matrix, pure_phi_state(phi0).matrix, atol=1e-12)

    @pytest.mark.parametrize("slope, pump_slope", [
        pytest.param(1.0, 0.0, id="1.0"),
        pytest.param(5.0, 0.0, id="5.0"),
        pytest.param(10.0, 0.0, id="10.0"),
        pytest.param(5.0, 8.0, id="5.0-pump8.0"),
    ])
    def test_linear_phase_characteristic_function(self, signal_spectrum,
                                                  pump_spectrum, slope, pump_slope):
        # Gaussian characteristic function: |<e^{-ia(ls-c)}>| = e^{-a^2 s^2/2},
        # times e^{-b^2 sp^2/2} for a pump slope b
        mixed = mixed_state_over_spectra(
            lambda s, p: slope * (s - signal_spectrum.center_nm)
            + pump_slope * (p - pump_spectrum.center_nm),
            signal_spectrum, pump_spectrum)
        expected = (0.5 * np.exp(-0.5 * (slope * signal_spectrum.sigma_nm) ** 2)
                    * np.exp(-0.5 * (pump_slope * pump_spectrum.sigma_nm) ** 2))
        assert abs(mixed.matrix[0, 3]) == pytest.approx(expected, abs=1e-6)

    def test_coherence_bounded_by_half(self, signal_spectrum, pump_spectrum):
        flat = mixed_state_over_spectra(lambda s, p: np.zeros_like(s),
                                        signal_spectrum, pump_spectrum)
        tilted = mixed_state_over_spectra(lambda s, p: 3.0 * (s - 670.0),
                                          signal_spectrum, pump_spectrum)
        assert abs(flat.matrix[0, 3]) == pytest.approx(0.5, abs=1e-12)
        assert abs(tilted.matrix[0, 3]) < 0.5

    def test_node_doubling_converged(self, paper_fiber, paper_compensators,
                                     signal_spectrum, pump_spectrum):
        for comps in (None, paper_compensators):
            if comps:
                fn = lambda s, p: compensated_phase(paper_fiber, comps, s, p)
            else:
                fn = lambda s, p: total_phase(paper_fiber, s, p)
            mean = spectral_mean_phase(fn, signal_spectrum, pump_spectrum)
            phase = lambda s, p: fn(s, p) - mean
            a = mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum)
            b = _direct_doubled_rule(phase, signal_spectrum, pump_spectrum)
            assert abs(abs(2 * a.matrix[0, 3]) - abs(b)) < 1e-6

    def test_coherence_is_the_nodes_point_sum(self, paper_fiber, paper_compensators,
                                              signal_spectrum, pump_spectrum):
        # the state's coherence is the real cos/sin sum over the nodes, and
        # that sum is the complex-exp one to rounding
        fn = lambda s, p: compensated_phase(paper_fiber, paper_compensators, s, p)
        mean = spectral_mean_phase(fn, signal_spectrum, pump_spectrum)
        phase = lambda s, p: fn(s, p) - mean
        state = mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum)
        ls, lp, w = spectral_grid(signal_spectrum, pump_spectrum, QUAD_NODES, QUAD_SPAN_SIGMAS)
        phi = phase(ls, lp)
        coh = 2 * state.matrix[0, 3]
        assert coh == complex(np.einsum("ij,ij->", w, np.cos(phi)),
                              -np.einsum("ij,ij->", w, np.sin(phi)))
        assert abs(coh - np.sum(w * np.exp(-1j * phi))) <= 1e-15

    def test_one_weight_normalisation(self, signal_spectrum, pump_spectrum):
        # each axis' weights sum to 1 and the joint weights are their product
        ls, lp, ws, wp = _spectral_axes(signal_spectrum, pump_spectrum, QUAD_NODES,
                                        QUAD_SPAN_SIGMAS)
        assert abs(ws.sum() - 1.0) <= 1e-15 and abs(wp.sum() - 1.0) <= 1e-15
        w = spectral_grid(signal_spectrum, pump_spectrum, QUAD_NODES, QUAD_SPAN_SIGMAS)[2]
        assert np.array_equal(w, ws * wp)

    def test_unresolved_phase_warns(self, signal_spectrum, pump_spectrum):
        # 30 rad per signal sigma aliases on the nodes: the exact coherence
        # is about 0, the nodes' sum is not
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        with pytest.warns(RuntimeWarning, match="not converged"):
            mixed_state_over_spectra(lambda s, p: 30.0 * (s - c) / sigma,
                                     signal_spectrum, pump_spectrum)

    def test_warning_names_what_it_measured(self, signal_spectrum, pump_spectrum):
        # a linear phase takes the alias estimate, which doubles no rule;
        # a ripple that the probes see takes the direct doubled rule
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        prefix = "spectral quadrature not converged: "
        for phase, measure in (
                (lambda s, p: 30.0 * (s - c) / sigma,
                 "the nodes' coherence has an estimated aliasing error of "),
                (lambda s, p: 0.01 * np.sin(32.0 * (s - c) / sigma) + 0 * p,
                 "doubling nodes moved the coherence by ")):
            with pytest.warns(RuntimeWarning, match="not converged") as caught:
                mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum)
            assert [str(w.message).startswith(prefix + measure) for w in caught] == [True]

    def test_found_verdicts(self, paper_config):
        # the scan of 8,001 linear signal slopes over 0-80 rad/sigma that
        # motivated the alias estimate: the direct 128-node rule warned at
        # 71.23-71.74 rad/sigma, where the nodes are within 1e-6 of exact,
        # and missed the nodes' 1.016e-6 error at 60.72 rad/sigma
        sig, pump = paper_config.signal, paper_config.pump
        for a, aliased in ((60.72, True), (71.23, False), (71.5, False), (71.74, False)):
            phase = lambda s, p, a=a: a * (s - sig.center_nm) / sig.sigma_nm + 0 * p
            warned, coh = _warns_unconverged(phase, sig, pump)
            assert (abs(coh - np.exp(-0.5 * a * a)) > 1e-6) == aliased
            assert warned == aliased
            direct = abs(abs(_direct_doubled_rule(phase, sig, pump)) - abs(coh)) > 1e-6
            assert direct != aliased

    def test_check_verdict_against_exact_errors(self, paper_config):
        # subsampled scans against the exact error of the node rule. In
        # full (2,001 linear slopes over 0-80 rad/sigma; 41 curvatures over
        # 0-8 x 2,001 slopes; 161^2 separable slope pairs) the direct
        # 128-node rule missed 1, 191 and 8 errors above 1e-6 and raised
        # 13, 84 and 49 false alarms; the estimate misses none, and raises
        # only the 54 false alarms of slope pairs that alias on both axes,
        # where the cross terms enter both axes' estimates
        sig, pump = paper_config.signal, paper_config.pump
        xs = lambda s: (s - sig.center_nm) / sig.sigma_nm
        xp = lambda p: (p - pump.center_nm) / pump.sigma_nm
        cases = [(a, 0.0, 0.0) for a in np.linspace(0.0, 80.0, 161)]
        cases += [(a, 0.0, c) for c in (0.5, 2.0, 8.0) for a in np.linspace(0.0, 80.0, 41)]
        cases += [(a, b, 0.0) for a in np.linspace(0.0, 80.0, 17)
                  for b in np.linspace(5.0, 80.0, 16)]
        verdicts = []
        for a, b, c in cases:
            warned, coh = _warns_unconverged(
                lambda s, p: a * xs(s) + c * xs(s) ** 2 + b * xp(p), sig, pump)
            verdicts.append((a, b, c, warned, abs(coh - exact_quadratic_average(a, b, c))))
        assert not [v for v in verdicts if v[4] > 1e-6 and not v[3]]
        # no false alarm on one axis; on two, the estimate is within a factor 2
        assert not [v for v in verdicts if v[3] and v[4] <= (0.5e-6 if v[1] else 1e-6)]
        assert sum(v[3] for v in verdicts) > 100

    def test_check_verdict_on_rough_phases(self, paper_config):
        # phases that no quadratic fits: localised curvature (a 1e-3 rad
        # Gaussian bump, whose spectrum reaches the alias where the fits'
        # closed form does not, and a log-cosh kink), cubic and quartic
        # terms that the fits' closed form misses, sine ripples from
        # resolved to aliased on either axis, and ripples localised to 0.2
        # sigma. The check catches every error above 1e-6 that the direct
        # 128-node rule catches, and raises no more false alarms
        sig, pump = paper_config.signal, paper_config.pump
        on_signal = lambda s, p: (s - sig.center_nm) / sig.sigma_nm + 0 * p
        on_pump = lambda s, p: (p - pump.center_nm) / pump.sigma_nm + 0 * s
        slopes = np.linspace(0.0, 80.0, 41)
        cases = [(lambda x, a=a: a * x + 1e-3 * np.exp(-2.0 * x ** 2), on_signal)
                 for a in slopes]
        cases += [(lambda x, a=a: a * x + 3.0 * np.log(np.cosh((x - 1.0) / 0.6)), on_signal)
                  for a in slopes]
        cases += [(lambda x, a=a: a * x + 0.6 * x ** 3, on_signal) for a in slopes[::2]]
        cases += [(lambda x, a=a: a * x + 0.08 * x ** 4, on_signal) for a in slopes[::2]]
        cases += [(lambda x, a=a, f=f: a * np.sin(f * x), axis)
                  for a in (0.001, 0.01, 1.0)
                  for f in (2.0, 10.0, 20.0, 32.0, 34.0, 40.0, 100.0, 200.0)
                  for axis in (on_signal, on_pump)]
        cases += [(lambda x, f=f, x0=x0: 0.01 * np.sin(f * x)
                   * np.exp(-0.5 * ((x - x0) / 0.2) ** 2), on_signal)
                  for f in (10.0, 32.0, 100.0) for x0 in (-2.5, -0.9, 0.4, 1.6)]
        verdicts = []
        for f, x in cases:
            phase = lambda s, p, f=f, x=x: f(x(s, p))
            warned, coh = _warns_unconverged(phase, sig, pump)
            big = abs(coh - _exact_1d(f)) > 1e-6
            direct = abs(abs(_direct_doubled_rule(phase, sig, pump)) - abs(coh)) > 1e-6
            verdicts.append((warned, direct, big))
        assert not [v for v in verdicts if v == (False, True, True)]
        false = sum(warned and not big for warned, _, big in verdicts)
        assert false <= sum(direct and not big for _, direct, big in verdicts)
        assert sum(direct and big for _, direct, big in verdicts) > 50

    def test_quiet_phases(self, paper_config):
        # converged: a smooth ripple, a large constant offset, and a ripple
        # on the node scale that the probes send to the direct rerun
        sig, pump = paper_config.signal, paper_config.pump
        xs = lambda s: (s - sig.center_nm) / sig.sigma_nm
        xp = lambda p: (p - pump.center_nm) / pump.sigma_nm
        for phase in (lambda s, p: 0.001 * np.sin(2.0 * xs(s)) + 0 * p,
                      lambda s, p: 1e5 + 0.5 * xs(s) ** 2 + xs(s) * xp(p),
                      lambda s, p: 0.05 * np.sin(40.0 * xs(s)) + 0 * p):
            assert not _warns_unconverged(phase, sig, pump)[0]

    def test_rerun_compares_complex_coherences(self, paper_config):
        # a ripple localised to 0.2 sigma mostly turns the coherence: the
        # doubled rule moves it by 4.0e-4 but its magnitude by 2.1e-7, so
        # comparing magnitudes missed a node error of 4.0e-4
        sig, pump = paper_config.signal, paper_config.pump
        f = lambda x: 0.01 * np.sin(24.0 * x) * np.exp(-0.5 * ((x - 0.2) / 0.2) ** 2)
        phase = lambda s, p: f((s - sig.center_nm) / sig.sigma_nm) + 0 * p
        with pytest.warns(RuntimeWarning, match="doubling nodes moved the coherence by"):
            coh = 2 * mixed_state_over_spectra(phase, sig, pump).matrix[0, 3]
        assert abs(coh - _exact_1d(f)) > 1e-4
        assert abs(abs(_direct_doubled_rule(phase, sig, pump)) - abs(coh)) < 1e-6

    def test_alias_estimate_on_paper_phases(self, paper_config):
        # the paper phases take the estimate, which reads below 1e-9, as
        # does the direct doubled rule
        sig = paper_config.signal
        n = QUAD_NODES
        for phase, pump in _paper_phases(paper_config):
            ls, lp, ws, wp = _spectral_axes(sig, pump, n, QUAD_SPAN_SIGMAS)
            probe_s = sig.center_nm + sig.sigma_nm * _PROBE_X[:, None]
            probe_p = pump.center_nm + pump.sigma_nm * _PROBE_X[None, :]
            phi = np.broadcast_to(phase(ls, lp), (n, n))
            moved = _alias_check(phi, phase(probe_s, lp), phase(ls, probe_p), ws, wp)
            assert moved is not None and moved < 1e-9
            coh = _coherence(phi, ws * wp)
            assert abs(abs(_direct_doubled_rule(phase, sig, pump)) - abs(coh)) < 1e-9

    def test_doubled_interpolation_matrix(self):
        # the probe rows of the doubled rule's interpolation, 8 Lagrange
        # taps per row: exact for degree 7, not for degree 8
        x = np.linspace(-1.0, 1.0, QUAD_NODES)
        t = _PROBE_X / QUAD_SPAN_SIGMAS
        assert _PROBE_ROWS.shape == (len(_PROBES), QUAD_NODES)
        assert np.max(np.abs(t - np.linspace(-1.0, 1.0, 2 * QUAD_NODES)[_PROBES])) < 1e-15
        assert not _PROBE_ROWS.flags.writeable
        assert np.max(np.abs(_PROBE_ROWS.sum(axis=1) - 1.0)) < 1e-14
        for k in range(8):
            assert np.max(np.abs(_PROBE_ROWS @ x**k - t**k)) < 1e-14
        assert np.max(np.abs(_PROBE_ROWS @ x**8 - t**8)) > 1e-12

    def test_alias_estimate_matches_exact_error(self):
        # on one quadratic line the estimate is the node rule's complex
        # error: closed-form orders with their signs where the line's own
        # integral counts, the node sum where it is negligible
        x = np.linspace(-QUAD_SPAN_SIGMAS, QUAD_SPAN_SIGMAS, QUAD_NODES)
        w = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        for a, c in ((20.0, 2.0), (40.0, 4.0), (60.0, 8.0), (0.0, 8.0), (16.5, 0.6),
                     (28.0, 0.0), (62.0, 0.0)):
            line = (a * x + c * x * x)[None, :]
            error = np.sum(w * np.exp(-1j * line[0])) - exact_quadratic_average(a, c=c)
            estimate = _alias_estimate(_fit_lines(line, w)[0], line, w, np.ones(1))
            assert abs(estimate - error) <= 1e-4 * abs(error) + 1e-9, (a, c, estimate, error)

    def test_quadratic_fit(self):
        # the line fit recovers alpha + a x + c x^2 with a zero residual,
        # and sees a cubic term
        x = np.linspace(-QUAD_SPAN_SIGMAS, QUAD_SPAN_SIGMAS, QUAD_NODES)
        w = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        fit, residual = _fit_lines((1e5 + 30.0 * x - 2.5 * x ** 2)[None, :], w)
        assert np.allclose(fit, [[1e5, 30.0, -2.5]], rtol=1e-12)
        assert residual < 1e-9
        assert _fit_lines((0.01 * x ** 3)[None, :], w)[1] > 1e-2
        assert not _LINE_FIT.flags.writeable and not _LINE_POWERS.flags.writeable

    @pytest.mark.parametrize("amplitude, frequency",
                             [(1.0, 200.0), (0.01, 32.0), (0.01, 34.0), (0.01, 100.0)])
    def test_node_scale_alias_warns(self, signal_spectrum, pump_spectrum,
                                    amplitude, frequency):
        # on the nodes these ripples equal a smooth alias, so the estimate
        # from the line fits stays put; the probes off the nodes see the
        # ripple and the doubled rule is evaluated directly
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        phase = lambda s, p: amplitude * np.sin(frequency * (s - c) / sigma) + 0 * p
        ls, lp, ws, wp = _spectral_axes(signal_spectrum, pump_spectrum, QUAD_NODES,
                                        QUAD_SPAN_SIGMAS)
        phi = np.broadcast_to(phase(ls, lp), (QUAD_NODES, QUAD_NODES))
        fit_s, fit_p = _fit_lines(phi.T, ws[:, 0])[0], _fit_lines(phi, wp[0])[0]
        assert (abs(_alias_estimate(fit_s, phi.T, ws[:, 0], wp[0]))
                + abs(_alias_estimate(fit_p, phi, wp[0], ws[:, 0]))) < 1e-6
        probe_s = c + sigma * _PROBE_X[:, None]
        probe_p = pump_spectrum.center_nm + pump_spectrum.sigma_nm * _PROBE_X[None, :]
        misfit = _probe_misfit(phi, phase(probe_s, lp), phase(ls, probe_p), ws, wp)
        assert misfit > _INTERPOLATION_TOL
        with pytest.warns(RuntimeWarning, match="not converged"):
            mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum)

    def test_map_driven_fidelities(self, paper_fiber, paper_compensators,
                                   signal_spectrum, pump_spectrum):
        # the 800-degree uncompensated swing scrambles the state; the
        # few-degree compensated residual does not
        uncomp = mixed_state_over_spectra(lambda s, p: total_phase(paper_fiber, s, p),
                                          signal_spectrum, pump_spectrum, relative_to_mean=True)
        assert best_bell_fidelity(uncomp)[0] <= 0.75

        comp = mixed_state_over_spectra(
            lambda s, p: compensated_phase(paper_fiber, paper_compensators, s, p),
            signal_spectrum, pump_spectrum, relative_to_mean=True)
        assert best_bell_fidelity(comp)[0] >= 0.99


class TestRelativeToMean:
    """The flag equals the mean pass followed by the state of the shifted phase."""

    @staticmethod
    def _two_call(fn, signal, pump):
        mean = spectral_mean_phase(fn, signal, pump)
        return mixed_state_over_spectra(lambda s, p: fn(s, p) - mean, signal, pump)

    def test_paper_states_bit_identical(self, paper_config):
        cfg = paper_config
        for comps in (cfg.compensators, None):
            fn = lambda s, p, comps=comps: compensated_phase(cfg.fiber, comps, s, p)
            for power in (0.0, 10.0, 30.0, 60.0):
                pump = GaussianSpectrum(cfg.pump.center_nm,
                                        cfg.pump.fwhm_nm * (1.0 + cfg.noise.spm_coeff * power))
                flagged = mixed_state_over_spectra(fn, cfg.signal, pump, relative_to_mean=True)
                assert np.array_equal(flagged.matrix,
                                      self._two_call(fn, cfg.signal, pump).matrix)

    def test_rerun_path_bit_identical(self, paper_config):
        # the ripple aliases on the nodes, so the doubled rule is evaluated
        # directly, and the offset is large next to the ripple
        sig, pump = paper_config.signal, paper_config.pump
        fn = lambda s, p: 1e5 + 0.01 * np.sin(32.0 * (s - sig.center_nm) / sig.sigma_nm) + 0 * p
        results = []
        for build in (lambda: mixed_state_over_spectra(fn, sig, pump, relative_to_mean=True),
                      lambda: self._two_call(fn, sig, pump)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                state = build()
            results.append((state.matrix, [str(w.message) for w in caught]))
        (flagged, flagged_warnings), (idiom, idiom_warnings) = results
        assert np.array_equal(flagged, idiom)
        assert flagged_warnings == idiom_warnings
        assert any("not converged" in m for m in flagged_warnings)

    def test_power_sweep_rows_are_the_states_visibilities(self, paper_config):
        cfg = paper_config
        powers = (0.0, 10.0, 30.0, 60.0)
        args = (cfg.noise, cfg.fiber, cfg.compensators)
        rows = visibility_vs_power(*args, powers, cfg.signal, cfg.pump,
                                   baseline_noise=cfg.baseline_noise)
        for (pw, v_rect, v_diag), power in zip(rows, powers):
            state = effective_state_at_power(*args, cfg.signal, cfg.pump, power,
                                             baseline_noise=cfg.baseline_noise)
            assert (pw, v_rect, v_diag) == (power, visibility(state, "rectilinear"),
                                            visibility(state, "diagonal"))


class TestFidelity:
    def test_self_fidelity(self):
        psi = bell_state("psi-")
        state = TwoQubitState(np.outer(psi, psi.conj()))
        assert fidelity(state, psi) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        state = TwoQubitState(np.eye(4, dtype=complex) / 4)
        for name in ("phi+", "phi-", "psi+", "psi-"):
            assert fidelity(state, bell_state(name)) == pytest.approx(0.25, abs=1e-14)

    def test_werner_analytic(self):
        # F = p + (1-p)/4; p = 0.896 reproduces the 0.922 figure exactly
        state = werner_state(0.896)
        assert fidelity(state, bell_state("psi-")) == pytest.approx(0.922, abs=1e-12)

    def test_unnormalized_target_rejected(self):
        state = werner_state(0.5)
        with pytest.raises(ValueError, match="normalized"):
            fidelity(state, np.array([1.0, 0.0, 0.0, 1.0]))


class TestTangle:
    def test_bell_states(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            v = bell_state(name)
            state = TwoQubitState(np.outer(v, v.conj()))
            assert tangle(state) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert tangle(TwoQubitState(np.eye(4, dtype=complex) / 4)) == 0.0

    def test_werner_analytic(self):
        # concurrence (3p-1)/2 for a Werner state, here 0.844
        p = 0.896
        state = werner_state(p)
        assert concurrence(state) == pytest.approx((3 * p - 1) / 2, abs=1e-12)
        assert tangle(state) == pytest.approx(0.712336, abs=1e-9)
        assert abs(tangle(state) - 0.721) / 0.721 < 0.02


class TestVisibility:
    def test_bell_state_both_bases(self):
        v = bell_state("phi+")
        state = TwoQubitState(np.outer(v, v.conj()))
        assert visibility(state, "rectilinear") == pytest.approx(1.0, abs=1e-14)
        assert visibility(state, "diagonal") == pytest.approx(1.0, abs=1e-14)

    def test_dephased_mixture(self):
        state = TwoQubitState(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        assert visibility(state, "rectilinear") == pytest.approx(1.0, abs=1e-14)
        assert visibility(state, "diagonal") == pytest.approx(0.0, abs=1e-14)

    def test_werner_visibility_equals_p(self):
        for p in (0.3, 0.7, 0.95):
            state = werner_state(p)
            assert visibility(state, "rectilinear") == pytest.approx(p, abs=1e-12)
            assert visibility(state, "diagonal") == pytest.approx(p, abs=1e-12)

    def test_undefined_visibility(self):
        vv = np.zeros((4, 4), dtype=complex)
        vv[3, 3] = 1.0
        with pytest.raises(VisibilityUndefinedError):
            visibility(TwoQubitState(vv), "rectilinear")

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            visibility(werner_state(0.9), "circular")


class TestSignalFlip:
    def test_involutive(self):
        state = werner_state(0.8, "phi+")
        twice = relabel_signal_flip(relabel_signal_flip(state))
        assert np.allclose(twice.matrix, state.matrix, atol=1e-15)

    def test_phi_minus_maps_to_psi_minus(self):
        flipped = relabel_signal_flip(pure_phi_state(np.pi))
        assert fidelity(flipped, bell_state("psi-")) == pytest.approx(1.0, abs=1e-14)

    def test_tangle_invariant(self):
        state = werner_state(0.85, "phi-")
        assert tangle(relabel_signal_flip(state)) == pytest.approx(tangle(state), abs=1e-12)

    def test_fidelity_best_bell_invariant(self):
        state = werner_state(0.85, "phi-")
        assert best_bell_fidelity(relabel_signal_flip(state))[0] == pytest.approx(
            best_bell_fidelity(state)[0], abs=1e-12)


class TestStateFidelity:
    def test_identical_states(self):
        state = werner_state(0.6)
        assert state_fidelity(state, state) == pytest.approx(1.0, abs=1e-9)

    def test_pure_states_overlap(self):
        a = pure_phi_state(0.0)
        b = pure_phi_state(np.pi / 2)
        # |<psi_a|psi_b>|^2 = |(1 + e^{i pi/2})/2|^2 = 1/2
        assert state_fidelity(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_orthogonal(self):
        a = pure_phi_state(0.0)
        b = pure_phi_state(np.pi)
        assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-9)
