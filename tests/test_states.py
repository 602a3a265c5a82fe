import math
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
    spectral_coherences,
    spectral_mean_phase,
    state_fidelity,
    tangle,
    total_phase,
    compensated_phase,
    visibility,
    werner_state,
)
from conftest import exact_quadratic_average
from xsplice import counts, states
from xsplice.counts import effective_state_at_power, visibility_vs_power
from xsplice.states import (DESIGN_POINTS, DESIGN_SPAN_SIGMAS, QUAD_NODES, QUAD_SPAN_SIGMAS,
                            VisibilityUndefinedError, _FIT_TOL, _INTERPOLATION_TOL, _PROBE_X,
                            _PUMP_GROUP, _RULES, _alias_check, _alias_estimate,
                            _coherence, _group_coherences, _rule, bandwidth_grid, spectral_grid)


def _warns_unconverged(phase, signal, pump):
    """Whether ``mixed_state_over_spectra`` warns on ``phase``, and its coherence."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = mixed_state_over_spectra(phase, signal, pump)
    return any("not converged" in str(w.message) for w in caught), 2 * state.matrix[0, 3]


def _messages(build):
    """``build()`` and the texts of the warnings it issued, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build()
    return result, [str(w.message) for w in caught]


def _direct_doubled_rule(phase, signal, pump):
    """Oracle: the doubled rule on a second evaluation of the phase."""
    ls, lp, w = spectral_grid(signal, pump, 2 * QUAD_NODES, QUAD_SPAN_SIGMAS)
    return np.sum(w * np.exp(-1j * phase(ls, lp)))


def _sampled_phase(phase, rule):
    """``phase(x_s, x_p)``, x in sigma, on ``rule``'s nodes and on its probe lines.

    Returns the arrays that ``_alias_check`` takes for one phase: the
    node block, the signal probes on the pump nodes and the pump probes
    on the signal nodes, each C-ordered.
    """
    x, n, probes = rule.nodes, len(rule.nodes), len(_PROBE_X)
    return (np.array(np.broadcast_to(phase(x[:, None], x[None, :]), (n, n))),
            np.array(np.broadcast_to(phase(_PROBE_X[:, None], x[None, :]), (probes, n))),
            np.array(np.broadcast_to(phase(x[:, None], _PROBE_X[None, :]), (n, probes))))


def _per_axis_check(phi, probed_s, probed_p, rule):
    """Oracle: ``_alias_check`` of one phase, one axis at a time.

    Each axis' node lines, as a C-ordered stack of one, take the fit, the
    residual test, the probe misfit and the alias estimate; both fits
    must hold, and the axes' misfits and estimates add.
    """
    held, misfit, error = True, 0.0, 0.0
    for lines, probed in ((np.array(phi.T)[None], probed_s.T[None]),
                          (phi[None], probed_p[None])):
        fit = lines @ rule.line_fit.T
        held &= bool(np.max(np.abs(lines - fit @ rule.line_powers) @ rule.weights) <= _FIT_TOL)
        misfit += np.max(rule.weights @ np.abs(lines @ rule.probe_rows.T - probed))
        error += abs(_alias_estimate(fit, lines, rule)[0])
    return float(error) if held and misfit <= _INTERPOLATION_TOL else None


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


class TestBandwidthGrid:
    @pytest.mark.parametrize("args, match", [
        ((670.0, 0.23, 0), "points"), ((670.0, 0.23, -3), "points"),
        ((670.0, 0.23, 2.5), "points"), ((670.0, 0.23, "5"), "points"),
        ((np.nan, 0.23, 5), "center"), ((-np.inf, 0.23, 5), "center"),
        ((670.0, -0.2, 5), "fwhm"), ((670.0, 0.0, 5), "fwhm"),
        ((670.0, np.nan, 5), "fwhm"), ((670.0, np.inf, 1), "fwhm"),
        ((670.0, 0.23, 5, 0.0), "span"), ((670.0, 0.23, 5, np.nan), "span"),
    ])
    def test_nonsense_axes_rejected(self, args, match):
        # bandwidth_grid spans the design window; a span is spectral_grid's
        center, fwhm, points, *span = args
        with pytest.raises(ValueError, match=match):
            if span:
                spectrum = GaussianSpectrum(center, fwhm)
                spectral_grid(spectrum, spectrum, points, *span)
            else:
                bandwidth_grid(*args)

    def test_ascending_and_centred(self):
        ax = bandwidth_grid(670.0, 0.23, np.int64(5))
        assert np.all(np.diff(ax) > 0)
        assert ax[2] == 670.0
        assert bandwidth_grid(670.0, 0.23, 1).tolist() == [670.0]

    @pytest.mark.parametrize("points, span", [(QUAD_NODES, QUAD_SPAN_SIGMAS),
                                              (DESIGN_POINTS, DESIGN_SPAN_SIGMAS)])
    def test_one_rule_in_sigma(self, points, span):
        # a spectrum only places the rule's nodes, at c + sigma x; the
        # weights exp(-x^2/2) / sum are bit for bit the same for every spectrum
        x = np.linspace(-span, span, points)
        w = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        joints = []
        for signal, pump in ((GaussianSpectrum(670.0, 0.23), GaussianSpectrum(771.0, 0.3)),
                             (GaussianSpectrum(1550.0, 2.0), GaussianSpectrum(780.0, 0.05))):
            ls, lp, joint = spectral_grid(signal, pump, points, span)
            assert np.array_equal(joint, np.outer(w, w))
            assert abs(joint.sum() - 1.0) <= 1e-15
            for spec, axis in ((signal, ls[:, 0]), (pump, lp[0])):
                placed = spec.center_nm + spec.sigma_nm * x
                assert np.array_equal(axis, placed)
                if span == DESIGN_SPAN_SIGMAS:
                    assert np.array_equal(bandwidth_grid(spec.center_nm, spec.fwhm_nm, points),
                                          placed)
            joints.append(joint)
        assert np.array_equal(*joints)

    def test_one_rule_per_points_and_span(self):
        # built once and shared read-only; np.int64 points and an int span
        # name the same rule, and the state's constants are its values
        rule = _rule(DESIGN_POINTS, DESIGN_SPAN_SIGMAS)
        assert all(a is b for a, b in zip(_rule(np.int64(DESIGN_POINTS), 3), rule))
        state = _RULES[-1]
        for a, b in zip(_rule(QUAD_NODES, QUAD_SPAN_SIGMAS), (state.nodes, state.weights,
                                                              state.joint)):
            assert a.tobytes() == b.tobytes() and not b.flags.writeable
        signal, pump = GaussianSpectrum(670.0, 0.23), GaussianSpectrum(771.0, 0.3)
        assert spectral_grid(signal, pump, DESIGN_POINTS, DESIGN_SPAN_SIGMAS)[2] is rule[2]
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
        # the arguments are checked before the cache is asked, so an
        # unhashable or non-integral count fails as a ValueError
        for points in ([5], 0, 2.5):
            with pytest.raises(ValueError, match="points"):
                _rule(points, DESIGN_SPAN_SIGMAS)


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
    def test_wrong_shape(self):
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(2, 2\)"):
            TwoQubitState(np.eye(2, dtype=complex) / 2)

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
        # the state's coherence is the real cos/sin sum over the nodes of
        # the rule it takes, here the first rule, whose check clears; that
        # sum is the complex-exp one to rounding
        fn = lambda s, p: compensated_phase(paper_fiber, paper_compensators, s, p)
        mean = spectral_mean_phase(fn, signal_spectrum, pump_spectrum)
        phase = lambda s, p: fn(s, p) - mean
        state = mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum)
        ls, lp, w = spectral_grid(signal_spectrum, pump_spectrum, len(_RULES[0].nodes),
                                  QUAD_SPAN_SIGMAS)
        phi = phase(ls, lp)
        coh = 2 * state.matrix[0, 3]
        assert coh == complex(np.einsum("ij,ij->", w, np.cos(phi)),
                              -np.einsum("ij,ij->", w, np.sin(phi)))
        assert abs(coh - np.sum(w * np.exp(-1j * phi))) <= 1e-15

    def test_one_weight_normalisation(self, signal_spectrum, pump_spectrum):
        # the weights of either axis sum to 1 and the joint weights, the
        # state's and spectral_grid's, are their product
        state = _RULES[-1]
        assert abs(state.weights.sum() - 1.0) <= 1e-15
        w = spectral_grid(signal_spectrum, pump_spectrum, QUAD_NODES, QUAD_SPAN_SIGMAS)[2]
        assert np.array_equal(w, state.weights[:, None] * state.weights[None, :])
        assert np.array_equal(state.joint, w)

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

    @pytest.mark.parametrize("x0", [-3.0, -2.5, 2.5, 3.0])
    def test_outer_probe_lines_see_off_centre_ripples(self, paper_config, x0):
        # a ripple localised to 0.3 sigma, 2.5 or 3 sigma from the centre,
        # moves the nodes' coherence by 2.4e-4 or 3.7e-5. Only the probe
        # lines at +/-2 and +/-3 sigma see it: with the lines at -1, 0 and
        # +1 sigma alone, no case warns
        sig, pump = paper_config.signal, paper_config.pump
        f = lambda x: 0.02 * np.sin(32.0 * x) * np.exp(-0.5 * ((x - x0) / 0.3) ** 2)
        warned, coh = _warns_unconverged(
            lambda s, p: f((s - sig.center_nm) / sig.sigma_nm) + 0 * p, sig, pump)
        assert abs(coh - _exact_1d(f)) > 3e-5
        assert warned

    @pytest.mark.parametrize("power, messages", [
        (150.0, []),
        (350.0, ["spectral quadrature not converged: doubling nodes moved the coherence by "
                 "2.22e-06"]),
    ])
    def test_rerun_on_the_paper_source(self, paper_config, power, messages):
        # with the configured crystals the probes send the paper phase to
        # the doubled rule from 120 mW on. Against a 401^2 +/-9 sigma
        # reference, relative to its own mean, the nodes are 1.1e-8 off at
        # 150 mW, where the rerun is quiet, and 2.19e-6 off at 350 mW,
        # where it warns
        cfg = paper_config
        pump = counts._broadened(cfg.noise, cfg.pump, power)
        calls = []

        def phase(s, p):
            calls.append(np.broadcast(s, p).shape)
            return compensated_phase(cfg.fiber, cfg.compensators, s, p)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            effective_state_at_power(cfg.noise, cfg.fiber, cfg.compensators, cfg.signal,
                                     cfg.pump, power)
            coh, = spectral_coherences(phase, cfg.signal, [pump], relative_to_mean=True)
        assert [str(w.message) for w in caught] == messages * 2
        # the 20- and 32-node rules' nodes with the probes, whose checks do
        # not clear; then the state rule's, whose probes send it to the
        # doubled rule
        assert calls == [(27, 27), (39, 39), (QUAD_NODES + 7, QUAD_NODES + 7),
                         (2 * QUAD_NODES, 2 * QUAD_NODES)]
        x = np.linspace(-9.0, 9.0, 401)
        w = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        ref = phase((cfg.signal.center_nm + cfg.signal.sigma_nm * x)[:, None],
                    (pump.center_nm + pump.sigma_nm * x)[None, :])
        ref -= w @ ref @ w
        error = abs(coh - w @ np.exp(-1j * ref) @ w)
        assert (error > 1e-6) == bool(messages)

    def test_alias_estimate_on_paper_phases(self, paper_config):
        # the paper phases take the estimate, which reads below 1e-9, as
        # does the direct doubled rule
        sig = paper_config.signal
        n = QUAD_NODES
        for phase, pump in _paper_phases(paper_config):
            ls, lp, w = spectral_grid(sig, pump, n, QUAD_SPAN_SIGMAS)
            probe_s = sig.center_nm + sig.sigma_nm * _PROBE_X[:, None]
            probe_p = pump.center_nm + pump.sigma_nm * _PROBE_X[None, :]
            phi = np.broadcast_to(phase(ls, lp), (n, n))
            moved, = _alias_check(phi[None], phase(probe_s, lp)[None], phase(ls, probe_p)[None],
                                  _RULES[-1])
            assert moved is not None and moved < 1e-9
            coh, = _coherence(phi[None], w)
            assert abs(abs(_direct_doubled_rule(phase, sig, pump)) - abs(coh)) < 1e-9

    def test_alias_check_recorded_values(self, paper_config):
        # the values that the check returns on the rule's weights, each on
        # its side of 1e-6: the cubic along the pump fails the pump pass's
        # fit, the node-scale ripple the probes
        sig, pump = paper_config.signal, paper_config.pump
        xs = lambda s: (s - sig.center_nm) / sig.sigma_nm
        xp = lambda p: (p - pump.center_nm) / pump.sigma_nm
        # seven powers per pump scale, 1.0 the third scale, then the same uncompensated
        paper = list(_paper_phases(paper_config))
        cases = [
            (*paper[2 * 7 + 3], 0.0),
            (*paper[35 + 2 * 7], 0.0),
            (lambda s, p: 60.72 * xs(s) + 0 * p, pump, 1.0161586497125677e-06),
            (lambda s, p: 40.0 * xs(s) + 40.0 * xp(p), pump, 2.1916647020956254e-16),
            (lambda s, p: 20.0 * xs(s) + 2.0 * xs(s) ** 2 + 0 * p, pump, 0.003452199720119038),
            (lambda s, p: 0.6 * xp(p) ** 3 + 0 * s, pump, None),
            (lambda s, p: 0.01 * np.sin(32.0 * xs(s)) + 0 * p, pump, None),
        ]
        for phase, pmp, recorded in cases:
            ls, lp, _ = spectral_grid(sig, pmp, QUAD_NODES, QUAD_SPAN_SIGMAS)
            probes = len(_PROBE_X)
            moved, = _alias_check(
                np.broadcast_to(phase(ls, lp), (QUAD_NODES, QUAD_NODES))[None],
                np.broadcast_to(phase(sig.center_nm + sig.sigma_nm * _PROBE_X[:, None], lp),
                                (probes, QUAD_NODES))[None],
                np.broadcast_to(phase(ls, pmp.center_nm + pmp.sigma_nm * _PROBE_X[None, :]),
                                (QUAD_NODES, probes))[None], _RULES[-1])
            if recorded is None:
                assert moved is None
            else:
                assert moved == recorded

    @pytest.mark.parametrize("rule", _RULES, ids=[len(r.nodes) for r in _RULES])
    @pytest.mark.parametrize("size", [1, 2, 16])
    def test_stacked_check_keeps_the_per_axis_halves(self, rule, size):
        # in a stack of any size each phase gets exactly what it gets alone,
        # and that is what the check, one axis at a time, gives it: both
        # fits must hold, and the two axes' misfits and estimates add (to
        # rounding: a matmul's bits depend on the stack's height). The
        # catalogue mixes phases that clear, phases whose quadratic fit
        # fails along one axis only, and node-scale ripples that fail the
        # probe misfit
        catalogue = [
            lambda s, p: 0.3 * s + 0.2 * p + 0.01 * s * p,
            lambda s, p: 20.0 * s + 2.0 * s ** 2 + 0 * p,
            lambda s, p: 40.0 * s + 40.0 * p,
            lambda s, p: 0.6 * p ** 3 + 0 * s,
            lambda s, p: 0.6 * s ** 3 + 0 * p,
            lambda s, p: 0.01 * np.sin(32.0 * s) + 0 * p,
            lambda s, p: 0.01 * np.sin(32.0 * p) + 0 * s,
        ]
        phases = [_sampled_phase(catalogue[k % len(catalogue)], rule)
                  for k in range(size + len(catalogue) - 1)]
        kinds = set()
        for start in range(len(catalogue)):
            chosen = phases[start:start + size]
            stacked = _alias_check(*map(np.array, zip(*chosen)), rule)
            assert stacked == [_alias_check(*(a[None] for a in p), rule)[0] for p in chosen]
            for got, p in zip(stacked, chosen):
                want = _per_axis_check(*p, rule)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got == pytest.approx(want, rel=1e-9)
            kinds |= {type(e) for e in stacked}
        assert kinds == {float, type(None)}

    def test_halves_of_the_probe_misfit_add(self):
        # a node-scale ripple along each axis whose misfit on either axis
        # alone is below the tolerance, but whose two misfits together are
        # above it: the check does not hold
        rule = _RULES[-1]
        ripple = lambda x: np.sin(32.0 * x)
        unit = _sampled_phase(lambda s, p: ripple(s) + 0 * p, rule)
        w, rows = rule.weights, rule.probe_rows
        unit_misfit = np.max(np.abs(rows @ unit[0] - unit[1]) @ w)
        amplitude = 0.7 * _INTERPOLATION_TOL / unit_misfit
        for one_axis in (lambda s, p: amplitude * ripple(s) + 0 * p,
                         lambda s, p: amplitude * ripple(p) + 0 * s):
            phi, probed_s, probed_p = _sampled_phase(one_axis, rule)
            misfit = (np.max(np.abs(rows @ phi - probed_s) @ w)
                      + np.max(w @ np.abs(phi @ rows.T - probed_p)))
            assert 0.5 * _INTERPOLATION_TOL < misfit < _INTERPOLATION_TOL
            assert _alias_check(phi[None], probed_s[None], probed_p[None], rule)[0] is not None
        both = _sampled_phase(lambda s, p: amplitude * (ripple(s) + ripple(p)), rule)
        assert _alias_check(*(a[None] for a in both), rule) == [None]

    def test_doubled_interpolation_matrix(self):
        # the probe rows of the doubled rule's interpolation, 8 Lagrange
        # taps per row: exact for degree 7, not for degree 8
        rows = _RULES[-1].probe_rows
        x = np.linspace(-1.0, 1.0, QUAD_NODES)
        t = _PROBE_X / QUAD_SPAN_SIGMAS
        assert rows.shape == (len(_PROBE_X), QUAD_NODES)
        # the probes are nodes of the doubled rule
        doubled = np.linspace(-1.0, 1.0, 2 * QUAD_NODES)
        j = np.rint((t + 1.0) * (2 * QUAD_NODES - 1) / 2.0).astype(int)
        assert np.max(np.abs(t - doubled[j])) < 1e-15
        assert not rows.flags.writeable
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-14
        for k in range(8):
            assert np.max(np.abs(rows @ x**k - t**k)) < 1e-14
        assert np.max(np.abs(rows @ x**8 - t**8)) > 1e-12

    def test_probes_sit_off_every_rules_nodes(self):
        # the rules ascend to the state rule, and on each every probe sits
        # at least 0.06 of a node step off the nodes (0.071 at 20 nodes,
        # 0.063 at 32, 0.126 at 64), so a component that aliases onto the
        # nodes does not alias onto the probes as well
        sizes = [len(rule.nodes) for rule in _RULES]
        assert sizes == sorted(set(sizes)) and sizes[-1] == QUAD_NODES
        for rule in _RULES:
            n = len(rule.nodes)
            t = (_PROBE_X + QUAD_SPAN_SIGMAS) * (n - 1) / (2 * QUAD_SPAN_SIGMAS)
            assert np.min(np.abs(t - np.rint(t))) >= 0.06, n
            assert np.array_equal(rule.sampled_x[n:], _PROBE_X)

    def test_alias_estimate_matches_exact_error(self):
        # on a stack of one quadratic line, whose weights across sum to 1,
        # the estimate is the node rule's complex error: closed-form orders
        # with their signs where the line's own integral counts, the node
        # sum where it is negligible
        x = np.linspace(-QUAD_SPAN_SIGMAS, QUAD_SPAN_SIGMAS, QUAD_NODES)
        w = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        for a, c in ((20.0, 2.0), (40.0, 4.0), (60.0, 8.0), (0.0, 8.0), (16.5, 0.6),
                     (28.0, 0.0), (62.0, 0.0)):
            line = a * x + c * x * x
            error = np.sum(w * np.exp(-1j * line)) - exact_quadratic_average(a, c=c)
            lines = np.tile(line, (QUAD_NODES, 1))
            rule = _RULES[-1]
            estimate, = _alias_estimate((lines @ rule.line_fit.T)[None], lines[None], rule)
            assert abs(estimate - error) <= 1e-4 * abs(error) + 1e-9, (a, c, estimate, error)

    def test_quadratic_fit(self):
        # the line fit recovers alpha + a x + c x^2 with a zero residual,
        # and sees a cubic term
        x = np.linspace(-QUAD_SPAN_SIGMAS, QUAD_SPAN_SIGMAS, QUAD_NODES)
        w = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        fit, powers = _RULES[-1].line_fit, _RULES[-1].line_powers
        residual = lambda line: w @ np.abs(line - line @ fit.T @ powers)
        quadratic = 1e5 + 30.0 * x - 2.5 * x ** 2
        assert np.allclose(quadratic @ fit.T, [1e5, 30.0, -2.5], rtol=1e-12)
        assert residual(quadratic) < 1e-9
        assert residual(0.01 * x ** 3) > 1e-2
        assert not fit.flags.writeable and not powers.flags.writeable

    @pytest.mark.parametrize("amplitude, frequency",
                             [(1.0, 200.0), (0.01, 32.0), (0.01, 34.0), (0.01, 100.0)])
    def test_node_scale_alias_warns(self, signal_spectrum, pump_spectrum,
                                    amplitude, frequency):
        # on the nodes these ripples equal a smooth alias, so the estimate
        # from the line fits stays put; the probes off the nodes see the
        # ripple and the doubled rule is evaluated directly
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        phase = lambda s, p: amplitude * np.sin(frequency * (s - c) / sigma) + 0 * p
        ls, lp, _ = spectral_grid(signal_spectrum, pump_spectrum, QUAD_NODES, QUAD_SPAN_SIGMAS)
        phi = np.broadcast_to(phase(ls, lp), (QUAD_NODES, QUAD_NODES))
        rule = _RULES[-1]
        assert sum(abs(_alias_estimate((lines @ rule.line_fit.T)[None], lines[None], rule)[0])
                   for lines in (phi.T, phi)) < 1e-6
        probed_s = phase(c + sigma * _PROBE_X[:, None], lp)
        probed_p = phase(ls, pump_spectrum.center_nm + pump_spectrum.sigma_nm * _PROBE_X[None, :])
        assert _alias_check(phi[None], probed_s[None], probed_p[None], rule) == [None]
        rows, w = rule.probe_rows, rule.weights
        misfit = (np.max(np.abs(rows @ phi - probed_s) @ w)
                  + np.max(w @ np.abs(phi @ rows.T - probed_p)))
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
        # the mean on the rule the pump takes: the first rule whose check
        # clears, else the state rule's, spectral_mean_phase
        taken = next((rule for rule in _RULES[:-1]
                      if _group_coherences(fn, signal, [pump], False, False, rule) != [None]),
                     None)
        if taken is None:
            mean = spectral_mean_phase(fn, signal, pump)
        else:
            ls, lp, w = spectral_grid(signal, pump, len(taken.nodes), QUAD_SPAN_SIGMAS)
            mean = float(np.sum(w * fn(ls, lp)))
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
            # the closed form and the 4x4 state round differently, by ulps
            assert pw == power
            for v, basis in ((v_rect, "rectilinear"), (v_diag, "diagonal")):
                expected = visibility(state, basis)
                assert abs(v - expected) <= 4 * math.ulp(expected)

    def test_power_sweep_builds_no_state(self, paper_config, monkeypatch):
        cfg = paper_config
        args = (cfg.noise, cfg.fiber, cfg.compensators, (5.0, 30.0, 60.0), cfg.signal, cfg.pump)
        rows = visibility_vs_power(*args, baseline_noise=cfg.baseline_noise)

        def no_state(matrix):
            raise AssertionError("visibility_vs_power built a TwoQubitState")

        monkeypatch.setattr(counts, "TwoQubitState", no_state)
        assert visibility_vs_power(*args, baseline_noise=cfg.baseline_noise) == rows


class TestTwoStages:
    """The coherence of the first rule whose check clears 1e-6, the state rule's path elsewhere."""

    #: Phases that neither the 20- nor the 32-node rule clears: the
    #: uncompensated paper phase at 45-60 mW, 1.7e-5 to 0.21 off on the
    #: 32-node rule; the compensated one at 130-150 mW, whose probes fail;
    #: and the two phases of ``test_warning_names_what_it_measured``.
    FALLBACK = [("uncompensated", 45.0), ("uncompensated", 50.0), ("uncompensated", 60.0),
                ("compensated", 130.0), ("compensated", 140.0), ("compensated", 150.0),
                ("slope", None), ("ripple", None)]

    @staticmethod
    def _case(kind, power, cfg, signal_spectrum, pump_spectrum):
        """``(phase, signal, pump, relative_to_mean)`` of one case."""
        if power is not None:
            comps = cfg.compensators if kind == "compensated" else None
            return (lambda s, p: compensated_phase(cfg.fiber, comps, s, p), cfg.signal,
                    counts._broadened(cfg.noise, cfg.pump, power), True)
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        phase = {"slope": lambda s, p: 30.0 * (s - c) / sigma,
                 "ripple": lambda s, p: 0.01 * np.sin(32.0 * (s - c) / sigma) + 0 * p}[kind]
        return phase, signal_spectrum, pump_spectrum, False

    @pytest.mark.parametrize("kind, power", FALLBACK)
    def test_fallback_is_the_state_rule_path(self, paper_config, signal_spectrum,
                                             pump_spectrum, kind, power):
        # the matrix of the state rule's node sum, relative to
        # spectral_mean_phase where the flag is set, and the state rule's
        # warnings, bit for bit
        phase, signal, pump, relative = self._case(kind, power, paper_config, signal_spectrum,
                                                   pump_spectrum)
        for rule in _RULES[:-1]:
            assert _group_coherences(phase, signal, [pump], relative, False, rule) == [None]
        state, messages = _messages(lambda: mixed_state_over_spectra(
            phase, signal, pump, relative_to_mean=relative))
        ls, lp, w = spectral_grid(signal, pump, QUAD_NODES, QUAD_SPAN_SIGMAS)
        phi = np.broadcast_to(phase(ls, lp), w.shape)
        if relative:
            phi = phi - spectral_mean_phase(phase, signal, pump)
        coh = complex(np.einsum("ij,ij->", w, np.cos(phi)), -np.einsum("ij,ij->", w, np.sin(phi)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3] = 0.5 * coh
        expected[3, 0] = np.conj(expected[0, 3])
        assert np.array_equal(state.matrix, expected)
        full, full_messages = _messages(lambda: _group_coherences(
            phase, signal, [pump], relative, False, _RULES[-1]))
        assert full == [coh]
        assert messages == full_messages
        assert bool(messages) == (power is None)

    @pytest.mark.parametrize("power, clears, error", [(40.0, True, 4.63e-8),
                                                      (45.0, False, 1.72e-5)])
    def test_half_rule_estimate_is_its_error(self, paper_config, power, clears, error):
        # the uncompensated paper phase, relative to the half rule's mean:
        # the 32-node rule's exact error, from an 801^2 +/-9 sigma
        # reference, on either side of 1e-6, and its estimate, within 1e-3
        # of it. The 20-node rule clears neither power, so the state is the
        # half rule's where that clears, and the state rule's elsewhere
        cfg = paper_config
        sig, pump = cfg.signal, counts._broadened(cfg.noise, cfg.pump, power)
        fn = lambda s, p: total_phase(cfg.fiber, s, p)
        half_rule, = [rule for rule in _RULES if len(rule.nodes) == QUAD_NODES // 2]
        ls, lp, w = spectral_grid(sig, pump, len(half_rule.nodes), QUAD_SPAN_SIGMAS)
        mean = float(np.sum(w * fn(ls, lp)))
        phase = lambda s, p: fn(s, p) - mean
        moved, = _alias_check(phase(ls, lp)[None],
                              phase(sig.center_nm + sig.sigma_nm * _PROBE_X[:, None], lp)[None],
                              phase(ls, pump.center_nm + pump.sigma_nm * _PROBE_X[None, :])[None],
                              half_rule)
        x = np.linspace(-9.0, 9.0, 801)
        wx = np.exp(-0.5 * x * x) / np.sum(np.exp(-0.5 * x * x))
        ref = wx @ np.exp(-1j * phase((sig.center_nm + sig.sigma_nm * x)[:, None],
                                      (pump.center_nm + pump.sigma_nm * x)[None, :])) @ wx
        half, = _coherence(phase(ls, lp)[None], w)
        assert abs(half - ref) == pytest.approx(error, rel=0.01)
        assert moved == pytest.approx(abs(half - ref), rel=1e-3)
        assert (moved <= 1e-6) == clears
        assert _group_coherences(fn, sig, [pump], True, False, _RULES[0]) == [None]
        state = mixed_state_over_spectra(fn, sig, pump, relative_to_mean=True)
        full, = _group_coherences(fn, sig, [pump], True, False, _RULES[-1])
        assert 2 * state.matrix[0, 3] == (half if clears else full)

    def test_middle_rule_takes_what_the_first_misses(self, paper_config):
        # the uncompensated paper phase at 30 mW fails the 20-node check
        # and clears the 32-node one: the state is that rule's coherence,
        # bit for bit, from one phase call on each of the two rules, with
        # no warning
        cfg = paper_config
        pump = counts._broadened(cfg.noise, cfg.pump, 30.0)
        fn = lambda s, p: total_phase(cfg.fiber, s, p)
        calls = []

        def phase(s, p):
            calls.append(np.broadcast(s, p).shape)
            return fn(s, p)

        state, messages = _messages(lambda: mixed_state_over_spectra(
            phase, cfg.signal, pump, relative_to_mean=True))
        assert not messages
        assert calls == [(27, 27), (39, 39)]
        assert _group_coherences(fn, cfg.signal, [pump], True, False, _RULES[0]) == [None]
        assert [2 * state.matrix[0, 3]] == _group_coherences(fn, cfg.signal, [pump], True,
                                                             False, _RULES[1])


class TestSpectralCoherences:
    """A stack of pump spectra gives what each pump gives alone, warnings included."""

    SIGNAL = GaussianSpectrum(670.0, 0.23)

    #: 760 nm: a ripple on the signal node scale, which the probes send to
    #: the doubled rule; 790 nm: a signal slope whose alias estimate
    #: exceeds 1e-6 on every rule; 780 nm: a gentler slope, which the first
    #: rule does not clear and the second does; near 771 nm: smooth, which
    #: the first rule clears. The first 16 of the twenty pumps fill one
    #: group, whose four rough pumps fall back to the state rule; the
    #: other four start the next, whose 780 nm pump takes the second rule.
    PUMPS = [GaussianSpectrum(c, 0.3) for c in (771.0, 760.0, 790.0, 771.5, 790.2, 759.8, 772.0,
                                                771.2, 772.5, 770.8, 770.5, 771.8, 771.3, 772.2,
                                                770.6, 771.7, 772.8, 780.0, 771.4, 770.9)]

    @classmethod
    def _phase(cls, s, p):
        x = (s - cls.SIGNAL.center_nm) / cls.SIGNAL.sigma_nm
        bump = lambda c: np.exp(-0.5 * ((p - c) / 2.0) ** 2)
        return (0.1 * x * (p - 771.0) + 0.01 * np.sin(32.0 * x) * bump(760.0)
                + 61.0 * x * bump(790.0) + 6.0 * x * bump(780.0))

    _messages = staticmethod(_messages)

    def _one_at_a_time(self, phase, relative_to_mean):
        cohs, messages = [], []
        for pump in self.PUMPS:
            state, caught = self._messages(lambda: mixed_state_over_spectra(
                phase, self.SIGNAL, pump, relative_to_mean=relative_to_mean))
            cohs.append(2 * state.matrix[0, 3])
            messages += caught
        return cohs, messages

    @pytest.mark.parametrize("relative_to_mean", [False, True])
    def test_stack_matches_each_pump_alone(self, relative_to_mean):
        calls = []

        def phase(s, p):
            calls.append(np.broadcast(s, p).shape)
            return self._phase(s, p)

        stacked, messages = self._messages(lambda: spectral_coherences(
            phase, self.SIGNAL, self.PUMPS, relative_to_mean=relative_to_mean))
        # one first-rule call per group; a second-rule call for the rough
        # pumps of the first group, then a state-rule call and one
        # doubled-rule rerun per rippled pump; a second-rule call for the
        # 780 nm pump of the next group
        first, second, full = 27, 39, QUAD_NODES + 7
        assert _PUMP_GROUP < len(self.PUMPS) < 2 * _PUMP_GROUP
        assert calls == [(first, _PUMP_GROUP * first), (second, 4 * second), (full, 4 * full),
                         (2 * QUAD_NODES, 2 * QUAD_NODES), (2 * QUAD_NODES, 2 * QUAD_NODES),
                         (first, (len(self.PUMPS) - _PUMP_GROUP) * first), (second, second)]
        alone, alone_messages = self._one_at_a_time(self._phase, relative_to_mean)
        assert stacked == alone
        assert messages == alone_messages
        assert [m.split(": ")[1].rsplit(" ", 1)[0] for m in messages] == [
            "doubling nodes moved the coherence by",
            "the nodes' coherence has an estimated aliasing error of",
            "the nodes' coherence has an estimated aliasing error of",
            "doubling nodes moved the coherence by"]

    @pytest.mark.parametrize("relative_to_mean", [False, True])
    def test_real_parts_keep_the_warnings(self, relative_to_mean):
        # the sweep's path on the rippled pumps, which rerun, and the sloped
        # ones, which trip the alias estimate
        cohs, messages = self._messages(lambda: spectral_coherences(
            self._phase, self.SIGNAL, self.PUMPS, relative_to_mean=relative_to_mean))
        real, real_messages = self._messages(lambda: spectral_coherences(
            self._phase, self.SIGNAL, self.PUMPS, relative_to_mean=relative_to_mean, real=True))
        assert real == [c.real for c in cohs]
        assert real_messages == messages
        assert len(messages) == 4

    def test_only_a_rerun_pump_takes_an_imaginary_part(self, paper_config, monkeypatch):
        calls = []

        def spy(phi, w, real=False):
            out = _coherence(phi, w, real)
            calls.append((len(phi), real, out))
            return out

        monkeypatch.setattr(states, "_coherence", spy)
        cfg = paper_config
        visibility_vs_power(cfg.noise, cfg.fiber, cfg.compensators, np.linspace(1.0, 56.0, 16),
                            cfg.signal, cfg.pump)
        assert [(size, real) for size, real, _ in calls] == [(16, True)] == (
            [(_PUMP_GROUP, True)] * (16 // _PUMP_GROUP))
        # each rippled pump reruns: its own node coherence and the doubled
        # rule's, both complex; the node one is the complex path's bit for bit
        cohs, _ = self._messages(lambda: spectral_coherences(self._phase, self.SIGNAL,
                                                             self.PUMPS))
        calls.clear()
        self._messages(lambda: spectral_coherences(self._phase, self.SIGNAL, self.PUMPS,
                                                   real=True))
        # per group the first rule's real sum, then the second's for the
        # pumps 5 nm or more from 771 nm, which fall back, then the state
        # rule's for those of them 10 nm or more from 771 nm
        expected, nodes = [], []
        for start in range(0, len(self.PUMPS), _PUMP_GROUP):
            group = self.PUMPS[start:start + _PUMP_GROUP]
            expected.append((len(group), True))
            for far in (5.0, 10.0):
                rough = [(k, pump) for k, pump in enumerate(group, start)
                         if abs(pump.center_nm - 771.0) > far]
                if rough:
                    expected.append((len(rough), True))
            for k, pump in rough:
                if pump.center_nm < 765.0:
                    expected += [(1, False), (1, False)]
                    nodes.append([cohs[k]])
        assert [(size, real) for size, real, _ in calls] == expected
        assert [out for _, real, out in calls if not real][::2] == nodes

    @pytest.mark.parametrize("relative_to_mean", [False, True])
    def test_scalar_phase(self, relative_to_mean):
        phase = lambda s, p: 0.3
        stacked, messages = self._messages(lambda: spectral_coherences(
            phase, self.SIGNAL, self.PUMPS, relative_to_mean=relative_to_mean))
        assert (stacked, messages) == self._one_at_a_time(phase, relative_to_mean)
        assert not messages


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

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_target_rejected(self, bad):
        # a NaN norm fails no "> tol" test; the check must hold, not merely not fail
        with pytest.raises(ValueError, match="normalized"):
            fidelity(werner_state(0.5), np.array([bad, 0.0, 0.0, 0.0]))


class TestTangle:
    def test_bell_states(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            v = bell_state(name)
            state = TwoQubitState(np.outer(v, v.conj()))
            assert tangle(state) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert tangle(TwoQubitState(np.eye(4, dtype=complex) / 4)) == 0.0

    @pytest.mark.parametrize("phi", [0.0, 0.3, 2.0])
    def test_rank_deficient_state_ignores_rounding(self, phi):
        # the three zero eigenvalues of a pure state's rho rho~ are rounding;
        # moving the state by 1e-16 must not move its tangle by the 1e-8
        # that square roots of +-1e-16 would give
        pure = pure_phi_state(phi)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        h -= np.trace(h) / 4 * np.eye(4)
        moved = TwoQubitState(pure.matrix + 1e-16 * h / np.abs(h).max())
        assert not np.array_equal(moved.matrix, pure.matrix)
        assert tangle(moved) == pytest.approx(tangle(pure), abs=1e-12)

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
