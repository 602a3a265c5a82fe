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
from xsplice.counts import effective_state_at_power, visibility_vs_power
from xsplice.states import (QUAD_NODES, QUAD_SPAN_SIGMAS, VisibilityUndefinedError,
                            _DOUBLED, _coherence, _interpolated_doubled_phase,
                            _spectral_axes, spectral_grid)


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

    def test_one_weight_normalisation(self, paper_fiber, paper_compensators,
                                      signal_spectrum, pump_spectrum):
        # each axis' weights sum to 1, the joint weights are their product,
        # and the coherence does not depend on how blocks tile the rule
        ls, lp, ws, wp = _spectral_axes(signal_spectrum, pump_spectrum, QUAD_NODES,
                                        QUAD_SPAN_SIGMAS)
        assert abs(ws.sum() - 1.0) <= 1e-15 and abs(wp.sum() - 1.0) <= 1e-15
        w = spectral_grid(signal_spectrum, pump_spectrum, QUAD_NODES, QUAD_SPAN_SIGMAS)[2]
        assert np.array_equal(w, ws * wp)
        phi = compensated_phase(paper_fiber, paper_compensators, ls, lp)
        rows = [slice(r, r + 16) for r in range(0, QUAD_NODES, 16)]
        assert abs(_coherence((phi[r], w[r]) for r in rows) - _coherence([(phi, w)])) <= 1e-15

    def test_unresolved_phase_warns(self, signal_spectrum, pump_spectrum):
        # 30 rad per signal sigma aliases on the nodes: the exact coherence
        # is about 0, the nodes' sum is not
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        with pytest.warns(RuntimeWarning, match="not converged"):
            mixed_state_over_spectra(lambda s, p: 30.0 * (s - c) / sigma,
                                     signal_spectrum, pump_spectrum)

    def test_check_verdict_matches_direct_doubled_rule(self, paper_config):
        # the check warns exactly where a second evaluation of the phase on
        # the doubled grid moves the coherence magnitude by more than 1e-6
        sig, pump = paper_config.signal, paper_config.pump
        xs = lambda s: (s - sig.center_nm) / sig.sigma_nm
        xp = lambda p: (p - pump.center_nm) / pump.sigma_nm
        cases = [(lambda s, p, a=a: a * xs(s), pump) for a in np.linspace(0.0, 80.0, 801)]
        cases += [(lambda s, p, a=a, b=b, c=c, d=d: a * xs(s) + b * xs(s) ** 2
                   + c * xs(s) ** 3 + d * xs(s) * xp(p), pump)
                  for a in (0.0, 5.0, 20.0) for b in (0.0, 0.5, 2.0, 6.0)
                  for c in (0.0, 0.1, 0.5, 1.5) for d in (0.0, 1.0, 4.0)]
        cases += list(_paper_phases(paper_config))
        # ripples from resolved to aliased on the nodes, on either axis
        cases += [(lambda s, p, a=a, f=f, x=x: a * np.sin(f * x(s, p)), pump)
                  for a in (0.001, 0.01, 1.0) for f in (2.0, 10.0, 20.0, 32.0, 34.0, 40.0, 100.0, 200.0)
                  for x in (lambda s, p: xs(s) + 0 * p, lambda s, p: xp(p) + 0 * s)]
        # converged: a smooth ripple, a large constant offset, and a ripple
        # whose interpolation alone would move the doubled rule by 6e-6
        quiet = [(lambda s, p: 0.001 * np.sin(2.0 * xs(s)), pump),
                 (lambda s, p: 1e5 + 0.5 * xs(s) ** 2 + xs(s) * xp(p), pump),
                 (lambda s, p: 0.05 * np.sin(40.0 * xs(s)), pump)]
        verdicts = []
        for phase, p in cases + quiet:
            warned, coh = _warns_unconverged(phase, sig, p)
            direct = abs(abs(_direct_doubled_rule(phase, sig, p)) - abs(coh)) > 1e-6
            verdicts.append((warned, direct))
        assert all(warned == direct for warned, direct in verdicts)
        assert not any(warned for warned, _ in verdicts[len(cases):])
        # the scan covers both verdicts
        assert 0 < sum(direct for _, direct in verdicts) < len(verdicts)

    def test_interpolated_doubled_rule_accuracy(self, paper_config):
        # on the paper phases the interpolated doubled rule reproduces the
        # directly evaluated one to 1e-9 in the coherence
        sig = paper_config.signal
        for phase, pump in _paper_phases(paper_config):
            ls, lp, w = spectral_grid(sig, pump, QUAD_NODES, QUAD_SPAN_SIGMAS)
            ws, wp = _spectral_axes(sig, pump, 2 * QUAD_NODES, QUAD_SPAN_SIGMAS)[2:]
            phi = np.broadcast_to(phase(ls, lp), w.shape)
            interpolated = _coherence(_interpolated_doubled_phase(phi, ws, wp))
            assert abs(interpolated - _direct_doubled_rule(phase, sig, pump)) < 1e-9

    def test_doubled_interpolation_matrix(self):
        # 8 Lagrange taps per row: exact for degree 7, not for degree 8
        x = np.linspace(-1.0, 1.0, QUAD_NODES)
        t = np.linspace(-1.0, 1.0, 2 * QUAD_NODES)
        assert _DOUBLED.shape == (2 * QUAD_NODES, QUAD_NODES)
        assert not _DOUBLED.flags.writeable
        assert np.max(np.abs(_DOUBLED.sum(axis=1) - 1.0)) < 1e-14
        for k in range(8):
            assert np.max(np.abs(_DOUBLED @ x**k - t**k)) < 1e-14
        assert np.max(np.abs(_DOUBLED @ x**8 - t**8)) > 1e-12

    @pytest.mark.parametrize("amplitude, frequency",
                             [(1.0, 200.0), (0.01, 32.0), (0.01, 34.0), (0.01, 100.0)])
    def test_node_scale_alias_warns(self, signal_spectrum, pump_spectrum,
                                    amplitude, frequency):
        # on the nodes these ripples equal a smooth alias, so the doubled
        # rule on the interpolated phase stays put; the probes off the
        # nodes see the ripple and the doubled rule is evaluated directly
        c, sigma = signal_spectrum.center_nm, signal_spectrum.sigma_nm
        phase = lambda s, p: amplitude * np.sin(frequency * (s - c) / sigma) + 0 * p
        ls, lp, w = spectral_grid(signal_spectrum, pump_spectrum, QUAD_NODES, QUAD_SPAN_SIGMAS)
        ws, wp = _spectral_axes(signal_spectrum, pump_spectrum, 2 * QUAD_NODES,
                                QUAD_SPAN_SIGMAS)[2:]
        phi = phase(ls, lp)
        interpolated = _coherence(_interpolated_doubled_phase(phi, ws, wp))
        assert abs(abs(interpolated) - abs(np.sum(w * np.exp(-1j * phi)))) < 1e-6
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
