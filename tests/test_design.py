import warnings

import numpy as np
import pytest

from xsplice import design
from xsplice import (
    CalibrationError,
    CompensatorSpec,
    FiberSpec,
    GaussianSpectrum,
    OptimizationError,
    calibrate_birefringence,
    optimize_compensators,
    phase_mismatch,
    solve_signal_idler,
    weighted_phase_std,
)
from xsplice.phase import bandwidth_grid, compensated_phase

from conftest import CALIBRATED_B


class TestOptimizeCompensators:
    def test_nothing_to_compensate(self, silica, quartz_material,
                                   pump_spectrum, signal_spectrum):
        fiber = FiberSpec(0.0, 3e-4, 0.0, silica)
        sig, idl, residual = optimize_compensators(fiber, quartz_material,
                                                   pump_spectrum, signal_spectrum)
        assert sig.length_mm == 0.0
        assert idl.length_mm == 0.0
        assert residual == 0.0

    def test_paper_configuration(self, paper_fiber, quartz_material,
                                 pump_spectrum, signal_spectrum):
        sig, idl, residual = optimize_compensators(paper_fiber, quartz_material,
                                                   pump_spectrum, signal_spectrum)
        assert sig.length_mm == pytest.approx(67.3, rel=0.15)
        assert sig.orientation_sign == +1  # slow axis vertical
        assert idl.length_mm == pytest.approx(47.6, rel=0.15)
        assert idl.orientation_sign == -1  # slow axis horizontal
        assert residual < 1.0  # degrees, weighted std

    def test_local_optimality(self, paper_fiber, quartz_material,
                              pump_spectrum, signal_spectrum):
        sig, idl, residual = optimize_compensators(paper_fiber, quartz_material,
                                                   pump_spectrum, signal_spectrum)
        for ds, di in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            perturbed = (
                CompensatorSpec(sig.length_mm + ds, quartz_material,
                                sig.orientation_sign, "signal"),
                CompensatorSpec(idl.length_mm + di, quartz_material,
                                idl.orientation_sign, "idler"),
            )
            assert weighted_phase_std(paper_fiber, perturbed, pump_spectrum,
                                      signal_spectrum) > residual

    def test_residual_matches_independent_recomputation(
            self, paper_fiber, quartz_material, pump_spectrum, signal_spectrum):
        sig, idl, residual = optimize_compensators(paper_fiber, quartz_material,
                                                   pump_spectrum, signal_spectrum)
        # recompute the weighted variance from scratch on the same grid
        s_ax = bandwidth_grid(signal_spectrum.center_nm, signal_spectrum.fwhm_nm, 101)
        p_ax = bandwidth_grid(pump_spectrum.center_nm, pump_spectrum.fwhm_nm, 101)
        S, P = np.meshgrid(s_ax, p_ax, indexing="ij")
        w = signal_spectrum.density(S) * pump_spectrum.density(P)
        w = w / w.sum()
        grid = compensated_phase(paper_fiber, (sig, idl), S, P)
        var = float(np.sum(w * (grid - np.sum(w * grid)) ** 2))
        assert residual == pytest.approx(np.degrees(np.sqrt(var)), rel=1e-9)

    def test_one_model_evaluation_per_design(self, monkeypatch, paper_fiber,
                                             quartz_material, pump_spectrum,
                                             signal_spectrum):
        # the residual comes from the solved linear model, not a second
        # evaluation of the phase model at the returned design
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("weighted_phase_std", "compensated_phase"):
            monkeypatch.setattr(design, name, counted(getattr(design, name)))
        sig, idl, residual = optimize_compensators(paper_fiber, quartz_material,
                                                   pump_spectrum, signal_spectrum)
        assert calls == []
        monkeypatch.undo()
        assert residual == pytest.approx(
            weighted_phase_std(paper_fiber, (sig, idl), pump_spectrum, signal_spectrum),
            rel=1e-10)

    def test_never_worse_than_uncompensated(self, paper_fiber, quartz_material,
                                            pump_spectrum, signal_spectrum):
        _, _, residual = optimize_compensators(paper_fiber, quartz_material,
                                               pump_spectrum, signal_spectrum)
        bare = weighted_phase_std(paper_fiber, (), pump_spectrum, signal_spectrum)
        assert residual <= bare

    def test_lengths_scale_with_fiber_length(self, paper_fiber, quartz_material,
                                             pump_spectrum, signal_spectrum):
        doubled = FiberSpec(2 * paper_fiber.length_m, paper_fiber.birefringence,
                            paper_fiber.gamma, paper_fiber.core_model)
        s1, i1, _ = optimize_compensators(paper_fiber, quartz_material,
                                          pump_spectrum, signal_spectrum)
        s2, i2, _ = optimize_compensators(doubled, quartz_material,
                                          pump_spectrum, signal_spectrum)
        assert s2.length_mm == pytest.approx(2 * s1.length_mm, rel=0.05)
        assert i2.length_mm == pytest.approx(2 * i1.length_mm, rel=0.05)

    def test_length_limit_is_a_hard_bound(self, paper_fiber, quartz_material,
                                          pump_spectrum, signal_spectrum):
        # the free optimum needs ~68 mm of signal-arm quartz; capped at 60 mm
        # the design sits on that edge with the idler length re-optimized
        sig, idl, residual = optimize_compensators(paper_fiber, quartz_material,
                                                   pump_spectrum, signal_spectrum,
                                                   max_length_mm=60.0)
        assert sig.length_mm == 60.0
        assert idl.length_mm < 60.0
        for ds, di in ((-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            probed = (
                CompensatorSpec(sig.length_mm + ds, quartz_material,
                                sig.orientation_sign, "signal"),
                CompensatorSpec(idl.length_mm + di, quartz_material,
                                idl.orientation_sign, "idler"),
            )
            assert weighted_phase_std(paper_fiber, probed, pump_spectrum,
                                      signal_spectrum) > residual
        _, _, free = optimize_compensators(paper_fiber, quartz_material,
                                           pump_spectrum, signal_spectrum)
        assert free < residual

    def test_singular_grid_raises(self, paper_fiber, quartz_material,
                                  pump_spectrum, signal_spectrum):
        # on a single-point grid every centred column vanishes, so G = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizationError, match="singular"):
                optimize_compensators(paper_fiber, quartz_material,
                                      pump_spectrum, signal_spectrum, points=1)


class TestCalibrateBirefringence:
    def test_paper_operating_point(self, silica):
        b = calibrate_birefringence(silica, 771.0, 670.0)
        assert 2e-4 <= b <= 6e-4

    def test_against_closed_form(self, silica):
        # the mismatch is linear in B, so the root is exactly
        # B = -dk(B=0) * lambda_p / (4 pi)
        fiber0 = FiberSpec(0.13, 0.0, 0.0, silica)
        closed_form = -phase_mismatch(fiber0, 771.0, 670.0) * 771e-9 / (4 * np.pi)
        assert closed_form == pytest.approx(CALIBRATED_B, rel=1e-12)
        b = calibrate_birefringence(silica, 771.0, 670.0)
        assert b == pytest.approx(closed_form, rel=1e-3)

    def test_idempotent(self, silica):
        b = calibrate_birefringence(silica, 771.0, 670.0)
        fiber = FiberSpec(0.13, b, 0.0, silica)
        point = solve_signal_idler(fiber, 771.0)
        assert abs(point.lambda_s_nm - 670.0) < 0.01

    def test_degenerate_target_not_bracketed(self, silica):
        with pytest.raises(CalibrationError, match="widen"):
            calibrate_birefringence(silica, 771.0, 771.0)

    def test_out_of_range_target(self, silica):
        with pytest.raises(CalibrationError):
            calibrate_birefringence(silica, 771.0, 500.0, b_range=(1e-5, 2e-4))
