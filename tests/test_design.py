import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from xsplice import design, phase
from xsplice import (
    CalibrationError,
    CompensatorMaterial,
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
from xsplice.phase import compensated_phase, phase_map
from xsplice.states import DESIGN_POINTS, bandwidth_grid

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
        # the lengths come from group indices at the spectral centres; the
        # phase model is evaluated once, for the std at the returned design
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
        assert calls == ["weighted_phase_std", "compensated_phase"]
        monkeypatch.undo()
        assert residual == weighted_phase_std(paper_fiber, (sig, idl), pump_spectrum,
                                              signal_spectrum)

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

    def test_singular_grid_raises(self, paper_fiber, quartz_material,
                                  pump_spectrum, signal_spectrum):
        # a crystal without birefringence adds no phase, so every per-mm
        # column vanishes and G = 0
        flat = CompensatorMaterial(quartz_material.ordinary, quartz_material.ordinary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizationError, match="singular"):
                optimize_compensators(paper_fiber, flat, pump_spectrum, signal_spectrum)


def _design_axes(pump, signal, points=DESIGN_POINTS):
    return (bandwidth_grid(signal.center_nm, signal.fwhm_nm, points),
            bandwidth_grid(pump.center_nm, pump.fwhm_nm, points))


def _nudged(axis):
    # one point, the middle one, one ulp up; the axis stays sorted
    out = axis.copy()
    out[len(out) // 2] = np.nextafter(out[len(out) // 2], np.inf)
    return out


def _std_in_between(fiber, comps, s_ax, p_ax, pump, signal):
    weighted_phase_std(fiber, (CompensatorSpec(1.0, comps[0].material, +1, "signal"),),
                       pump, signal)
    return fiber, comps, s_ax, p_ax


# how a map differs from the design drawn just before it
MISSES = {
    "B one ulp off": lambda f, c, s, p, *_: (
        dataclasses.replace(f, birefringence=np.nextafter(f.birefringence, 1.0)), c, s, p),
    "crystal length one ulp off": lambda f, c, s, p, *_: (
        f, (dataclasses.replace(c[0], length_mm=np.nextafter(c[0].length_mm, np.inf)), c[1]),
        s, p),
    "crystal orientation flipped": lambda f, c, s, p, *_: (
        f, (c[0], dataclasses.replace(c[1], orientation_sign=-c[1].orientation_sign)), s, p),
    "signal axis one ulp off": lambda f, c, s, p, *_: (f, c, _nudged(s), p),
    "pump axis one ulp off": lambda f, c, s, p, *_: (f, c, s, _nudged(p)),
    "51 points": lambda f, c, s, p, pump, signal: (f, c, *_design_axes(pump, signal, 51)),
    "another std in between": _std_in_between,
}


class TestMapReusesTheDesignGrid:
    """A map on a design's own axes, drawn right after it, takes the std's grid."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate = phase.compensated_phase

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(phase, "compensated_phase", counted)
        return calls

    @pytest.fixture
    def designed(self, paper_fiber, quartz_material, pump_spectrum, signal_spectrum):
        sig, idl, _ = optimize_compensators(paper_fiber, quartz_material,
                                            pump_spectrum, signal_spectrum)
        return (sig, idl), _design_axes(pump_spectrum, signal_spectrum)

    def test_map_after_design_evaluates_nothing(self, evaluations, paper_fiber, designed):
        comps, (s_ax, p_ax) = designed
        handed = phase_map(paper_fiber, comps, s_ax, p_ax)
        assert evaluations == []
        # the slot is taken once: the same map again evaluates, to the same bits
        fresh = phase_map(paper_fiber, comps, s_ax, p_ax)
        assert len(evaluations) == 1
        assert np.array_equal(handed.deviation_deg, fresh.deviation_deg)

    @pytest.mark.parametrize("miss", MISSES.values(), ids=MISSES.keys())
    def test_any_difference_evaluates(self, miss, evaluations, paper_fiber, pump_spectrum,
                                      signal_spectrum, designed):
        comps, (s_ax, p_ax) = designed
        fiber, comps, s_ax, p_ax = miss(paper_fiber, comps, s_ax, p_ax, pump_spectrum,
                                        signal_spectrum)
        got = phase_map(fiber, comps, s_ax, p_ax)
        assert len(evaluations) == 1
        fresh = phase_map(fiber, comps, s_ax, p_ax)
        assert np.array_equal(got.deviation_deg, fresh.deviation_deg)

    def test_handed_grid_is_read_only_and_freed(self, paper_fiber, designed):
        comps, (s_ax, p_ax) = designed
        grid = phase._design_grid[1]
        assert not grid.flags.writeable
        handed = weakref.ref(grid)
        del grid
        phase_map(paper_fiber, comps, s_ax, p_ax)
        gc.collect()
        assert phase._design_grid is None and handed() is None

    def test_writing_a_map_leaves_the_next_alone(self, paper_fiber, quartz_material,
                                                 pump_spectrum, signal_spectrum, designed):
        comps, (s_ax, p_ax) = designed
        first = phase_map(paper_fiber, comps, s_ax, p_ax)
        expected = first.deviation_deg.copy()
        first.deviation_deg[...] += 1.0
        optimize_compensators(paper_fiber, quartz_material, pump_spectrum, signal_spectrum)
        assert np.array_equal(phase_map(paper_fiber, comps, s_ax, p_ax).deviation_deg,
                              expected)


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
        with pytest.raises(CalibrationError, match="not a number"):
            calibrate_birefringence(silica, 771.0, float("nan"))
