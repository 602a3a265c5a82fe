import warnings

import numpy as np
import pytest

from xsplice import (
    FiberSpec,
    PhaseMatchError,
    PhaseMatchPoint,
    calibrate_birefringence,
    idler_wavelength,
    output_bandwidths,
    phase_mismatch,
    solve_signal_idler,
    tuning_curve,
)
from xsplice import design, phasematch
from xsplice.materials import WavelengthRangeError
from xsplice.phasematch import MISMATCH_TOL
from conftest import CALIBRATED_B


class TestIdlerWavelength:
    def test_degenerate(self):
        assert idler_wavelength(771.0, 771.0) == 771.0

    def test_paper_point(self):
        # oracle: 670*771/(2*670-771) = 516570/569 exactly
        assert idler_wavelength(670.0, 771.0) == pytest.approx(516570.0 / 569.0, rel=1e-15)
        assert idler_wavelength(670.0, 771.0) == pytest.approx(907.86, abs=0.01)

    def test_round_trip_involution(self):
        for ls in (620.0, 670.0, 700.5, 760.0):
            back = idler_wavelength(idler_wavelength(ls, 771.0), 771.0)
            assert back == pytest.approx(ls, rel=1e-12)

    def test_singularity(self):
        with pytest.raises(PhaseMatchError):
            idler_wavelength(385.5, 771.0)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            idler_wavelength(-670.0, 771.0)

    def test_positive_required_past_a_nan(self):
        # a NaN defeats a min test; the negative entry still raises
        with pytest.raises(ValueError, match="positive"):
            idler_wavelength(np.array([np.nan, -670.0]), 771.0)
        with pytest.raises(ValueError, match="positive"):
            idler_wavelength(670.0, np.array([np.nan, -771.0]))
        assert idler_wavelength(np.empty(0), np.empty(0)).shape == (0,)

    def test_nan_rejected(self, paper_fiber):
        for ls, lp in ((np.nan, 771.0), (670.0, np.nan), ([670.0, np.nan], 771.0)):
            with pytest.raises(ValueError, match="^wavelength is not a number$"):
                idler_wavelength(ls, lp)
        with pytest.raises(ValueError, match="not a number"):
            phase_mismatch(paper_fiber, 771.0, np.nan)


class TestPhaseMatchPoint:
    def test_energy_conservation_enforced(self):
        with pytest.raises(ValueError):
            PhaseMatchPoint(771.0, 670.0, 906.0, 0.0)

    def test_ordering_enforced(self):
        ls = 771.0 * 910.0 / (2 * 910.0 - 771.0)  # signal above pump
        with pytest.raises(ValueError):
            PhaseMatchPoint(771.0, 910.0, ls, 0.0)


class TestPhaseMismatch:
    def test_fully_degenerate_is_zero(self, silica):
        fiber = FiberSpec(0.13, 0.0, 0.0, silica)
        assert phase_mismatch(fiber, 771.0, 771.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_at_solution(self, paper_fiber):
        point = solve_signal_idler(paper_fiber, 771.0)
        assert abs(phase_mismatch(paper_fiber, 771.0, point.lambda_s_nm)) < 1e-6

    def test_sign_change_across_root(self, paper_fiber):
        # coarse-scan oracle: dk goes from negative (blue of the root)
        # to positive (toward degeneracy) around 670 nm
        grid = np.linspace(640.0, 700.0, 61)
        vals = phase_mismatch(paper_fiber, 771.0, grid)
        assert vals[0] < 0 < vals[-1]
        # exactly one negative-to-positive transition (the calibrated B
        # puts the root exactly on the 670.0 grid node, where dk == 0.0)
        assert np.count_nonzero(np.diff(np.signbit(vals))) == 1

    def test_nonlinear_term(self, paper_fiber):
        base = phase_mismatch(paper_fiber, 771.0, 670.0, 0.0)
        with_power = phase_mismatch(paper_fiber, 771.0, 670.0, 100.0)
        assert with_power - base == pytest.approx(2 * paper_fiber.gamma * 100.0, rel=1e-12)


class TestSolver:
    def test_paper_operating_point(self, paper_fiber):
        point = solve_signal_idler(paper_fiber, 771.0)
        assert point.lambda_s_nm == pytest.approx(670.0, abs=0.1)
        assert point.lambda_i_nm == pytest.approx(905.0, abs=5.0)

    def test_no_solution_without_birefringence(self, silica):
        fiber = FiberSpec(0.13, 0.0, 0.0, silica)
        with pytest.raises(PhaseMatchError, match="no phase-matched solution"):
            solve_signal_idler(fiber, 771.0)

    def test_result_is_deterministic(self, paper_fiber):
        a = solve_signal_idler(paper_fiber, 771.0)
        b = solve_signal_idler(paper_fiber, 771.0)
        assert a == b


class TestRefinement:
    def test_residual_is_the_mismatch_at_the_root(self, monkeypatch, paper_fiber, silica):
        points = [solve_signal_idler(paper_fiber, 771.0),
                  *tuning_curve(paper_fiber, (765.0, 777.0), 13)[0]]
        solved = [(paper_fiber, p) for p in points]

        def confirming(fiber, lp):
            point = solve_signal_idler(fiber, lp)
            solved.append((fiber, point))
            return point

        monkeypatch.setattr(design, "solve_signal_idler", confirming)
        calibrate_birefringence(silica, 774.0, 662.0)
        assert len(solved) == len(points) + 1
        for fiber, p in solved:
            assert p.residual_mismatch == phase_mismatch(fiber, p.lambda_p_nm, p.lambda_s_nm)

    def test_four_lockstep_passes_per_tuning_curve(self, monkeypatch, paper_fiber):
        sizes = []
        pair = phasematch._pair

        def counted(fiber, pump, lp, ls):
            sizes.append(ls.size)
            return pair(fiber, pump, lp, ls)

        def no_mismatch(*_):
            raise AssertionError("the solve called phase_mismatch")

        monkeypatch.setattr(phasematch, "_pair", counted)
        monkeypatch.setattr(phasematch, "phase_mismatch", no_mismatch)
        points, _ = tuning_curve(paper_fiber, (765.0, 777.0), 13)
        assert len(points) == 13
        # lockstep: each pass evaluates every pump still stepping once
        assert sizes[0] == 13 and len(sizes) <= 4 and max(sizes) <= 13

    @pytest.mark.parametrize("slope", [0.0, np.nan])
    def test_flat_or_undefined_slope_bisects(self, monkeypatch, paper_fiber, slope):
        point = solve_signal_idler(paper_fiber, 771.0)
        edges = []
        refine = phasematch._refine

        def recorded(*args):
            edges.append(refine(*args))
            return edges[-1]

        monkeypatch.setattr(phasematch, "_refine", recorded)
        expected = output_bandwidths(paper_fiber, point, 0.3)
        pair = phasematch._pair

        def flat(*args):
            dk, _ = pair(*args)
            return dk, np.full_like(dk, slope)

        monkeypatch.setattr(phasematch, "_pair", flat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = output_bandwidths(paper_fiber, point, 0.3)
            # the solver's Newton steps need the slope: no step, no root
            with pytest.raises(PhaseMatchError, match="no phase-matched solution in window"):
                solve_signal_idler(paper_fiber, 771.0)
        (unpatched, _), (bisected, f) = edges
        assert np.all(np.abs(f) < MISMATCH_TOL)
        # each edge within MISMATCH_TOL / (118 rad/m/nm) of its root
        np.testing.assert_allclose(bisected, unpatched, rtol=0.0, atol=2e-8)
        assert found == pytest.approx(expected, abs=4e-8)

    def test_overshoot_is_refined_on_its_bracket(self, monkeypatch, silica):
        # at a 500 nm pump g(x) is concave, and the Newton steps in x from
        # the pump side step over the root once
        fiber = FiberSpec(0.13, 2.3e-5, 0.0, silica)
        brackets = []
        refine = phasematch._refine

        def recorded(fiber, lp, a, b, fa, fb, level):
            brackets.append((a, b, fa, fb))
            return refine(fiber, lp, a, b, fa, fb, level)

        monkeypatch.setattr(phasematch, "_refine", recorded)
        point = solve_signal_idler(fiber, 500.0)
        [(a, b, fa, fb)] = brackets
        assert a < point.lambda_s_nm < b and fa < -MISMATCH_TOL < MISMATCH_TOL < fb
        assert point.residual_mismatch == phase_mismatch(fiber, 500.0, point.lambda_s_nm)
        assert abs(point.residual_mismatch) < MISMATCH_TOL
        grid = np.linspace(point.lambda_s_nm, 499.75, 20001)[1:]
        assert np.all(phase_mismatch(fiber, 500.0, grid) > 0)

    def test_newton_point_past_the_outer_end_is_taken_at_the_end(self, silica):
        # the root lies 0.016 nm inside the window's 400 nm end, and the
        # first Newton step from the inner end lands at 399.992 nm
        fiber = FiberSpec(0.13, 7e-4, 0.0, silica)
        point = solve_signal_idler(fiber, 446.0)
        assert 400.0 < point.lambda_s_nm < 400.02
        assert abs(point.residual_mismatch) < MISMATCH_TOL
        grid = np.linspace(point.lambda_s_nm, 445.75, 20001)[1:]
        assert np.all(phase_mismatch(fiber, 446.0, grid) > 0)


def _nearest_root_reference(fiber, lp):
    """Root closest to the pump: a 20000-point scan of the validity-clipped
    window, then 60 bisections of its last sign-change bracket."""
    lo_model, hi_model = fiber.core_model.valid_range_nm
    lo = max(400.0, lo_model, lp * hi_model / (2.0 * hi_model - lp) * (1.0 + 1e-9))
    grid = np.linspace(lo, lp - 0.25, 20000)
    vals = phase_mismatch(fiber, lp, grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(flips) == 2  # both branches lie in the window
    a, b, fa = grid[flips[-1]], grid[flips[-1] + 1], vals[flips[-1]]
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = phase_mismatch(fiber, lp, mid)
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b), grid[flips[0]]


class TestBranchSelection:
    # Near silica's zero-dispersion wavelength a 1064 nm pump sees two
    # roots in the window at small B, one near 630 nm and one within
    # 40 nm of the pump. The solver must refine only the latter.
    @pytest.mark.parametrize("b", [1e-6, 2e-6, 3e-6])
    def test_root_closest_to_the_pump(self, silica, b):
        fiber = FiberSpec(0.13, b, 0.0, silica)
        points, skipped = tuning_curve(fiber, (1058.0, 1070.0), 13)
        assert not skipped
        for point in [solve_signal_idler(fiber, 1064.0), *points]:
            ref, far_root = _nearest_root_reference(fiber, point.lambda_p_nm)
            assert point.lambda_s_nm - far_root > 300.0
            # |dk| < 1e-6 rad/m at a slope of a few rad/m/nm: a few 1e-7 nm
            assert point.lambda_s_nm == pytest.approx(ref, abs=1e-5)
            assert abs(point.residual_mismatch) < MISMATCH_TOL
            assert abs(phase_mismatch(fiber, point.lambda_p_nm,
                                      point.lambda_s_nm)) < MISMATCH_TOL

    # At B <= 1e-10 dk is already negative at the window's inner end: the
    # root connected to degeneracy lies inside the 0.25 nm exclusion, and
    # the root near 633 nm belongs to the other branch.
    @pytest.mark.parametrize("b", [1e-10, 1e-11, 1e-12])
    def test_near_root_inside_the_exclusion_is_no_solution(self, silica, b):
        fiber = FiberSpec(0.13, b, 0.0, silica)
        assert phase_mismatch(fiber, 1064.0, 1063.75) < 0
        with pytest.raises(PhaseMatchError, match="no phase-matched solution in window"):
            solve_signal_idler(fiber, 1064.0)
        points, skipped = tuning_curve(fiber, (1064.0, 1064.0), 2)
        assert not points and skipped == [1064.0, 1064.0]


class TestTuningCurve:
    def test_constant_range(self, paper_fiber):
        points, skipped = tuning_curve(paper_fiber, (771.0, 771.0), 2)
        assert len(points) == 2 and not skipped
        assert points[0] == points[1]

    def test_energy_conservation_inherited(self, paper_fiber):
        points, _ = tuning_curve(paper_fiber, (765.0, 780.0), 16)
        for p in points:
            lhs = 2.0 / p.lambda_p_nm
            rhs = 1.0 / p.lambda_s_nm + 1.0 / p.lambda_i_nm
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_outputs(self, paper_fiber):
        points, skipped = tuning_curve(paper_fiber, (760.0, 790.0), 16)
        assert not skipped
        ls = [p.lambda_s_nm for p in points]
        li = [p.lambda_i_nm for p in points]
        assert all(a < b for a, b in zip(ls, ls[1:]))
        assert all(a < b for a, b in zip(li, li[1:]))

    def test_pump_outside_the_model_is_skipped(self, paper_fiber):
        # 7420 nm is twice silica's 3710 nm limit, where the idler bound
        # of the window has a zero denominator
        points, skipped = tuning_curve(paper_fiber, (7420.0, 7420.0), 2)
        assert not points and skipped == [7420.0, 7420.0]
        with pytest.raises(WavelengthRangeError, match="outside validity range"):
            solve_signal_idler(paper_fiber, 7420.0)

    def test_steps_validation(self, paper_fiber):
        with pytest.raises(ValueError):
            tuning_curve(paper_fiber, (760.0, 790.0), 1)

    @pytest.mark.parametrize("pump_range, steps, match", [
        ((760.0, 790.0), 2.5, "steps"), ((760.0, 790.0), "3", "steps"),
        ((np.nan, 790.0), 3, "range"), ((760.0, np.inf), 3, "range"),
        ((-760.0, 790.0), 3, "range"), ((0.0, 790.0), 3, "range"),
    ])
    def test_arguments_checked_before_solving(self, monkeypatch, paper_fiber, pump_range,
                                              steps, match):
        def no_solve(*_):
            raise AssertionError("solved before the arguments were checked")

        monkeypatch.setattr(phasematch, "_solve", no_solve)
        with pytest.raises(ValueError, match=match):
            tuning_curve(paper_fiber, pump_range, steps)


class TestBandwidths:
    def test_sinc_width_scales_inversely_with_length(self, paper_fiber):
        long_fiber = FiberSpec(0.26, paper_fiber.birefringence, paper_fiber.gamma,
                               paper_fiber.core_model)
        p1 = solve_signal_idler(paper_fiber, 771.0)
        p2 = solve_signal_idler(long_fiber, 771.0)
        w1, _ = output_bandwidths(paper_fiber, p1, 0.0)
        w2, _ = output_bandwidths(long_fiber, p2, 0.0)
        assert w2 / w1 == pytest.approx(0.5, abs=0.05)

    def test_paper_point_within_factor_two(self, paper_fiber):
        point = solve_signal_idler(paper_fiber, 771.0)
        sig, idl = output_bandwidths(paper_fiber, point, 0.3)
        assert 0.23 / 2 <= sig <= 0.23 * 2
        assert 0.61 / 2 <= idl <= 0.61 * 2

    def test_jacobian_ratio(self, paper_fiber):
        # energy conservation gives |d(li)/d(ls)| = (li/ls)^2; hand check:
        # (907.86/670)^2 = 1.836
        point = solve_signal_idler(paper_fiber, 771.0)
        sig, idl = output_bandwidths(paper_fiber, point, 0.3)
        ratio = (point.lambda_i_nm / point.lambda_s_nm) ** 2
        assert idl / sig == pytest.approx(ratio, rel=1e-12)
        assert ratio == pytest.approx(1.836, abs=0.01)

    def test_unmatched_point_rejected(self, paper_fiber):
        bad = PhaseMatchPoint(771.0, 670.0, 516570.0 / 569.0, 5.0)
        with pytest.raises(ValueError):
            output_bandwidths(paper_fiber, bad, 0.3)

    @pytest.mark.parametrize("pump_fwhm_nm", [-0.3, np.nan, np.inf])
    def test_pump_fwhm_checked_before_any_mismatch_call(self, monkeypatch, paper_fiber,
                                                        pump_fwhm_nm):
        point = solve_signal_idler(paper_fiber, 771.0)

        def no_mismatch(*_):
            raise AssertionError("phase_mismatch ran before the pump FWHM was checked")

        monkeypatch.setattr(phasematch, "phase_mismatch", no_mismatch)
        with pytest.raises(ValueError, match="pump_fwhm_nm"):
            output_bandwidths(paper_fiber, point, pump_fwhm_nm)

    # pinned with the analytic group-index slopes and the roots of the Newton steps in x
    @pytest.mark.parametrize("length_m, birefringence, pump_nm, pump_fwhm_nm, expected", [
        (0.13, CALIBRATED_B, 771.0, 0.3, (0.4201096370888082, 0.7713418008367484)),
        (0.26, CALIBRATED_B, 771.0, 0.45, (0.3688689204380834, 0.677261343812668)),
        # calibrate_birefringence(silica, 774.0, 662.0)
        (0.21, 0.000398548422148662, 774.0, 0.42, (0.3491389963556529, 0.6914406392750961)),
    ], ids=["paper", "long-fiber", "design-range"])
    def test_pinned_values(self, silica, length_m, birefringence, pump_nm, pump_fwhm_nm,
                           expected):
        fiber = FiberSpec(length_m, birefringence, 0.01, silica)
        point = solve_signal_idler(fiber, pump_nm)
        assert output_bandwidths(fiber, point, pump_fwhm_nm) == expected

    def test_two_mismatch_calls_before_refinement(self, monkeypatch, paper_fiber):
        # the point with both slopes in one Sellmeier pass, then the reach ends
        point = solve_signal_idler(paper_fiber, 771.0)
        calls = []

        def log(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(phasematch, "phase_mismatch", log("mismatch", phase_mismatch))
        monkeypatch.setattr(phasematch, "_point_slopes", log("slopes", phasematch._point_slopes))
        monkeypatch.setattr(phasematch, "_refine", log("refine", phasematch._refine))
        output_bandwidths(paper_fiber, point, 0.3)
        assert calls[:calls.index("refine")] == ["slopes", "mismatch"]
