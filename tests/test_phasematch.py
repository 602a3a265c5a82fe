import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from xsplice import (
    BandwidthError,
    FiberSpec,
    PhaseMatchError,
    PhaseMatchPoint,
    SellmeierModel,
    calibrate_birefringence,
    idler_wavelength,
    index,
    index_and_group_index,
    output_bandwidths,
    phase_mismatch,
    solve_signal_idler,
    tuning_curve,
)
from xsplice import design, materials, phasematch
from xsplice.materials import WavelengthRangeError
from xsplice.phase import compensated_phase
from xsplice.phasematch import MISMATCH_TOL
from xsplice.states import bandwidth_grid
from conftest import CALIBRATED_B, nearest_root_reference


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

    @pytest.mark.parametrize("ls, lp, message", [
        (np.inf, 771.0, "^wavelengths must be finite$"),
        (670.0, np.inf, "^wavelengths must be finite$"),
        ([670.0, np.inf], 771.0, "^wavelengths must be finite$"),
        (-np.inf, 771.0, "^wavelengths must be positive$"),
        (670.0, -np.inf, "^wavelengths must be positive$"),
    ])
    def test_infinite_rejected_without_a_warning(self, paper_fiber, ls, lp, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavelengthRangeError, match=message):
                idler_wavelength(ls, lp)
            with pytest.raises(WavelengthRangeError, match=message):
                phase_mismatch(paper_fiber, lp, ls)

    @pytest.mark.parametrize("ls, lp", [
        (math.nan, 771.0), (670.0, math.nan), (math.inf, 771.0), (670.0, math.inf),
        (-math.inf, 771.0), (0.0, 771.0), (-0.0, 771.0), (670.0, 0.0), (385.5, 771.0),
        (-670.0, math.nan), (math.nan, -771.0), (math.inf, math.nan), (math.nan, math.inf),
    ])
    def test_invalid_floats_fail_as_arrays(self, ls, lp):
        # the float path's tests, in the array path's order of precedence
        for arrays in ((np.array(ls), np.array(lp)), (np.array([ls]), lp)):
            with pytest.raises(Exception) as as_float:
                idler_wavelength(ls, lp)
            with pytest.raises(Exception) as as_array:
                idler_wavelength(*arrays)
            assert type(as_float.value) is type(as_array.value)
            assert type(as_float.value) in (WavelengthRangeError, PhaseMatchError)
            assert str(as_float.value) == str(as_array.value)

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
        assert phase_mismatch(fiber, 771.0, 771.0) == pytest.approx(0.0, abs=1e-9)

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
        # puts the root on the 670.0 grid node, where dk is -2.1e-9 rad/m)
        assert np.count_nonzero(np.diff(np.signbit(vals))) == 1

    @pytest.mark.parametrize("lp, ls", [
        (771.0, np.nan), (np.nan, 670.0), (771.0, np.inf), (np.inf, 670.0),
        (771.0, -np.inf), (-771.0, 670.0), (771.0, 0.0), (771.0, -0.0),
        (771.0, 385.5),  # 2 ls == lp
        (771.0, 200.0), (771.0, 400.0),  # the signal, then the idler, outside the core
        (4000.0, 3000.0), (300.0, math.nextafter(210.0, 0.0)),
    ])
    def test_invalid_floats_fail_as_arrays(self, paper_fiber, lp, ls):
        with pytest.raises(Exception) as as_float:
            phase_mismatch(paper_fiber, lp, ls)
        with pytest.raises(Exception) as as_array:
            phase_mismatch(paper_fiber, np.array(lp), np.array([ls]))
        assert type(as_float.value) is type(as_array.value)
        assert type(as_float.value) in (WavelengthRangeError, PhaseMatchError)
        assert str(as_float.value) == str(as_array.value)

    def test_float_on_the_core_bound_is_accepted(self, paper_fiber):
        # a 210 nm signal sits on the core model's lower bound, its idler at 525 nm
        dk = phase_mismatch(paper_fiber, 300.0, 210.0)
        assert type(dk) is float and dk == phase_mismatch(paper_fiber, 300.0, np.array([210.0]))


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

    def test_at_most_four_passes_per_pump(self, monkeypatch, paper_fiber):
        passes = Counter()
        built = []  # (pump wavelength, its terms), kept alive so that ids stay unique
        pump_terms, mismatch = phasematch._pump_terms, phasematch._mismatch

        def recorded(fiber, lp):
            terms = pump_terms(fiber, lp)
            assert type(lp) is float and all(type(t) is float for t in terms)
            built.append((lp, terms))
            return terms

        def counted(fiber, pump, ls):
            assert type(ls) is float
            lp, = (lp for lp, terms in built if terms is pump)
            passes[lp] += 1
            return mismatch(fiber, pump, ls)

        def no_mismatch(*_):
            raise AssertionError("the solve called phase_mismatch")

        monkeypatch.setattr(phasematch, "_pump_terms", recorded)
        monkeypatch.setattr(phasematch, "_mismatch", counted)
        monkeypatch.setattr(phasematch, "phase_mismatch", no_mismatch)
        points, _ = tuning_curve(paper_fiber, (765.0, 777.0), 13)
        assert len(points) == 13
        # one solve per pump, each on floats in at most four mismatch passes
        # on the pump's terms, evaluated once
        assert [lp for lp, _ in built] == [p.lambda_p_nm for p in points]
        assert sorted(passes) == [p.lambda_p_nm for p in points]
        assert max(passes.values()) <= 4

    def test_one_pump_pass_per_solve_and_per_bandwidth_call(self, monkeypatch, paper_fiber):
        # the pump's Sellmeier sum once per call, then one at the signal and
        # one at the idler per mismatch evaluation
        sellmeier = phasematch._sellmeier
        passes = []

        def recorded(model, v, group=False):
            passes.append(v)
            return sellmeier(model, v, group)

        monkeypatch.setattr(phasematch, "_sellmeier", recorded)
        for lp in (766.0, 771.0, 776.0):
            k_p = 1000.0 / lp
            passes.clear()
            point = solve_signal_idler(paper_fiber, lp)
            assert passes.count(k_p * k_p) == 1 and len(passes) % 2 == 1
            passes.clear()
            output_bandwidths(paper_fiber, point, 0.3)
            assert passes.count(k_p * k_p) == 1 and len(passes) % 2 == 1

    @pytest.mark.parametrize("slope", [0.0, np.nan])
    def test_flat_or_undefined_slope_bisects(self, monkeypatch, paper_fiber, slope):
        point = solve_signal_idler(paper_fiber, 771.0)
        edges = []
        refine = phasematch._refine
        mismatch = phasematch._mismatch
        flat = []  # non-empty while the refinement or the solver runs

        def flattened(*args):
            dk, dk_dls, dk_dlp = mismatch(*args)
            return dk, slope if flat else dk_dls, dk_dlp

        def recorded(*args):
            flat.append(True)
            edges.append(refine(*args))
            flat.pop()
            return edges[-1]

        monkeypatch.setattr(phasematch, "_refine", recorded)
        expected = output_bandwidths(paper_fiber, point, 0.3)
        # the bandwidths' own slopes at the point stay exact
        monkeypatch.setattr(phasematch, "_mismatch", flattened)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = output_bandwidths(paper_fiber, point, 0.3)
            # the solver's Newton steps need the slope: no step, no root
            flat.append(True)
            with pytest.raises(PhaseMatchError, match="no phase-matched solution in window"):
                solve_signal_idler(paper_fiber, 771.0)
        # one refinement per edge, the lower edge first
        (lower, _), (upper, _), (lower_bisected, f_lower), (upper_bisected, f_upper) = edges
        assert abs(f_lower) < MISMATCH_TOL and abs(f_upper) < MISMATCH_TOL
        # each edge within MISMATCH_TOL / (118 rad/m/nm) of its root
        np.testing.assert_allclose([lower_bisected, upper_bisected], [lower, upper],
                                   rtol=0.0, atol=2e-8)
        assert found == pytest.approx(expected, abs=4e-8)

    def test_secant_point_on_an_end_takes_the_midpoint(self, monkeypatch, paper_fiber):
        # a bracket of +/- 0.5 nm about the 771 nm root, with fa = -1e-300 of
        # the true sign: the secant point rounds onto a, and the first point
        # is the midpoint, which lands on the solver's root
        root = solve_signal_idler(paper_fiber, 771.0).lambda_s_nm
        pump = phasematch._pump_terms(paper_fiber, 771.0)
        a, b = root - 0.5, root + 0.5
        mismatch = phasematch._mismatch
        fa, fb = (mismatch(paper_fiber, pump, end)[0] for end in (a, b))
        assert fa < 0.0 < fb
        points = []

        def recorded(fiber, pump, x):
            points.append(x)
            return mismatch(fiber, pump, x)

        monkeypatch.setattr(phasematch, "_mismatch", recorded)
        x, f = phasematch._refine(paper_fiber, pump, a, b, -1e-300, fb, 0.0)
        assert points == [0.5 * (a + b)]
        assert x == root
        assert f == phase_mismatch(paper_fiber, 771.0, root)

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
            ref, flips = nearest_root_reference(fiber, point.lambda_p_nm)
            assert len(flips) == 2  # both branches lie in the window
            assert point.lambda_s_nm - flips[0] > 300.0
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

        monkeypatch.setattr(phasematch, "solve_signal_idler", no_solve)
        with pytest.raises(ValueError, match=match):
            tuning_curve(paper_fiber, pump_range, steps)


def test_floats_take_no_numpy_call(monkeypatch, paper_fiber, silica):
    # with numpy unbound in the index and mismatch layers only their float
    # paths can run: the range checks, the mismatch, the solve and the
    # calibration on Python floats give the same values without it
    def run():
        return (index(silica, 771.0), index_and_group_index(silica, 670.0),
                phase_mismatch(paper_fiber, 771.0, 670.0), solve_signal_idler(paper_fiber, 771.0),
                calibrate_birefringence(silica, 774.0, 662.0), idler_wavelength(670.0, 771.0))

    expected = run()
    monkeypatch.setattr(materials, "np", None)
    monkeypatch.setattr(phasematch, "np", None)
    assert run() == expected


@pytest.mark.parametrize("fast", [True, False])
def test_unbroadcastable_axes_fail_as_in_compensated_phase(monkeypatch, paper_fiber, fast):
    # in range by their extremes or checked element by element, axes that do
    # not broadcast raise compensated_phase's ValueError
    ls, lp = np.linspace(660.0, 680.0, 5), np.array([770.0, 772.0])
    if not fast:
        monkeypatch.setattr(phasematch, "_within_ranges", lambda *args: False)
    with pytest.raises(ValueError) as expected:
        compensated_phase(paper_fiber, (), ls, lp)
    with pytest.raises(ValueError) as found:
        phase_mismatch(paper_fiber, lp, ls)
    assert str(found.value) == str(expected.value)


def test_paper_grid_takes_the_fast_range_check(paper_config):
    # the paper's 101 x 101 design grid lies inside every model's range, and
    # the extremes test alone must say so: no element-wise pass
    cfg = paper_config
    ls = bandwidth_grid(cfg.signal.center_nm, cfg.signal.fwhm_nm)[:, None]
    lp = bandwidth_grid(cfg.pump.center_nm, cfg.pump.fwhm_nm)[None, :]
    assert ls.size == lp.size == 101
    for comps in ((), cfg.compensators):
        assert phasematch._within_ranges(cfg.fiber, comps, ls, lp)
    # the idler's extremes are exact on open axes: a core range that ends
    # 1e-6 nm outside the grid's shortest and longest wavelengths passes,
    # and one that ends 1e-6 nm inside either fails; with the signal and
    # idler centres swapped, the idler holds the other extreme
    li_centre = idler_wavelength(cfg.signal.center_nm, cfg.pump.center_nm)
    for column in (ls, ls + (li_centre - cfg.signal.center_nm)):
        li = idler_wavelength(column, lp)
        lo, hi = min(column.min(), li.min()), max(column.max(), li.max())
        for cut_lo, cut_hi, inside in ((0.0, 0.0, True), (2e-6, 0.0, False),
                                       (0.0, 2e-6, False)):
            core = SellmeierModel(cfg.fiber.core_model.terms,
                                  (lo - 1e-6 + cut_lo, hi + 1e-6 - cut_hi))
            fiber = FiberSpec(cfg.fiber.length_m, cfg.fiber.birefringence, 0.0, core)
            assert phasematch._within_ranges(fiber, (), column, lp) is inside


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

    def test_point_outside_the_model_is_rejected_before_evaluation(self, paper_fiber):
        # at 110 nm the silica sum is negative: evaluated, its square root would warn
        point = PhaseMatchPoint(115.0, 110.0, 110.0 * 115.0 / 105.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavelengthRangeError, match="outside validity range"):
                output_bandwidths(paper_fiber, point, 0.3)

    def test_flat_profile_is_rejected_without_a_warning(self):
        # a constant index at B = 0 phase-matches every signal, d dk/d ls = 0:
        # the reach ends lie at infinity, and their check rejects them
        constant = SellmeierModel(terms=((0.21, 0.0),), valid_range_nm=(200.0, 4000.0))
        fiber = FiberSpec(0.13, 0.0, 0.0, constant)
        point = solve_signal_idler(fiber, 771.0)
        assert point.residual_mismatch == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavelengthRangeError, match="wavelengths must be positive"):
                output_bandwidths(fiber, point, 0.3)

    @pytest.mark.parametrize("length_m", [1e-5, 8e-5, 1e-4, 2e-4, 1e-3, 0.13])
    def test_reach_ends_fail_as_an_array(self, monkeypatch, silica, length_m):
        # the ends' float range tests only short-cut the element-wise check
        # of the pair: with every range test failing, so that each check
        # runs element by element, the widths or the error are the same.
        # Up to 0.1 mm the lower end is negative or below the core model's
        # range; at 0.2 mm the profile has no edge within the reach
        fiber = FiberSpec(length_m, CALIBRATED_B, 0.0, silica)
        point = solve_signal_idler(fiber, 771.0)

        def outcome():
            try:
                return output_bandwidths(fiber, point, 0.3)
            except (WavelengthRangeError, BandwidthError) as exc:
                return type(exc), str(exc)

        fast = outcome()
        monkeypatch.setattr(phasematch, "_within_ranges", lambda *args: False)
        assert outcome() == fast
        assert (fast[0] is WavelengthRangeError) == (length_m <= 1e-4)

    def test_zero_length_fiber_has_no_bandwidth(self, paper_fiber):
        point = solve_signal_idler(paper_fiber, 771.0)
        with pytest.raises(BandwidthError, match="zero-length fiber"):
            output_bandwidths(dataclasses.replace(paper_fiber, length_m=0.0), point, 0.3)

    def test_profile_without_an_upper_edge_is_rejected(self, silica):
        # 1.8 nm from a 430 nm pump the mismatch peaks at the degenerate
        # signal at about 29 rad/m, below the 278 rad/m half-maximum level of
        # a 1 cm fiber: the sinc^2 profile has no upper half-maximum edge
        fiber = FiberSpec(0.01, 1e-6, 0.0, silica)
        point = solve_signal_idler(fiber, 430.0)
        assert point.lambda_s_nm == pytest.approx(428.218, abs=1e-3)
        with pytest.raises(BandwidthError, match="no half-maximum crossing"):
            output_bandwidths(fiber, point, 0.0)

    @pytest.mark.parametrize("pump_fwhm_nm", [-0.3, np.nan, np.inf])
    def test_pump_fwhm_checked_before_any_mismatch_call(self, monkeypatch, paper_fiber,
                                                        pump_fwhm_nm):
        point = solve_signal_idler(paper_fiber, 771.0)

        def no_mismatch(*_):
            raise AssertionError("the mismatch ran before the pump FWHM was checked")

        monkeypatch.setattr(phasematch, "phase_mismatch", no_mismatch)
        monkeypatch.setattr(phasematch, "_mismatch", no_mismatch)
        with pytest.raises(ValueError, match="pump_fwhm_nm"):
            output_bandwidths(paper_fiber, point, pump_fwhm_nm)

    # pinned with the analytic group-index slopes, the roots of the Newton steps in x
    # and the mismatch and its slopes evaluated in wavenumbers
    @pytest.mark.parametrize("length_m, birefringence, pump_nm, pump_fwhm_nm, expected", [
        (0.13, CALIBRATED_B, 771.0, 0.3, (0.4201096370908702, 0.7713418008404725)),
        (0.26, CALIBRATED_B, 771.0, 0.45, (0.36886892044517655, 0.6772613438256372)),
        # calibrate_birefringence(silica, 774.0, 662.0), to 1e-18
        (0.21, 0.000398548422148662, 774.0, 0.42, (0.34913899636289997, 0.6914406392894392)),
    ], ids=["paper", "long-fiber", "design-range"])
    def test_pinned_values(self, silica, length_m, birefringence, pump_nm, pump_fwhm_nm,
                           expected):
        fiber = FiberSpec(length_m, birefringence, 0.01, silica)
        point = solve_signal_idler(fiber, pump_nm)
        assert output_bandwidths(fiber, point, pump_fwhm_nm) == expected

    def test_two_mismatch_calls_before_refinement(self, monkeypatch, paper_fiber):
        # the point, checked, with both slopes in one call; then the two reach
        # ends, checked together before either is evaluated; then the edges
        point = solve_signal_idler(paper_fiber, 771.0)
        calls = []

        def log(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(phasematch, "_check_wavelengths",
                            log("check", phasematch._check_wavelengths))
        monkeypatch.setattr(phasematch, "_within_ranges", log("range", phasematch._within_ranges))
        monkeypatch.setattr(phasematch, "_mismatch", log("mismatch", phasematch._mismatch))
        monkeypatch.setattr(phasematch, "_refine", log("refine", phasematch._refine))
        output_bandwidths(paper_fiber, point, 0.3)
        assert calls[:calls.index("refine")] == ["check", "range", "mismatch", "check", "range",
                                                 "mismatch", "mismatch"]
