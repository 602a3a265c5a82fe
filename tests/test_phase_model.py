import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import lambda_form_phase, phi_pair_walkoff, phi_pump
from xsplice import (
    CompensatorSpec,
    FiberSpec,
    SellmeierModel,
    bandwidth_grid,
    birefringence,
    compensated_phase,
    compensator_phase,
    idler_wavelength,
    index,
    phase_map,
    total_phase,
)
from xsplice.materials import WavelengthRangeError
from xsplice.phase import PhaseMap, _crystal_phase
from xsplice.phasematch import PhaseMatchError, phase_mismatch


def paper_axes():
    return (bandwidth_grid(670.0, 0.23, 101), bandwidth_grid(771.0, 0.3, 101))


@pytest.fixture(scope="module")
def constant_index_model():
    # n identically 1.45: single Sellmeier term with C = 0
    return SellmeierModel(terms=((1.45**2 - 1.0, 0.0),), valid_range_nm=(200.0, 4000.0),
                          name="constant")


class TestWalkoffPhase:
    def test_zero_length(self, silica):
        fiber = FiberSpec(0.0, 3e-4, 0.01, silica)
        assert phi_pair_walkoff(fiber, 670.0, 771.0) == 0.0

    def test_constant_index_collapse(self, constant_index_model):
        # with B = 0 and dispersionless n, energy conservation collapses
        # the sum: phi = 2 pi L n (1/ls + 1/li) = 2 pi L n * 2/lp
        fiber = FiberSpec(0.13, 0.0, 0.0, constant_index_model)
        got = phi_pair_walkoff(fiber, 670.0, 771.0)
        expected = 2 * np.pi * 0.13 * 1.45 * 2.0 / 771e-9
        assert got == pytest.approx(expected, rel=1e-12)

    def test_paper_point_hand_evaluation(self, paper_fiber):
        # oracle: spell the sum out with independent arithmetic
        ls, lp = 670.0, 771.0
        li = ls * lp / (2 * ls - lp)
        n = paper_fiber.core_model
        b = paper_fiber.birefringence
        expected = (2 * np.pi * 0.13 / (ls * 1e-9)) * (index(n, ls) + b) \
            + (2 * np.pi * 0.13 / (li * 1e-9)) * (index(n, li) + b)
        assert phi_pair_walkoff(paper_fiber, ls, lp) == pytest.approx(expected, rel=1e-14)


class TestPumpPhase:
    def test_zero_length(self, silica):
        fiber = FiberSpec(0.0, 3e-4, 0.01, silica)
        assert phi_pump(fiber, 771.0) == 0.0

    def test_linear_in_length(self, silica):
        f1 = FiberSpec(0.13, 3e-4, 0.01, silica)
        f2 = FiberSpec(0.26, 3e-4, 0.01, silica)
        assert phi_pump(f2, 771.0) == pytest.approx(2 * phi_pump(f1, 771.0), rel=1e-14)

    def test_independent_of_birefringence(self, silica):
        # the pump rides the fast axis in the first segment
        f1 = FiberSpec(0.13, 1e-4, 0.01, silica)
        f2 = FiberSpec(0.13, 9e-4, 0.01, silica)
        assert phi_pump(f1, 771.0) == phi_pump(f2, 771.0)


class TestTotalPhase:
    def test_zero_length(self, silica):
        fiber = FiberSpec(0.0, 3e-4, 0.01, silica)
        assert total_phase(fiber, 670.0, 771.0) == 0.0

    def test_signal_dependence_only_through_walkoff(self, paper_fiber):
        # total + walkoff must not depend on the signal wavelength
        vals = [total_phase(paper_fiber, ls, 771.0) + phi_pair_walkoff(paper_fiber, ls, 771.0)
                for ls in (660.0, 670.0, 680.0)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-14)
        assert vals[1] == pytest.approx(vals[2], rel=1e-14)

    def test_signal_idler_exchange_symmetry(self, paper_fiber):
        ls, lp = 669.5, 771.0
        li = idler_wavelength(ls, lp)
        a = total_phase(paper_fiber, ls, lp)
        b = total_phase(paper_fiber, li, lp)
        assert a == pytest.approx(b, rel=1e-12)

    def test_constant_index_analytic_collapse(self, constant_index_model):
        fiber = FiberSpec(0.13, 0.0, 0.005, constant_index_model)
        got = total_phase(fiber, 670.0, 771.0)
        expected = phi_pump(fiber, 771.0) - 2 * np.pi * 0.13 * 1.45 * 2.0 / 771e-9
        assert got == pytest.approx(expected, rel=1e-12)

    def test_peak_to_peak_800_degrees(self, paper_fiber):
        s_ax, p_ax = paper_axes()
        pmap = phase_map(paper_fiber, None, s_ax, p_ax)
        assert 800.0 * 0.75 <= pmap.peak_to_peak_deg <= 800.0 * 1.25

    def test_smoothness(self, paper_fiber):
        # finite differences at the grid spacing agree with a 10x refined
        # grid to better than 1%: no discretization kinks
        h = paper_axes()[0][1] - paper_axes()[0][0]
        ls = 670.0
        coarse = (total_phase(paper_fiber, ls + h, 771.0)
                  - total_phase(paper_fiber, ls - h, 771.0)) / (2 * h)
        fine = (total_phase(paper_fiber, ls + h / 10, 771.0)
                - total_phase(paper_fiber, ls - h / 10, 771.0)) / (2 * h / 10)
        assert coarse == pytest.approx(fine, rel=0.01)


class TestCompensatorPhase:
    def test_zero_length(self, quartz_material):
        comp = CompensatorSpec(0.0, quartz_material, +1, "signal")
        assert compensator_phase(comp, 905.0) == 0.0

    def test_orientation_flip_negates(self, quartz_material):
        plus = CompensatorSpec(47.6, quartz_material, +1, "idler")
        minus = CompensatorSpec(47.6, quartz_material, -1, "idler")
        assert compensator_phase(plus, 905.0) == -compensator_phase(minus, 905.0)

    def test_hand_evaluation_at_905(self, quartz_material):
        # oracle: 2 pi * 0.0476 m * dn(905) / 905e-9 m with dn from the
        # shipped quartz pair
        comp = CompensatorSpec(47.6, quartz_material, -1, "idler")
        dn = birefringence(quartz_material, 905.0)
        expected = 2 * np.pi * 0.0476 * dn / 905e-9
        assert abs(compensator_phase(comp, 905.0)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("sign", (+1, -1))
    def test_is_the_wavenumber_kernel(self, quartz_material, sign):
        # compensator_phase scales birefringence's dn by k = 1000/lambda as
        # _crystal_phase, compensated_phase's kernel, scales its own: the two
        # bodies agree bit for bit, on scalars, lists and arrays alike
        comp = CompensatorSpec(47.6, quartz_material, sign, "idler")
        for lam in (905.0, np.array(905.0), [670.0, 771.0, 905.0],
                    np.linspace(600.0, 1600.0, 11)):
            k = 1000.0 / np.asarray(lam, dtype=float)
            got, want = compensator_phase(comp, lam), _crystal_phase(comp, k, k * k)
            assert type(got) is (float if np.ndim(lam) == 0 else np.ndarray)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_range_error_names_the_e_ray_first(self, quartz_material):
        # both rays share [198, 2050] nm: birefringence checks the e-ray first
        comp = CompensatorSpec(10.0, quartz_material, +1, "signal")
        for lam in (2400.0, [905.0, 2400.0]):
            with pytest.raises(WavelengthRangeError, match="of quartz_e "):
                compensator_phase(comp, lam)

    def test_validation(self, quartz_material):
        for length in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                CompensatorSpec(length, quartz_material, +1, "signal")
        with pytest.raises(ValueError):
            CompensatorSpec(10.0, quartz_material, 2, "signal")
        with pytest.raises(ValueError):
            CompensatorSpec(10.0, quartz_material, +1, "middle")


class TestCompensatedPhase:
    def test_zero_length_comps_are_inert(self, paper_fiber, quartz_material):
        comps = (CompensatorSpec(0.0, quartz_material, +1, "signal"),
                 CompensatorSpec(0.0, quartz_material, -1, "idler"))
        assert compensated_phase(paper_fiber, comps, 670.0, 771.0) \
            == total_phase(paper_fiber, 670.0, 771.0)

    def test_opposite_pair_cancels(self, paper_fiber, quartz_material):
        comps = (CompensatorSpec(30.0, quartz_material, +1, "signal"),
                 CompensatorSpec(30.0, quartz_material, -1, "signal"))
        got = compensated_phase(paper_fiber, comps, 670.0, 771.0)
        assert got == pytest.approx(total_phase(paper_fiber, 670.0, 771.0), rel=1e-14)

    def test_paper_design_flattens(self, paper_fiber, paper_compensators):
        s_ax, p_ax = paper_axes()
        pmap = phase_map(paper_fiber, paper_compensators, s_ax, p_ax)
        assert pmap.peak_to_peak_deg <= 10.0


class TestPhaseMap:
    def test_shape_must_match_the_axes(self):
        with pytest.raises(ValueError, match="shape does not match"):
            PhaseMap(np.array([670.0, 671.0]), np.array([771.0]), np.zeros((1, 2)))

    def test_grid_must_be_mean_subtracted(self):
        with pytest.raises(ValueError, match="not mean-subtracted"):
            PhaseMap(np.array([670.0, 671.0]), np.array([771.0]), np.array([[0.0], [1.0]]))

    def test_single_point_grid(self, paper_fiber):
        pmap = phase_map(paper_fiber, None, [670.0], [771.0])
        assert pmap.deviation_deg.shape == (1, 1)
        assert pmap.deviation_deg[0, 0] == 0.0

    def test_mean_subtracted(self, paper_fiber):
        s_ax, p_ax = paper_axes()
        pmap = phase_map(paper_fiber, None, s_ax, p_ax)
        assert abs(pmap.deviation_deg.mean()) < 1e-9

    def test_axis_validation(self, paper_fiber):
        with pytest.raises(ValueError):
            phase_map(paper_fiber, None, [], [771.0])
        with pytest.raises(ValueError):
            phase_map(paper_fiber, None, [671.0, 670.0], [771.0])
        # a NaN passes the sort test but not the wavelength checks
        with pytest.raises(ValueError):
            phase_map(paper_fiber, None, [670.0, np.nan], [771.0])
        with pytest.raises(ValueError):
            phase_map(paper_fiber, None, [670.0], [np.nan, 771.0])

    def test_open_axes_match_full_grid(self, paper_fiber, paper_compensators):
        # the map is evaluated on a signal column against a pump row; a full
        # meshgrid must give the same bits, and unequal axis lengths catch
        # any swap of the two axes
        s_ax = bandwidth_grid(670.0, 0.23, 101)
        p_ax = bandwidth_grid(771.0, 0.3, 61)
        S, P = np.meshgrid(s_ax, p_ax, indexing="ij")
        for comps in (None, paper_compensators):
            full = np.degrees(compensated_phase(paper_fiber, comps or (), S, P))
            full = full - full.mean()
            full = full - full.mean()
            pmap = phase_map(paper_fiber, comps, s_ax, p_ax)
            assert np.array_equal(pmap.deviation_deg, full)


class TestWavenumberKernel:
    def test_paper_grid_matches_wavelength_form(self, paper_fiber, paper_compensators):
        s_ax, p_ax = paper_axes()
        tol = 8.0 * np.spacing(phi_pump(paper_fiber, p_ax).max())
        for comps in ((), paper_compensators):
            got = compensated_phase(paper_fiber, comps, s_ax[:, None], p_ax[None, :])
            ref = lambda_form_phase(paper_fiber, comps, s_ax[:, None], p_ax[None, :])
            assert np.abs(got - ref).max() <= tol

    # each failure as the wavelength form reports it, first offender first
    @pytest.mark.parametrize("signal, pump, crystals, error, message", [
        (480.0, 800.0, True, WavelengthRangeError,
         "wavelength 2400 nm outside validity range [198, 2050] nm of quartz_e "
         "(violated bound: 2050 nm)"),
        (440.0, 800.0, False, WavelengthRangeError,
         "wavelength 4400 nm outside validity range [210, 3710] nm of fused_silica "
         "(violated bound: 3710 nm)"),
        (np.linspace(460.0, 700.0, 5)[:, None], [[771.0, 800.0]], True, WavelengthRangeError,
         "wavelength 2380.27 nm outside validity range [198, 2050] nm of quartz_e "
         "(violated bound: 2050 nm)"),
        (300.0, 771.0, False, WavelengthRangeError,
         "wavelength -1352.63 nm outside validity range [210, 3710] nm of fused_silica "
         "(violated bound: 210 nm)"),
        ([670.0, 190.0], 771.0, True, WavelengthRangeError,
         "wavelength 190 nm outside validity range [210, 3710] nm of fused_silica "
         "(violated bound: 210 nm)"),
        (670.0, [771.0, 4000.0], True, WavelengthRangeError,
         "wavelength 4000 nm outside validity range [210, 3710] nm of fused_silica "
         "(violated bound: 3710 nm)"),
        (np.empty(0), 5000.0, False, WavelengthRangeError,
         "wavelength 5000 nm outside validity range [210, 3710] nm of fused_silica "
         "(violated bound: 3710 nm)"),
        (np.nan, 771.0, True, WavelengthRangeError, "wavelength is not a number"),
        (670.0, [771.0, np.nan], False, WavelengthRangeError, "wavelength is not a number"),
        (-670.0, 771.0, True, WavelengthRangeError, "wavelengths must be positive"),
        (670.0, 0.0, False, WavelengthRangeError, "wavelengths must be positive"),
        (385.5, 771.0, True, PhaseMatchError, "degenerate denominator: 2*lambda_s == lambda_p"),
        (np.inf, 771.0, True, WavelengthRangeError, "wavelengths must be finite"),
        ([670.0, 680.0], [[771.0], [np.inf]], False, WavelengthRangeError,
         "wavelengths must be finite"),
        (-np.inf, 771.0, False, WavelengthRangeError, "wavelengths must be positive"),
        (670.0, -np.inf, True, WavelengthRangeError, "wavelengths must be positive"),
    ], ids=["idler-crystal", "idler-core", "idler-grid", "negative-idler", "signal", "pump",
            "empty-signal", "nan-signal", "nan-pump", "negative", "zero", "degenerate",
            "inf-signal", "inf-pump", "minus-inf-signal", "minus-inf-pump"])
    def test_errors_match_the_wavelength_form(self, paper_fiber, paper_compensators, signal,
                                              pump, crystals, error, message):
        # phase_mismatch shares the check: it fails as the no-crystal phase does
        calls = [lambda: compensated_phase(paper_fiber, paper_compensators if crystals else None,
                                           signal, pump)]
        if not crystals:
            calls.append(lambda: phase_mismatch(paper_fiber, pump, signal))
        for call in calls:
            with warnings.catch_warnings(), pytest.raises(error) as err:
                warnings.simplefilter("error")
                call()
            assert type(err.value) is error and str(err.value) == message

    def test_full_grid_memory(self, paper_fiber, paper_compensators):
        # full-size inputs make every intermediate full size; each is freed
        # once used
        S, P = np.meshgrid(bandwidth_grid(670.0, 0.23, 301), bandwidth_grid(771.0, 0.3, 301),
                           indexing="ij")
        tracemalloc.start()
        try:
            out = compensated_phase(paper_fiber, paper_compensators, S, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * out.nbytes
