"""Property tests of physical invariants over drawn operating points."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xsplice import (CompensatorSpec, FiberSpec, GaussianSpectrum, TwoQubitState,
                     compensated_phase, compensator_phase, reconstruct_mle,
                     simulate_counts, standard_settings, total_phase, visibility)
from xsplice.counts import effective_state_at_power, visibility_vs_power
from xsplice.design import calibrate_birefringence, optimize_compensators, weighted_phase_std
from xsplice.materials import WavelengthRangeError, birefringence, index, index_and_group_index
from xsplice.phasematch import (PhaseMatchError, _mismatch, idler_wavelength, output_bandwidths,
                                phase_mismatch, solve_signal_idler, tuning_curve)
from xsplice.states import (DESIGN_POINTS, DESIGN_SPAN_SIGMAS, QUAD_NODES, QUAD_SPAN_SIGMAS,
                            _PROBE_X, _alias_check, _spectral_axes, concurrence,
                            mixed_state_over_spectra, relabel_signal_flip, spectral_grid)
from xsplice.tomography import _deviance, _gradient, _projector_stack

from conftest import (exact_quadratic_average, lambda_form_phase, nearest_root_reference,
                      phi_pump)

# Small, fixed example sets: the solver-bound and MLE properties cost a few
# ms each.
SOLVER = settings(derandomize=True, max_examples=12, deadline=None)
CHEAP = settings(derandomize=True, max_examples=40, deadline=None)

pumps = st.floats(740.0, 800.0)
targets = st.floats(600.0, 735.0)
lengths = st.floats(0.02, 1.0)
# Wide enough for every (pump, target) pair drawn above.
B_RANGE = (1e-8, 1e-2)


def _calibrated(silica, pump, target, length):
    b = calibrate_birefringence(silica, pump, target, b_range=B_RANGE)
    fiber = FiberSpec(length, b, 0.0, silica)
    return fiber, solve_signal_idler(fiber, pump)


def _dense_sinc2_fwhm(fiber, point):
    """Half-maximum width of sinc^2(dk L / 2) read off a dense signal grid."""
    half_span = 3.0 * 0.13 / fiber.length_m  # nm, several widths at any length
    ls = np.linspace(point.lambda_s_nm - half_span, point.lambda_s_nm + half_span, 200001)
    x = phase_mismatch(fiber, point.lambda_p_nm, ls) * fiber.length_m / 2.0
    profile = np.sinc(x / np.pi) ** 2
    centre = int(np.argmax(profile))
    below = np.nonzero(profile < 0.5)[0]
    right = below[below > centre][0]
    left = below[below < centre][-1]

    def crossing(i, j):
        # linear interpolation between grid points i (below) and j (above)
        return ls[i] + (0.5 - profile[i]) * (ls[j] - ls[i]) / (profile[j] - profile[i])

    return crossing(right, right - 1) - crossing(left, left + 1)


@SOLVER
@given(pump=pumps, target=targets, length=lengths)
def test_calibrate_then_solve_returns_target(silica, pump, target, length):
    _, point = _calibrated(silica, pump, target, length)
    assert abs(point.lambda_s_nm - target) < 1e-6


@SOLVER
@given(pump=pumps, target=targets, length=lengths)
def test_no_root_between_the_inner_end_and_the_solved_root(silica, pump, target, length):
    # dk is even in delta = 1/ls - 1/lp: a grid uniform in x = delta^2, from
    # the window's inner end (ls = lp - 0.25 nm) to the returned root
    fiber, point = _calibrated(silica, pump, target, length)
    x = np.linspace((1.0 / (pump - 0.25) - 1.0 / pump) ** 2,
                    (1.0 / point.lambda_s_nm - 1.0 / pump) ** 2, 20001)
    assert np.all(phase_mismatch(fiber, pump, 1.0 / (1.0 / pump + np.sqrt(x[:-1]))) > 0)


@CHEAP
@given(pump=pumps, signal=targets, b=st.floats(1e-5, 1e-3))
def test_mismatch_linear_in_birefringence(silica, pump, signal, b):
    dk0 = phase_mismatch(FiberSpec(0.13, 0.0, 0.0, silica), pump, signal)
    dk = phase_mismatch(FiberSpec(0.13, b, 0.0, silica), pump, signal)
    expected = 4.0 * np.pi * b / (pump * 1e-9)
    assert dk - dk0 == pytest.approx(expected, rel=1e-9)


@CHEAP
@given(name=st.sampled_from(["fused_silica", "quartz_o", "quartz_e"]),
       where=st.floats(0.0, 1.0))
def test_group_index_matches_central_differences(materials_db, name, where):
    model = materials_db[name]
    lo, hi = model.valid_range_nm
    rel_step = 1e-5
    lam = lo * (1.0 + 2 * rel_step) + where * (hi - lo) * (1.0 - 4 * rel_step)
    h = rel_step * lam
    n, n_g = index_and_group_index(model, lam)
    dn_dlam = (index(model, lam + h) - index(model, lam - h)) / (2.0 * h)
    assert n == index(model, lam)
    # truncation and rounding are both about 1e-10 at this step
    assert n_g == pytest.approx(n - lam * dn_dlam, abs=1e-9)


@CHEAP
@given(pump=pumps, signal=targets, b=st.floats(1e-5, 1e-3))
def test_mismatch_slopes_match_central_differences(silica, pump, signal, b):
    fiber = FiberSpec(0.13, b, 0.0, silica)
    (dk,), (dk_dls,), (dk_dlp,) = _mismatch(fiber, np.array([pump]), np.array([signal]))
    assert dk == phase_mismatch(fiber, pump, signal)
    h = 0.01  # nm; these central differences agree to 3e-8 relative
    central_s = (phase_mismatch(fiber, pump, signal + h)
                 - phase_mismatch(fiber, pump, signal - h)) / (2.0 * h)
    central_p = (phase_mismatch(fiber, pump + h, signal)
                 - phase_mismatch(fiber, pump - h, signal)) / (2.0 * h)
    assert dk_dls == pytest.approx(central_s, rel=1e-6)
    assert dk_dlp == pytest.approx(central_p, rel=1e-6)


@SOLVER
@given(pump=pumps, target=targets, length=lengths)
def test_intrinsic_bandwidth_matches_dense_profile(silica, pump, target, length):
    fiber, point = _calibrated(silica, pump, target, length)
    width, _ = output_bandwidths(fiber, point, pump_fwhm_nm=0.0)
    assert width == pytest.approx(_dense_sinc2_fwhm(fiber, point), rel=1e-4)


@SOLVER
@given(pump=pumps, target=targets, length=lengths, pump_fwhm=st.floats(0.1, 1.0))
def test_pump_slope_matches_solution_curve(silica, pump, target, length, pump_fwhm):
    fiber, point = _calibrated(silica, pump, target, length)
    intrinsic, _ = output_bandwidths(fiber, point, 0.0)
    broadened, _ = output_bandwidths(fiber, point, pump_fwhm)
    slope = np.sqrt(broadened ** 2 - intrinsic ** 2) / pump_fwhm
    h = 0.05
    central = (solve_signal_idler(fiber, pump + h).lambda_s_nm
               - solve_signal_idler(fiber, pump - h).lambda_s_nm) / (2.0 * h)
    assert slope == pytest.approx(abs(central), rel=1e-3)


def _assert_one_path(fiber, pump_range, steps):
    """Each tuning-curve point is the single-pump solve; each skip raises."""
    points, skipped = tuning_curve(fiber, pump_range, steps)
    assert len(points) + len(skipped) == steps
    for point in points:
        assert point == solve_signal_idler(fiber, point.lambda_p_nm)
    for lp in skipped:
        with pytest.raises((PhaseMatchError, WavelengthRangeError)):
            solve_signal_idler(fiber, lp)
    return points, skipped


@SOLVER
@given(pump=pumps, target=targets, length=lengths, start=st.floats(700.0, 1200.0),
       span=st.floats(0.0, 2000.0), steps=st.integers(2, 7))
def test_tuning_curve_is_the_single_pump_solve(silica, pump, target, length, start, span,
                                               steps):
    fiber, point = _calibrated(silica, pump, target, length)
    wide, _ = _assert_one_path(fiber, (start, start + span), steps)
    # every root, and each of a curve over the design range, is the one that
    # a dense scan and bisection find closest to the pump
    centred, skipped = tuning_curve(fiber, (pump - 6.0, pump + 6.0), steps)
    assert not skipped
    for p in [point, *wide, *centred]:
        ref, _ = nearest_root_reference(fiber, p.lambda_p_nm)
        assert p.lambda_s_nm == pytest.approx(ref, abs=1e-5)


@pytest.mark.parametrize("pump_range, n_solved", [
    ((1000.0, 1400.0), 4),
    # no root below silica's 3710 nm validity limit, and no window above it
    ((1500.0, 3800.0), 0),
])
def test_mixed_range_skips_pumps_one_by_one(paper_fiber, pump_range, n_solved):
    points, skipped = _assert_one_path(paper_fiber, pump_range, 13)
    assert len(points) == n_solved and len(skipped) == 13 - n_solved
    limit = paper_fiber.core_model.valid_range_nm[1]
    for lp in skipped:
        reason = "empty search window" if lp > limit else "no phase-matched solution"
        with pytest.raises(PhaseMatchError, match=reason):
            solve_signal_idler(paper_fiber, lp)


@CHEAP
@given(pump=pumps, signal=targets)
def test_idler_round_trip(pump, signal):
    idler = idler_wavelength(signal, pump)
    assert idler_wavelength(idler, pump) == pytest.approx(signal, rel=1e-12)


signs = st.sampled_from([+1, -1])
crystal_mm = st.floats(0.0, 150.0)


@CHEAP
@given(pump=pumps, signal=targets, a=crystal_mm, b=crystal_mm, sign_a=signs, sign_b=signs)
def test_compensated_phase_linear_in_lengths(paper_fiber, quartz_material, pump, signal,
                                             a, b, sign_a, sign_b):
    # the design's premise: phi(a, b) = phi(0, 0) + a x + b y, with x and
    # y the phases of 1 mm crystals in the signal and idler arms
    def crystal(length, sign, arm):
        return CompensatorSpec(length, quartz_material, sign, arm)

    base = compensated_phase(paper_fiber, (), signal, pump)
    x = compensator_phase(crystal(1.0, sign_a, "signal"), signal)
    y = compensator_phase(crystal(1.0, sign_b, "idler"), idler_wavelength(signal, pump))
    got = compensated_phase(paper_fiber, (crystal(a, sign_a, "signal"),
                                          crystal(b, sign_b, "idler")), signal, pump)
    rounding = 8.0 * np.finfo(float).eps * (abs(base) + abs(a * x) + abs(b * y))
    assert abs(got - (base + a * x + b * y)) <= rounding


@CHEAP
@given(pump=pumps, signal=targets, length=lengths, b=st.floats(*B_RANGE), a=crystal_mm,
       c=crystal_mm, sign_a=signs, sign_c=signs)
def test_wavenumber_phase_matches_the_wavelength_form(silica, quartz_material, pump, signal,
                                                      length, b, a, c, sign_a, sign_c):
    # the wavenumber form cancels the two segments' phases term by term;
    # the wavelength form subtracts them whole, so both carry the rounding
    # of phi_pump's size, a few ulp of it
    fiber = FiberSpec(length, b, 0.0, silica)
    comps = (CompensatorSpec(a, quartz_material, sign_a, "signal"),
             CompensatorSpec(c, quartz_material, sign_c, "idler"))
    tol = 8.0 * np.spacing(abs(phi_pump(fiber, pump)))
    for crystals in ((), comps):
        got = compensated_phase(fiber, crystals, signal, pump)
        assert abs(got - lambda_form_phase(fiber, crystals, signal, pump)) <= tol


@CHEAP
@given(pump=pumps, signal=targets, length=lengths, b=st.floats(*B_RANGE))
def test_relative_phase_is_the_mismatch_with_the_pump_fast(silica, pump, signal, length, b):
    # phi = L dk with B -> -B, and dk is linear in B: L [dk(B=0) - 4 pi B / lp]
    fiber = FiberSpec(length, b, 0.0, silica)
    fiber_b0 = FiberSpec(length, 0.0, 0.0, silica)
    expected = length * (phase_mismatch(fiber_b0, pump, signal) - 4.0 * np.pi * b / (pump * 1e-9))
    tol = 2.0 * np.spacing(abs(phi_pump(fiber, pump)))
    assert abs(compensated_phase(fiber, None, signal, pump) - expected) <= tol


@CHEAP
@given(pump=pumps, signal=targets, rows=st.integers(1, 5), cols=st.integers(1, 5),
       length=crystal_mm, sign=signs)
def test_kernels_leave_their_inputs_unchanged(paper_fiber, quartz_material, pump, signal,
                                              rows, cols, length, sign):
    # the kernels work in place on arrays they allocate themselves; a float64
    # input that already has the output's shape is where a write would alias
    comps = (CompensatorSpec(length, quartz_material, sign, "signal"),
             CompensatorSpec(length, quartz_material, -sign, "idler"))
    kernels = {
        "index": lambda s, p: index(paper_fiber.core_model, s),
        "birefringence": lambda s, p: birefringence(quartz_material, s),
        "phase_mismatch": lambda s, p: phase_mismatch(paper_fiber, p, s),
        "total_phase": lambda s, p: total_phase(paper_fiber, s, p),
        "compensator_phase": lambda s, p: compensator_phase(comps[0], s),
        "compensated_phase": lambda s, p: compensated_phase(paper_fiber, comps, s, p),
    }
    col = signal + np.linspace(0.0, 1.0, rows)[:, None]
    row = pump + np.linspace(0.0, 1.0, cols)[None, :]
    full_s, full_p = col + 0.0 * row, row + 0.0 * col
    for name, kernel in kernels.items():
        for s, p in ((col, row), (full_s, row), (col, full_p), (full_s, full_p)):
            kept = s.copy(), p.copy()
            out = kernel(s, p)
            assert np.array_equal(s, kept[0]) and np.array_equal(p, kept[1]), name
            assert not (np.shares_memory(out, s) or np.shares_memory(out, p)), name
        assert type(kernel(signal, pump)) is float, name


@SOLVER
@given(pump=pumps, target=targets, length=lengths, pump_fwhm=st.floats(0.1, 1.0),
       signal_fwhm=st.floats(0.05, 0.5))
def test_compensators_never_worsen_the_phase(silica, quartz_material, pump, target, length,
                                             pump_fwhm, signal_fwhm):
    # zero-length crystals are always feasible, so the design's residual
    # cannot exceed the uncompensated spread beyond rounding
    fiber, point = _calibrated(silica, pump, target, length)
    pump_spec = GaussianSpectrum(pump, pump_fwhm)
    signal_spec = GaussianSpectrum(point.lambda_s_nm, signal_fwhm)
    _, _, residual = optimize_compensators(fiber, quartz_material, pump_spec, signal_spec)
    uncompensated = weighted_phase_std(fiber, None, pump_spec, signal_spec)
    assert residual <= uncompensated + 1e-6


SPEED_OF_LIGHT = 299792458.0  # m/s


def _relative_group_delays_fs(fiber, comps, signal, pump):
    """(tau_s, tau_p) in fs: d phi/d omega_s at fixed pump and d phi/d
    omega_p at fixed signal, from the analytic group indices alone.

    ``optimize_compensators`` nulls the same slopes in other coordinates,
    (omega_s, omega_i), where each arm's delay involves only its own
    crystal; this oracle shares only ``index_and_group_index`` with it.

    With omega_i = 2 omega_p - omega_s, the second segment's pair (slow
    axis, n_g + B) and the first segment's two pump photons (fast axis)
    give tau_s = L [n_g(li) - n_g(ls)] / c and tau_p = 2 L [n_g(lp) -
    n_g(li) - B] / c. A crystal of signed length l adds l dn_g / c at its
    arm's frequency, with dn_g = n_g,e - n_g,o.
    """
    idler = idler_wavelength(signal, pump)
    _, (g_s, g_i, g_p) = index_and_group_index(fiber.core_model,
                                               np.array([signal, idler, pump]))
    tau_s = fiber.length_m * (g_i - g_s)
    tau_p = 2.0 * fiber.length_m * (g_p - g_i - fiber.birefringence)
    for comp in comps:
        lam = signal if comp.arm == "signal" else idler
        dn_g = (index_and_group_index(comp.material.extraordinary, lam)[1]
                - index_and_group_index(comp.material.ordinary, lam)[1])
        delay = comp.orientation_sign * comp.length_mm * 1e-3 * dn_g
        if comp.arm == "signal":
            tau_s += delay
        else:
            tau_s, tau_p = tau_s - delay, tau_p + 2.0 * delay
    return tau_s / SPEED_OF_LIGHT * 1e15, tau_p / SPEED_OF_LIGHT * 1e15


@pytest.mark.parametrize("with_crystals", [False, True])
def test_group_delays_are_the_phase_slopes(paper_fiber, paper_compensators, with_crystals):
    # the oracle below against central differences of the phase model,
    # through d lambda / d omega = -lambda^2 / (2 pi c)
    comps = paper_compensators if with_crystals else ()
    signal, pump, h = 670.0, 771.0, 0.01

    def per_omega(dphi_dlam, lam):
        return -dphi_dlam * (lam * 1e-9) ** 2 / (2.0 * np.pi * SPEED_OF_LIGHT) * 1e9 * 1e15

    def phase(s, p):
        return compensated_phase(paper_fiber, comps, s, p)

    tau_s = per_omega((phase(signal + h, pump) - phase(signal - h, pump)) / (2.0 * h), signal)
    tau_p = per_omega((phase(signal, pump + h) - phase(signal, pump - h)) / (2.0 * h), pump)
    got = _relative_group_delays_fs(paper_fiber, comps, signal, pump)
    assert got == pytest.approx((tau_s, tau_p), abs=1e-3)
    # uncompensated, each delay is about one coherence time of the pair;
    # the paper's crystals leave -9.5 and -56 fs
    assert min(abs(t) for t in got) > (5.0 if with_crystals else 2900.0)


@SOLVER
@given(pump=pumps, target=targets, length=lengths, pump_fwhm=st.floats(0.1, 1.0),
       signal_fwhm=st.floats(0.05, 0.5))
def test_designed_compensators_null_the_walk_off(silica, quartz_material, pump, target,
                                                 length, pump_fwhm, signal_fwhm):
    # the design is the walk-off design: both relative group delays vanish
    # at the spectral centres to rounding, from thousands of fs
    fiber, point = _calibrated(silica, pump, target, length)
    signal = point.lambda_s_nm
    comps = optimize_compensators(fiber, quartz_material, GaussianSpectrum(pump, pump_fwhm),
                                  GaussianSpectrum(signal, signal_fwhm))[:2]
    tau_s, tau_p = _relative_group_delays_fs(fiber, comps, signal, pump)
    assert abs(tau_s) <= 1e-6 and abs(tau_p) <= 1e-6


def _variance_design(fiber, material, pump, signal):
    """Signed lengths (mm) and std (deg) of the variance design.

    The compensated phase is linear in the signed lengths (a, b), so its
    weighted variance on the design grid is a quadratic whose minimum
    solves the 2x2 normal equations G [a, b] = -c of the centred columns.
    """
    ls, lp, w = spectral_grid(signal, pump, DESIGN_POINTS, DESIGN_SPAN_SIGMAS)

    def centred(f):
        return f - np.sum(w * f)

    base = centred(total_phase(fiber, ls, lp))
    x = centred(compensator_phase(CompensatorSpec(1.0, material, +1, "signal"), ls))
    y = centred(compensator_phase(CompensatorSpec(1.0, material, +1, "idler"),
                                  idler_wavelength(ls, lp)))
    gram = np.array([[np.sum(w * x * x), np.sum(w * x * y)],
                     [np.sum(w * x * y), np.sum(w * y * y)]])
    a, b = np.linalg.solve(gram, -np.array([np.sum(w * base * x), np.sum(w * base * y)]))
    r = base + a * x + b * y
    return float(a), float(b), float(np.degrees(np.sqrt(np.sum(w * r * r))))


@SOLVER
@given(pump=st.floats(766.0, 776.0), target=st.floats(655.0, 685.0),
       length=st.floats(0.08, 0.30), pump_fwhm=st.floats(0.2, 0.5),
       signal_fwhm=st.floats(0.15, 0.35))
def test_walk_off_design_is_near_the_variance_minimum(silica, quartz_material, pump, target,
                                                      length, pump_fwhm, signal_fwhm):
    # on the design workload's ranges the walk-off lengths lie within 1e-3 mm
    # of the variance minimum and their std exceeds its by at most 1e-5
    # relative; on the wider ranges of the properties above (pump FWHM up to
    # 1 nm) the lengths differ by up to 5e-3 mm
    fiber, point = _calibrated(silica, pump, target, length)
    pump_spec = GaussianSpectrum(pump, pump_fwhm)
    signal_spec = GaussianSpectrum(point.lambda_s_nm, signal_fwhm)
    sig, idl, std = optimize_compensators(fiber, quartz_material, pump_spec, signal_spec)
    a, b, oracle_std = _variance_design(fiber, quartz_material, pump_spec, signal_spec)
    assert (sig.orientation_sign, idl.orientation_sign) == (np.sign(a), np.sign(b))
    assert abs(sig.orientation_sign * sig.length_mm - a) <= 1e-3
    assert abs(idl.orientation_sign * idl.length_mm - b) <= 1e-3
    assert oracle_std * (1.0 - 1e-12) <= std <= oracle_std * (1.0 + 1e-5)


@CHEAP
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
def test_concurrence_invariant_under_signal_flip(entries):
    g = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 1e-3)  # far enough from 0 to normalise
    state = TwoQubitState(rho / np.trace(rho))
    assert concurrence(relabel_signal_flip(state)) == pytest.approx(
        concurrence(state), abs=1e-7)


@CHEAP
@given(a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0), c=st.floats(-1.0, 1.0),
       offset=st.floats(0.0, 1e5))
def test_mean_referenced_state_ignores_the_offset(signal_spectrum, pump_spectrum,
                                                  a, b, c, offset):
    # smooth phases in rad per sigma; the mean reference removes any
    # constant and only rotates the coherence of the raw phase
    def phase(k):
        def fn(s, p):
            x = (s - signal_spectrum.center_nm) / signal_spectrum.sigma_nm
            y = (p - pump_spectrum.center_nm) / pump_spectrum.sigma_nm
            return a * x + b * y + c * x * x + k
        return fn

    def state(k, relative_to_mean):
        return mixed_state_over_spectra(phase(k), signal_spectrum, pump_spectrum,
                                        relative_to_mean=relative_to_mean).matrix

    referenced = state(offset, True)
    assert np.max(np.abs(referenced - state(0.0, True))) <= 1e-9
    assert abs(abs(referenced[0, 3]) - abs(state(offset, False)[0, 3])) <= 1e-12


@CHEAP
@given(r=st.floats(0.0, 1.0), angle=st.floats(-math.pi, math.pi), w=st.floats(0.0, 1.0))
@example(r=1.0, angle=math.pi, w=0.0)
@example(r=1.0, angle=2.0, w=0.25)
def test_sweep_closed_form_is_the_x_states_visibilities(paper_config, r, angle, w):
    # the sweep's (1 - w, (1 - w)|Re c|) against visibility() of the state that
    # effective_state_at_power builds from the same coherence c and weight w;
    # 4 ulps of 1, the visibilities' scale, since |Re c| may be near 0
    coh = r * complex(math.cos(angle), math.sin(angle))
    cfg = paper_config
    args = (cfg.noise, cfg.fiber, cfg.compensators)
    cohs = lambda phase_fn, signal, pumps, relative_to_mean: [coh] * len(pumps)
    with mock.patch("xsplice.states.spectral_coherences", cohs), \
            mock.patch("xsplice.counts.spectral_coherences", cohs), \
            mock.patch("xsplice.counts._noise_weight", lambda p, pw, baseline: w):
        (_, v_rect, v_diag), = visibility_vs_power(*args, [30.0], cfg.signal, cfg.pump)
        state = effective_state_at_power(*args, cfg.signal, cfg.pump, 30.0)
    assert abs(v_rect - visibility(state, "rectilinear")) <= 4 * math.ulp(1.0)
    assert abs(v_diag - visibility(state, "diagonal")) <= 4 * math.ulp(1.0)


def _sigma_phase(signal, pump, a, b, c, d, e, offset=0.0):
    """The phase offset + a x + b y + c x^2 + d x y + e y^2, x and y in sigma."""
    def fn(s, p):
        x = (s - signal.center_nm) / signal.sigma_nm
        y = (p - pump.center_nm) / pump.sigma_nm
        return offset + a * x + b * y + c * x * x + d * x * y + e * y * y
    return fn


def _recorded(build):
    """Call ``build`` and return its result and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build()
    return result, [str(w.message) for w in caught]


@CHEAP
@given(a=st.floats(0.0, 80.0), b=st.floats(0.0, 80.0), c=st.floats(-8.0, 8.0),
       d=st.floats(-8.0, 8.0), e=st.floats(-8.0, 8.0))
def test_state_warns_where_the_node_rule_errs(signal_spectrum, pump_spectrum, a, b, c, d, e):
    # linear, quadratic and cross-term phases: wherever the nodes miss the
    # exact Gaussian average by more than 2e-6, the state warns
    phase = _sigma_phase(signal_spectrum, pump_spectrum, a, b, c, d, e)
    state, messages = _recorded(
        lambda: mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum))
    assert all(m.startswith("spectral quadrature not converged") for m in messages)
    error = abs(2 * state.matrix[0, 3] - exact_quadratic_average(a, b, c, d, e))
    assert error <= 2e-6 or messages


@CHEAP
@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6), c=st.floats(-1e4, 1e4),
       d=st.floats(-1e4, 1e4), e=st.floats(-1e4, 1e4), offset=st.floats(-1e5, 1e5))
def test_alias_estimate_finite_on_extreme_fits(signal_spectrum, pump_spectrum,
                                                a, b, c, d, e, offset):
    # slopes up to 1e6 rad/sigma, curvatures up to 1e4 and offsets up to
    # 1e5: no numpy warning, and the estimate, where it applies, is finite
    phase = _sigma_phase(signal_spectrum, pump_spectrum, a, b, c, d, e, offset)
    ls, lp, ws, wp = _spectral_axes(signal_spectrum, pump_spectrum, QUAD_NODES,
                                    QUAD_SPAN_SIGMAS)
    probe_s = signal_spectrum.center_nm + signal_spectrum.sigma_nm * _PROBE_X[:, None]
    probe_p = pump_spectrum.center_nm + pump_spectrum.sigma_nm * _PROBE_X[None, :]
    moved, messages = _recorded(
        lambda: _alias_check(phase(ls, lp)[None], phase(probe_s, lp)[None],
                             phase(ls, probe_p)[None], ws, wp[None])[0])
    assert not messages
    assert moved is None or math.isfinite(moved)
    _, messages = _recorded(
        lambda: mixed_state_over_spectra(phase, signal_spectrum, pump_spectrum))
    assert all(m.startswith("spectral quadrature not converged") for m in messages)


SETTINGS = standard_settings()
PIS = _projector_stack(SETTINGS)
unit_floats = st.floats(-1.0, 1.0)


def _nll(rho, counts, n):
    lam = n * np.clip(np.einsum("kij,ji->k", PIS, rho).real, 1e-12, None)
    return float(-(counts * np.log(lam) - lam).sum())


def _random_state(entries, rank=4):
    g = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = g[:, :rank] @ g[:, :rank].conj().T
    assume(np.trace(rho).real > 1e-3)
    return TwoQubitState(rho / np.trace(rho))


#: A basis of the 4x4 Hermitian matrices: 2 E_ii, and E_ij + E_ji and i (E_ji - E_ij) for i < j.
HERMITIAN_BASIS = [m + m.conj().T for m in
                   (np.eye(16) * np.where(np.tril(np.ones((4, 4)), -1), 1j, 1).ravel())
                   .reshape(16, 4, 4)]


@CHEAP
@given(entries=st.lists(unit_floats, min_size=32, max_size=32),
       counts=st.lists(st.integers(0, 5000), min_size=36, max_size=36),
       n=st.sampled_from([1e3, 1e4, 1e5]))
def test_nll_rho_gradient_matches_central_difference(entries, counts, n):
    rho, counts = _random_state(entries).matrix, np.array(counts, dtype=float)
    flat = PIS.reshape(36, 16)
    # well inside the states, where the step below keeps every lam > 0
    assume(np.einsum("kij,ji->k", PIS, rho).real.min() > 1e-3)
    grad = _gradient(rho, flat, counts, n)
    assert np.abs(grad - grad.conj().T).max() <= 1e-9 * np.abs(grad).max()
    h = 1e-7
    central = np.array([(_deviance(rho + h * e, flat, counts, n)
                         - _deviance(rho - h * e, flat, counts, n)) / (2.0 * h)
                        for e in HERMITIAN_BASIS])
    along = np.array([np.vdot(grad, e).real for e in HERMITIAN_BASIS])
    assert np.linalg.norm(along - central) <= 1e-6 * np.linalg.norm(along)


@SOLVER
@given(entries=st.lists(unit_floats, min_size=32, max_size=32),
       n=st.sampled_from([1e3, 1e4, 1e5]), seed=st.integers(0, 2**32 - 1))
def test_mle_is_a_state_at_least_as_likely_as_the_truth(entries, n, seed):
    truth = _random_state(entries)
    data = simulate_counts(truth, SETTINGS, n, seed=seed)
    rho = reconstruct_mle(data).matrix
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    counts = np.asarray(data.counts)
    nll_truth = _nll(truth.matrix, counts, n)
    # margin for rounding only: both sums are of 36 terms of size ~n
    assert _nll(rho, counts, n) <= nll_truth + 1e-12 * abs(nll_truth)


@CHEAP
@given(entries=st.lists(unit_floats, min_size=32, max_size=32), rank=st.integers(1, 4),
       n=st.sampled_from([1e3, 1e4, 1e5]), seed=st.integers(0, 2**32 - 1))
def test_mle_meets_the_optimality_conditions(entries, rank, n, seed):
    # The NLL is convex and the states are {rho >= 0, tr rho = 1}, so rho is
    # optimal iff, with G = dNLL/drho and mu = Re tr(G rho), G - mu I >= 0
    # and (G - mu I) rho = 0; and NLL(rho) is within the certified gap
    # -lambda_min(G - mu I) of the optimum. Checked from the gradient alone,
    # with no solver. Over 400 seeded draws of ranks 1-4 at 1e3-1e5 counts,
    # the gap reaches 5.4e-13 |G| and the residual 5.1e-13 |G|; where
    # projected gradient steps alone finished the boundary optima of ranks
    # 1-3, the gap had reached 3.8e-7 |G|.
    data = simulate_counts(_random_state(entries, rank), SETTINGS, n, seed=seed)
    rho = reconstruct_mle(data).matrix
    g = _gradient(rho, PIS.reshape(36, 16), np.asarray(data.counts), n)
    slack = g - np.trace(g @ rho).real * np.eye(4)
    tol = 1e-10 * np.linalg.norm(g)
    assert -np.linalg.eigvalsh(slack).min() <= tol
    assert np.linalg.norm(slack @ rho) <= tol
