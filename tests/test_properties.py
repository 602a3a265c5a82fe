"""Property tests of physical invariants over drawn operating points."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xsplice import FiberSpec, TwoQubitState, reconstruct_mle, simulate_counts, standard_settings
from xsplice.design import calibrate_birefringence
from xsplice.phasematch import output_bandwidths, phase_mismatch, solve_signal_idler
from xsplice.states import concurrence, relabel_signal_flip
from xsplice.tomography import _neg_log_likelihood, _params_to_rho, _projector_stack

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
    b = calibrate_birefringence(silica, pump, target, b_range=B_RANGE, length_m=length)
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


@CHEAP
@given(pump=pumps, signal=targets, b=st.floats(1e-5, 1e-3))
def test_mismatch_linear_in_birefringence(silica, pump, signal, b):
    dk0 = phase_mismatch(FiberSpec(0.13, 0.0, 0.0, silica), pump, signal)
    dk = phase_mismatch(FiberSpec(0.13, b, 0.0, silica), pump, signal)
    expected = 4.0 * np.pi * b / (pump * 1e-9)
    assert dk - dk0 == pytest.approx(expected, rel=1e-9)


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


@CHEAP
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
def test_concurrence_invariant_under_signal_flip(entries):
    g = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 1e-3)  # far enough from 0 to normalise
    state = TwoQubitState(rho / np.trace(rho))
    assert concurrence(relabel_signal_flip(state)) == pytest.approx(
        concurrence(state), abs=1e-7)


SETTINGS = standard_settings()
PIS = _projector_stack(SETTINGS)
unit_floats = st.floats(-1.0, 1.0)


def _nll(rho, counts, n):
    lam = n * np.clip(np.einsum("kij,ji->k", PIS, rho).real, 1e-12, None)
    return float(-(counts * np.log(lam) - lam).sum())


def _random_state(entries):
    g = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 1e-3)
    return TwoQubitState(rho / np.trace(rho))


@CHEAP
@given(t=st.lists(unit_floats, min_size=16, max_size=16),
       counts=st.lists(st.integers(0, 5000), min_size=36, max_size=36),
       n=st.sampled_from([1e3, 1e4, 1e5]))
def test_nll_gradient_matches_central_difference(t, counts, n):
    t, counts = np.array(t), np.array(counts, dtype=float)
    assume(t @ t > 0.1)
    # away from the 1e-12 probability floor, where the NLL has a kink
    assume(np.einsum("kij,ji->k", PIS, _params_to_rho(t)).real.min() > 1e-6)
    _, grad = _neg_log_likelihood(t, PIS, counts, n)
    h = 1e-5
    central = np.array([
        (_neg_log_likelihood(t + h * e, PIS, counts, n)[0]
         - _neg_log_likelihood(t - h * e, PIS, counts, n)[0]) / (2.0 * h)
        for e in np.eye(16)])
    assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)


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
