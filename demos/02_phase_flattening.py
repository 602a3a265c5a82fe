"""Why the source needs compensators, and how their lengths are chosen.

Builds the relative-phase map between the two pair-creation processes
across the pump and signal bandwidths, shows the ~900 degree swing of
the bare source, then cuts one quartz crystal per output arm to cancel
the walk-off and shows the map flatten to a degree-level residual.
"""

from xsplice import (
    CompensatorSpec,
    GaussianSpectrum,
    bandwidth_grid,
    fused_silica,
    optimize_compensators,
    phase_map,
    quartz,
    weighted_phase_std,
)
from xsplice.config import load_config

cfg = load_config()
fiber, qz = cfg.fiber, cfg.material
pump, signal = cfg.pump, cfg.signal

s_ax = bandwidth_grid(signal.center_nm, signal.fwhm_nm, 101)
p_ax = bandwidth_grid(pump.center_nm, pump.fwhm_nm, 101)

bare = phase_map(fiber, None, s_ax, p_ax)
print("== bare source ==")
print(f"  phase deviation peak-to-peak over +/-3 sigma: {bare.peak_to_peak_deg:.0f} deg")
print("  A phase swinging by hundreds of degrees across the bandwidths")
print("  scrambles the |HH>+|VV> superposition into a nearly even mixture.")

print("\n== designing the compensators from the walk-off ==")
sig_comp, idl_comp, std_deg = optimize_compensators(fiber, qz, pump, signal)
orient = {+1: "slow axis vertical", -1: "slow axis horizontal"}
print(f"  signal arm: {sig_comp.length_mm:6.2f} mm quartz, {orient[sig_comp.orientation_sign]}")
print(f"  idler arm:  {idl_comp.length_mm:6.2f} mm quartz, {orient[idl_comp.orientation_sign]}")
print(f"  weighted phase std at the walk-off design: {std_deg:.3f} deg")

flat = phase_map(fiber, (sig_comp, idl_comp), s_ax, p_ax)
print(f"  compensated peak-to-peak: {flat.peak_to_peak_deg:.2f} deg")

print("\n== sensitivity ==")
for delta in (-1.0, +1.0):
    probe = (CompensatorSpec(sig_comp.length_mm + delta, qz,
                             sig_comp.orientation_sign, "signal"), idl_comp)
    print(f"  signal length {delta:+.0f} mm -> weighted std "
          f"{weighted_phase_std(fiber, probe, pump, signal):.3f} deg")
print("  Millimetre-level length errors already cost an order of magnitude")
print("  in flatness, which is why tunable wedges are used in practice.")
