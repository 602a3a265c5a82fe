"""Per-layer tracing from outside the program.

The tracer rebinds the public functions of each xsplice module at the
sites where the calling modules bind them (``xsplice.design`` binds
``solve_signal_idler`` by name, ``xsplice.tomography`` binds scipy's
``minimize``), so every call made through the library is counted. Each
wrapped call records inclusive wall time, self time (wall minus the
wrapped calls it made), CPU time of the process, and for a few layers
a work count read from the arguments or the result.

Import times come from ``python -X importtime`` output.
"""

from __future__ import annotations

import functools
import time

import numpy as np


def _points_arg(position, name):
    def count(args, kwargs, result):
        return np.size(kwargs[name] if name in kwargs else args[position])
    return count


def _broadcast_points(args, kwargs, result):
    return np.broadcast(np.asarray(args[2]), np.asarray(args[3])).size


#: layer -> (attribute, modules binding it, work counters)
LAYERS = {
    "materials.index": ("index", ("materials", "phasematch", "phase"),
                        {"points": _points_arg(1, "wavelength_nm")}),
    "phasematch.phase_mismatch": ("phase_mismatch", ("phasematch",),
                                  {"points": _points_arg(2, "lambda_s_nm")}),
    "phasematch.solve_signal_idler": ("solve_signal_idler", ("phasematch", "design"), {}),
    "phasematch.tuning_curve": ("tuning_curve", ("phasematch",), {}),
    "phasematch.output_bandwidths": ("output_bandwidths", ("phasematch",), {}),
    "phase.total_phase": ("total_phase", ("phase", "design"), {}),
    "phase.compensator_phase": ("compensator_phase", ("phase", "design"), {}),
    "phase.compensated_phase": ("compensated_phase", ("phase", "design", "counts"),
                                {"points": _broadcast_points}),
    "phase.phase_map": ("phase_map", ("phase",), {}),
    "design.calibrate_birefringence": ("calibrate_birefringence", ("design",), {}),
    "design.optimize_compensators": ("optimize_compensators", ("design",), {}),
    "design.weighted_phase_std": ("weighted_phase_std", ("design",), {}),
    "states.spectral_mean_phase": ("spectral_mean_phase", ("states", "counts"), {}),
    "states.mixed_state_over_spectra": ("mixed_state_over_spectra", ("states", "counts"), {}),
    "counts.effective_state_at_power": ("effective_state_at_power", ("counts",), {}),
    "counts.visibility_vs_power": ("visibility_vs_power", ("counts",), {}),
    "tomography.simulate_counts": ("simulate_counts", ("tomography",), {}),
    "tomography.reconstruct_mle": ("reconstruct_mle", ("tomography",), {}),
    "tomography.error_bars": ("error_bars", ("tomography",), {}),
    "tomography.minimize": ("minimize", ("tomography",),
                            {"nfev": lambda a, k, r: r.nfev, "nit": lambda a, k, r: r.nit}),
    "config.load_config": ("load_config", ("config",), {}),
}

#: -X importtime module name -> metric
IMPORTS = {"xsplice": "import.xsplice_s", "numpy": "import.numpy_s",
           "scipy.linalg": "import.scipy_linalg_s", "scipy.optimize": "import.scipy_optimize_s"}

TIMES = ("busy_s", "self_s", "cpu_s")


def per_layer_spec() -> list:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    spec = []
    for layer, (_, _, counters) in LAYERS.items():
        spec.append((f"{layer}.calls", "count"))
        spec += [(f"{layer}.{t}", "s") for t in TIMES]
        spec += [(f"{layer}.{c}", "count") for c in counters]
    spec += [(m, "s") for m in IMPORTS.values()]
    spec += [("trace.tasks", "count"), ("trace.overhead_pct", "%")]
    return spec


class Tracer:
    """Wraps the LAYERS in one xsplice import; ``snapshot`` sums them up."""

    def __init__(self, xs):
        self.xs = xs
        self.stack = []
        self.saved = []
        self.totals = {layer: dict.fromkeys(("calls", *TIMES), 0.0) for layer in LAYERS}
        for layer, (_, _, counters) in LAYERS.items():
            self.totals[layer].update(dict.fromkeys(counters, 0.0))

    def _wrap(self, layer, fn, counters):
        totals = self.totals[layer]
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                dc = time.process_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                totals["calls"] += 1
                totals["busy_s"] += dt
                totals["self_s"] += dt - frame[0]
                totals["cpu_s"] += dc
            for key, count in counters.items():
                totals[key] += count(args, kwargs, result)
            return result
        return traced

    def install(self):
        for layer, (attr, sites, counters) in LAYERS.items():
            modules = [getattr(self.xs, site) for site in sites]
            fn = getattr(modules[0], attr)
            if any(getattr(m, attr) is not fn for m in modules):
                raise RuntimeError(f"{layer} is bound to different objects across {sites}")
            traced = self._wrap(layer, fn, counters)
            for m in modules:
                self.saved.append((m, attr, fn))
                setattr(m, attr, traced)

    def uninstall(self):
        for m, attr, fn in reversed(self.saved):
            setattr(m, attr, fn)
        self.saved.clear()

    def snapshot(self) -> dict:
        return {layer: dict(v) for layer, v in self.totals.items()}


def import_times(stderr_text: str) -> dict:
    """Cumulative seconds per IMPORTS module from ``-X importtime`` lines."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in IMPORTS:
            try:
                found[IMPORTS[name]] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return found


def layer_metrics(totals: dict, imports: dict, tasks: int, overhead_pct: float) -> dict:
    """Flatten traced totals into the per-layer metrics of BENCHMARK.json."""
    flat = {}
    for layer, values in totals.items():
        for key, value in values.items():
            flat[f"{layer}.{key}"] = value
    flat.update(imports)
    flat["trace.tasks"] = tasks
    flat["trace.overhead_pct"] = overhead_pct
    out = {}
    for name, unit in per_layer_spec():
        value = flat.get(name, 0.0)
        out[name] = {"value": int(value) if unit == "count" else float(value), "unit": unit}
    return out
