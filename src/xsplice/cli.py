"""Command-line front end.

Each subcommand reads the run configuration (built-in defaults, an
optional ``--config`` INI file, an optional ``--materials`` database)
and emits CSV/JSON artifacts either to stdout or into ``--out <dir>``.
All floating-point output is written with full ``repr`` precision so
repeated runs with the same seed are byte identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import counts as counts_mod
from . import design, phase, phasematch, states, tomography
from .config import ConfigError, load_config
from .materials import WavelengthRangeError

__all__ = ["main"]

_NUMERICAL_ERRORS = (
    phasematch.PhaseMatchError,
    phasematch.BandwidthError,
    design.OptimizationError,
    design.CalibrationError,
    counts_mod.FitError,
    WavelengthRangeError,
    states.VisibilityUndefinedError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _ranged(convert, low, high=math.inf, strict=False):
    """argparse type: a finite ``convert(text)`` in [low, high], or (low, high] if strict.

    Anything else, NaN and infinities included, is a usage error that
    names the option.
    """
    domain = f"{'>' if strict else '>='} {low:g}" + (f" and <= {high:g}" if high < math.inf else "")

    def parse(text: str):
        val = convert(text)
        above_low = low < val if strict else low <= val
        if not (above_low and val <= high and val < math.inf):
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be finite and {domain}")
        return val

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_POSITIVE = _ranged(float, 0.0, strict=True)
_NON_NEGATIVE_INT = _ranged(int, 0)
#: numpy's Poisson sampler rejects means above about 9.2e18.
_MAX_COUNTS_PER_SETTING = 1e18


def _replicates(text: str) -> int:
    """argparse type of ``--bootstrap``: 0 for no error bars, else at least two replicates."""
    val = int(text)
    if not (val == 0 or val >= 2):
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be 0 or an integer >= 2")
    return val


_replicates.__name__ = "int"  # argparse names it in "invalid int value"


def _write_csv(header, rows) -> str:
    # str of a Python float is its repr; of a numpy scalar, its shortest
    # round-trip digits without the type name that numpy 2's repr adds
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(map(str, row)) + "\n")
    return buf.getvalue()


def _emit(text: str, out_dir, filename: str):
    if out_dir is None:
        sys.stdout.write(text)
    else:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_calibrate(cfg, args):
    pump = cfg.pump.center_nm if args.pump is None else args.pump
    signal = cfg.signal.center_nm if args.signal is None else args.signal
    b = design.calibrate_birefringence(cfg.fiber.core_model, pump, signal)
    _emit(_json_text({"pump_nm": pump, "signal_nm": signal,
                      "birefringence": b}), args.out, "calibration.json")


def _cmd_tuning_curve(cfg, args):
    points, skipped = phasematch.tuning_curve(cfg.fiber, (args.from_nm, args.to_nm),
                                              args.steps)
    rows = [(p.lambda_p_nm, p.lambda_s_nm, p.lambda_i_nm, p.residual_mismatch)
            for p in points]
    text = _write_csv(("lambda_p_nm", "lambda_s_nm", "lambda_i_nm", "residual_mismatch"),
                      rows)
    _emit(text, args.out, "tuning_curve.csv")
    if skipped:
        sys.stderr.write("no solution for pump values: "
                         + ", ".join(f"{v:g}" for v in skipped) + "\n")


def _map_axes(cfg, points):
    s_ax = states.bandwidth_grid(cfg.signal.center_nm, cfg.signal.fwhm_nm, points)
    p_ax = states.bandwidth_grid(cfg.pump.center_nm, cfg.pump.fwhm_nm, points)
    return s_ax, p_ax


def _cmd_phase_map(cfg, args):
    s_ax, p_ax = _map_axes(cfg, args.points)
    comps = cfg.compensators if args.compensated else None
    pmap = phase.phase_map(cfg.fiber, comps, s_ax, p_ax)
    rows = []
    for i, ls in enumerate(pmap.signal_nm):
        for j, lp in enumerate(pmap.pump_nm):
            rows.append((float(ls), float(lp), float(pmap.deviation_deg[i, j])))
    _emit(_write_csv(("lambda_s", "lambda_p", "phase_deg"), rows),
          args.out, "phase_map.csv")
    meta = {
        "compensated": bool(args.compensated),
        "grid_points": args.points,
        "signal_nm": {"min": float(s_ax[0]), "max": float(s_ax[-1])},
        "pump_nm": {"min": float(p_ax[0]), "max": float(p_ax[-1])},
        "peak_to_peak_deg": pmap.peak_to_peak_deg,
        "fiber": {"length_m": cfg.fiber.length_m,
                  "birefringence": cfg.fiber.birefringence,
                  "gamma_per_w_m": cfg.fiber.gamma},
        "compensators": [
            {"arm": c.arm, "length_mm": c.length_mm,
             "orientation_sign": c.orientation_sign}
            for c in (comps or ())
        ],
    }
    if args.out is not None:
        _emit(_json_text(meta), args.out, "phase_map.json")


def _cmd_optimize(cfg, args):
    sig, idl, std_deg = design.optimize_compensators(cfg.fiber, cfg.material,
                                                     cfg.pump, cfg.signal)
    s_ax, p_ax = _map_axes(cfg, states.DESIGN_POINTS)
    pmap = phase.phase_map(cfg.fiber, (sig, idl), s_ax, p_ax)
    _emit(_json_text({
        "signal_mm": sig.length_mm,
        "signal_orientation": sig.orientation_sign,
        "idler_mm": idl.length_mm,
        "idler_orientation": idl.orientation_sign,
        "residual_deg": pmap.peak_to_peak_deg,
        "weighted_std_deg": std_deg,
    }), args.out, "compensators.json")


def _bell_metrics(state) -> dict:
    """The best Bell fidelity, the Bell state that attains it, and the tangle."""
    fid, best = states.best_bell_fidelity(state)
    return {"best_bell_fidelity": fid, "best_bell_state": best, "tangle": states.tangle(state)}


def _cmd_state(cfg, args):
    comps = None if args.uncompensated else cfg.compensators
    state = counts_mod.effective_state_at_power(
        cfg.noise, cfg.fiber, comps, cfg.signal, cfg.pump, args.power,
        baseline_noise=cfg.baseline_noise)
    payload = {
        "state": state.to_json_dict(),
        "metrics": {
            **_bell_metrics(state),
            "visibility_rectilinear": states.visibility(state, "rectilinear"),
            "visibility_diagonal": states.visibility(state, "diagonal"),
        },
    }
    _emit(_json_text(payload), args.out, "state.json")


def _cmd_power_sweep(cfg, args):
    powers = np.linspace(args.min, args.max, args.steps)
    vis = counts_mod.visibility_vs_power(cfg.noise, cfg.fiber, cfg.compensators,
                                         powers, cfg.signal, cfg.pump,
                                         baseline_noise=cfg.baseline_noise)
    rows = []
    for i, (pw, v_rect, v_diag) in enumerate(vis):
        rec = counts_mod.predict_counts(cfg.noise, pw, args.duration,
                                        seed=np.random.SeedSequence([args.seed, i]))
        rows.append((pw, rec.signal_total, rec.idler_total,
                     rec.coincidences_total, rec.coincidences_background,
                     counts_mod.car(cfg.noise, pw), v_rect, v_diag))
    _emit(_write_csv(("power_mW", "singles_s", "singles_i", "coincidences",
                      "accidentals", "car", "v_rect", "v_diag"), rows),
          args.out, "power_sweep.csv")


def _cmd_tomography(cfg, args):
    if args.state == "builtin":
        true_state = states.werner_state(0.896, "psi-")
    else:
        try:
            with open(args.state, encoding="utf-8") as fh:
                true_state = states.TwoQubitState.from_json_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"state file {args.state}: {type(exc).__name__}: {exc}") from exc
    settings = tomography.standard_settings()
    data = tomography.simulate_counts(true_state, settings,
                                      args.counts_per_setting, seed=args.seed)
    rho = tomography.reconstruct_mle(data)
    metrics = {**_bell_metrics(rho),
               "fidelity_to_truth": states.state_fidelity(rho, true_state)}
    if args.bootstrap > 0:
        f_std, t_std = tomography.error_bars(data, args.bootstrap,
                                             seed=args.seed + 1,
                                             fidelity_target=metrics["best_bell_state"])
        metrics["fidelity_std"] = f_std
        metrics["tangle_std"] = t_std
    if args.out is not None:
        _emit(_write_csv(("setting_label", "count"),
                         [(s.label, int(c)) for s, c in zip(data.settings, data.counts)]),
              args.out, "tomography_counts.csv")
        _emit(_json_text(rho.to_json_dict()), args.out, "tomography_state.json")
    _emit(_json_text(metrics), args.out, "tomography_metrics.json")


def build_parser() -> _Parser:
    parser = _Parser(prog="xsplice",
                     description="Cross-spliced fiber photon-pair source toolkit")
    parser.add_argument("--config", help="INI config file overriding the built-in defaults")
    parser.add_argument("--materials", help="JSON material database overriding the built-ins")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("calibrate", help="fit the fiber birefringence to an operating point")
    p.add_argument("--pump", type=_POSITIVE,
                   help="pump, nm (default: the config's pump_center_nm)")
    p.add_argument("--signal", type=_POSITIVE,
                   help="signal, nm (default: the config's signal_center_nm)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("tuning-curve", help="solve signal/idler across a pump range")
    p.add_argument("--from", dest="from_nm", type=_POSITIVE, required=True)
    p.add_argument("--to", dest="to_nm", type=_POSITIVE, required=True)
    p.add_argument("--steps", type=_ranged(int, 2), required=True)
    p.set_defaults(func=_cmd_tuning_curve)

    p = sub.add_parser("phase-map", help="phase deviation over the spectral grid")
    p.add_argument("--compensated", action="store_true")
    p.add_argument("--points", type=_ranged(int, 1), default=states.DESIGN_POINTS)
    p.set_defaults(func=_cmd_phase_map)

    p = sub.add_parser("optimize-compensators", help="optimal crystal lengths per arm")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("state", help="effective two-qubit state and metrics")
    p.add_argument("--uncompensated", action="store_true",
                   help="the same source at the same power, without the crystals")
    p.add_argument("--power", type=_ranged(float, 0.0), default=30.0, help="average pump power, mW")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("power-sweep", help="counts and visibilities versus pump power")
    p.add_argument("--min", type=_POSITIVE, required=True)
    p.add_argument("--max", type=_POSITIVE, required=True)
    p.add_argument("--steps", type=_ranged(int, 1), required=True)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--duration", type=_POSITIVE, default=30.0, help="integration time, s")
    p.set_defaults(func=_cmd_power_sweep)

    p = sub.add_parser("tomography-demo", help="simulate and reconstruct tomography")
    p.add_argument("--state", default="builtin", help="'builtin' or a state JSON file")
    p.add_argument("--counts-per-setting", default=1e5,
                   type=_ranged(float, 0.0, _MAX_COUNTS_PER_SETTING, strict=True))
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--bootstrap", type=_replicates, default=0)
    p.set_defaults(func=_cmd_tomography)

    for p in sub.choices.values():  # every subcommand takes --out, last in its usage
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(load_config(args.config, args.materials), args)
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return 0
