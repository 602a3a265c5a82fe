"""What a fresh interpreter pays for ``import xsplice``.

Each check runs in a new ``python -c`` process: pytest's own
``LinAlgWarning`` filter has already loaded ``scipy.linalg`` here, and
this process's allocator has long been warmed by earlier tests.
"""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import xsplice

SRC = Path(xsplice.__file__).resolve().parents[1]
PAPER_INI = Path(__file__).resolve().parents[1] / "configs" / "paper.ini"

PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import xsplice as xs
"""


def run_fresh(script: str):
    """Run ``script`` after PRELUDE in a new interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-c", PRELUDE + script], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_import_and_calibrate_leave_scipy_unloaded():
    seen = run_fresh("""
import contextlib, io, runpy
after_import = scipy_modules()
sys.argv = ["xsplice", "calibrate", "--pump", "771", "--signal", "670"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("xsplice", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([after_import, code, json.loads(out.getvalue()), scipy_modules()]))
""")
    after_import, code, calibration, after_cli = seen
    assert after_import == []
    assert code == 0 and calibration["birefringence"] > 0
    assert after_cli == []


TOMOGRAPHY_RUN = """
data = xs.simulate_counts(xs.werner_state(0.9), xs.standard_settings(), 2000.0, seed=3)
result = [xs.reconstruct_mle(data).matrix.real.tolist(), list(xs.error_bars(data, 3, seed=4))]
"""


def test_tomography_leaves_scipy_unloaded():
    # the MLE is a numpy solve
    seen = run_fresh(TOMOGRAPHY_RUN + """
import contextlib, io, runpy
after_solve = scipy_modules()
sys.argv = ["xsplice", "tomography-demo", "--counts-per-setting", "2000", "--bootstrap", "3"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("xsplice", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([result, after_solve, code, json.loads(out.getvalue()), scipy_modules()]))
""")
    result, after_solve, code, metrics, after_cli = seen
    assert after_solve == []
    assert code == 0 and metrics["fidelity_std"] > 0
    assert after_cli == []
    # the same result as in this process
    namespace = {"xs": xsplice}
    exec(TOMOGRAPHY_RUN, namespace)
    assert result == namespace["result"]


SOLVER_RUNS = {
    "fit_params": """
truth = xs.NoiseParams(41.0, 150.0, 900.0, 1200.0, 1200.0, 0.24, 0.16)
targets = [(50.0, "car", xs.car(truth, 50.0)), (10.0, "car", xs.car(truth, 10.0)),
           (33.0, "pair_rate", xs.expected_rates(truth, 33.0)["pairs"])]
start = xs.NoiseParams(10.0, 500.0, 2000.0, 1200.0, 1200.0, 0.24, 0.16)
fitted = xs.fit_params(targets, start)[0]
result = [fitted.pair_rate_coeff, fitted.raman_s, fitted.raman_i]
""",
}


@pytest.mark.parametrize("solver", sorted(SOLVER_RUNS))
def test_solver_leaves_scipy_unloaded(solver):
    # fit_params loaded scipy.optimize on first use until it ran its own
    # Levenberg-Marquardt
    before, result, after = run_fresh(
        "before = scipy_modules()\n" + SOLVER_RUNS[solver]
        + "print(json.dumps([before, result, scipy_modules()]))")
    assert before == [] and after == []
    # the same result as in this process, where scipy was loaded all along
    namespace = {"xs": xsplice}
    exec(SOLVER_RUNS[solver], namespace)
    assert result == namespace["result"]


def test_library_imports_no_scipy():
    # scipy is a test dependency: only the unused tomography.minimize
    # forwarder, which perfbench/tracing.py pins, still names it
    found = []
    for path in sorted((SRC / "xsplice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {id(node): fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append((path.stem, owners.get(id(node))))
    assert found == [("tomography", "minimize")]


FAULT_PASSES = {
    "design": """
signal_axis = xs.bandwidth_grid(cfg.signal.center_nm, cfg.signal.fwhm_nm, 101)
pump_axis = xs.bandwidth_grid(lp, cfg.pump.fwhm_nm, 101)

def one_pass():
    xs.tuning_curve(fiber, (lp - 6.0, lp + 6.0), 13)
    sig, idl, _ = xs.optimize_compensators(fiber, cfg.material, cfg.pump, cfg.signal)
    xs.phase_map(fiber, (sig, idl), signal_axis, pump_axis)
""",
    # the 27-point node-and-probe grid of the state quadrature's first rule
    "state": """
def one_pass():
    xs.effective_state_at_power(cfg.noise, fiber, cfg.compensators, cfg.signal, cfg.pump,
                                30.0, baseline_noise=cfg.baseline_noise)
""",
    # the power sweep's grouped coherence pass
    "sweep": """
powers = [1.0 + 11.0 * k / 3.0 for k in range(16)]  # 1 to 56 mW

def one_pass():
    xs.visibility_vs_power(cfg.noise, fiber, cfg.compensators, powers, cfg.signal, cfg.pump,
                           baseline_noise=cfg.baseline_noise)
""",
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the warm-up targets glibc's dynamic mmap threshold")
@pytest.mark.parametrize("kind", sorted(FAULT_PASSES))
def test_pass_does_not_fault_after_warm_up(kind):
    # without the warm-up in xsplice/__init__.py each pass faulted: the
    # arrays above glibc's default 128 KiB mmap threshold were mmapped, and
    # the heap trimmed, anew on every call
    faults = run_fresh(f"""
import resource
cfg = xs.load_config({str(PAPER_INI)!r})
fiber, lp = cfg.fiber, cfg.pump.center_nm
""" + FAULT_PASSES[kind] + """
one_pass()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    one_pass()
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start))
""")
    assert faults / 10 < 50
