"""The benchmark's per-layer tracer must find every binding it rebinds.

``perfbench/tracing.py`` wraps each public function at the modules that
bind it by name. A refactor that drops one of those bindings breaks only
a traced benchmark run, so the install is checked here.
"""

from pathlib import Path

import xsplice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_layer_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sites = [(getattr(xsplice, module), attr)
             for attr, modules, _ in tracing.LAYERS.values() for module in modules]
    originals = [getattr(m, attr) for m, attr in sites]
    tracer = tracing.Tracer(xsplice)
    tracer.install()
    try:
        wrapped = [getattr(m, attr) for m, attr in sites]
        installed = len(tracer.saved)
    finally:
        tracer.uninstall()
    assert installed == len(sites)
    for fn, original in zip(wrapped, originals):
        assert fn is not original and fn.__wrapped__ is original
    assert [getattr(m, attr) for m, attr in sites] == originals


def test_traced_state_evaluates_the_phase_once(monkeypatch, paper_config):
    # the mean-phase reference comes from the quadrature nodes, so a
    # source state makes one phase call and no separate mean pass
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = paper_config
    tracer = tracing.Tracer(xsplice)
    tracer.install()
    try:
        xsplice.effective_state_at_power(cfg.noise, cfg.fiber, cfg.compensators, cfg.signal,
                                         cfg.pump, 30.0, baseline_noise=cfg.baseline_noise)
    finally:
        tracer.uninstall()
    totals = tracer.snapshot()
    assert totals["phase.compensated_phase"]["calls"] == 1
    assert totals["states.spectral_mean_phase"]["calls"] == 0


def test_benchmark_shims_stay_bound(paper_config):
    # perfbench/tasks.py still reads phase.bandwidth_grid and passes
    # length_m to calibrate_birefringence, though no library code does;
    # the benchmark change of ROADMAP item 1 deletes this test with both
    assert xsplice.phase.bandwidth_grid is xsplice.states.bandwidth_grid
    core = paper_config.fiber.core_model
    assert (xsplice.design.calibrate_birefringence(core, 771.0, 670.0, length_m=0.5)
            == xsplice.design.calibrate_birefringence(core, 771.0, 670.0))
