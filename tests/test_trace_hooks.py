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
