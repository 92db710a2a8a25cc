"""The performance ledger's entry points exist in the simulator.

``simbench``'s traced round patches every method and function named in
``simbench.trace.ENTRY_POINTS`` / ``ENTRY_FUNCTIONS`` into a span of its
layer.  A name it cannot find is recorded in ``Tracer.missing`` and
skipped, and the round then charges that layer's time to its caller
without failing.  This test turns such a rename into a failure.
"""

from simbench.trace import ENTRY_POINTS, Tracer


def test_every_ledger_entry_point_is_patched():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_uninstall_restores_the_originals():
    import importlib

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for module_name, class_name, methods, _layer in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            assert not hasattr(owner.__dict__[method], "simbench_layer"), (
                f"{class_name}.{method} still patched"
            )
